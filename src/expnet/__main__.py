"""``python -m expnet <command>``: the expnet CLI without the installed script."""

from .cli import main

main()
