"""Spans recorded from outside the program, and their self times.

The benchmark never edits ``src/``. For the length of a run it replaces the
names each expnet module looks up from the layer below (``expnet.model``'s
``conv_forward_batch``, ``expnet.train``'s ``adam_step`` and so on) with
wrappers that open and close spans. Spans are kept in memory as rows
``[name, stage, start, end, parent, attr]`` and written out when the run ends.

A wrapper whose target is missing is recorded in ``Patcher.missing``; the run
counts each one as a failed operation instead of dropping the metric.
"""

from __future__ import annotations

import json
import time

perf_counter = time.perf_counter

NAME, STAGE, START, END, PARENT, ATTR = range(6)


class Patcher:
    """Replaces module functions or class attributes, always wrapping the original."""

    def __init__(self):
        self.originals: dict[tuple[object, str], object] = {}
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        key = (owner, attr)
        if key not in self.originals:
            raw = vars(owner).get(attr)
            if not (callable(raw) or isinstance(raw, classmethod)):
                self.missing.append(f"{owner.__name__}.{attr}")
                return
            self.originals[key] = raw
        raw = self.originals[key]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))


class Tracer:
    """In-memory span store for one run; every span carries the run id when written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = False

    def open(self, name: str, stage: str | None = None, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, stage, perf_counter() if start is None else start,
                           None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self) -> float:
        end = perf_counter()
        self.spans[self.stack.pop()][END] = end
        return end

    def current_stage(self) -> str | None:
        return self.spans[self.stack[-1]][STAGE] if self.stack else None

    def wrap(self, name: str, stage_fn=None, attr_fn=None):
        """Wrapper factory: one span per call.

        ``stage_fn(args)`` names the stage (conv0, pool1, ...); ``attr_fn(args,
        result)`` gives the span's work attribute (FLOPs or MB), computed after
        the call returns.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                i = self.open(name, stage_fn(args) if stage_fn else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close()
                if attr_fn:
                    self.spans[i][ATTR] = attr_fn(args, result)
                return result
            return wrapper
        return make

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given name."""
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, stage, start, end, parent, attr) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                    "name": name, "stage": stage, "start": start,
                                    "end": end, "attr": attr}) + "\n")
