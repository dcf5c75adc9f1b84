"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest bench/tests -q

Runs every workload untraced and traced with a few samples per call, and
checks the result line against BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracing import Patcher, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio 0 " in out.stdout


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = run_bench("--workload", "data", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_missing_wrap_target_is_recorded():
    module = types.ModuleType("fake")
    module.present = lambda: 1
    patcher = Patcher()
    tracer = Tracer("t")
    patcher.patch(module, "present", tracer.wrap("fake.present"))
    patcher.patch(module, "absent", tracer.wrap("fake.absent"))
    assert module.present() == 1
    assert patcher.missing == ["fake.absent"]
    assert [s[0] for s in tracer.spans] == ["fake.present"]


def test_self_time_excludes_children():
    tracer = Tracer("t")
    tracer.spans = [["outer", None, 0.0, 10.0, -1, 0.0], ["inner", None, 2.0, 5.0, 0, 0.0],
                    ["leaf", None, 3.0, 4.0, 1, 0.0]]
    assert tracer.self_times() == [7.0, 2.0, 1.0]
