"""expnet benchmark: one workload per process, run from the root of a checkout.

    python3 bench/run.py --workload {train,infer,data} --seed N --seconds S --trace {0,1}

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it once untraced and once with spans at every layer
boundary and prints the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and what each metric should move.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]
# File throughput (Measured.rates) is printed by the data workload but is not a
# bounded metric: every workload must report every bounded metric, and when
# train and infer also made file round trips between their compute calls, the
# rates spread by 13-28% between runs on a shared 2-core machine
# (interquartile range over the median of ten seeds), more than the largest
# bound the benchmark may set.


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "infer", "data"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: a few samples per call, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, cores))
        except ValueError:
            want = cores
        os.environ[var] = str(max(1, min(want, cores)))
    return cores


def blas_threads(np) -> str:
    """Thread count reported by the OpenBLAS numpy loaded, if it exports one."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def sgemm_gflops(np, n: int = 1024, reps: int = 10) -> float:
    """Median achieved GFLOP/s of a square float32 matrix product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    times = []
    for i in range(reps + 2):
        t = time.perf_counter()
        a @ b
        if i >= 2:
            times.append(time.perf_counter() - t)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (user ... steal), or None elsewhere."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> str:
    """Share of all CPU time the hypervisor gave to other guests between two reads."""
    if before is None or after is None or sum(after) == sum(before):
        return "unknown"
    return f"{(after[7] - before[7]) / (sum(after) - sum(before)):.2%}"


def fingerprint(np, cores: int, sgemm: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": cores,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": blas_threads(np), "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "sgemm_gflops": round(sgemm, 3)}


def percentile_line(np, latencies) -> str:
    """Median, p90 and the highest percentile with at least ten samples beyond it."""
    ms = np.asarray(latencies) * 1e3
    n = len(ms)
    parts = [f"p50 {np.percentile(ms, 50):.4f} ms", f"p90 {np.percentile(ms, 90):.4f} ms"]
    top = next((q for q in (99.9, 99.0, 90.0, 50.0) if n * (100 - q) >= 1000), None)
    if top is not None and top > 90:
        parts.append(f"p{top:g} {np.percentile(ms, top):.4f} ms")
    return (f"latency: {', '.join(parts)} (n = {n}; highest percentile with >= 10 "
            f"samples beyond it: {'none' if top is None else f'p{top:g}'})")


def end_to_end(np, m, setup_s: float) -> dict:
    ms = np.asarray(m.latencies) * 1e3
    return {
        "setup_s": setup_s,
        "samples_per_s": m.samples / m.seconds,
        "latency_ms_p50": float(np.percentile(ms, 50)),
        "latency_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "expnet", "__init__.py")):
        print(f"bench: no expnet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import expnet
    if os.path.dirname(os.path.abspath(expnet.__file__)) != os.path.join(SRC, "expnet"):
        print(f"bench: imported expnet from {expnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes
    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - T0

    os.makedirs(OUT, exist_ok=True)
    run = workloads.Run(args.seed, workloads.TINY if args.size == "tiny" else workloads.FULL, OUT)
    setup, measure = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(run.size.setups):
        t = time.perf_counter()
        inputs = setup(run)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    lines = []
    cpu_before = cpu_times()
    if not args.trace:
        m = measure(run, inputs, args.seconds, True)
        values = end_to_end(np, m, setup_s)
        units = dict(END_TO_END)
        lines.append(percentile_line(np, m.latencies))
        lines.append(f"samples: {m.samples} in {len(m.throughputs)} timed calls, {m.seconds:.3f} s "
                     f"= {m.samples / m.seconds:.6g} 1/s")
        for name, per_call in [("samples_per_s", m.throughputs), *m.rates.items()]:
            if len(per_call) > 1:
                q1, q2, q3 = statistics.quantiles(per_call, n=4)
                unit = "1/s" if name == "samples_per_s" else "MB/s"
                lines.append(f"{name}: median {q2:.6g} {unit}, quartiles {q1:.4g} and "
                             f"{q3:.4g}, over {len(per_call)} calls")
    else:
        measure(run, inputs, 0, False)         # warm-up: the first calls fault in fresh memory
        base = measure(run, inputs, args.seconds / 2, False)
        run.tracer = Tracer(uuid.uuid4().hex)
        probes.install(run.tracer, run.patcher)
        run.phase("setup", setup, run)
        traced = measure(run, inputs, args.seconds / 2, False)
        untraced_per_sample = base.seconds / base.samples
        traced_per_sample = traced.seconds / traced.samples
        overhead = traced_per_sample / untraced_per_sample - 1
        lines.append(f"tracing overhead: traced minus untraced time for the same "
                     f"{traced.samples} samples = "
                     f"{(traced_per_sample - untraced_per_sample) * traced.samples:.4f} s "
                     f"({overhead:+.2%})")
        values = probes.per_layer_metrics(run.tracer, {"trace.overhead_share": overhead,
                                                       "machine.sgemm_gflops": sgemm_gflops(np)})
        units = dict(probes.PER_LAYER)
        lines += probes.phase_tables(run.tracer)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        run.tracer.dump(spans_path)
        lines.append(f"spans: {len(run.tracer.spans)} written to {spans_path}")

    for name in run.patcher.missing:
        print(f"TRACE TARGET MISSING: {name}", file=sys.stderr)
    run.attempted += len(run.patcher.originals) + len(run.patcher.missing)
    run.failed += len(run.patcher.missing)

    sgemm = values["machine.sgemm_gflops"] if args.trace else sgemm_gflops(np)
    run.remove_files()
    lines.append(f"cpu steal while measuring: {steal_share(cpu_before, cpu_times())}")

    print("machine: " + json.dumps(fingerprint(np, cores, sgemm)))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  size: {args.size}")
    for line in lines + sorted(set(run.notes)):
        print(line)
    print(f"setup: import {import_s:.4f} s + median of {len(setup_times)} set-ups "
          f"{[round(t, 4) for t in setup_times]}")
    for name, value in values.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(f"failed_ratio {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations and checks)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in (probes.PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
