"""Run one benchmark workload in this (fresh) process and print its result as
one JSON line.  run.py starts this script once per workload, plus a few
set-up-only copies, so memory peaks and set-up costs never carry over from
one workload to the next.

    python3 perfbench/worker.py --workload probe --seed 0 --seconds 30 --trace 0

Set-up time runs from the top of this file to the end of the warm-up: it
covers importing numpy and dncrit, generating the inputs (and, for
classify, enumerating the n=3..5 classes) and the warm-up ops.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (imports count as set-up time)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("certify", "probe", "classify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_dncrit() -> None:
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import dncrit
    where = os.path.realpath(os.path.dirname(dncrit.__file__))
    if where != os.path.realpath(os.path.join(SRC, "dncrit")):
        raise SystemExit(f"dncrit imported from {where}, not from {SRC}")


def env_info(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        blas = "unknown"
    threads = {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}
    return {"seed": seed, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "threads": threads}


def timed_pass(ops, latencies: list, failures: list, tracer=None) -> float:
    """One pass of the op list from a collected heap; its wall time in s."""
    from workloads import run_pass
    gc.collect()
    t0 = time.perf_counter()
    run_pass(ops, latencies, failures, tracer)
    return time.perf_counter() - t0


def timed_run(wl, seconds: float) -> dict:
    """Repeat the op list until ``seconds`` have passed (at least once).

    On a shared machine the speed of the processor drifts with the load of
    its neighbours, so an op's latency is taken as the fastest of its runs:
    slower runs measure the neighbours, not the op.  `wall_s` sums those
    latencies over the op list and `op_p50_ms` is their median.  `op_p99_ms`
    needs ten samples beyond it, so it is taken over every run of every op.
    """
    import numpy as np
    per_pass, failures, pass_times = [], [], []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        latencies = []
        pass_times.append(timed_pass(wl.ops, latencies, failures))
        per_pass.append(latencies)
    runs = np.array(per_pass)           # passes x ops, seconds
    best = runs.min(axis=0)
    wall_s = float(best.sum())
    p99 = float(np.percentile(runs, 99))
    metrics = {
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(wl.ops) / wall_s, "1/s"),
        "op_p50_ms": (1e3 * float(np.median(best)), "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"passes": len(pass_times), "ops_per_pass": len(wl.ops),
             "median_pass_s": float(np.median(pass_times)), "op_samples": int(runs.size),
             "ops_beyond_p99": int((runs > p99).sum())}
    return {"metrics": metrics, "attempted": int(runs.size), "failures": failures,
            "notes": notes}


def traced_run(wl, seconds: float, seed: int) -> dict:
    """Untraced and traced passes of the op list, taking turns until
    ``seconds`` have passed (at least one pair).  Per-layer figures are per
    pass; the overhead compares the median pass times of the two kinds."""
    import numpy as np
    from tracing import Tracer, self_check
    from workloads import EXERCISED
    tracer = Tracer()
    failures, untraced, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(timed_pass(wl.ops, [], failures))
        tracer.install()
        try:
            traced.append(timed_pass(wl.ops, [], failures, tracer))
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics(len(traced), len(wl.ops))
    untraced_s, traced_s = float(np.median(untraced)), float(np.median(traced))
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{wl.name}-seed{seed}.json")
    tracer.write(spans_path)
    return {"metrics": metrics, "attempted": 2 * len(traced) * len(wl.ops),
            "failures": failures, "self_check": self_check(metrics, EXERCISED[wl.name]),
            "notes": {"pass_pairs": len(traced), "untraced_wall_s": untraced_s,
                      "traced_wall_s": traced_s,
                      "spans_file": os.path.relpath(spans_path, ROOT)}}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_dncrit()
    import workloads
    wl = workloads.build(args.workload, args.seed, args.size)
    for op in wl.warmup:
        op.run()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        out = {"setup_s": setup_s}
    else:
        out = (traced_run(wl, args.seconds, args.seed) if args.trace
               else timed_run(wl, args.seconds))
        out["setup_s"] = setup_s
        out["env"] = env_info(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
