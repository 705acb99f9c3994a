"""dncrit benchmark: certify, probe and classify workloads, each measured in a
fresh process, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload probe --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the repository root or anywhere else; it imports dncrit from the
``src/`` directory next to this one.  Each workload runs in worker.py, in a
process of its own with BLAS and OpenMP pinned to one thread; set-up is
repeated in further fresh processes and reported as a median.  Every metric
is printed with its unit, and the last line of output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "probe", "classify")
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
SETUP_SAMPLES = {"full": 7, "tiny": 2}   # fresh processes whose set-up is timed
TIME_LIMIT_S = 175.0                     # one workload must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SHOWN_FAILURES = 10


class WorkerFailed(RuntimeError):
    """A worker process exited with an error or printed no result."""


def worker_env() -> dict:
    """The workers' environment: one BLAS/OpenMP thread each, fixed string
    hashing, and no bytecode written, so every set-up does the same work
    whatever the caller's environment.  Only these child processes see it."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES[size] - 1):
            setups.append(run_worker(args + ["--setup-only"], deadline)["setup_s"])
    result = run_worker(args, deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["notes"]["setup_samples"] = len(setups)
    return result


def report(name: str, result: dict, trace: int) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"# workload {name}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# notes {json.dumps(result['notes'], sort_keys=True)}")
    metrics = result["metrics"]
    names = END_TO_END if not trace else sorted(metrics)
    for metric in names:
        value, unit = metrics[metric]
        print(f"{metric:48s} {value:.6g} {unit}")
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"{'fail_frac':48s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for message in result["failures"][:SHOWN_FAILURES]:
        print(f"# failed: {message}")
    if trace:
        problems = result["self_check"]
        print(f"# trace self-check: {'passed' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"# self-check: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                   help="tiny shrinks every op list, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dncrit", "__init__.py")):
        print(f"run.py: no dncrit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.size, time.monotonic() + TIME_LIMIT_S)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, result in results.items():
        report(name, result, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in result["metrics"].items()})
        attempted += result["attempted"]
        failed += len(result["failures"])
        correct = correct and not result["failures"] and not result.get("self_check")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
