"""Tests of the benchmark itself, on tiny op lists.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["certify", "probe", "classify"])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for m in declared:
        assert printed[m["name"]] == m["unit"]
    assert printed["fail_frac"] == "ratio"
    assert float(next(line.split()[1] for line in lines
                      if line.startswith("fail_frac"))) == 0.0
    if trace:
        assert "# trace self-check: passed" in lines


def _fail_frac(name, expected):
    wl = workloads.build(name, seed=0, size="tiny", expected=expected)
    latencies, failures = [], []
    workloads.run_pass(wl.ops, latencies, failures)
    return len(failures) / len(latencies)


def _with(key, value):
    expected = dict(workloads.EXPECTED)
    expected[key] = value
    return expected


def test_expectations_hold_on_seed_zero():
    for name in ("certify", "probe", "classify"):
        assert _fail_frac(name, workloads.EXPECTED) == 0.0


def test_wrong_class_count_raises_fail_frac():
    wrong = _with("class_counts", {**workloads.EXPECTED["class_counts"], 5: 21})
    assert _fail_frac("certify", wrong) > 0.0


def test_wrong_reference_comparison_raises_fail_frac():
    assert _fail_frac("certify", _with("reference_5", (22, 0, 0))) > 0.0


def test_wrong_certified_bound_raises_fail_frac():
    # No empirical exponent can lie below a bound of -1.
    assert _fail_frac("probe", _with("m5", -1.0)) > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run_bench("--workload", "probe", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
