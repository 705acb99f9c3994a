"""The three benchmark workloads: their op lists, made from a seed, and the
correctness check each op's result must pass.

An op is one call (or one short pipeline of calls) into the public dncrit
API.  Every library function is looked up through its module at call time
(``dc.spectral_decompose``, ``dc.exppoly.grid_entry_values``) so that the
span-recording wrappers of a traced run see every call.

The checks use invariants that hold for any seed, never outputs pinned to
one seed, so a correct program reads zero failures on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

import dncrit as dc
from dncrit.matcore import INVERT_TOL

# Invariants the paper and the library establish; the checks compare
# against these.  Tests replace single values to prove a wrong expectation
# shows up as failed ops.
EXPECTED = {
    "class_counts": {3: 1, 4: 4, 5: 22, 6: 399},
    "conclusions": {3: "m(3) = 1", 4: "m(4) = 2", 5: "m(5) = 3"},
    "uncertified_6": 201,
    "bracket_6": "m(6) <= 7",
    # (matched, missing, extra) of the n=5 classes against the reference
    # list: the 22-versus-21 finding stays visible.
    "reference_5": (21, 0, 1),
    "m5": 3.0,
}

# Grid evidence resolves interval endpoints to about 1e-9, so an exponent
# that equals its bound may read a hair above it.
BOUND_SLACK = 1e-6
# Signs of powered entries are trusted to 1e-9 times the largest entry.
TAIL_REL_TOL = 1e-9
TAIL_GRID = 0.01 * np.arange(201)   # t offsets past crude_bound(n): [0, 2]

SIZES = {
    "full": {"certify_dims": (3, 4, 5, 6), "probe_pairs": 100, "classify_ops": 400},
    "tiny": {"certify_dims": (3, 4, 5), "probe_pairs": 12, "classify_ops": 12},
}
WARMUP_OPS = 10


@dataclass(frozen=True)
class Op:
    """One timed unit of work and the check on its result.

    ``check`` returns None when the result is correct, else a reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: tuple[Op, ...]


# -- certify -----------------------------------------------------------------

def _certify(dims: tuple[int, ...]):
    reports = {n: dc.certify_dimension(n) for n in dims}
    # `dncrit certify --n 5` compares with the reference list as well.
    cmp = dc.compare_with_reference([c.w for c in reports[5].classes]) if 5 in dims else None
    return reports, cmp


def _check_certify(expected: dict, result) -> str | None:
    reports, cmp = result
    problems = []
    for n, report in reports.items():
        want = expected["class_counts"].get(n)
        if want is not None and report.num_classes != want:
            problems.append(f"n={n}: {report.num_classes} classes, expected {want}")
        want = expected["conclusions"].get(n)
        if want is not None and report.conclusion != want:
            problems.append(f"n={n}: conclusion {report.conclusion!r}, expected {want!r}")
    if 6 in reports:
        report = reports[6]
        if report.num_uncertified != expected["uncertified_6"]:
            problems.append(f"n=6: {report.num_uncertified} uncertified, "
                            f"expected {expected['uncertified_6']}")
        if expected["bracket_6"] not in report.conclusion:
            problems.append(f"n=6: conclusion {report.conclusion!r} lacks "
                            f"{expected['bracket_6']!r}")
    if cmp is not None:
        got = (len(cmp.matched), len(cmp.missing), len(cmp.extra))
        if got != tuple(expected["reference_5"]):
            problems.append(f"n=5: reference (matched, missing, extra) = {got}, "
                            f"expected {tuple(expected['reference_5'])}")
    return "; ".join(problems) or None


def certify_workload(seed: int, size: str, expected: dict) -> Workload:
    """One op certifies every dimension of the list in turn.  Per-op latency
    over the four very unequal certificates would split into clusters and
    read between them; as one op it is the time a certificate run takes.
    The certificate has no random input; the seed only labels the run."""
    def op(dims):
        return Op(f"certify_dimension(n) for n in {dims}", partial(_certify, dims),
                  partial(_check_certify, expected))
    return Workload("certify", (op(SIZES[size]["certify_dims"]),), (op((3, 4)),))


# -- probe -------------------------------------------------------------------

def _empirical(A: dc.SymMatrix):
    return dc.empirical_critical_exponent(A)


def _check_empirical(n: int, expected: dict, value: float) -> str | None:
    bound = expected["m5"] if n == 5 else dc.crude_bound(n)
    if not (math.isfinite(value) and 0.0 <= value <= bound + BOUND_SLACK):
        return f"empirical exponent {value!r} outside [0, {bound:g}]"
    return None


def _witness(n: int, seed: int):
    return dc.tridiagonal_witness(n, seed)


def _check_witness(report) -> str | None:
    if report.verified:
        return None
    return "unverified claims: " + "; ".join(d for d, ok in report.claims if not ok)


def _probe_matrix(k: int, n: int, rng: np.random.Generator) -> tuple[str, dc.SymMatrix]:
    """Draw k of the `search --family mixed` mix, stratified: Gram matrices
    (ranks cycling 1..n) and irreducible tridiagonal matrices take turns, so
    the share of each kind is the same for every seed; entries are random."""
    if (k // 2) % 2 == 0:
        rank = (k // 4) % n + 1
        return f"gram rank {rank}", dc.random_dn(n, rank, int(rng.integers(2**31)))
    return "tridiagonal", dc.random_tridiagonal_dn(n, rng)


def probe_workload(seed: int, size: str, expected: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(SIZES[size]["probe_pairs"]):
        n = 5 + k % 2
        kind, A = _probe_matrix(k, n, rng)
        ops.append(Op(f"empirical_critical_exponent(n={n}, {kind})",
                      partial(_empirical, A), partial(_check_empirical, n, expected)))
        wn, wseed = 3 + k % 6, int(rng.integers(2**31))
        ops.append(Op(f"tridiagonal_witness({wn}, {wseed})",
                      partial(_witness, wn, wseed), _check_witness))
    return Workload("probe", tuple(ops), tuple(ops[:WARMUP_OPS]))


# -- classify ----------------------------------------------------------------

@dataclass(frozen=True)
class Classified:
    valid: bool
    member: bool | None        # None: n > 5 or not a generic invertible draw
    tail_min: float
    tail_tol: float


def _classify(A: dc.SymMatrix, classes: dict):
    """decompose -> W -> validate -> canonical form -> class membership ->
    entry bounds -> grid values past the crude bound."""
    n = A.n
    dec = dc.spectral_decompose(A)
    W = dc.sign_change_matrix(dec)
    valid = dc.validate_sign_change_matrix(W).ok
    canon = dc.canonicalize_w(W)
    lam = dec.eigenvalues
    invertible = bool(lam[-1] > INVERT_TOL * max(1.0, float(lam[0])))
    member = None
    if n in classes and W.generic and invertible:
        member = canon in classes[n]
    dc.entry_bounds_from_w(W)
    vals = dc.exppoly.grid_entry_values(dec, dc.crude_bound(n) + TAIL_GRID)
    return Classified(valid, member, float(vals.min()), TAIL_REL_TOL * A.max_abs())


def _check_classify(res: Classified) -> str | None:
    problems = []
    if not res.valid:
        problems.append("W fails structural validation")
    if res.member is False:
        problems.append("canonical W of a generic invertible draw is not an enumerated class")
    if res.tail_min < -res.tail_tol:
        problems.append(f"entry {res.tail_min:.3e} below -{res.tail_tol:.3e} "
                        "past the crude bound")
    return "; ".join(problems) or None


def classify_workload(seed: int, size: str, expected: dict) -> Workload:
    classes = {n: frozenset(dc.enumerate_w_classes(n)) for n in (3, 4, 5)}
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k in range(SIZES[size]["classify_ops"]):
        n = 3 + k % 4
        rank = n - 1 if k % 5 == 4 else n
        A = dc.random_dn(n, rank, int(rng.integers(2**31)))
        ops.append(Op(f"classify(n={n}, rank {rank})", partial(_classify, A, classes),
                      _check_classify))
    return Workload("classify", tuple(ops), tuple(ops[:WARMUP_OPS]))


# Traced functions each workload calls; it must call none of the others.
# These are the predictions of the layer table in README.md, checked by the
# traced run.
EXERCISED = {
    "certify": ("enumeration.enumerate_w_classes", "enumeration.canonicalize_w",
                "signchange.validate_sign_change_matrix",
                "certify.entry_bounds_from_w", "certify.certify_dimension"),
    "probe": ("matcore.spectral_decompose", "matcore.check_dn",
              "exppoly.entry_exppoly", "exppoly.negative_intervals",
              "exppoly.matrix_critical_exponent", "experiments.tridiagonal_witness",
              "experiments.empirical_critical_exponent"),
    "classify": ("matcore.spectral_decompose", "exppoly.entry_exppoly",
                 "exppoly.grid_entry_values", "signchange.sign_change_matrix",
                 "signchange.validate_sign_change_matrix", "enumeration.canonicalize_w",
                 "certify.entry_bounds_from_w"),
}

BUILDERS = {
    "certify": certify_workload,
    "probe": probe_workload,
    "classify": classify_workload,
}


def build(name: str, seed: int, size: str = "full", expected: dict = EXPECTED) -> Workload:
    """Generate the workload's inputs from ``seed``: same seed, same inputs."""
    return BUILDERS[name](seed, size, expected)


def run_pass(ops, latencies: list, failures: list, tracer=None) -> None:
    """Run every op once, one at a time, appending each op's latency in
    seconds and a message for each op that raised or failed its check."""
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result, problem = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            problem = op.check(result)
        if problem:
            failures.append(f"{op.label}: {problem}")
