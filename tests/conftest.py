"""Shared fixtures: deterministic random-matrix corpora and their one-pass
summaries, shared between the property suites and the acceptance gate so the
expensive scans run once per session."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import dncrit as dc
from dncrit.certify import k_of_n
from dncrit.exppoly import (
    ExpPoly,
    NegativeInterval,
    ScanConfig,
    entry_exppoly,
    eval_exppoly,
    grid_entry_values,
)
from dncrit.signchange import component_bound

EVAL_ZERO_BAND = 1e-12   # relative zero band for counting grid sign alternations


def sign_changes(seq) -> int:
    """Sign alternations in a real sequence, zeros (and NaNs) skipped: the
    oracle ``descartes_bound`` counts against, on the coefficients with
    the below-cut ones zeroed."""
    count = 0
    prev = 0
    for v in seq:
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def pattern_to_w(p: dc.SignPattern) -> dc.SignChangeMatrix:
    """Oracle: W[i][j] = sign changes of (s_i1 s_j1, ..., s_in s_jn), pair by
    pair and column by column, straight from the pattern (the library gets
    W from the rows' flip words)."""
    n = p.n
    s = p.s
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        row_i = s[i]
        for j in range(i + 1, n):
            row_j = s[j]
            prev = row_i[0] * row_j[0]
            changes = 0
            for k in range(1, n):
                cur = row_i[k] * row_j[k]
                if cur != prev:
                    changes += 1
                    prev = cur
            w[i][j] = w[j][i] = changes
    return dc.SignChangeMatrix(n=n, w=tuple(tuple(r) for r in w), generic=True)


def grid_sign_alternations(f: ExpPoly, ts: np.ndarray) -> int:
    """Sign alternations of f along the grid: the grid-evidence oracle that
    an entry's sign changes never exceed its Descartes bound.

    Values within EVAL_ZERO_BAND * sum_k |c_k| b_k^t are treated as zero so that
    roots hit (nearly) exactly by a grid point do not double-count.
    """
    ts = np.asarray(ts, dtype=float)
    vals = eval_exppoly(f, ts)
    if not f.bases:
        return 0
    b = np.array(f.bases)
    c = np.abs(np.array(f.coefficients))
    scale = c @ np.power(b[:, None], ts[None, :])
    signs = np.where(np.abs(vals) <= EVAL_ZERO_BAND * scale, 0.0, np.sign(vals))
    return sign_changes(signs)


def negative_intervals_oracle(f: ExpPoly, scan: ScanConfig) -> tuple[NegativeInterval, ...]:
    """The scan that ``negative_intervals`` replaced: a walk over every grid
    point for the runs, and a bisection that evaluates f one scalar t at a
    time through ``eval_exppoly``.  The library must reproduce its floats
    exactly.  Its bisection has no float-spacing stop, so it is only run
    with endpoint tolerances far above the spacing."""
    ts = scan.grid()
    vals = eval_exppoly(f, ts)
    neg = vals < -scan.entry_tol
    intervals = []
    idx = 0
    m = len(ts)
    while idx < m:
        if not neg[idx]:
            idx += 1
            continue
        start = idx
        while idx + 1 < m and neg[idx + 1]:
            idx += 1
        stop = idx
        lo_clip = start == 0
        hi_clip = stop == m - 1
        lo = scan.t_min if lo_clip else _bisect_edge_oracle(f, ts[start - 1], ts[start], scan)
        hi = scan.t_max if hi_clip else _bisect_edge_oracle(f, ts[stop + 1], ts[stop], scan)
        intervals.append(NegativeInterval(lo=float(lo), hi=float(hi),
                                          lo_clipped=lo_clip, hi_clipped=hi_clip))
        idx += 1
    return tuple(intervals)


def _bisect_edge_oracle(f: ExpPoly, t_out, t_in, scan: ScanConfig) -> float:
    lo, hi = t_out, t_in
    while abs(hi - lo) > scan.endpoint_tol:
        mid = 0.5 * (lo + hi)
        if eval_exppoly(f, mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def matrix_critical_exponent_oracle(A: dc.SymMatrix, scan: ScanConfig | None = None) -> float:
    """Max over i <= j of the oracle scan's largest upper endpoint, one
    ExpPoly evaluation per entry."""
    if scan is None:
        scan = ScanConfig.for_matrix(A)
    return dec_critical_exponent_oracle(dc.spectral_decompose(A), scan)


def dec_critical_exponent_oracle(dec: dc.SpectralDecomposition, scan: ScanConfig) -> float:
    """``matrix_critical_exponent_oracle`` on a decomposition the caller holds."""
    worst = 0.0
    for i in range(dec.n):
        for j in range(i, dec.n):
            found = negative_intervals_oracle(entry_exppoly(dec, i, j), scan)
            worst = max(worst, max((iv.hi for iv in found), default=0.0))
    return worst


def scan_corpus():
    """(label, matrix) pairs for the scan oracle tests, n = 2..8: Gram
    matrices of every rank 1..n, irreducible tridiagonal matrices and
    I + a rank-2 Gram matrix (a repeated eigenvalue 1), seeded."""
    out = []
    for n in range(2, 9):
        rng = np.random.default_rng([n, 10])
        for rank in range(1, n + 1):
            out.append((f"gram n={n} rank={rank}", dc.random_dn(n, rank, int(rng.integers(2**31)))))
        for k in range(3):
            out.append((f"tridiagonal n={n} #{k}", dc.random_tridiagonal_dn(n, rng)))
            v = rng.uniform(0.0, 1.0, size=(n, 2))
            out.append((f"I + rank 2 n={n} #{k}", dc.SymMatrix.from_array(np.eye(n) + v @ v.T)))
    return out


def corpus_specs():
    """(n, rank, seed) for the 1000-matrix DN corpus: 200 per size 2..6,
    every fifth draw rank-deficient."""
    specs = []
    seed = 0
    for n in (2, 3, 4, 5, 6):
        for k in range(200):
            rank = max(1, n - 1) if k % 5 == 4 else n
            specs.append((n, rank, seed))
            seed += 1
    return specs


@dataclass
class CorpusSummary:
    """Aggregated facts from one pass over the 1000-matrix corpus."""

    num_matrices: int = 0
    w_violations: list = field(default_factory=list)          # (seed, violations)
    alternation_violations: list = field(default_factory=list)  # (seed, i, j, alts, w)
    interval_violations: list = field(default_factory=list)     # (seed, i, j, count, bound)
    num_interval_checked: int = 0
    tail_violations: list = field(default_factory=list)       # (seed, n, min_val, tol)
    tail3_violations: list = field(default_factory=list)      # n=5 extra window
    worst_tail_margin: float = np.inf                          # min over corpus of min_val/tol
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def dn_corpus_summary() -> CorpusSummary:
    start = time.time()
    out = CorpusSummary()
    for n, rank, seed in corpus_specs():
        A = dc.random_dn(n, rank, seed)
        dec = dc.spectral_decompose(A)
        entry_tol = 1e-9 * A.max_abs()
        invertible = rank == n

        W = dc.sign_change_matrix(dec)
        val = dc.validate_sign_change_matrix(W)
        if not val.ok:
            out.w_violations.append((seed, val.violations))

        t_hi = k_of_n(n) + 2.0
        ts = 0.01 * np.arange(1, int(round(t_hi / 0.01)) + 1)
        vals = grid_entry_values(dec, ts)

        polys = {}
        for i in range(n):
            for j in range(i, n):
                f = entry_exppoly(dec, i, j)
                polys[i, j] = f
                alts = grid_sign_alternations(f, ts)
                if alts > W[i, j]:
                    out.alternation_violations.append((seed, i, j, alts, W[i, j]))

        if invertible:
            win = (ts >= 1.0 + 1e-12) & (ts <= k_of_n(n) + 1.0 + 1e-12)
            scan = dc.ScanConfig(t_min=1.0, t_max=k_of_n(n) + 1.0, step=0.01,
                                 entry_tol=entry_tol)
            for i in range(n):
                for j in range(i, n):
                    out.num_interval_checked += 1
                    if not (vals[i, j, win] < -entry_tol).any():
                        continue  # negative_intervals would return empty
                    count = len(dc.negative_intervals(polys[i, j], scan))
                    bound = component_bound(W[i, j])
                    if count > bound:
                        out.interval_violations.append((seed, i, j, count, bound))

        tail = ts >= dc.crude_bound(n) - 1e-12
        tail_min = float(vals[:, :, tail].min())
        out.worst_tail_margin = min(out.worst_tail_margin,
                                    tail_min / entry_tol if entry_tol else np.inf)
        if tail_min < -entry_tol:
            out.tail_violations.append((seed, n, tail_min, entry_tol))
        if n == 5:
            tail3 = ts >= 3.0 - 1e-12
            t3_min = float(vals[:, :, tail3].min())
            if t3_min < -entry_tol:
                out.tail3_violations.append((seed, n, t3_min, entry_tol))

        out.num_matrices += 1
    out.elapsed = time.time() - start
    return out


def generic_dn(n: int, seed: int) -> dc.SymMatrix:
    """Full-rank Gram DN draw, re-drawn (bounded) until the sign-change
    structure is generic: distinct eigenvalues, no near-zero eigenvector
    coordinates, invertible."""
    for attempt in range(20):
        A = dc.random_dn(n, n, seed + 1_000_000 * attempt)
        dec = dc.spectral_decompose(A)
        W = dc.sign_change_matrix(dec)
        if W.generic and dc.check_dn(A).is_invertible:
            return A
    raise RuntimeError(f"no generic draw found for n={n}, seed={seed}")


def random_three_eigenvalue(n: int, seed: int) -> dc.SymMatrix:
    """Random custom three-eigenvalue construction: two disjointly supported
    nonnegative vectors (splitting the index set) plus a positive shift."""
    if n < 2:
        raise dc.experiments.DimensionTooSmallError("need n >= 2 for two disjoint supports")
    rng = np.random.default_rng([seed, 0])
    cut = int(rng.integers(1, n))
    v1 = np.zeros(n)
    v2 = np.zeros(n)
    v1[:cut] = rng.uniform(0.2, 1.0, size=cut)
    v2[cut:] = rng.uniform(0.2, 1.0, size=n - cut)
    shift = float(rng.uniform(0.1, 2.0))
    return dc.three_eigenvalue_matrix("custom", ([v1, v2], shift))


@pytest.fixture(scope="session")
def class_sets():
    """Canonical class sets for n = 3, 4, 5, shared across tests."""
    return {n: dc.enumerate_w_classes(n) for n in (3, 4, 5)}


# One line per acceptance criterion, echoed after the run so the PASS/FAIL
# verdicts survive output capture (see test_acceptance._report).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
