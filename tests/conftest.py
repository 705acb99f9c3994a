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
    COEFF_ZERO_TOL,
    ExpPoly,
    NegativeInterval,
    ScanConfig,
    entry_exppoly,
    eval_exppoly,
    grid_entry_values,
)
from dncrit.matcore import EIG_SNAP_TOL, MERGE_TOL, ZERO_COORD_TOL
from dncrit.signchange import ValidationResult, component_bound

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


def generic_oracle(dec: dc.SpectralDecomposition) -> bool:
    """The generic flag as computed before the groups moved into the
    decomposition: neighbouring eigenvalues compared, each gap against
    MERGE_TOL times the upper value, or MERGE_TOL * |lam_1| below zero, but
    never less than EIG_SNAP_TOL * max |lam| (a zero after a positive value
    always counts as distinct), then the coordinates.  Every group is one
    value exactly when every neighbour starts a new one."""
    lam = dec.eigenvalues
    noise = EIG_SNAP_TOL * float(np.abs(lam).max())
    distinct = 1 + sum(1 for a, b in zip(lam, lam[1:])
                       if a - b > max(MERGE_TOL * (a if a > 0.0 else abs(lam[0])), noise)
                       or b <= 0.0 < a)
    u = np.abs(dec.eigenvectors)
    return distinct == dec.n and bool((u.min(axis=0) > ZERO_COORD_TOL * u.max(axis=0)).all())


def group_starts_oracle(lam: np.ndarray) -> np.ndarray:
    """``matcore._group_starts`` indexing NumPy scalars in its loop and
    reading each step's tolerance afresh: a positive value joins the current
    group while it lies within MERGE_TOL times the group's first value, a
    value <= 0 never joins a group that starts above 0, values <= 0 join
    each other within MERGE_TOL * |lam_1|, and no tolerance is below
    EIG_SNAP_TOL * max |lam|."""
    starts = [0]
    for k in range(1, lam.size):
        first = lam[starts[-1]]
        tol = max(MERGE_TOL * (first if first > 0.0 else abs(lam[0])),
                  EIG_SNAP_TOL * np.abs(lam).max())
        if first - lam[k] > tol or lam[k] <= 0.0 < first:
            starts.append(k)
    return np.array(starts, dtype=np.intp)


def sign_cut_oracle(dec: dc.SpectralDecomposition, cmax: float) -> float:
    """The sign cut of an entry whose largest |coefficient| is cmax: 0 on a
    generic decomposition (``generic_oracle``), COEFF_ZERO_TOL * cmax on any
    other."""
    return 0.0 if generic_oracle(dec) else COEFF_ZERO_TOL * cmax


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


def validate_sign_change_matrix_oracle(W: dc.SignChangeMatrix) -> ValidationResult:
    """The two-path validator ``validate_sign_change_matrix`` replaced: a
    valid W clears scalar reductions on its rows, anything else gets its
    report from numpy arrays.  The library must give an equal
    ``ValidationResult``, violations and their order included."""
    w, cap = W.w, W.n - 1
    # a valid W passes a few scalar reductions on its rows; by symmetry, at
    # most one cap per row covers the columns too
    if (w == tuple(zip(*w)) and min(map(min, w)) >= 0 and max(map(max, w)) <= cap
            and not any(w[i][i] for i in range(W.n)) and all(r.count(cap) <= 1 for r in w)):
        return ValidationResult(ok=True, violations=())
    arr = np.array(W.w, dtype=int)
    at_cap = arr == cap
    diag = np.diagonal(arr)
    over = arr.max(axis=1, initial=0) > cap
    multi_row = at_cap.sum(axis=1) > 1
    multi_col = at_cap.sum(axis=0) > 1
    symmetric = (arr == arr.T).all()
    negative = (arr < 0).any()
    violations: list[str] = []
    if not symmetric:
        violations.append("not symmetric")
    violations += [f"diagonal entry ({i + 1},{i + 1}) = {diag[i]} nonzero"
                   for i in np.flatnonzero(diag)]
    if negative:
        violations.append("negative entries present")
    for i in np.flatnonzero(over | multi_row):
        if over[i]:
            violations.append(f"row {i + 1} exceeds {cap}")
        if multi_row[i]:
            violations.append(f"row {i + 1} has multiple entries equal to {cap}")
    violations += [f"column {j + 1} has multiple entries equal to {cap}"
                   for j in np.flatnonzero(multi_col)]
    return ValidationResult(ok=not violations, violations=tuple(violations))


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


def bisect_edge_matmul_oracle(b: np.ndarray, c: np.ndarray, t_out: float, t_in: float,
                              scan: ScanConfig) -> float:
    """The bisection loop ``exppoly._bisect_edge`` replaced: each step is the
    (K,) coefficients against the (K, 1) bases powered by a (1, 1) t, through
    the matmul gufunc.  The library's ddot step must give its floats exactly."""
    lo, hi = t_out, t_in
    while abs(hi - lo) > scan.endpoint_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (c @ np.power(b[:, None], np.array([[mid]])))[0] < 0.0:
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


def is_irreducible_oracle(A: dc.SymMatrix) -> bool:
    """A vertex-at-a-time depth-first search, the one ``is_irreducible``
    replaced by bit-set rows: True iff the graph with edges |a_ij| > 0
    (i != j) is connected; n=1 is true."""
    n = A.n
    adj = np.abs(A.entries) > 0.0
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if i != j and not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


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


def with_spectrum(lam, seed) -> dc.SymMatrix:
    """Q diag(lam) Q^T for a seeded random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(lam), len(lam))))
    return dc.SymMatrix.from_array(q @ np.diag(lam) @ q.T)


def zero_beside_tiny() -> dc.SymMatrix:
    """A = 3 v v^T + 5e-9 w w^T: eigenvalues 3, 5e-9 and 0, the last two
    closer than MERGE_TOL * 3."""
    v = np.ones(3) / np.sqrt(3.0)
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return dc.SymMatrix.from_array(3.0 * np.outer(v, v) + 5e-9 * np.outer(w, w))


def two_tiny_positive() -> dc.SymMatrix:
    """A = 3 v v^T + 5e-9 w w^T + 1e-11 z z^T: two positive eigenvalues
    closer to each other than MERGE_TOL * 3, but not within MERGE_TOL * 5e-9,
    so three groups."""
    v = np.ones(3) / np.sqrt(3.0)
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    z = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    return dc.SymMatrix.from_array(3.0 * np.outer(v, v) + 5e-9 * np.outer(w, w)
                                   + 1e-11 * np.outer(z, z))


def policy_corpus():
    """Seeded matrices for n = 2..8: Gram matrices of full and deficient rank,
    tridiagonal DN, I + rank 2 (eigenvalue 1 repeated n-2 times), and spectra
    with a chain of eigenvalues spaced a fraction of MERGE_TOL apart; for
    n = 3..6, spectra (lam_1, 5e-9, 0, ..., 0) whose zero lies within
    MERGE_TOL of a positive eigenvalue; the 3x3 such matrix
    3 v v^T + 5e-9 w w^T; and three 3x3 spectra whose groups a tolerance of
    MERGE_TOL * lam_1 would merge and one of MERGE_TOL times the group's first
    value alone would split: ``two_tiny_positive``, (3, 1e-3, 1e-3 - 2e-11)
    (two groups below lam_1, apart by twice their own tolerance) and
    (3, 1e-9, 1e-9) (one repeated value that eigh splits by rounding)."""
    yield zero_beside_tiny()
    yield two_tiny_positive()
    yield with_spectrum([3.0, 1e-3, 1e-3 - 2e-11], 5)
    yield with_spectrum([3.0, 1e-9, 1e-9], 5)
    for n in range(2, 9):
        for seed in range(6):
            rng = np.random.default_rng([n, seed])
            yield dc.random_dn(n, n, 100 * n + seed)
            yield dc.random_dn(n, max(1, n - 2), 200 * n + seed)
            yield dc.random_tridiagonal_dn(n, rng)
            v = rng.uniform(0.0, 1.0, size=(n, 2))
            yield dc.SymMatrix.from_array(np.eye(n) + v @ v.T)
            lam = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
            lam[1:] = np.minimum(lam[1:], lam[1] - 0.7e-8 * 3.0 * np.arange(n - 1))
            yield with_spectrum(lam, 300 * n + seed)
            if 3 <= n <= 6:
                lam = np.zeros(n)
                lam[:2] = rng.uniform(0.5, 3.0), 5e-9
                yield with_spectrum(lam, 400 * n + seed)


def lanczos_dn(lam: np.ndarray, weights: np.ndarray) -> dc.SymMatrix:
    """The Jacobi matrix with eigenvalues lam (> 0) whose unit eigenvectors
    start with sqrt(weights): Lanczos on diag(lam) from that start vector,
    with full reorthogonalization (Hochstadt 1967; de Boor & Golub 1978).
    Its diagonal is positive and its off-diagonal the Lanczos norms, so it
    is DN."""
    n = lam.size
    q = np.zeros((n, n))
    q[:, 0] = np.sqrt(weights) / np.linalg.norm(np.sqrt(weights))
    alpha, beta = np.zeros(n), np.zeros(n - 1)
    for k in range(n):
        v = lam * q[:, k]
        alpha[k] = q[:, k] @ v
        if k == n - 1:
            break
        for _ in range(2):  # Gram-Schmidt against every earlier vector, twice
            v -= q[:, :k + 1] @ (q[:, :k + 1].T @ v)
        beta[k] = np.linalg.norm(v)
        q[:, k + 1] = v / beta[k]
    return dc.SymMatrix.from_array(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))


def spectral_data_draws(n: int, count: int, seed: int = 0):
    """``count`` seeded ``lanczos_dn`` matrices at n: lam = exp(U(-6, 2))
    sorted descending and Dirichlet(0.3) weights, both per draw from one
    default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = np.sort(np.exp(rng.uniform(-6.0, 2.0, n)))[::-1]
        yield lanczos_dn(lam, rng.dirichlet(0.3 * np.ones(n)))


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
