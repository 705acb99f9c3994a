"""Witness constructions and randomized verification drives.

Four families of checks live here:

* tridiagonal witnesses whose (1, n) entry goes negative on (n-3, n-2),
  pinning the lower bound n-2 on the critical exponent;
* matrices with at most three distinct eigenvalues, whose powers must stay
  DN from t = 1 on;
* monotonicity of A^t in the top eigenvalue: B = A + r x1 x1^T satisfies
  B^t >= A^t entry-wise;
* the perturbation statement: for DN irreducible A there is an eps > 0 with
  (eps A + I)^t DN for all t >= n-2, realized here with the extreme
  eps = min (A^{n-1})_ij / (A^n)_ij.

Everything is grid verification at recorded tolerances -- evidence, not
proof.  All randomness flows through numpy Generators seeded as
default_rng([seed, trial]) so reports reproduce bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .certify import crude_bound
from .exppoly import (
    ScanConfig,
    _matrix_critical_exponent,
    entry_exppoly,
    eval_exppoly,
    grid_entry_values,
    matrix_critical_exponent,
    negative_intervals,
)
from .matcore import (
    NotDoublyNonnegativeError,
    NotIrreducibleError,
    NotPrimitiveError,
    SymMatrix,
    check_dn,
    spectral_decompose,
)


class DimensionTooSmallError(ValueError):
    """The construction needs more rows than requested."""


class BadRankError(ValueError):
    """Requested Gram rank outside 1..n."""


class TooManyEigenvaluesError(ValueError):
    """More than three distinct eigenvalues where at most three are allowed."""


class RepeatedTopEigenvalueError(ValueError):
    """The largest eigenvalue is not simple, so x1 is not determined."""


@dataclass(frozen=True)
class WitnessReport:
    """Grid-verified claims about one matrix.

    claims: (description, verified) pairs, all computed;
    negative_window: the detected negativity interval of the witness entry,
    when the construction predicts one.
    """

    matrix: SymMatrix
    claims: tuple[tuple[str, bool], ...]
    scan: ScanConfig
    min_value: float
    argmin_t: float
    empirical_critexp: float
    negative_window: tuple[float, float] | None = None

    @property
    def verified(self) -> bool:
        return all(ok for _, ok in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.matrix.entries.tolist(),
            "claims": [{"description": d, "verified": ok} for d, ok in self.claims],
            "scan": asdict(self.scan),
            "min_value": self.min_value,
            "argmin_t": self.argmin_t,
            "empirical_critexp": self.empirical_critexp,
            "negative_window": list(self.negative_window) if self.negative_window else None,
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of the (eps A + I)^t >= 0 check, verified with spectral powers
    on a grid."""

    matrix: SymMatrix
    epsilon: float
    verified_range: tuple[float, float]
    passed: bool
    scan: ScanConfig
    min_value: float
    argmin_t: float

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.matrix.entries.tolist(),
            "epsilon": self.epsilon,
            "verified_range": list(self.verified_range),
            "passed": self.passed,
            "scan": asdict(self.scan),
            "min_value": self.min_value,
            "argmin_t": self.argmin_t,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def random_dn(n: int, rank: int, seed: int) -> SymMatrix:
    """B B^T with B an n-by-rank uniform-[0,1] block: DN by construction."""
    if not 1 <= rank <= n:
        raise BadRankError(f"rank {rank} outside 1..{n}")
    return _random_gram(n, rank, np.random.default_rng(seed))


def _random_gram(n: int, rank: int, rng: np.random.Generator) -> SymMatrix:
    b = rng.uniform(0.0, 1.0, size=(n, rank))
    return SymMatrix.from_array(b @ b.T)


def random_tridiagonal_dn(n: int, rng: np.random.Generator) -> SymMatrix:
    """Irreducible invertible tridiagonal DN: off-diagonals uniform [0.5, 1.5],
    diagonal = off-diagonal row sum + uniform [0.1, 1] (strict dominance)."""
    if n < 2:
        raise DimensionTooSmallError("tridiagonal family needs n >= 2")
    off = rng.uniform(0.5, 1.5, size=n - 1)
    diag = np.zeros(n)
    diag[0] = off[0]
    diag[-1] = off[-1]
    if n > 2:
        diag[1:-1] = off[:-1] + off[1:]
    diag = diag + rng.uniform(0.1, 1.0, size=n)
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return SymMatrix.from_array(a)


def tridiagonal_witness(n: int, seed: int, scan: ScanConfig | None = None) -> WitnessReport:
    """Random tridiagonal lower-bound witness.

    Verifies that the (1, n) entry of A^t is negative strictly inside
    (n-3, n-2) -- sampled at the midpoint n-2.5 -- and never drops below
    -entry_tol on the grid from n-2 up.
    """
    if n < 3:
        raise DimensionTooSmallError("witness construction needs n >= 3")
    A = random_tridiagonal_dn(n, np.random.default_rng([seed, 0]))
    if scan is None:
        scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=crude_bound(n) + 2.0)
    dec = spectral_decompose(A)
    report = check_dn(A, dec=dec)
    f = entry_exppoly(dec, 0, n - 1)

    t_mid = n - 2.5
    mid_val = eval_exppoly(f, t_mid)
    found = negative_intervals(f, scan)
    window = None
    for iv in found:
        if iv.lo <= t_mid <= iv.hi:
            window = (iv.lo, iv.hi)
            break
    window_ok = (window is not None
                 and window[0] >= n - 3 - 1e-6 and window[1] <= n - 2 + 1e-6)

    ts = scan.grid()
    all_vals = eval_exppoly(f, ts)
    tail_vals = all_vals[ts >= n - 2 - 1e-12]
    tail_ok = bool((tail_vals >= -scan.entry_tol).all())

    k = int(np.argmin(all_vals))
    critexp = max((iv.hi for iv in found), default=0.0)

    claims = (
        ("matrix is DN, invertible, irreducible",
         report.is_dn and report.is_invertible and report.is_irreducible),
        (f"entry (1,{n}) of A^t negative at t = {t_mid:g}",
         bool(mid_val < -scan.entry_tol)),
        (f"negativity window of entry (1,{n}) lies inside ({n - 3}, {n - 2})",
         window_ok),
        (f"entry (1,{n}) of A^t >= -entry_tol for grid t >= {n - 2}", tail_ok),
    )
    return WitnessReport(
        matrix=A,
        claims=claims,
        scan=scan,
        min_value=float(all_vals[k]),
        argmin_t=float(ts[k]),
        empirical_critexp=float(critexp),
        negative_window=window,
    )


def three_eigenvalue_matrix(kind: str, params=None) -> SymMatrix:
    """DN matrices with at most three distinct eigenvalues.

    kind "cycle4"/"cycle5": adjacency matrix of the 4-/5-cycle plus 2I
    (eigenvalues 2 + 2 cos(2 pi k / m), three distinct values).
    kind "custom": params = (vectors, shift); sum of v v^T over the given
    entry-wise nonnegative, pairwise disjointly supported vectors, plus
    shift * I.  Raises TooManyEigenvaluesError if the result exceeds three
    distinct eigenvalues.
    """
    if kind in ("cycle4", "cycle5"):
        m = 4 if kind == "cycle4" else 5
        a = np.zeros((m, m))
        for i in range(m):
            a[i, (i + 1) % m] = 1.0
            a[(i + 1) % m, i] = 1.0
        return SymMatrix.from_array(a + 2.0 * np.eye(m))
    if kind == "custom":
        vectors, shift = params
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        n = vecs[0].shape[0]
        a = shift * np.eye(n)
        for v in vecs:
            a = a + np.outer(v, v)
        A = SymMatrix.from_array(a)
        distinct = spectral_decompose(A).group_starts.size
        if distinct > 3:
            raise TooManyEigenvaluesError(f"custom construction has {distinct} eigenvalues")
        return A
    raise ValueError(f"unknown kind {kind!r}")


def check_three_eigenvalue_theorem(A: SymMatrix, scan: ScanConfig | None = None) -> WitnessReport:
    """Verify that A^t stays entry-wise nonnegative on the grid t in [1, t_max]
    for A with at most three distinct eigenvalues."""
    if scan is None:
        scan = ScanConfig.for_matrix(A, t_min=1.0, t_max=10.0)
    dec = spectral_decompose(A)
    distinct = dec.group_starts.size
    if distinct > 3:
        raise TooManyEigenvaluesError(f"{distinct} distinct eigenvalues (> 3)")
    report = check_dn(A, dec=dec)
    ts = scan.grid()
    ts = ts[ts >= 1.0 - 1e-12]
    min_value, argmin_t, ok = _grid_minimum(grid_entry_values(dec, ts), ts, scan.entry_tol)
    claims = (
        ("matrix is DN with at most three distinct eigenvalues", report.is_dn),
        (f"min entry of A^t >= -entry_tol on grid t in [1, {scan.t_max:g}]", ok),
    )
    return WitnessReport(
        matrix=A,
        claims=claims,
        scan=scan,
        min_value=min_value,
        argmin_t=argmin_t,
        empirical_critexp=_matrix_critical_exponent(dec, scan),
    )


def check_monotonicity(A: SymMatrix, r: float, scan: ScanConfig | None = None) -> WitnessReport:
    """Verify B^t >= A^t entry-wise on the grid, B = A + r x1 x1^T.

    Needs a simple top eigenvalue; r >= 0.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    dec = spectral_decompose(A)
    # the top group ends where the second starts, or at n when it is alone
    if np.append(dec.group_starts[1:], A.n)[0] > 1:
        raise RepeatedTopEigenvalueError("top eigenvalue is not simple")
    x1 = dec.eigenvectors[:, 0]
    B = SymMatrix.from_array(A.entries + r * np.outer(x1, x1))
    if scan is None:
        scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=10.0)
    ts = scan.grid()
    diff = grid_entry_values(spectral_decompose(B), ts) - grid_entry_values(dec, ts)
    min_value, argmin_t, ok = _grid_minimum(diff, ts, scan.entry_tol)
    claims = (
        (f"B^t - A^t >= -entry_tol entry-wise on grid [{scan.t_min:g}, {scan.t_max:g}], "
         f"B = A + {r:g} * x1 x1^T", ok),
    )
    return WitnessReport(
        matrix=A,
        claims=claims,
        scan=scan,
        min_value=min_value,
        argmin_t=argmin_t,
        empirical_critexp=0.0,
    )


def check_perturbation(A: SymMatrix, scan: ScanConfig | None = None) -> PerturbationReport:
    """Verify (eps A + I)^t entry-wise >= -entry_tol on the grid t in
    [n-2, t_max], with eps maximal under eps A^n <= A^{n-1} entry-wise."""
    n = A.n
    report = check_dn(A)
    if not report.is_dn:
        raise NotDoublyNonnegativeError("perturbation check needs a DN matrix")
    if not report.is_irreducible:
        raise NotIrreducibleError("perturbation check needs an irreducible matrix")
    p = np.linalg.matrix_power(A.entries, n - 1)
    q = np.linalg.matrix_power(A.entries, n)
    if not (p > 0).all() or not (q > 0).all():
        raise NotPrimitiveError("A^{n-1} or A^n has a nonpositive entry")
    eps = float((p / q).min())

    C = SymMatrix.from_array(eps * A.entries + np.eye(n))
    if scan is None:
        scan = ScanConfig.for_matrix(C, t_min=max(0.0, n - 2.0), t_max=n + 5.0)
    ts = scan.grid()
    ts = ts[ts >= n - 2 - 1e-12]
    if ts.size == 0:
        raise ValueError("scan window contains no grid point with t >= n-2")
    vals = grid_entry_values(spectral_decompose(C), ts)
    min_value, argmin_t, ok = _grid_minimum(vals, ts, scan.entry_tol)
    return PerturbationReport(
        matrix=A,
        epsilon=eps,
        verified_range=(float(ts[0]), float(ts[-1])),
        passed=ok,
        scan=scan,
        min_value=min_value,
        argmin_t=argmin_t,
    )


def _grid_minimum(vals: np.ndarray, ts: np.ndarray,
                  entry_tol: float) -> tuple[float, float, bool]:
    """Smallest entry of an (n, n, T) grid of values, the grid t where it
    occurs, and whether it stays >= -entry_tol."""
    per_t_min = vals.min(axis=(0, 1))
    k = int(np.argmin(per_t_min))
    return float(per_t_min[k]), float(ts[k]), bool(per_t_min[k] >= -entry_tol)


def empirical_critical_exponent(A: SymMatrix, scan: ScanConfig | None = None) -> float:
    """Max over entries of the measured entry critical exponent.

    The default window reaches crude_bound(n) + 2, past every certified
    negativity.
    """
    if scan is None:
        scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=crude_bound(A.n) + 2.0)
    return matrix_critical_exponent(A, scan)


@dataclass(frozen=True)
class SearchSummary:
    """Result of a randomized hunt for large empirical critical exponents."""

    n: int
    trials: int
    seed: int
    family: str
    max_found: float
    argmax: SymMatrix
    argmax_trial: int
    argmax_distinct_eigenvalues: int
    histogram: tuple[tuple[float, float, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "family": self.family,
            "max_found": self.max_found,
            "argmax": self.argmax.entries.tolist(),
            "argmax_trial": self.argmax_trial,
            "argmax_distinct_eigenvalues": self.argmax_distinct_eigenvalues,
            "histogram": [{"lo": lo, "hi": hi, "count": c} for lo, hi, c in self.histogram],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


SEARCH_FAMILIES = ("gram", "tridiagonal", "mixed")


def search_critical_exponent(n: int, trials: int, seed: int,
                             family: str = "mixed") -> SearchSummary:
    """Draw ``trials`` random DN matrices and record the largest empirical
    critical exponent seen, the matrix attaining it, and a histogram."""
    from .enumeration import DimensionTooLargeError
    if n > 6:
        raise DimensionTooLargeError("search capped at n=6")
    if n < 2:
        raise DimensionTooSmallError(f"search needs n >= 2, got n={n}")
    if family not in SEARCH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {SEARCH_FAMILIES}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = np.empty(trials)
    best = -1.0
    best_A = None
    best_trial = -1
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        pick = family
        if family == "mixed":
            pick = "gram" if rng.random() < 0.5 else "tridiagonal"
        if pick == "gram":
            rank = int(rng.integers(1, n + 1))
            A = _random_gram(n, rank, rng)
        else:
            A = random_tridiagonal_dn(n, rng)
        val = empirical_critical_exponent(A)
        values[trial] = val
        if val > best:
            best, best_A, best_trial = val, A, trial
    top = crude_bound(n) + 2.0
    edges = np.arange(0.0, top + 0.5, 0.5)
    counts, edges = np.histogram(values, bins=edges)
    hist = tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(len(counts)))
    return SearchSummary(
        n=n,
        trials=trials,
        seed=seed,
        family=family,
        max_found=float(best),
        argmax=best_A,
        argmax_trial=best_trial,
        argmax_distinct_eigenvalues=spectral_decompose(best_A).group_starts.size,
        histogram=hist,
    )
