"""Witness constructions and randomized verification drives.

Four families of checks live here:

* tridiagonal witnesses whose (1, n) entry goes negative on (n-3, n-2),
  pinning the lower bound n-2 on the critical exponent (or raising
  UnresolvedWitnessError where float64 cannot resolve the witness);
* matrices with at most three distinct eigenvalues, whose powers must stay
  DN from t = 1 on;
* monotonicity of A^t in the top eigenvalue: B = A + r x1 x1^T satisfies
  B^t >= A^t entry-wise;
* the perturbation statement: for DN irreducible A there is an eps > 0 with
  (eps A + I)^t DN for all t >= n-2, realized here with the extreme
  eps = min (A^{n-1})_ij / (A^n)_ij.

Everything is grid verification at recorded tolerances -- evidence, not
proof, on each check's fixed window, recorded in its report.  All randomness
flows through numpy Generators seeded as default_rng([seed, trial]) so
reports reproduce bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .certify import crude_bound
from .enumeration import DimensionTooLargeError
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
    _finish_decomposition,
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


class UnresolvedWitnessError(ValueError):
    """float64 cannot resolve the witness: its entry misses the exact zeros
    at the integers 1..n-2 by more than entry_tol."""


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
    diag = np.append(off, 0.0) + np.append(0.0, off) + rng.uniform(0.1, 1.0, size=n)
    return SymMatrix.from_array(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def tridiagonal_witness(n: int, seed: int) -> WitnessReport:
    """Random tridiagonal lower-bound witness, scanned on [0, crude_bound(n) + 2].

    Verifies that the (1, n) entry of A^t is negative strictly inside
    (n-3, n-2) -- sampled at the midpoint n-2.5 -- and never drops below
    -entry_tol on the grid from n-2 up.

    (A^q)_{1n} = 0 exactly for q = 1..n-2 (graph distance n-1); a computed
    entry that misses one by more than entry_tol (float64 runs out near
    n = 13) raises UnresolvedWitnessError instead of reporting claims.
    The entry is evaluated once, on the scan grid, which holds 1..n-2 and
    n-2.5 exactly; the zeros, the midpoint and the minimum are read from it.
    """
    if n < 3:
        raise DimensionTooSmallError("witness construction needs n >= 3")
    A = random_tridiagonal_dn(n, np.random.default_rng([seed, 0]))
    scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=crude_bound(n) + 2.0)
    dec = spectral_decompose(A)
    report = check_dn(A, dec=dec)
    f = entry_exppoly(dec, 0, n - 1)
    ts = scan.grid()
    all_vals = eval_exppoly(f, ts)
    miss = np.abs(all_vals[np.searchsorted(ts, np.arange(1.0, n - 1))]).max()
    if not miss <= scan.entry_tol:
        raise UnresolvedWitnessError(f"witness n={n} seed={seed}: entry (1,{n}) misses its "
                                     f"zeros at t = 1..{n - 2} by {miss:.3g} > entry_tol")
    t_mid = n - 2.5
    mid_val = all_vals[np.searchsorted(ts, t_mid)]
    found = negative_intervals(f, scan)
    window = next(((iv.lo, iv.hi) for iv in found if iv.lo <= t_mid <= iv.hi), None)
    window_ok = window is not None and window[0] >= n - 3 - 1e-6 and window[1] <= n - 2 + 1e-6
    tail_ok = bool((all_vals[ts >= n - 2 - 1e-12] >= -scan.entry_tol).all())
    k = int(np.argmin(all_vals))
    critexp = max((iv.hi for iv in found), default=0.0)

    claims = (
        ("matrix is DN, invertible, irreducible",
         report.is_dn and report.is_invertible and report.is_irreducible),
        (f"entry (1,{n}) of A^t negative at t = {t_mid:g}", bool(mid_val < -scan.entry_tol)),
        (f"negativity window of entry (1,{n}) lies inside ({n - 3}, {n - 2})", window_ok),
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
        eye = np.eye(4 if kind == "cycle4" else 5)
        return SymMatrix.from_array(np.roll(eye, 1, 1) + np.roll(eye, -1, 1) + 2.0 * eye)
    if kind == "custom":
        vectors, shift = params
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        n = vecs[0].shape[0]
        A = SymMatrix.from_array(sum((np.outer(v, v) for v in vecs), shift * np.eye(n)))
        distinct = spectral_decompose(A).group_starts.size
        if distinct > 3:
            raise TooManyEigenvaluesError(f"custom construction has {distinct} eigenvalues")
        return A
    raise ValueError(f"unknown kind {kind!r}")


def check_three_eigenvalue_theorem(A: SymMatrix) -> WitnessReport:
    """Verify that A^t stays entry-wise nonnegative on the grid t in [1, 10]
    for A with at most three distinct eigenvalues."""
    scan = ScanConfig.for_matrix(A, t_min=1.0, t_max=10.0)
    dec = spectral_decompose(A)
    distinct = dec.group_starts.size
    if distinct > 3:
        raise TooManyEigenvaluesError(f"{distinct} distinct eigenvalues (> 3)")
    report = check_dn(A, dec=dec)
    ts = scan.grid()
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


def check_monotonicity(A: SymMatrix, r: float) -> WitnessReport:
    """Verify B^t >= A^t entry-wise on the grid t in [0, 10], B = A + r x1 x1^T.

    Needs a simple top eigenvalue; r >= 0.  B is not decomposed: it has A's
    eigenvectors, eigenvalues lambda_1 + r, lambda_2, ..., lambda_n.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    dec = spectral_decompose(A)
    # simple: a group starts at index 1, or n = 1
    if A.n > 1 and 1 not in dec.group_starts:
        raise RepeatedTopEigenvalueError("top eigenvalue is not simple")
    lam = dec.eigenvalues.copy()
    lam[0] += r
    scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=10.0)
    ts = scan.grid()
    diff = (grid_entry_values(_finish_decomposition(lam, dec.eigenvectors), ts)
            - grid_entry_values(dec, ts))
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


def check_perturbation(A: SymMatrix) -> PerturbationReport:
    """Verify (eps A + I)^t entry-wise >= -entry_tol on the grid t in
    [max(0, n-2), n+5], with eps maximal under eps A^n <= A^{n-1} entry-wise.
    eps A + I is not decomposed: it has A's eigenvectors, eigenvalues eps lambda + 1."""
    n = A.n
    dec = spectral_decompose(A)
    report = check_dn(A, dec=dec)
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
    scan = ScanConfig.for_matrix(C, t_min=max(0.0, n - 2.0), t_max=n + 5.0)
    ts = scan.grid()
    vals = grid_entry_values(_finish_decomposition(eps * dec.eigenvalues + 1.0,
                                                   dec.eigenvectors), ts)
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


def empirical_critical_exponent(A: SymMatrix) -> float:
    """Max over entries of the measured entry critical exponent.

    The window [0, crude_bound(n) + 2] reaches past every certified
    negativity.
    """
    return matrix_critical_exponent(A, ScanConfig.for_matrix(A, t_max=crude_bound(A.n) + 2.0))


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


def _search_draw(n: int, family: str, seed: int, trial: int) -> SymMatrix:
    """Trial ``trial``'s matrix from default_rng([seed, trial]): "mixed" tosses
    for the family first, and a Gram matrix draws its rank in 1..n."""
    rng = np.random.default_rng([seed, trial])
    if family == "mixed":
        family = "gram" if rng.random() < 0.5 else "tridiagonal"
    if family == "gram":
        return _random_gram(n, int(rng.integers(1, n + 1)), rng)
    return random_tridiagonal_dn(n, rng)


def search_critical_exponent(n: int, trials: int, seed: int,
                             family: str = "mixed") -> SearchSummary:
    """Draw ``trials`` random DN matrices and record the largest empirical
    critical exponent seen, the first trial attaining it (its matrix drawn
    again from its seed), and a histogram."""
    if n > 6:
        raise DimensionTooLargeError("search capped at n=6")
    if n < 2:
        raise DimensionTooSmallError(f"search needs n >= 2, got n={n}")
    if family not in SEARCH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {SEARCH_FAMILIES}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = np.array([empirical_critical_exponent(_search_draw(n, family, seed, trial))
                       for trial in range(trials)])
    k = int(np.argmax(values))  # the first maximum
    A = _search_draw(n, family, seed, k)
    counts, edges = np.histogram(values, bins=np.arange(0.0, crude_bound(n) + 2.5, 0.5))
    return SearchSummary(
        n=n,
        trials=trials,
        seed=seed,
        family=family,
        max_found=float(values[k]),
        argmax=A,
        argmax_trial=k,
        argmax_distinct_eigenvalues=spectral_decompose(A).group_starts.size,
        histogram=tuple(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())),
    )
