"""Exponential polynomials attached to matrix entries.

For a symmetric PSD matrix with spectral data (lambda_k, x_k), the (i, j)
entry of A^t is f(t) = sum_k c_k lambda_k^t with c_k = x_k[i] * x_k[j].
The terms of one eigenvalue group merge into one; the merged coefficients
of every entry are rows of the decomposition's cached (n, n, K) tensor
``SpectralDecomposition.entry_coefficients``, built once per decomposition.
This module represents such functions, evaluates them on grids, bounds their
root counts via coefficient sign changes, and locates intervals where they
are negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    SpectralDecomposition,
    SymMatrix,
    ZeroToNegativePowerError,
    spectral_decompose,
)

COEFF_ZERO_TOL = 1e-10   # relative: a coefficient below this times max|c| is
                         # ignored by sign counting (still used in evaluation)
DEFAULT_STEP = 0.01
DEFAULT_ENDPOINT_TOL = 1e-9
DEFAULT_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class ExpPoly:
    """f(t) = sum c_k * b_k^t with bases strictly decreasing and positive.

    All merged terms are kept for evaluation; ``sign_cut`` is the absolute
    magnitude below which a coefficient is treated as zero when counting sign
    changes.  ``singular`` records that zero bases (and their coefficients)
    were dropped during construction: f then only represents the entry for
    t > 0 (and for t = 0 up to the dropped rank-deficient part).
    """

    bases: tuple[float, ...]
    coefficients: tuple[float, ...]
    singular: bool = False
    sign_cut: float = 0.0

    def __post_init__(self):
        if len(self.bases) != len(self.coefficients):
            raise ValueError("bases and coefficients must align")
        for a, b in zip(self.bases, self.bases[1:]):
            if not a > b:
                raise ValueError("bases must be strictly decreasing")
        if self.bases and self.bases[-1] <= 0.0:
            raise ValueError("bases must be positive (zero bases are dropped)")

    def __call__(self, t):
        return eval_exppoly(self, t)

    def significant_coefficients(self) -> tuple[float, ...]:
        """Coefficients with the below-cut ones replaced by exact zeros."""
        return tuple(0.0 if abs(c) <= self.sign_cut else c for c in self.coefficients)


@dataclass(frozen=True)
class ScanConfig:
    """Grid / refinement parameters for negativity scans.

    entry_tol is the negativity threshold: values above -entry_tol count as
    nonnegative.  ``for_matrix`` scales it to 1e-9 times the largest entry
    magnitude, the resolution to which signs of powered entries are trusted.
    """

    t_min: float = 0.0
    t_max: float = 10.0
    step: float = DEFAULT_STEP
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL
    entry_tol: float = DEFAULT_ENTRY_TOL

    def __post_init__(self):
        fields = (self.t_min, self.t_max, self.step, self.endpoint_tol, self.entry_tol)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"scan settings must be finite, got {fields}")
        if not (self.step > 0 and self.endpoint_tol > 0 and self.entry_tol >= 0):
            raise ValueError("scan needs step > 0, endpoint_tol > 0 and entry_tol >= 0")
        if self.t_max < self.t_min:
            raise ValueError(f"scan window is empty: t_max {self.t_max} < t_min {self.t_min}")

    @classmethod
    def for_matrix(cls, A: SymMatrix, t_min: float = 0.0, t_max: float = 10.0,
                   step: float = DEFAULT_STEP) -> "ScanConfig":
        return cls(t_min=t_min, t_max=t_max, step=step,
                   entry_tol=1e-9 * max(A.max_abs(), 1e-300))

    def grid(self) -> np.ndarray:
        count = int(math.floor((self.t_max - self.t_min) / self.step + 1e-9)) + 1
        return self.t_min + self.step * np.arange(count)


@dataclass(frozen=True)
class NegativeInterval:
    """Interval (lo, hi) on which the entry stays below -entry_tol.

    ``lo_clipped`` / ``hi_clipped`` mark endpoints that ran into the scan
    window instead of being refined sign crossings.
    """

    lo: float
    hi: float
    lo_clipped: bool = False
    hi_clipped: bool = False


def entry_exppoly(dec: SpectralDecomposition, i: int, j: int,
                  zero_tol: float = COEFF_ZERO_TOL) -> ExpPoly:
    """Exponential polynomial of entry (i, j), 0-based: the decomposition's
    ``entry_bases`` and row [i, j] of its ``entry_coefficients``.
    Coefficients at or below zero_tol * max|c| stay in the term list but are
    excluded from sign counting via sign_cut."""
    n = dec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for n={n}")
    coefficients = tuple(dec.entry_coefficients[i, j].tolist())
    return ExpPoly(bases=tuple(dec.entry_bases.tolist()), coefficients=coefficients,
                   singular=dec.singular,
                   sign_cut=zero_tol * max(map(abs, coefficients), default=0.0))


def eval_exppoly(f: ExpPoly, t):
    """Evaluate f at scalar or array t.  Vectorized; t < 0 is fine unless the
    dropped-zero-base flag makes the representation invalid there."""
    t_arr = np.asarray(t, dtype=float)
    if f.singular and np.any(t_arr < 0.0):
        raise ZeroToNegativePowerError("entry has a dropped zero base; t < 0 undefined")
    if not f.bases:
        out = np.zeros_like(t_arr)
        return out if t_arr.ndim else float(out)
    b = np.array(f.bases)
    c = np.array(f.coefficients)
    vals = c @ np.power(b[:, None], t_arr.ravel()[None, :])
    out = vals.reshape(t_arr.shape)
    return out if t_arr.ndim else float(out)


def grid_entry_values(dec: SpectralDecomposition, ts) -> np.ndarray:
    """(n, n, T) array with [i, j, a] = (A^{ts[a]})_{ij}: the (n, n, n)
    products u_ik u_jk times the (n, T) power table, one matmul.

    Much faster than building n^2 ExpPoly objects when every entry of every
    power on a grid is needed; t must be >= 0 when A is singular.

    The value at one t can differ in its last bits with the grid's length:
    numpy takes another matmul kernel for short grids, so ``ts[:k]`` need not
    give the first k columns of ``ts`` bit for bit, and ``dncrit scan`` can
    print different 17th digits for one t under two windows.
    """
    ts = np.asarray(ts, dtype=float)
    lam = dec.clamped_eigenvalues
    if np.any(ts < 0.0) and np.any(lam == 0.0):
        raise ZeroToNegativePowerError("negative t with a zero eigenvalue")
    powed = np.power(lam[:, None], ts[None, :])
    u = dec.eigenvectors
    return (u[:, None, :] * u[None, :, :]) @ powed


def descartes_bound(f: ExpPoly) -> int:
    """Sign changes in the coefficient sequence, bases in decreasing order,
    zeros (and below-cut coefficients) skipped.  Bounds the number of real
    roots of f.

    One pass over the coefficients, with the cut applied inline: a
    coefficient with |c| <= sign_cut, a zero or a NaN has no sign.
    """
    cut = f.sign_cut
    count = 0
    prev = 0
    for c in f.coefficients:
        if c > 0.0:
            if c <= cut:
                continue
            s = 1
        elif c < 0.0:
            if -c <= cut:
                continue
            s = -1
        else:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def negative_intervals(f: ExpPoly, scan: ScanConfig) -> tuple[NegativeInterval, ...]:
    """Maximal intervals inside [t_min, t_max] where f < -entry_tol, disjoint
    and ascending.

    Grid scan at ``step`` resolution, then bisection refinement of each
    endpoint down to ``endpoint_tol``.  Dips narrower than the step can be
    missed; runs that touch the window boundary keep the boundary as a
    clipped endpoint.
    """
    ts = scan.grid()
    neg = np.concatenate(([False], eval_exppoly(f, ts) < -scan.entry_tol, [False]))
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if flips.size == 0:
        return ()
    b_col = np.array(f.bases)[:, None]
    c = np.array(f.coefficients)
    last = len(ts) - 1
    intervals = []
    # flips pair up: a run covers grid indices start .. stop - 1
    for start, stop in zip(flips[0::2].tolist(), flips[1::2].tolist()):
        lo_clip = start == 0
        hi_clip = stop - 1 == last
        lo = scan.t_min if lo_clip else _bisect_edge(b_col, c, float(ts[start - 1]),
                                                     float(ts[start]), scan)
        hi = scan.t_max if hi_clip else _bisect_edge(b_col, c, float(ts[stop]),
                                                     float(ts[stop - 1]), scan)
        intervals.append(NegativeInterval(lo=float(lo), hi=float(hi),
                                          lo_clipped=lo_clip, hi_clipped=hi_clip))
    return tuple(intervals)


def _bisect_edge(b_col: np.ndarray, c: np.ndarray, t_out: float, t_in: float,
                 scan: ScanConfig) -> float:
    """Shrink the bracket between t_out (f >= -entry_tol) and t_in
    (f < -entry_tol) onto the sign crossing of f = c @ b_col^t, to within
    endpoint_tol or until the midpoint no longer splits the bracket.

    Runs are detected at the -entry_tol level so fp noise cannot seed them,
    but endpoints refine against 0: that is what makes measured interval
    ends land on the actual roots (e.g. integer endpoints for tridiagonal
    witnesses) instead of sitting one noise-width inside them.  Each step
    evaluates f exactly as ``eval_exppoly`` does at a scalar t: the (K, 1)
    bases against a (1, 1) t.
    """
    lo, hi = t_out, t_in
    t = np.empty((1, 1))
    while abs(hi - lo) > scan.endpoint_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        t[0, 0] = mid
        if (c @ np.power(b_col, t))[0] < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def entry_critical_exponent(f: ExpPoly, scan: ScanConfig) -> float:
    """Supremum of upper endpoints of negativity intervals in the window,
    clamped at 0.0, the answer when the entry never dips below -entry_tol
    there.  A window below t = 0 raises ValueError."""
    _require_window_reaches_zero(scan)
    return max([0.0] + [iv.hi for iv in negative_intervals(f, scan)])


def _require_window_reaches_zero(scan: ScanConfig) -> None:
    """A critical exponent is at least 0, so a window ending below t = 0
    cannot bound one; a window that straddles 0 is clamped there."""
    if scan.t_max < 0.0:
        raise ValueError(f"scan window [{scan.t_min!r}, {scan.t_max!r}] lies below t = 0, "
                         "where no critical exponent can lie")


def matrix_critical_exponent(A: SymMatrix, scan: ScanConfig | None = None) -> float:
    """Empirical critical exponent: max of the entry exponents over i <= j,
    under the window rule of ``entry_critical_exponent``."""
    if scan is None:
        scan = ScanConfig.for_matrix(A)
    return _matrix_critical_exponent(spectral_decompose(A), scan)


def _grid_values(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(E, T) values of E entries' (E, K) coefficients on a (K, T) power
    table, rounded as ``eval_exppoly`` rounds each entry's ``c @ table``.

    A stack of E (1, K) @ (K, T) products does that; the plain
    ``coeffs @ table`` sums in another order and differs in the last bits.
    """
    return (coeffs[:, None, :] @ table)[:, 0]


def _matrix_critical_exponent(dec: SpectralDecomposition, scan: ScanConfig) -> float:
    """``matrix_critical_exponent`` on a decomposition the caller holds.

    The entries i <= j, rows of the decomposition's coefficient tensor,
    share one (K, T) power table of the grid, so their grid values are one
    ``_grid_values`` product.  Only the last grid column with a negative
    value matters: upper ends of runs that stop earlier lie below it, so
    just the entries negative in that column are refined, and a run
    reaching the last grid point ends at t_max.
    """
    _require_window_reaches_zero(scan)
    ts = scan.grid()
    bases = dec.entry_bases
    coeffs = dec.entry_coefficients[np.triu_indices(dec.n)]
    if dec.singular and ts[0] < 0.0:
        raise ZeroToNegativePowerError("entry has a dropped zero base; t < 0 undefined")
    table = np.power(bases[:, None], ts[None, :])
    neg = _grid_values(coeffs, table) < -scan.entry_tol
    cols = np.flatnonzero(neg.any(axis=0))
    if cols.size == 0:
        return 0.0
    last = int(cols[-1])
    if last == ts.size - 1:
        return max(0.0, float(scan.t_max))
    return max(0.0, *(_bisect_edge(bases[:, None], c, float(ts[last + 1]), float(ts[last]),
                                   scan) for c in coeffs[neg[:, last]]))
