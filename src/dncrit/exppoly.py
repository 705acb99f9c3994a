"""Exponential polynomials attached to matrix entries.

For a symmetric PSD matrix with spectral data (lambda_k, x_k), the (i, j)
entry of A^t is f(t) = sum_k c_k lambda_k^t with c_k = x_k[i] * x_k[j].
This module represents such functions, evaluates them on grids, bounds their
root counts via coefficient sign changes, and locates intervals where they
are negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    MERGE_TOL,
    SpectralDecomposition,
    SymMatrix,
    ZeroToNegativePowerError,
    clamp_psd,
    spectral_decompose,
)

COEFF_ZERO_TOL = 1e-10   # relative: a coefficient below this times max|c| is
                         # ignored by sign counting (still used in evaluation)
EVAL_ZERO_BAND = 1e-12   # relative zero band for counting grid sign alternations
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
    entry_index: tuple[int, int] | None = None

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

    @property
    def num_terms(self) -> int:
        return len(self.bases)

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


@dataclass(frozen=True)
class NegativeIntervalSet:
    """Disjoint ascending negativity intervals found within the scan window."""

    intervals: tuple[NegativeInterval, ...]
    scan_range: tuple[float, float]
    endpoint_tol: float
    entry_index: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


def entry_exppoly(dec: SpectralDecomposition, i: int, j: int,
                  zero_tol: float = COEFF_ZERO_TOL,
                  merge_tol: float = MERGE_TOL) -> ExpPoly:
    """Exponential polynomial of entry (i, j), 0-based.

    Coefficients of (numerically) equal eigenvalues are merged; zero bases
    are dropped with the singular flag set; coefficients at or below
    zero_tol * max|c| stay in the term list but are excluded from sign
    counting via sign_cut.
    """
    n = dec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for n={n}")
    lam = clamp_psd(dec.eigenvalues)
    raw_coeff = dec.eigenvectors[i, :] * dec.eigenvectors[j, :]
    scale = max(1.0, float(lam[0]))

    bases: list[float] = []
    coeffs: list[float] = []
    for k in range(lam.size):
        if bases and bases[-1] - lam[k] <= merge_tol * scale:
            coeffs[-1] += float(raw_coeff[k])
        else:
            bases.append(float(lam[k]))
            coeffs.append(float(raw_coeff[k]))

    singular = False
    if bases and bases[-1] == 0.0:
        singular = True
        bases.pop()
        coeffs.pop()

    cmax = max((abs(c) for c in coeffs), default=0.0)
    return ExpPoly(bases=tuple(bases), coefficients=tuple(coeffs),
                   singular=singular, sign_cut=zero_tol * cmax,
                   entry_index=(i, j))


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
    """(n, n, T) array with [i, j, a] = (A^{ts[a]})_{ij}, one einsum.

    Much faster than building n^2 ExpPoly objects when every entry of every
    power on a grid is needed; t must be >= 0 when A is singular.
    """
    ts = np.asarray(ts, dtype=float)
    lam = clamp_psd(dec.eigenvalues)
    if np.any(ts < 0.0) and np.any(lam == 0.0):
        raise ZeroToNegativePowerError("negative t with a zero eigenvalue")
    powed = np.power(lam[:, None], ts[None, :])
    u = dec.eigenvectors
    return np.einsum("ik,jk,ka->ija", u, u, powed, optimize=True)


def descartes_bound(f: ExpPoly) -> int:
    """Sign changes in the coefficient sequence, bases in decreasing order,
    zeros (and below-cut coefficients) skipped.  Bounds the number of real
    roots of f."""
    return sign_changes(f.significant_coefficients())


def sign_changes(seq) -> int:
    """Sign alternations in a real sequence, zeros skipped."""
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


def grid_sign_alternations(f: ExpPoly, ts: np.ndarray,
                           zero_band: float = EVAL_ZERO_BAND) -> int:
    """Sign alternations of f along the grid.

    Values within zero_band * sum_k |c_k| b_k^t are treated as zero so that
    roots hit (nearly) exactly by a grid point do not double-count.
    """
    ts = np.asarray(ts, dtype=float)
    vals = eval_exppoly(f, ts)
    if not f.bases:
        return 0
    b = np.array(f.bases)
    c = np.abs(np.array(f.coefficients))
    scale = c @ np.power(b[:, None], ts[None, :])
    signs = np.where(np.abs(vals) <= zero_band * scale, 0.0, np.sign(vals))
    return sign_changes(signs)


def negative_intervals(f: ExpPoly, scan: ScanConfig) -> NegativeIntervalSet:
    """Maximal intervals inside [t_min, t_max] where f < -entry_tol.

    Grid scan at ``step`` resolution, then bisection refinement of each
    endpoint down to ``endpoint_tol``.  Dips narrower than the step can be
    missed; runs that touch the window boundary keep the boundary as a
    clipped endpoint.
    """
    ts = scan.grid()
    vals = eval_exppoly(f, ts)
    neg = vals < -scan.entry_tol
    intervals: list[NegativeInterval] = []
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
        lo = scan.t_min if lo_clip else _bisect_edge(f, ts[start - 1], ts[start], scan)
        hi = scan.t_max if hi_clip else _bisect_edge(f, ts[stop + 1], ts[stop], scan)
        intervals.append(NegativeInterval(lo=float(lo), hi=float(hi),
                                          lo_clipped=lo_clip, hi_clipped=hi_clip))
        idx += 1
    return NegativeIntervalSet(intervals=tuple(intervals),
                               scan_range=(scan.t_min, scan.t_max),
                               endpoint_tol=scan.endpoint_tol,
                               entry_index=f.entry_index)


def _bisect_edge(f: ExpPoly, t_out: float, t_in: float, scan: ScanConfig) -> float:
    """Shrink the bracket between t_out (f >= -entry_tol) and t_in
    (f < -entry_tol) onto the sign crossing, to within endpoint_tol.

    Runs are detected at the -entry_tol level so fp noise cannot seed them,
    but endpoints refine against 0: that is what makes measured interval
    ends land on the actual roots (e.g. integer endpoints for tridiagonal
    witnesses) instead of sitting one noise-width inside them.
    """
    lo, hi = t_out, t_in
    while abs(hi - lo) > scan.endpoint_tol:
        mid = 0.5 * (lo + hi)
        if eval_exppoly(f, mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def entry_critical_exponent(f: ExpPoly, scan: ScanConfig) -> float:
    """Supremum of upper endpoints of negativity intervals in the window, or
    0.0 when the entry never dips below -entry_tol there."""
    found = negative_intervals(f, scan)
    if not found.intervals:
        return 0.0
    return max(iv.hi for iv in found.intervals)


def matrix_critical_exponent(A: SymMatrix, scan: ScanConfig | None = None) -> float:
    """Empirical critical exponent: max of the entry exponents over i <= j."""
    if scan is None:
        scan = ScanConfig.for_matrix(A)
    dec = spectral_decompose(A)
    worst = 0.0
    for i in range(A.n):
        for j in range(i, A.n):
            f = entry_exppoly(dec, i, j)
            worst = max(worst, entry_critical_exponent(f, scan))
    return worst
