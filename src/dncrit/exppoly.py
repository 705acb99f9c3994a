"""Exponential polynomials attached to matrix entries.

For a symmetric PSD matrix with spectral data (lambda_k, x_k), the (i, j)
entry of A^t is f(t) = sum_k c_k lambda_k^t with c_k = x_k[i] * x_k[j].
The terms of one eigenvalue group merge into one; the merged coefficients
of every entry are rows of the decomposition's cached (n, n, K) tensor
``SpectralDecomposition.entry_coefficients``, built once per decomposition.
This module represents such functions, evaluates them on grids, bounds their
root counts via coefficient sign changes, and locates intervals where they
are negative.  ``_negative_grid`` scans for ``negative_intervals`` and both
critical exponents, which are ``_last_exit`` (the entry one its one row).
Evaluations are ``_grid_values`` products on ``matcore._power_table`` (bisection
steps excepted), so the table's t < 0 and overflow rules hold here too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .matcore import (
    SpectralDecomposition,
    SymMatrix,
    _power_table,
    _upper,
    grid_entry_values,
    spectral_decompose,
)

COEFF_ZERO_TOL = 1e-10   # relative: off a generic decomposition, a coefficient at or
                         # below this times max|c| has no sign (still evaluated)
DEFAULT_STEP = 0.01
DEFAULT_ENDPOINT_TOL = 1e-9
DEFAULT_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class ExpPoly:
    """f(t) = sum c_k * b_k^t with bases strictly decreasing and positive.

    All merged terms are kept for evaluation; a coefficient at or below the
    absolute ``sign_cut`` has no sign (see ``entry_exppoly``).  ``singular``
    records a zero eigenvalue, whose group (base and
    coefficients) was dropped during construction: f then only represents
    the entry for t > 0 (and for t = 0 up to the dropped rank-deficient part).
    """

    bases: tuple[float, ...]
    coefficients: tuple[float, ...]
    singular: bool = False
    sign_cut: float = 0.0

    def __post_init__(self):
        if len(self.bases) != len(self.coefficients):
            raise ValueError("bases and coefficients must align")
        if not all(map(operator.gt, self.bases, self.bases[1:])):
            raise ValueError("bases must be strictly decreasing")
        if self.bases and self.bases[-1] <= 0.0:
            raise ValueError("bases must be positive (zero bases are dropped)")

    def __call__(self, t):
        return eval_exppoly(self, t)


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
                   entry_tol=1e-9 * A.max_abs())

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


def entry_exppoly(dec: SpectralDecomposition, i: int, j: int) -> ExpPoly:
    """Exponential polynomial of entry (i, j), 0-based: the decomposition's
    ``entry_bases`` and row [i, j] of its ``entry_coefficients``.  On a
    ``generic`` decomposition every coefficient has a sign and sign_cut is 0;
    otherwise the coefficients at or below COEFF_ZERO_TOL * max|c| stay in
    the term list but are left out of sign counting."""
    n = dec.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for n={n}")
    coefficients = tuple(dec.entry_coefficients[i, j].tolist())
    cut = 0.0 if dec.generic else COEFF_ZERO_TOL * max(map(abs, coefficients), default=0.0)
    return ExpPoly(bases=dec._entry_base_tuple, coefficients=coefficients,
                   singular=dec.singular, sign_cut=cut)


def eval_exppoly(f: ExpPoly, t):
    """Evaluate f at scalar or array t: one row of ``_grid_values``.  t < 0
    needs f not ``singular``; ``_power_table`` holds that and the overflow rule."""
    t_arr = np.asarray(t, dtype=float)
    table = _power_table(np.array(f.bases), t_arr.ravel(), f.singular)
    out = _grid_values(np.array([f.coefficients]), table)[0].reshape(t_arr.shape)
    return out if t_arr.ndim else float(out)


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

    Grid scan at ``step`` resolution (row 0 of ``_negative_grid``), then
    bisection refinement of each endpoint down to ``endpoint_tol``.  Dips
    narrower than the step can be missed; runs that touch the window
    boundary keep the boundary as a clipped endpoint.
    """
    b = np.array(f.bases)
    c = np.array(f.coefficients)
    ts, neg = _negative_grid(b, c[None, :], f.singular, scan)
    neg = np.concatenate(([False], neg[0], [False]))
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if flips.size == 0:
        return ()
    last = len(ts) - 1
    intervals = []
    # flips pair up: a run covers grid indices start .. stop - 1
    for start, stop in zip(flips[0::2].tolist(), flips[1::2].tolist()):
        lo_clip = start == 0
        hi_clip = stop - 1 == last
        lo = scan.t_min if lo_clip else _bisect_edge(b, c, float(ts[start - 1]),
                                                     float(ts[start]), scan)
        hi = scan.t_max if hi_clip else _bisect_edge(b, c, float(ts[stop]),
                                                     float(ts[stop - 1]), scan)
        intervals.append(NegativeInterval(lo=float(lo), hi=float(hi),
                                          lo_clipped=lo_clip, hi_clipped=hi_clip))
    return tuple(intervals)


def _bisect_edge(b: np.ndarray, c: np.ndarray, t_out: float, t_in: float,
                 scan: ScanConfig) -> float:
    """Shrink the bracket between t_out (f >= -entry_tol) and t_in
    (f < -entry_tol) onto the sign crossing of f = c . b^t, to within
    endpoint_tol or until the midpoint no longer splits the bracket.

    Runs are detected at the -entry_tol level so fp noise cannot seed them,
    but endpoints refine against 0: that is what makes measured interval
    ends land on the actual roots (e.g. integer endpoints for tridiagonal
    witnesses) instead of sitting one noise-width inside them.  A step is one
    ``np.power`` into a (K,) buffer and one ``ndarray.dot``: BLAS ddot, as in
    ``eval_exppoly``'s (1, K) @ (K, 1) at a scalar t, so bit-equal to it;
    ``P @ c`` (gemv), einsum or a sum round otherwise.  No ``_power_table``:
    b^t is monotone in t and the bracket ends passed its rules as grid points.
    """
    lo, hi = t_out, t_in
    tol = scan.endpoint_tol
    powed = np.empty_like(b)
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if c.dot(np.power(b, mid, out=powed)) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def entry_critical_exponent(f: ExpPoly, scan: ScanConfig) -> float:
    """Largest upper endpoint of f's negativity intervals in the window,
    clamped at 0.0 (f never below -entry_tol there): the one-row
    ``_last_exit``.  A window below t = 0 raises ValueError."""
    return _last_exit(np.array(f.bases), np.array([f.coefficients]), f.singular, scan)


def matrix_critical_exponent(A: SymMatrix, scan: ScanConfig | None = None) -> float:
    """Empirical critical exponent: max of the entry exponents over i < j
    (a diagonal entry is never negative), by ``entry_critical_exponent``'s window rule."""
    if scan is None:
        scan = ScanConfig.for_matrix(A)
    return _matrix_critical_exponent(spectral_decompose(A), scan)


def _matrix_critical_exponent(dec: SpectralDecomposition, scan: ScanConfig) -> float:
    """``matrix_critical_exponent`` on a decomposition the caller holds: the
    entries i < j, rows of its coefficient tensor, in one ``_last_exit``."""
    return _last_exit(dec.entry_bases, dec.entry_coefficients[_upper(dec.n)],
                      dec.singular, scan)


def _grid_values(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(E, T) values of E entries' (E, K) coefficients on a (K, T) power
    table: the one product of grouped rows, shared by ``eval_exppoly`` (E = 1),
    the scans and both exponents, so every path rounds an entry alike.

    It is a stack of E (1, K) @ (K, T) products; the plain
    ``coeffs @ table`` sums in another order and differs in the last bits.
    """
    return (coeffs[:, None, :] @ table)[:, 0]


def _negative_grid(bases: np.ndarray, coeffs: np.ndarray, singular: bool,
                   scan: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid and the (E, T) mask of where E entries, (E, K)
    coefficients on the shared (K,) bases, lie below -entry_tol: one
    ``_power_table``, one ``_grid_values`` product."""
    ts = scan.grid()
    return ts, _grid_values(coeffs, _power_table(bases, ts, singular)) < -scan.entry_tol


def _last_exit(bases: np.ndarray, coeffs: np.ndarray, singular: bool,
               scan: ScanConfig) -> float:
    """Largest upper end of a negativity run over E entries, clamped at 0.0.

    Only the last grid column with a negative value matters: earlier runs
    end below it, so just the entries negative there are refined, and a run
    reaching the last grid point ends at t_max.  A critical exponent is at
    least 0: a window ending below t = 0 raises ValueError."""
    if scan.t_max < 0.0:
        raise ValueError(f"scan window [{scan.t_min!r}, {scan.t_max!r}] lies below t = 0, "
                         "where no critical exponent can lie")
    ts, neg = _negative_grid(bases, coeffs, singular, scan)
    cols = np.flatnonzero(neg.any(axis=0))
    if cols.size == 0:
        return 0.0
    last = int(cols[-1])
    if last == ts.size - 1:
        return max(0.0, float(scan.t_max))
    return max(0.0, *(_bisect_edge(bases, c, float(ts[last + 1]), float(ts[last]), scan)
                      for c in coeffs[neg[:, last]]))
