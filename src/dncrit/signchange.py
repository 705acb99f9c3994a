"""Sign change matrices.

W[i][j] is the number of sign changes in the coefficient sequence of the
(i, j) entry polynomial (bases in decreasing order, zero coefficients
skipped).  It bounds the number of real roots of that entry, hence how often
the entry can turn negative as t grows.  The coefficients u_ik u_jk of entry
(j, i) are those of (i, j), and a diagonal entry's are sums of squares, so
W is symmetric with a zero diagonal and only its n(n-1)/2 pairs i < j are
counted.  Each pair's coefficients are a row of the decomposition's
coefficient tensor, built once for all pairs, and ``descartes_bound``
counts their signs in one pass.

Structural facts used downstream: the diagonal is zero; each row and column
holds at most one value as large as n-1 and nothing larger; off-diagonal
entries are otherwise at most n-2.  An off-diagonal entry vanishes at t = 0
and is nonnegative at every integer t, so each negative interval past t = 1
costs two more roots: w allows at most floor((w-1)/2) of them (none for
w = 0), and one more root buys a dip in (0, 1), so w = 2 allows one there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exppoly import COEFF_ZERO_TOL, descartes_bound, entry_exppoly
from .matcore import MatrixFormatError, SymMatrix, spectral_decompose, _read_square_rows

ZERO_COORD_TOL = 1e-8    # relative: an eigenvector coordinate at or below this
                         # times the column's largest coordinate counts as zero


class InvalidWError(ValueError):
    """W is outside what an operation takes: the entry rules need a W that
    passes structural validation, canonical forms one that packs into a key."""


@dataclass(frozen=True)
class SignChangeMatrix:
    """Integer matrix of per-entry sign-change counts.

    ``generic`` records whether the source matrix had n distinct eigenvalues
    and eigenvectors free of (numerically) zero coordinates; the structural
    row/column limits are only guaranteed in that case.
    """

    n: int
    w: tuple[tuple[int, ...], ...]
    # diagnostic only: equal counts mean equal W, whatever their provenance
    generic: bool = field(default=True, compare=False)

    def as_array(self) -> np.ndarray:
        return np.array(self.w, dtype=int)

    def __getitem__(self, ij):
        i, j = ij
        return self.w[i][j]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


def sign_change_matrix(dec, zero_tol: float = COEFF_ZERO_TOL) -> SignChangeMatrix:
    """Compute W from a spectral decomposition (a SymMatrix is decomposed
    on the fly).

    Only the n(n-1)/2 entries i < j build an entry polynomial; W is
    symmetric with a zero diagonal (see the module docstring).

    The generic flag demands n eigenvalue groups (``dec.group_starts``) and
    no eigenvector coordinate within ZERO_COORD_TOL of zero (relative to the
    largest coordinate of that eigenvector); only then are the structural
    row and column limits guaranteed.
    """
    if isinstance(dec, SymMatrix):
        dec = spectral_decompose(dec)
    n = dec.n
    coords = np.abs(dec.eigenvectors)
    coord_ok = bool((coords.min(axis=0) > ZERO_COORD_TOL * coords.max(axis=0)).all())
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = descartes_bound(entry_exppoly(dec, i, j, zero_tol))
    return SignChangeMatrix(n=n, w=tuple(map(tuple, w)),
                            generic=dec.group_starts.size == n and coord_ok)


def component_bound(w: int) -> int:
    """Most negative intervals an off-diagonal entry with w sign changes can
    have past t = 1: floor((w - 1) / 2) for w > 0, else 0.  A dip in (0, 1)
    is not counted: w = 2 allows one there."""
    if w <= 0:
        return 0
    return (w - 1) // 2


def validate_sign_change_matrix(W: SignChangeMatrix) -> ValidationResult:
    """Check the structural limits a generic DN matrix imposes on W.

    Violations are reported with 1-based positions so they read naturally next
    to printed matrices.
    """
    w, cap = W.w, W.n - 1
    # a valid W passes a few scalar reductions on its rows; by symmetry, at
    # most one cap per row covers the columns too
    if (w == tuple(zip(*w)) and min(map(min, w)) >= 0 and max(map(max, w)) <= cap
            and not any(w[i][i] for i in range(W.n)) and all(r.count(cap) <= 1 for r in w)):
        return ValidationResult(ok=True, violations=())
    arr = W.as_array()
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


def parse_sign_change_matrix(text: str) -> SignChangeMatrix:
    """Read a W matrix in the same text format as matrices: n then n rows."""
    w_rows = []
    for idx, row in enumerate(_read_square_rows(text), start=1):
        for v in row:
            if not (v.is_integer() and v >= 0):
                raise MatrixFormatError(f"row {idx}: entry {v!r} is not a nonnegative integer")
        w_rows.append(tuple(int(v) for v in row))
    return SignChangeMatrix(n=len(w_rows), w=tuple(w_rows))


def format_sign_change_matrix(W: SignChangeMatrix) -> str:
    lines = [str(W.n)]
    for row in W.w:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
