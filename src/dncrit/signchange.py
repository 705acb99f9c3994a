"""Sign change matrices.

W[i][j] is the number of sign changes in the coefficient sequence of the
(i, j) entry polynomial (bases in decreasing order, zero coefficients
skipped).  It bounds the number of real roots of that entry, hence how often
the entry can turn negative as t grows.

Structural facts used downstream: the diagonal is zero; each row and column
holds at most one value as large as n-1 and nothing larger; off-diagonal
entries are otherwise at most n-2.  An entry value w allows at most
floor((w-1)/2) negative intervals on t > 0 for w > 0, and none for w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exppoly import COEFF_ZERO_TOL, descartes_bound, entry_exppoly
from .matcore import MatrixFormatError, SymMatrix, spectral_decompose, _read_square_rows

ZERO_COORD_TOL = 1e-8    # relative: an eigenvector coordinate at or below this
                         # times the column's largest coordinate counts as zero


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

    The generic flag demands n eigenvalue groups (``dec.group_starts``) and
    no eigenvector coordinate within ZERO_COORD_TOL of zero (relative to the
    largest coordinate of that eigenvector); only then are the structural
    row and column limits guaranteed.
    """
    if isinstance(dec, SymMatrix):
        dec = spectral_decompose(dec)
    n = dec.n
    distinct = dec.group_starts.size == n
    coord_ok = True
    for k in range(n):
        col = np.abs(dec.eigenvectors[:, k])
        if col.min() <= ZERO_COORD_TOL * col.max():
            coord_ok = False
            break
    rows = []
    for i in range(n):
        rows.append(tuple(descartes_bound(entry_exppoly(dec, i, j, zero_tol))
                          for j in range(n)))
    return SignChangeMatrix(n=n, w=tuple(rows), generic=distinct and coord_ok)


def component_bound(w: int) -> int:
    """Most negative intervals an entry with w sign changes can have on t > 0:
    floor((w - 1) / 2) for w > 0, else 0."""
    if w <= 0:
        return 0
    return (w - 1) // 2


def validate_sign_change_matrix(W: SignChangeMatrix) -> ValidationResult:
    """Check the structural limits a generic DN matrix imposes on W.

    Violations are reported with 1-based positions so they read naturally next
    to printed matrices.
    """
    arr = W.as_array()
    cap = W.n - 1
    at_cap = arr == cap
    diag = np.diagonal(arr)
    over = arr.max(axis=1, initial=0) > cap
    multi_row = at_cap.sum(axis=1) > 1
    multi_col = at_cap.sum(axis=0) > 1
    symmetric = (arr == arr.T).all()
    negative = (arr < 0).any()
    if symmetric and not (diag.any() or negative or over.any() or multi_row.any()
                          or multi_col.any()):
        return ValidationResult(ok=True, violations=())
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
    return ValidationResult(ok=False, violations=tuple(violations))


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
