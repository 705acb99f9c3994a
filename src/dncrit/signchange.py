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

from .exppoly import descartes_bound, entry_exppoly
from .matcore import (
    MERGE_TOL,
    MatrixFormatError,
    SymMatrix,
    count_distinct_eigenvalues,
    spectral_decompose,
    _read_square_rows,
)


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

    def max_entry(self) -> int:
        return max(max(row) for row in self.w)

    def __getitem__(self, ij):
        i, j = ij
        return self.w[i][j]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


def sign_change_matrix(dec, zero_tol: float = None,
                       zero_coord_tol: float = 1e-8) -> SignChangeMatrix:
    """Compute W from a spectral decomposition (a SymMatrix is decomposed
    on the fly).

    The generic flag demands n distinct eigenvalues and no eigenvector
    coordinate within zero_coord_tol of zero (relative to the largest
    coordinate of that eigenvector); only then are the structural row and
    column limits guaranteed.
    """
    from .exppoly import COEFF_ZERO_TOL
    if zero_tol is None:
        zero_tol = COEFF_ZERO_TOL
    if isinstance(dec, SymMatrix):
        dec = spectral_decompose(dec)
    n = dec.n
    distinct = count_distinct_eigenvalues(dec.eigenvalues, MERGE_TOL) == n
    coord_ok = True
    for k in range(n):
        col = np.abs(dec.eigenvectors[:, k])
        if col.min() <= zero_coord_tol * col.max():
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
    n = W.n
    arr = W.as_array()
    violations: list[str] = []
    if not (arr == arr.T).all():
        violations.append("not symmetric")
    for i in range(n):
        if arr[i, i] != 0:
            violations.append(f"diagonal entry ({i + 1},{i + 1}) = {arr[i, i]} nonzero")
    if (arr < 0).any():
        violations.append("negative entries present")
    cap = n - 1
    for i in range(n):
        row = arr[i]
        if row.max(initial=0) > cap:
            violations.append(f"row {i + 1} exceeds {cap}")
        if int((row == cap).sum()) > 1 and cap > 0:
            violations.append(f"row {i + 1} has multiple entries equal to {cap}")
    for j in range(n):
        col = arr[:, j]
        if int((col == cap).sum()) > 1 and cap > 0:
            violations.append(f"column {j + 1} has multiple entries equal to {cap}")
    return ValidationResult(ok=not violations, violations=tuple(violations))


def component_bound_matrix(W: SignChangeMatrix) -> np.ndarray:
    """Entry-wise negative-interval bounds floor((w-1)/2)."""
    arr = W.as_array()
    out = np.where(arr > 0, (arr - 1) // 2, 0)
    return out


def parse_sign_change_matrix(text: str, generic: bool = True) -> SignChangeMatrix:
    """Read a W matrix in the same text format as matrices: n then n rows."""
    w_rows = []
    for idx, row in enumerate(_read_square_rows(text), start=1):
        for v in row:
            if not (v.is_integer() and v >= 0):
                raise MatrixFormatError(f"row {idx}: entry {v!r} is not a nonnegative integer")
        w_rows.append(tuple(int(v) for v in row))
    return SignChangeMatrix(n=len(w_rows), w=tuple(w_rows), generic=generic)


def format_sign_change_matrix(W: SignChangeMatrix) -> str:
    lines = [str(W.n)]
    for row in W.w:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
