"""Sign change matrices.

W[i][j] is the number of sign changes in the coefficient sequence of the
(i, j) entry polynomial (bases in decreasing order, coefficients without a
sign skipped).  It bounds the number of real roots of that entry, hence how
often the entry can turn negative as t grows.  The coefficients u_ik u_jk of
entry (j, i) are those of (i, j), and a diagonal entry's are sums of squares,
so W is symmetric with a zero diagonal and only its n(n-1)/2 pairs i < j are
counted, each a row of the decomposition's coefficient tensor, built once
for all pairs, whose signs ``descartes_bound`` counts in one pass.

Which W a generic matrix gets.  On a ``generic`` decomposition no
coefficient is zero or cut, so W[i][j] counts the sign changes of s_ik s_jk
along k, s = sign(U): popcount(flip_i XOR flip_j), as in the enumeration.
For an invertible DN matrix s is an enumerated pattern, so W is in an
enumerated class: ``spectral_decompose`` makes each column's first nonzero
coordinate positive, by the rule ``generic`` reads (``_nonzero_coords``), so
row 1 is all +; the Perron column is then all + (lambda_1 is simple with a
nonnegative eigenvector); and no two rows, or columns, of an orthogonal U
without zeros agree in sign everywhere or nowhere, as their inner product
would not vanish.  A singular matrix's W omits the zero group.

Structural facts used downstream: the diagonal is zero; each row and column
holds at most one value as large as n-1 and nothing larger; off-diagonal
entries are otherwise at most n-2.  An off-diagonal entry vanishes at t = 0
and is nonnegative at every integer t, so each negative interval past t = 1
costs two more roots: w allows at most floor((w-1)/2) of them (none for
w = 0), and one more root buys a dip in (0, 1), so w = 2 allows one there.

A W is validated at most once: its ``ValidationResult`` is kept on it, so
``validate_sign_change_matrix``, ``entry_bounds_from_w`` and
``canonicalize_w`` all read one check.  The enumerated classes come
validated: ``enumerate_w_classes`` checks them all in one array pass
(``_checked_stack``), so certifying a dimension runs no per-class check.  W
is immutable and the result takes no part in equality or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exppoly import descartes_bound, entry_exppoly
from .matcore import MatrixFormatError, SymMatrix, spectral_decompose, _read_square_rows


class InvalidWError(ValueError):
    """W is outside what an operation takes: the entry rules need a W that
    passes structural validation, canonical forms one that packs into a key."""


@dataclass(frozen=True)
class SignChangeMatrix:
    """Integer matrix of per-entry sign-change counts.

    ``generic`` is the source decomposition's flag: n eigenvalue groups and
    no (numerically) zero eigenvector coordinate.  Only then is W the W of
    a sign pattern and the structural row/column limits guaranteed.
    """

    n: int
    w: tuple[tuple[int, ...], ...]
    # diagnostic only: equal counts mean equal W, whatever their provenance
    generic: bool = field(default=True, compare=False)

    def __getitem__(self, ij):
        i, j = ij
        return self.w[i][j]

    @cached_property
    def _validation(self) -> "ValidationResult":
        """``_validate`` of W, run once per W: ``validate_sign_change_matrix``
        returns it, and ``canonicalize_w`` reads its verdict."""
        return _validate(self.w, self.n)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


_VALID = ValidationResult(ok=True, violations=())  # shared by every valid W


def sign_change_matrix(dec) -> SignChangeMatrix:
    """W of a spectral decomposition (a SymMatrix is decomposed on the fly)
    with its ``generic`` flag: one entry polynomial per pair i < j, its sign
    cut set by ``dec.generic`` (see the module docstring)."""
    if isinstance(dec, SymMatrix):
        dec = spectral_decompose(dec)
    n = dec.n
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = descartes_bound(entry_exppoly(dec, i, j))
    return SignChangeMatrix(n=n, w=tuple(map(tuple, w)), generic=dec.generic)


def component_bound(w: int) -> int:
    """Most negative intervals an off-diagonal entry with w sign changes can
    have past t = 1: floor((w - 1) / 2) for w > 0, else 0.  A dip in (0, 1)
    is not counted: w = 2 allows one there."""
    if w <= 0:
        return 0
    return (w - 1) // 2


def validate_sign_change_matrix(W: SignChangeMatrix) -> ValidationResult:
    """Check the structural limits a generic DN matrix imposes on W.

    The check (``_validate``) runs once per W, whose result is kept on W.
    """
    return W._validation


def _validate(w: tuple[tuple[int, ...], ...], n: int) -> ValidationResult:
    """A valid W passes one short pass over its rows and gets the one shared
    ``ok`` result.  Any other W gets its violations listed: a W that is not
    n x n reports its shape alone, any other gets one pass over its row and
    column tuples.  Positions are 1-based, as printed."""
    cap = n - 1
    if len(w) == n and w == tuple(zip(*w)):  # square and symmetric
        for i, r in enumerate(w):  # by symmetry the rows cover the columns
            if r[i] or min(r) < 0 or max(r) > cap or r.count(cap) > 1:
                break
        else:
            return _VALID
    if len(w) != n or any(len(r) != n for r in w):
        return ValidationResult(ok=False, violations=(f"W is not {n} x {n}",))
    cols = tuple(zip(*w))
    violations = [] if w == cols else ["not symmetric"]
    violations += [f"diagonal entry ({i + 1},{i + 1}) = {r[i]} nonzero"
                   for i, r in enumerate(w) if r[i]]
    if min(map(min, w)) < 0:
        violations.append("negative entries present")
    for i, r in enumerate(w, start=1):
        if max(r) > cap:
            violations.append(f"row {i} exceeds {cap}")
        if r.count(cap) > 1:
            violations.append(f"row {i} has multiple entries equal to {cap}")
    violations += [f"column {j} has multiple entries equal to {cap}"
                   for j, c in enumerate(cols, start=1) if c.count(cap) > 1]
    return ValidationResult(ok=not violations, violations=tuple(violations))


def _checked_stack(ws: np.ndarray) -> tuple[SignChangeMatrix, ...]:
    """The W of each n x n integer matrix of the stack ``ws`` (shape
    (B, n, n)), validated in one array pass of ``_validate``'s rule for a
    valid W: symmetric, a zero diagonal, entries 0..n-1 and at most one n-1
    per row (so per column).  A W that passes keeps the shared ``_VALID``,
    the way a decomposition keeps its zero-coordinate verdict; any other W
    runs ``_validate`` on first use, for its violations."""
    n = ws.shape[-1]
    cap = n - 1
    ok = ((ws == np.swapaxes(ws, -1, -2)).all(axis=(-2, -1))
          & ~np.diagonal(ws, axis1=-2, axis2=-1).any(axis=-1)
          & ((ws >= 0) & (ws <= cap)).all(axis=(-2, -1))
          & ((ws == cap).sum(axis=-1) <= 1).all(axis=-1))
    out = tuple(SignChangeMatrix(n=n, w=tuple(map(tuple, w))) for w in ws.tolist())
    for W, valid in zip(out, ok.tolist()):
        if valid:
            vars(W)["_validation"] = _VALID  # fills the cached_property
    return out


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
