"""Exhaustive enumeration of eigenvector sign patterns and the sign-change
matrix classes they generate, up to simultaneous row/column permutation.

A sign pattern stands for the entry-wise signs of an orthogonal eigenvector
matrix U of a generic DN matrix (columns ordered by decreasing eigenvalue):
the first column is all + (Perron), the first row is normalized to all +
(column sign freedom), and rows/columns must be pairwise distinct.  Whether a
pattern is actually realizable by an orthogonal matrix is deliberately NOT
checked, so the class list is a provable superset of the W matrices of
generic DN matrices -- which is the direction certificates need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .signchange import SignChangeMatrix

ENUM_MAX_N = 6
CANON_MAX_N = 8


class DimensionTooLargeError(ValueError):
    """Requested n is beyond the feasibility cap of the operation."""


@dataclass(frozen=True)
class SignPattern:
    """{+1, -1} matrix of eigenvector-entry signs; s[i][k] = sign of u_ik."""

    n: int
    s: tuple[tuple[int, ...], ...]

    def rows_text(self) -> list[str]:
        return ["".join("+" if v > 0 else "-" for v in row) for row in self.s]


def enumerate_sign_patterns(n: int) -> Iterator[SignPattern]:
    """Yield every admissible sign pattern exactly once.

    Order is deterministic: the free (n-1) x (n-1) lower-right block runs
    through a row-major binary counter with +1 before -1.  Rows that would
    duplicate an earlier row prune the whole subtree, which does not disturb
    the order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"pattern enumeration capped at n={ENUM_MAX_N}")
    first = tuple([1] * n)
    if n == 1:
        yield SignPattern(n=1, s=(first,))
        return
    row_choices = [(1,) + tail for tail in itertools.product((1, -1), repeat=n - 1)]
    rows = [first]

    def rec(depth: int) -> Iterator[SignPattern]:
        if depth == n:
            cols = tuple(zip(*rows))
            if len(set(cols)) == n:
                yield SignPattern(n=n, s=tuple(rows))
            return
        for cand in row_choices:
            if cand in rows:
                continue
            rows.append(cand)
            yield from rec(depth + 1)
            rows.pop()

    yield from rec(1)


def pattern_to_w(p: SignPattern) -> SignChangeMatrix:
    """W[i][j] = sign changes of (s_i1 s_j1, ..., s_in s_jn)."""
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
    return SignChangeMatrix(n=n, w=tuple(tuple(r) for r in w), generic=True)


_PERMS_CACHE: dict[int, np.ndarray] = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERMS_CACHE:
        _PERMS_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _PERMS_CACHE[n]


def canonicalize_w(W: SignChangeMatrix) -> SignChangeMatrix:
    """Lexicographically smallest row-major flattening of P W P^T over all
    permutations P.  Brute force; idempotent."""
    flat = _canonical_flat(W.as_array())
    n = W.n
    w = tuple(tuple(int(v) for v in flat[i * n:(i + 1) * n]) for i in range(n))
    return SignChangeMatrix(n=n, w=w, generic=W.generic)


def _canonical_flat(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    if n > CANON_MAX_N:
        raise DimensionTooLargeError(f"canonicalization capped at n={CANON_MAX_N}")
    perms = _perms(n)
    variants = arr[perms[:, :, None], perms[:, None, :]].reshape(len(perms), n * n)
    best = np.lexsort(variants.T[::-1])[0]
    return variants[best]


def _canonical_flats_batch(flats: np.ndarray, n: int) -> np.ndarray:
    """Canonical row-major flattening of many W matrices at once.

    Iterates over the n! permutations and keeps a running lexicographic
    minimum per row; orders of magnitude faster than canonicalizing the
    matrices one by one when there are tens of thousands.
    """
    if n > CANON_MAX_N:
        raise DimensionTooLargeError(f"canonicalization capped at n={CANON_MAX_N}")
    base = np.arange(n * n).reshape(n, n)
    rows = np.arange(len(flats))
    best = flats.copy()
    for p in _perms(n):
        idx = base[np.ix_(p, p)].reshape(n * n)
        cand = flats[:, idx]
        diff = cand != best
        anyd = diff.any(axis=1)
        first = diff.argmax(axis=1)
        less = anyd & (cand[rows, first] < best[rows, first])
        best[less] = cand[less]
    return best


def enumerate_w_classes(n: int) -> tuple[SignChangeMatrix, ...]:
    """All sign-change-matrix classes arising from admissible sign patterns,
    as canonical forms sorted by their row-major flattening.

    Works on unordered sets of pattern rows rather than on ordered patterns,
    which cuts the n=6 case from ~20e6 patterns to ~2e5 row sets.  Classes
    agree: permuting the pattern rows below the first permutes W by the same
    relabeling.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"class enumeration capped at n={ENUM_MAX_N}")
    canonical = np.unique(_canonical_flats_batch(_raw_w_from_row_sets(n), n), axis=0)
    classes = []
    for flat in canonical:
        w = tuple(tuple(int(flat[i * n + j]) for j in range(n)) for i in range(n))
        classes.append(SignChangeMatrix(n=n, w=w, generic=True))
    return tuple(classes)


def _raw_w_from_row_sets(n: int) -> np.ndarray:
    """Distinct raw W matrices, flattened row-major, from unordered choices
    of the non-first pattern rows.

    Every admissible pattern is a permutation (below row 1) of exactly one
    such row set, and relabeling rows permutes W within its class, so the
    canonical class set is unchanged.  Vectorized over all C(2^(n-1)-1, n-1)
    row sets at once; n=6 means ~1.7e5 of them.
    """
    m = n - 1
    pool = np.array([(1,) + tail for tail in itertools.product((1, -1), repeat=m)],
                    dtype=np.int8)[1:]  # row equal to row 1 is never admissible
    combos = np.array(list(itertools.combinations(range(len(pool)), m)), dtype=np.intp)
    rows = np.concatenate(
        [np.ones((len(combos), 1, n), dtype=np.int8), pool[combos]], axis=1)

    # column distinctness: encode each column's n signs as a bit code
    bits = (rows > 0).astype(np.int64)
    codes = np.zeros((len(combos), n), dtype=np.int64)
    for i in range(n):
        codes += bits[:, i, :] << i
    codes.sort(axis=1)
    keep = (np.diff(codes, axis=1) != 0).all(axis=1) if n > 1 else np.ones(len(combos), bool)
    rows = rows[keep]

    w = np.zeros((rows.shape[0], n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            prod = rows[:, i, :] * rows[:, j, :]
            changes = (prod[:, 1:] != prod[:, :-1]).sum(axis=1).astype(np.int8)
            w[:, i, j] = changes
            w[:, j, i] = changes
    return np.unique(w.reshape(rows.shape[0], n * n), axis=0)
