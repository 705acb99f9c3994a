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

import functools
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


@functools.cache
def _perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def canonicalize_w(W: SignChangeMatrix) -> SignChangeMatrix:
    """Lexicographically smallest row-major flattening of P W P^T over all
    permutations P.  Brute force; idempotent."""
    w = _canonical_flat(W.as_array()).reshape(W.n, W.n).tolist()
    return SignChangeMatrix(n=W.n, w=tuple(map(tuple, w)), generic=W.generic)


def _orbit(arr: np.ndarray) -> np.ndarray:
    """All n! relabelings P arr P^T, stacked as an (n!, n, n) array."""
    n = arr.shape[0]
    if n > CANON_MAX_N:
        raise DimensionTooLargeError(f"canonicalization capped at n={CANON_MAX_N}")
    perms = _perms(n)
    return arr[perms[:, :, None], perms[:, None, :]]


def _canonical_flat(arr: np.ndarray) -> np.ndarray:
    variants = _orbit(arr).reshape(-1, arr.size)
    return variants[np.lexsort(variants.T[::-1])[0]]


def _key_shifts(n: int) -> np.ndarray:
    """Bit offset of each strict-upper entry, row-major, 3 bits each, first on top."""
    return np.arange(n * (n - 1) // 2, dtype=np.uint64)[::-1] * np.uint64(3)


def _pack_keys(ws: np.ndarray) -> np.ndarray:
    """One uint64 key per symmetric zero-diagonal W in the (B, n, n) stack
    (entries 0..7, n <= 7: at most 63 bits).  The diagonal is zero and the
    lower triangle mirrors the upper, so the first difference of two row-major
    flattenings lies in the upper triangle: key order is lexicographic order."""
    iu, ju = np.triu_indices(ws.shape[-1], 1)
    upper = ws[:, iu, ju].astype(np.uint64)
    return np.bitwise_or.reduce(upper << _key_shifts(ws.shape[-1]), axis=1)


def _unpack_key(key, n: int) -> np.ndarray:
    """The n x n W matrix (int8) that ``_pack_keys`` maps to ``key``."""
    w = np.zeros((n, n), dtype=np.int8)
    w[np.triu_indices(n, 1)] = (np.uint64(key) >> _key_shifts(n)) & np.uint64(7)
    return w + w.T


def enumerate_w_classes(n: int) -> tuple[SignChangeMatrix, ...]:
    """All sign-change-matrix classes arising from admissible sign patterns,
    as canonical forms sorted by their row-major flattening.

    Works on unordered sets of pattern rows rather than on ordered patterns
    (n=6: 169,911 row sets -> 126,651 column-distinct -> 46,652 distinct raw
    W -> 399 classes), then sweeps orbits: the smallest live raw key's n!
    orbit gives its class's canonical (minimum) key and retires every raw key
    in it, so the work is classes x n!, not raw W x n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"class enumeration capped at n={ENUM_MAX_N}")
    keys = _raw_w_from_row_sets(n)
    alive = np.ones(len(keys), dtype=bool)
    canonical = []
    while alive.any():
        orbit = _pack_keys(_orbit(_unpack_key(keys[alive.argmax()], n)))
        canonical.append(orbit.min())
        at = np.minimum(np.searchsorted(keys, orbit), len(keys) - 1)
        alive[at[keys[at] == orbit]] = False
    return tuple(SignChangeMatrix(n=n, w=tuple(map(tuple, _unpack_key(key, n).tolist())))
                 for key in sorted(canonical))


def _raw_w_from_row_sets(n: int) -> np.ndarray:
    """Sorted distinct packed keys (see ``_pack_keys``) of the raw W matrices
    of unordered choices of the non-first pattern rows.

    Every admissible pattern is a permutation (below row 1) of exactly one
    such row set, and relabeling rows permutes W within its class, so the
    canonical class set is unchanged.  Vectorized over all C(2^(n-1)-1, n-1)
    row sets at once: 169,911 at n=6.  Never builds the (N, n, n) W stack.
    """
    m = n - 1
    pool = np.array([(1,) + tail for tail in itertools.product((1, -1), repeat=m)],
                    dtype=np.int8)[1:]  # row equal to row 1 is never admissible
    combos = np.array(list(itertools.combinations(range(len(pool)), m)), dtype=np.intp)
    rows = np.concatenate(
        [np.ones((len(combos), 1, n), dtype=np.int8), pool[combos]], axis=1)

    # column distinctness: encode each column's n signs as a bit code
    codes = np.zeros((len(combos), n), dtype=np.uint8)
    for i in range(n):
        codes |= (rows[:, i, :] > 0).view(np.uint8) << i
    codes.sort(axis=1)
    rows = rows[(np.diff(codes, axis=1) != 0).all(axis=1)]

    # pack W's upper triangle into one key per row set, pair by pair
    keys = np.zeros(len(rows), dtype=np.uint64)
    for (i, j), shift in zip(zip(*np.triu_indices(n, 1)), _key_shifts(n)):
        prod = rows[:, i, :] * rows[:, j, :]
        keys |= (prod[:, 1:] != prod[:, :-1]).sum(axis=1).astype(np.uint64) << shift
    return np.unique(keys)
