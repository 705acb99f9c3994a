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


def _canonical_flat(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    if n > CANON_MAX_N:
        raise DimensionTooLargeError(f"canonicalization capped at n={CANON_MAX_N}")
    perms = _perms(n)
    variants = arr[perms[:, :, None], perms[:, None, :]].reshape(-1, arr.size)
    return variants[np.lexsort(variants.T[::-1])[0]]


def _key_shifts(n: int) -> np.ndarray:
    """Bit offset of each strict-upper entry of W in its uint64 key (entries
    0..7, n <= 7), row-major, 3 bits each, first on top: for symmetric W with
    zero diagonal, key order is the order of the row-major flattenings."""
    return np.arange(n * (n - 1) // 2, dtype=np.uint64)[::-1] * np.uint64(3)


def _unpack_key(key, n: int) -> np.ndarray:
    """The n x n W matrix (int8) packed into ``key``."""
    w = np.zeros((n, n), dtype=np.int8)
    w[np.triu_indices(n, 1)] = (np.uint64(key) >> _key_shifts(n)) & np.uint64(7)
    return w + w.T


@functools.cache
def _orbit_sources(n: int) -> np.ndarray:
    """src[p, e]: the entry of W's key that entry e of (P W P^T)'s key reads."""
    iu, ju = np.triu_indices(n, 1)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    return pos[_perms(n)[:, iu], _perms(n)[:, ju]]


def enumerate_w_classes(n: int) -> tuple[SignChangeMatrix, ...]:
    """All sign-change-matrix classes arising from admissible sign patterns,
    as canonical forms sorted by their row-major flattening.

    Works on unordered sets of pattern rows (n=6: 169,911 row sets -> 126,651
    column-distinct -> 18,903 raw keys -> 399 classes), then sweeps orbits:
    the smallest live key's n! orbit, permuted key to key, gives its class's
    canonical (minimum) key and retires all its raw keys: classes x n! work.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"class enumeration capped at n={ENUM_MAX_N}")
    keys = _raw_w_from_row_sets(n)
    src, shifts = _orbit_sources(n), _key_shifts(n)
    alive = np.ones(len(keys), dtype=bool)
    canonical = []
    cur = 0
    while alive[cur]:  # keys[cur] is the smallest live key
        orbit = np.bitwise_or.reduce(((keys[cur] >> shifts) & 7)[src] << shifts, axis=1)
        canonical.append(orbit.min())
        at = np.minimum(np.searchsorted(keys, orbit), len(keys) - 1)
        alive[at[keys[at] == orbit]] = False
        cur += int(alive[cur:].argmax())  # stays on the retired keys[cur] if none is left
    return tuple(SignChangeMatrix(n=n, w=tuple(map(tuple, _unpack_key(key, n).tolist())))
                 for key in sorted(canonical))


def _raw_w_from_row_sets(n: int) -> np.ndarray:
    """Sorted distinct packed keys of the raw W of the admissible row sets.

    A row with a leading + is an (n-1)-bit flip word f (bit k: a sign change
    between columns k and k+1), so row 1 is the word 0, the row's sign in
    column k is the parity of f's low k bits, and W_ij = popcount(f_i XOR f_j).
    Every admissible pattern permutes (below row 1) exactly one set of
    increasing words, and relabeling rows permutes W within its class.  All
    C(2^(n-1)-1, n-1) sets are handled at once: 169,911 at n=6.
    """
    m = n - 1
    if m == 0:
        return np.zeros(1, dtype=np.uint64)
    pop = np.array([f.bit_count() for f in range(2 ** m)], dtype=np.uint64)
    pre = (pop[np.arange(2 ** m)[:, None] & ((1 << np.arange(n)) - 1)] & 1).astype(np.uint8)
    sets = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(1, 2 ** m), m)), np.uint8).reshape(-1, m)
    flips = np.concatenate([np.zeros((len(sets), 1), dtype=np.uint8), sets], axis=1)

    # column distinctness: column k's code has bit i set when row i is - there
    codes = np.zeros((len(flips), n), dtype=np.uint8)
    for i in range(1, n):
        codes |= pre[flips[:, i]] << i
    codes.sort(axis=1)
    flips = flips[(np.diff(codes, axis=1) != 0).all(axis=1)]

    # pack W's upper triangle into one key per row set, pair by pair
    keys = np.zeros(len(flips), dtype=np.uint64)
    for (i, j), shift in zip(zip(*np.triu_indices(n, 1)), _key_shifts(n)):
        keys |= pop[flips[:, i] ^ flips[:, j]] << shift
    return np.unique(keys)
