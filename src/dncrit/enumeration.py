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
import math
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

    Order is deterministic: the n-1 rows below the all-+ first row run
    through the ordered choices of distinct rows, in the order of a row-major
    binary counter with +1 before -1; choices whose columns repeat are
    skipped.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"pattern enumeration capped at n={ENUM_MAX_N}")
    first, *others = [(1,) + tail for tail in itertools.product((1, -1), repeat=n - 1)]
    for rest in itertools.permutations(others, n - 1):
        rows = (first, *rest)
        if len(set(zip(*rows))) == n:
            yield SignPattern(n=n, s=rows)


def _count_sign_patterns(n: int) -> int:
    """How many patterns ``enumerate_sign_patterns(n)`` yields, without
    yielding them: column-distinct sets of increasing flip words times the
    (n-1)! orders of the rows below row 1 (see ``_raw_w_from_row_sets``)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_N:
        raise DimensionTooLargeError(f"pattern enumeration capped at n={ENUM_MAX_N}")
    return sum(len(chunk) for chunk in _raw_key_chunks(n)) * math.factorial(n - 1)


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


def _unpack_keys(keys, n: int) -> np.ndarray:
    """The n x n W matrices (int8) packed into ``keys``: shape keys.shape + (n, n)."""
    keys = np.asarray(keys, dtype=np.uint64)
    iu, ju = np.triu_indices(n, 1)
    w = np.zeros(keys.shape + (n, n), dtype=np.int8)
    w[..., iu, ju] = (keys[..., None] >> _key_shifts(n)) & np.uint64(7)
    return w + np.swapaxes(w, -1, -2)


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

    Works on unordered sets of pattern rows, streamed in chunks by their
    first flip word (n=6: 169,911 row sets in 31 chunks -> 126,651
    column-distinct -> 18,903 raw keys -> 399 classes), then sweeps orbits:
    the smallest live key's n! orbit, permuted key to key, gives its class's
    canonical (minimum) key and retires all its raw keys: classes x n! work.
    The canonical keys are unpacked in one batch.
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
    ws = _unpack_keys(np.sort(np.array(canonical, dtype=np.uint64)), n).tolist()
    return tuple(SignChangeMatrix(n=n, w=tuple(map(tuple, w))) for w in ws)


def _raw_w_from_row_sets(n: int) -> np.ndarray:
    """Sorted distinct packed keys of the raw W of the admissible row sets.

    A row with a leading + is an (n-1)-bit flip word f (bit k: a sign change
    between columns k and k+1), so row 1 is the word 0, the row's sign in
    column k is the parity of f's low k bits, and W_ij = popcount(f_i XOR f_j).
    Every admissible pattern permutes (below row 1) exactly one set of
    increasing words, and relabeling rows permutes W within its class, so an
    admissible n-set of words stands for (n-1)! patterns.  The sets come in
    chunks from ``_raw_key_chunks``, each deduplicated before the merge.
    """
    keys = np.concatenate([_dedupe(chunk) for chunk in _raw_key_chunks(n)])
    return _dedupe(keys)


def _dedupe(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted in place, with repeats dropped."""
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _raw_key_chunks(n: int) -> Iterator[np.ndarray]:
    """Packed raw-W keys of the column-distinct sets of increasing words, one
    key per set, in lexicographic set order, duplicates kept.

    Chunk a holds the sets whose smallest nonzero word is a, for a = 1 ..
    2^(n-1)-1: word a followed by each (n-2)-word tail of larger words.  The
    tails are built once, in lexicographic order, so chunk a takes a suffix
    of them (empty once fewer than n-2 words exceed a); n=6 has 31,465
    tails in place of 169,911 sets.  The parts of the key and of the column
    codes that do not involve word a are computed on the tails once, too.

    Column distinctness: byte k of par[f] is the parity of f's low k bits,
    i.e. f's sign in column k, so ORing par[f_r] << (r-1) over the rows r
    below row 1 gives, byte by byte, each column's code (bit r-1: row r is
    - there; row 1 is + everywhere and is left out).  A set is column-
    distinct when no code repeats, which a running seen/dup mask over the
    2^(n-1) possible codes tells (one uint64, n <= 7).
    """
    m = n - 1
    if m == 0:
        yield np.zeros(1, dtype=np.uint64)
        return
    words = np.arange(2 ** m)
    pop = np.array([f.bit_count() for f in range(2 ** m)], dtype=np.uint64)
    bytes_ = np.arange(0, 8 * n, 8, dtype=np.uint64)
    par = np.bitwise_or.reduce(
        (pop[words[:, None] & ((1 << np.arange(n)) - 1)] & 1) << bytes_, axis=1)
    shift = np.zeros((n, n), dtype=np.uint64)
    shift[np.triu_indices(n, 1)] = _key_shifts(n)

    count = math.comb(2 ** m - 1, m - 1)
    tails = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(1, 2 ** m), m - 1)), np.uint8, count * (m - 1))
    tails = tails.reshape(count, m - 1)  # count, not -1: m-1 = 0 at n=2
    tail_code = np.zeros(count, dtype=np.uint64)
    tail_key = np.zeros(count, dtype=np.uint64)
    for j in range(m - 1):  # tail word j is row j+2
        t = tails[:, j]
        tail_code |= par[t] << np.uint64(j + 1)
        tail_key |= pop[t] << shift[0, j + 2]
        for i in range(j):
            tail_key |= pop[tails[:, i] ^ t] << shift[i + 2, j + 2]
    # each tail's smallest word (2^m, past every a, for n=2's empty tail) rises
    # with the tail's index, so the tails above a start where it first exceeds a
    starts = np.searchsorted(tails.min(axis=1, initial=2 ** m), words[1:], side="right")

    for a, s in zip(range(1, 2 ** m), starts.tolist()):
        code = par[a] | tail_code[s:]
        seen = np.ones(len(code), dtype=np.uint64)  # column 0's code is always 0
        dup = np.zeros(len(code), dtype=np.uint64)
        for k in bytes_[1:]:
            bit = np.uint64(1) << ((code >> k) & np.uint64(255))
            dup |= seen & bit
            seen |= bit
        keep = np.flatnonzero(dup == 0) + s
        key = tail_key[keep] | pop[a] << shift[0, 1]
        for j in range(m - 1):
            key |= pop[a ^ tails[keep, j]] << shift[1, j + 2]
        yield key
