"""Exhaustive enumeration of eigenvector sign patterns and the sign-change
matrix classes they generate, up to simultaneous row/column permutation.

A sign pattern stands for the entry-wise signs of an orthogonal eigenvector
matrix U of a generic DN matrix (columns ordered by decreasing eigenvalue):
the first column is all + (Perron), the first row is normalized to all +
(column sign freedom), and rows/columns must be pairwise distinct.  Whether a
pattern is actually realizable by an orthogonal matrix is deliberately NOT
checked, so the class list is a provable superset of the W matrices of
generic DN matrices -- which is the direction certificates need.

A W with entries 0..7 and n <= KEY_MAX_N packs into one uint64 key whose
order is that of its row-major flattening (``_key_shifts``), and the
canonical form of its class is the relabeling with the smallest key.  The
class enumeration and ``canonicalize_w`` both find it as the minimum of one
matmul against the cached ``_orbit_weights`` table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .signchange import InvalidWError, SignChangeMatrix

ENUM_MAX_N = 6  # sign patterns one by one: 15.2M at n=6, 3.8e10 at n=7
KEY_MAX_N = 7  # 3 bits per strict-upper entry of W: 63 bits at n=7, 84 at n=8


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


@functools.cache
def _perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def canonicalize_w(W: SignChangeMatrix) -> SignChangeMatrix:
    """The canonical form of W's class: P W P^T for the relabeling P whose
    packed key (see ``_key_shifts``) is smallest, i.e. the smallest
    row-major flattening over all n! relabelings; idempotent.

    W's strict-upper digits times the cached ``_orbit_weights`` table give
    the keys of the whole orbit in one matmul, the same product the class
    sweep of ``enumerate_w_classes`` takes, and the winning permutation p
    is applied to W directly: entry (i, j) is W[p[i]][p[j]].  W must be a
    key: symmetric, zero diagonal, integer entries 0..7 and n <= KEY_MAX_N,
    as every W of a decomposition, of a class list or of the reference is.
    """
    n = W.n
    if n > KEY_MAX_N:
        raise DimensionTooLargeError(
            f"canonical forms use 64-bit W keys, capped at n={KEY_MAX_N}")
    w = W.w
    if not (len(w) == n and w == tuple(zip(*w)) and not any(w[i][i] for i in range(n))
            and min(map(min, w), default=0) >= 0 and max(map(max, w), default=0) <= 7):
        raise InvalidWError("canonical forms need a symmetric W with a zero diagonal "
                            "and entries 0..7")
    digits = np.array(w)[_upper(n)]
    if digits.dtype.kind not in "iu":
        raise InvalidWError("canonical forms need integer W entries")
    p = _perms(n)[(digits.astype(np.uint64) @ _orbit_weights(n)).argmin()].tolist()
    rows = [w[i] for i in p]
    return SignChangeMatrix(n=n, w=tuple(tuple(r[j] for j in p) for r in rows),
                            generic=W.generic)


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``: W's strict-upper entries, row-major, the
    digit order of its key."""
    upper = np.triu_indices(n, 1)
    for a in upper:
        a.setflags(write=False)  # one cached pair serves every caller
    return upper


def _key_shifts(n: int) -> np.ndarray:
    """Bit offset of each strict-upper entry of W in its uint64 key (entries
    0..7, n <= KEY_MAX_N), row-major, 3 bits each, first on top: for
    symmetric W with zero diagonal, key order is the order of the row-major
    flattenings."""
    if n > KEY_MAX_N:
        raise DimensionTooLargeError(
            f"W keys hold 3 bits per entry in 64 bits, capped at n={KEY_MAX_N}")
    return np.arange(n * (n - 1) // 2, dtype=np.uint64)[::-1] * np.uint64(3)


def _unpack_keys(keys, n: int) -> np.ndarray:
    """The n x n W matrices (int8) packed into ``keys``: shape keys.shape + (n, n)."""
    keys = np.asarray(keys, dtype=np.uint64)
    iu, ju = _upper(n)
    w = np.zeros(keys.shape + (n, n), dtype=np.int8)
    w[..., iu, ju] = (keys[..., None] >> _key_shifts(n)) & np.uint64(7)
    return w + np.swapaxes(w, -1, -2)


def _entry_positions(n: int) -> np.ndarray:
    """pos[i, j] = pos[j, i]: the index of entry (min(i, j), max(i, j)) among
    W's strict-upper entries, row-major (the key's digit order)."""
    iu, ju = _upper(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    return pos


@functools.cache
def _orbit_weights(n: int) -> np.ndarray:
    """table[e, p]: the weight of entry e of W's key in (P W P^T)'s key, so
    that the key's 3-bit digits times the table give the whole orbit in
    permutation order.  The product is exact: each column sends every digit
    to its own 3-bit field, and the fields never overlap."""
    shifts = _key_shifts(n)
    iu, ju = _upper(n)
    pos = _entry_positions(n)
    perms = _perms(n)
    src = pos[perms[:, iu], perms[:, ju]]  # entry e of P W P^T reads entry src[p, e] of W
    table = np.zeros((len(iu), len(perms)), dtype=np.uint64)
    table[src, np.arange(len(perms))[:, None]] = np.uint64(1) << shifts
    table.setflags(write=False)  # one cached array serves every caller
    return table


def enumerate_w_classes(n: int) -> tuple[SignChangeMatrix, ...]:
    """All sign-change-matrix classes arising from admissible sign patterns,
    as canonical forms sorted by their row-major flattening.

    Works on unordered sets of pattern rows, streamed in chunks by their
    first flip word, down to the distinct raw W keys; the stage counts are

      n=6: 169,911 row sets in 31 chunks -> 126,651 column-distinct
           -> 18,903 raw keys -> 399 classes;
      n=7: 67,945,521 row sets in 63 chunks -> 53,354,350 column-distinct
           -> 3,824,307 raw keys -> 17,475 classes.

    The raw keys are then bucketed by ``_row_histogram_hash``, which is
    equal on a whole orbit (n=6: 390 buckets, n=7: 16,213), and each bucket
    is swept on its own: a live key's n! orbit is its 3-bit digits times the
    cached ``_orbit_weights`` table, one matmul; sorted, its first key is the
    class's canonical (minimum) key, and the bucket's live keys found in it
    retire: classes x n! work, each lookup among one bucket's keys.  The
    canonical keys are unpacked in one batch.  Capped at KEY_MAX_N, where the
    keys run out of bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > KEY_MAX_N:
        raise DimensionTooLargeError(
            f"class enumeration capped at n={KEY_MAX_N} by its 64-bit W keys")
    keys = _raw_w_from_row_sets(n)
    inv = _row_histogram_hash(keys, n)
    order = np.argsort(inv)
    keys, inv = keys[order], inv[order]
    ends = np.flatnonzero(inv[1:] != inv[:-1]) + 1
    table, shifts = _orbit_weights(n), _key_shifts(n)
    last = table.shape[1] - 1
    canonical = []
    for live in np.split(keys, ends):
        while len(live):
            orbit = ((live[0] >> shifts) & np.uint64(7)) @ table
            orbit.sort()
            canonical.append(orbit[0])
            live = live[orbit[np.minimum(np.searchsorted(orbit, live), last)] != live]
    ws = _unpack_keys(np.sort(np.array(canonical, dtype=np.uint64)), n).tolist()
    return tuple(SignChangeMatrix(n=n, w=tuple(map(tuple, w))) for w in ws)


def _row_histogram_hash(keys: np.ndarray, n: int) -> np.ndarray:
    """One uint64 per key: a hash of the multiset of its W's row
    value-histograms, so equal on the key's whole orbit (relabeling permutes
    the rows and, within each row, the entries).

    Row i's histogram is packed as the sum of 8^W_ij over j != i (n-1 <= 6
    entries, so no 3-bit count overflows), mixed by two multiply-xorshift
    rounds and summed over the rows, wrapping.  Two orbits may share a hash;
    they then share a bucket, which costs time, not correctness.  One row at
    a time, so the temporaries stay at a few arrays of len(keys).
    """
    shifts = _key_shifts(n)
    pos = _entry_positions(n)
    one, seven, three = np.uint64(1), np.uint64(7), np.uint64(3)
    out = np.zeros(len(keys), dtype=np.uint64)
    for i in range(n):
        code = np.zeros(len(keys), dtype=np.uint64)
        for s in shifts[np.delete(pos[i], i)]:  # the digits of row i's n-1 entries
            code += one << (((keys >> s) & seven) * three)
        code *= np.uint64(0x9E3779B97F4A7C15)
        code ^= code >> np.uint64(29)
        code *= np.uint64(0xBF58476D1CE4E5B9)
        code ^= code >> np.uint64(32)
        out += code
    return out


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
    tails come once from ``_tails``, in lexicographic order, so chunk a takes
    a suffix of them (empty once fewer than n-2 words exceed a); n=6 has
    31,465 tails in place of 169,911 sets.  The parts of the key and of the
    column codes that do not involve word a are computed on the tails once,
    too.

    Column distinctness: byte k of par[f] is the parity of f's low k bits,
    i.e. f's sign in column k, so ORing par[f_r] << (r-1) over the rows
    r = 1 .. n-1 (numbered from 0, as in W) gives, byte by byte, each
    column's code (bit r-1: row r is - there; row 0, the word 0, is +
    everywhere and is left out).  Word a is row 1 and sets only bit 0 of
    each byte, the tail only the bits above it, so two columns of a
    set share a code exactly when word a and the tail both leave them
    equal.  ``_equal_pairs`` gives, once per tail and once per word a, the
    column pairs each leaves equal, and a set is column-distinct when the
    AND of its two masks is 0.
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
    shift[_upper(n)] = _key_shifts(n)

    tails = _tails(m)
    cols = [tails[:, j] for j in range(m - 1)]  # tail word j is row j+2; contiguous
    # the shifts go on the 2^m-entry tables, not on the gathered columns
    code = np.zeros(len(tails), dtype=np.uint64)
    for j, t in enumerate(cols):
        code |= (par << np.uint64(j + 1))[t]
    tail_eq = _equal_pairs(code, n)
    del code  # the generator outlives it
    tail_key = np.zeros(len(tails), dtype=np.uint64)
    for j, t in enumerate(cols):
        tail_key |= (pop << shift[0, j + 2])[t]
        for i in range(j):
            tail_key |= (pop << shift[i + 2, j + 2])[cols[i] ^ t]
    a_eq = _equal_pairs(par, n)
    a_key = pop << shift[0, 1]
    a_pair = [pop << shift[1, j + 2] for j in range(m - 1)]
    # each tail's smallest word (2^m, past every a, for n=2's empty tail) rises
    # with the tail's index, so the tails above a start where it first exceeds a
    starts = np.searchsorted(tails.min(axis=1, initial=2 ** m), words[1:], side="right")

    for a, s in zip(range(1, 2 ** m), starts.tolist()):
        keep = np.flatnonzero((tail_eq[s:] & a_eq[a]) == 0) + s
        key = tail_key[keep] | a_key[a]
        for t, pair_key in zip(cols, a_pair):
            key |= pair_key[a ^ t[keep]]
        yield key


def _tails(m: int) -> np.ndarray:
    """Every (m-1)-subset of the words 1 .. 2^m - 1 as an increasing uint8
    row, in lexicographic order (one empty row at m = 1), column-major so
    that each column is one contiguous array.

    Grown one word at a time: a row whose last word is l gets the children
    l+1 .. 2^m - 1, each row's children in increasing order, parents in
    order, which keeps the rows lexicographic.
    """
    top = 2 ** m
    cols: list[np.ndarray] = []
    last = np.zeros(1, dtype=np.intp)  # the words start at 1
    for _ in range(m - 1):
        counts = top - 1 - last
        parent = np.repeat(np.arange(len(last)), counts)
        first = np.cumsum(counts) - counts  # each parent's first child
        last = last[parent] + 1 + np.arange(len(parent)) - first[parent]
        cols = [c[parent] for c in cols] + [last.astype(np.uint8)]
    if not cols:
        return np.zeros((1, 0), dtype=np.uint8)
    return np.stack(cols).T


def _equal_pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """For uint64 codes holding one byte per column 0..n-1 (n <= 8): bit
    8k + d - 1 set where bytes k and k + d are equal, for every pair of
    columns k < k + d < n.

    x XOR (x >> 8d) has byte k zero exactly where bytes k and k + d agree,
    and the exact zero-byte test ~(((y & 0x7f..) + 0x7f..) | y | 0x7f..)
    marks each zero byte of y with its top bit, with no carry between
    bytes.  Shifting the marks for distance d down by 8 - d gives every
    pair its own bit.
    """
    low7 = np.uint64(0x7F7F7F7F7F7F7F7F)
    eq = np.zeros(codes.shape, dtype=np.uint64)
    for d in range(1, n):
        pairs = np.uint64(sum(0x80 << 8 * k for k in range(n - d)))  # k + d < n
        y = codes ^ (codes >> np.uint64(8 * d))
        zero = ~(((y & low7) + low7) | y | low7)
        zero &= pairs  # in place: at n=7 each array here is 56 MB
        zero >>= np.uint64(8 - d)
        eq |= zero
    return eq
