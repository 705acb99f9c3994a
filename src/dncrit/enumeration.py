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
class enumeration and ``canonicalize_w`` both find it as the minimum of the
orbit keys ``_orbit_keys`` gives: the key's digits times the cached
``_orbit_weights`` table, in one float64 product that is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .matcore import _upper
from .signchange import InvalidWError, SignChangeMatrix, _checked_stack

ENUM_MAX_N = 6  # sign patterns one by one: 15.2M at n=6, 3.8e10 at n=7
KEY_MAX_N = 7  # 3 bits per strict-upper entry of W: 63 bits at n=7, 84 at n=8
# The deduplicated raw-key chunks wait until they outnumber both the merged
# keys and this floor (8 MB of keys), then merge: n=7 holds about twice its
# 3.8M distinct keys at most, not 13.6M, and n=6 (48k in all) merges once.
_MERGE_FLOOR = 1 << 20
# Orbit keys per block of the class sweep: 22 orbits at n=6, 3 at n=7.
_SWEEP_BLOCK = 1 << 14
_EXACT_BITS = 53  # float64 holds every integer below 2^53 exactly
_HALF = 30  # where n=7 orbit keys split; a multiple of 3, so no field straddles it


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

    ``_orbit_keys`` gives the keys of the whole orbit from W's strict-upper
    digits, the one exact product the class sweep of ``enumerate_w_classes``
    takes too, and the winning permutation p is applied to W directly:
    entry (i, j) is W[p[i]][p[j]].  W must be a
    key: symmetric, zero diagonal, integer entries 0..7 and n <= KEY_MAX_N,
    as every W of a decomposition, of a class list or of the reference is.
    A W that passes structural validation (its verdict is kept on W, so it
    is checked once) is a key once its entries are integers: they lie in
    0..n-1.  Only a W that fails it gets the key checks here, so a
    symmetric W with a zero diagonal and entries 0..7 still has a
    canonical form when, say, a row holds two entries equal to n-1.
    """
    n = W.n
    if n > KEY_MAX_N:
        raise DimensionTooLargeError(
            f"canonical forms use 64-bit W keys, capped at n={KEY_MAX_N}")
    w = W.w
    if not W._validation.ok and not (
            len(w) == n and w == tuple(zip(*w)) and not any(w[i][i] for i in range(n))
            and min(map(min, w), default=0) >= 0 and max(map(max, w), default=0) <= 7):
        raise InvalidWError("canonical forms need a symmetric W with a zero diagonal "
                            "and entries 0..7")
    digits = np.array(w)[_upper(n)]
    if digits.dtype.kind not in "iu":
        raise InvalidWError("canonical forms need integer W entries")
    p = _perms(n)[_orbit_keys(digits, n).argmin()].tolist()
    rows = [w[i] for i in p]
    return SignChangeMatrix(n=n, w=tuple(tuple(r[j] for j in p) for r in rows),
                            generic=W.generic)


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


def _orbit_keys(digits: np.ndarray, n: int) -> np.ndarray:
    """``digits @ _orbit_weights(n)`` bit for bit, as uint64: the orbit keys
    of the keys whose 3-bit digits are the last axis of ``digits``, through
    one float64 (BLAS) product with ``_orbit_table``.

    Exact: the digits and weights are integers and every column sends each
    digit to its own 3-bit field, so each partial sum is an integer below the
    final key, exact in float64 while the key fits in 53 bits (n <= 6: 45).
    At n = 7 (63 bits) the table holds the fields below bit 30 and, shifted
    down by 30, the fields from bit 30 on, side by side: two exact halves of
    at most 33 bits, joined by one shift and OR.
    """
    table = _orbit_table(n)
    keys = (digits @ table).astype(np.uint64)
    size = math.factorial(n)
    if table.shape[1] == size:
        return keys
    high = keys[..., size:]
    high <<= np.uint64(_HALF)
    high |= keys[..., :size]
    return high


@functools.cache
def _orbit_table(n: int) -> np.ndarray:
    """``_orbit_weights(n)`` in float64, split into two halves at bit
    ``_HALF`` once a key needs more than 53 bits (see ``_orbit_keys``)."""
    table = _orbit_weights(n)
    if 3 * table.shape[0] > _EXACT_BITS:
        low = np.where(table < np.uint64(1 << _HALF), table, np.uint64(0))
        table = np.hstack([low, (table - low) >> np.uint64(_HALF)])
    table = table.astype(np.float64)
    table.setflags(write=False)
    return table


@functools.cache
def _orbit_weights(n: int) -> np.ndarray:
    """table[e, p]: the weight of entry e of W's key in (P W P^T)'s key, so
    that the key's 3-bit digits times the table give the whole orbit in
    permutation order.  The product is exact: each column sends every digit
    to its own 3-bit field, and the fields never overlap.  numpy runs a
    uint64 product without BLAS, so ``_orbit_keys`` takes it in float64."""
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

    The raw keys are then bucketed by ``_row_histogram_hash`` (n=6: 390
    buckets, n=7: 16,213) and swept in rounds.  A round takes the first live
    key of every bucket and builds their n! orbits in blocks of buckets,
    ``_SWEEP_BLOCK`` orbit keys each, one ``_orbit_keys`` product per block.
    Each orbit's minimum is its class's canonical key, and every live key of
    the block's buckets found among the block's sorted orbit keys retires.
    The hash is equal on a whole orbit, so the orbits of different buckets
    are disjoint: a round finds one new class in every bucket it visits, and
    a key found in a block's orbits is in its own bucket's new class.  Two
    classes that share a hash only cost another round (n=6: 2 rounds, n=7:
    5).  In all classes x n! orbit keys are built, and each live key is
    looked up once per round among its block's keys, the block's live keys
    in ascending order.  The canonical keys are unpacked and validated in
    one batch.  Capped at KEY_MAX_N, where the keys run out of bits.
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
    shifts = _key_shifts(n)
    per_block = max(1, _SWEEP_BLOCK // math.factorial(n))
    canonical = []
    while len(keys):  # the live keys, bucket by bucket
        starts = np.flatnonzero(np.r_[True, inv[1:] != inv[:-1]])
        bounds = np.append(starts, len(keys)).tolist()
        alive = np.ones(len(keys), dtype=bool)
        for b in range(0, len(starts), per_block):
            lo, hi = bounds[b], bounds[min(b + per_block, len(starts))]
            digits = (keys[starts[b:b + per_block], None] >> shifts) & np.uint64(7)
            orbits = _orbit_keys(digits, n)
            canonical.append(orbits.min(axis=1))
            orbits = np.sort(orbits, axis=None)
            live = keys[lo:hi]
            rank = live.argsort()  # sorted needles search faster
            live = live[rank]
            found = orbits[np.minimum(orbits.searchsorted(live), len(orbits) - 1)]
            alive[lo + rank] = found != live
        keys, inv = keys[alive], inv[alive]
    return _checked_stack(_unpack_keys(np.sort(np.concatenate(canonical)), n))


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
    chunks from ``_raw_key_chunks``, each deduplicated; the pending chunks
    merge into the merged keys once they outnumber them and ``_MERGE_FLOOR``.
    """
    merged = np.zeros(0, dtype=np.uint64)
    pending, size = [], 0
    for chunk in map(_dedupe, _raw_key_chunks(n)):
        pending.append(chunk)
        size += len(chunk)
        if size > max(len(merged), _MERGE_FLOOR):
            merged, pending, size = _dedupe(np.concatenate([merged, *pending])), [], 0
    return _dedupe(np.concatenate([merged, *pending]))


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
    column-pair mask that do not involve word a are computed on the tails
    once, too.

    Column distinctness: byte k of par[f] is the parity of f's low k bits,
    i.e. f's sign in column k, and ``_equal_pairs(par, n)`` gives, once per
    word, the column pairs that word leaves equal (row 0, the word 0, leaves
    every pair equal).  Two columns of a set agree in sign on every row
    exactly when every row leaves them equal, so a tail's mask is the AND of
    its words' table entries, and a set is column-distinct when the AND of
    its tail's mask and word a's is 0.

    The gathers through uint8 word indices use ``take``, about twice as fast
    as fancy indexing on them.  ``take`` copies its index to intp first, so
    a chunk drops its intp row index before those gathers, and its key after
    the yield, for the memory they would hold at n=7.
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
    a_eq = _equal_pairs(par, n)
    tail_eq = np.full(len(tails), a_eq[0])  # the word 0 leaves every pair equal
    for t in cols:
        tail_eq &= a_eq.take(t)
    # the shifts go on the 2^m-entry tables, not on the gathered columns
    tail_key = np.zeros(len(tails), dtype=np.uint64)
    for j, t in enumerate(cols):
        tail_key |= (pop << shift[0, j + 2]).take(t)
        for i in range(j):
            tail_key |= (pop << shift[i + 2, j + 2]).take(cols[i] ^ t)
    a_key = pop << shift[0, 1]
    a_pair = [pop << shift[1, j + 2] for j in range(m - 1)]
    # each tail's smallest word (2^m, past every a, for n=2's empty tail) rises
    # with the tail's index, so the tails above a start where it first exceeds a
    starts = np.searchsorted(tails.min(axis=1, initial=2 ** m), words[1:], side="right")

    for a, s in zip(range(1, 2 ** m), starts.tolist()):
        keep = np.flatnonzero((tail_eq[s:] & a_eq[a]) == 0) + s
        pair_words = [a ^ t[keep] for t in cols]
        key = tail_key[keep] | a_key[a]
        del keep
        for j, pair_key in enumerate(a_pair):
            key |= pair_key.take(pair_words[j])
        yield key
        del key, pair_words  # the caller keeps a deduplicated copy


def _tails(m: int) -> np.ndarray:
    """Every (m-1)-subset of the words 1 .. 2^m - 1 as an increasing uint8
    row, in lexicographic order (one empty row at m = 1), column-major so
    that each column is one contiguous array.

    Grown one size at a time: the k-subsets that start with word v are v
    followed by the (k-1)-subsets of the words above v, and in lexicographic
    order those are the last C(2^m - 1 - v, k - 1) of all (k-1)-subsets.  So
    each size is 2^m - 1 slice copies of the one before, in uint8 with no
    index arrays.
    """
    top = 2 ** m
    prev = np.zeros((0, 1), dtype=np.uint8)  # the one 0-subset, row-major by column
    for k in range(1, m):
        sizes = [math.comb(top - 1 - v, k - 1) for v in range(1, top)]
        out = np.empty((k, sum(sizes)), dtype=np.uint8)
        at = 0
        for v, size in enumerate(sizes, start=1):
            out[0, at:at + size] = v
            out[1:, at:at + size] = prev[:, prev.shape[1] - size:]
            at += size
        prev = out
    return prev.T


def _equal_pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """For uint64 codes holding one byte per column 0..n-1 (n <= 8): bit
    8k + d - 1 set where bytes k and k + d are equal, for every pair of
    columns k < k + d < n.

    x XOR (x >> 8d) has byte k zero exactly where bytes k and k + d agree,
    and the exact zero-byte test ~(((y & 0x7f..) + 0x7f..) | y | 0x7f..)
    marks each zero byte of y with its top bit, with no carry between
    bytes.  Shifting the marks for distance d down by 8 - d gives every
    pair its own bit.  ``_raw_key_chunks`` calls it once, on the 2^(n-1)
    per-word parity codes, and ANDs the entries of a set's words.
    """
    low7 = np.uint64(0x7F7F7F7F7F7F7F7F)
    eq = np.zeros(codes.shape, dtype=np.uint64)
    for d in range(1, n):
        pairs = np.uint64(sum(0x80 << 8 * k for k in range(n - d)))  # k + d < n
        y = codes ^ (codes >> np.uint64(8 * d))
        zero = ~(((y & low7) + low7) | y | low7)
        zero &= pairs
        zero >>= np.uint64(8 - d)
        eq |= zero
    return eq
