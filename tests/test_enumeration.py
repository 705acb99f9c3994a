"""Sign-pattern enumeration, the pattern-to-W oracle, canonicalization
(against a brute-force oracle, and its rejection of what a key cannot hold,
before and after W's validation verdict is cached),
and the per-dimension class sets (including cross-validation of the row-set
reduction against the brute-force canonical form of every pattern's W), the
flip-word lemma the row-set reduction rests on, the
chunked raw-key stage against a monolithic oracle and chunk by chunk against
the column-code pass it replaced (and its tails and column-pair masks against
the loops they replaced), the packed W keys and
key-level orbits the enumeration sweeps over, the bucketed sweep against the
whole-key sweep it replaced (also in rounds of one bucket and in blocks of
one bucket), the float64 orbit product against the uint64 one, the memory
the sweep and the tails take, the count each stage keeps, and pins of the
n=5 and n=6 class lists and of their per-entry bounds."""

import hashlib
import inspect
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncrit as dc
from conftest import pattern_to_w
from dncrit import enumeration
from dncrit.enumeration import (
    DimensionTooLargeError,
    SignPattern,
    _equal_pairs,
    _key_shifts,
    _count_sign_patterns,
    _orbit_keys,
    _orbit_weights,
    _raw_key_chunks,
    _raw_w_from_row_sets,
    _row_histogram_hash,
    _tails,
    _unpack_keys,
)


def _canonical_flat_oracle(arr):
    """Oracle: every variant P arr P^T flattened, and one lexsort with one
    key per entry, the first entry primary."""
    perms = np.array(list(itertools.permutations(range(arr.shape[0]))), dtype=np.intp)
    variants = arr[perms[:, :, None], perms[:, None, :]].reshape(-1, arr.size)
    return variants[np.lexsort(variants.T[::-1])[0]]


def _canonical_oracle(arr):
    """The brute-force canonical form of the n x n array ``arr``, as W's
    tuple rows."""
    n = arr.shape[0]
    return tuple(map(tuple, _canonical_flat_oracle(arr).reshape(n, n).tolist()))


def _pack_keys(ws):
    """Oracle: one uint64 key per W in the (B, n, n) stack, its strict upper
    triangle row-major at 3 bits per entry, the first entry on top."""
    iu, ju = np.triu_indices(ws.shape[-1], 1)
    shifts = 3 * np.arange(len(iu) - 1, -1, -1, dtype=np.uint64)
    return np.bitwise_or.reduce(ws[:, iu, ju].astype(np.uint64) << shifts, axis=1)


def _raw_keys_monolithic(n):
    """Oracle: the packed raw-W key of every column-distinct set of increasing
    flip words, all C(2^(n-1)-1, n-1) sets at once, in lexicographic set
    order, duplicates kept."""
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
    keys = np.zeros(len(flips), dtype=np.uint64)
    for (i, j), shift in zip(zip(*np.triu_indices(n, 1)), _key_shifts(n)):
        keys |= pop[flips[:, i] ^ flips[:, j]] << shift
    return keys


def _orbit_sources(n):
    """Oracle: src[p, e], the entry of W's key that entry e of (P W P^T)'s
    key reads."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    iu, ju = np.triu_indices(n, 1)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    return pos[perms[:, iu], perms[:, ju]]


def _orbit_gather(key, n):
    """Oracle: the n! keys of (P W P^T) in permutation order, each gathered
    3-bit field by field from W's key and ORed together."""
    shifts = _key_shifts(n)
    return np.bitwise_or.reduce(((key >> shifts) & 7)[_orbit_sources(n)] << shifts, axis=1)


def _sweep_oracle(keys, n):
    """Oracle: the sweep before bucketing, over all of the sorted raw keys at
    once: the smallest live key's sorted orbit retires the raw keys it finds
    among all of them.  Returns the canonical keys, sorted."""
    table, shifts = _orbit_weights(n), _key_shifts(n)
    alive = np.ones(len(keys), dtype=bool)
    canonical = []
    cur = 0
    while alive[cur]:  # keys[cur] is the smallest live key
        orbit = ((keys[cur] >> shifts) & np.uint64(7)) @ table
        orbit.sort()
        canonical.append(orbit[0])
        at = np.minimum(np.searchsorted(keys, orbit), len(keys) - 1)
        alive[at[keys[at] == orbit]] = False
        cur += int(alive[cur:].argmax())  # stays on the retired keys[cur] if none is left
    return np.sort(np.array(canonical, dtype=np.uint64))


def _tails_oracle(n):
    """Oracle: the (n-2)-subsets of the words 1 .. 2^(n-1) - 1 from
    itertools, as uint8 rows."""
    m = n - 1
    count = math.comb(2 ** m - 1, m - 1)
    tails = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(1, 2 ** m), m - 1)), np.uint8, count * (m - 1))
    return tails.reshape(count, m - 1)  # count, not -1: m-1 = 0 at n=2


def _columns_distinct_oracle(codes, n):
    """Oracle: a running seen/dup mask over the 2^(n-1) possible column codes
    (one byte per column, column 0's code always 0): True where no code
    repeats."""
    seen = np.ones(len(codes), dtype=np.uint64)
    dup = np.zeros(len(codes), dtype=np.uint64)
    for k in np.arange(8, 8 * n, 8, dtype=np.uint64):
        bit = np.uint64(1) << ((codes >> k) & np.uint64(255))
        dup |= seen & bit
        seen |= bit
    return dup == 0


def _parity_codes(n):
    """Oracle: byte k of code f is the parity of word f's low k bits, i.e.
    f's sign in column k (0 for +), for the 2^(n-1) words f."""
    return np.array([sum((f & ((1 << k) - 1)).bit_count() % 2 << 8 * k for k in range(n))
                     for f in range(2 ** (n - 1))], dtype=np.uint64)


def _set_pairs_oracle(words, n):
    """Oracle: the column pairs each row of ``words`` (a set of flip words
    below row 0) leaves equal, as the raw-key stage built them before it read
    them from the per-word table: the set's column codes, bit j + 1 of byte k
    set when word j is - in column k, and one ``_equal_pairs`` pass over
    them."""
    par = _parity_codes(n)
    code = np.zeros(len(words), dtype=np.uint64)
    for j in range(words.shape[1]):
        code |= par[words[:, j]] << np.uint64(j + 1)
    return _equal_pairs(code, n)


def _chunks_oracle(n):
    """Oracle: chunk a of the raw-key stage, for a = 1 .. 2^(n-1) - 1: the
    keys of the sets of word a and each tail of larger words, kept by the
    column-pair masks of ``_set_pairs_oracle``, with W from popcounts."""
    m = n - 1
    pop = np.array([f.bit_count() for f in range(2 ** m)], dtype=np.uint64)
    tails = _tails_oracle(n)
    tail_eq = _set_pairs_oracle(tails, n)
    a_eq = _set_pairs_oracle(np.arange(2 ** m)[:, None], n)
    for a in range(1, 2 ** m):
        keep = (tails.min(axis=1, initial=2 ** m) > a) & ((tail_eq & a_eq[a]) == 0)
        flips = np.zeros((int(keep.sum()), n), dtype=np.intp)
        flips[:, 1], flips[:, 2:] = a, tails[keep]
        keys = np.zeros(len(flips), dtype=np.uint64)
        for (i, j), shift in zip(zip(*np.triu_indices(n, 1)), _key_shifts(n)):
            keys |= pop[flips[:, i] ^ flips[:, j]] << shift
        yield keys


def _flip_word(row):
    """Bit k set when the row changes sign between columns k and k+1."""
    return sum(1 << k for k in range(len(row) - 1) if row[k] != row[k + 1])


def _symmetric(n, upper):
    w = np.zeros((n, n), dtype=np.int8)
    w[np.triu_indices(n, 1)] = upper
    return w + w.T


@st.composite
def w_pairs(draw):
    """Two symmetric zero-diagonal n x n matrices, entries 0..n-1, n = 1..6,
    sharing a drawn prefix of their upper triangles so that the first
    difference can fall on any entry."""
    n = draw(st.integers(1, 6))
    m = n * (n - 1) // 2
    a = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    k = draw(st.integers(0, m))
    b = a[:k] + draw(st.lists(st.integers(0, n - 1), min_size=m - k, max_size=m - k))
    return _symmetric(n, a), _symmetric(n, b)


class TestPatterns:
    def test_n1(self):
        pats = list(dc.enumerate_sign_patterns(1))
        assert len(pats) == 1
        assert pats[0].s == ((1,),)

    def test_n2(self):
        pats = list(dc.enumerate_sign_patterns(2))
        assert len(pats) == 1
        assert pats[0].s == ((1, 1), (1, -1))

    def test_n3_count_and_first(self):
        pats = list(dc.enumerate_sign_patterns(3))
        assert len(pats) == 6
        # binary-counter order, +1 before -1: first admissible pattern
        assert pats[0].s == ((1, 1, 1), (1, 1, -1), (1, -1, 1))

    def test_n3_oracle_brute_force(self):
        # independent enumeration straight from the constraints
        expected = []
        for bits in itertools.product((1, -1), repeat=4):
            rows = ((1, 1, 1),
                    (1, bits[0], bits[1]),
                    (1, bits[2], bits[3]))
            if len(set(rows)) != 3:
                continue
            cols = tuple(zip(*rows))
            if len(set(cols)) != 3:
                continue
            expected.append(rows)
        got = [p.s for p in dc.enumerate_sign_patterns(3)]
        assert got == expected

    def test_constraints_hold(self):
        for p in dc.enumerate_sign_patterns(4):
            assert all(v == 1 for v in p.s[0])
            assert all(row[0] == 1 for row in p.s)
            assert len(set(p.s)) == 4
            assert len(set(zip(*p.s))) == 4

    def test_deterministic(self):
        a = [p.s for p in dc.enumerate_sign_patterns(4)]
        b = [p.s for p in dc.enumerate_sign_patterns(4)]
        assert a == b

    def test_n5_stream_pinned(self):
        # sha256 of the n=5 stream: each pattern's rows_text lines, then a
        # blank line; fixes the order as well as the set
        h = hashlib.sha256()
        count = 0
        for p in dc.enumerate_sign_patterns(5):
            h.update(("\n".join(p.rows_text()) + "\n\n").encode())
            count += 1
        assert count == 24360
        assert h.hexdigest() == (
            "c51d781456d8eaf6b4e35e62a339824e58664e8275f51f6e10b966d50f1f8fd4")

    def test_cap(self):
        with pytest.raises(DimensionTooLargeError):
            next(dc.enumerate_sign_patterns(7))

    def test_rows_text(self):
        p = SignPattern(n=2, s=((1, 1), (1, -1)))
        assert p.rows_text() == ["++", "+-"]


class TestPatternToW:
    def test_n2(self):
        p = SignPattern(n=2, s=((1, 1), (1, -1)))
        assert pattern_to_w(p).w == ((0, 1), (1, 0))

    def test_n3_hand(self):
        p = SignPattern(n=3, s=((1, 1, 1), (1, 1, -1), (1, -1, 1)))
        assert pattern_to_w(p).w == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_diagonal_zero(self):
        for p in dc.enumerate_sign_patterns(4):
            W = pattern_to_w(p)
            assert all(W[i, i] == 0 for i in range(4))

    def test_matches_descartes_on_products(self):
        from conftest import sign_changes
        for p in dc.enumerate_sign_patterns(3):
            W = pattern_to_w(p)
            for i in range(3):
                for j in range(3):
                    prods = [p.s[i][k] * p.s[j][k] for k in range(3)]
                    assert W[i, j] == sign_changes(prods)


class TestCanonicalization:
    def test_fixed_point_n2(self):
        W = dc.SignChangeMatrix(n=2, w=((0, 1), (1, 0)))
        assert dc.canonicalize_w(W).w == W.w

    def test_idempotent(self):
        W = dc.SignChangeMatrix(n=3, w=((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        once = dc.canonicalize_w(W)
        assert dc.canonicalize_w(once).w == once.w

    @given(st.permutations(list(range(4))), st.integers(0, 100))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_permutation_invariance(self, perm, seed):
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 4, size=(4, 4))
        arr = np.triu(b, 1)
        arr = arr + arr.T
        W = dc.SignChangeMatrix(n=4, w=tuple(map(tuple, arr.tolist())))
        p = np.array(perm)
        permuted = arr[np.ix_(p, p)]
        Wp = dc.SignChangeMatrix(n=4, w=tuple(map(tuple, permuted.tolist())))
        assert dc.canonicalize_w(W).w == dc.canonicalize_w(Wp).w

    def test_canonical_is_orbit_minimum(self):
        arr = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        W = dc.SignChangeMatrix(n=3, w=tuple(map(tuple, arr.tolist())))
        flat = sum(dc.canonicalize_w(W).w, ())
        orbit = []
        for p in itertools.permutations(range(3)):
            pa = np.array(p)
            orbit.append(tuple(arr[np.ix_(pa, pa)].ravel()))
        assert flat == min(orbit)

    @given(st.integers(1, 7), st.sampled_from(["flat", "w", "dn"]),
           st.integers(0, 2**32 - 1))
    @example(7, "flat", 0)
    @example(7, "w", 0)
    @example(7, "dn", 0)
    @example(6, "w", 0)
    @example(1, "flat", 0)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_oracle(self, n, kind, seed):
        # "flat" (all off-diagonal entries equal): every relabeling gives the
        # same key; "w": symmetric with a zero diagonal, entries 0..7; "dn":
        # the W of a random DN matrix of random rank
        rng = np.random.default_rng(seed)
        generic = True
        if kind == "flat":
            arr = np.full((n, n), int(rng.integers(0, 8)))
            np.fill_diagonal(arr, 0)
        elif kind == "w":
            arr = np.triu(rng.integers(0, 8, size=(n, n)), 1)
            arr = arr + arr.T
        else:
            A = dc.random_dn(n, int(rng.integers(1, n + 1)), int(rng.integers(2**31)))
            W = dc.sign_change_matrix(A)
            arr, generic = np.array(W.w, dtype=int), W.generic
        want = _canonical_oracle(arr)
        p = rng.permutation(n)
        for a in (arr, arr[np.ix_(p, p)]):
            W = dc.SignChangeMatrix(n=n, w=tuple(map(tuple, a.tolist())), generic=generic)
            got = dc.canonicalize_w(W)
            assert got.w == want
            assert got.generic is W.generic

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, "reference"])
    def test_classes_and_reference_match_oracle(self, n):
        # each class list entry and each reference class, and a random
        # relabeling of it, against the brute-force canonical form
        ws = dc.known_classes() if n == "reference" else dc.enumerate_w_classes(n)
        rng = np.random.default_rng(len(ws))
        for W in ws:
            arr = np.array(W.w, dtype=int)
            want = _canonical_oracle(arr)
            p = rng.permutation(W.n)
            relabeled = dc.SignChangeMatrix(n=W.n, w=tuple(map(tuple, arr[np.ix_(p, p)].tolist())))
            assert dc.canonicalize_w(W).w == dc.canonicalize_w(relabeled).w == want

    @pytest.mark.parametrize("kind", ["asymmetric", "diagonal", "entry 8", "entry -1",
                                      "non-integer"])
    def test_rejects_what_a_key_cannot_hold(self, kind):
        w = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        if kind == "asymmetric":
            w[0][1] = 3
        elif kind == "diagonal":
            w[1][1] = 1
        elif kind == "non-integer":
            w[0][2] = w[2][0] = 1.5
        else:
            w[0][2] = w[2][0] = int(kind.split()[1])
        W = dc.SignChangeMatrix(n=3, w=tuple(map(tuple, w)))
        with pytest.raises(dc.certify.InvalidWError):
            dc.canonicalize_w(W)

    @pytest.mark.parametrize("w, valid, want", [
        (((0, 2, 2), (2, 0, 1), (2, 1, 0)), False, ((0, 1, 2), (1, 0, 2), (2, 2, 0))),
        (((0,),), True, ((0,),)),
    ], ids=["two entries n-1 in a row", "n=1"])
    @pytest.mark.parametrize("validated", [False, True])
    def test_keys_canonicalize_whatever_their_validation(self, w, valid, want, validated):
        W = dc.SignChangeMatrix(n=len(w), w=w)
        if validated:
            assert dc.validate_sign_change_matrix(W).ok == valid
        assert _canonical_oracle(np.array(w)) == want
        assert dc.canonicalize_w(W).w == want

    @pytest.mark.parametrize("w, valid", [
        (((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0)), True),
        (((1, 1, 2), (1, 0, 1), (2, 1, 0)), False),
        (((0, 8, 2), (8, 0, 1), (2, 1, 0)), False),
        (((1,),), False),
        (((0.0,),), True),
    ], ids=["float entries", "diagonal", "entry 8", "n=1 diagonal", "n=1 float"])
    @pytest.mark.parametrize("validated", [False, True])
    def test_validation_verdict_keeps_the_key_checks(self, w, valid, validated):
        W = dc.SignChangeMatrix(n=len(w), w=w)
        if validated:
            assert dc.validate_sign_change_matrix(W).ok == valid
        with pytest.raises(dc.certify.InvalidWError):
            dc.canonicalize_w(W)

    def test_cap(self):
        W = dc.SignChangeMatrix(n=8, w=tuple(tuple(0 for _ in range(8))
                                             for _ in range(8)))
        with pytest.raises(DimensionTooLargeError):
            dc.canonicalize_w(W)


class TestFlipWords:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_w_is_popcount_of_xored_flip_words(self, n):
        for p in dc.enumerate_sign_patterns(n):
            f = [_flip_word(row) for row in p.s]
            assert f[0] == 0
            popcounts = tuple(tuple(bin(a ^ b).count("1") for b in f) for a in f)
            assert pattern_to_w(p).w == popcounts

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_prefix_parity_accepts_exactly_the_admissible_row_sets(self, n):
        # column k of a row set reads the parity of each word's low k bits
        accepted = set()
        for words in itertools.combinations(range(1, 2 ** (n - 1)), n - 1):
            cols = {tuple(bin(f & ((1 << k) - 1)).count("1") % 2 for f in (0,) + words)
                    for k in range(n)}
            if len(cols) == n:
                accepted.add(words)
        admissible = {tuple(sorted(_flip_word(row) for row in p.s[1:]))
                      for p in dc.enumerate_sign_patterns(n)}
        assert accepted == admissible

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_raw_keys_are_the_w_of_word_sorted_patterns(self, n):
        # each admissible pattern with its rows in increasing flip-word order
        ws = np.array([pattern_to_w(SignPattern(n=n, s=tuple(sorted(p.s, key=_flip_word)))).w
                       for p in dc.enumerate_sign_patterns(n)], dtype=int)
        keys = _raw_w_from_row_sets(n)
        assert keys.dtype == np.uint64
        assert keys.tolist() == sorted(set(_pack_keys(ws).tolist()))


class TestRawKeyChunks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_chunks_match_the_monolithic_stage(self, n):
        chunks = list(_raw_key_chunks(n))
        assert all(c.dtype == np.uint64 for c in chunks)
        expected = _raw_keys_monolithic(n)
        assert np.concatenate(chunks).tolist() == expected.tolist()
        assert _raw_w_from_row_sets(n).tolist() == np.unique(expected).tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_chunk_per_first_word(self, n):
        # chunk a holds the sets whose smallest nonzero word is a; once fewer
        # than n-2 words exceed a, no tail is left and the chunk is empty
        m = n - 1
        sets = list(itertools.combinations(range(1, 2 ** m), m))
        sizes = [len(c) for c in _raw_key_chunks(n)]
        assert len(sizes) == 2 ** m - 1
        assert all(sizes[a - 1] <= sum(1 for s in sets if s[0] == a)
                   for a in range(1, 2 ** m))
        assert all(size == 0 for size in sizes[2 ** m - m:])
        assert sizes[0] > 0

    def test_n6_raw_key_count(self):
        assert len(_raw_w_from_row_sets(6)) == 18903

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_tails_match_itertools(self, n):
        got, expected = _tails(n - 1), _tails_oracle(n)
        assert got.dtype == np.uint8
        assert got.shape == expected.shape  # n=2: one empty tail, shape (1, 0)
        assert np.array_equal(got, expected)

    def test_tails_memory_is_the_result(self):
        # built in uint8 slices; intp parent indices peaked at 183 MB here
        tracemalloc.start()
        try:
            tails = _tails(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tails.nbytes == math.comb(63, 5) * 5
        assert peak <= 1.2 * tails.nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_merges_of_the_pending_chunks(self, n):
        # with no floor the pending chunks merge whenever they outgrow the
        # merged set, as at n=7; the distinct keys do not change
        dedupes = mock.patch("dncrit.enumeration._dedupe", wraps=enumeration._dedupe)
        with mock.patch("dncrit.enumeration._MERGE_FLOOR", 0), dedupes as spy:
            keys = _raw_w_from_row_sets(n)
        assert keys.tolist() == np.unique(_raw_keys_monolithic(n)).tolist()
        chunks = max(1, 2 ** (n - 1) - 1)
        assert spy.call_count >= chunks + 2  # a merge before the final one

    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, 255), min_size=n, max_size=n), min_size=1, max_size=30))))
    @example((7, [[5] * 7, list(range(7)), [0, 255, 0, 255, 128, 127, 1]]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equal_pairs_match_bytewise_comparison(self, drawn):
        n, rows = drawn
        codes = np.array([sum(b << 8 * k for k, b in enumerate(r)) for r in rows],
                         dtype=np.uint64)
        expected = [sum(1 << (8 * k + d - 1) for k in range(n) for d in range(1, n - k)
                        if r[k] == r[k + d]) for r in rows]
        assert _equal_pairs(codes, n).tolist() == expected

    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, 2 ** (n - 1) - 1), min_size=n - 1, max_size=n - 1),
        min_size=1, max_size=30))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_pair_masks_agree_with_the_seen_dup_loop(self, drawn):
        # column codes of the n-1 rows below row 0 (column 0's code is 0), split
        # as the chunk stage splits them: bit 0 of each code from the leading
        # word a, the higher bits from the tail
        n, rows = drawn
        codes = np.array([sum(b << 8 * k for k, b in enumerate([0] + r)) for r in rows],
                         dtype=np.uint64)
        low = np.uint64(sum(1 << 8 * k for k in range(n)))
        kept = (_equal_pairs(codes & low, n) & _equal_pairs(codes & ~low, n)) == 0
        assert kept.tolist() == _columns_distinct_oracle(codes, n).tolist()

    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 2 ** (n - 1) - 1), min_size=k, max_size=k),
                           min_size=1, max_size=30)))))
    @example((7, [[63, 62, 1, 0, 42, 21]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_set_pairs_are_the_and_of_word_pairs(self, drawn):
        # a pair of columns is equal on a set of rows exactly when every row
        # leaves it equal; the word 0 (row 0) leaves every pair equal
        n, rows = drawn
        words = np.array(rows, dtype=np.uint8).reshape(len(rows), -1)
        table = _equal_pairs(_parity_codes(n), n)
        expected = np.full(len(words), table[0])
        for j in range(words.shape[1]):
            expected &= table[words[:, j]]
        assert _set_pairs_oracle(words, n).tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chunks_match_the_code_pass_oracle(self, n):
        chunks = list(_raw_key_chunks(n))
        expected = list(_chunks_oracle(n))
        assert len(chunks) == len(expected) == 2 ** (n - 1) - 1
        for got, want in zip(chunks, expected):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n, counts", [
        (1, (1, 1, 1, 1)), (2, (1, 1, 1, 1)), (3, (3, 3, 2, 1)), (4, (35, 29, 12, 4)),
        (5, (1365, 1015, 275, 22)), (6, (169911, 126651, 18903, 399)),
    ])
    def test_stage_counts(self, n, counts):
        # row sets -> column-distinct sets -> raw keys -> classes
        m = n - 1
        row_sets = math.comb(2 ** m - 1, m)
        if n > 1:  # chunk a visits the tails whose smallest word exceeds a
            smallest = _tails(m).min(axis=1, initial=2 ** m)
            assert sum(int((smallest > a).sum()) for a in range(1, 2 ** m)) == row_sets
        column_distinct = sum(len(chunk) for chunk in _raw_key_chunks(n))
        raw_keys = len(_raw_w_from_row_sets(n))
        classes = len(dc.enumerate_w_classes(n))
        assert (row_sets, column_distinct, raw_keys, classes) == counts

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pattern_count(self, n):
        assert _count_sign_patterns(n) == sum(1 for _ in dc.enumerate_sign_patterns(n))

    def test_pattern_count_n6_and_caps(self):
        assert _count_sign_patterns(6) == 126651 * math.factorial(5)
        with pytest.raises(DimensionTooLargeError):
            _count_sign_patterns(7)
        with pytest.raises(ValueError):
            _count_sign_patterns(0)


class TestPackedKeys:
    @given(w_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_round_trip_and_lexicographic_order(self, pair):
        a, b = pair
        n = a.shape[0]
        ka, kb = _pack_keys(np.stack([a, b]))
        assert np.array_equal(_unpack_keys(ka, n), a)
        assert np.array_equal(_unpack_keys(kb, n), b)
        assert np.array_equal(_unpack_keys(np.array([ka, kb]), n), np.stack([a, b]))
        fa, fb = tuple(a.ravel().tolist()), tuple(b.ravel().tolist())
        assert (ka < kb) == (fa < fb)
        assert (ka == kb) == (fa == fb)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, n - 1), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2), min_size=1, max_size=40))))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sweep_gives_one_canonical_form_per_orbit(self, drawn):
        # the sweep run on an arbitrary raw key set, against brute force
        n, uppers = drawn
        ws = np.stack([_symmetric(n, u) for u in uppers])
        expected = sorted({tuple(_canonical_flat_oracle(w).tolist()) for w in ws})
        keys = np.unique(_pack_keys(ws))
        with mock.patch("dncrit.enumeration._raw_w_from_row_sets", return_value=keys):
            got = [sum(W.w, ()) for W in dc.enumerate_w_classes(n)]
        assert got == expected

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 7), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    @example((7, [7] * 21))  # every field full: the product's largest key
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_key_level_orbit_matches_matrix_orbit(self, drawn):
        # the sweep's orbit product and the gather/OR it replaced, against
        # P W P^T packed in permutation order
        n, upper = drawn
        w = _symmetric(n, upper)
        expected = _pack_keys(np.stack(
            [w[np.ix_(p, p)] for p in itertools.permutations(range(n))]))
        key, shifts = _pack_keys(w[None])[0], _key_shifts(n)
        assert _orbit_gather(key, n).tolist() == expected.tolist()
        got = ((key >> shifts) & np.uint64(7)) @ _orbit_weights(n)
        assert got.dtype == np.uint64
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bucketed_sweep_matches_the_whole_key_sweep(self, n):
        keys = _raw_w_from_row_sets(n)
        got = _pack_keys(np.array([W.w for W in dc.enumerate_w_classes(n)], dtype=np.int8))
        assert got.tolist() == _sweep_oracle(keys, n).tolist()
        if n == 6:  # the docstring's bucket count: the buckets nearly split the classes
            assert len(np.unique(_row_histogram_hash(keys, n))) == 390

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 7), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    @example((7, [7] * 21))
    @example((7, list(range(7)) * 3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_row_histogram_hash_is_constant_on_the_orbit(self, drawn):
        n, upper = drawn
        key = _pack_keys(_symmetric(n, upper)[None])[0]
        orbit = ((key >> _key_shifts(n)) & np.uint64(7)) @ _orbit_weights(n)
        hashes = _row_histogram_hash(orbit, n)
        assert (hashes == hashes[0]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_orbit_weights_table(self, n):
        table = _orbit_weights(n)
        assert table.shape == (n * (n - 1) // 2, math.factorial(n))
        assert table.dtype == np.uint64
        assert not table.flags.writeable
        # each permutation sends the entries to distinct 3-bit fields
        assert (np.bitwise_or.reduce(table, axis=0) == sum(
            1 << int(s) for s in _key_shifts(n))).all()

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.lists(
        st.integers(0, 7), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        min_size=1, max_size=12))))
    @example((7, [[7] * 21]))  # every field full: keys of 2^63 - 1 in every column
    @example((7, [[7] * 21, [0] * 21, list(range(7)) * 3, [7, 0] * 10 + [7]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_orbit_keys_match_the_uint64_product(self, drawn):
        n, rows = drawn
        digits = np.array(rows, dtype=np.uint64).reshape(len(rows), n * (n - 1) // 2)
        expected = digits @ _orbit_weights(n)
        got = _orbit_keys(digits, n)
        assert got.dtype == np.uint64
        assert got.shape == expected.shape
        assert got.tolist() == expected.tolist()
        # one key's digits, as canonicalize_w passes them, in int64
        assert _orbit_keys(digits[0].astype(np.int64), n).tolist() == expected[0].tolist()

    def test_one_float64_product_would_round_at_n7(self):
        digits = np.full((1, 21), 7, dtype=np.uint64)
        exact = digits @ _orbit_weights(7)
        assert (exact == np.uint64(2 ** 63 - 1)).all()
        rounded = digits.astype(np.float64) @ _orbit_weights(7).astype(np.float64)
        assert (rounded == 2.0 ** 63).all()
        assert _orbit_keys(digits, 7).tolist() == exact.tolist()

    def test_key_packing_capped_at_n7(self):
        assert len(_key_shifts(7)) == 21
        with pytest.raises(DimensionTooLargeError):
            _key_shifts(8)
        with pytest.raises(DimensionTooLargeError):
            _orbit_weights(8)
        with pytest.raises(DimensionTooLargeError):
            _unpack_keys(0, 8)

    def test_n1_key_is_zero(self):
        assert _pack_keys(np.zeros((1, 1, 1), dtype=np.int8)).tolist() == [0]
        assert _unpack_keys(0, 1).tolist() == [[0]]


def _sweep_keys(n, **patches):
    """The class enumeration's canonical keys, with ``patches`` applied to
    ``dncrit.enumeration``, and how many orbit products it took."""
    spy = mock.Mock(wraps=_orbit_keys)
    with mock.patch.multiple("dncrit.enumeration", _orbit_keys=spy, **patches):
        classes = dc.enumerate_w_classes(n)
    return _pack_keys(np.array([W.w for W in classes], dtype=np.int8)), spy.call_count


def _one_bucket(keys, n):
    return np.zeros(len(keys), dtype=np.uint64)


class TestSweepRounds:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_bucket_one_class_per_round(self, n):
        # every orbit in one bucket: each round takes one key and finds one class
        got, products = _sweep_keys(n, _row_histogram_hash=_one_bucket)
        assert got.tolist() == _sweep_oracle(_raw_w_from_row_sets(n), n).tolist()
        assert products == len(got)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_blocks_of_one_bucket(self, n):
        keys = _raw_w_from_row_sets(n)
        got, products = _sweep_keys(n, _SWEEP_BLOCK=1)
        assert got.tolist() == _sweep_oracle(keys, n).tolist()
        assert products == len(got)  # one product per block, one class per bucket
        buckets = len(np.unique(_row_histogram_hash(keys, n)))
        assert buckets == {3: 1, 4: 4, 5: 22, 6: 390}[n]
        # by default a block holds 22 orbits of 720 keys at n=6: 18 blocks in
        # the first round, 1 for the 9 classes that share a bucket in the second
        _, products = _sweep_keys(n)
        assert products == {3: 1, 4: 1, 5: 1, 6: 19}[n]

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, n - 1), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2), min_size=1, max_size=40))))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rounds_match_the_sweep_oracle_on_arbitrary_keys(self, drawn):
        n, uppers = drawn
        keys = np.unique(_pack_keys(np.stack([_symmetric(n, u) for u in uppers])))
        expected = _sweep_oracle(keys, n).tolist()
        raw = {"_raw_w_from_row_sets": lambda n: keys.copy()}
        for patches in ({}, {"_row_histogram_hash": _one_bucket}, {"_SWEEP_BLOCK": 1}):
            assert _sweep_keys(n, **raw, **patches)[0].tolist() == expected

    def test_memory_n6(self):
        dc.enumerate_w_classes(6)  # the cached tables
        tracemalloc.start()
        try:
            dc.enumerate_w_classes(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


class TestClassSets:
    def test_n2(self):
        classes = dc.enumerate_w_classes(2)
        assert len(classes) == 1
        assert classes[0].w == ((0, 1), (1, 0))

    def test_n3_single_path_class(self):
        classes = dc.enumerate_w_classes(3)
        assert len(classes) == 1
        path = dc.SignChangeMatrix(n=3, w=((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        assert classes[0].w == dc.canonicalize_w(path).w

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reduction_matches_direct(self, n):
        # oracle: the brute-force canonical form of the W of every ordered
        # pattern, one by one
        raw = {pattern_to_w(p) for p in dc.enumerate_sign_patterns(n)}
        direct = sorted({_canonical_oracle(np.array(w.w, dtype=int)) for w in raw})
        assert [w.w for w in dc.enumerate_w_classes(n)] == direct

    def test_all_classes_validate_and_are_canonical(self, class_sets):
        for n, classes in class_sets.items():
            for W in classes:
                assert dc.validate_sign_change_matrix(W).ok
                assert dc.canonicalize_w(W).w == W.w

    def test_sorted_deterministically(self, class_sets):
        for classes in class_sets.values():
            flats = [tuple(v for row in W.w for v in row) for W in classes]
            assert flats == sorted(flats)

    def test_n5_contains_toeplitz_class(self, class_sets):
        toeplitz = dc.SignChangeMatrix(
            n=5, w=tuple(tuple(abs(i - j) for j in range(5)) for i in range(5)))
        canon = dc.canonicalize_w(toeplitz).w
        assert canon in {W.w for W in class_sets[5]}

    def test_cap(self):
        with pytest.raises(DimensionTooLargeError):
            dc.enumerate_w_classes(8)

    @pytest.mark.parametrize("n, digest", [
        (5, "b5b31f1fc603ae80cf080ce056fa7e19468fe762e0a1c8d892c7891ef32f2260"),
        (6, "4258dc9769702d4cbb3905056f51e32fba8863869b84fd55f411813b27f452ad"),
    ], ids=["n5", "n6"])
    def test_class_list_pinned(self, n, digest):
        # sha256 of the int8 row-major flattenings, stacked in enumeration order
        flats = np.array([W.w for W in dc.enumerate_w_classes(n)], dtype=np.int8)
        assert hashlib.sha256(flats.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, digest", [
        (5, "be0d7a6c28877e1b4e8fb966411a6a4454aa8fbeae538a0c73a92df938e2a76b"),
        (6, "0194011843fbd6db3c9947039b5ad33f50d05cf9ca96adeec81d55d80b2fff18"),
    ], ids=["n5", "n6"])
    def test_entry_bounds_pinned(self, n, digest):
        # sha256 of the float64 per-entry bounds of certify_dimension(n),
        # stacked in class order; inf marks an unbounded entry
        bounds = np.array([c.bounds.bound for c in dc.certify_dimension(n).classes],
                          dtype=np.float64)
        assert hashlib.sha256(bounds.tobytes()).hexdigest() == digest

    def test_sampled_n6_patterns_land_in_enumerated_set(self):
        # oracle: brute-force canonical form of the W of 2,000 seeded
        # admissible n=6 patterns, drawn independently of the row-set path
        allowed = {W.w for W in dc.enumerate_w_classes(6)}
        rng = np.random.default_rng(2024)
        s = np.ones((6, 6), dtype=int)
        checked = 0
        while checked < 2000:
            s[1:, 1:] = rng.choice((1, -1), size=(5, 5))
            rows = tuple(map(tuple, s.tolist()))
            if len(set(rows)) < 6 or len(set(zip(*rows))) < 6:
                continue
            W = pattern_to_w(SignPattern(n=6, s=rows))
            assert _canonical_oracle(np.array(W.w, dtype=int)) in allowed
            checked += 1

    def test_soundness_random_generic(self, class_sets):
        # canonical W of a generic DN matrix lands in the enumerated set
        from conftest import generic_dn
        for n in (3, 4, 5):
            allowed = {W.w for W in class_sets[n]}
            for seed in range(25):
                A = generic_dn(n, seed * 7 + n)
                W = dc.sign_change_matrix(dc.spectral_decompose(A))
                assert dc.canonicalize_w(W).w in allowed


class TestReference:
    def test_reference_is_21_distinct_classes(self):
        ref = dc.known_classes()
        assert len(ref) == 21
        canon = {dc.canonicalize_w(w).w for w in ref}
        assert len(canon) == 21
        for w in ref:
            assert dc.validate_sign_change_matrix(w).ok

    def test_comparison_reports_the_extra_class(self, class_sets):
        cmp = dc.compare_with_reference(class_sets[5])
        assert cmp.num_reference == 21
        assert len(cmp.matched) == 21
        assert not cmp.missing
        assert len(cmp.extra) == 1
        # the surplus class: complete bipartite-ish pattern with a 3-row
        extra = cmp.extra[0].w
        assert extra == ((0, 2, 2, 2, 3), (2, 0, 2, 2, 3), (2, 2, 0, 2, 3),
                         (2, 2, 2, 0, 3), (3, 3, 3, 3, 0))

    def test_no_reference_for_other_dimensions(self):
        # the list is n = 5's alone, so there is no dimension to ask for
        assert not inspect.signature(dc.known_classes).parameters
