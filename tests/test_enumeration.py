"""Sign-pattern enumeration, W construction from patterns, canonicalization,
and the per-dimension class sets (including cross-validation of the row-set
reduction against canonicalizing every pattern's W)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dncrit as dc
from dncrit.enumeration import DimensionTooLargeError, SignPattern, _canonical_flat


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

    def test_cap(self):
        with pytest.raises(DimensionTooLargeError):
            next(dc.enumerate_sign_patterns(7))

    def test_rows_text(self):
        p = SignPattern(n=2, s=((1, 1), (1, -1)))
        assert p.rows_text() == ["++", "+-"]


class TestPatternToW:
    def test_n2(self):
        p = SignPattern(n=2, s=((1, 1), (1, -1)))
        assert dc.pattern_to_w(p).w == ((0, 1), (1, 0))

    def test_n3_hand(self):
        p = SignPattern(n=3, s=((1, 1, 1), (1, 1, -1), (1, -1, 1)))
        assert dc.pattern_to_w(p).w == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_diagonal_zero(self):
        for p in dc.enumerate_sign_patterns(4):
            W = dc.pattern_to_w(p)
            assert all(W[i, i] == 0 for i in range(4))

    def test_matches_descartes_on_products(self):
        from dncrit.exppoly import sign_changes
        for p in dc.enumerate_sign_patterns(3):
            W = dc.pattern_to_w(p)
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
        flat = _canonical_flat(arr)
        orbit = []
        for p in itertools.permutations(range(3)):
            pa = np.array(p)
            orbit.append(tuple(arr[np.ix_(pa, pa)].ravel()))
        assert tuple(flat) == min(orbit)

    def test_cap(self):
        W = dc.SignChangeMatrix(n=9, w=tuple(tuple(0 for _ in range(9))
                                             for _ in range(9)))
        with pytest.raises(DimensionTooLargeError):
            dc.canonicalize_w(W)


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
        # oracle: canonicalize the W of every ordered pattern one by one
        raw = {dc.pattern_to_w(p) for p in dc.enumerate_sign_patterns(n)}
        direct = sorted({dc.canonicalize_w(w).w for w in raw})
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
            dc.enumerate_w_classes(7)

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
        ref = dc.known_classes(5)
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
        with pytest.raises(ValueError):
            dc.known_classes(4)
