"""Closed-form bounds, entry-bound rules (against an entry-by-entry oracle
and the array form they replaced), and dimension certificates (with the
calls a certificate makes per class)."""

import collections
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncrit as dc
from dncrit import certify, signchange
from dncrit.certify import InvalidWError, k_of_n
from dncrit.signchange import _VALID, SignChangeMatrix


def _entry_bounds_oracle(W):
    """The entry rules applied one entry at a time: the minimum over the
    rules that apply, math.inf when none does."""
    n = W.n
    arr = np.array(W.w, dtype=int)
    row_ok = [bool(arr[i].max(initial=0) <= 4) for i in range(n)]
    row_m = [int((arr[i] > 2).sum()) for i in range(n)]
    bounds = []
    for i in range(n):
        row = []
        for j in range(n):
            w = int(arr[i, j])
            cands = []
            if w <= 1:
                cands.append(0.0)
            if w == 2:
                cands.append(1.0)
            if row_ok[i]:
                cands.append(float(row_m[i] + 1))
            if row_ok[j]:                       # column j mirrors row j: W symmetric
                cands.append(float(row_m[j] + 1))
            row.append(min(cands) if cands else math.inf)
        bounds.append(tuple(row))
    return tuple(bounds)


def _entry_bounds_numpy(W):
    """Oracle: the entry rules as array expressions on ``W.w`` as an array, the
    form the tuple code replaced, behind the same validation."""
    result = dc.validate_sign_change_matrix(W)
    if not result.ok:
        raise InvalidWError("; ".join(result.violations))
    arr = np.array(W.w, dtype=int)
    row = np.where((arr <= 4).all(axis=1), (arr > 2).sum(axis=1) + 1.0, math.inf)
    bound = np.minimum.outer(row, row)
    bound[arr == 2] = 1.0
    bound[arr <= 1] = 0.0
    return tuple(map(tuple, bound.tolist()))


@st.composite
def valid_w(draw):
    """A W that passes structural validation, n = 1..8: symmetric, zero
    diagonal, off-diagonal entries 0..n-2, plus a drawn matching of entry
    pairs raised to the cap n-1 (at most one per row and column)."""
    n = draw(st.integers(1, 8))
    w = np.zeros((n, n), dtype=int)
    iu, ju = np.triu_indices(n, 1)
    upper = draw(st.lists(st.integers(0, max(n - 2, 0)), min_size=len(iu), max_size=len(iu)))
    w[iu, ju] = upper
    order = draw(st.permutations(list(range(n))))
    for k in range(draw(st.integers(0, n // 2))):
        i, j = sorted(order[2 * k:2 * k + 2])
        w[i, j] = n - 1
    w = w + w.T
    return SignChangeMatrix(n=n, w=tuple(map(tuple, w.tolist())), generic=draw(st.booleans()))


@st.composite
def perturbed_w(draw):
    """A drawn valid W with one entry set to a drawn value in -1..n, mirrored
    or not: valid or invalid in every way validation reports."""
    W = draw(valid_w())
    w = [list(r) for r in W.w]
    i, j = draw(st.integers(0, W.n - 1)), draw(st.integers(0, W.n - 1))
    w[i][j] = draw(st.integers(-1, W.n))
    if draw(st.booleans()):
        w[j][i] = w[i][j]
    return SignChangeMatrix(n=W.n, w=tuple(map(tuple, w)), generic=W.generic)


def _w(rows, generic=True):
    return SignChangeMatrix(n=len(rows), w=tuple(map(tuple, rows)), generic=generic)


class TestClosedForms:
    def test_crude_bound_table(self):
        assert [dc.crude_bound(n) for n in range(3, 11)] == [
            1.0, 2.0, 5.0, 7.0, 13.0, 16.0, 25.0, 29.0]

    def test_crude_is_k_plus_one(self):
        for n in range(2, 20):
            assert dc.crude_bound(n) == k_of_n(n) + 1

    def test_k_parity_formulas(self):
        for n in range(2, 20):
            if n % 2:
                assert k_of_n(n) == (n * n - 4 * n + 3) / 2
            else:
                assert k_of_n(n) == (n * n - 5 * n + 6) / 2

    def test_lower_bound(self):
        assert dc.lower_bound(2) == 0.0
        assert dc.lower_bound(3) == 1.0
        assert dc.lower_bound(5) == 3.0

    def test_bounds_meet_at_3_and_4(self):
        assert dc.crude_bound(3) == dc.lower_bound(3) == 1.0
        assert dc.crude_bound(4) == dc.lower_bound(4) == 2.0

    def test_lower_never_exceeds_crude(self):
        for n in range(2, 40):
            assert dc.lower_bound(n) <= dc.crude_bound(n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dc.crude_bound(1)
        with pytest.raises(ValueError):
            dc.lower_bound(1)


class TestEntryBounds:
    def test_path_w(self):
        W = SignChangeMatrix(n=3, w=((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        bounds = dc.entry_bounds_from_w(W)
        assert bounds.bound == ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert bounds.max_bound() == 1.0

    def test_trivial_2x2(self):
        W = SignChangeMatrix(n=2, w=((0, 1), (1, 0)))
        bounds = dc.entry_bounds_from_w(W)
        assert bounds.max_bound() == 0.0

    def test_toeplitz_5(self):
        W = SignChangeMatrix(
            n=5, w=tuple(tuple(abs(i - j) for j in range(5)) for i in range(5)))
        bounds = dc.entry_bounds_from_w(W)
        assert bounds.max_bound() == 3.0
        # corner entry bounded by its row: two entries exceed 2
        assert bounds.bound[0][4] == 3.0
        # (1,4): column 4 has only one entry above 2
        assert bounds.bound[0][3] == 2.0

    def test_unbounded_marker(self):
        # a count of 5 puts a >4 maximum in both its row and its column,
        # so no rule applies to that entry
        w = np.zeros((6, 6), dtype=int)
        w[0, 1] = w[1, 0] = 5
        W = SignChangeMatrix(n=6, w=tuple(map(tuple, w.tolist())))
        bounds = dc.entry_bounds_from_w(W)
        assert bounds.bound[0][1] == math.inf
        assert bounds.num_unbounded() == 2

    def test_zero_iff_w_le_1(self, class_sets):
        for n, classes in class_sets.items():
            for W in classes:
                bounds = dc.entry_bounds_from_w(W)
                for i in range(n):
                    for j in range(n):
                        if W[i, j] <= 1:
                            assert bounds.bound[i][j] == 0.0
                        else:
                            assert bounds.bound[i][j] >= 1.0

    def test_symmetric_result(self, class_sets):
        for W in class_sets[5]:
            arr = np.array(dc.entry_bounds_from_w(W).bound, dtype=float)
            assert (arr == arr.T).all()
            assert (np.diag(arr) == 0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle_on_every_class(self, n):
        for W in dc.enumerate_w_classes(n):
            bound = dc.entry_bounds_from_w(W).bound
            assert bound == _entry_bounds_oracle(W) == _entry_bounds_numpy(W)

    # row 1 holds 1, 2, 3, 4 and 5; row 2's maximum is 4 (passes the <= 4
    # test); row 3's is 5 (fails it)
    @example(_w([[0, 1, 2, 3, 4, 5, 1], [1, 0, 4, 3, 1, 2, 0], [2, 4, 0, 5, 1, 0, 3],
                 [3, 3, 5, 0, 2, 1, 1], [4, 1, 1, 2, 0, 0, 0], [5, 2, 0, 1, 0, 0, 2],
                 [1, 0, 3, 1, 0, 2, 0]]))
    @example(_w([[0, 5, 5, 5, 5, 5, 5], [5, 0, 5, 5, 5, 5, 5], [5, 5, 0, 5, 5, 5, 5],
                 [5, 5, 5, 0, 5, 5, 5], [5, 5, 5, 5, 0, 5, 5], [5, 5, 5, 5, 5, 0, 5],
                 [5, 5, 5, 5, 5, 5, 0]], generic=False))
    @given(valid_w())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_oracle_on_drawn_w(self, W):
        assert dc.validate_sign_change_matrix(W).ok
        bound = dc.entry_bounds_from_w(W).bound
        assert bound == _entry_bounds_oracle(W) == _entry_bounds_numpy(W)
        assert all(type(v) is float for row in bound for v in row)

    @given(perturbed_w())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_numpy_form_or_raises_alike(self, W):
        try:
            expected = _entry_bounds_numpy(W)
        except InvalidWError as exc:
            with pytest.raises(InvalidWError) as got:
                dc.entry_bounds_from_w(W)
            assert str(got.value) == str(exc)
        else:
            assert dc.entry_bounds_from_w(W).bound == expected

    @pytest.mark.parametrize("top, expected", [(4, 3.0), (5, math.inf)],
                             ids=["row-max-4", "row-max-5"])
    def test_row_rule_edge(self, top, expected):
        # entry (1,2) = 3 in rows whose maxima are `top`: only the row rule
        # can bound it, with M = 2 entries above 2
        w = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
        w[0, 1] = w[1, 0] = 3
        w[0, 2] = w[2, 0] = w[1, 3] = w[3, 1] = top
        W = _w(w.tolist(), generic=False)
        bounds = dc.entry_bounds_from_w(W)
        assert bounds.bound[0][1] == bounds.bound[1][0] == expected
        assert bounds.bound == _entry_bounds_oracle(W)

    def test_invalid_w_rejected(self):
        W = SignChangeMatrix(n=2, w=((1, 1), (1, 0)))
        with pytest.raises(InvalidWError):
            dc.entry_bounds_from_w(W)


class TestCertificates:
    def test_n2(self):
        report = dc.certify_dimension(2)
        assert report.certified_upper == 0.0
        assert report.conclusion == "m(2) = 0"

    def test_n3(self):
        report = dc.certify_dimension(3)
        assert report.num_classes == 1
        assert report.certified_upper == 1.0
        assert report.conclusion == "m(3) = 1"

    def test_n4(self):
        report = dc.certify_dimension(4)
        assert report.certified_upper == 2.0
        assert report.conclusion == "m(4) = 2"
        # every 4x4 class row has at most one entry above 2
        for cert in report.classes:
            for row in cert.w.w:
                assert sum(1 for v in row if v > 2) <= 1

    def test_n5(self):
        report = dc.certify_dimension(5)
        assert report.certified_upper == 3.0
        assert report.lower == 3.0
        assert report.conclusion == "m(5) = 3"
        assert report.complete

    def test_bracketing_invariant(self):
        for n in (2, 3, 4, 5):
            report = dc.certify_dimension(n)
            assert report.lower <= report.certified_upper <= report.crude_upper

    def test_json_round_trip(self):
        report = dc.certify_dimension(3)
        data = json.loads(report.to_json())
        assert data["n"] == 3
        assert data["conclusion"] == "m(3) = 1"
        assert data["classes"][0]["max_bound"] == 1.0

    def test_max_bound_computed_once_per_class(self, monkeypatch):
        real = dc.EntryBoundMatrix.max_bound
        calls = []

        def counting(bounds):
            calls.append(bounds)
            return real(bounds)

        monkeypatch.setattr(dc.EntryBoundMatrix, "max_bound", counting)
        report = dc.certify_dimension(6)
        report.to_json_dict()
        assert (report.num_uncertified, report.complete) == (201, False)
        assert len(calls) == report.num_classes == 399
        assert [c.max_bound for c in report.classes] == [real(c.bounds) for c in report.classes]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_classes_are_not_validated_again(self, n):
        # the enumeration validates its classes in one batch; certify still
        # bounds and checks each class once, and no class runs _validate
        with mock.patch.object(signchange, "_validate", wraps=signchange._validate) as check, \
                mock.patch.object(certify, "validate_sign_change_matrix",
                                  wraps=certify.validate_sign_change_matrix) as verdicts, \
                mock.patch.object(certify, "entry_bounds_from_w",
                                  wraps=certify.entry_bounds_from_w) as bounds:
            report = dc.certify_dimension(n)
        assert check.call_count == 0
        assert verdicts.call_count == bounds.call_count == report.num_classes
        assert [c.args for c in bounds.call_args_list] == [(c.w,) for c in report.classes]
        assert [c.args for c in verdicts.call_args_list] == [(c.w,) for c in report.classes]
        assert all(v is _VALID for v in map(dc.validate_sign_change_matrix,
                                            (c.w for c in report.classes)))

    def test_caps(self):
        with pytest.raises(ValueError):
            dc.certify_dimension(1)
        from dncrit.enumeration import DimensionTooLargeError
        with pytest.raises(DimensionTooLargeError):
            dc.certify_dimension(8)


@pytest.mark.slow
class TestDimensionSix:
    def test_n6_incomplete(self):
        report = dc.certify_dimension(6)
        assert report.num_classes == 399
        assert report.num_uncertified == 201
        assert not report.complete
        assert "incomplete" in report.conclusion
        assert "m(6) <= 7" in report.conclusion
        # unbounded classes are exactly those with an entry of 5
        for cert in report.classes:
            has_five = any(v >= 5 for row in cert.w.w for v in row)
            assert cert.certified == (not has_five)


@pytest.mark.slow
class TestDimensionSeven:
    def test_n7_certificate(self):
        # one run of the whole n=7 certificate (about 8-10 s)
        report = dc.certify_dimension(7)
        flats = np.array([c.w.w for c in report.classes], dtype=np.int8)
        assert report.num_classes == len(flats) == 17475
        assert hashlib.sha256(flats.tobytes()).hexdigest() == (
            "45a9e7aea67ce23c0b8e6f527a3a0106f66a10bd624e5a4c6780b21282f26efa")
        assert report.num_uncertified == 16611
        maxima = collections.Counter(c.max_bound for c in report.classes if c.certified)
        assert sorted(maxima.items()) == list(zip(
            range(1, 8), [1, 3, 11, 73, 359, 359, 58]))
        assert "m(7) <= 13" in report.conclusion
