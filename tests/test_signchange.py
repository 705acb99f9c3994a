"""Sign change matrix construction, structural validation, component bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dncrit as dc
from dncrit.signchange import (
    SignChangeMatrix,
    format_sign_change_matrix,
    parse_sign_change_matrix,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def tridiag(n):
    return sym(np.diag([2.0] * n) + np.diag([1.0] * (n - 1), 1)
               + np.diag([1.0] * (n - 1), -1))


class TestConstruction:
    def test_hand_2x2(self):
        W = dc.sign_change_matrix(dc.spectral_decompose(sym([[2, 1], [1, 2]])))
        assert W.w == ((0, 1), (1, 0))
        assert W.generic

    def test_tridiag4_corner(self):
        W = dc.sign_change_matrix(dc.spectral_decompose(tridiag(4)))
        assert W[0, 3] == 3
        assert dc.validate_sign_change_matrix(W).ok

    def test_identity_all_zero_nongeneric(self):
        W = dc.sign_change_matrix(dc.spectral_decompose(sym(np.eye(4))))
        assert W.w == tuple(tuple(0 for _ in range(4)) for _ in range(4))
        assert not W.generic  # repeated eigenvalue

    def test_accepts_matrix_directly(self):
        W = dc.sign_change_matrix(sym([[2, 1], [1, 2]]))
        assert W.w == ((0, 1), (1, 0))

    def test_symmetry_always(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            b = rng.uniform(size=(n, n))
            W = dc.sign_change_matrix(sym(b @ b.T))
            arr = W.as_array()
            assert (arr == arr.T).all()
            assert (np.diag(arr) == 0).all()

    def test_random_generic_dn_validates(self):
        for seed in range(50):
            rng = np.random.default_rng(seed + 1000)
            n = int(rng.integers(2, 7))
            b = rng.uniform(size=(n, n))
            W = dc.sign_change_matrix(sym(b @ b.T))
            result = dc.validate_sign_change_matrix(W)
            assert result.ok, result.violations


def _violations_oracle(W):
    """The structural checks one row and column at a time, in report order."""
    n = W.n
    arr = W.as_array()
    violations = []
    if not (arr == arr.T).all():
        violations.append("not symmetric")
    for i in range(n):
        if arr[i, i] != 0:
            violations.append(f"diagonal entry ({i + 1},{i + 1}) = {arr[i, i]} nonzero")
    if (arr < 0).any():
        violations.append("negative entries present")
    cap = n - 1
    for i in range(n):
        row = arr[i]
        if row.max(initial=0) > cap:
            violations.append(f"row {i + 1} exceeds {cap}")
        if int((row == cap).sum()) > 1 and cap > 0:
            violations.append(f"row {i + 1} has multiple entries equal to {cap}")
    for j in range(n):
        if int((arr[:, j] == cap).sum()) > 1 and cap > 0:
            violations.append(f"column {j + 1} has multiple entries equal to {cap}")
    return tuple(violations)


@st.composite
def near_w(draw):
    """An n x n integer matrix, n = 1..7, entries -1..n, symmetric and with a
    zero diagonal unless drawn otherwise: mostly invalid, sometimes valid."""
    n = draw(st.integers(1, 7))
    lo = draw(st.sampled_from([0, 0, -1]))
    w = np.array(draw(st.lists(st.integers(lo, n), min_size=n * n, max_size=n * n)),
                 dtype=int).reshape(n, n)
    if draw(st.booleans()):
        w = np.triu(w, 1) + np.triu(w, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(w, 0)
    return SignChangeMatrix(n=n, w=tuple(map(tuple, w.tolist())))


class TestValidation:
    @given(near_w())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_messages_match_oracle(self, W):
        result = dc.validate_sign_change_matrix(W)
        assert result.violations == _violations_oracle(W)
        assert result.ok == (not result.violations)

    def test_toeplitz_ok(self):
        w = tuple(tuple(abs(i - j) for j in range(5)) for i in range(5))
        result = dc.validate_sign_change_matrix(SignChangeMatrix(n=5, w=w))
        assert result.ok

    def test_two_maxima_in_row(self):
        w = [[0, 4, 4, 2, 2], [4, 0, 1, 1, 1], [4, 1, 0, 1, 1],
             [2, 1, 1, 0, 1], [2, 1, 1, 1, 0]]
        result = dc.validate_sign_change_matrix(
            SignChangeMatrix(n=5, w=tuple(map(tuple, w))))
        assert not result.ok
        assert any("row 1" in v for v in result.violations)
        assert any("column" in v for v in result.violations)

    def test_nonzero_diagonal(self):
        result = dc.validate_sign_change_matrix(
            SignChangeMatrix(n=2, w=((1, 1), (1, 0))))
        assert not result.ok
        assert any("diagonal" in v for v in result.violations)

    def test_entry_too_large(self):
        result = dc.validate_sign_change_matrix(
            SignChangeMatrix(n=3, w=((0, 3, 1), (3, 0, 1), (1, 1, 0))))
        assert not result.ok

    def test_asymmetric(self):
        result = dc.validate_sign_change_matrix(
            SignChangeMatrix(n=2, w=((0, 1), (0, 0))))
        assert not result.ok
        assert any("symmetric" in v for v in result.violations)


class TestComponentBound:
    @pytest.mark.parametrize("w,expected", [
        (0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3),
    ])
    def test_table(self, w, expected):
        assert dc.component_bound(w) == expected

    @given(st.integers(0, 50))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_monotone_in_w(self, w):
        assert dc.component_bound(w + 1) >= dc.component_bound(w)


class TestSerialization:
    def test_round_trip(self):
        W = SignChangeMatrix(n=3, w=((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        W2 = parse_sign_change_matrix(format_sign_change_matrix(W))
        assert W2.w == W.w and W2.n == 3

    def test_rejects_non_integers(self):
        with pytest.raises(Exception):
            parse_sign_change_matrix("2\n0 1.5\n1.5 0\n")
