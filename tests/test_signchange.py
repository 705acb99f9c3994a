"""Sign change matrix construction, structural validation, component bound."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncrit as dc
from conftest import validate_sign_change_matrix_oracle
from dncrit import signchange
from dncrit.exppoly import COEFF_ZERO_TOL, descartes_bound, entry_exppoly
from dncrit.signchange import (
    ZERO_COORD_TOL,
    SignChangeMatrix,
    ValidationResult,
    format_sign_change_matrix,
    parse_sign_change_matrix,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def tridiag(n):
    return sym(np.diag([2.0] * n) + np.diag([1.0] * (n - 1), 1)
               + np.diag([1.0] * (n - 1), -1))


def _sign_change_matrix_oracle(dec, zero_tol=COEFF_ZERO_TOL):
    """The n^2 loop that the pair-wise W replaced: one entry polynomial per
    entry, diagonal and lower triangle included, and one eigenvector column
    at a time for the zero-coordinate test."""
    n = dec.n
    coord_ok = True
    for k in range(n):
        col = np.abs(dec.eigenvectors[:, k])
        if col.min() <= ZERO_COORD_TOL * col.max():
            coord_ok = False
            break
    w = tuple(tuple(descartes_bound(entry_exppoly(dec, i, j, zero_tol)) for j in range(n))
              for i in range(n))
    return SignChangeMatrix(n=n, w=w, generic=dec.group_starts.size == n and coord_ok)


@st.composite
def w_sources(draw):
    """A DN matrix, n = 1..8: a Gram matrix of any rank, an irreducible
    tridiagonal matrix, I, J (all ones) or I + J."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gram", "tridiagonal", "I", "J", "I+J"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "gram":
        return dc.random_dn(n, draw(st.integers(1, n)), seed)
    if kind == "tridiagonal" and n > 1:
        return dc.random_tridiagonal_dn(n, np.random.default_rng(seed))
    return sym({"I": np.eye(n), "J": np.ones((n, n))}.get(kind, np.eye(n) + np.ones((n, n))))


class TestPairwiseConstruction:
    @given(w_sources(), st.sampled_from([COEFF_ZERO_TOL, 1e-3, 0.0]))
    @example(tridiag(8), 0.0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_n_squared_oracle(self, A, zero_tol):
        dec = dc.spectral_decompose(A)
        got = dc.sign_change_matrix(dec, zero_tol)
        want = _sign_change_matrix_oracle(dec, zero_tol)
        assert got.n == want.n and got.w == want.w
        assert got.generic == want.generic

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_entry_polynomial_per_pair(self, n):
        dec = dc.spectral_decompose(dc.random_dn(n, n, n))
        with mock.patch.object(signchange, "entry_exppoly", wraps=entry_exppoly) as spy:
            dc.sign_change_matrix(dec)
        assert spy.call_count == n * (n - 1) // 2
        assert all(i < j for (_, i, j, _), _ in spy.call_args_list)


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
            arr = np.array(W.w, dtype=int)
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
    arr = np.array(W.w, dtype=int)
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


def _validate_oracle(W):
    """The validation that the fast path replaced: every array check first,
    then the verdict."""
    arr = np.array(W.w, dtype=int)
    cap = W.n - 1
    at_cap = arr == cap
    diag = np.diagonal(arr)
    over = arr.max(axis=1, initial=0) > cap
    multi_row = at_cap.sum(axis=1) > 1
    multi_col = at_cap.sum(axis=0) > 1
    symmetric = (arr == arr.T).all()
    negative = (arr < 0).any()
    if symmetric and not (diag.any() or negative or over.any() or multi_row.any()
                          or multi_col.any()):
        return ValidationResult(ok=True, violations=())
    return ValidationResult(ok=False, violations=_violations_oracle(W))


@st.composite
def capped_w(draw):
    """A ``near_w`` draw with 2..n entries of one row or one column set to
    the cap n-1, mirrored or not: several caps in one line."""
    W = draw(near_w())
    n = W.n
    w = np.array(W.w)
    if n >= 3:
        line = draw(st.integers(0, n - 1))
        at = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        if draw(st.booleans()):
            w[line, at] = n - 1
        else:
            w[at, line] = n - 1
        if draw(st.booleans()):
            w = np.triu(w, 1) + np.triu(w, 1).T
    return SignChangeMatrix(n=n, w=tuple(map(tuple, w.tolist())))


class TestValidation:
    @given(st.one_of(near_w(), capped_w()))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_messages_match_oracle(self, W):
        result = dc.validate_sign_change_matrix(W)
        assert result.violations == _violations_oracle(W)
        assert result.ok == (not result.violations)
        assert result == _validate_oracle(W) == validate_sign_change_matrix_oracle(W)

    @pytest.mark.parametrize("w", [((0,),), ((1,),), ((-1,),)])
    def test_n1_matches_old_validation(self, w):
        W = SignChangeMatrix(n=1, w=w)
        result = dc.validate_sign_change_matrix(W)
        assert result == _validate_oracle(W)
        assert result.ok == (w == ((0,),))

    def test_valid_w_match_old_validation(self):
        # every enumerated class and reference class is valid, and so is the
        # W of a generic DN matrix
        classes = [W for n in range(1, 7) for W in dc.enumerate_w_classes(n)]
        classes += dc.known_classes(5)
        drawn = [dc.sign_change_matrix(dc.random_dn(n, n, seed))
                 for n in range(1, 8) for seed in range(10)]
        for W in classes + drawn:
            assert dc.validate_sign_change_matrix(W) == _validate_oracle(W) == \
                validate_sign_change_matrix_oracle(W)
        assert all(dc.validate_sign_change_matrix(W).ok for W in classes)

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
