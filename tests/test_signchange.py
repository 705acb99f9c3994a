"""Sign change matrix construction, structural validation (one W at a time
and in one batch), component bound, and the classify pipeline: a pin of its
values and the facts it computes once per decomposition and per W."""

import functools
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncrit as dc
from conftest import (
    generic_oracle,
    policy_corpus,
    scan_corpus,
    spectral_data_draws,
    validate_sign_change_matrix_oracle,
)
from dncrit import matcore, signchange
from dncrit.exppoly import COEFF_ZERO_TOL, ExpPoly, descartes_bound, entry_exppoly
from dncrit.matcore import ZERO_COORD_TOL, _nonzero_coords
from dncrit.signchange import (
    _VALID,
    InvalidWError,
    SignChangeMatrix,
    ValidationResult,
    _checked_stack,
    _validate,
    format_sign_change_matrix,
    parse_sign_change_matrix,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def tridiag(n):
    return sym(np.diag([2.0] * n) + np.diag([1.0] * (n - 1), 1)
               + np.diag([1.0] * (n - 1), -1))


def _sign_change_matrix_oracle(dec, rel_cut):
    """W with one sign cut for every decomposition, as before the cut
    followed from ``generic``: the n^2 loop that the pair-wise W replaced,
    one entry polynomial per entry, diagonal and lower triangle included,
    each built with the explicit sign_cut rel_cut * max|c|, and one
    eigenvector column at a time for the zero-coordinate test."""
    n = dec.n
    coord_ok = True
    for k in range(n):
        col = np.abs(dec.eigenvectors[:, k])
        if col.min() <= ZERO_COORD_TOL * col.max():
            coord_ok = False
            break

    def poly(i, j):
        c = dec.entry_coefficients[i, j]
        return ExpPoly(bases=tuple(dec.entry_bases.tolist()), coefficients=tuple(c.tolist()),
                       singular=dec.singular, sign_cut=rel_cut * float(np.abs(c).max(initial=0.0)))
    w = tuple(tuple(descartes_bound(poly(i, j)) for j in range(n)) for i in range(n))
    return SignChangeMatrix(n=n, w=w, generic=dec.group_starts.size == n and coord_ok)


def _check_against_oracle(dec):
    """W, its generic flag and every pair's sign cut follow the one rule:
    cut 0 on a generic decomposition, COEFF_ZERO_TOL * max|c| on any other.
    Returns (W, the W of the COEFF_ZERO_TOL cut everywhere)."""
    got = dc.sign_change_matrix(dec)
    cut_w = _sign_change_matrix_oracle(dec, COEFF_ZERO_TOL)
    assert got.generic == dec.generic == cut_w.generic
    want = _sign_change_matrix_oracle(dec, 0.0) if dec.generic else cut_w
    assert got.n == want.n and got.w == want.w
    for i in range(dec.n):
        for j in range(i + 1, dec.n):
            f = entry_exppoly(dec, i, j)
            assert got[i, j] == descartes_bound(f)
            cmax = max(map(abs, f.coefficients), default=0.0)
            assert f.sign_cut == (0.0 if dec.generic else COEFF_ZERO_TOL * cmax)
    return got, cut_w


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
    @given(w_sources())
    @example(tridiag(8))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_n_squared_oracle(self, A):
        _check_against_oracle(dc.spectral_decompose(A))

    def test_one_sign_rule_on_policy_and_scan_corpora(self):
        # on these corpora the rule moves no W: the cut-everywhere W is the W
        generic = 0
        decs = [dc.spectral_decompose(A) for A in policy_corpus()]
        decs += [dc.spectral_decompose(A) for _, A in scan_corpus()]
        for dec in decs:
            got, cut_w = _check_against_oracle(dec)
            assert got.w == cut_w.w
            assert dec.generic == generic_oracle(dec)
            generic += dec.generic
        assert 100 <= generic <= len(decs) - 100

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_entry_polynomial_per_pair(self, n):
        dec = dc.spectral_decompose(dc.random_dn(n, n, n))
        with mock.patch.object(signchange, "entry_exppoly", wraps=entry_exppoly) as spy:
            dc.sign_change_matrix(dec)
        assert spy.call_count == n * (n - 1) // 2
        assert all(i < j for (_, i, j), _ in spy.call_args_list)


# Draw 558 of ``spectral_data_draws(6, 600)``, at 17 digits: generic, but
# entry (2, 4)'s third coefficient, 6.05e-12 from coordinates near 1e-6, lies
# below COEFF_ZERO_TOL * max|c|, and the W that skips it is in no n=6 class.
DRAW_558 = (
    (1.1098342277305495, 1.0167861769965421, 0, 0, 0, 0),
    (1.0167861769965421, 1.3572704668535676, 1.1118154225875228, 0, 0, 0),
    (0, 1.1118154225875228, 4.0026669064192006, 0.37459953512193517, 0, 0),
    (0, 0, 0.37459953512193517, 0.59580403388780945, 0.1257381969169058, 0),
    (0, 0, 0, 0.1257381969169058, 0.0368473112083742, 9.6884388701395319e-05),
    (0, 0, 0, 0, 9.6884388701395319e-05, 1.4702536135988187),
)

# draw k = 236 of ``weakly_coupled_draws``: a generic matrix whose row 1 holds
# a coordinate of -9.3e-9 in a column whose largest is 0.75, which an
# absolute 1e-8 sign rule skipped, leaving row 1 of sign(U) with a -
DRAW_236 = (
    (2.1875282949338648, 1.09229259574003, 5.0403271448847728e-07, 5.6879224976724414e-07),
    (1.09229259574003, 0.89512010198459513, 3.5877966052182372e-07, 3.9591270487627228e-07),
    (5.0403271448847728e-07, 3.5877966052182372e-07, 1.1406652223015301, 1.2631822198716929),
    (5.6879224976724414e-07, 3.9591270487627228e-07, 1.2631822198716929, 1.4396329876875362),
)


def weakly_coupled_draws():
    """2,000 seeded DN matrices, k = 0..1999 from one default_rng(5):
    n = 3 + k % 5, eps = 10^U(-12, -6), B = G G^T with G uniform on [0, 1]
    of size n x n, and both off-diagonal blocks of the split at n // 2
    scaled by eps (a convex mix of B and its block diagonal, so DN)."""
    rng = np.random.default_rng(5)
    for k in range(2000):
        n = 3 + k % 5
        eps = 10.0 ** rng.uniform(-12.0, -6.0)
        g = rng.uniform(0.0, 1.0, size=(n, n))
        b = g @ g.T
        b[:n // 2, n // 2:] *= eps
        b[n // 2:, :n // 2] *= eps
        yield sym(b)


@functools.cache
def _enumerated_patterns(n):
    return frozenset(p.s for p in dc.enumerate_sign_patterns(n))


def _check_enumerated_pattern(dec):
    """sign(U) of a generic invertible DN decomposition is in the
    enumeration's normal form, and its flip words give the library's W."""
    n = dec.n
    s = np.where(dec.eigenvectors > 0.0, 1, -1)
    assert (s[0] == 1).all() and (s[:, 0] == 1).all()
    rows = tuple(map(tuple, s.tolist()))
    assert len(set(rows)) == n and len(set(zip(*rows))) == n
    if n <= 5:
        assert rows in _enumerated_patterns(n)
    flips = [sum(1 << k for k in range(n - 1) if r[k] != r[k + 1]) for r in rows]
    w = tuple(tuple((fi ^ fj).bit_count() for fj in flips) for fi in flips)
    assert dc.sign_change_matrix(dec).w == w


class TestGenericW:
    """A generic invertible DN matrix's W is its sign pattern's W, so its
    canonical form is an enumerated class (see the module docstring)."""

    def test_draw_558_lands_in_a_class(self):
        dec = dc.spectral_decompose(sym(DRAW_558))
        W = dc.sign_change_matrix(dec)
        assert dec.generic and W.generic
        assert W[1, 3] == 4 and _sign_change_matrix_oracle(dec, COEFF_ZERO_TOL)[1, 3] == 2
        assert dc.canonicalize_w(W) in dc.enumerate_w_classes(6)

    def test_draw_236_row_1_is_positive(self):
        dec = dc.spectral_decompose(sym(DRAW_236))
        assert dec.generic and np.abs(dec.eigenvectors[0]).min() <= 1e-8
        _check_enumerated_pattern(dec)

    @pytest.mark.parametrize("source", ["gram", "tridiagonal", "weakly coupled"])
    def test_sign_pattern_is_enumerated(self, source):
        if source == "weakly coupled":
            draws = weakly_coupled_draws()
        else:
            rng = np.random.default_rng(24)
            draws = (dc.random_dn(n, n, int(rng.integers(2**31))) if source == "gram"
                     else dc.random_tridiagonal_dn(n, rng)
                     for _ in range(200) for n in range(3, 8))
        checked = 0
        for A in draws:
            dec = dc.spectral_decompose(A)
            if dec.generic and dc.check_dn(A, dec=dec).is_invertible:
                _check_enumerated_pattern(dec)
                checked += 1
        assert checked == {"gram": 1000, "tridiagonal": 1000, "weakly coupled": 288}[source]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_spectral_data_corpus_lands_in_classes(self, n):
        classes = frozenset(dc.enumerate_w_classes(n))
        checked = 0
        for A in spectral_data_draws(n, 600):
            dec = dc.spectral_decompose(A)
            W = dc.sign_change_matrix(dec)
            if W.generic and dc.check_dn(A, dec=dec).is_invertible:
                assert dc.canonicalize_w(W) in classes
                checked += 1
        assert checked >= 400


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
def near_w(draw, n=None):
    """An n x n integer matrix, n = 1..7 unless given, entries -1..n,
    symmetric and with a zero diagonal unless drawn otherwise: mostly
    invalid, sometimes valid."""
    n = draw(st.integers(1, 7)) if n is None else n
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
        classes += dc.known_classes()
        drawn = [dc.sign_change_matrix(dc.random_dn(n, n, seed))
                 for n in range(1, 8) for seed in range(10)]
        for W in classes + drawn:
            assert dc.validate_sign_change_matrix(W) == _validate_oracle(W) == \
                validate_sign_change_matrix_oracle(W)
        assert all(dc.validate_sign_change_matrix(W).ok for W in classes)

    @pytest.mark.parametrize("n, w", [
        (3, ((0, 1), (1, 0))),
        (2, ((0, 1, 2), (1, 0, 1), (2, 1, 0))),
        (2, ((0, 1), (1,))),
    ], ids=["fewer rows", "more rows", "ragged"])
    def test_shape_other_than_n_by_n(self, n, w):
        W = SignChangeMatrix(n=n, w=w)
        assert dc.validate_sign_change_matrix(W) == ValidationResult(
            ok=False, violations=(f"W is not {n} x {n}",))
        with pytest.raises(InvalidWError):
            dc.entry_bounds_from_w(W)

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


class TestBatchedValidation:
    """``_checked_stack`` validates a stack of W in one array pass: a W it
    passes keeps the shared ``_VALID``, any other W validates itself on first
    use, so every verdict is ``_validate``'s."""

    @given(st.one_of(near_w(), capped_w()))
    @example(SignChangeMatrix(n=3, w=((0, 1, 2), (1, 0, 1), (2, 1, 0))))  # valid
    @example(SignChangeMatrix(n=3, w=((0, 1, 2), (0, 0, 1), (2, 1, 0))))  # asymmetric
    @example(SignChangeMatrix(n=3, w=((0, 1, 1), (1, 1, 1), (1, 1, 0))))  # diagonal
    @example(SignChangeMatrix(n=3, w=((0, -1, 1), (-1, 0, 1), (1, 1, 0))))  # negative
    @example(SignChangeMatrix(n=3, w=((0, 3, 1), (3, 0, 1), (1, 1, 0))))  # past n-1
    @example(SignChangeMatrix(n=4, w=((0, 3, 3, 1), (3, 0, 1, 1), (3, 1, 0, 1),
                                      (1, 1, 1, 0))))  # two n-1 in a row
    @example(SignChangeMatrix(n=1, w=((0,),)))
    @example(SignChangeMatrix(n=1, w=((1,),)))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_verdict_is_validates(self, W):
        (checked,) = _checked_stack(np.array([W.w]))
        expected = _validate(W.w, W.n)
        assert checked == W and checked.w == W.w
        assert ("_validation" in vars(checked)) == expected.ok
        if expected.ok:
            assert vars(checked)["_validation"] is _VALID
        assert dc.validate_sign_change_matrix(checked) == expected

    @given(st.integers(1, 7).flatmap(lambda n: st.lists(near_w(n), min_size=1, max_size=8)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stack_verdicts_are_per_matrix(self, ws):
        # one batch gives each W its own verdict, in order
        checked = _checked_stack(np.array([W.w for W in ws]))
        assert [W.w for W in checked] == [W.w for W in ws]
        assert ["_validation" in vars(W) for W in checked] == [
            _validate(W.w, W.n).ok for W in ws]
        assert [dc.validate_sign_change_matrix(W) for W in checked] == [
            _validate(W.w, W.n) for W in ws]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_enumerated_classes_come_validated(self, n):
        classes = dc.enumerate_w_classes(n)
        assert all(vars(W)["_validation"] is _VALID for W in classes)
        with mock.patch.object(signchange, "_validate", wraps=signchange._validate) as check:
            assert all(dc.validate_sign_change_matrix(W) is _VALID for W in classes)
        assert check.call_count == 0


def classify_draws(count):
    """The classify benchmark's recipe: n = 3 + k % 4, rank n - 1 on every
    fifth draw and full otherwise, ``random_dn`` seeds from default_rng([0, 2])."""
    rng = np.random.default_rng([0, 2])
    for k in range(count):
        n = 3 + k % 4
        yield dc.random_dn(n, n - 1 if k % 5 == 4 else n, int(rng.integers(2**31)))


def classify_facts(A):
    """One classify op: decompose, W, validate, canonical form, entry
    bounds and the grid tail past the crude bound; what it computes."""
    dec = dc.spectral_decompose(A)
    W = dc.sign_change_matrix(dec)
    checked = dc.validate_sign_change_matrix(W)
    canon = dc.canonicalize_w(W)
    bounds = dc.entry_bounds_from_w(W)
    tail = dc.exppoly.grid_entry_values(dec, dc.crude_bound(A.n) + 0.01 * np.arange(201))
    return dec, W, checked, canon, bounds, tail


class TestOncePerObject:
    """The classify pipeline computes each fact once: one zero-coordinate test
    per decomposition and one structural validation per W, with every value
    as before."""

    def test_classify_pipeline_pinned(self):
        # sha256 over 1,200 classify draws, computed before the decomposition
        # kept its zero-coordinate verdict and W its validation
        digest = hashlib.sha256()
        for A in classify_draws(1200):
            dec, W, checked, canon, bounds, tail = classify_facts(A)
            digest.update(dec.eigenvalues.tobytes())
            digest.update(dec.eigenvectors.tobytes())
            digest.update(repr((dec.generic, W.w, checked, canon.w, bounds.bound)).encode())
            digest.update(tail.tobytes())
        assert digest.hexdigest() == (
            "725e3ee00ffc1ddf0a4911ba0669cc415daac6ffb9ba391bafe41f157234e5f5")

    def test_one_coordinate_test_and_one_validation_per_op(self):
        draws = list(classify_draws(10))
        with mock.patch.object(matcore, "_nonzero_coords", wraps=_nonzero_coords) as coords, \
                mock.patch.object(signchange, "_validate", wraps=signchange._validate) as check:
            for k, A in enumerate(draws, start=1):
                classify_facts(A)
                assert (coords.call_count, check.call_count) == (k, k)

    def test_stored_generic_is_the_rule(self):
        decs = [dc.spectral_decompose(A) for A in policy_corpus()]
        decs += [dc.spectral_decompose(A) for A in weakly_coupled_draws()]
        for dec in decs:
            assert dec.generic == (dec.group_starts.size == dec.n
                                   and bool(_nonzero_coords(dec.eigenvectors).all()))
            # the same decomposition built directly tests its coordinates on first use
            again = dc.SpectralDecomposition(dec.eigenvalues, dec.eigenvectors)
            assert again.generic == dec.generic
        assert 0 < sum(dec.generic for dec in decs) < len(decs)

    def test_validated_w_equals_and_hashes_as_before(self):
        w = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        checked, fresh = SignChangeMatrix(n=3, w=w), SignChangeMatrix(n=3, w=w, generic=False)
        result = dc.validate_sign_change_matrix(checked)
        assert result.ok and dc.validate_sign_change_matrix(checked) is result
        assert checked == fresh and hash(checked) == hash(fresh)
        assert checked in frozenset([fresh]) and fresh in frozenset([checked])
        classes = frozenset(dc.enumerate_w_classes(4))
        for W in classes:
            dc.validate_sign_change_matrix(W)
        assert all(SignChangeMatrix(n=4, w=W.w) in classes for W in classes)

    def test_valid_w_share_one_result_and_invalid_w_keep_their_own(self):
        results = [dc.validate_sign_change_matrix(W) for W in dc.enumerate_w_classes(5)]
        assert all(r is results[0] for r in results) and results[0].ok
        bad = SignChangeMatrix(n=2, w=((1, 1), (1, 0)))
        assert dc.validate_sign_change_matrix(bad) is dc.validate_sign_change_matrix(bad)
        assert not dc.validate_sign_change_matrix(bad).ok


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
