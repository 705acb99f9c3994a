"""Foundation tests: parsing, the array protocol, the LAPACK decomposition vs
a high-precision mpmath oracle, real powers, DN checks and irreducibility."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dncrit as dc
from conftest import group_starts_oracle, is_irreducible_oracle, with_spectrum
from dncrit.matcore import (
    EIG_SNAP_TOL,
    MERGE_TOL,
    PSD_TOL,
    ZERO_COORD_TOL,
    MatrixFormatError,
    NegativeEigenvalueError,
    NotSymmetricError,
    ZeroToNegativePowerError,
    _finish_decomposition,
    _group_starts,
    _power_table,
    clamp_psd,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    return sym((b + b.T) / 2)


def _signed_columns_oracle(diag, vecs):
    """The per-column loop the array sign fix-up replaced: the columns in
    non-increasing eigenvalue order, each negated when its first entry past
    ZERO_COORD_TOL times the column's largest magnitude is negative."""
    u = vecs[:, np.argsort(-diag, kind="stable")].copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        big = np.nonzero(np.abs(col) > ZERO_COORD_TOL * np.abs(col).max())[0]
        if big.size and col[big[0]] < 0:
            u[:, k] = -col
    return u


class TestParsing:
    def test_round_trip_exact(self):
        A = sym([[2.0, 1 / 3], [1 / 3, 2.0]])
        B = dc.parse_matrix(dc.format_matrix(A))
        assert (B.entries == A.entries).all()

    def test_comments_and_blanks(self):
        text = "# witness\n\n2\n2 1\n1 2\n"
        A = dc.parse_matrix(text)
        assert A.n == 2 and A.entries[0, 1] == 1.0

    @pytest.mark.parametrize("text", [
        "", "2\n1 2\n", "2\n1 2 3\n3 4 5\n", "x\n1\n", "1\n1 2\n", "2 2\n1 2\n2 1\n",
        "inf\n", "nan\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            dc.parse_matrix(text)

    def test_asymmetry_rejected(self):
        with pytest.raises(NotSymmetricError):
            dc.parse_matrix("2\n0 1\n0 0\n")

    def test_tiny_asymmetry_averaged(self):
        eps = 1e-14
        A = dc.parse_matrix(f"2\n1 {1 + eps}\n1 1\n")
        assert A.entries[0, 1] == A.entries[1, 0]

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_round_trip_random(self, n, seed):
        A = random_symmetric(n, seed)
        B = dc.parse_matrix(dc.format_matrix(A))
        assert (B.entries == A.entries).all()


class TestArrayProtocol:
    def test_copy_false_returns_the_entries(self):
        A = sym([[2.0, 1.0], [1.0, 3.0]])
        got = np.asarray(A, copy=False)
        assert got is A.entries and not got.flags.writeable
        assert np.shares_memory(np.asarray(A, dtype=float, copy=False), A.entries)

    def test_copy_false_with_a_cast_raises(self):
        with pytest.raises(ValueError, match="needs a copy"):
            np.asarray(sym([[2.0, 1.0], [1.0, 3.0]]), dtype=np.float32, copy=False)

    def test_otherwise_a_writable_copy(self):
        A = sym([[2.0, 1.0], [1.0, 3.0]])
        for got in (np.asarray(A), np.array(A), np.array(A, copy=True),
                    np.asarray(A, dtype=np.float32)):
            assert not np.shares_memory(got, A.entries) and got.flags.writeable
            assert (got == A.entries).all()
        assert np.asarray(A, dtype=np.float32).dtype == np.float32


class TestDecomposition:
    def test_hand_2x2(self):
        dec = dc.spectral_decompose(sym([[2, 1], [1, 2]]))
        assert dec.eigenvalues == pytest.approx([3.0, 1.0], rel=1e-12)
        s = 1 / math.sqrt(2)
        assert dec.eigenvectors[:, 0] == pytest.approx([s, s], rel=1e-12)
        assert dec.eigenvectors[:, 1] == pytest.approx([s, -s], rel=1e-12)

    def test_sorted_descending_and_sign_canonical(self):
        for seed in range(30):
            dec = dc.spectral_decompose(random_symmetric(5, seed))
            assert (np.diff(dec.eigenvalues) <= 1e-12).all()
            for k in range(5):
                col = dec.eigenvectors[:, k]
                lead = col[np.abs(col) > ZERO_COORD_TOL * np.abs(col).max()][0]
                assert lead > 0

    def test_against_mpmath_oracle(self):
        with mpmath.workdps(40):
            for seed in range(60):
                n = 2 + seed % 7
                A = random_symmetric(n, seed)
                dec = dc.spectral_decompose(A)
                eigs, _ = mpmath.eigsy(mpmath.matrix(A.entries.tolist()))
                oracle = np.sort([float(v) for v in eigs])[::-1]
                scale = max(1.0, np.abs(oracle).max())
                assert np.abs(dec.eigenvalues - oracle).max() <= 1e-11 * scale

    def test_reconstruction_and_orthogonality(self):
        for seed in range(40):
            n = 2 + seed % 7
            A = random_symmetric(n, seed + 500)
            dec = dc.spectral_decompose(A)
            u, lam = dec.eigenvectors, dec.eigenvalues
            recon = (u * lam) @ u.T
            denom = max(1.0, np.abs(A.entries).max())
            assert np.abs(recon - A.entries).max() <= 1e-10 * denom
            assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-12

    def test_sign_fix_up_matches_loop_oracle(self):
        cases = [np.linalg.eigh(random_symmetric(2 + seed % 7, seed + 900).entries)
                 for seed in range(40)]
        cases += [np.linalg.eigh(a) for a in (np.zeros((3, 3)), np.eye(4), np.ones((5, 5)),
                                              np.diag([3.0, 1.0, 2.0]))]
        # columns of signed zeros, a column of tiny entries, a negative entry
        # at the relative bound ahead of the first one past it, and one just
        # past the bound that the old absolute 1e-8 rule skipped
        vecs = np.array([[-0.0, -1e-9, 0.0, -5e-9, 1e-9, -9.3e-9],
                         [0.0, 2e-9, -0.0, 0.5, -0.0, 0.75],
                         [-0.0, -3e-9, -0.0, -0.5, -0.7, -0.66]])
        cases.append((np.array([1.0, 2.0, 2.0, 0.5, -1.0, 0.25]), vecs))
        flipped = 0
        for diag, vecs in cases:
            want = _signed_columns_oracle(diag, vecs)
            got = _finish_decomposition(diag.copy(), vecs).eigenvectors
            assert got.shape == want.shape and (got == want).all()
            assert (np.signbit(got) == np.signbit(want)).all()
            ordered = vecs[:, np.argsort(-diag, kind="stable")]
            flipped += bool((np.signbit(want) != np.signbit(ordered)).any())
        assert flipped >= 10

    def test_zero_and_diagonal(self):
        dec = dc.spectral_decompose(sym(np.zeros((3, 3))))
        assert (dec.eigenvalues == 0).all()
        dec = dc.spectral_decompose(sym(np.diag([3.0, 1.0, 2.0])))
        assert dec.eigenvalues == pytest.approx([3.0, 2.0, 1.0])

    def test_distinct_eigenvalue_count(self):
        assert _group_starts(np.array([4.0, 2.0 + 1e-12, 2.0, 0.5])).size == 3
        assert _group_starts(np.array([1.0, 1.0, 1.0])).size == 1
        assert _group_starts(np.array([5.0])).size == 1
        # a group's tolerance is MERGE_TOL times its own first value: 2e-9 at 0.2
        assert _group_starts(np.array([0.3, 0.2, 0.2 - 5e-9])).size == 3
        assert _group_starts(np.array([0.3, 0.2, 0.2 - 1e-9])).size == 2
        # two positive values far below MERGE_TOL * lambda_1 are two groups;
        # zero never joins a positive one, and values <= 0 share one group
        assert _group_starts(np.array([3.0, 5e-9, 1e-11])).tolist() == [0, 1, 2]
        assert _group_starts(np.array([3.0, 5e-9, 0.0, -1e-11 * 3.0])).tolist() == [0, 1, 2]
        # values within EIG_SNAP_TOL * max |lam| share a group: eigh's rounding
        assert _group_starts(np.array([3.0, 1e-9, 1e-9 - 2e-13])).tolist() == [0, 1]
        assert _group_starts(np.array([3.0, 1e-9, 1e-9 - 4e-13])).tolist() == [0, 1, 2]
        # max |lam| is |lam_n| when the spectrum's largest magnitude is negative
        assert _group_starts(np.array([1e-9, 1e-9 - 2e-13, -3.0])).tolist() == [0, 2]

    def test_repeated_tiny_eigenvalue_is_one_group(self):
        # eigh returns the double eigenvalue 1e-9 split by about eps * 3,
        # far more than MERGE_TOL * 1e-9 = 1e-17
        for seed in range(20):
            A = with_spectrum([3.0, 1e-9, 1e-9], seed)
            dec = dc.spectral_decompose(A)
            assert dec.group_starts.tolist() == [0, 1] and not dec.generic
            assert dc.check_dn(A, dec).num_distinct_eigenvalues == 2


@st.composite
def _merge_edge_spectra(draw):
    """Non-increasing spectra, n = 1..8, stepped down at the merge rule's
    edges: exact ties, steps of exactly, just under and just over
    MERGE_TOL times the value stepped from, or EIG_SNAP_TOL * top where that
    is wider (the edge when that value starts its group; chains of such steps span
    more than one tolerance), drops far below top, where the noise edge is
    the wider, drops to zero and small negatives inside the PSD band."""
    n = draw(st.integers(1, 8))
    top = draw(st.sampled_from([0.0, 1e-250, 1e-11, 5e-9, 2.5e-8, 1e-7, 0.3, 1.0, 3.0, 7e5,
                                1e250])
               | st.floats(0.0, 1e6))
    band = PSD_TOL * top
    lam = [top]
    for _ in range(n - 1):
        tol = max(MERGE_TOL * (lam[-1] if lam[-1] > 0.0 else top), EIG_SNAP_TOL * top)
        steps = [0.0, tol, np.nextafter(tol, 0.0), np.nextafter(tol, np.inf), 0.5 * tol,
                 0.999999 * tol, 1.000001 * tol]
        kind = draw(st.sampled_from(["step", "step", "exact", "drop", "tiny", "zero",
                                     "negative"]))
        if kind == "step":
            nxt = lam[-1] - draw(st.sampled_from(steps))
        elif kind == "exact":  # lam[-1] - nxt == tol where a double allows it
            nxt = lam[-1] - tol
            while lam[-1] - nxt > tol:
                nxt = np.nextafter(nxt, np.inf)
            while lam[-1] - nxt < tol:
                nxt = np.nextafter(nxt, -np.inf)
        elif kind == "drop":
            nxt = lam[-1] - draw(st.floats(0.0, top))
        elif kind == "tiny":  # MERGE_TOL * nxt below EIG_SNAP_TOL * top
            nxt = min(lam[-1], top * draw(st.sampled_from([1e-6, 1e-9, 1e-12])))
        elif kind == "zero":
            nxt = min(lam[-1], 0.0)
        else:
            nxt = lam[-1] - band * draw(st.floats(0.0, 1.0))
        lam.append(max(nxt, -band))
    return np.array(lam)


class TestGroupStarts:
    """``_group_starts`` walks Python floats, reads each group's tolerance
    once, and gives the groups of the loop over NumPy scalars that reads it
    at every step."""

    @given(_merge_edge_spectra())
    @example(np.array([3.0, 5e-9, 1e-11]))
    @example(np.array([3.0, 3.0 - 3e-8, 1e-11, 1e-11 - 1e-19, 0.0, -3e-10]))
    @example(np.array([3.0, 1e-9, 1e-9 - 3e-13, 1e-9 - 6e-13, 0.0]))
    @example(np.array([1e-9, 1e-9 - 2e-13, -3.0]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_scalar_loop(self, lam):
        assert (np.diff(lam) <= 0.0).all()
        got = _group_starts(lam)
        assert got.dtype == np.intp
        assert np.array_equal(got, group_starts_oracle(lam))


class TestPowerTable:
    """``_power_table``'s overflow rule on its error paths: the first t whose
    column is not finite is named, with no RuntimeWarning."""

    BASES = np.array([3.0, 1.0, 0.25])

    @pytest.mark.parametrize("ts, bad", [
        ([1.0, float("nan"), 2.0], "nan"),
        ([0.5, float("inf")], "inf"),
        ([1.0, 646.0, 700.0, 2.0, 647.0], "700.0"),
        ([2.0, float("inf"), float("nan")], "inf"),
        ([-700.0, 1.0], "-700.0"),
    ])
    def test_first_non_finite_t_named(self, ts, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^A\\^t is not finite in float64 at t={bad}$"):
                _power_table(self.BASES, np.array(ts), False)

    def test_inf_on_bases_at_most_one_is_finite(self):
        table = _power_table(np.array([1.0, 0.5, 0.0]), np.array([0.0, np.inf]), True)
        assert table.tolist() == [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]]

    def test_empty_table_of_zero_matrix(self):
        dec = dc.spectral_decompose(sym(np.zeros((3, 3))))
        assert dec.singular and dec.entry_bases.size == 0
        ts = np.linspace(0.0, 5.0, 11)
        assert _power_table(dec.entry_bases, ts, dec.singular).shape == (0, 11)
        with pytest.raises(ZeroToNegativePowerError):
            _power_table(dec.entry_bases, np.array([-1.0]), dec.singular)
        assert dc.matrix_critical_exponent(sym(np.zeros((3, 3)))) == 0.0


class TestPowers:
    def test_sqrt_oracle(self):
        dec = dc.spectral_decompose(sym([[2, 1], [1, 2]]))
        half = dc.fractional_power(dec, 0.5)
        r3 = math.sqrt(3)
        assert half.entries[0, 0] == pytest.approx((r3 + 1) / 2, rel=1e-12)
        assert half.entries[0, 1] == pytest.approx((r3 - 1) / 2, rel=1e-12)
        assert (half.entries @ half.entries) == pytest.approx(np.array([[2., 1.], [1., 2.]]),
                                                              rel=1e-10)

    def test_integer_powers_match_matmul(self):
        A = sym([[2, 1], [1, 2]])
        sq = dc.matrix_power_t(A, 2.0)
        assert sq.entries == pytest.approx(np.array([[5.0, 4.0], [4.0, 5.0]]), rel=1e-12)

    def test_power_zero_is_identity_even_singular(self):
        A = sym(np.ones((3, 3)))  # rank 1
        out = dc.matrix_power_t(A, 0.0)
        assert out.entries == pytest.approx(np.eye(3), abs=1e-12)

    def test_singular_positive_power(self):
        A = sym(np.ones((3, 3)))
        out = dc.matrix_power_t(A, 2.5)
        # rank-1: A^t = 3^(t-1) * ones
        assert out.entries == pytest.approx(3 ** 1.5 * np.ones((3, 3)), rel=1e-12)

    def test_negative_power_of_singular_raises(self):
        A = sym(np.ones((2, 2)))
        with pytest.raises(ZeroToNegativePowerError):
            dc.matrix_power_t(A, -1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected(self, t):
        dec = dc.spectral_decompose(sym([[2, 1], [1, 2]]))
        with pytest.raises(ValueError, match="finite"):
            dc.fractional_power(dec, t)

    @pytest.mark.parametrize("t", [1e5, -1e5])
    def test_overflowing_power_rejected(self, t):
        # eigenvalues 3 and 1/3: A^t is beyond float64 either way, an error
        # naming t and no overflow warning
        dec = dc.spectral_decompose(sym([[5 / 3, 4 / 3], [4 / 3, 5 / 3]]))
        with pytest.raises(ValueError, match=f"not finite in float64 at t={t!r}"):
            dc.fractional_power(dec, t)

    def test_power_just_below_float64_max(self):
        # 3^646 ~ 1.66e308 is a float64, but twice it is not: the entry comes
        # back finite from the product and the symmetrizing average
        dec = dc.spectral_decompose(sym(np.diag([3.0, 1.0])))
        out = dc.fractional_power(dec, 646.0).entries
        assert out[0, 0] == pytest.approx(3.0 ** 646, rel=1e-12)
        assert np.isfinite(out).all()

    def test_negative_power_invertible(self):
        A = sym([[2, 1], [1, 2]])
        inv = dc.matrix_power_t(A, -1.0)
        assert inv.entries @ A.entries == pytest.approx(np.eye(2), abs=1e-12)

    def test_clamp_rejects_genuine_negative(self):
        with pytest.raises(NegativeEigenvalueError):
            clamp_psd(np.array([2.0, -1e-3]))
        lam = clamp_psd(np.array([2.0, -1e-12]))
        assert lam[1] == 0.0

    @given(st.integers(0, 2000), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_semigroup(self, seed, t, s):
        rng = np.random.default_rng(seed)
        b = rng.uniform(size=(4, 4))
        A = sym(b @ b.T)
        dec = dc.spectral_decompose(A)
        lhs = dc.fractional_power(dec, t).entries @ dc.fractional_power(dec, s).entries
        rhs = dc.fractional_power(dec, t + s).entries
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


class TestDnCheck:
    def test_dn_matrix(self):
        report = dc.check_dn(sym([[2, 1], [1, 2]]))
        assert report.is_dn and report.is_psd and report.is_nonnegative
        assert report.is_invertible and report.is_irreducible
        assert report.num_distinct_eigenvalues == 2

    def test_negative_entry(self):
        report = dc.check_dn(sym([[2, -1], [-1, 2]]))
        assert report.is_psd and not report.is_nonnegative and not report.is_dn

    def test_not_psd(self):
        report = dc.check_dn(sym([[1, 2], [2, 1]]))
        assert report.is_nonnegative and not report.is_psd and not report.is_dn
        assert report.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)

    def test_singular_dn(self):
        report = dc.check_dn(sym(np.ones((3, 3))))
        assert report.is_dn and not report.is_invertible

    def test_negative_eigenvalues_stay_distinct(self):
        report = dc.check_dn(sym(np.diag([1.0, -1.0, -2.0])))
        assert not report.is_psd and not report.is_invertible
        assert report.num_distinct_eigenvalues == 3


class TestGraph:
    def test_irreducible(self):
        assert dc.is_irreducible(sym([[0, 1], [1, 0]]))
        assert not dc.is_irreducible(sym(np.diag([1.0, 2.0])))
        assert dc.is_irreducible(sym([[5.0]]))

    def test_long_path(self):
        # vertex n - 1 is n - 1 edges from vertex 0; cutting one edge splits it
        n = 400
        path = np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        assert dc.is_irreducible(sym(path))
        path[n // 2, n // 2 + 1] = path[n // 2 + 1, n // 2] = 0.0
        assert not dc.is_irreducible(sym(path))

    @given(st.integers(1, 9), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_dfs_oracle(self, n, density, path, seed):
        # a random symmetric zero pattern off the diagonal, signed entries; a
        # path through the vertices in random order, under sparse extra
        # edges, puts vertices up to n - 1 edges away from vertex 0
        rng = np.random.default_rng(seed)
        off = rng.uniform(size=(n, n)) < density
        if path:
            order = rng.permutation(n)
            off[order[:-1], order[1:]] = True
        off = np.triu(off | off.T, 1)
        signed = rng.choice([-1.0, 1.0], size=(n, n)) * rng.uniform(0.5, 2.0, size=(n, n))
        w = np.where(off, signed, 0.0)
        A = sym(w + w.T + np.diag(rng.uniform(size=n)))
        assert dc.is_irreducible(A) == is_irreducible_oracle(A)
