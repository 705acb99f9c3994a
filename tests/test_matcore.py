"""Foundation tests: parsing, the LAPACK decomposition vs a high-precision
mpmath oracle, real powers, DN checks and irreducibility."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dncrit as dc
from dncrit.matcore import (
    MatrixFormatError,
    NegativeEigenvalueError,
    NotSymmetricError,
    ZeroToNegativePowerError,
    clamp_psd,
    count_distinct_eigenvalues,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    return sym((b + b.T) / 2)


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
                lead = col[np.abs(col) > 1e-8][0]
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

    def test_zero_and_diagonal(self):
        dec = dc.spectral_decompose(sym(np.zeros((3, 3))))
        assert (dec.eigenvalues == 0).all()
        dec = dc.spectral_decompose(sym(np.diag([3.0, 1.0, 2.0])))
        assert dec.eigenvalues == pytest.approx([3.0, 2.0, 1.0])

    def test_distinct_eigenvalue_count(self):
        assert count_distinct_eigenvalues(np.array([4.0, 2.0, 2.0 + 1e-12, 0.5])) == 3
        assert count_distinct_eigenvalues(np.array([1.0, 1.0, 1.0])) == 1
        assert count_distinct_eigenvalues(np.array([5.0])) == 1
        # below lambda_1 = 1 the tolerance stays MERGE_TOL, not MERGE_TOL * lambda_1
        assert count_distinct_eigenvalues(np.array([0.3, 0.2, 0.2 - 5e-9])) == 2


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


class TestGraph:
    def test_irreducible(self):
        assert dc.is_irreducible(sym([[0, 1], [1, 0]]))
        assert not dc.is_irreducible(sym(np.diag([1.0, 2.0])))
        assert dc.is_irreducible(sym([[5.0]]))
