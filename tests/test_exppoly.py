"""Entry exponential polynomials: construction, evaluation, sign-change
bounds, and negativity-interval scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dncrit as dc
from dncrit.exppoly import (
    ExpPoly,
    ScanConfig,
    grid_entry_values,
    grid_sign_alternations,
    sign_changes,
)
from dncrit.matcore import ZeroToNegativePowerError


def sym(a):
    return dc.SymMatrix.from_array(a)


def tridiag(n, d=2.0, o=1.0):
    return sym(np.diag([d] * n) + np.diag([o] * (n - 1), 1) + np.diag([o] * (n - 1), -1))


class TestConstruction:
    def test_hand_2x2_offdiag(self):
        dec = dc.spectral_decompose(sym([[2, 1], [1, 2]]))
        f = dc.entry_exppoly(dec, 0, 1)
        assert f.bases == pytest.approx((3.0, 1.0), rel=1e-12)
        assert f.coefficients == pytest.approx((0.5, -0.5), rel=1e-12)
        assert not f.singular

    def test_diagonal_coefficients_nonnegative(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b = rng.uniform(size=(4, 4))
            dec = dc.spectral_decompose(sym(b @ b.T))
            for i in range(4):
                f = dc.entry_exppoly(dec, i, i)
                assert all(c >= -1e-15 for c in f.coefficients)

    def test_identity_merges_to_zero_poly(self):
        dec = dc.spectral_decompose(sym(np.eye(2)))
        f = dc.entry_exppoly(dec, 0, 1)
        assert f.bases == (1.0,)
        assert f.coefficients[0] == pytest.approx(0.0, abs=1e-15)
        assert dc.descartes_bound(f) == 0

    def test_singular_flag_on_rank_deficient(self):
        dec = dc.spectral_decompose(sym(np.ones((3, 3))))
        f = dc.entry_exppoly(dec, 0, 1)
        assert f.singular
        assert f.bases == pytest.approx((3.0,), rel=1e-12)

    def test_index_out_of_range(self):
        dec = dc.spectral_decompose(sym(np.eye(2)))
        with pytest.raises(IndexError):
            dc.entry_exppoly(dec, 0, 2)

    def test_bases_must_decrease(self):
        with pytest.raises(ValueError):
            ExpPoly(bases=(1.0, 2.0), coefficients=(1.0, 1.0))
        with pytest.raises(ValueError):
            ExpPoly(bases=(1.0, 0.0), coefficients=(1.0, 1.0))


class TestEvaluation:
    def test_hand_values(self):
        f = ExpPoly(bases=(3.0, 1.0), coefficients=(0.5, -0.5))
        assert f(1.0) == pytest.approx(1.0)
        assert f(0.0) == pytest.approx(0.0)
        g = ExpPoly(bases=(3.0,), coefficients=(1 / 3,))
        assert g(2.0) == pytest.approx(3.0)

    def test_vectorized_matches_scalar(self):
        f = ExpPoly(bases=(2.0, 0.5), coefficients=(1.0, -2.0))
        ts = np.linspace(-1, 4, 7)
        vals = dc.eval_exppoly(f, ts)
        assert vals == pytest.approx([dc.eval_exppoly(f, t) for t in ts])

    def test_singular_rejects_negative_t(self):
        f = ExpPoly(bases=(2.0,), coefficients=(1.0,), singular=True)
        with pytest.raises(ZeroToNegativePowerError):
            dc.eval_exppoly(f, -0.5)

    def test_consistency_with_fractional_power(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            b = rng.uniform(size=(5, 5))
            A = sym(b @ b.T)
            dec = dc.spectral_decompose(A)
            for t in (0.3, 1.0, 2.7):
                P = dc.fractional_power(dec, t)
                scale = max(1.0, np.abs(P.entries).max())
                for i in range(5):
                    for j in range(5):
                        f = dc.entry_exppoly(dec, i, j)
                        assert abs(f(t) - P.entries[i, j]) <= 1e-9 * scale

    def test_offdiagonal_anchor_at_zero(self):
        # invertible: every off-diagonal entry polynomial vanishes at t=0
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            b = rng.uniform(size=(4, 4))
            A = sym(b @ b.T + np.eye(4) * 0.1)
            dec = dc.spectral_decompose(A)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        assert abs(dc.entry_exppoly(dec, i, j)(0.0)) <= 1e-9

    def test_grid_entry_values_matches_entry_polys(self):
        A = tridiag(4)
        dec = dc.spectral_decompose(A)
        ts = np.array([0.0, 0.5, 1.5, 3.0])
        vals = grid_entry_values(dec, ts)
        for i in range(4):
            for j in range(4):
                f = dc.entry_exppoly(dec, i, j)
                assert vals[i, j] == pytest.approx(dc.eval_exppoly(f, ts), abs=1e-12)


class TestDescartes:
    @pytest.mark.parametrize("coeffs,expected", [
        ((1.0, -2.0, 3.0), 2),
        ((0.5, -0.5), 1),
        ((1.0, 0.0, 1.0), 0),
        ((1.0,), 0),
        ((), 0),
        ((-1.0, 1.0, -1.0, 1.0), 3),
    ])
    def test_sign_changes(self, coeffs, expected):
        assert sign_changes(coeffs) == expected

    def test_descartes_skips_below_cut(self):
        f = ExpPoly(bases=(3.0, 2.0, 1.0), coefficients=(1.0, -1e-14, 1.0),
                    sign_cut=1e-10)
        assert dc.descartes_bound(f) == 0

    def test_J3_entry(self):
        # J3^t = 3^(t-1) J3: single positive term after the zero bases drop
        dec = dc.spectral_decompose(sym(np.ones((3, 3))))
        f = dc.entry_exppoly(dec, 0, 2)
        assert dc.descartes_bound(f) == 0
        assert f(2.0) == pytest.approx(3.0)

    @given(st.lists(st.floats(-5, 5).filter(lambda x: abs(x) > 1e-3),
                    min_size=1, max_size=6),
           st.integers(0, 500))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_grid_alternations_bounded_by_descartes(self, coeffs, seed):
        rng = np.random.default_rng(seed)
        bases = tuple(sorted(rng.uniform(0.1, 5.0, size=len(coeffs)), reverse=True))
        if len(set(bases)) != len(bases):
            return
        f = ExpPoly(bases=bases, coefficients=tuple(coeffs))
        ts = 0.05 * np.arange(1, 201)
        assert grid_sign_alternations(f, ts) <= dc.descartes_bound(f)


class TestScan:
    def test_grid(self):
        cfg = ScanConfig(t_min=0.0, t_max=10.0, step=0.01)
        ts = cfg.grid()
        assert len(ts) == 1001
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(10.0, abs=1e-9)

    @pytest.mark.parametrize("settings_", [
        {"step": 0.0}, {"step": -0.5}, {"step": float("nan")},
        {"t_min": 5.0, "t_max": 1.0}, {"t_max": float("inf")}, {"t_min": float("-inf")},
        {"endpoint_tol": 0.0}, {"endpoint_tol": float("nan")},
        {"entry_tol": -1e-12}, {"entry_tol": float("inf")},
    ])
    def test_settings_without_a_scan_rejected(self, settings_):
        with pytest.raises(ValueError):
            ScanConfig(**settings_)

    def test_single_point_window_and_zero_entry_tol_accepted(self):
        cfg = ScanConfig(t_min=2.0, t_max=2.0, entry_tol=0.0)
        assert cfg.grid().tolist() == [2.0]

    def test_for_matrix_scales_entry_tol(self):
        A = sym([[200.0, 1.0], [1.0, 2.0]])
        cfg = ScanConfig.for_matrix(A)
        assert cfg.entry_tol == pytest.approx(2e-7)

    def test_increasing_positive_poly_no_intervals(self):
        f = ExpPoly(bases=(3.0, 1.0), coefficients=(0.5, -0.5))
        found = dc.negative_intervals(f, ScanConfig(t_min=0.0, t_max=5.0,
                                                    entry_tol=1e-12))
        assert len(found) == 0
        assert dc.entry_critical_exponent(f, ScanConfig(t_min=0.0, t_max=5.0)) == 0.0

    def test_tridiag4_corner_window(self):
        A = tridiag(4)
        dec = dc.spectral_decompose(A)
        f = dc.entry_exppoly(dec, 0, 3)
        scan = ScanConfig(t_min=0.01, t_max=4.0, step=0.01,
                          entry_tol=1e-9 * A.max_abs())
        found = dc.negative_intervals(f, scan)
        assert len(found) == 1
        iv = found.intervals[0]
        assert iv.lo == pytest.approx(1.0, abs=1e-6)
        assert iv.hi == pytest.approx(2.0, abs=1e-6)
        assert not iv.lo_clipped and not iv.hi_clipped
        # value is genuinely negative inside
        assert f(1.5) < 0
        assert dc.entry_critical_exponent(f, scan) == pytest.approx(2.0, abs=1e-6)

    def test_midpoints_negative_and_disjoint(self):
        A = tridiag(6)
        dec = dc.spectral_decompose(A)
        f = dc.entry_exppoly(dec, 0, 5)
        scan = ScanConfig(t_min=0.01, t_max=8.0, step=0.01,
                          entry_tol=1e-9 * A.max_abs())
        found = dc.negative_intervals(f, scan)
        assert len(found) >= 1
        prev_hi = -np.inf
        for iv in found.intervals:
            assert iv.lo < iv.hi
            assert iv.lo >= prev_hi
            prev_hi = iv.hi
            assert f(0.5 * (iv.lo + iv.hi)) < 0

    def test_window_clipping(self):
        A = tridiag(4)
        dec = dc.spectral_decompose(A)
        f = dc.entry_exppoly(dec, 0, 3)
        scan = ScanConfig(t_min=1.2, t_max=1.8, step=0.01,
                          entry_tol=1e-9 * A.max_abs())
        found = dc.negative_intervals(f, scan)
        assert len(found) == 1
        iv = found.intervals[0]
        assert iv.lo == 1.2 and iv.lo_clipped
        assert iv.hi == 1.8 and iv.hi_clipped

    def test_diagonal_entry_never_negative(self):
        A = tridiag(5)
        dec = dc.spectral_decompose(A)
        scan = ScanConfig.for_matrix(A, t_max=12.0)
        for i in range(5):
            f = dc.entry_exppoly(dec, i, i)
            assert len(dc.negative_intervals(f, scan)) == 0

    def test_matrix_critical_exponent(self):
        assert dc.matrix_critical_exponent(tridiag(4)) == pytest.approx(2.0, abs=1e-6)
        assert dc.matrix_critical_exponent(sym([[2, 1], [1, 2]])) == 0.0
