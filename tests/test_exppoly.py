"""Entry exponential polynomials: construction, evaluation, sign-change
bounds, and negativity-interval scans."""

import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dncrit as dc
from conftest import (
    _bisect_edge_oracle,
    bisect_edge_matmul_oracle,
    dec_critical_exponent_oracle,
    generic_oracle,
    grid_sign_alternations,
    matrix_critical_exponent_oracle,
    negative_intervals_oracle,
    policy_corpus,
    random_three_eigenvalue,
    scan_corpus,
    sign_changes,
    sign_cut_oracle,
    two_tiny_positive,
    with_spectrum,
    zero_beside_tiny,
)
from dncrit.experiments import TooManyEigenvaluesError
from dncrit.exppoly import (
    ExpPoly,
    NegativeInterval,
    ScanConfig,
    _bisect_edge,
    _grid_values,
    eval_exppoly,
    grid_entry_values,
)
from dncrit.matcore import (
    EIG_SNAP_TOL,
    MERGE_TOL,
    NegativeEigenvalueError,
    ZeroToNegativePowerError,
    _group_starts,
    clamp_psd,
)


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


def _grid_entry_values_oracle(dec, ts):
    """The einsum ``grid_entry_values`` replaced.  On a grid of at least n
    points its path search forms the products u_ik u_jk first, as the
    library does, and the values must match bit for bit; on a shorter grid
    it multiplied u by the power table first and rounded differently."""
    ts = np.asarray(ts, dtype=float)
    powed = np.power(dec.clamped_eigenvalues[:, None], ts[None, :])
    u = dec.eigenvectors
    return np.einsum("ik,jk,ka->ija", u, u, powed, optimize=True)


def _grid_entry_values_unblocked(dec, ts):
    """The one (n, n, n) @ (n, T) product ``grid_entry_values`` replaced by
    row blocks; every block must give the same floats."""
    powed = np.power(dec.clamped_eigenvalues[:, None], np.asarray(ts, dtype=float))
    u = dec.eigenvectors
    return (u[:, None, :] * u[None, :, :]) @ powed


def _same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, so -0.0 != 0.0."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _probe_corpus():
    """n = 5, 6 DN matrices in the mix of ``search --family mixed``: Gram
    matrices of every rank and irreducible tridiagonal ones, seeded."""
    rng = np.random.default_rng([12, 5])
    out = []
    for k in range(48):
        n = 5 + k % 2
        if k % 4 < 2:
            out.append(dc.random_dn(n, (k // 4) % n + 1, int(rng.integers(2**31))))
        else:
            out.append(dc.random_tridiagonal_dn(n, rng))
    return out


class TestGridValues:
    """The two grid products keep the floats of their slower forms."""

    def test_grid_entry_values_match_einsum_oracle(self):
        ts = np.concatenate([0.01 * np.arange(301), [4.5, 7.25, 10.0]])
        cases = [A for _, A in scan_corpus()] + [
            sym(np.zeros((3, 3))), sym(np.eye(4)), sym(np.ones((5, 5))), sym([[2.0]])]
        singular = repeated = 0
        for A in cases:
            dec = dc.spectral_decompose(A)
            singular += bool(dec.clamped_eigenvalues[-1] == 0.0)
            repeated += dec.group_starts.size < A.n
            assert _same_bits(grid_entry_values(dec, ts), _grid_entry_values_oracle(dec, ts))
            if dec.clamped_eigenvalues[-1] > 0.0:
                neg = np.linspace(-1.5, 0.0, 9)
                assert _same_bits(grid_entry_values(dec, neg),
                                  _grid_entry_values_oracle(dec, neg))
        assert singular >= 20 and repeated >= 20

    def test_grid_entry_values_row_blocks_match_unblocked(self, monkeypatch):
        grids = [np.array([1.5]), 0.5 + 0.75 * np.arange(7), 0.01 * np.arange(301)]
        for n in range(2, 14):
            dec = dc.spectral_decompose(dc.random_dn(n, max(1, n - n % 3), n))
            for ts in grids:
                want = _grid_entry_values_unblocked(dec, ts)
                for rows in range(1, 8):
                    monkeypatch.setattr(dc.matcore, "_GRID_BLOCK", rows * n**2)
                    assert _same_bits(grid_entry_values(dec, ts), want)
                monkeypatch.undo()
                assert _same_bits(grid_entry_values(dec, ts), want)

    def test_grid_entry_values_memory_is_bounded(self):
        # the unblocked product holds n^3 floats: 216 MB at n = 300
        dec = dc.spectral_decompose(dc.random_dn(300, 300, 0))
        dec.clamped_eigenvalues  # cached before tracing: the peak is the product's
        tracemalloc.start()
        try:
            vals = grid_entry_values(dec, [0.5, 1.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (300, 300, 2) and peak <= 40e6

    def test_grid_entry_values_singular_negative_t_raises(self):
        dec = dc.spectral_decompose(dc.random_dn(5, 3, 0))
        with pytest.raises(ZeroToNegativePowerError):
            grid_entry_values(dec, [-0.5, 1.0])
        with pytest.raises(ZeroToNegativePowerError):
            grid_entry_values(dc.spectral_decompose(sym(np.zeros((2, 2)))), [-1.0])

    def test_scan_grid_values_match_eval_exppoly(self):
        # the plain coeffs @ table rounds many values differently; the scan's
        # stacked product must give each entry's eval_exppoly values exactly
        for A in _probe_corpus() + [A for _, A in scan_corpus()]:
            dec = dc.spectral_decompose(A)
            ts = ScanConfig.for_matrix(A).grid()
            iu, ju = np.triu_indices(A.n)
            bases, coeffs = dec.entry_bases, dec.entry_coefficients[iu, ju]
            got = _grid_values(coeffs, np.power(bases[:, None], ts[None, :]))
            want = [dc.eval_exppoly(dc.entry_exppoly(dec, i, j), ts) for i, j in zip(iu, ju)]
            assert _same_bits(got, np.array(want).reshape(got.shape))


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
        iv = found[0]
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
        for iv in found:
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
        iv = found[0]
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

    def test_bisection_stops_below_float_spacing(self):
        # The float spacing near the crossing at t ~ 0.288 is ~5.6e-17, so a
        # bracket can never shrink to 1e-18; the scan must still return, at
        # a bracket of two neighbouring floats.
        f = dc.entry_exppoly(dc.spectral_decompose(dc.random_dn(5, 5, 0)), 0, 4)
        fine = ScanConfig(0.0, 8.0, 0.01, endpoint_tol=1e-18, entry_tol=1e-12)
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, 20.0)
        try:
            found = dc.negative_intervals(f, fine)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        coarse = dc.negative_intervals(f, ScanConfig(0.0, 8.0, 0.01, entry_tol=1e-12))
        assert len(found) == len(coarse) == 1
        assert found[0].hi == pytest.approx(coarse[0].hi, abs=1e-9)
        hi = found[0].hi
        assert f(hi) < 0.0 <= f(np.nextafter(hi, 1.0)) or f(hi) >= 0.0 > f(np.nextafter(hi, 0.0))


def _raise_timeout(signum, frame):
    raise TimeoutError("negative_intervals did not return")


def _entry_exppoly_oracle(dec, i, j):
    """The per-entry merge loop that entry_exppoly replaced: clamp, then merge
    each eigenvalue into the last base while within MERGE_TOL times that base
    or within EIG_SNAP_TOL * lam_1, except that a zero never joins a positive
    base; the cut of ``sign_cut_oracle``."""
    lam = clamp_psd(dec.eigenvalues)
    raw_coeff = dec.eigenvectors[i, :] * dec.eigenvectors[j, :]
    noise = EIG_SNAP_TOL * float(lam[0])
    bases, coeffs = [], []
    for k in range(lam.size):
        if (bases and bases[-1] - lam[k] <= max(MERGE_TOL * bases[-1], noise)
                and not lam[k] <= 0.0 < bases[-1]):
            coeffs[-1] += float(raw_coeff[k])
        else:
            bases.append(float(lam[k]))
            coeffs.append(float(raw_coeff[k]))
    singular = bool(bases and bases[-1] == 0.0)
    if singular:
        bases.pop()
        coeffs.pop()
    cmax = max((abs(c) for c in coeffs), default=0.0)
    return ExpPoly(bases=tuple(bases), coefficients=tuple(coeffs),
                   singular=singular, sign_cut=sign_cut_oracle(dec, cmax))


class TestEigenvaluePolicy:
    def test_matches_per_entry_merge_oracle(self):
        count = 0
        for A in policy_corpus():
            dec = dc.spectral_decompose(A)
            W = dc.sign_change_matrix(dec)
            for i in range(A.n):
                for j in range(A.n):
                    f = dc.entry_exppoly(dec, i, j)
                    g = _entry_exppoly_oracle(dec, i, j)
                    assert f.bases == g.bases and f.singular == g.singular
                    # c_k = u_ik u_jk before merging: a merged group's sum can
                    # cancel far below its terms, and reduceat adds the terms
                    # in another order than the loop
                    cmax = np.abs(dec.eigenvectors[i] * dec.eigenvectors[j]).max()
                    assert np.allclose(f.coefficients, g.coefficients,
                                       rtol=0.0, atol=1e-15 * cmax)
                    assert W[i, j] == dc.descartes_bound(g)
            assert W.generic == dec.generic == generic_oracle(dec)
            count += 1
        assert count == 7 * 6 * 5 + 4 * 6 + 4

    def test_chain_counts_groups_not_links(self):
        # gaps of 1.5e-8 under the group's tolerance MERGE_TOL * 2 = 2e-8: the
        # chain 2, 2-1.5e-8, 2-3e-8 spans more than the tolerance, so it is
        # two groups, not one
        lam = np.array([3.0, 2.0, 2.0 - 1.5e-8, 2.0 - 3e-8, 1.0])
        A = with_spectrum(lam, 7)
        dec = dc.spectral_decompose(A)
        assert _group_starts(lam).size == 4
        assert dec.group_starts.size == 4
        assert dc.check_dn(A).num_distinct_eigenvalues == 4
        assert all(len(dc.entry_exppoly(dec, i, j).bases) == 4
                   for i in range(5) for j in range(5))
        assert not dc.sign_change_matrix(dec).generic
        with pytest.raises(TooManyEigenvaluesError):
            dc.check_three_eigenvalue_theorem(A)

    def test_computed_once_and_read_only(self):
        for A, singular, generic in ((tridiag(4), False, True),
                                     (sym(np.ones((3, 3))), True, False)):
            dec = dc.spectral_decompose(A)
            assert dec.generic is generic and "generic" in vars(dec)
            assert dec.generic is generic  # the cached value, read again
            for name in ("group_starts", "clamped_eigenvalues", "entry_bases",
                         "entry_coefficients"):
                arr = getattr(dec, name)
                assert arr is getattr(dec, name), name
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[...] = 0
            k = dec.entry_bases.size
            assert dec.entry_coefficients.shape == (A.n, A.n, k)
            assert dec.singular is singular
            assert k == dec.group_starts.size - singular

    def test_zero_group_on_scan_corpus(self):
        for label, A in scan_corpus():
            dec = dc.spectral_decompose(A)
            assert dec.singular == bool((dec.clamped_eigenvalues == 0.0).any()), label
            assert dec.entry_bases.size == dec.group_starts.size - dec.singular, label


@st.composite
def _zero_and_tiny_spectra(draw):
    """PSD matrices at n = 3..7 with one zero eigenvalue, one in
    [1e-12, 8e-9] and the others in [0.1, 5], in a random basis."""
    n = draw(st.integers(3, 7))
    seed = draw(st.integers(0, 2**31 - 1))
    tiny = draw(st.floats(1e-12, 8e-9))
    lam = np.sort(np.random.default_rng(seed).uniform(0.1, 5.0, size=n))[::-1]
    lam[-2:] = tiny, 0.0
    return with_spectrum(lam, seed)


class TestZeroGroup:
    """Zero is an eigenvalue group of its own, and every power of an
    eigenvalue, with the t < 0 rule, comes from one table."""

    def test_zero_beside_a_tiny_eigenvalue(self):
        A = zero_beside_tiny()
        dec = dc.spectral_decompose(A)
        assert dec.group_starts.size == 3 and dec.singular
        assert dc.check_dn(A).num_distinct_eigenvalues == 3
        f = dc.entry_exppoly(dec, 0, 1)
        want = dc.fractional_power(dec, 0.01).entries[0, 1]
        assert f(0.01) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-0.0760, abs=1e-4)
        assert dc.empirical_critical_exponent(A) == pytest.approx(0.0201, abs=1e-4)

    def test_two_tiny_positive_eigenvalues_are_two_groups(self):
        # 5e-9 and 1e-11 both lie far below MERGE_TOL * 3; merged into one
        # base, entry (1,3) read 0.2240 at t = 0.05.  `generic` is not
        # asserted: the exact w has a zero coordinate, and eigh returns it
        # just above ZERO_COORD_TOL, so the flag reads eigenvector rounding
        dec = dc.spectral_decompose(two_tiny_positive())
        assert dec.group_starts.tolist() == [0, 1, 2]
        want = grid_entry_values(dec, [0.05])[0, 2, 0]
        assert dc.entry_exppoly(dec, 0, 2)(0.05) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.25820973271973763, abs=1e-12)

    def test_zero_and_negative_share_the_zero_group(self):
        dec = dc.spectral_decompose(with_spectrum([3.0, 5e-9, 0.0, -1e-11 * 3.0], 0))
        assert dec.eigenvalues[-1] < 0.0
        assert dec.group_starts.tolist() == [0, 1, 2] and dec.singular
        assert dec.entry_bases.tolist() == dec.eigenvalues[:2].tolist()

    @given(_zero_and_tiny_spectra())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_entry_polynomials_match_grid_values(self, A):
        dec = dc.spectral_decompose(A)
        ts = np.array([0.01, 0.1, 0.5, 1.0, 2.0])
        vals = grid_entry_values(dec, ts)
        tol = 1e-9 * max(1.0, A.max_abs())
        for i in range(A.n):
            for j in range(A.n):
                got = dc.eval_exppoly(dc.entry_exppoly(dec, i, j), ts)
                assert np.abs(got - vals[i, j]).max() <= tol, (i, j)

    @staticmethod
    def _powering_paths(A, t):
        dec = dc.spectral_decompose(A)
        scan = ScanConfig.for_matrix(A, t_min=t, t_max=1.0)
        return (lambda: dc.fractional_power(dec, t),
                lambda: grid_entry_values(dec, [t, 1.0]),
                lambda: dc.eval_exppoly(dc.entry_exppoly(dec, 0, 1), t),
                lambda: dc.matrix_critical_exponent(A, scan))

    def test_one_rule_for_negative_t(self):
        singular = (zero_beside_tiny(), dc.random_dn(5, 3, 0), sym(np.ones((3, 3))),
                    sym(np.zeros((2, 2))), sym(np.diag([2.0, 1e-12, 0.0])))
        invertible = (zero_beside_tiny().entries + 1e-6 * np.eye(3), tridiag(4),
                      dc.random_dn(5, 5, 0), np.eye(3), np.diag([2.0, 1e-12]))
        for A in singular:
            assert dc.spectral_decompose(A).singular
            for path in self._powering_paths(A, -0.5):
                with pytest.raises(ZeroToNegativePowerError):
                    path()
        for A in map(sym, invertible):
            assert not dc.spectral_decompose(A).singular
            for path in self._powering_paths(A, -0.5):
                path()
        # a zero eigenvalue beside a negative one: the PSD check comes first
        for t in (-0.5, 0.5):
            for path in self._powering_paths(sym(np.diag([1.0, 0.0, -1.0])), t):
                with pytest.raises(NegativeEigenvalueError):
                    path()

    def test_psd_band_edge(self):
        # -1e-11 lies inside the PSD band and is clamped to a zero group;
        # -1e-9 lies below it, and every powering path rejects it
        in_band = sym(np.diag([1.0, -1e-11]))
        dec = dc.spectral_decompose(in_band)
        assert dec.singular
        assert np.array_equal(dc.fractional_power(dec, 0.5).entries, np.diag([1.0, 0.0]))
        for path in self._powering_paths(in_band, -0.5):
            with pytest.raises(ZeroToNegativePowerError):
                path()
        for t in (-0.5, 0.5):
            for path in self._powering_paths(sym(np.diag([1.0, -1e-9])), t):
                with pytest.raises(NegativeEigenvalueError):
                    path()


def _entry_terms_oracle(dec, i, j):
    """The per-entry ``_entry_terms`` the coefficient tensor replaced: bases,
    coefficients (one row per entry when i, j are index arrays) and the
    singular flag, from a fresh reduceat of u_i * u_j over the groups."""
    starts = dec.group_starts
    bases = dec.clamped_eigenvalues[starts]
    coeffs = np.add.reduceat(dec.eigenvectors[i] * dec.eigenvectors[j], starts, axis=-1)
    singular = bool(bases[-1] == 0.0)
    if singular:
        bases, coeffs = bases[:-1], coeffs[..., :-1]
    return bases, coeffs, singular


def _entry_exppoly_terms_oracle(dec, i, j):
    """``entry_exppoly`` as it was before the tensor: one
    ``_entry_terms_oracle`` call and one abs-max per entry, and the cut of
    ``sign_cut_oracle``."""
    bases, coeffs, singular = _entry_terms_oracle(dec, i, j)
    cmax = float(np.abs(coeffs).max(initial=0.0))
    return ExpPoly(bases=tuple(bases.tolist()), coefficients=tuple(coeffs.tolist()),
                   singular=singular, sign_cut=sign_cut_oracle(dec, cmax))


def _same_exppoly(f, g):
    """Equal ExpPoly objects whose floats, sign_cut included, agree bit for bit."""
    return (f == g and _same_bits(f.bases, g.bases)
            and _same_bits(f.coefficients, g.coefficients)
            and _same_bits([f.sign_cut], [g.sign_cut]))


def _significant_coefficients(f):
    """f's coefficients with those at or below its sign_cut replaced by exact
    zeros: what ``descartes_bound`` counts the signs of."""
    return tuple(0.0 if abs(c) <= f.sign_cut else c for c in f.coefficients)


def _check_tensor_against_oracle(dec):
    """Every entry's ExpPoly and Descartes count, and the i <= j rows the
    scan reads, as the per-entry construction gives them."""
    n = dec.n
    for i in range(n):
        for j in range(n):
            f = dc.entry_exppoly(dec, i, j)
            assert _same_exppoly(f, _entry_exppoly_terms_oracle(dec, i, j)), (i, j)
            assert dc.descartes_bound(f) == sign_changes(_significant_coefficients(f))
    iu, ju = np.triu_indices(n)
    bases, coeffs, singular = _entry_terms_oracle(dec, iu, ju)
    assert _same_bits(dec.entry_bases, bases) and dec.singular == singular
    assert _same_bits(dec.entry_coefficients[iu, ju], coeffs)


@st.composite
def _policy_decompositions(draw):
    """n = 1..8: Gram matrices of any rank, tridiagonal DN matrices, and
    spectra with repeated values (zero among them) in a random basis."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gram", "tridiagonal", "repeated"]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "gram" or n == 1:
        A = dc.random_dn(n, draw(st.integers(1, n)), seed)
    elif kind == "tridiagonal":
        A = dc.random_tridiagonal_dn(n, rng)
    else:
        lam = np.sort(rng.choice([0.0, 0.5, 2.0, 3.0], size=n))[::-1]
        A = with_spectrum(lam, seed)
    return dc.spectral_decompose(A)


class TestCoefficientTensor:
    """entry_exppoly and the scan read the decomposition's coefficient tensor
    and give exactly what the per-entry construction gave."""

    def test_matches_per_entry_terms_on_policy_corpus(self):
        # n groups take the products as they are, fewer sum them by reduceat:
        # the corpus reaches both branches
        singular = repeated = singleton = 0
        for A in policy_corpus():
            dec = dc.spectral_decompose(A)
            singular += dec.singular
            repeated += dec.group_starts.size < A.n
            singleton += dec.group_starts.size == A.n
            _check_tensor_against_oracle(dec)
        assert singular >= 40 and repeated >= 40 and singleton >= 40

    @given(_policy_decompositions())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_per_entry_terms_drawn(self, dec):
        _check_tensor_against_oracle(dec)

    def test_edge_matrices(self):
        for A in (sym([[2.0]]), sym([[0.0]]), sym(np.zeros((3, 3))), sym(np.eye(5)),
                  sym(np.eye(4) + np.ones((4, 4))), sym(np.ones((6, 6)))):
            _check_tensor_against_oracle(dc.spectral_decompose(A))


# coefficients that sit exactly at a cut below, or carry no sign
_SIGN_EDGES = (0.0, -0.0, float("nan"), 1e-3, -1e-3, 2.5, -2.5, 5e-324, -5e-324,
               float("inf"), float("-inf"))


def _cut_poly(coeffs, cut):
    """ExpPoly with the given coefficients on decreasing bases and sign_cut."""
    return ExpPoly(bases=tuple(float(len(coeffs) - k) for k in range(len(coeffs))),
                   coefficients=tuple(coeffs), sign_cut=cut)


class TestOnePassDescartes:
    """descartes_bound counts what sign_changes counts on the significant
    coefficients."""

    @pytest.mark.parametrize("coeffs, cut, expected", [
        ((1.0, -1e-3, 1.0), 1e-3, 0),
        ((1.0, -np.nextafter(1e-3, 1.0), 1.0), 1e-3, 2),
        ((1e-3, -1.0, 1e-3), 1e-3, 0),
        ((-0.0, 1.0, 0.0, -1.0, -0.0), 0.0, 1),
        ((1.0, float("nan"), -1.0), 0.0, 1),
        ((1.0, -1.0), float("nan"), 1),
        ((float("inf"), float("-inf")), 1e300, 1),
        ((), 0.0, 0),
    ])
    def test_hand_cases(self, coeffs, cut, expected):
        f = _cut_poly(coeffs, cut)
        assert dc.descartes_bound(f) == expected
        assert sign_changes(_significant_coefficients(f)) == expected

    @given(st.lists(st.one_of(st.sampled_from(_SIGN_EDGES), st.floats()), max_size=8),
           st.sampled_from([0.0, 5e-324, 1e-3, 2.5, -1.0, float("nan"), float("inf")]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_sign_changes_of_significant_coefficients(self, coeffs, cut):
        f = _cut_poly(coeffs, cut)
        assert dc.descartes_bound(f) == sign_changes(_significant_coefficients(f))


class TestScanOracle:
    """negative_intervals and matrix_critical_exponent give exactly the
    floats of the per-grid-point scan in conftest."""

    def test_entry_intervals_match_oracle(self):
        for label, A in scan_corpus():
            dec = dc.spectral_decompose(A)
            scans = (ScanConfig.for_matrix(A, t_max=dc.crude_bound(A.n) + 2.0),
                     ScanConfig.for_matrix(A, t_min=0.73, t_max=3.3, step=0.05))
            for scan in scans:
                for i in range(A.n):
                    for j in range(i, A.n):
                        f = dc.entry_exppoly(dec, i, j)
                        assert dc.negative_intervals(f, scan) == \
                            negative_intervals_oracle(f, scan), (label, i, j, scan)

    @staticmethod
    def _entry_exponent_oracle(f, scan):
        return max((0.0, *(iv.hi for iv in negative_intervals_oracle(f, scan))))

    def test_entry_exponents_match_oracle(self):
        for label, A in scan_corpus():
            dec = dc.spectral_decompose(A)
            scans = (ScanConfig.for_matrix(A, t_max=dc.crude_bound(A.n) + 2.0),
                     ScanConfig.for_matrix(A, t_min=0.73, t_max=3.3, step=0.05))
            for scan in scans:
                for i in range(A.n):
                    for j in range(i, A.n):
                        f = dc.entry_exppoly(dec, i, j)
                        assert dc.entry_critical_exponent(f, scan) == \
                            self._entry_exponent_oracle(f, scan), (label, i, j, scan)

    def test_entry_exponent_edge_cases(self):
        A = tridiag(4)
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 1)
        below = ScanConfig.for_matrix(A, t_min=-2.0, t_max=-0.5)
        with pytest.raises(ValueError, match="lies below t = 0"):
            dc.entry_critical_exponent(f, below)
        straddle = ScanConfig.for_matrix(A, t_min=-2.0, t_max=0.5)
        got = dc.entry_critical_exponent(f, straddle)
        assert got == self._entry_exponent_oracle(f, straddle) == 0.0
        singular = dc.entry_exppoly(dc.spectral_decompose(dc.random_dn(5, 3, 0)), 0, 4)
        assert singular.singular
        with pytest.raises(ZeroToNegativePowerError):
            dc.entry_critical_exponent(singular, straddle)
        scan = ScanConfig.for_matrix(A, t_max=4.0)
        for empty in (ExpPoly((), ()), ExpPoly((), (), singular=True)):
            assert dc.entry_critical_exponent(empty, scan) == \
                self._entry_exponent_oracle(empty, scan) == 0.0

    def test_matrix_exponents_match_oracle(self):
        for label, A in scan_corpus():
            assert dc.matrix_critical_exponent(A) == matrix_critical_exponent_oracle(A), label
            scan = ScanConfig.for_matrix(A, t_max=dc.crude_bound(A.n) + 2.0)
            assert dc.empirical_critical_exponent(A) == \
                matrix_critical_exponent_oracle(A, scan), label

    def test_corpus_has_negative_and_clipped_runs(self):
        # the equality tests above are only worth something if the corpus
        # exercises refined and clipped endpoints
        found = []
        for _, A in scan_corpus():
            dec = dc.spectral_decompose(A)
            scan = ScanConfig.for_matrix(A, t_min=0.73, t_max=3.3, step=0.05)
            for i in range(A.n):
                for j in range(i + 1, A.n):
                    found.extend(dc.negative_intervals(dc.entry_exppoly(dec, i, j), scan))
        assert sum(not iv.lo_clipped and not iv.hi_clipped for iv in found) >= 10
        assert sum(iv.lo_clipped for iv in found) >= 10
        assert sum(iv.hi_clipped for iv in found) >= 10

    def test_witness_reports_match_oracle(self, monkeypatch):
        reports = [dc.tridiagonal_witness(n, seed) for n in range(3, 9) for seed in range(4)]
        cases = [dc.three_eigenvalue_matrix("cycle4"), dc.three_eigenvalue_matrix("cycle5"),
                 random_three_eigenvalue(6, 1)]
        checks = [dc.check_three_eigenvalue_theorem(A) for A in cases]
        monkeypatch.setattr(dc.experiments, "negative_intervals", negative_intervals_oracle)
        monkeypatch.setattr(dc.experiments, "_matrix_critical_exponent",
                            dec_critical_exponent_oracle)
        want = [dc.tridiagonal_witness(n, seed) for n in range(3, 9) for seed in range(4)]
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in want]
        assert all(r.negative_window is not None for r in reports)
        want = [dc.check_three_eigenvalue_theorem(A) for A in cases]
        assert [r.to_json_dict() for r in checks] == [r.to_json_dict() for r in want]

    @pytest.mark.parametrize("t", [0.0, 1.5, 2.0, 3.25])
    def test_single_point_grid(self, t):
        A = tridiag(4)
        scan = ScanConfig(t_min=t, t_max=t, entry_tol=1e-9 * A.max_abs())
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 3)
        assert dc.negative_intervals(f, scan) == negative_intervals_oracle(f, scan)
        assert dc.matrix_critical_exponent(A, scan) == matrix_critical_exponent_oracle(A, scan)
        if t == 1.5:
            assert dc.negative_intervals(f, scan) == (NegativeInterval(1.5, 1.5, True, True),)

    @pytest.mark.parametrize("window", [(1.5, 3.0), (0.5, 1.5), (1.2, 1.8), (1.0, 2.0)])
    def test_window_edge_inside_a_run(self, window):
        A = tridiag(4)
        scan = ScanConfig(t_min=window[0], t_max=window[1], entry_tol=1e-9 * A.max_abs())
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 3)
        found = dc.negative_intervals(f, scan)
        assert found == negative_intervals_oracle(f, scan)
        assert len(found) == 1
        assert dc.matrix_critical_exponent(A, scan) == matrix_critical_exponent_oracle(A, scan)

    def test_never_negative_entries(self):
        A = tridiag(5)
        dec = dc.spectral_decompose(A)
        scan = ScanConfig.for_matrix(A, t_max=12.0)
        for i in range(5):
            f = dc.entry_exppoly(dec, i, i)
            assert dc.negative_intervals(f, scan) == negative_intervals_oracle(f, scan) == ()
        assert dc.negative_intervals(ExpPoly((), ()), scan) == ()
        zero = sym(np.zeros((3, 3)))
        f = dc.entry_exppoly(dc.spectral_decompose(zero), 0, 1)
        assert f.bases == () and f.singular
        assert dc.negative_intervals(f, scan) == negative_intervals_oracle(f, scan) == ()
        assert dc.matrix_critical_exponent(zero) == matrix_critical_exponent_oracle(zero) == 0.0

    def test_negative_window_start(self):
        A = dc.random_dn(4, 4, 3)
        scan = ScanConfig.for_matrix(A, t_min=-1.5, t_max=4.0)
        dec = dc.spectral_decompose(A)
        for i in range(4):
            for j in range(i, 4):
                f = dc.entry_exppoly(dec, i, j)
                assert dc.negative_intervals(f, scan) == negative_intervals_oracle(f, scan)
        assert dc.matrix_critical_exponent(A, scan) == matrix_critical_exponent_oracle(A, scan)

    @staticmethod
    def _entry_max(A, scan):
        dec = dc.spectral_decompose(A)
        return max(dc.entry_critical_exponent(dc.entry_exppoly(dec, i, j), scan)
                   for i in range(A.n) for j in range(i, A.n))

    def test_last_exit_tie(self):
        # two diagonal blocks of one tridiagonal matrix: entries (0, 3) and
        # (4, 7) are negative at the same last grid step, and both get refined
        A = sym(np.kron(np.eye(2), dc.random_tridiagonal_dn(4, np.random.default_rng(3)).entries))
        scan = ScanConfig.for_matrix(A, t_max=dc.crude_bound(A.n) + 2.0)
        vals = grid_entry_values(dc.spectral_decompose(A), scan.grid())[np.triu_indices(8)]
        neg = vals < -scan.entry_tol
        last = np.flatnonzero(neg.any(axis=0))[-1]
        assert last < scan.grid().size - 1
        assert np.flatnonzero(neg[:, last]).tolist() == [3, 29]
        got = dc.matrix_critical_exponent(A, scan)
        assert got == matrix_critical_exponent_oracle(A, scan) == self._entry_max(A, scan)
        assert 1.0 < got < 2.0

    def test_last_exit_clipped(self):
        # the window ends inside the (1, 2) dip of entry (0, 3)
        A = tridiag(4)
        scan = ScanConfig.for_matrix(A, t_max=1.5)
        got = dc.matrix_critical_exponent(A, scan)
        assert got == matrix_critical_exponent_oracle(A, scan) == self._entry_max(A, scan) == 1.5

    @pytest.mark.parametrize("n, want", [(3, 1.0), (4, 1.3)])
    def test_last_exit_off_grid_t_max(self, n, want):
        # grid 0, 0.07, ..., 1.26 stops short of t_max = 1.3: a run through
        # the last grid point ends at t_max, an earlier one is refined
        A = tridiag(n)
        scan = ScanConfig.for_matrix(A, t_max=1.3, step=0.07)
        assert scan.grid()[-1] < scan.t_max
        got = dc.matrix_critical_exponent(A, scan)
        assert got == matrix_critical_exponent_oracle(A, scan) == self._entry_max(A, scan)
        assert got == pytest.approx(want, abs=1e-6)

    def test_singular_matrix_before_zero_raises(self):
        A = dc.random_dn(5, 3, 0)
        scan = ScanConfig.for_matrix(A, t_min=-0.5, t_max=4.0)
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 4)
        assert f.singular
        with pytest.raises(ZeroToNegativePowerError):
            dc.negative_intervals(f, scan)
        with pytest.raises(ZeroToNegativePowerError):
            dc.matrix_critical_exponent(A, scan)
        with pytest.raises(ZeroToNegativePowerError):
            dc.matrix_critical_exponent(sym(np.zeros((2, 2))), scan)


@st.composite
def _bisect_cases(draw):
    """Positive decreasing bases (K = 1..40), a row of a 2-D coefficient
    array, and a bracket of neighbouring points on a grid whose t_min is not 0
    (at 0.005 and step 0.01 a midpoint lands on 0.5).  Half the draws put the
    bases one ulp apart above 1 and make each row sum to about 0: f is then
    rounding noise, and its sign at a midpoint depends on the summation order."""
    noise = draw(st.booleans())
    if noise:
        k = draw(st.integers(2, 40))
        b = 1.0 + np.finfo(float).eps * np.arange(k, 0, -1)
    else:
        logs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40, unique=True))
        b = np.array(sorted(set(np.exp(logs).tolist()), reverse=True))
    rows = draw(st.integers(1, 4))
    coeffs = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=rows * b.size,
                                    max_size=rows * b.size))).reshape(rows, b.size)
    if noise:
        coeffs[:, -1] = -coeffs[:, :-1].sum(axis=1)
    c = coeffs[draw(st.integers(0, rows - 1))]
    t_min = draw(st.sampled_from([0.005, 0.73, -0.995]))
    step = draw(st.sampled_from([0.01, 0.05]))
    a = draw(st.integers(0, int((20.0 - t_min) / step) - 1))
    scan = ScanConfig(t_min=t_min, t_max=t_min + step * (a + 1), step=step)
    ts = scan.grid()
    t_out, t_in = (ts[a], ts[a + 1]) if draw(st.booleans()) else (ts[a + 1], ts[a])
    extra = draw(st.lists(st.floats(min(t_min, 0.0), 20.0), max_size=6))
    return b, c, float(t_out), float(t_in), scan, extra


class TestBisectStep:
    """One bisection step is one np.power into a (K,) buffer and one ddot:
    the same floats as the (1, K) @ (K, 1) matmul of the old step and of
    ``eval_exppoly``."""

    @given(_bisect_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_step_is_bit_exact(self, case):
        b, c, t_out, t_in, scan, extra = case
        f = ExpPoly(tuple(b.tolist()), tuple(c.tolist()))
        got = _bisect_edge(b, c, t_out, t_in, scan)
        assert got == bisect_edge_matmul_oracle(b, c, t_out, t_in, scan)
        assert got == _bisect_edge_oracle(f, t_out, t_in, scan)
        buf = np.empty_like(b)
        for t in (t_out, t_in, 0.5 * (t_out + t_in), got, 0.5, *extra):
            assert c.dot(np.power(b, t, out=buf)) == eval_exppoly(f, t), t

    def test_bracket_around_one_half(self):
        scan = ScanConfig(t_min=0.005, t_max=1.0)
        ts = scan.grid()
        assert 0.5 * (ts[49] + ts[50]) == 0.5   # the first midpoint
        f = dc.entry_exppoly(dc.spectral_decompose(tridiag(4)), 0, 3)
        b, c = np.array(f.bases), np.array(f.coefficients)
        for t_out, t_in in ((ts[49], ts[50]), (ts[50], ts[49])):
            t_out, t_in = float(t_out), float(t_in)
            got = _bisect_edge(b, c, t_out, t_in, scan)
            assert got == bisect_edge_matmul_oracle(b, c, t_out, t_in, scan)
            assert got == _bisect_edge_oracle(f, t_out, t_in, scan)

    @staticmethod
    def _persymmetric(n, seed):
        m = dc.random_dn(n, n, seed).entries
        return sym((m + m[::-1, ::-1]) / 2)

    @pytest.mark.parametrize("n, seed", [(5, 1), (5, 7), (5, 72), (6, 1), (6, 5), (6, 28)])
    def test_last_exit_refines_several_entries(self, n, seed, monkeypatch):
        # a persymmetric matrix has equal entries (i, j) and (n-1-j, n-1-i),
        # so two entries leave their last negative grid point together
        A = self._persymmetric(n, seed)
        calls = []
        bisect = dc.exppoly._bisect_edge

        def spy(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(dc.exppoly, "_bisect_edge", spy)
        got = dc.matrix_critical_exponent(A)
        assert len(calls) >= 2
        assert got == dec_critical_exponent_oracle(dc.spectral_decompose(A),
                                                   ScanConfig.for_matrix(A))
        assert got > 0.0


class TestWindowBelowZero:
    """One rule for both exponents: a window ending below t = 0 raises, and
    a window straddling 0 clamps the answer at 0.0."""

    def test_window_below_zero_raises(self):
        A = tridiag(4)
        scan = ScanConfig.for_matrix(A, t_min=-2.0, t_max=-0.5)
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 1)
        # the entry is negative over the whole window (A^-1 has -0.6 there)
        assert dc.negative_intervals(f, scan) == (NegativeInterval(-2.0, -0.5, True, True),)
        with pytest.raises(ValueError, match=r"\[-2\.0, -0\.5\]"):
            dc.entry_critical_exponent(f, scan)
        with pytest.raises(ValueError, match=r"\[-2\.0, -0\.5\]"):
            dc.matrix_critical_exponent(A, scan)

    def test_straddling_window_clamps_at_zero(self):
        A = tridiag(4)
        scan = ScanConfig.for_matrix(A, t_min=-2.0, t_max=0.5)
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 1)
        (run,) = dc.negative_intervals(f, scan)
        assert run.lo_clipped and -1e-9 < run.hi < 0.0
        assert dc.entry_critical_exponent(f, scan) == 0.0
        got = dc.matrix_critical_exponent(A, scan)
        assert got == matrix_critical_exponent_oracle(A, scan) == 0.5
        assert got == TestScanOracle._entry_max(A, scan)

    def test_window_ending_at_zero_is_allowed(self):
        A = tridiag(4)
        scan = ScanConfig.for_matrix(A, t_min=-2.0, t_max=0.0)
        f = dc.entry_exppoly(dc.spectral_decompose(A), 0, 1)
        assert dc.entry_critical_exponent(f, scan) == 0.0
        got = dc.matrix_critical_exponent(A, scan)
        assert got == matrix_critical_exponent_oracle(A, scan) == 0.0


class TestOverflowRule:
    """A power beyond float64 raises one ValueError, naming the first t, on
    every powering path, and no overflow warning reaches the caller."""

    # on [[2, 1], [1, 2]], eigenvalue 3: 3^646 is a float64, 3^647 is not
    @pytest.mark.parametrize("path, t", [
        ("eval_exppoly", 1000.0), ("grid_entry_values", 1000.0), ("negative_intervals", 647.0)])
    def test_every_path_raises(self, path, t):
        dec = dc.spectral_decompose(sym([[2.0, 1.0], [1.0, 2.0]]))
        f = dc.entry_exppoly(dec, 0, 1)
        call = {"eval_exppoly": lambda: dc.eval_exppoly(f, 1000.0),
                "grid_entry_values": lambda: grid_entry_values(dec, [1000.0]),
                "negative_intervals": lambda: dc.negative_intervals(
                    f, ScanConfig(t_max=1000.0, step=1.0))}[path]
        with pytest.raises(ValueError, match=f"^A\\^t is not finite in float64 at t={t!r}$"):
            call()

    def test_scaled_matrix_exponent_raises(self):
        # scaled by 1e35, lambda_1^t leaves float64 inside the default window
        # t <= 10, so the exponent, 0.759 at scale 1, cannot be read there
        A = dc.random_dn(6, 2, 1)
        assert dc.matrix_critical_exponent(A) == pytest.approx(0.759, abs=1e-3)
        with pytest.raises(ValueError, match="not finite in float64 at t="):
            dc.matrix_critical_exponent(sym(1e35 * A.entries))
