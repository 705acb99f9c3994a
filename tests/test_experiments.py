"""Witness constructions, theorem spot checks, and randomized searches."""

import hashlib
import json

import numpy as np
import pytest

import dncrit as dc
from conftest import random_three_eigenvalue
from dncrit.experiments import (
    BadRankError,
    DimensionTooSmallError,
    RepeatedTopEigenvalueError,
    TooManyEigenvaluesError,
    UnresolvedWitnessError,
    random_tridiagonal_dn,
)
from dncrit.exppoly import DEFAULT_ENDPOINT_TOL, ScanConfig, grid_entry_values
from dncrit.matcore import (
    NotDoublyNonnegativeError,
    NotIrreducibleError,
    NotPrimitiveError,
)


def sym(a):
    return dc.SymMatrix.from_array(a)


def tridiag(n, d=2.0, o=1.0):
    return sym(np.diag([d] * n) + np.diag([o] * (n - 1), 1) + np.diag([o] * (n - 1), -1))


class TestRandomFamilies:
    def test_random_dn_is_dn(self):
        for seed in range(10):
            A = dc.random_dn(5, 3, seed)
            report = dc.check_dn(A)
            assert report.is_dn

    def test_random_dn_deterministic(self):
        A = dc.random_dn(4, 2, 123)
        B = dc.random_dn(4, 2, 123)
        assert (A.entries == B.entries).all()

    def test_random_dn_rank(self):
        A = dc.random_dn(5, 2, 0)
        eigs = dc.spectral_decompose(A).eigenvalues
        assert (eigs[2:] < 1e-10).all()
        assert eigs[1] > 1e-6

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            dc.random_dn(4, 0, 0)
        with pytest.raises(BadRankError):
            dc.random_dn(4, 5, 0)

    def test_tridiagonal_structure(self):
        for seed in range(10):
            A = random_tridiagonal_dn(6, np.random.default_rng(seed))
            a = A.entries
            assert (a[np.abs(np.subtract.outer(range(6), range(6))) > 1] == 0).all()
            assert (np.diag(a, 1) >= 0.5).all() and (np.diag(a, 1) <= 1.5).all()
            report = dc.check_dn(A)
            assert report.is_dn and report.is_invertible and report.is_irreducible

    def test_tridiagonal_diagonally_dominant(self):
        A = random_tridiagonal_dn(5, np.random.default_rng(7))
        a = A.entries
        for i in range(5):
            assert a[i, i] > a[i].sum() - a[i, i]


class TestTridiagonalWitness:
    def test_n4_window(self):
        rep = dc.tridiagonal_witness(4, seed=0)
        assert rep.verified, rep.claims
        lo, hi = rep.negative_window
        assert 1.0 - 1e-6 <= lo and hi <= 2.0 + 1e-6
        assert rep.empirical_critexp == pytest.approx(2.0, abs=1e-6)
        assert rep.min_value < 0
        assert 1.0 < rep.argmin_t < 2.0

    def test_n3_and_n6(self):
        for n in (3, 6):
            rep = dc.tridiagonal_witness(n, seed=5)
            assert rep.verified, (n, rep.claims)
            assert rep.empirical_critexp == pytest.approx(n - 2.0, abs=1e-6)

    def test_seed_determinism(self):
        a = dc.tridiagonal_witness(5, seed=9)
        b = dc.tridiagonal_witness(5, seed=9)
        assert (a.matrix.entries == b.matrix.entries).all()
        assert a.negative_window == b.negative_window

    def test_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            dc.tridiagonal_witness(2, seed=0)

    @pytest.mark.parametrize("n, seed", [(13, 41), (13, 47), (17, 0)])
    def test_unresolved_draws_raise(self, n, seed):
        # (A^q)_{1n} = 0 exactly for q = 1..n-2; float64 misses a zero of
        # these draws by more than entry_tol, so no claim can be decided
        with pytest.raises(UnresolvedWitnessError, match=f"n={n} seed={seed}"):
            dc.tridiagonal_witness(n, seed)

    def test_nan_at_the_zeros_raises(self, monkeypatch):
        real = dc.experiments.eval_exppoly
        monkeypatch.setattr(dc.experiments, "eval_exppoly",
                            lambda f, t: real(f, t) * np.nan)
        with pytest.raises(UnresolvedWitnessError, match="by nan > entry_tol"):
            dc.tridiagonal_witness(4, seed=0)

    def test_scan_grid_holds_the_read_points(self, monkeypatch):
        # the witness reads f(1..n-2) and f(n-2.5) off its scan grid, so the
        # grid must hold them exactly; checked for 0.01 steps from t = 0.
        # The entry is stubbed so that every n resolves: only the scan counts.
        monkeypatch.setattr(dc.experiments, "eval_exppoly",
                            lambda f, t: np.zeros(np.shape(t)))
        monkeypatch.setattr(dc.experiments, "negative_intervals", lambda f, scan: ())
        for n in range(3, 41):
            scan = dc.tridiagonal_witness(n, seed=0).scan
            assert (scan.t_min, scan.step) == (0.0, 0.01)
            read = np.append(np.arange(1.0, n - 1), n - 2.5)
            assert np.isin(read, scan.grid()).all(), n

    def test_reports_pinned(self):
        # sha256 of the reports for n = 3..12 and seeds 0..59, computed while
        # the witness still evaluated its zeros and midpoint on their own
        digest = hashlib.sha256()
        for n in range(3, 13):
            for seed in range(60):
                digest.update(dc.tridiagonal_witness(n, seed).to_json().encode())
        assert digest.hexdigest() == (
            "36c7aff1859adfafacecac436c57cdfcb5c2f59ec9c3a3b0a4634195208f4a53")

    def test_error_type_is_private(self):
        assert issubclass(UnresolvedWitnessError, ValueError)
        assert "UnresolvedWitnessError" not in dc.__all__

    def test_json_fields(self):
        rep = dc.tridiagonal_witness(4, seed=1)
        data = json.loads(rep.to_json())
        assert list(data) == ["matrix", "claims", "scan", "min_value", "argmin_t",
                              "empirical_critexp", "negative_window", "verified"]
        assert list(data["scan"]) == ["t_min", "t_max", "step", "endpoint_tol", "entry_tol"]
        assert data["scan"]["entry_tol"] == rep.scan.entry_tol
        assert data["verified"] is True
        assert len(data["claims"]) == 4
        assert len(data["matrix"]) == 4
        assert data["negative_window"][0] > 1.0 - 1e-6


class TestThreeEigenvalue:
    def test_cycle4_spectrum(self):
        A = dc.three_eigenvalue_matrix("cycle4")
        eigs = dc.spectral_decompose(A).eigenvalues
        assert eigs == pytest.approx([4.0, 2.0, 2.0, 0.0], abs=1e-12)

    def test_cycle5_spectrum(self):
        dec = dc.spectral_decompose(dc.three_eigenvalue_matrix("cycle5"))
        golden = 2.0 + 2.0 * np.cos(2.0 * np.pi / 5.0)
        other = 2.0 + 2.0 * np.cos(4.0 * np.pi / 5.0)
        assert dec.eigenvalues == pytest.approx([4.0, golden, golden, other, other], abs=1e-12)
        assert dec.group_starts.size == 3

    def test_custom_two_distinct(self):
        # ones(3) + I has eigenvalues {4, 1}
        A = dc.three_eigenvalue_matrix("custom", ([np.ones(3)], 1.0))
        eigs = dc.spectral_decompose(A).eigenvalues
        assert eigs == pytest.approx([4.0, 1.0, 1.0], abs=1e-12)

    def test_custom_too_many(self):
        vecs = [np.array([1.0, 0, 0, 0]), np.array([0, 2.0, 0, 0]),
                np.array([0, 0, 3.0, 0])]
        with pytest.raises(TooManyEigenvaluesError):
            dc.three_eigenvalue_matrix("custom", (vecs, 0.5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dc.three_eigenvalue_matrix("cycle6")

    def test_random_construction(self):
        for seed in range(20):
            A = random_three_eigenvalue(5, seed)
            dec = dc.spectral_decompose(A)
            assert dec.group_starts.size <= 3
            assert dc.check_dn(A).is_dn

    def test_theorem_on_cycles(self):
        for kind in ("cycle4", "cycle5"):
            rep = dc.check_three_eigenvalue_theorem(dc.three_eigenvalue_matrix(kind))
            assert rep.verified, (kind, rep.claims)
            assert rep.min_value >= -rep.scan.entry_tol
            assert rep.empirical_critexp <= 1.0 + 1e-6

    def test_theorem_rejects_four_eigenvalues(self):
        with pytest.raises(TooManyEigenvaluesError):
            dc.check_three_eigenvalue_theorem(tridiag(4))


class TestOneDecomposition:
    """check_dn and the theorem check's exponent scan read the caller's
    decomposition instead of making their own."""

    @staticmethod
    def _count_decompositions(monkeypatch):
        calls = []
        real = dc.matcore.spectral_decompose

        def counting(A):
            calls.append(A)
            return real(A)

        for module in (dc.matcore, dc.exppoly, dc.experiments):
            monkeypatch.setattr(module, "spectral_decompose", counting)
        return calls

    @staticmethod
    def _check_dn_decomposing_again(A, dec=None):
        return dc.matcore.check_dn(A)

    def test_witness_decomposes_once(self, monkeypatch):
        cases = [(n, seed) for n in range(3, 9) for seed in range(3)]
        with monkeypatch.context() as m:
            m.setattr(dc.experiments, "check_dn", self._check_dn_decomposing_again)
            want = [dc.tridiagonal_witness(n, seed).to_json_dict() for n, seed in cases]
        calls = self._count_decompositions(monkeypatch)
        for (n, seed), expected in zip(cases, want):
            calls.clear()
            assert dc.tridiagonal_witness(n, seed).to_json_dict() == expected
            assert len(calls) == 1

    def test_three_eigenvalue_check_adds_no_decomposition(self, monkeypatch):
        # the check decomposes once; check_dn and the exponent scan add none
        cases = [dc.three_eigenvalue_matrix("cycle4"), dc.three_eigenvalue_matrix("cycle5"),
                 random_three_eigenvalue(6, 2)]
        with monkeypatch.context() as m:
            m.setattr(dc.experiments, "check_dn", self._check_dn_decomposing_again)
            want = [dc.check_three_eigenvalue_theorem(A).to_json_dict() for A in cases]
        calls = self._count_decompositions(monkeypatch)
        for A, expected in zip(cases, want):
            calls.clear()
            rep = dc.check_three_eigenvalue_theorem(A)
            assert len(calls) == 1
            assert rep.to_json_dict() == expected
            assert rep.empirical_critexp == dc.matrix_critical_exponent(A, rep.scan)

    def test_perturbation_decomposes_once(self, monkeypatch):
        # eps A + I shares A's eigenvectors; its grid minimum agrees with a
        # decomposition of its own
        cases = [random_tridiagonal_dn(n, np.random.default_rng([n, 5])) for n in range(3, 9)]
        cases += [dc.random_dn(n, n, 70 + n) for n in range(2, 7)]
        calls = self._count_decompositions(monkeypatch)
        for A in cases:
            calls.clear()
            rep = dc.check_perturbation(A)
            assert len(calls) == 1
            C = dc.SymMatrix.from_array(rep.epsilon * A.entries + np.eye(A.n))
            ts = rep.scan.grid()
            vals = grid_entry_values(dc.spectral_decompose(C), ts).min(axis=(0, 1))
            assert rep.min_value == pytest.approx(vals.min(), rel=0.0, abs=1e-12)
            assert rep.argmin_t == ts[np.argmin(vals)]
            assert rep.passed == bool(vals.min() >= -rep.scan.entry_tol)

    def test_monotonicity_decomposes_once(self, monkeypatch):
        # B = A + r x1 x1^T shares A's eigenvectors; its grid minimum agrees
        # with a decomposition of its own up to rounding
        rng = np.random.default_rng(4)
        cases = [(random_tridiagonal_dn(n, rng), float(rng.uniform(0.0, 5.0)))
                 for n in range(2, 8)]
        cases += [(dc.random_dn(n, 1 + k % n, 90 + k), float(rng.uniform(0.0, 5.0)))
                  for k, n in enumerate(range(2, 8))]
        calls = self._count_decompositions(monkeypatch)
        for A, r in cases:
            calls.clear()
            rep = dc.check_monotonicity(A, r)
            assert len(calls) == 1
            x1 = dc.spectral_decompose(A).eigenvectors[:, 0]
            B = dc.SymMatrix.from_array(A.entries + r * np.outer(x1, x1))
            ts = rep.scan.grid()
            diff = (grid_entry_values(dc.spectral_decompose(B), ts)
                    - grid_entry_values(dc.spectral_decompose(A), ts)).min(axis=(0, 1))
            assert rep.min_value == pytest.approx(diff.min(), rel=0.0,
                                                  abs=1e-12 * (A.max_abs() + r))
            assert rep.verified == bool(diff.min() >= -rep.scan.entry_tol)

    def test_report_same_with_and_without_dec(self):
        for seed in range(10):
            for A in (dc.random_dn(5, seed % 5 + 1, seed),
                      random_tridiagonal_dn(6, np.random.default_rng(seed)),
                      sym([[1.0, -0.5], [-0.5, 1.0]])):
                assert dc.check_dn(A, dec=dc.spectral_decompose(A)) == dc.check_dn(A)


class TestMonotonicity:
    def test_hand_2x2(self):
        # A = [[2,1],[1,2]]: x1 = (1,1)/sqrt(2), so r = 2 gives B = A + ones
        A = sym([[2, 1], [1, 2]])
        rep = dc.check_monotonicity(A, 2.0)
        assert rep.verified
        # the difference ((5^t - 3^t)/2) ones vanishes at t = 0
        assert rep.min_value == pytest.approx(0.0, abs=1e-9)
        assert rep.argmin_t == 0.0

    def test_r_zero(self):
        A = dc.random_dn(4, 4, 3)
        rep = dc.check_monotonicity(A, 0.0)
        assert rep.verified
        assert abs(rep.min_value) <= rep.scan.entry_tol

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            dc.check_monotonicity(sym([[2, 1], [1, 2]]), -1.0)

    def test_repeated_top_eigenvalue(self):
        with pytest.raises(RepeatedTopEigenvalueError):
            dc.check_monotonicity(sym(np.eye(2)), 1.0)
        with pytest.raises(RepeatedTopEigenvalueError):
            dc.check_monotonicity(sym(np.diag([3.0, 3.0 - 1e-9, 1.0])), 1.0)

    @pytest.mark.parametrize("A", [[[2.0]], [[0.0]], np.diag([3.0, 1.0, 1.0]),
                                   np.diag([3.0, 0.0, 0.0])])
    def test_simple_top_with_repeats_below(self, A):
        # n = 1 is simple; so is a top eigenvalue above a repeated rest
        assert dc.check_monotonicity(sym(A), 1.5).verified

    def test_random_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = dc.random_dn(4, int(rng.integers(1, 5)), int(rng.integers(10_000)))
            rep = dc.check_monotonicity(A, float(rng.uniform(0.0, 5.0)))
            assert rep.verified


class TestPerturbation:
    def test_tridiag4(self):
        A = tridiag(4)
        rep = dc.check_perturbation(A)
        assert rep.passed
        # eps = min (A^3)_ij / (A^4)_ij for this matrix
        p = np.linalg.matrix_power(A.entries, 3)
        q = np.linalg.matrix_power(A.entries, 4)
        assert rep.epsilon == pytest.approx(float((p / q).min()), rel=1e-12)
        assert rep.epsilon == pytest.approx(0.125, abs=1e-12)
        assert rep.verified_range[0] == pytest.approx(2.0)
        assert rep.min_value >= -rep.scan.entry_tol

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            dc.check_perturbation(sym(np.diag([1.0, 2.0])))

    def test_non_dn_rejected(self):
        with pytest.raises(NotDoublyNonnegativeError):
            dc.check_perturbation(sym([[1, -1], [-1, 1]]), )

    def test_rank_one_all_positive(self):
        rep = dc.check_perturbation(sym(np.ones((2, 2))))
        assert rep.passed
        assert rep.epsilon == pytest.approx(0.5, rel=1e-12)

    def test_random_tridiagonal_batch(self):
        for seed in range(10):
            A = random_tridiagonal_dn(4, np.random.default_rng([seed, 0]))
            rep = dc.check_perturbation(A)
            assert rep.passed
            assert rep.epsilon > 0

    def test_json_fields(self):
        data = json.loads(dc.check_perturbation(tridiag(3)).to_json())
        assert data["passed"] is True
        assert data["epsilon"] > 0
        assert "truncation" not in data


class TestEmpiricalCritexp:
    def test_tridiag4(self):
        assert dc.empirical_critical_exponent(tridiag(4)) == pytest.approx(2.0, abs=1e-6)

    def test_never_negative_examples(self):
        assert dc.empirical_critical_exponent(sym(np.ones((3, 3)))) == 0.0
        assert dc.empirical_critical_exponent(sym([[2, 1], [1, 2]])) == 0.0

    def test_matches_matrix_scan(self):
        A = dc.random_dn(5, 4, 42)
        scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=dc.crude_bound(5) + 2.0)
        assert dc.empirical_critical_exponent(A) == dc.matrix_critical_exponent(A, scan)


class TestScaleInvariance:
    """A^t scales by s^t, so A and s * A share their eigenvalue groups, W,
    flags and critical exponent; every spectrum rule is relative to one
    scale, with no floor."""

    # every third matrix of random_dn(n, 1 + seed % n, seed), n = 5, 6, seeds 0..149
    CORPUS = [(n, seed) for n in (5, 6) for seed in range(0, 150, 3)]

    @staticmethod
    def _summary(A):
        dec = dc.spectral_decompose(A)
        report = dc.check_dn(A, dec)
        return (dec.group_starts.tolist(), dec.generic, dc.sign_change_matrix(dec).w,
                report.is_psd, report.is_invertible, report.num_distinct_eigenvalues)

    def test_random_dn_corpus(self):
        for n, seed in self.CORPUS:
            A = dc.random_dn(n, 1 + seed % n, seed)
            want, exponent = self._summary(A), dc.empirical_critical_exponent(A)
            for s in (1e-12, 1e-6, 1e6, 1e12):
                B = sym(A.entries * s)
                assert self._summary(B) == want, (n, seed, s)
                # large s still moves exponents: entry_tol is fixed at the t = 1 scale
                if s <= 1.0:
                    assert dc.empirical_critical_exponent(B) == pytest.approx(
                        exponent, abs=DEFAULT_ENDPOINT_TOL), (n, seed, s)

    def test_tiny_scale_report(self):
        report = dc.check_dn(sym(dc.random_dn(5, 5, 3).entries * 1e-12))
        assert report.num_distinct_eigenvalues == 5 and report.is_invertible

    def test_psd_band_scales(self):
        for s in (1e-12, 1.0, 1e12):
            assert dc.check_dn(sym(np.diag([1.0, -1e-11]) * s)).is_psd, s
            assert not dc.check_dn(sym(np.diag([1.0, -1e-9]) * s)).is_psd, s


class TestSearch:
    def test_small_run_deterministic(self):
        a = dc.search_critical_exponent(4, trials=8, seed=1, family="mixed")
        b = dc.search_critical_exponent(4, trials=8, seed=1, family="mixed")
        assert a.max_found == b.max_found
        assert a.argmax_trial == b.argmax_trial
        assert (a.argmax.entries == b.argmax.entries).all()
        assert a.histogram == b.histogram

    def test_tridiagonal_family_hits_n_minus_2(self):
        out = dc.search_critical_exponent(4, trials=6, seed=0, family="tridiagonal")
        assert out.max_found == pytest.approx(2.0, abs=1e-6)
        assert out.n == 4 and out.trials == 6

    def test_histogram_totals(self):
        out = dc.search_critical_exponent(3, trials=12, seed=2, family="gram")
        assert sum(c for _, _, c in out.histogram) == 12
        assert all(lo < hi for lo, hi, _ in out.histogram)

    def test_bad_args(self):
        from dncrit.enumeration import DimensionTooLargeError
        with pytest.raises(DimensionTooLargeError):
            dc.search_critical_exponent(7, trials=1, seed=0)
        with pytest.raises(ValueError):
            dc.search_critical_exponent(4, trials=0, seed=0)
        with pytest.raises(ValueError):
            dc.search_critical_exponent(4, trials=1, seed=0, family="dense")

    @pytest.mark.parametrize("family", dc.experiments.SEARCH_FAMILIES)
    @pytest.mark.parametrize("n", [0, 1])
    def test_too_small_rejected_before_any_trial(self, n, family, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(dc.experiments, "empirical_critical_exponent", no_trial)
        with pytest.raises(DimensionTooSmallError, match=f"n >= 2, got n={n}"):
            dc.search_critical_exponent(n, trials=5, seed=0, family=family)

    def test_json_round_trip(self):
        out = dc.search_critical_exponent(3, trials=4, seed=3, family="gram")
        data = json.loads(out.to_json())
        assert data["trials"] == 4
        assert isinstance(data["histogram"], list)
