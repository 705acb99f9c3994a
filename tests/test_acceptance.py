"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Each test computes its whole criterion, records a single

    CRITERION k: PASS/FAIL -- detail

line (echoed in the end-of-run summary via conftest.pytest_terminal_summary,
and printed so failures carry it too), and only then asserts.  Shared corpora
come from session-scoped fixtures in conftest.py so the expensive scans run
once.
"""

import time

import numpy as np
import pytest

import conftest
import dncrit as dc
from conftest import generic_dn, pattern_to_w, random_three_eigenvalue
from dncrit.enumeration import canonicalize_w
from dncrit.experiments import random_tridiagonal_dn
from dncrit.exppoly import ScanConfig, entry_critical_exponent, entry_exppoly
from dncrit.matcore import RECON_TOL, ORTHO_TOL


def _report(k: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} -- {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


# The one n=5 class the enumeration finds beyond the 21-class reference list.
# It is kept and reported, never dropped or folded into the reference.
EXTRA_CLASS_5 = ((0, 2, 2, 2, 3), (2, 0, 2, 2, 3), (2, 2, 0, 2, 3),
                 (2, 2, 2, 0, 3), (3, 3, 3, 3, 0))

# An admissible sign pattern (first row and column +, distinct rows and
# columns) whose W canonicalizes to EXTRA_CLASS_5.
EXTRA_PATTERN_5 = ("+++++", "+++-+", "++-++", "+-++-", "+--++")

# A DN matrix with a generic W in EXTRA_CLASS_5 (smallest eigenvector
# coordinate about 0.03 of its column's largest), so the class is realized.
EXTRA_WITNESS_5 = (
    (1.392, 1.492, 0.718, 1.276, 1.184),
    (1.492, 2.402, 1.093, 1.772, 1.626),
    (0.718, 1.093, 1.350, 1.544, 0.893),
    (1.276, 1.772, 1.544, 2.017, 1.457),
    (1.184, 1.626, 0.893, 1.457, 1.530),
)


def test_criterion_1_reference_classes_recovered():
    t0 = time.time()
    classes = dc.enumerate_w_classes(5)
    elapsed = time.time() - t0
    cmp = dc.compare_with_reference(classes)
    extra = [c.w for c in cmp.extra]

    pattern = next((p for p in dc.enumerate_sign_patterns(5)
                    if tuple(p.rows_text()) == EXTRA_PATTERN_5), None)
    from_pattern = (pattern is not None
                    and canonicalize_w(pattern_to_w(pattern)).w == EXTRA_CLASS_5)

    A = dc.SymMatrix.from_array(EXTRA_WITNESS_5)
    W = dc.sign_change_matrix(A)
    realized = (dc.check_dn(A).is_dn and W.generic
                and canonicalize_w(W).w == EXTRA_CLASS_5)

    recovered = len(cmp.matched) == 21 and not cmp.missing
    total_ok = len(classes) == len(cmp.matched) + len(cmp.extra) == 22
    extra_ok = extra == [EXTRA_CLASS_5]
    fast = elapsed < 60.0
    ok = recovered and total_ok and extra_ok and from_pattern and realized and fast
    detail = (f"{len(cmp.matched)}/21 reference classes recovered, "
              f"{len(cmp.missing)} missing, {len(cmp.extra)} extra "
              f"{extra}, total {len(classes)} (expected 22), "
              f"extra class from an admissible pattern: {from_pattern}, "
              f"realized by the stored DN matrix: {realized}, {elapsed:.1f}s")
    _report(1, ok, detail)
    assert recovered
    assert fast
    assert extra_ok, ("exactly one class beyond the reference list must be "
                      "surfaced, not dropped or reconciled away; see README.md")
    assert total_ok
    assert from_pattern
    assert realized


def test_criterion_2_certified_value_m5():
    report = dc.certify_dimension(5)
    ok = report.certified_upper == 3.0 and report.conclusion == "m(5) = 3"
    _report(2, ok, f"certified_upper={report.certified_upper:g} over "
                   f"{report.num_classes} classes, conclusion {report.conclusion!r}")
    assert report.certified_upper == 3.0
    assert report.conclusion == "m(5) = 3"


def test_criterion_3_closed_form_bounds():
    expected = {3: 1.0, 4: 2.0, 5: 5.0, 6: 7.0, 7: 13.0, 8: 16.0, 9: 25.0, 10: 29.0}
    got = {n: dc.crude_bound(n) for n in expected}
    meet = all(dc.crude_bound(n) == dc.lower_bound(n) for n in (3, 4))
    ok = got == expected and meet
    _report(3, ok, f"crude bounds n=3..10 = "
                   f"{[int(got[n]) for n in range(3, 11)]}, "
                   f"equal to the lower bound at n=3,4: {meet}")
    assert got == expected
    assert meet


def test_criterion_4_tridiagonal_witnesses():
    t0 = time.time()
    checked = 0
    midpoint_failures = []
    tail_failures = []
    for n in range(3, 9):
        for seed in range(100):
            rep = dc.tridiagonal_witness(n, seed)
            checked += 1
            if not rep.claims[1][1]:
                midpoint_failures.append((n, seed))
            if not rep.claims[3][1]:
                tail_failures.append((n, seed))
    elapsed = time.time() - t0
    ok = not midpoint_failures and not tail_failures and elapsed < 120.0
    _report(4, ok, f"{checked} witnesses (n=3..8 x 100 seeds): "
                   f"{len(midpoint_failures)} midpoint failures, "
                   f"{len(tail_failures)} tail failures, {elapsed:.1f}s")
    assert not midpoint_failures, midpoint_failures[:5]
    assert not tail_failures, tail_failures[:5]
    assert elapsed < 120.0


def test_criterion_5_sign_change_consistency(dn_corpus_summary):
    s = dn_corpus_summary
    ok = (s.num_matrices == 1000 and not s.w_violations
          and not s.alternation_violations and not s.interval_violations)
    _report(5, ok, f"{s.num_matrices} random DN matrices: "
                   f"{len(s.w_violations)} W-structure violations, "
                   f"{len(s.alternation_violations)} alternation excesses, "
                   f"{len(s.interval_violations)}/{s.num_interval_checked} "
                   f"interval-count excesses ({s.elapsed:.1f}s)")
    assert s.num_matrices == 1000
    assert not s.w_violations, s.w_violations[:3]
    assert not s.alternation_violations, s.alternation_violations[:3]
    assert not s.interval_violations, s.interval_violations[:3]


def test_criterion_6_nonnegative_beyond_crude_bound(dn_corpus_summary):
    s = dn_corpus_summary
    ok = (s.num_matrices == 1000 and not s.tail_violations
          and not s.tail3_violations)
    _report(6, ok, f"{s.num_matrices} random DN matrices: "
                   f"{len(s.tail_violations)} entries below -1e-9*max|entry| at "
                   f"t >= crude bound, {len(s.tail3_violations)} below it at "
                   f"t >= 3 for n=5 (worst margin {s.worst_tail_margin:.3g})")
    assert s.num_matrices == 1000
    assert not s.tail_violations, s.tail_violations[:3]
    assert not s.tail3_violations, s.tail3_violations[:3]


def test_criterion_7_theorem_spot_checks():
    failures = []

    for kind in ("cycle4", "cycle5"):
        rep = dc.check_three_eigenvalue_theorem(dc.three_eigenvalue_matrix(kind))
        if not rep.verified:
            failures.append(("three-eig", kind))
    for k in range(100):
        n = 2 + k % 5
        rep = dc.check_three_eigenvalue_theorem(random_three_eigenvalue(n, seed=k))
        if not rep.verified:
            failures.append(("three-eig", n, k))

    for k in range(100):
        n = 2 + k % 5
        rng = np.random.default_rng([777, k])
        A = dc.random_dn(n, rank=int(rng.integers(1, n + 1)), seed=50_000 + k)
        rep = dc.check_monotonicity(A, r=float(rng.uniform(0.0, 5.0)))
        if not rep.verified:
            failures.append(("monotonicity", n, k))

    for k in range(100):
        n = 3 + k % 4
        A = random_tridiagonal_dn(n, np.random.default_rng([888, k]))
        rep = dc.check_perturbation(A)
        if not rep.passed:
            failures.append(("perturbation", n, k))

    ok = not failures
    _report(7, ok, f"302 checks -- three-eigenvalue (cycles + 100 random, grid "
                   f"t in [1, 10]), monotonicity (100 pairs, r in [0, 5]), "
                   f"perturbation (100 irreducible DN, t in [n-2, n+5]): "
                   f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_8_bounds_hold_empirically(class_sets):
    checked = 0
    membership_failures = []
    bound_failures = []
    for k in range(500):
        n = 3 + k % 3
        A = generic_dn(n, seed=10_000 + k)
        dec = dc.spectral_decompose(A)
        W = dc.sign_change_matrix(dec)
        if canonicalize_w(W) not in class_sets[n]:
            membership_failures.append((n, k))
        bounds = dc.entry_bounds_from_w(W)
        scan = ScanConfig.for_matrix(A, t_min=0.0, t_max=dc.crude_bound(n) + 2.0)
        for i in range(n):
            for j in range(i, n):
                measured = entry_critical_exponent(entry_exppoly(dec, i, j), scan)
                if measured > bounds.bound[i][j] + 1e-6:
                    bound_failures.append((n, k, i, j, measured, bounds.bound[i][j]))
        checked += 1
    ok = checked == 500 and not membership_failures and not bound_failures
    _report(8, ok, f"{checked} generic DN matrices (n=3,4,5): "
                   f"{len(membership_failures)} canonical-W membership failures, "
                   f"{len(bound_failures)} entries past their certified bound")
    assert checked == 500
    assert not membership_failures, membership_failures[:5]
    assert not bound_failures, bound_failures[:5]


def test_criterion_9_decomposition_quality():
    recon_failures = []
    ortho_failures = []
    semigroup_failures = []
    for k in range(1000):
        rng = np.random.default_rng([99, k])
        n = 2 + k % 7
        m = rng.normal(size=(n, n))
        A = dc.SymMatrix.from_array((m + m.T) / 2.0)
        dec = dc.spectral_decompose(A)
        u, lam = dec.eigenvectors, dec.eigenvalues
        recon = np.abs(u @ np.diag(lam) @ u.T - A.entries).max()
        if recon > RECON_TOL * max(1e-12, A.max_abs()):
            recon_failures.append((k, recon))
        ortho = np.abs(u.T @ u - np.eye(n)).max()
        if ortho > ORTHO_TOL:
            ortho_failures.append((k, ortho))

        P = dc.SymMatrix.from_array(A.entries @ A.entries)
        dec_p = dc.spectral_decompose(P)
        s, t = rng.uniform(0.1, 2.0, size=2)
        lhs = dc.fractional_power(dec_p, s).entries @ dc.fractional_power(dec_p, t).entries
        rhs = dc.fractional_power(dec_p, s + t).entries
        err = np.abs(lhs - rhs).max() / max(1e-12, np.abs(rhs).max())
        if err > 1e-8:
            semigroup_failures.append((k, err))
    ok = not recon_failures and not ortho_failures and not semigroup_failures
    _report(9, ok, f"1000 random symmetric matrices (n=2..8): "
                   f"{len(recon_failures)} reconstructions past 1e-10 rel, "
                   f"{len(ortho_failures)} orthogonality defects past 1e-12, "
                   f"{len(semigroup_failures)} semigroup errors past 1e-8 rel")
    assert not recon_failures, recon_failures[:5]
    assert not ortho_failures, ortho_failures[:5]
    assert not semigroup_failures, semigroup_failures[:5]
