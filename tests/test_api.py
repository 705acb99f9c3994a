"""The public surface of the package: ``__all__`` changes only by an edit
to the list below."""

import dncrit as dc

PUBLIC = [
    "CertificateReport", "DnReport", "EntryBoundMatrix", "ExpPoly", "NegativeInterval",
    "PerturbationReport", "ScanConfig", "SearchSummary", "SignChangeMatrix", "SignPattern",
    "SpectralDecomposition", "SymMatrix", "UNBOUNDED", "ValidationResult", "WitnessReport",
    "__version__", "canonicalize_w", "certify_dimension", "check_dn",
    "check_monotonicity", "check_perturbation", "check_three_eigenvalue_theorem",
    "compare_with_reference", "component_bound", "crude_bound", "descartes_bound",
    "empirical_critical_exponent", "entry_bounds_from_w", "entry_critical_exponent",
    "entry_exppoly", "enumerate_sign_patterns", "enumerate_w_classes", "eval_exppoly",
    "format_matrix", "fractional_power", "is_irreducible", "k_of_n", "known_classes",
    "lower_bound", "matrix_critical_exponent", "matrix_power_t", "negative_intervals",
    "parse_matrix", "pattern_to_w", "random_dn", "random_tridiagonal_dn",
    "search_critical_exponent", "sign_change_matrix", "spectral_decompose",
    "three_eigenvalue_matrix", "tridiagonal_witness", "validate_sign_change_matrix",
]


def test_all_is_pinned():
    assert sorted(dc.__all__) == PUBLIC


def test_all_names_resolve():
    assert all(hasattr(dc, name) for name in dc.__all__)
    assert len(set(dc.__all__)) == len(dc.__all__)
