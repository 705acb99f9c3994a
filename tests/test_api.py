"""The public surface of the package: ``__all__`` changes only by an edit
to the list below, and importing the package needs numpy only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dncrit as dc

# installed for the tests only; the package must not import them
TEST_ONLY = ("scipy", "sympy", "mpmath", "hypothesis")

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
    "parse_matrix", "random_dn", "random_tridiagonal_dn",
    "search_critical_exponent", "sign_change_matrix", "spectral_decompose",
    "three_eigenvalue_matrix", "tridiagonal_witness", "validate_sign_change_matrix",
]


def test_all_is_pinned():
    assert sorted(dc.__all__) == PUBLIC


def test_all_names_resolve():
    assert all(hasattr(dc, name) for name in dc.__all__)
    assert len(set(dc.__all__)) == len(dc.__all__)


def test_imports_need_numpy_only():
    # a fresh interpreter, since this one has imported the test-only packages
    code = ("import json, sys, dncrit, dncrit.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    src = str(Path(dc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "numpy" in loaded and "dncrit" in loaded
    assert [m for m in TEST_ONLY if m in loaded] == []
