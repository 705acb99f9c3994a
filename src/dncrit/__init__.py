"""Critical exponents of doubly nonnegative matrices under real spectral
powers: bounds, sign-change certificates, enumeration, and empirical probes.

A doubly nonnegative (DN) matrix is symmetric positive semi-definite with
nonnegative entries.  Raising one to a real power t through its spectral
decomposition can push entries negative for small t; the critical exponent
m(n) is the least power beyond which every n-by-n DN matrix stays DN.  This
package computes the closed-form bounds n-2 <= m(n) <= k(n)+1, mechanically
certifies m(n) for n <= 5 by enumerating eigenvector sign patterns, and
probes the conjectured value n-2 numerically.
"""

from .matcore import (
    SymMatrix,
    DnReport,
    SpectralDecomposition,
    parse_matrix,
    format_matrix,
    check_dn,
    spectral_decompose,
    fractional_power,
    matrix_power_t,
    is_irreducible,
)
from .exppoly import (
    ExpPoly,
    ScanConfig,
    NegativeInterval,
    entry_exppoly,
    eval_exppoly,
    descartes_bound,
    negative_intervals,
    entry_critical_exponent,
    matrix_critical_exponent,
)
from .signchange import (
    SignChangeMatrix,
    ValidationResult,
    sign_change_matrix,
    validate_sign_change_matrix,
    component_bound,
)
from .enumeration import (
    SignPattern,
    enumerate_sign_patterns,
    pattern_to_w,
    canonicalize_w,
    enumerate_w_classes,
)
from .reference import known_classes, compare_with_reference
from .certify import (
    EntryBoundMatrix,
    CertificateReport,
    crude_bound,
    lower_bound,
    k_of_n,
    entry_bounds_from_w,
    certify_dimension,
    UNBOUNDED,
)
from .experiments import (
    WitnessReport,
    PerturbationReport,
    SearchSummary,
    random_dn,
    random_tridiagonal_dn,
    tridiagonal_witness,
    three_eigenvalue_matrix,
    check_three_eigenvalue_theorem,
    check_monotonicity,
    check_perturbation,
    empirical_critical_exponent,
    search_critical_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "SymMatrix", "DnReport", "SpectralDecomposition",
    "parse_matrix", "format_matrix", "check_dn", "spectral_decompose",
    "fractional_power", "matrix_power_t", "is_irreducible",
    "ExpPoly", "ScanConfig", "NegativeInterval",
    "entry_exppoly", "eval_exppoly", "descartes_bound", "negative_intervals",
    "entry_critical_exponent", "matrix_critical_exponent",
    "SignChangeMatrix", "ValidationResult", "sign_change_matrix",
    "validate_sign_change_matrix", "component_bound",
    "SignPattern", "enumerate_sign_patterns", "pattern_to_w",
    "canonicalize_w", "enumerate_w_classes",
    "known_classes", "compare_with_reference",
    "EntryBoundMatrix", "CertificateReport", "crude_bound", "lower_bound",
    "k_of_n", "entry_bounds_from_w", "certify_dimension", "UNBOUNDED",
    "WitnessReport", "PerturbationReport", "SearchSummary",
    "random_dn", "random_tridiagonal_dn", "tridiagonal_witness",
    "three_eigenvalue_matrix", "check_three_eigenvalue_theorem",
    "check_monotonicity", "check_perturbation",
    "empirical_critical_exponent", "search_critical_exponent",
    "__version__",
]
