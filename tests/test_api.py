"""The public surface of the package: ``__all__``, its tolerance
parameters and constants and the functions that take powers or build
upper-triangle indices change only by an edit to the lists below, and
importing the package needs numpy only."""

import ast
import inspect
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


# the tolerance parameters of the public callables; every other tolerance is
# a fixed rule of the library (SYM_TOL, PSD_TOL, MERGE_TOL, ...)
TOLERANCE_PARAMETERS = [("ScanConfig", "endpoint_tol"), ("ScanConfig", "entry_tol")]


# the functions that call np.power; every other path reads
# matcore._power_table, which holds the t < 0 and overflow rules
POWER_SITES = [("exppoly", "_bisect_edge"), ("matcore", "_power_table")]


# the functions that call np.triu_indices; every other reader of the
# strict-upper entries takes matcore._upper's pair, built once per n
UPPER_SITES = [("matcore", "_upper")]


# the functions that read SYM_TOL, PSD_TOL, INVERT_TOL or MERGE_TOL: each
# rule is decided, or named in its error message, in one matcore function
FLOORLESS_TOLS = ("SYM_TOL", "PSD_TOL", "INVERT_TOL", "MERGE_TOL")
TOLERANCE_READERS = [("matcore", "_group_starts"), ("matcore", "_is_psd"),
                     ("matcore", "check_dn"), ("matcore", "clamp_psd"),
                     ("matcore", "from_array")]


# every module-level *_TOL constant: a fixed rule, one name per rule
TOLERANCE_CONSTANTS = [
    ("exppoly", "COEFF_ZERO_TOL"), ("exppoly", "DEFAULT_ENDPOINT_TOL"),
    ("exppoly", "DEFAULT_ENTRY_TOL"), ("matcore", "EIG_SNAP_TOL"), ("matcore", "INVERT_TOL"),
    ("matcore", "MERGE_TOL"), ("matcore", "ORTHO_TOL"), ("matcore", "PSD_TOL"),
    ("matcore", "RECON_TOL"), ("matcore", "SYM_TOL"), ("matcore", "ZERO_COORD_TOL"),
]


def test_all_is_pinned():
    assert sorted(dc.__all__) == PUBLIC


def test_tolerance_parameters_are_pinned():
    found = [(name, param) for name in sorted(dc.__all__) if callable(obj := getattr(dc, name))
             for param in inspect.signature(obj).parameters if param.endswith("_tol")]
    assert found == TOLERANCE_PARAMETERS


def test_tolerance_constants_are_pinned():
    found = sorted((path.stem, target.id)
                   for path in Path(dc.__file__).parent.glob("*.py")
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                   if isinstance(target, ast.Name) and target.id.endswith("_TOL"))
    assert found == TOLERANCE_CONSTANTS


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every AST node of the package for
    which ``match`` holds."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def _call_sites(func: str) -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every call of ``func`` in the package."""
    return _sites(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == func)


def _factors(node) -> list:
    """The operands of a chain of ``*``, signs dropped: ``-a * b * c`` gives
    [a, b, c]."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _factors(node.operand)
    return [node]


def _floored_tolerance(node) -> bool:
    """Whether ``node`` multiplies a *_TOL name by a floor: a ``max`` call
    with a number among its arguments, as in ``max(1.0, lam_1)``.
    ``COEFF_ZERO_TOL * max(map(abs, c), default=0.0)`` is a scale, not a floor."""
    factors = _factors(node) if isinstance(node, ast.BinOp) else []
    return (any(isinstance(f, ast.Name) and f.id.endswith("_TOL") for f in factors)
            and any(isinstance(f, ast.Call) and ast.unparse(f.func) == "max"
                    and any(isinstance(a, ast.Constant) for a in f.args) for f in factors))


def test_power_sites_are_pinned():
    assert _call_sites("np.power") == POWER_SITES


def test_upper_sites_are_pinned():
    assert _call_sites("np.triu_indices") == UPPER_SITES


def test_tolerance_readers_are_pinned():
    readers = _sites(lambda node: isinstance(node, ast.Name) and node.id in FLOORLESS_TOLS
                     and isinstance(node.ctx, ast.Load))
    assert sorted(set(readers)) == TOLERANCE_READERS


def test_no_tolerance_is_floored():
    # every spectrum rule is relative to one scale: a floor such as
    # MERGE_TOL * max(1, lam_1) makes A and s * A decide differently
    assert _sites(_floored_tolerance) == []
    floored = ("2 * MERGE_TOL * max(1.0, y)", "max(y, 1e-300) * SYM_TOL", "-PSD_TOL * max(1, y)")
    assert all(_floored_tolerance(ast.parse(e, mode="eval").body) for e in floored)
    assert not _floored_tolerance(ast.parse("PSD_TOL * max(y, z)", mode="eval").body)


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
