"""Command-line front end.

Subcommands: check, power, signchange, enumerate, certify, witness, scan,
search.  Human-readable summaries go to stdout; machine output (JSON, CSV,
or matrix/W text) goes to --out when given.  Exit codes: 0 success and all
claims verified, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .certify import (
    UNBOUNDED,
    _json_bound,
    certify_dimension,
    crude_bound,
    entry_bounds_from_w,
    lower_bound,
)
from .enumeration import enumerate_sign_patterns, enumerate_w_classes
from .exppoly import COEFF_ZERO_TOL, DEFAULT_STEP, ScanConfig, grid_entry_values
from .matcore import (
    PSD_TOL,
    SYM_TOL,
    MatrixFormatError,
    NotSymmetricError,
    SymMatrix,
    check_dn,
    format_matrix,
    matrix_power_t,
    parse_matrix,
    spectral_decompose,
)
from .reference import compare_with_reference
from .signchange import (
    format_sign_change_matrix,
    parse_sign_change_matrix,
    sign_change_matrix,
    validate_sign_change_matrix,
)
from . import experiments


def _read_matrix(path: str, sym_tol: float) -> SymMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read(), sym_tol=sym_tol)


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def _bound_text(v: float) -> str:
    return f"{v:g}" if v < UNBOUNDED else _json_bound(v)


def _tolerance(text: str) -> float:
    """argparse type of the tolerance flags: a finite float >= 0."""
    v = float(text)
    if not (math.isfinite(v) and v >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return v


def cmd_check(args) -> int:
    A = _read_matrix(args.file, args.sym_tol)
    report = check_dn(A, psd_tol=args.psd_tol)
    print(f"n={A.n}")
    print(f"nonnegative={report.is_nonnegative} (min entry {report.min_entry:.6g})")
    print(f"psd={report.is_psd} (min eigenvalue {report.min_eigenvalue:.6g})")
    print(f"dn={report.is_dn}")
    print(f"invertible={report.is_invertible} irreducible={report.is_irreducible} "
          f"distinct_eigenvalues={report.num_distinct_eigenvalues}")
    _write_out(args, json.dumps({"n": A.n, **asdict(report)}, indent=2))
    return 0 if report.is_dn else 1


def cmd_power(args) -> int:
    A = _read_matrix(args.file, args.sym_tol)
    out = matrix_power_t(A, args.t, psd_tol=args.psd_tol)
    text = format_matrix(out)
    sys.stdout.write(text)
    _write_out(args, text)
    return 0


def cmd_signchange(args) -> int:
    A = _read_matrix(args.file, args.sym_tol)
    W = sign_change_matrix(spectral_decompose(A), zero_tol=args.zero_tol)
    result = validate_sign_change_matrix(W)
    text = format_sign_change_matrix(W)
    sys.stdout.write(text)
    print(f"generic={W.generic}")
    if result.ok:
        print("structure=ok")
    else:
        for v in result.violations:
            print(f"violation: {v}")
    _write_out(args, text)
    return 0 if result.ok else 1


def cmd_enumerate(args) -> int:
    if args.emit_patterns:
        chunks = []
        count = 0
        for p in enumerate_sign_patterns(args.n):
            chunks.append("\n".join(p.rows_text()))
            count += 1
        body = "\n\n".join(chunks) + "\n"
        print(f"n={args.n}: {count} sign patterns")
        if args.out:
            _write_out(args, body)
        else:
            sys.stdout.write(body)
        return 0
    classes = enumerate_w_classes(args.n)
    body = "\n".join(format_sign_change_matrix(w) for w in classes)
    print(f"n={args.n}: {len(classes)} sign-change classes")
    if args.n == 5:
        cmp = compare_with_reference(classes)
        print(cmp.summary())
        if not cmp.exact:
            print("DISCREPANCY against the 21-class reference list:")
            for w in cmp.missing:
                print("missing (in reference, not enumerated):")
                sys.stdout.write(format_sign_change_matrix(w))
            for w in cmp.extra:
                print("extra (enumerated, not in reference):")
                sys.stdout.write(format_sign_change_matrix(w))
    if args.out:
        _write_out(args, body)
    else:
        sys.stdout.write(body)
    return 0


def cmd_certify(args) -> int:
    if (args.n is None) == (args.w_file is None):
        print("certify: exactly one of --n or --w-file is required", file=sys.stderr)
        return 2
    if args.w_file is not None:
        with open(args.w_file) as fh:
            W = parse_sign_change_matrix(fh.read())
        bounds = entry_bounds_from_w(W)
        for row in bounds.bound:
            print(" ".join(_bound_text(v) for v in row))
        unbounded = bounds.num_unbounded()
        print(f"max_bound={_bound_text(bounds.max_bound())}")
        _write_out(args, json.dumps({
            "n": W.n,
            "w": [list(r) for r in W.w],
            "entry_bounds": [[_json_bound(v) for v in row] for row in bounds.bound],
        }, indent=2))
        return 0 if not unbounded else 1
    report = certify_dimension(args.n)
    print(f"classes={report.num_classes} certified_upper={_bound_text(report.certified_upper)} "
          f"lower={report.lower:g} crude_upper={report.crude_upper:g} "
          f"conclusion={report.conclusion}")
    if report.num_uncertified:
        print(f"uncertified_classes={report.num_uncertified}")
    if args.n == 5:
        cmp = compare_with_reference([c.w for c in report.classes])
        if not cmp.exact:
            print(f"note: {cmp.summary()}")
    _write_out(args, report.to_json())
    return 0 if report.complete else 1


def cmd_witness(args) -> int:
    if not args.tridiagonal:
        print("witness: --tridiagonal is the only implemented family", file=sys.stderr)
        return 2
    report = experiments.tridiagonal_witness(args.n, args.seed)
    for desc, ok in report.claims:
        print(f"[{'ok' if ok else 'FAIL'}] {desc}")
    if report.negative_window:
        lo, hi = report.negative_window
        print(f"negative_window=({lo:.6f}, {hi:.6f})")
    print(f"min_value={report.min_value:.6g} at t={report.argmin_t:g}")
    print(f"empirical_critexp={report.empirical_critexp:.6f}")
    _write_out(args, report.to_json())
    return 0 if report.verified else 1


def cmd_scan(args) -> int:
    A = _read_matrix(args.file, args.sym_tol)
    scan = ScanConfig(t_min=args.t_min, t_max=args.t_max, step=args.step)
    if args.entry:
        entries = []
        for pair in args.entry:
            try:
                i_s, j_s = pair.split(",")
                i, j = int(i_s), int(j_s)
            except ValueError:
                print(f"scan: bad --entry {pair!r}, expected i,j", file=sys.stderr)
                return 2
            if not (1 <= i <= A.n and 1 <= j <= A.n):
                print(f"scan: entry ({i},{j}) out of range for n={A.n}", file=sys.stderr)
                return 2
            entries.append((i - 1, j - 1))
    else:
        entries = [(i, j) for i in range(A.n) for j in range(i, A.n)]
    text = emit_scan(A, scan, entries)
    if args.out:
        _write_out(args, text)
    else:
        sys.stdout.write(text)
    return 0


def emit_scan(A: SymMatrix, scan: ScanConfig, entries) -> str:
    """CSV of entry values along the grid: header t,i,j,value, 1-based
    indices, 17 significant digits."""
    dec = spectral_decompose(A)
    ts = scan.grid()
    vals = grid_entry_values(dec, ts)
    lines = ["t,i,j,value"]
    for a, t in enumerate(ts):
        for i, j in entries:
            lines.append(f"{t:.17g},{i + 1},{j + 1},{vals[i, j, a]:.17g}")
    return "\n".join(lines) + "\n"


def cmd_search(args) -> int:
    summary = experiments.search_critical_exponent(args.n, args.trials, args.seed,
                                                   family=args.family)
    print(f"n={summary.n} trials={summary.trials} family={summary.family} "
          f"max_found={summary.max_found:.6f} (trial {summary.argmax_trial}, "
          f"{summary.argmax_distinct_eigenvalues} distinct eigenvalues)")
    print(f"crude_bound={crude_bound(args.n):g} lower_bound={lower_bound(args.n):g}")
    for lo, hi, count in summary.histogram:
        if count:
            print(f"  [{lo:4.1f}, {hi:4.1f}): {count}")
    _write_out(args, summary.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dncrit",
        description="Critical exponents of doubly nonnegative matrices under "
                    "real spectral powers: checks, bounds, certificates, scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write machine output (JSON/CSV/text) to this path")

    def add_file(p):
        p.add_argument("file")
        p.add_argument("--sym-tol", type=_tolerance, default=SYM_TOL,
                       help="relative symmetry tolerance on input (default %(default)g)")
        add_out(p)

    def add_psd_tol(p):
        p.add_argument("--psd-tol", type=_tolerance, default=PSD_TOL,
                       help="relative eigenvalue clamp tolerance (default %(default)g)")

    p = sub.add_parser("check", help="doubly-nonnegative check of a matrix file")
    add_file(p)
    add_psd_tol(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("power", help="real matrix power A^t in matrix text format")
    add_file(p)
    p.add_argument("--t", type=float, required=True)
    add_psd_tol(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("signchange", help="sign change matrix W of a matrix file")
    add_file(p)
    p.add_argument("--zero-tol", type=_tolerance, default=COEFF_ZERO_TOL,
                   help="relative coefficient zero tolerance (default %(default)g)")
    p.set_defaults(func=cmd_signchange)

    p = sub.add_parser("enumerate", help="enumerate sign patterns / W classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-patterns", action="store_true",
                   help="dump sign patterns as +/- rows instead of W classes")
    add_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", help="per-dimension certificate or entry bounds of one W")
    p.add_argument("--n", type=int)
    p.add_argument("--w-file")
    add_out(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("witness", help="random lower-bound witness run")
    p.add_argument("--tridiagonal", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="CSV of entry values of A^t along a t grid")
    add_file(p)
    p.add_argument("--entry", action="append",
                   help="1-based i,j pair; repeatable; default all i <= j")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP,
                   help="grid step (default %(default)g)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("search", help="randomized hunt for large empirical critical exponents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", choices=experiments.SEARCH_FAMILIES, default="mixed")
    add_out(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MatrixFormatError, NotSymmetricError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
