"""End-to-end command-line interface tests, run in-process via main(argv)."""

import hashlib
import itertools
import json

import numpy as np
import pytest

import dncrit as dc
from dncrit.cli import main
from dncrit.matcore import parse_matrix


def write_matrix(path, rows):
    n = len(rows)
    lines = [str(n)] + [" ".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def dn_file(tmp_path):
    return write_matrix(tmp_path / "dn.txt", [[2.0, 1.0], [1.0, 2.0]])


@pytest.fixture
def tridiag4_file(tmp_path):
    a = np.diag([2.0] * 4) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)
    return write_matrix(tmp_path / "t4.txt", a.tolist())


@pytest.fixture
def non_psd_file(tmp_path):
    return write_matrix(tmp_path / "npsd.txt", [[1.0, 2.0], [2.0, 1.0]])


class TestCheck:
    def test_dn_exit_zero(self, dn_file, capsys):
        assert main(["check", dn_file]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out
        assert "dn=True" in out
        assert "nonnegative=True" in out

    def test_non_psd_exit_one(self, non_psd_file, capsys):
        assert main(["check", non_psd_file]) == 1
        out = capsys.readouterr().out
        assert "psd=False" in out
        assert "dn=False" in out

    def test_json_out(self, dn_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["check", dn_file, "--out", str(out_path)]) == 0
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        assert list(data) == ["n", "is_nonnegative", "is_psd", "is_dn", "min_entry",
                              "min_eigenvalue", "is_invertible", "is_irreducible",
                              "num_distinct_eigenvalues"]
        assert data["n"] == 2
        assert data["is_dn"] is True
        assert data["num_distinct_eigenvalues"] == 2

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/matrix.txt"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_asymmetric_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n3 4\n")
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n")
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err


class TestPower:
    def test_square(self, dn_file, capsys):
        assert main(["power", dn_file, "--t", "2"]) == 0
        out = parse_matrix(capsys.readouterr().out)
        assert np.allclose(out.entries, [[5.0, 4.0], [4.0, 5.0]], atol=1e-10)

    def test_identity_power_zero(self, dn_file, capsys):
        assert main(["power", dn_file, "--t", "0"]) == 0
        out = parse_matrix(capsys.readouterr().out)
        assert out.entries == pytest.approx(np.eye(2), abs=1e-12)

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_t_rejected(self, dn_file, capsys, t):
        assert main(["power", dn_file, "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert captured.out == ""

    def test_out_file(self, dn_file, tmp_path, capsys):
        out_path = tmp_path / "pow.txt"
        assert main(["power", dn_file, "--t", "0.5", "--out", str(out_path)]) == 0
        capsys.readouterr()
        out = parse_matrix(out_path.read_text())
        assert np.allclose(out.entries @ out.entries, [[2, 1], [1, 2]], atol=1e-10)


class TestSignChange:
    def test_tridiag4(self, tridiag4_file, capsys):
        assert main(["signchange", tridiag4_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("4\n")
        assert "0 1 2 3" in out
        assert "generic=True" in out
        assert "structure=ok" in out

    def test_w_out(self, dn_file, tmp_path, capsys):
        out_path = tmp_path / "w.txt"
        assert main(["signchange", dn_file, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.read_text() == "2\n0 1\n1 0\n"


def _first_mismatch(got, expected):
    """None when the texts are equal, else (line number, got line, expected
    line) of the first difference: cheap to report for long texts."""
    pairs = itertools.zip_longest(got.splitlines(True), expected.splitlines(True))
    return next(((k, g, e) for k, (g, e) in enumerate(pairs, 1) if g != e), None)


class TestEnumerate:
    def test_classes_n3(self, capsys):
        assert main(["enumerate", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "n=3: 1 sign-change classes" in out
        assert "0 1 1\n1 0 2\n1 2 0" in out

    def test_patterns_n2(self, capsys):
        assert main(["enumerate", "--n", "2", "--emit-patterns"]) == 0
        out = capsys.readouterr().out
        assert "n=2: 1 sign patterns" in out
        assert "++\n+-" in out

    def test_patterns_n4_text(self, tmp_path, capsys):
        # the patterns' +/- rows with a blank line between two patterns,
        # written to stdout or to --out one pattern at a time
        pats = list(dc.enumerate_sign_patterns(4))
        head = f"n=4: {len(pats)} sign patterns\n"
        body = "\n\n".join("\n".join(p.rows_text()) for p in pats) + "\n"
        assert main(["enumerate", "--n", "4", "--emit-patterns"]) == 0
        assert _first_mismatch(capsys.readouterr().out, head + body) is None
        out_path = tmp_path / "patterns.txt"
        assert main(["enumerate", "--n", "4", "--emit-patterns", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == head
        assert _first_mismatch(out_path.read_text(), body) is None

    def test_patterns_too_large(self, capsys):
        assert main(["enumerate", "--n", "7", "--emit-patterns"]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""

    def test_n5_reports_discrepancy(self, capsys):
        assert main(["enumerate", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "n=5: 22 sign-change classes" in out
        assert "DISCREPANCY" in out
        assert "extra (enumerated, not in reference):" in out
        assert "missing (in reference, not enumerated):" not in out
        assert "0 2 2 2 3" in out

    def test_too_large(self, capsys):
        assert main(["enumerate", "--n", "9"]) == 2
        assert "error" in capsys.readouterr().err


class TestCertify:
    def test_n4(self, capsys):
        assert main(["certify", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "classes=4" in out
        assert "certified_upper=2" in out
        assert "conclusion=m(4) = 2" in out

    def test_n5_notes_reference_gap(self, capsys):
        assert main(["certify", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "conclusion=m(5) = 3" in out
        assert "note:" in out

    def test_w_file_bounded(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        assert main(["certify", "--w-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max_bound=1" in out

    def test_w_file_unbounded(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        rows = [[0] * 6 for _ in range(6)]
        rows[0][1] = rows[1][0] = 5
        path.write_text("6\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        assert main(["certify", "--w-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unbounded" in out

    @pytest.mark.parametrize("text", ["inf\n", "nan\n", "2\n0 inf\ninf 0\n"])
    def test_w_file_non_finite_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "w.txt"
        path.write_text(text)
        assert main(["certify", "--w-file", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["certify"]) == 2
        path = tmp_path / "w.txt"
        path.write_text("2\n0 1\n1 0\n")
        assert main(["certify", "--n", "3", "--w-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err


class TestWitness:
    def test_verified(self, capsys):
        assert main(["witness", "--tridiagonal", "--n", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4
        assert "[FAIL]" not in out
        assert "negative_window=(" in out
        assert "empirical_critexp=2.0" in out

    def test_family_required(self, capsys):
        assert main(["witness", "--n", "4", "--seed", "0"]) == 2
        assert "--tridiagonal" in capsys.readouterr().err

    def test_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "w.json"
        assert main(["witness", "--tridiagonal", "--n", "3", "--seed", "2",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        assert data["verified"] is True


class TestScan:
    def test_single_entry_values(self, dn_file, capsys):
        assert main(["scan", dn_file, "--entry", "1,1",
                     "--t-min", "2", "--t-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,i,j,value"
        assert len(lines) == 2
        t, i, j, value = lines[1].split(",")
        assert (float(t), int(i), int(j)) == (2.0, 1, 1)
        assert float(value) == pytest.approx(5.0, abs=1e-10)

    def test_default_upper_triangle(self, dn_file, capsys):
        assert main(["scan", dn_file, "--t-min", "0", "--t-max", "1",
                     "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # 3 grid points x 3 entries (1,1),(1,2),(2,2)
        assert len(lines) == 1 + 9
        assert lines[1].startswith("0,1,1,")

    def test_negative_witness_value(self, tridiag4_file, capsys):
        assert main(["scan", tridiag4_file, "--entry", "1,4",
                     "--t-min", "1.5", "--t-max", "1.5"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[3])
        assert value < 0

    def test_bad_entry_syntax(self, dn_file, capsys):
        assert main(["scan", dn_file, "--entry", "1;1"]) == 2
        assert "bad --entry" in capsys.readouterr().err

    def test_entry_out_of_range(self, dn_file, capsys):
        assert main(["scan", dn_file, "--entry", "3,1"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("settings_", [
        ["--step", "0"], ["--step", "-0.5"], ["--t-min", "5", "--t-max", "1"],
        ["--t-min", "nan"], ["--step", "inf"], ["--t-max", "inf"],
    ])
    def test_settings_without_a_scan_rejected(self, dn_file, capsys, settings_):
        assert main(["scan", dn_file, *settings_]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""

    def test_csv_out(self, dn_file, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", dn_file, "--entry", "1,2", "--t-min", "0",
                     "--t-max", "2", "--out", str(out_path)]) == 0
        capsys.readouterr()
        body = out_path.read_text()
        assert body.startswith("t,i,j,value\n")
        assert len(body.strip().splitlines()) == 1 + 201


class TestSearch:
    def test_small_run(self, capsys):
        assert main(["search", "--n", "3", "--trials", "3", "--seed", "0",
                     "--family", "gram"]) == 0
        out = capsys.readouterr().out
        assert "n=3 trials=3 family=gram" in out
        assert "crude_bound=1" in out

    def test_bad_family(self, capsys):
        assert main(["search", "--n", "3", "--trials", "1", "--seed", "0",
                     "--family", "dense"]) == 2

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_small_n(self, n, capsys):
        assert main(["search", "--n", n, "--trials", "3", "--seed", "0",
                     "--family", "gram"]) == 2
        assert f"error: search needs n >= 2, got n={n}" in capsys.readouterr().err

    # sha256 of the --out JSON, computed before the scan moved to array run
    # detection and one power table per matrix; the scan must not move a bit
    @pytest.mark.parametrize("n, digest", [
        (5, "acbcb0470618e1e5752129a9855942486204343293dad378303b77df075ceef9"),
        (6, "a2ffe2c58cdf4df53d77d48f602152492941e1072bd2225db0e75877f11d9681"),
    ], ids=["n5", "n6"])
    def test_json_pinned(self, n, digest, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert main(["search", "--n", str(n), "--trials", "100", "--seed", "0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTopLevel:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "dncrit" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "3", "--trials", "1", "--seed", "0", "--psd-tol", "1"],
        ["search", "--n", "3", "--trials", "1", "--seed", "0", "--zero-tol", "1"],
        ["enumerate", "--n", "3", "--sym-tol", "1"],
        ["certify", "--n", "3", "--psd-tol", "1"],
        ["witness", "--tridiagonal", "--n", "3", "--seed", "0", "--zero-tol", "1"],
        ["check", "DN", "--zero-tol", "1"],
        ["power", "DN", "--t", "2", "--zero-tol", "1"],
        ["signchange", "DN", "--psd-tol", "1"],
        ["scan", "DN", "--psd-tol", "1"],
        ["check", "DN", "--threads", "2"],
        ["scan", "DN", "--endpoint-tol", "0"],
        ["scan", "DN", "--entry-tol", "-1"],
    ])
    def test_flag_a_subcommand_does_not_read_rejected(self, dn_file, capsys, argv):
        assert main([dn_file if a == "DN" else a for a in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "DN", "--sym-tol", "1e-9", "--psd-tol", "1e-9"],
        ["power", "DN", "--t", "2", "--sym-tol", "1e-9", "--psd-tol", "1e-9"],
        ["signchange", "DN", "--sym-tol", "1e-9", "--zero-tol", "1e-9"],
        ["scan", "DN", "--sym-tol", "1e-9", "--t-max", "1"],
        ["check", "DN", "--sym-tol", "0", "--psd-tol", "0"],
    ])
    def test_tolerance_flags_accepted_where_read(self, dn_file, capsys, argv):
        assert main([dn_file if a == "DN" else a for a in argv]) == 0

    @pytest.mark.parametrize("argv", [
        ["check", "DN", "--psd-tol", "nan"],
        ["check", "DN", "--psd-tol=-1e-10"],
        ["check", "DN", "--sym-tol", "-1"],
        ["check", "DN", "--sym-tol", "inf"],
        ["power", "DN", "--t", "2", "--psd-tol", "inf"],
        ["power", "DN", "--t", "2", "--sym-tol", "nan"],
        ["signchange", "DN", "--zero-tol", "nan"],
        ["signchange", "DN", "--zero-tol", "-1"],
        ["scan", "DN", "--sym-tol=-inf"],
    ])
    def test_tolerance_flags_need_finite_nonnegative(self, dn_file, capsys, argv):
        assert main([dn_file if a == "DN" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert "tolerance must be finite and >= 0" in captured.err
        assert captured.out == ""

