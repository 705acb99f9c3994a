"""End-to-end command-line interface tests, run in-process via main(argv)."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import dncrit as dc
from dncrit.cli import emit_scan, main
from dncrit.exppoly import ScanConfig, grid_entry_values
from dncrit.matcore import NegativeEigenvalueError, _grid_rows, _power_table, parse_matrix


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

    def test_overflowing_power_is_an_error(self, dn_file, capsys):
        # the input is fine; 3^1e5 is not a float64
        assert main(["power", dn_file, "--t", "1e5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: A^t is not finite in float64 at t=100000.0\n"
        assert captured.out == ""

    def test_power_just_below_float64_max(self, tmp_path, capsys):
        # 3^646 ~ 1.66e308 is a float64: printed as a number, not inf
        path = write_matrix(tmp_path / "d.txt", [[3.0, 0.0], [0.0, 1.0]])
        assert main(["power", path, "--t", "646"]) == 0
        out = parse_matrix(capsys.readouterr().out)
        assert out.entries[0, 0] == pytest.approx(3.0 ** 646, rel=1e-12)

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

    @pytest.mark.parametrize("rows, code, top, text", [
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0, 1.0, "max_bound=1"),
        ([[0, 5, 0, 0, 0, 0], [5, 0, 0, 0, 0, 0]] + [[0] * 6] * 4, 1, "unbounded",
         "max_bound=unbounded"),
    ], ids=["bounded", "unbounded"])
    def test_w_file_json_carries_max_bound(self, tmp_path, capsys, rows, code, top, text):
        # the --out JSON of one W has the max_bound its summary prints, in the
        # form each class of a --n certificate has it
        path, out = tmp_path / "w.txt", tmp_path / "w.json"
        path.write_text(f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        assert main(["certify", "--w-file", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().out.splitlines()[-1] == text
        data = json.loads(out.read_text())
        assert data["max_bound"] == top
        certified = json.loads(dc.certify_dimension(3).to_json())["classes"][0]
        assert certified.keys() <= data.keys()

    @pytest.mark.parametrize("text", ["inf\n", "nan\n", "2\n0 inf\ninf 0\n"])
    def test_w_file_non_finite_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "w.txt"
        path.write_text(text)
        assert main(["certify", "--w-file", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n0 1\n1 0\n")
        for argv in (["certify"], ["certify", "--n", "3", "--w-file", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()[-1]
            assert "--n" in err and "--w-file" in err


class TestWitness:
    def test_verified(self, capsys):
        assert main(["witness", "--tridiagonal", "--n", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4
        assert "[FAIL]" not in out
        assert "negative_window=(" in out
        assert "empirical_critexp=2.0" in out

    def test_unresolved_witness_is_an_error(self, capsys):
        # float64 cannot resolve this draw: no report, no [FAIL] claims
        assert main(["witness", "--tridiagonal", "--n", "17", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: witness n=17 seed=0")

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

    def test_overflowing_power_is_an_error(self, dn_file, capsys):
        # 3^1000 is not a float64; no value is written
        assert main(["scan", dn_file, "--t-min", "1000", "--t-max", "1000",
                     "--entry", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: A^t is not finite in float64 at t=1000.0\n"
        assert captured.out == ""

    def test_unallocatable_grid_is_an_error(self, dn_file, capsys):
        # 1e17 grid points: no machine can allocate them, and exit 1 is
        # reserved for a failed verification
        assert main(["scan", dn_file, "--step", "1e-16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_csv_out(self, dn_file, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", dn_file, "--entry", "1,2", "--t-min", "0",
                     "--t-max", "2", "--out", str(out_path)]) == 0
        capsys.readouterr()
        body = out_path.read_text()
        assert body.startswith("t,i,j,value\n")
        assert len(body.strip().splitlines()) == 1 + 201


def _emit_scan_joined(A, scan, entries):
    """The ``emit_scan`` that joined the whole CSV in memory, its values held
    as Python floats; the streamed one must write the same bytes."""
    dec = dc.spectral_decompose(A)
    ts = scan.grid()
    powed = _power_table(dec.clamped_eigenvalues, ts, dec.singular)
    vals = {}
    for i in dict.fromkeys(i for i, _ in entries):
        row = _grid_rows(dec.eigenvectors, powed, slice(i, i + 1))[0]
        vals.update({(i, j): row[j].tolist() for r, j in entries if r == i})
    lines = ["t,i,j,value"]
    for a, t in enumerate(ts):
        for i, j in entries:
            lines.append(f"{t:.17g},{i + 1},{j + 1},{vals[i, j][a]:.17g}")
    return "\n".join(lines) + "\n"


def _emit_scan_full_grid(A, scan, entries):
    """The ``emit_scan`` that built the whole (n, n, T) grid to print a few
    entries of it; the row-at-a-time one must write the same bytes."""
    ts = scan.grid()
    vals = grid_entry_values(dc.spectral_decompose(A), ts)
    lines = ["t,i,j,value"]
    for a, t in enumerate(ts):
        for i, j in entries:
            lines.append(f"{t:.17g},{i + 1},{j + 1},{vals[i, j, a]:.17g}")
    return "\n".join(lines) + "\n"


class TestScanRows:
    """``dncrit scan --entry`` computes only the requested rows."""

    @pytest.mark.parametrize("entries", [
        [(0, 0)], [(0, 5), (5, 0)], [(3, 2), (0, 0), (3, 2), (5, 5), (3, 4)],
        [(i, j) for i in range(6) for j in range(i, 6)],
        [(i, j) for i in range(6) for j in range(6)],
    ])
    @pytest.mark.parametrize("rank", [6, 3])
    def test_csv_matches_full_grid(self, entries, rank):
        # rank 3 is singular: its zero eigenvalue adds 0^0 = 1 at t = 0; the
        # streamed CSV is also byte for byte the joined one
        A = dc.random_dn(6, rank, 2)
        assert dc.spectral_decompose(A).singular == (rank < 6)
        for scan in (ScanConfig(), ScanConfig(t_min=0.37, t_max=4.2, step=0.03),
                     ScanConfig(t_min=2.0, t_max=2.0)):
            got = "".join(emit_scan(A, scan, entries))
            assert got == _emit_scan_full_grid(A, scan, entries) == _emit_scan_joined(
                A, scan, entries)

    def test_memory_is_bounded(self):
        # the whole (100, 100, 1001) grid is 80 MB
        A = dc.random_dn(100, 100, 0)
        tracemalloc.start()
        try:
            "".join(emit_scan(A, ScanConfig(), [(0, 0)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6


class TestScanStream:
    """``dncrit scan`` writes its CSV one grid point at a time, byte for byte
    what the joined CSV was (also checked in ``TestScanRows``)."""

    def test_cli_output_is_the_stream(self, tmp_path, capsys):
        A = dc.random_dn(5, 3, 1)
        path = write_matrix(tmp_path / "a.txt", A.entries.tolist())
        out_path = tmp_path / "scan.csv"
        args = ["scan", path, "--t-max", "2", "--step", "0.25"]
        assert main(args) == 0 and main(args + ["--out", str(out_path)]) == 0
        entries = [(i, j) for i in range(5) for j in range(i, 5)]
        expected = _emit_scan_joined(parse_matrix((tmp_path / "a.txt").read_text()),
                                     ScanConfig(t_max=2.0, step=0.25), entries)
        assert capsys.readouterr().out == expected == out_path.read_text()

    def test_memory_is_one_value_table(self):
        # n = 30, default window: 465 entries x 1,001 points, a 19.5 MB CSV;
        # joined, the lines and their Python floats peaked near 96 MB
        A = dc.random_dn(30, 30, 0)
        entries = [(i, j) for i in range(30) for j in range(i, 30)]
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            for chunk in emit_scan(A, ScanConfig(), entries):
                digest.update(chunk.encode())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        assert digest.hexdigest() == hashlib.sha256(
            _emit_scan_joined(A, ScanConfig(), entries).encode()).hexdigest()


class TestOnePsdRule:
    """Every command accepts the same matrices: an eigenvalue inside the PSD
    band is a zero eigenvalue, and one below it is rejected by all alike."""

    @staticmethod
    def _file(tmp_path, rel):
        """A DN-looking file with eigenvalues 3, 1 and rel * 3."""
        v, w, z = (np.array(x) / np.linalg.norm(x) for x in ([1, 1, 1], [1, -1, 0], [1, 1, -2]))
        path = write_matrix(tmp_path / "a.txt",
                            (3 * np.outer(v, v) + np.outer(w, w) + 3 * rel * np.outer(z, z)).tolist())
        with open(path) as fh:
            dec = dc.spectral_decompose(parse_matrix(fh.read()))
        assert dec.eigenvalues[-1] == pytest.approx(3 * rel, rel=1e-3)
        return path, dec

    @staticmethod
    def _powering_commands(path):
        return (["power", path, "--t", "0.5"], ["signchange", path],
                ["scan", path, "--t-max", "1"])

    def test_inside_the_band(self, tmp_path, capsys):
        path, dec = self._file(tmp_path, -1e-11)
        assert dec.clamped_eigenvalues[-1] == 0.0
        assert main(["check", path]) == 0
        assert "psd=True" in capsys.readouterr().out
        for argv in self._powering_commands(path):
            assert main(argv) == 0

    def test_below_the_band(self, tmp_path, capsys):
        path, dec = self._file(tmp_path, -1e-9)
        with pytest.raises(NegativeEigenvalueError) as exc:
            dec.clamped_eigenvalues
        assert main(["check", path]) == 1
        assert "psd=False" in capsys.readouterr().out
        for argv in self._powering_commands(path):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {exc.value}\n")


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
    # detection and one power table per matrix (mixed), and before each
    # trial's draw rule moved into one helper (gram, tridiagonal); the scan
    # and the draws must not move a bit
    @pytest.mark.parametrize("n, family, digest", [
        (5, "mixed", "acbcb0470618e1e5752129a9855942486204343293dad378303b77df075ceef9"),
        (6, "mixed", "a2ffe2c58cdf4df53d77d48f602152492941e1072bd2225db0e75877f11d9681"),
        (5, "gram", "da9bc05bd857ee846c9fc373b0fcbd6a467f1fbccb935fe87d63ff40bed5afd0"),
        (5, "tridiagonal", "238c57419ff17a6f611ab3fb0a8077b1de49c837b98c842149e62333cf09b118"),
    ], ids=["n5", "n6", "gram-n5", "tridiagonal-n5"])
    def test_json_pinned(self, n, family, digest, tmp_path, capsys):
        out = tmp_path / "search.json"
        argv = ["search", "--n", str(n), "--trials", "100", "--seed", "0", "--out", str(out)]
        if family != "mixed":  # the default family
            argv += ["--family", family]
        assert main(argv) == 0
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
        ["signchange", "DN", "--zero-tol", "1e-9"],
        ["signchange", "DN", "--zero-tol", "nan"],
        ["signchange", "DN", "--zero-tol", "-1"],
        ["check", "DN", "--sym-tol", "1e-9", "--psd-tol", "1e-9"],
        ["power", "DN", "--t", "2", "--sym-tol", "1e-9", "--psd-tol", "1e-9"],
        ["signchange", "DN", "--sym-tol", "1e-9"],
        ["scan", "DN", "--sym-tol", "1e-9", "--t-max", "1"],
        ["check", "DN", "--sym-tol", "0", "--psd-tol", "0"],
        ["check", "DN", "--psd-tol", "nan"],
        ["check", "DN", "--psd-tol=-1e-10"],
        ["check", "DN", "--sym-tol", "-1"],
        ["check", "DN", "--sym-tol", "inf"],
        ["power", "DN", "--t", "2", "--psd-tol", "inf"],
        ["power", "DN", "--t", "2", "--sym-tol", "nan"],
        ["signchange", "DN", "--sym-tol", "nan"],
        ["signchange", "DN", "--sym-tol", "-1"],
        ["scan", "DN", "--sym-tol=-inf"],
    ])
    def test_flag_a_subcommand_does_not_read_rejected(self, dn_file, capsys, argv):
        assert main([dn_file if a == "DN" else a for a in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
