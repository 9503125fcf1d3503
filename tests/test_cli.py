import io
import os
import subprocess
import sys

import pytest

from prrseq.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=30):
    """The CLI in a child process, killed (and the test failed) after
    timeout seconds."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prrseq", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def is_one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1


class TestGenerate:
    def test_full_period(self, capsys, table1_rows):
        code, out, _ = run(capsys, "generate", "--spec", "psi1:n=6:kset=1,6")
        assert code == 0
        assert out.strip() == table1_rows[0]

    def test_cyclic_format(self, capsys):
        code, out, _ = run(capsys, "generate", "--spec", "sala:n=4", "--format", "cyclic")
        assert code == 0
        assert out.startswith("(") and out.strip().endswith(")")
        assert len(out.strip()) == 18

    def test_count_and_start(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--spec", "psi2:n=6:k=3", "--start", "010011", "--count", "6"
        )
        assert code == 0
        assert out.strip() == "010011"

    def test_count_zero_is_empty(self, capsys):
        code, out, _ = run(capsys, "generate", "--spec", "sala:n=4", "--count", "0")
        assert code == 0
        assert out == ""

    def test_out_file(self, capsys, tmp_path, table1_rows):
        target = tmp_path / "seq.txt"
        code, out, _ = run(
            capsys, "generate", "--spec", "psi2:n=6:k=1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == table1_rows[8]

    def test_invalid_parameter_exits_3(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "psi2:n=6:k=0")
        assert code == 3
        assert "k must be in" in err

    def test_bad_grammar_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "psi2:n=6")
        assert code == 2
        assert "missing field" in err

    def test_unknown_kind_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "nope:n=6")
        assert code == 2

    def test_bad_start_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "sala:n=6", "--start", "0101")
        assert code == 2
        assert "start" in err

    @pytest.mark.parametrize("n", ["25", "64"])
    def test_full_period_above_the_window_cap_exits_3_at_once(self, n):
        proc = run_process("generate", "--spec", f"sala:n={n}")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert is_one_line_error(proc.stderr)
        assert "--count" in proc.stderr

    def test_explicit_count_works_at_any_order(self, capsys):
        code, out, _ = run(capsys, "generate", "--spec", "upsilon2:n=64:k=7", "--count", "100")
        assert code == 0
        bits = out.strip()
        assert len(bits) == 100 and bits.startswith("0" * 64 + "1")

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "--spec", "sala:n=4", "--bogus"]) == 2


class TestVerify:
    def test_accepts_reference_row(self, capsys, monkeypatch, table3_rows):
        monkeypatch.setattr("sys.stdin", io.StringIO(table3_rows[4]))
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        assert out.startswith("ok:")

    def test_whitespace_ignored(self, capsys, monkeypatch, table1_rows):
        bits = table1_rows[0]
        chunked = "\n".join(bits[i : i + 8] for i in range(0, 64, 8)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(chunked))
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0

    def test_repeated_window_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0" * 64))
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "000000" in out and "position 1" in out

    def test_wrong_length_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0" * 63))
        code, _, err = run(capsys, "verify", "--n", "6")
        assert code == 2
        assert "64 bits" in err

    def test_bad_characters_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0a" * 32))
        code, _, err = run(capsys, "verify", "--n", "6")
        assert code == 2

    def test_file_input(self, capsys, tmp_path, table1_rows):
        src = tmp_path / "bits.txt"
        src.write_text(table1_rows[2] + "\n")
        code, out, _ = run(capsys, "verify", "--n", "6", "--file", str(src))
        assert code == 0

    @pytest.mark.parametrize("n", ["-1", "0", "25"])
    def test_order_out_of_range_exits_3(self, capsys, monkeypatch, n):
        monkeypatch.setattr("sys.stdin", io.StringIO("01"))
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 3
        assert out == ""
        assert is_one_line_error(err)

    def test_round_trip_with_generate(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "generate", "--spec", "upsilon1:n=7:kset=1,4,7")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "verify", "--n", "7")
        assert code == 0


class TestFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "2", "--file", "{missing}"],
            ["verify", "--n", "2", "--file", "{directory}"],
            ["verify", "--n", "2", "--file", "{undecodable}"],
            ["generate", "--spec", "sala:n=4", "--out", "{missing}/x"],
        ],
    )
    def test_unreadable_or_unwritable_file_exits_2(self, capsys, tmp_path, argv):
        undecodable = tmp_path / "bits.txt"
        undecodable.write_bytes(b"\xff\xfe01")
        paths = {
            "missing": tmp_path / "missing",
            "directory": tmp_path,
            "undecodable": undecodable,
        }
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert is_one_line_error(err)


class TestDecompose:
    def test_order_six(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert sum(1 for l in lines if l.startswith("pcr ")) == 8
        assert sum(1 for l in lines if l.startswith("ccr ")) == 4
        assert lines[0] == "pcr 1 (000000)"

    def test_out_of_range_exits_3(self, capsys):
        code, _, err = run(capsys, "decompose", "--n", "2")
        assert code == 3


class TestFamily:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "psi2", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "spec,sequence,de_bruijn"
        assert len(lines) == 14
        assert lines[-1].endswith("distinct=12 expected=12")

    def test_bad_kind_exits_2(self, capsys):
        assert main(["family", "--kind", "nope", "--n", "6"]) == 2

    def test_out_of_range_order_exits_3(self, capsys):
        code, _, _ = run(capsys, "family", "--kind", "sala", "--n", "12")
        assert code == 3


class TestTable:
    def test_table1_byte_identical(self, capsys, table1_rows):
        code, out, _ = run(capsys, "table", "--which", "table1")
        assert code == 0
        assert out.strip().split("\n") == table1_rows

    def test_table3_byte_identical(self, capsys, table3_rows):
        code, out, _ = run(capsys, "table", "--which", "table3")
        assert code == 0
        assert out.strip().split("\n") == table3_rows

    def test_which_is_required(self, capsys):
        assert main(["table"]) == 2

    @pytest.mark.parametrize("n", ["12", "2"])
    def test_order_out_of_range_exits_3_at_once(self, n):
        proc = run_process("table", "--which", "table1", "--n", n)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert is_one_line_error(proc.stderr)


class TestTree:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "tree", "--spec", "upsilon2:n=6:k=0")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 11

    def test_invalid_spec_exits_3(self, capsys):
        code, _, _ = run(capsys, "tree", "--spec", "upsilon2:n=6:k=99")
        assert code == 3


class TestBench:
    def test_reports_rate(self, capsys):
        code, out, _ = run(capsys, "bench", "--spec", "sala:n=8", "--bits", "2000", "--repeat", "1")
        assert code == 0
        assert "ns_per_bit=" in out
        assert "sala:n=8" in out

    @pytest.mark.parametrize("flag, value", [("--bits", "0"), ("--bits", "-5"), ("--repeat", "0")])
    def test_nonpositive_counts_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "bench", "--spec", "sala:n=8", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be >= 1, got {value}" in err
        assert "Traceback" not in err
