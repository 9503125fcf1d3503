import io
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prrseq import RuleSpec, find_repeated_window, generate
from prrseq.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(
    *argv, timeout=30, stdin="", cwd=None, program=(sys.executable, "-m", "prrseq")
):
    """The CLI (or another program) in a child process, killed (and the
    test failed) after timeout seconds."""
    return subprocess.run(
        [*program, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=ENV,
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

    @pytest.mark.parametrize(
        "spec, fmt",
        [("psi2:n=10:k=5", "cyclic"), ("upsilon1:n=12:kset=1,4,12", "raw"), ("sala:n=21", "raw")],
    )
    def test_text_matches_the_bits(self, capsys, spec, fmt):
        # 2^17 + 12345 bits: two whole 2^16-bit chunks and a part of one
        count = (1 << 17) + 12345
        code, out, _ = run(
            capsys, "generate", "--spec", spec, "--count", str(count), "--format", fmt
        )
        assert code == 0
        bits = "".join("01"[b] for b in generate(RuleSpec.parse(spec), count=count))
        assert out == (f"({bits})" if fmt == "cyclic" else bits) + "\n"

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

    @pytest.mark.parametrize("count", ["16777217", "1000000000000"])
    def test_count_above_the_bound_exits_3_at_once(self, count):
        proc = run_process("generate", "--spec", "sala:n=6", "--count", count, timeout=20)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: --count (default 2^n) must be at most 16777216 bits, got {count}\n"
        )

    def test_reader_closing_stdout_early_exits_0_quietly(self):
        # 2^20 bits, far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "prrseq", "generate", "--spec", "sala:n=20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
        )
        try:
            assert proc.stdout.read(10) == b"0" * 10
            proc.stdout.close()
            assert proc.wait(timeout=30) == 0
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

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

    def test_scan_starts_holding_one_copy_of_the_input(self, capsys, monkeypatch, tmp_path):
        # the file's text and the bits read from it are 2^18 bytes each;
        # only the bits may be alive when the window scan starts, besides
        # the argument parser's 40 KB or so.  A first run, not traced,
        # makes the imports and caches the command needs.
        seen = []

        def scan(bits, n):
            seen.append(tracemalloc.get_traced_memory()[0])
            return find_repeated_window(bits, n)

        monkeypatch.setattr("prrseq.cli.find_repeated_window", scan)
        src = tmp_path / "bits.txt"
        src.write_text("0" * (1 << 18) + "\n")
        argv = ("verify", "--n", "18", "--file", str(src))
        assert run(capsys, *argv)[0] == 1
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv)
        finally:
            tracemalloc.stop()
        assert code == 1 and out.startswith("fail:")
        assert len(seen) == 2 and 1 << 18 < seen[1] < 1.5 * (1 << 18)

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


    @pytest.mark.parametrize("bits, repeat", [("1000000000", "1"), ("8388608", "3")])
    def test_run_above_the_bound_exits_3_at_once(self, bits, repeat):
        proc = run_process(
            "bench", "--spec", "sala:n=6", "--bits", bits, "--repeat", repeat, timeout=20
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        total = int(bits) * int(repeat)
        assert proc.stderr == (
            f"error: --bits x --repeat must be at most 16777216 bits, got {total}\n"
        )


def readme_examples():
    """(command, expected stdout) for each `$ ...prrseq...` line in the
    README's sh blocks; the expected lines run to the next blank line."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    examples = []
    for block in blocks:
        for chunk in block.split("\n\n"):
            command, *expected = chunk.strip().splitlines()
            if command.startswith("$ ") and "prrseq" in command:
                examples.append((command[2:], "".join(l + "\n" for l in expected)))
    return examples


EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_every_example_is_found(self):
        assert len(EXAMPLES) == 9

    @pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
    def test_example_prints_what_the_readme_shows(self, command, expected):
        python = f"{sys.executable} -m prrseq "
        proc = subprocess.run(
            ["bash", "-o", "pipefail", "-c", re.sub(r"\bprrseq ", python, command)],
            capture_output=True,
            text=True,
            timeout=60,
            env=ENV,
        )
        figure = r"ns_per_bit=\d+\.\d\d$"
        assert re.sub(figure, "", proc.stdout, flags=re.M) == re.sub(
            figure, "", expected, flags=re.M
        )
        assert proc.stderr == ""
        assert proc.returncode == (1 if expected.startswith("fail:") else 0)


class TestReproduceTablesScript:
    SCRIPT = (sys.executable, os.path.join(ROOT, "scripts", "reproduce_tables.py"))

    @pytest.mark.parametrize("n", ["12", "2"])
    def test_order_out_of_range_exits_3(self, n):
        proc = run_process("--n", n, program=self.SCRIPT)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: family order must be in [3, 11], got {n}\n"

    def test_reader_closing_stdout_early_exits_0_quietly(self):
        # unbuffered, so the script is still writing after head has gone
        command = f"PYTHONUNBUFFERED=1 {shlex.join(self.SCRIPT)} | head -1"
        proc = run_process("-o", "pipefail", "-c", command, program=("bash",))
        assert proc.returncode == 0
        assert proc.stdout == "== psi rules, n=6 ==\n"
        assert proc.stderr == ""


# Argument vocabulary for the fuzz test: each subcommand with its required
# flags, some of its optional ones, and now and then an unknown flag or a
# stray word; each flag with good and bad values.  Valid but expensive
# inputs (family --n 9 and up, decompose or tree near their caps, a run
# just under the 2^24-bit bound) are left out, so every call fits a small
# time budget; runs above the bound are in, since they exit 3 at once.
SPECS = [
    "sala:n=6", "psi1:n=6:kset=1,2,6", "psi2:n=7:k=5", "upsilon1:n=8:kset=1,3,8",
    "upsilon2:n=6:k=99", "psi1:n=6:kset=3,1", "kset=3,1", "sala:n=64", "sala:n=25",
    "sala:n=65", "sala:n=0", "psi2:n=6:k=x", "nope:n=6", "sala:n=6:k=1", "",
]
ORDERS = ["3", "6", "8", "12", "2", "25", "65", "-1", "0", "x"]
FLAG_VALUES = {
    "--spec": SPECS,
    "--n": ORDERS,
    "--count": ["0", "12", "65", "-1", "x", "16777217", "1000000000000"],
    "--start": ["010011", "0101", "01x", ""],
    "--format": ["raw", "cyclic", "x"],
    "--kind": ["sala", "psi2", "upsilon1", "nope"],
    "--which": ["table1", "table3", "x"],
    "--bits": ["65", "0", "-1", "x", "1000000000"],
    "--repeat": ["1", "0", "x", "100000000"],
    "--file": ["missing.txt", ".", "out.txt"],
    "--out": ["out.txt", ".", "missing/out.txt"],
}
SUBCOMMAND_FLAGS = {  # (required, optional)
    "generate": (["--spec"], ["--start", "--count", "--format", "--out"]),
    "verify": (["--n"], ["--file"]),
    "decompose": (["--n"], ["--out"]),
    "family": (["--kind", "--n"], ["--out"]),
    "table": (["--which"], ["--n", "--out"]),
    "tree": (["--spec"], ["--out"]),
    "bench": (["--spec"], ["--bits", "--repeat"]),
    "frobnicate": ([], ["--n"]),
}
JUNK = [[], [], [], ["--bogus", "1"], ["x"]]


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_argv_exits_0_to_3_without_a_traceback(self, tmp_path_factory, data):
        command = data.draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)), label="command")
        required, optional = SUBCOMMAND_FLAGS[command]
        flags = required + data.draw(
            st.lists(st.sampled_from(optional), unique=True), label="flags"
        )
        argv = [command]
        for flag in flags:
            argv += [flag, data.draw(st.sampled_from(FLAG_VALUES[flag]), label=flag)]
        argv += data.draw(st.sampled_from(JUNK), label="junk")
        stdin = data.draw(st.sampled_from(["", "0011", "0001011100", "01x1"]), label="stdin")
        cwd = tmp_path_factory.mktemp("fuzz")  # relative --out and --file land here
        proc = run_process(*argv, timeout=20, stdin=stdin, cwd=cwd)
        assert proc.returncode in (0, 1, 2, 3), argv
        assert "Traceback" not in proc.stderr, argv
