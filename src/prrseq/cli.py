"""Command-line interface.

Exit codes: 0 success (also when the reader closes stdout early), 1 a
checked property failed, 2 malformed input or arguments, or a file that
cannot be read or written, 3 a documented invariant was violated (order
out of range, parameters outside the rule's domain, a run longer than
MAX_BITS, and so on).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import deque
from typing import Optional

from .core import State
from .jointree import NotPairedError, NotSpanningError, verify_critical_set
from .oracle import LengthMismatchError, enumerate_family, find_repeated_window
from .registers import ORDER_LIMITS, OrderOutOfRangeError, check_order, decompose
from .rules import InvalidSpecError, RuleKind, RuleSpec, SpecSyntaxError, _bit_text, generate

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3

_KIND_CHOICES = [k.value for k in RuleKind]

# The longest run generate or bench starts: a full period at the largest
# order whose full period verify can check.
MAX_BITS = 1 << ORDER_LIMITS["window"][1]


def _check_bits(bits: int, what: str) -> None:
    if bits > MAX_BITS:
        raise OrderOutOfRangeError(f"{what} must be at most {MAX_BITS} bits, got {bits}")


def _write_out(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n" if text else "")
    elif text:
        print(text)


def cmd_generate(args) -> int:
    spec = RuleSpec.parse(args.spec)
    if args.start is not None:
        if len(args.start) != spec.n or args.start.strip("01"):
            raise SpecSyntaxError(
                f"start must be exactly {spec.n} bits over 0/1, got {args.start!r}"
            )
        start = State.from_string(args.start)
    else:
        start = State(0, spec.n)
    count = args.count if args.count is not None else 1 << spec.n
    if count < 0:
        raise SpecSyntaxError(f"count must be >= 0, got {count}")
    _check_bits(count, "--count (default 2^n)")
    if count == 0:
        _write_out("", args.out)
        return EXIT_OK
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        cyclic = args.format == "cyclic"
        sink.write("(" if cyclic else "")
        sink.writelines(_bit_text(generate(spec, start, count)))
        sink.write(")\n" if cyclic else "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    check_order(args.n, "window")
    if args.file:
        with open(args.file) as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    bits = "".join(raw.split())
    del raw  # the scan below holds one copy of the input, not two
    if bits.strip("01"):
        print("error: input may contain only 0, 1 and whitespace", file=sys.stderr)
        return EXIT_PARSE
    if len(bits) != 1 << args.n:
        print(
            f"error: order {args.n} needs {1 << args.n} bits, got {len(bits)}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    repeat = find_repeated_window(bits, args.n)
    if repeat is None:
        print(f"ok: all {1 << args.n} windows of order {args.n} are distinct")
        return EXIT_OK
    print(f"fail: window {repeat[1]} repeats at position {repeat[0]}")
    return EXIT_PROPERTY


def cmd_decompose(args) -> int:
    _write_out(decompose(args.n).to_text(), args.out)
    return EXIT_OK


def cmd_family(args) -> int:
    report = enumerate_family(RuleKind(args.kind), args.n)
    _write_out(report.to_csv(), args.out)
    ok = all(e.de_bruijn for e in report.entries) and report.distinct == report.expected
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_table(args) -> int:
    kinds = (
        (RuleKind.PSI1, RuleKind.PSI2)
        if args.which == "table1"
        else (RuleKind.UPSILON1, RuleKind.UPSILON2)
    )
    lines = [e.sequence for kind in kinds for e in enumerate_family(kind, args.n).entries]
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


def cmd_tree(args) -> int:
    spec = RuleSpec.parse(args.spec)
    report = verify_critical_set(spec)
    _write_out(report.tree.to_dot(), args.out)
    if not report.ok:
        for line in report.failures:
            print(f"fail: {line}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def ns_per_bit(spec: RuleSpec, bits: int, repeat: int, start: int = 0) -> float:
    """Generation cost from the state start (all zeros by default) in ns
    per bit: the least of repeat timed runs of bits bits each (both at
    least 1)."""
    times = []
    for _ in range(repeat):
        stream = generate(spec, State(start, spec.n), bits)
        t0 = time.perf_counter_ns()
        deque(stream, maxlen=0)
        times.append(time.perf_counter_ns() - t0)
    return min(times) / bits


def cmd_bench(args) -> int:
    spec = RuleSpec.parse(args.spec)
    _check_bits(args.bits * args.repeat, "--bits x --repeat")
    cost = ns_per_bit(spec, args.bits, args.repeat)
    print(f"{spec.spec_string()} bits={args.bits} ns_per_bit={cost:.2f}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prrseq",
        description="de Bruijn sequences from successor rules on the run-length register",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a rule's output bits")
    p.add_argument("--spec", required=True, help="rule spec, e.g. psi2:n=6:k=1")
    p.add_argument("--start", help="start state bits (default: all zeros)")
    p.add_argument("--count", type=int, help="bits to emit (default: 2^n; at most 2^24)")
    p.add_argument("--format", choices=["raw", "cyclic"], default="raw")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a bit string for the de Bruijn property")
    p.add_argument("--n", type=int, required=True, help="window order")
    p.add_argument("--file", help="read bits from file (default: stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="list the register's cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("family", help="enumerate a rule family as CSV")
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("table", help="emit the built-in reference enumerations")
    p.add_argument("--which", choices=["table1", "table3"], required=True)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("tree", help="emit a rule's join tree in DOT format")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("bench", help="time a rule's bit generation")
    p.add_argument("--spec", required=True)
    p.add_argument("--bits", type=_positive_int, default=1 << 15)
    p.add_argument("--repeat", type=_positive_int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout and has what it asked for.  Point stdout
        # at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (SpecSyntaxError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        InvalidSpecError,
        OrderOutOfRangeError,
        NotPairedError,
        NotSpanningError,
        LengthMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
