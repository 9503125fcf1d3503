#!/usr/bin/env python3
"""Regenerate the built-in reference enumerations and the family summary.

Prints every breakpoint-rule and exponent-rule sequence at the chosen
order, marks the cross-family coincidences, and reports distinct counts.
An order outside the family range is a one-line error and exit code 3,
as in the prrseq CLI, and a reader that closes stdout early ends the run
quietly with exit code 0.
"""

import argparse
import os
import sys

from prrseq import RuleKind, enumerate_family, family_union
from prrseq.registers import OrderOutOfRangeError, check_order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    args = parser.parse_args()
    try:
        check_order(args.n, "family")
    except OrderOutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        for label, first, second in (
            ("psi", RuleKind.PSI1, RuleKind.PSI2),
            ("upsilon", RuleKind.UPSILON1, RuleKind.UPSILON2),
        ):
            print(f"== {label} rules, n={args.n} ==")
            reports = [enumerate_family(kind, args.n) for kind in (first, second)]
            for report in reports:
                for e in report.entries:
                    print(f"{e.spec.spec_string():32s} {e.sequence}")
            union = family_union(*reports)
            print(f"-- union: {union.total} sequences, {union.distinct} distinct")
            for a, b in union.collisions:
                print(f"--   {a} == {b}")
            print()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (| head); as in the prrseq CLI, point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
