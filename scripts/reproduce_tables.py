#!/usr/bin/env python3
"""Regenerate the built-in reference enumerations and the family summary.

Prints every breakpoint-rule and exponent-rule sequence at the chosen
order, marks the cross-family coincidences, and reports distinct counts.
"""

import argparse

from prrseq import RuleKind, enumerate_family, family_union


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    args = parser.parse_args()

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


if __name__ == "__main__":
    main()
