"""Acceptance suite: one test per shipping criterion, one line of output
each.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from functools import lru_cache

import pytest

from prrseq import (
    NotPairedError,
    NotSpanningError,
    RuleKind,
    RuleSpec,
    State,
    all_specs,
    classify_state,
    count_cycles,
    decompose,
    enumerate_family,
    extract_tree,
    family_union,
    generate_sequence,
    is_de_bruijn,
    verify_critical_set,
)
from prrseq.canonical import is_conecklace_value, is_necklace_value
from prrseq.cli import ns_per_bit
from prrseq.rules import critical_predicate


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{tail}")


@lru_cache(maxsize=None)
def family(kind, n):
    return enumerate_family(kind, n)


def test_criterion_01_reference_tables_byte_exact(table1_rows, table3_rows):
    t0 = time.perf_counter()
    got1 = [
        generate_sequence(spec).bits
        for kind in (RuleKind.PSI1, RuleKind.PSI2)
        for spec in all_specs(kind, 6)
    ]
    got3 = [
        generate_sequence(spec).bits
        for kind in (RuleKind.UPSILON1, RuleKind.UPSILON2)
        for spec in all_specs(kind, 6)
    ]
    elapsed = time.perf_counter() - t0
    ok = got1 == table1_rows and got3 == table3_rows and elapsed < 1.0
    _line(1, "reference-tables", ok, f"40 rows, {elapsed:.3f}s")
    assert got1 == table1_rows
    assert got3 == table3_rows
    assert elapsed < 1.0


def test_criterion_02_all_specs_generate_de_bruijn():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(3, 12):
        for kind in RuleKind:
            for entry in family(kind, n).entries:
                checked += 1
                if not entry.de_bruijn:
                    bad.append(entry.spec.spec_string())
    elapsed = time.perf_counter() - t0
    _line(2, "de-bruijn-sweep", not bad, f"{checked} specs over n=3..11, {elapsed:.1f}s")
    assert not bad, bad[:5]


def test_criterion_03_family_sizes():
    bad = []
    for n in range(4, 11):
        for kind in (RuleKind.PSI1, RuleKind.UPSILON1):
            if family(kind, n).distinct != 1 << (n - 3):
                bad.append((kind.value, n))
        for kind in (RuleKind.PSI2, RuleKind.UPSILON2):
            if family(kind, n).distinct != math.lcm(*range(1, n - 1)):
                bad.append((kind.value, n))
    _line(3, "family-sizes", not bad, "2^(n-3) and lcm(1..n-2) for n=4..10")
    assert not bad, bad


def test_criterion_04_union_counts_and_overlap_pattern():
    # documented pattern: breakpoint-family entries 1,2,3,8 equal
    # exponent-family entries 2,3,4,1, in both table pairs
    pattern = [(1, 2), (2, 3), (3, 4), (8, 1)]
    extra = (6, 9)  # coincidence the documented count 16 misses
    violations = []
    unions = {}
    for first, second in ((RuleKind.PSI1, RuleKind.PSI2), (RuleKind.UPSILON1, RuleKind.UPSILON2)):
        part1 = [e.sequence for e in family(first, 6).entries]
        part2 = [e.sequence for e in family(second, 6).entries]
        for i, j in pattern:
            if part1[i - 1] != part2[j - 1]:
                violations.append((first.value, i, j))
        if part1[extra[0] - 1] != part2[extra[1] - 1]:
            violations.append((first.value,) + extra)
        unions[first.value] = family_union(family(first, 6), family(second, 6)).distinct
    ok = not violations and unions == {"psi1": 15, "upsilon1": 15}
    _line(
        4,
        "union-counts",
        ok,
        "overlap pattern 1,2,3,8 <-> 2,3,4,1 exact; distinct = 15 per union; "
        "the documented count 16 misses the entry 6 <-> 9 coincidence "
        "(companion xfail records it)",
    )
    assert not violations
    assert unions == {"psi1": 15, "upsilon1": 15}


@pytest.mark.xfail(
    strict=True,
    reason="documented union count is 16, but the reference rows contain a "
    "fifth coincidence (entry 6 = entry 9 in both table pairs), so the true "
    "distinct count is 15",
)
def test_criterion_04_documented_cardinality():
    union = family_union(family(RuleKind.PSI1, 6), family(RuleKind.PSI2, 6))
    assert union.distinct == 16


def test_criterion_05_cycle_counts():
    bad = []
    for n in range(3, 17):
        d = decompose(n)
        c = count_cycles(n)
        if (len(d.pcr_cycles), len(d.ccr_cycles), len(d.cycles)) != tuple(c):
            bad.append(n)
    d6 = decompose(6)
    reps_pcr = [str(c.representative) for c in d6.pcr_cycles]
    reps_ccr = [str(c.representative) for c in d6.ccr_cycles]
    want_pcr = ["000000", "000010", "000110", "001010", "001110", "010110", "011110", "111111"]
    want_ccr = ["000001", "000101", "001001", "010101"]
    ok = not bad and reps_pcr == want_pcr and reps_ccr == want_ccr
    _line(5, "cycle-counts", ok, "closed form vs decompose for n=3..16; 12 reps at n=6")
    assert not bad, bad
    assert reps_pcr == want_pcr
    assert reps_ccr == want_ccr


def run_count(v, n):
    """Number of maximal runs of equal bits in the n-bit value v."""
    return ((v ^ (v >> 1)) & ((1 << (n - 1)) - 1)).bit_count() + 1


def test_criterion_06_cycle_uniformity():
    bad = []
    for n in range(3, 15):
        for cyc in decompose(n).cycles:
            kinds = set()
            counts = set()
            for v in cyc.state_values():
                kinds.add(classify_state(State(v, n)))
                counts.add(run_count(v, n))
            if kinds != {cyc.kind} or len(counts) != 1:
                bad.append((n, str(cyc.representative)))
    c2 = next(c for c in decompose(6).ccr_cycles if str(c.representative) == "000101")
    run_counts = [run_count(v, 6) for v in c2.state_values()]
    ok = not bad and c2.period == 10 and run_counts == [4] * 10
    _line(6, "cycle-uniformity", ok, "kind and run count constant per cycle, n=3..14")
    assert not bad, bad[:5]
    assert run_counts == [4] * 10


def test_criterion_07_critical_set_validation():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(3, 13):
        expected_count = 2 * (count_cycles(n).total - 1)
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                report = verify_critical_set(spec)
                checked += 1
                root = str(report.root_representative)
                want_root = "1" * n if kind.value.startswith("upsilon") else "0" * n
                if (
                    not report.ok
                    or report.deviation_count != expected_count
                    or root != want_root
                ):
                    bad.append(spec.spec_string())
    # negative control: mutated predicates must be rejected
    spec = RuleSpec.parse("psi2:n=6:k=1")
    base = critical_predicate(spec)
    control_ok = True
    try:
        extract_tree(spec, lambda v: base(v) ^ (v == 0b000011))
        control_ok = False
    except NotPairedError:
        pass
    try:
        extract_tree(spec, lambda v: base(v) and v not in (0b000000, 0b100000))
        control_ok = False
    except NotSpanningError:
        pass
    elapsed = time.perf_counter() - t0
    _line(
        7,
        "critical-set-validation",
        not bad and control_ok,
        f"{checked} specs over n=3..12, roots and counts exact, {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert control_ok


def test_criterion_08_canonical_predicates_vs_brute_force():
    t0 = time.perf_counter()
    flip = str.maketrans("01", "10")
    bad = []
    for m in range(1, 17):
        for v in range(1 << m):
            s = format(v, f"0{m}b")
            doubled = s + s
            brute_neck = s == min(doubled[i : i + m] for i in range(m))
            co = (s + s.translate(flip)) * 2
            brute_cone = all(s <= co[i : i + m] for i in range(2 * m))
            if is_necklace_value(v, m) != brute_neck or is_conecklace_value(v, m) != brute_cone:
                bad.append(s)
    elapsed = time.perf_counter() - t0
    _line(8, "canonical-oracles", not bad, f"all 2^1..2^16 states, {elapsed:.1f}s")
    assert not bad, bad[:5]


def test_criterion_09_per_bit_cost_scales_linearly():
    orders = (8, 16, 32, 64)
    sala = {n: ns_per_bit(RuleSpec(RuleKind.SALA, n), 1 << 15, 3) for n in orders}
    psi2 = {
        n: ns_per_bit(RuleSpec(RuleKind.PSI2, n, k=math.lcm(*range(1, n - 1))), 1 << 15, 3)
        for n in orders
    }
    print(f"\n{'n':>4s} {'sala ns/bit':>12s} {'psi2 ns/bit':>12s}")
    for n in orders:
        print(f"{n:>4d} {sala[n]:>12.1f} {psi2[n]:>12.1f}")
    sala_ratio = sala[64] / sala[8]
    psi2_ratio = psi2[64] / psi2[8]
    ok = sala_ratio <= 16 and psi2_ratio <= 16
    detail = (
        f"sala {sala[8]:.0f}->{sala[64]:.0f} ns/bit ratio {sala_ratio:.1f}; "
        f"psi2 {psi2[8]:.0f}->{psi2[64]:.0f} ns/bit ratio {psi2_ratio:.1f}"
    )
    _line(9, "per-bit-scaling", ok, detail)
    assert sala_ratio <= 16, detail
    assert psi2_ratio <= 16, detail


def test_criterion_10_sala_rule_end_to_end():
    bad = []
    for n in range(3, 13):
        spec = RuleSpec(RuleKind.SALA, n)
        bits = generate_sequence(spec).bits
        if not is_de_bruijn(bits, n):
            bad.append(f"sala:n={n} sequence")
        report = verify_critical_set(spec)
        if not report.ok or str(report.root_representative) != "0" * n:
            bad.append(f"sala:n={n} critical set")
    _line(10, "sala-end-to-end", not bad, "de Bruijn + validated critical set, n=3..12")
    assert not bad, bad
