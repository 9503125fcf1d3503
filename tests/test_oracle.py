import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prrseq import (
    LengthMismatchError,
    OrderOutOfRangeError,
    RuleKind,
    all_specs,
    enumerate_family,
    exponent_period,
    family_size,
    family_union,
    find_repeated_window,
    is_de_bruijn,
)


def brute_de_bruijn_canonicals(n):
    """All order-n de Bruijn sequences starting with the all-zero window,
    by checking every bit string of length 2^n."""
    size = 1 << n
    found = []
    for x in range(1 << size):
        bits = format(x, f"0{size}b")
        windows = {(bits + bits[:n])[i : i + n] for i in range(size)}
        if len(windows) == size and bits.startswith("0" * n):
            found.append(bits)
    return found


class TestWindowScan:
    def test_small_examples(self):
        assert is_de_bruijn("0011", 2)
        assert is_de_bruijn("0110", 2)
        assert not is_de_bruijn("0101", 2)
        assert is_de_bruijn("01", 1)

    def test_reference_rows(self, table1_rows, table3_rows):
        for bits in table1_rows + table3_rows:
            assert is_de_bruijn(bits, 6)

    def test_first_repeat_reported(self):
        repeat = find_repeated_window("0" * 64, 6)
        assert repeat == (1, "000000")
        repeat = find_repeated_window("0101", 2)
        assert repeat == (2, "01")

    def test_wrap_around_windows_count(self):
        # a window that only repeats across the wrap
        assert find_repeated_window("0011", 2) is None
        assert find_repeated_window("0010", 2) == (3, "00")

    @given(st.integers(0, 63))
    def test_every_rotation_passes(self, r):
        # the scan is cyclic, so where the sequence starts does not matter
        bits = "0000001111110000101111011101000110001001110011011001010110101001"
        rotated = bits[r:] + bits[:r]
        assert is_de_bruijn(rotated, 6)
        assert find_repeated_window(rotated, 6) is None

    def test_every_one_bit_flip_fails(self, table1_rows):
        # a de Bruijn sequence has weight 2^(n-1), so no flip keeps one
        bits = table1_rows[0]
        for i in range(len(bits)):
            flipped = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
            assert not is_de_bruijn(flipped, 6)
            assert find_repeated_window(flipped, 6) is not None

    def test_complement_and_reversal_pass(self, table3_rows):
        for bits in table3_rows:
            assert is_de_bruijn(bits.translate(str.maketrans("01", "10")), 6)
            assert is_de_bruijn(bits[::-1], 6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            is_de_bruijn("0011", 3)

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            is_de_bruijn("00x1", 2)

    def test_order_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            is_de_bruijn("01", 0)
        with pytest.raises(OrderOutOfRangeError):
            is_de_bruijn("01", 25)


class TestLcmRange:
    def test_values(self):
        assert exponent_period(3) == 1
        assert exponent_period(6) == 12
        assert exponent_period(12) == 2520
        assert exponent_period(6) == math.lcm(*range(1, 5))

    @pytest.mark.parametrize("n", range(4, 41))
    def test_dominates_breakpoint_family_size(self, n):
        assert exponent_period(n) >= 1 << (n - 3)


class TestFamilies:
    def test_enumeration_order_of_ksets(self):
        ksets = [s.kset for s in all_specs(RuleKind.PSI1, 6)]
        assert ksets == [
            (1, 6),
            (1, 2, 6),
            (1, 3, 6),
            (1, 4, 6),
            (1, 2, 3, 6),
            (1, 2, 4, 6),
            (1, 3, 4, 6),
            (1, 2, 3, 4, 6),
        ]

    def test_exponent_enumeration_ranges(self):
        psi2 = [s.k for s in all_specs(RuleKind.PSI2, 6)]
        ups2 = [s.k for s in all_specs(RuleKind.UPSILON2, 6)]
        assert psi2 == list(range(1, 13))
        assert ups2 == list(range(0, 12))

    @pytest.mark.parametrize("kind", list(RuleKind))
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_family_sizes_and_distinctness(self, kind, n):
        report = enumerate_family(kind, n)
        assert report.total == family_size(kind, n) == report.expected
        assert report.distinct == report.expected
        assert all(e.de_bruijn for e in report.entries)
        assert report.collisions == ()

    def test_family_size_values(self):
        assert family_size(RuleKind.PSI1, 6) == 8
        assert family_size(RuleKind.PSI2, 6) == 12
        assert family_size(RuleKind.UPSILON1, 9) == 64
        assert family_size(RuleKind.UPSILON2, 9) == 420
        assert family_size(RuleKind.SALA, 9) == 1

    def test_entries_are_canonical(self):
        report = enumerate_family(RuleKind.UPSILON2, 5)
        for e in report.entries:
            assert e.sequence.startswith("00000")
            assert is_de_bruijn(e.sequence, 5)

    def test_order_three_families_hit_both_de_bruijn_sequences(self):
        everything = brute_de_bruijn_canonicals(3)
        assert len(everything) == 2
        produced = {
            e.sequence
            for kind in RuleKind
            for e in enumerate_family(kind, 3).entries
        }
        assert produced <= set(everything)

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            enumerate_family(RuleKind.SALA, 12)


class TestFamilyUnion:
    def test_breakpoint_and_exponent_families_overlap(self):
        union = family_union(enumerate_family(RuleKind.PSI1, 6), enumerate_family(RuleKind.PSI2, 6))
        assert union.total == 20
        assert union.distinct == 15
        pairs = {frozenset(p) for p in union.collisions}
        assert pairs == {
            frozenset({"psi1:n=6:kset=1,6", "psi2:n=6:k=2"}),
            frozenset({"psi1:n=6:kset=1,2,6", "psi2:n=6:k=3"}),
            frozenset({"psi1:n=6:kset=1,3,6", "psi2:n=6:k=4"}),
            frozenset({"psi1:n=6:kset=1,2,4,6", "psi2:n=6:k=9"}),
            frozenset({"psi1:n=6:kset=1,2,3,4,6", "psi2:n=6:k=1"}),
        }

    def test_upsilon_union(self):
        union = family_union(
            enumerate_family(RuleKind.UPSILON1, 6), enumerate_family(RuleKind.UPSILON2, 6)
        )
        assert union.distinct == 15
        pairs = {frozenset(p) for p in union.collisions}
        assert pairs == {
            frozenset({"upsilon1:n=6:kset=1,6", "upsilon2:n=6:k=1"}),
            frozenset({"upsilon1:n=6:kset=1,2,6", "upsilon2:n=6:k=2"}),
            frozenset({"upsilon1:n=6:kset=1,3,6", "upsilon2:n=6:k=3"}),
            frozenset({"upsilon1:n=6:kset=1,2,4,6", "upsilon2:n=6:k=8"}),
            frozenset({"upsilon1:n=6:kset=1,2,3,4,6", "upsilon2:n=6:k=0"}),
        }

    def test_self_union_keeps_distinct_count(self):
        report = enumerate_family(RuleKind.PSI2, 5)
        union = family_union(report, report)
        assert union.total == 2 * report.total
        assert union.distinct == report.distinct

    def test_psi_and_upsilon_disjoint_at_order_six(self):
        psi = family_union(enumerate_family(RuleKind.PSI1, 6), enumerate_family(RuleKind.PSI2, 6))
        ups = family_union(
            enumerate_family(RuleKind.UPSILON1, 6), enumerate_family(RuleKind.UPSILON2, 6)
        )
        grand = family_union(psi, ups)
        assert grand.distinct == psi.distinct + ups.distinct

    def test_rejects_mixed_orders(self):
        with pytest.raises(ValueError):
            family_union(enumerate_family(RuleKind.SALA, 5), enumerate_family(RuleKind.SALA, 6))
        with pytest.raises(ValueError):
            family_union()

    def test_csv_shape(self):
        report = enumerate_family(RuleKind.PSI1, 5)
        lines = report.to_csv().splitlines()
        assert lines[0] == "spec,sequence,de_bruijn"
        assert len(lines) == 1 + report.total + 1
        assert lines[1].startswith("psi1:n=5:kset=1,5,")
        assert lines[-1].startswith("# label=psi1 n=5 total=4 distinct=4 expected=4")
