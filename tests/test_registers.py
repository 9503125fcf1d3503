import pytest
from hypothesis import given
from hypothesis import strategies as st

from prrseq import (
    CycleKind,
    InvalidSpecError,
    OrderOutOfRangeError,
    RuleKind,
    RuleSpec,
    State,
    classify_state,
    count_cycles,
    decompose,
    enumerate_family,
    extract_tree,
    find_repeated_window,
    prr_next_bit,
)
from prrseq.core import rotate_left_value
from prrseq.registers import ORDER_LIMITS


def run_count(v, n):
    """Number of maximal runs of equal bits in the n-bit value v."""
    return ((v ^ (v >> 1)) & ((1 << (n - 1)) - 1)).bit_count() + 1


def states(min_len=3, max_len=16):
    return st.integers(min_len, max_len).flatmap(
        lambda m: st.builds(State, st.integers(0, (1 << m) - 1), st.just(m))
    )


class TestFeedback:
    def test_prr_examples(self):
        assert prr_next_bit(State.from_string("000000")) == 0
        assert prr_next_bit(State.from_string("100000")) == 1
        assert prr_next_bit(State.from_string("010000")) == 1
        assert prr_next_bit(State.from_string("000001")) == 1
        assert prr_next_bit(State.from_string("110001")) == 1

    def test_prr_needs_order_three(self):
        with pytest.raises(OrderOutOfRangeError):
            prr_next_bit(State.from_string("01"))

    @given(states())
    def test_prr_step_preserves_run_count(self, s):
        # the register's defining property: dropping the oldest bit and
        # appending the feedback leaves the window's run count unchanged
        b = prr_next_bit(s)
        shifted = State(((s.value << 1) & ((1 << s.n) - 1)) | b, s.n)
        assert run_count(shifted.value, s.n) == run_count(s.value, s.n)


class TestClassifyState:
    def test_examples(self):
        assert classify_state(State.from_string("000000")) is CycleKind.PCR
        assert classify_state(State.from_string("000001")) is CycleKind.CCR
        assert classify_state(State.from_string("100001")) is CycleKind.PCR
        assert classify_state(State.from_string("010101")) is CycleKind.CCR

    @pytest.mark.parametrize("n", range(3, 13))
    def test_constant_on_cycles(self, n):
        for cyc in decompose(n).cycles:
            kinds = {classify_state(State(v, n)) for v in cyc.state_values()}
            assert kinds == {cyc.kind}


class TestDecompose:
    def test_order_six_structure(self):
        d = decompose(6)
        pcr = [(str(c.representative), c.period) for c in d.pcr_cycles]
        ccr = [(str(c.representative), c.period) for c in d.ccr_cycles]
        assert pcr == [
            ("000000", 1),
            ("000010", 5),
            ("000110", 5),
            ("001010", 5),
            ("001110", 5),
            ("010110", 5),
            ("011110", 5),
            ("111111", 1),
        ]
        assert ccr == [
            ("000001", 10),
            ("000101", 10),
            ("001001", 10),
            ("010101", 2),
        ]

    def test_order_three_structure(self):
        d = decompose(3)
        cycles = {
            str(c.representative): (
                c.kind,
                c.period,
                sorted(format(v, "03b") for v in c.state_values()),
            )
            for c in d.cycles
        }
        assert cycles == {
            "000": (CycleKind.PCR, 1, ["000"]),
            "010": (CycleKind.PCR, 2, ["010", "101"]),
            "111": (CycleKind.PCR, 1, ["111"]),
            "001": (CycleKind.CCR, 4, ["001", "011", "100", "110"]),
        }

    @pytest.mark.parametrize("n", range(3, 13))
    def test_partitions_all_states(self, n):
        d = decompose(n)
        seen = set()
        for cyc in d.cycles:
            vals = set(cyc.state_values())
            assert len(vals) == cyc.period
            assert not vals & seen
            seen |= vals
        assert len(seen) == 1 << n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_representative_is_least_member(self, n):
        for cyc in decompose(n).cycles:
            assert cyc.representative.value == min(cyc.state_values())

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            decompose(2)
        with pytest.raises(OrderOutOfRangeError):
            decompose(25)

    def test_to_text_shape(self):
        lines = decompose(6).to_text().splitlines()
        assert len(lines) == 12
        assert lines[0] == "pcr 1 (000000)"
        assert lines[-1] == "ccr 2 (010101)"


class TestCycleMirroring:
    """Cycles of the order-n register mirror the order n-1 cycling registers."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_dropping_last_bit_yields_rotation_or_complement_class(self, n):
        m = n - 1
        mask = (1 << m) - 1
        for cyc in decompose(n).cycles:
            vals = list(cyc.state_values())
            dropped = {v >> 1 for v in vals}
            assert len(dropped) == len(vals)
            start = min(dropped)
            if cyc.kind is CycleKind.PCR:
                walked = {rotate_left_value(start, m, r) for r in range(m)}
            else:
                walked = set()
                v = start
                while v not in walked:
                    walked.add(v)
                    v = ((v << 1) & mask) | (1 ^ (v >> (m - 1)))
            assert dropped == walked

    @pytest.mark.parametrize("n", range(3, 13))
    def test_uniform_run_count_per_cycle(self, n):
        for cyc in decompose(n).cycles:
            counts = {run_count(v, n) for v in cyc.state_values()}
            assert len(counts) == 1


class TestCountCycles:
    def test_known_values(self):
        assert count_cycles(6) == (8, 4, 12)
        assert count_cycles(3) == (3, 1, 4)
        assert count_cycles(4) == (4, 2, 6)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_matches_decompose(self, n):
        d = decompose(n)
        assert count_cycles(n) == (len(d.pcr_cycles), len(d.ccr_cycles), len(d.cycles))

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            count_cycles(2)


def _unchecked_spec(n):
    # A sala spec at any order, past RuleSpec's own check, so the tree
    # entry point's guard is the one under test.
    spec = RuleSpec(RuleKind.SALA, 3)
    object.__setattr__(spec, "n", n)
    return spec


# Public entry points per limits-table entry, with the error each raises.
ENTRY_POINTS = {
    "rule": [
        (lambda n: RuleSpec(RuleKind.SALA, n), InvalidSpecError),
        (count_cycles, OrderOutOfRangeError),
    ],
    "decompose": [(decompose, OrderOutOfRangeError)],
    "window": [(lambda n: find_repeated_window("01", n), OrderOutOfRangeError)],
    "tree": [(lambda n: extract_tree(_unchecked_spec(n)), OrderOutOfRangeError)],
    "family": [(lambda n: enumerate_family(RuleKind.SALA, n), OrderOutOfRangeError)],
}


@pytest.mark.parametrize("operation", sorted(ORDER_LIMITS))
def test_order_limits_are_enforced_at_each_entry_point(operation):
    lo, hi = ORDER_LIMITS[operation]
    for call, error in ENTRY_POINTS[operation]:
        call(lo)
        for n in (lo - 1, hi + 1):
            with pytest.raises(error):
                call(n)
