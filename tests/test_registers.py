import tracemalloc
from array import array

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
from prrseq.canonical import _fkm_walk
from prrseq.core import rotate_left_value
from prrseq.registers import (
    ORDER_LIMITS,
    Cycle,
    CycleArray,
    _prr_feedback_table,
    prr_leap_value,
    prr_step_value,
)
from prrseq.rules import _critical_table


def run_count(v, n):
    """Number of maximal runs of equal bits in the n-bit value v."""
    return ((v ^ (v >> 1)) & ((1 << (n - 1)) - 1)).bit_count() + 1


def scan_decompose(n):
    """The PCR-type and CCR-type cycles found by stepping every state, in
    increasing order, so the first unvisited value on each cycle is its
    least member: the oracle for decompose, which builds them from the
    necklaces and co-necklaces."""
    size = 1 << n
    mask = size - 1
    visited = bytearray(size)
    pcr, ccr = [], []
    for v0 in range(size):
        if visited[v0]:
            continue
        period = 0
        v = v0
        while not visited[v]:
            visited[v] = 1
            period += 1
            v = prr_step_value(v, n, mask)
        kind = classify_state(State(v0, n))
        (pcr if kind is CycleKind.PCR else ccr).append(Cycle(State(v0, n), kind, period))
    return tuple(pcr), tuple(ccr)


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

    @pytest.mark.parametrize("n", range(3, 13))
    def test_leap_is_n_minus_1_steps_on_every_state(self, n):
        mask = (1 << n) - 1
        for v in range(1 << n):
            w = v
            for _ in range(n - 1):
                w = prr_step_value(w, n, mask)
            assert prr_leap_value(v, n) == w, (n, v)

    @given(st.data())
    def test_leap_is_n_minus_1_steps_at_any_order(self, data):
        n = data.draw(st.integers(13, 64), label="n")
        v = data.draw(st.integers(0, (1 << n) - 1), label="state")
        w = v
        for _ in range(n - 1):
            w = prr_step_value(w, n, (1 << n) - 1)
        assert prr_leap_value(v, n) == w

    @pytest.mark.parametrize("n", range(3, 17))
    def test_feedback_table_is_the_step_feedback_on_every_state(self, n):
        mask = (1 << n) - 1
        expected = bytes(prr_step_value(v, n, mask) & 1 for v in range(1 << n))
        assert _prr_feedback_table(n) == expected

    @given(st.data())
    def test_feedback_table_is_the_step_feedback_up_to_the_table_cap(self, data):
        n = data.draw(st.integers(17, ORDER_LIMITS["table"][1]), label="n")
        v = data.draw(st.integers(0, (1 << n) - 1), label="state")
        table = _prr_feedback_table(n)
        assert len(table) == 1 << n
        assert table[v] == prr_step_value(v, n, (1 << n) - 1) & 1


class TestClassifyState:
    def test_examples(self):
        assert classify_state(State.from_string("000000")) is CycleKind.PCR
        assert classify_state(State.from_string("000001")) is CycleKind.CCR
        assert classify_state(State.from_string("100001")) is CycleKind.PCR
        assert classify_state(State.from_string("010101")) is CycleKind.CCR

    @pytest.mark.parametrize("n", range(3, 13))
    def test_constant_on_cycles(self, n, cycle_states):
        for cyc in decompose(n).cycles:
            kinds = {classify_state(State(v, n)) for v in cycle_states(cyc)}
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

    def test_order_three_structure(self, cycle_states):
        d = decompose(3)
        cycles = {
            str(c.representative): (
                c.kind,
                c.period,
                sorted(format(v, "03b") for v in cycle_states(c)),
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
    def test_partitions_all_states(self, n, cycle_states):
        d = decompose(n)
        seen = set()
        for cyc in d.cycles:
            vals = set(cycle_states(cyc))
            assert len(vals) == cyc.period
            assert not vals & seen
            seen |= vals
        assert len(seen) == 1 << n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_representative_is_least_member(self, n, cycle_states):
        for cyc in decompose(n).cycles:
            assert cyc.representative.value == min(cycle_states(cyc))

    @pytest.mark.parametrize("n", range(3, 19))
    def test_equals_the_state_scan(self, n):
        d = decompose(n)
        pcr, ccr = scan_decompose(n)
        assert (tuple(d.pcr_cycles), tuple(d.ccr_cycles)) == (pcr, ccr)
        assert "".join(d.lines()) == "".join(
            f"{c.kind.value} {c.period} ({c.representative})\n" for c in pcr + ccr
        )

    @pytest.mark.parametrize("n", range(3, 17))
    def test_cycle_arrays_read_as_the_scanned_records(self, n):
        d = decompose(n)
        pcr, ccr = scan_decompose(n)
        for cycles, records in ((d.pcr_cycles, pcr), (d.ccr_cycles, ccr), (d.cycles, pcr + ccr)):
            size = len(records)
            assert len(cycles) == size
            assert tuple(cycles) == records
            assert tuple(cycles[i] for i in range(-size, size)) == records + records
            with pytest.raises(IndexError):
                cycles[size]
            reps = array("Q", [c.representative.value for c in records])
            periods = array("B", [c.period for c in records])
            same = CycleArray(n, reps, periods)
            assert cycles == same and hash(cycles) == hash(same)
            periods[-1] += 1
            assert cycles != CycleArray(n, reps, periods)

    def test_holds_nine_bytes_per_cycle(self):
        # the representatives' values and the periods, as arrays: no Cycle
        # or State records, and no int objects
        _fkm_walk(15)
        tracemalloc.start()
        try:
            d = decompose(16)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 16 * count_cycles(16).total, held / len(d.cycles)

    def test_transient_peak_is_near_what_it_holds(self):
        # the arrays fill from the walk one value at a time, with no list
        # of ints beside them (which once took the peak to 3.5 times)
        _fkm_walk(17)
        tracemalloc.start()
        try:
            d = decompose(18)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d.cycles) == count_cycles(18).total
        assert peak <= 1.5 * held, (peak, held)

    @pytest.mark.parametrize("n", [19, 20])
    def test_counts_and_periods_above_the_scan(self, n):
        cycles = decompose(n).cycles
        assert len(cycles) == count_cycles(n).total
        assert sum(c.period for c in cycles) == 1 << n

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            decompose(2)
        with pytest.raises(OrderOutOfRangeError):
            decompose(25)

    def test_lines_shape(self):
        lines = "".join(decompose(6).lines()).splitlines()
        assert len(lines) == 12
        assert lines[0] == "pcr 1 (000000)"
        assert lines[-1] == "ccr 2 (010101)"


class TestCycleMirroring:
    """Cycles of the order-n register mirror the order n-1 cycling registers."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_dropping_last_bit_yields_rotation_or_complement_class(self, n, cycle_states):
        m = n - 1
        mask = (1 << m) - 1
        for cyc in decompose(n).cycles:
            vals = list(cycle_states(cyc))
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
    def test_uniform_run_count_per_cycle(self, n, cycle_states):
        for cyc in decompose(n).cycles:
            counts = {run_count(v, n) for v in cycle_states(cyc)}
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
    "table": [(lambda n: _critical_table(_unchecked_spec(n)), OrderOutOfRangeError)],
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
