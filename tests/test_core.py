import pytest
from hypothesis import given
from hypothesis import strategies as st

from prrseq import State
from prrseq.core import rotate_left_value


def states(min_len=1, max_len=16):
    return st.integers(min_len, max_len).flatmap(
        lambda m: st.builds(State, st.integers(0, (1 << m) - 1), st.just(m))
    )


class TestState:
    def test_from_string_round_trip(self):
        s = State.from_string("000101")
        assert (s.value, s.n) == (5, 6)
        assert str(s) == "000101"

    def test_rejects_bad_lengths_and_values(self):
        with pytest.raises(ValueError):
            State(0, 0)
        with pytest.raises(ValueError):
            State(0, 65)
        with pytest.raises(ValueError):
            State(8, 3)
        with pytest.raises(ValueError):
            State(-1, 3)
        with pytest.raises(ValueError):
            State.from_string("01x1")
        with pytest.raises(ValueError):
            State.from_string("")

    @pytest.mark.parametrize("value, n", [(5.0, 3), (5, 3.0), (True, 3), (1, True), ("5", 3)])
    def test_rejects_non_int_fields(self, value, n):
        # a float once constructed, then failed in str() and in generate
        with pytest.raises(ValueError, match="value and length must be ints"):
            State(value, n)

    def test_oldest_bit_is_most_significant(self):
        # the leftmost character, first shifted out, is the top bit of value
        assert State.from_string("1000").value == 8
        assert State.from_string("0001").value == 1
        assert str(State(1 << 6, 7)) == "1000000"

    @given(states(max_len=64))
    def test_string_form_round_trips(self, s):
        assert State.from_string(str(s)) == s
        assert len(str(s)) == s.n

    def test_frozen_and_hashable(self):
        s = State(5, 6)
        with pytest.raises(AttributeError):
            s.value = 4
        assert {s, State(5, 6), State(5, 7)} == {State(5, 6), State(5, 7)}


class TestBitOps:
    @given(st.integers(1, 16), st.data())
    def test_rotate_left_value_matches_strings(self, m, data):
        v = data.draw(st.integers(0, (1 << m) - 1))
        r = data.draw(st.integers(0, 3 * m))
        s = format(v, f"0{m}b")
        expect = s[r % m :] + s[: r % m]
        assert format(rotate_left_value(v, m, r), f"0{m}b") == expect
