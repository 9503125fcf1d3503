import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prrseq import (
    State,
    ZeroStateError,
    companion,
    complement,
    conjugate,
    lambda_rotate,
    run_length_encode,
    theta_rotate,
    weight,
)
from prrseq.core import rotate_left_value


def states(min_len=1, max_len=16):
    return st.integers(min_len, max_len).flatmap(
        lambda m: st.builds(State, st.integers(0, (1 << m) - 1), st.just(m))
    )


def nonzero_states(min_len=1, max_len=16):
    return st.integers(min_len, max_len).flatmap(
        lambda m: st.builds(State, st.integers(1, (1 << m) - 1), st.just(m))
    )


# independent single-step references, on strings
def naive_lambda_step(s):
    i = s.index("1")
    return s[i + 1 :] + s[: i + 1]


def naive_theta_step(s):
    i = s.find("0", 1)
    if i == -1:
        return s
    return s[i:] + s[:i]


class TestState:
    def test_from_string_round_trip(self):
        s = State.from_string("000101")
        assert (s.value, s.n) == (5, 6)
        assert str(s) == "000101"

    def test_from_bits(self):
        assert State.from_bits([1, 0, 1]) == State(5, 3)

    def test_bit_indexing_is_oldest_first(self):
        s = State.from_string("1000")
        assert s.bit(0) == 1
        assert s.bit(3) == 0
        assert s.bits() == (1, 0, 0, 0)
        assert list(s) == [1, 0, 0, 0]

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
        with pytest.raises(ValueError):
            State.from_bits([0, 2])
        with pytest.raises(IndexError):
            State(0, 3).bit(3)

    def test_len(self):
        assert len(State(0, 7)) == 7


class TestBitOps:
    def test_complement_examples(self):
        assert str(complement(State.from_string("00000"))) == "11111"
        assert str(complement(State.from_string("000101"))) == "111010"

    def test_conjugate_examples(self):
        assert str(conjugate(State.from_string("000101"))) == "100101"
        assert str(conjugate(State.from_string("111111"))) == "011111"

    def test_companion_examples(self):
        assert str(companion(State.from_string("000101"))) == "000100"
        assert str(companion(State.from_string("000000"))) == "000001"

    @given(states())
    def test_involutions(self, s):
        assert complement(complement(s)) == s
        assert conjugate(conjugate(s)) == s
        assert companion(companion(s)) == s

    @given(states())
    def test_conjugate_shares_tail(self, s):
        tail_mask = (1 << (s.n - 1)) - 1
        assert conjugate(s).value & tail_mask == s.value & tail_mask
        assert conjugate(s) != s

    @given(states())
    def test_weight(self, s):
        assert weight(s) == str(s).count("1")

    @given(st.integers(1, 16), st.data())
    def test_rotate_left_value_matches_strings(self, m, data):
        v = data.draw(st.integers(0, (1 << m) - 1))
        r = data.draw(st.integers(0, 3 * m))
        s = format(v, f"0{m}b")
        expect = s[r % m :] + s[: r % m]
        assert format(rotate_left_value(v, m, r), f"0{m}b") == expect


class TestRunLengthEncode:
    def test_examples(self):
        assert run_length_encode(State.from_string("0001011101")).runs == (3, 1, 1, 3, 1, 1)
        assert run_length_encode(State.from_string("000101")).runs == (3, 1, 1, 1)
        assert run_length_encode(State(0, 6)).runs == (6,)
        assert run_length_encode(State.from_string("000101")).run_count == 4

    @given(states())
    def test_round_trip(self, s):
        enc = run_length_encode(s)
        first = s.bit(0)
        rebuilt = ""
        for i, r in enumerate(enc.runs):
            rebuilt += str((first + i) % 2) * r
        assert rebuilt == str(s)
        assert enc.total == s.n


class TestLambdaRotate:
    def test_single_steps(self):
        u = State.from_string("01101")
        assert str(lambda_rotate(u, 1)) == "10101"
        assert str(lambda_rotate(u, 2)) == "01011"

    def test_identity_and_period(self):
        u = State.from_string("01011")
        assert lambda_rotate(u, 0) == u
        assert lambda_rotate(u, 3) == u  # weight 3 orbit returns

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroStateError):
            lambda_rotate(State(0, 5), 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            lambda_rotate(State(1, 5), -1)

    # up to the widths generation uses
    @given(st.one_of(nonzero_states(), nonzero_states(17, 63)))
    @settings(max_examples=300)
    def test_matches_naive_iteration(self, u):
        cur = str(u)
        for r in range(1, 2 * u.n + 3):
            cur = naive_lambda_step(cur)
            assert str(lambda_rotate(u, r)) == cur

    @given(nonzero_states(), st.integers(10**9, 10**27))
    def test_huge_exponents_reduce_to_measured_period(self, u, big):
        orbit = [str(u)]
        for _ in range(2 * u.n + 2):
            orbit.append(naive_lambda_step(orbit[-1]))
        period = next(p for p in range(1, len(orbit) - 1) if orbit[1 + p] == orbit[1])
        assert str(lambda_rotate(u, big)) == orbit[1 + (big - 1) % period]

    @given(nonzero_states())
    def test_preserves_weight(self, u):
        assert weight(lambda_rotate(u, 7)) == weight(u)


class TestThetaRotate:
    def test_fixed_points(self):
        for s in ("1111", "0111", "1", "0"):
            u = State.from_string(s)
            for r in (0, 1, 5, 10**12):
                assert theta_rotate(u, r) == u

    def test_single_step(self):
        assert str(theta_rotate(State.from_string("01101"), 1)) == "01011"

    def test_all_zero_is_total(self):
        u = State(0, 6)
        assert theta_rotate(u, 10**20) == u

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            theta_rotate(State(1, 5), -2)

    # up to the widths generation uses
    @given(st.one_of(states(), states(17, 63)))
    @settings(max_examples=300)
    def test_matches_naive_iteration(self, u):
        cur = str(u)
        for r in range(1, 2 * u.n + 3):
            cur = naive_theta_step(cur)
            assert str(theta_rotate(u, r)) == cur

    @given(states(min_len=2), st.integers(10**9, 10**27))
    def test_huge_exponents_reduce_to_measured_period(self, u, big):
        orbit = [str(u)]
        for _ in range(2 * u.n + 2):
            orbit.append(naive_theta_step(orbit[-1]))
        period = next(p for p in range(1, len(orbit) - 1) if orbit[1 + p] == orbit[1])
        assert str(theta_rotate(u, big)) == orbit[1 + (big - 1) % period]
