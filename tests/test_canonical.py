import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prrseq import State, count_cycles, is_conecklace, is_necklace
from prrseq.canonical import _fkm_walk, is_conecklace_value, is_necklace_value


def brute_necklace(s):
    return all(s <= s[i:] + s[:i] for i in range(len(s)))


def brute_conecklace(s):
    comp = s.translate(str.maketrans("01", "10"))
    doubled = (s + comp) * 2
    m = len(s)
    return all(s <= doubled[i : i + m] for i in range(2 * m))


@st.composite
def generation_words(draw, lo, hi):
    """(m, v) for m in [lo, hi], biased toward the words a word-level test
    must compare exactly: a long leading 0-run, a short repeated block,
    and near-periodic words (a repeated block with one bit flipped)."""
    m = draw(st.integers(lo, hi))
    shape = draw(st.sampled_from(["random", "zero_run", "periodic", "near_periodic"]))
    if shape == "random":
        return m, draw(st.integers(0, (1 << m) - 1))
    if shape == "zero_run":
        z = draw(st.integers(1, m - 1))
        return m, draw(st.integers(0, (1 << (m - z)) - 1))
    p = draw(st.integers(1, 8))
    block = format(draw(st.integers(0, (1 << p) - 1)), f"0{p}b")
    v = int((block * (m // p + 1))[:m], 2)
    if shape == "near_periodic":
        v ^= 1 << draw(st.integers(0, m - 1))
    return m, v


class TestIsNecklace:
    def test_examples(self):
        assert is_necklace(State.from_string("00101"))
        assert not is_necklace(State.from_string("01101"))
        assert is_necklace(State.from_string("00000"))
        assert is_necklace(State.from_string("11111"))
        assert is_necklace(State.from_string("0101"))
        assert not is_necklace(State.from_string("1010"))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_brute_force_exhaustively(self, m):
        for v in range(1 << m):
            s = format(v, f"0{m}b")
            assert is_necklace_value(v, m) == brute_necklace(s), s

    # psi and sala tails are up to 63 bits; the co-necklace test hands
    # words of up to 126 bits to is_necklace_value
    @given(
        st.one_of(
            st.integers(13, 16).flatmap(
                lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
            ),
            generation_words(17, 126),
        )
    )
    @settings(max_examples=400)
    def test_matches_brute_force_long(self, mv):
        m, v = mv
        assert is_necklace_value(v, m) == brute_necklace(format(v, f"0{m}b"))

    @given(st.integers(1, 14).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
    def test_exactly_one_necklace_per_rotation_class(self, mv):
        m, v = mv
        s = format(v, f"0{m}b")
        rotations = {s[i:] + s[:i] for i in range(m)}
        assert sum(brute_necklace(r) for r in rotations) == 1
        assert sum(is_necklace_value(int(r, 2), m) for r in rotations) == 1


class TestIsConecklace:
    def test_examples(self):
        assert is_conecklace(State.from_string("00010"))
        assert is_conecklace(State.from_string("00000"))
        assert not is_conecklace(State.from_string("00101"))
        assert not is_conecklace(State.from_string("11111"))
        assert is_conecklace(State.from_string("0"))
        assert not is_conecklace(State.from_string("1"))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_brute_force_exhaustively(self, m):
        for v in range(1 << m):
            s = format(v, f"0{m}b")
            assert is_conecklace_value(v, m) == brute_conecklace(s), s

    @given(generation_words(17, 63))
    @settings(max_examples=300)
    def test_matches_brute_force_at_generation_widths(self, mv):
        m, v = mv
        assert is_conecklace_value(v, m) == brute_conecklace(format(v, f"0{m}b"))

    @pytest.mark.parametrize("m", range(2, 11))
    def test_exactly_one_per_complementing_cycle(self, m):
        # walk the complement-feedback register; each of its cycles must
        # contain exactly one state the predicate accepts
        mask = (1 << m) - 1
        seen = set()
        for v0 in range(1 << m):
            if v0 in seen:
                continue
            cycle = []
            v = v0
            while v not in seen:
                seen.add(v)
                cycle.append(v)
                v = ((v << 1) & mask) | (1 ^ (v >> (m - 1)))
            assert sum(is_conecklace_value(v, m) for v in cycle) == 1


class TestFkmWalk:
    def test_fkm_lists_the_necklaces(self):
        for m in range(1, 17):
            necklaces = _fkm_walk(m)[0]
            assert list(necklaces) == [v for v in range(1 << m) if is_necklace_value(v, m)]
            if m >= 2:  # the register's orders start at 3
                assert len(necklaces) == count_cycles(m + 1).pcr

    def test_fkm_lists_the_co_necklaces(self):
        for m in range(1, 17):
            conecklaces = _fkm_walk(m)[2]
            assert list(conecklaces) == [v for v in range(1 << m) if is_conecklace_value(v, m)]
            if m >= 2:
                assert len(conecklaces) == count_cycles(m + 1).ccr
