import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prrseq
from prrseq import State, count_cycles, is_conecklace, is_necklace
from prrseq.canonical import (
    _fkm_walk,
    _longest_zero_runs,
    is_conecklace_value,
    is_necklace_value,
)


def brute_necklace(s):
    return all(s <= s[i:] + s[:i] for i in range(len(s)))


def brute_conecklace(s):
    comp = s.translate(str.maketrans("01", "10"))
    doubled = (s + comp) * 2
    m = len(s)
    return all(s <= doubled[i : i + m] for i in range(2 * m))


def brute_longest_zero_runs(s):
    runs = [(run.start(), len(run.group())) for run in re.finditer("0+", s)]
    longest = max(length for _, length in runs)
    return [i for i, length in runs if length == longest]


def passes_run_filter(s):
    """The co-necklace test's cheap half: s starts and ends with 0 and no
    run of either bit is longer than its leading zeros."""
    runs = [len(list(g)) for _, g in itertools.groupby(s)]
    return s[0] == s[-1] == "0" and max(runs) <= runs[0]


@st.composite
def run_filter_words(draw):
    """(m, v) with v starting with z zeros, then alternating runs of ones
    and zeros of length 1..z, ending with zeros: every word passes the run
    filter, so the co-necklace test builds the 2m-bit word.  m is 19..63."""
    z = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(1, z), st.integers(1, z)), min_size=9, max_size=31))
    s = "0" * z
    for ones, zeros in pairs:
        if len(s) + ones + zeros > 63:
            break
        s += "1" * ones + "0" * zeros
    return len(s), int(s, 2)


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

    @given(st.one_of(generation_words(17, 63), run_filter_words()))
    @settings(max_examples=500)
    def test_matches_brute_force_at_generation_widths(self, mv):
        m, v = mv
        assert is_conecklace_value(v, m) == brute_conecklace(format(v, f"0{m}b"))

    @given(run_filter_words())
    def test_run_filter_words_pass_the_filter(self, mv):
        m, v = mv
        assert 19 <= m <= 63 and passes_run_filter(format(v, f"0{m}b"))

    def test_only_words_that_pass_the_run_filter_build_the_2m_bit_word(self, monkeypatch):
        reached = []

        def counted(w, width):
            reached.append(w >> (width // 2))
            return is_necklace_value(w, width)

        monkeypatch.setattr(prrseq.canonical, "is_necklace_value", counted)
        for m in range(1, 13):
            reached.clear()
            for v in range(1 << m):
                is_conecklace_value(v, m)
            words = [format(v, f"0{m}b") for v in range(1 << m)]
            assert reached == [v for v, s in enumerate(words) if passes_run_filter(s)], m

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


class TestLongestZeroRuns:
    @pytest.mark.parametrize("m", range(2, 17))
    def test_matches_a_string_scan_exhaustively(self, m):
        # every word that starts with 1 and has a 0 (there is none at m = 1)
        for v in range(1 << (m - 1), (1 << m) - 1):
            s = format(v, f"0{m}b")
            assert sorted(_longest_zero_runs(v, m)) == brute_longest_zero_runs(s), s

    @given(generation_words(17, 63))
    @settings(max_examples=300)
    def test_matches_a_string_scan_at_generation_widths(self, mv):
        m, v = mv
        v |= 1 << (m - 1)
        if v == (1 << m) - 1:
            v ^= 1
        s = format(v, f"0{m}b")
        assert sorted(_longest_zero_runs(v, m)) == brute_longest_zero_runs(s), s


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
