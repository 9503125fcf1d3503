import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prrseq
from prrseq import (
    InvalidSpecError,
    RuleKind,
    RuleSpec,
    SpecSyntaxError,
    State,
    generate,
    generate_sequence,
    in_critical_set,
    is_de_bruijn,
    next_bit,
    next_state,
    count_cycles,
    psi_critical_predicate,
    upsilon_critical_predicate,
    verify_critical_set,
)
from prrseq.canonical import is_conecklace_value, is_necklace_value
from prrseq.core import lambda_rotate_value, rotate_left_value, theta_rotate_value
from prrseq.rules import _tail_selector, critical_predicate, exponent_range

ASSORTED = [
    "sala:n=5",
    "sala:n=8",
    "psi1:n=5:kset=1,3,5",
    "psi1:n=8:kset=1,2,5,8",
    "psi2:n=5:k=4",
    "psi2:n=8:k=11",
    "upsilon1:n=5:kset=1,5",
    "upsilon1:n=8:kset=1,4,6,8",
    "upsilon2:n=5:k=0",
    "upsilon2:n=8:k=17",
]


def draw_spec(data, kind):
    """A random spec of the given kind at an order in [25, 64], above
    every whole-sequence check."""
    n = data.draw(st.integers(25, 64), label="n")
    if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
        middle = data.draw(st.sets(st.integers(2, n - 2)), label="middle")
        return RuleSpec(kind, n, kset=(1, *sorted(middle), n))
    if kind in (RuleKind.PSI2, RuleKind.UPSILON2):
        valid = exponent_range(kind, n)
        return RuleSpec(kind, n, k=data.draw(st.integers(valid[0], valid[-1]), label="k"))
    return RuleSpec(kind, n)


class TestRuleSpecValidation:
    def test_accepts_valid_ksets(self):
        RuleSpec(RuleKind.PSI1, 6, kset=(1, 6))
        RuleSpec(RuleKind.PSI1, 6, kset=(1, 2, 3, 4, 6))
        RuleSpec(RuleKind.UPSILON1, 3, kset=(1, 3))

    def test_accepts_valid_k_ranges(self):
        RuleSpec(RuleKind.PSI2, 6, k=1)
        RuleSpec(RuleKind.PSI2, 6, k=12)  # lcm(1..4)
        RuleSpec(RuleKind.UPSILON2, 6, k=0)
        RuleSpec(RuleKind.UPSILON2, 6, k=11)

    @pytest.mark.parametrize(
        "kset",
        [(2, 6), (1, 5), (1,), (1, 5, 6), (1, 1, 6), (6, 1), (1, 3, 2, 6)],
    )
    def test_rejects_bad_ksets(self, kset):
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.PSI1, 6, kset=kset)

    @pytest.mark.parametrize("k", [0, 13, -1])
    def test_rejects_psi2_k_out_of_range(self, k):
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.PSI2, 6, k=k)

    @pytest.mark.parametrize("k", [-1, 12])
    def test_rejects_upsilon2_k_out_of_range(self, k):
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.UPSILON2, 6, k=k)

    @pytest.mark.parametrize("n", [2, 65, 0])
    def test_rejects_bad_order(self, n):
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.SALA, n)

    def test_rejects_wrong_parameter_shape(self):
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.SALA, 6, k=1)
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.PSI1, 6, k=1)
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.PSI2, 6, kset=(1, 6))
        with pytest.raises(InvalidSpecError):
            RuleSpec(RuleKind.PSI2, 6, k=2, kset=(1, 6))


class TestSpecParsing:
    @pytest.mark.parametrize("text", ASSORTED)
    def test_round_trip(self, text):
        spec = RuleSpec.parse(text)
        assert spec.spec_string() == text
        assert RuleSpec.parse(spec.spec_string()) == spec

    def test_parse_fields(self):
        spec = RuleSpec.parse("psi1:n=6:kset=1,2,6")
        assert (spec.kind, spec.n, spec.kset, spec.k) == (RuleKind.PSI1, 6, (1, 2, 6), None)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:n=6",
            "psi2:n=6",
            "psi2:k=2",
            "psi1:n=6",
            "psi2:n=six:k=2",
            "psi2:n=6:k=2:x=3",
            "psi2:n=6:k=",
            "psi1:n=6:kset=",
            "psi2:n=6:n=7:k=1",
            "psi2:n=6:kset=1,6",
            "",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SpecSyntaxError):
            RuleSpec.parse(text)

    def test_out_of_range_k_is_invalid_not_syntax(self):
        with pytest.raises(InvalidSpecError):
            RuleSpec.parse("psi2:n=6:k=13")


class TestCriticalSets:
    def test_sala_examples(self):
        sala = RuleSpec(RuleKind.SALA, 6)
        assert in_critical_set(sala, State.from_string("100010"))
        assert in_critical_set(sala, State.from_string("000010"))
        assert not in_critical_set(sala, State.from_string("101101"))
        assert not in_critical_set(sala, State.from_string("001101"))
        assert in_critical_set(sala, State.from_string("000000"))
        assert in_critical_set(sala, State.from_string("111111"))

    def test_order_three_psi_and_upsilon_agree(self):
        expect = {"000", "100", "010", "110", "011", "111"}
        psi_spec = RuleSpec.parse("psi2:n=3:k=1")
        psi = {format(v, "03b") for v in range(8) if in_critical_set(psi_spec, State(v, 3))}
        ups_spec = RuleSpec(RuleKind.UPSILON2, 3, k=0)
        ups = {format(v, "03b") for v in range(8) if in_critical_set(ups_spec, State(v, 3))}
        assert psi == expect
        assert ups == expect

    @pytest.mark.parametrize("text", ASSORTED)
    def test_conjugate_closure_and_count(self, text):
        spec = RuleSpec.parse(text)
        crit = critical_predicate(spec)
        members = [v for v in range(1 << spec.n) if crit(v)]
        top = 1 << (spec.n - 1)
        assert all(crit(v ^ top) for v in members)
        assert len(members) == 2 * (count_cycles(spec.n).total - 1)

    @pytest.mark.parametrize("n", [6, 7])
    def test_psi_selectors_accept_one_tail_per_rotation_class(self, n):
        m = n - 1
        for text in (f"psi1:n={n}:kset=1,{n}", f"psi2:n={n}:k=3"):
            spec = RuleSpec.parse(text)
            crit = critical_predicate(spec)
            seen = set()
            for u in range(1 << m):
                if u in seen:
                    continue
                rotations = {rotate_left_value(u, m, r) for r in range(m)}
                seen |= rotations
                headed = [r for r in rotations if r >> (m - 1)]
                if not headed:
                    continue  # the all-zero class has no tail starting with 1
                accepted = [r for r in headed if crit((1 << m) | r)]
                assert len(accepted) == 1, (text, u)

    @pytest.mark.parametrize("n", [6, 7])
    def test_upsilon_selectors_accept_one_tail_per_rotation_class(self, n):
        m = n - 1
        for text in (f"upsilon1:n={n}:kset=1,{n}", f"upsilon2:n={n}:k=3"):
            spec = RuleSpec.parse(text)
            crit = critical_predicate(spec)
            seen = set()
            for u in range(1 << m):
                if u in seen:
                    continue
                rotations = {rotate_left_value(u, m, r) for r in range(m)}
                seen |= rotations
                zero_led = [r for r in rotations if not r >> (m - 1)]
                if not zero_led:
                    continue  # the all-one class never ends a window in 0
                accepted = [r for r in zero_led if crit(r << 1)]
                assert len(accepted) == 1, (text, u)

    @pytest.mark.parametrize(
        "kind",
        [RuleKind.PSI1, RuleKind.PSI2, RuleKind.UPSILON1, RuleKind.UPSILON2, RuleKind.SALA],
    )
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_member_per_class_above_the_window_cap(self, kind, data):
        # The orders no whole-sequence check reaches: the selector accepts
        # exactly one tail of a random rotation class, and the top bit
        # never decides membership.
        spec = draw_spec(data, kind)
        crit = critical_predicate(spec)
        n = spec.n
        m, top = n - 1, 1 << (n - 1)
        if kind is RuleKind.SALA:
            # one necklace per rotation class and one co-necklace per
            # complement-rotation class of the tail, and both are critical
            u = data.draw(st.integers(0, (1 << m) - 1), label="tail")
            rotations = {rotate_left_value(u, m, r) for r in range(m)}
            orbit = [u]
            for _ in range(2 * m - 1):
                w = orbit[-1]
                orbit.append(((w << 1) & ((1 << m) - 1)) | (1 ^ (w >> (m - 1))))
            necklaces = [r for r in rotations if is_necklace_value(r, m)]
            conecklaces = [w for w in set(orbit) if is_conecklace_value(w, m)]
            assert len(necklaces) == 1 and len(conecklaces) == 1, u
            accepted = necklaces + conecklaces
            assert all(crit(w) for w in accepted)
        else:
            psi = kind in (RuleKind.PSI1, RuleKind.PSI2)
            lead = 1 << (m - 1) if psi else 0  # psi words start with 1, upsilon with 0
            u = lead | data.draw(st.integers(0, (1 << (m - 1)) - 1), label="tail")
            rotations = {rotate_left_value(u, m, r) for r in range(m)}
            if psi:
                states = [r for r in rotations if r >> (m - 1)]
            else:
                states = [r << 1 for r in rotations if not r >> (m - 1)]
            accepted = [v for v in states if crit(v)]
            assert len(accepted) == 1, (spec.spec_string(), u)
        v = data.draw(st.integers(0, (1 << n) - 1), label="state")
        assert all(crit(w) == crit(w ^ top) for w in (v, *accepted))

    @pytest.mark.parametrize("kind", list(RuleKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exactly_one_predecessor_above_the_window_cap(self, kind, data):
        # Local bijectivity: of the two states that can precede s (they
        # differ in the oldest bit), exactly one steps to s.
        spec = draw_spec(data, kind)
        n = spec.n
        s = data.draw(st.integers(0, (1 << n) - 1), label="state")
        candidates = (s >> 1, (s >> 1) | (1 << (n - 1)))
        steps_to_s = [p for p in candidates if next_state(spec, State(p, n)).value == s]
        assert len(steps_to_s) == 1, (spec.spec_string(), s)

    def test_exponent_wraps_around_its_period(self):
        # k and k + lcm(1..n-2) select the same tails; checked at the
        # selector level because RuleSpec rejects out-of-range k.  Their
        # exponent tables differ at c = n-1, which only the all-ones psi
        # tail and the all-zeros upsilon tail reach, and every rotation
        # maps those to themselves: so compare accepted tails, not tables.
        m = 5
        s1 = _tail_selector(RuleKind.PSI2, 6, k=1)
        s13 = _tail_selector(RuleKind.PSI2, 6, k=13)
        assert all(s1(u) == s13(u) for u in range(1 << (m - 1), 1 << m))
        t0 = _tail_selector(RuleKind.UPSILON2, 6, k=0)
        t12 = _tail_selector(RuleKind.UPSILON2, 6, k=12)
        assert all(t0(u) == t12(u) for u in range(1 << (m - 1)))


class TestGenerate:
    def test_reproduces_reference_rows(self, table1_rows, table3_rows):
        assert generate_sequence(RuleSpec.parse("psi1:n=6:kset=1,6")).bits == table1_rows[0]
        assert generate_sequence(RuleSpec.parse("psi2:n=6:k=5")).bits == table1_rows[8 + 4]
        assert generate_sequence(RuleSpec.parse("upsilon1:n=6:kset=1,2,6")).bits == table3_rows[1]
        assert generate_sequence(RuleSpec.parse("upsilon2:n=6:k=0")).bits == table3_rows[8]

    def test_order_three_from_zero(self):
        assert generate_sequence(RuleSpec.parse("psi2:n=3:k=1")).bits == "00011101"

    def test_first_bits_spell_start_state(self):
        spec = RuleSpec.parse("psi2:n=6:k=7")
        start = State.from_string("010011")
        bits = "".join("01"[b] for b in generate(spec, start, 6))
        assert bits == "010011"

    def test_count_zero_and_default(self):
        spec = RuleSpec.parse("sala:n=4")
        assert list(generate(spec, count=0)) == []
        assert len(list(generate(spec))) == 16

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            list(generate(RuleSpec.parse("sala:n=4"), count=-1))

    def test_rejects_mismatched_start(self):
        with pytest.raises(InvalidSpecError):
            list(generate(RuleSpec.parse("sala:n=4"), State(0, 5)))

    @pytest.mark.parametrize("n", [25, 64])
    def test_full_period_above_the_window_cap_raises_at_once(self, n):
        # a child process with a timeout, so a run that never ends fails
        # the test instead of hanging the suite
        code = (
            "from prrseq import OrderOutOfRangeError, RuleSpec, generate_sequence\n"
            "try:\n"
            f"    generate_sequence(RuleSpec.parse('sala:n={n}'))\n"
            "except OrderOutOfRangeError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(prrseq.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == f"window order must be in [1, 24], got {n}\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("text", ["sala:n=5", "psi2:n=6:k=9", "upsilon1:n=7:kset=1,3,7"])
    def test_period_is_exactly_two_to_the_n(self, text):
        spec = RuleSpec.parse(text)
        size = 1 << spec.n
        double = "".join("01"[b] for b in generate(spec, count=2 * size))
        assert double == double[:size] * 2

    @pytest.mark.parametrize("text", ["psi2:n=6:k=7", "upsilon2:n=7:k=30", "sala:n=6"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_start_state_only_rotates_the_output(self, text, data):
        spec = RuleSpec.parse(text)
        v = data.draw(st.integers(0, (1 << spec.n) - 1))
        bits = generate_sequence(spec, State(v, spec.n)).bits
        i = (bits + bits).index("0" * spec.n)  # rotate to the 0^n window
        assert bits[i:] + bits[:i] == generate_sequence(spec).bits

    @pytest.mark.parametrize("text", ASSORTED)
    def test_next_state_agrees_with_generate(self, text):
        spec = RuleSpec.parse(text)
        s = State(0, spec.n)
        stream = list(generate(spec, count=spec.n + 20))
        for j in range(20):
            assert next_bit(spec, s) == stream[j + spec.n]
            s = next_state(spec, s)

    @pytest.mark.parametrize("text", [t for t in ASSORTED if ":n=5" in t])
    def test_next_state_walks_one_cycle_through_every_state(self, text):
        spec = RuleSpec.parse(text)
        s, seen = State(0, spec.n), set()
        for _ in range(1 << spec.n):
            seen.add(s.value)
            s = next_state(spec, s)
        assert s == State(0, spec.n)
        assert len(seen) == 1 << spec.n

    def test_next_bit_examples(self):
        assert next_bit(RuleSpec.parse("sala:n=6"), State.from_string("000000")) == 1
        assert next_bit(RuleSpec.parse("sala:n=6"), State.from_string("111111")) == 0
        assert next_bit(RuleSpec.parse("sala:n=6"), State.from_string("101101")) == 0

    def test_next_bit_rejects_wrong_length(self):
        with pytest.raises(InvalidSpecError):
            next_bit(RuleSpec.parse("sala:n=6"), State(0, 5))


class TestPluggableSelectors:
    def test_custom_psi_selector_matches_builtin(self):
        n, m = 6, 5
        custom = psi_critical_predicate(
            n, lambda u: is_necklace_value(lambda_rotate_value(u, m, 1), m)
        )
        builtin = critical_predicate(RuleSpec.parse("psi2:n=6:k=2"))
        assert all(custom(v) == builtin(v) for v in range(1 << n))
        report = verify_critical_set(RuleSpec.parse("psi2:n=6:k=2"), custom)
        assert report.ok

    def test_custom_upsilon_selector_makes_a_valid_rule(self):
        n, m = 7, 6
        custom = upsilon_critical_predicate(
            n, lambda u: is_necklace_value(theta_rotate_value(u, m, 2), m)
        )
        report = verify_critical_set(RuleSpec.parse("upsilon2:n=7:k=3"), custom)
        assert report.ok


class TestWholeFamiliesAreDeBruijn:
    @pytest.mark.parametrize("text", ASSORTED)
    def test_assorted_specs(self, text):
        spec = RuleSpec.parse(text)
        assert is_de_bruijn(generate_sequence(spec).bits, spec.n)

    def test_in_critical_set_rejects_wrong_length(self):
        with pytest.raises(InvalidSpecError):
            in_critical_set(RuleSpec.parse("sala:n=6"), State(0, 7))
