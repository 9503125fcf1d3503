import inspect
import itertools
import os
import random
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
    all_specs,
    generate,
    generate_sequence,
    in_critical_set,
    is_de_bruijn,
    next_bit,
    next_state,
    count_cycles,
    verify_critical_set,
)
from prrseq.canonical import _fkm_walk, is_conecklace_value, is_necklace_value
from prrseq.core import rotate_left_value
from prrseq.registers import prr_step_value
from prrseq.rules import (
    _arcs,
    _ccr_offset,
    _critical_table,
    _exponents,
    _index_of_jth_one,
    _least_rotation,
    _mark_shift,
    _marks,
    _pcr_offset,
    _scan_predicate,
    _split_run,
    critical_predicate,
    exponent_range,
)

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


def draw_spec(data, kind, lo=25):
    """A random spec of the given kind at an order in [lo, 64], by default
    above every whole-sequence check."""
    n = data.draw(st.integers(lo, 64), label="n")
    if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
        middle = data.draw(st.sets(st.integers(2, n - 2)), label="middle")
        return RuleSpec(kind, n, kset=(1, *sorted(middle), n))
    if kind in (RuleKind.PSI2, RuleKind.UPSILON2):
        valid = exponent_range(kind, n)
        return RuleSpec(kind, n, k=data.draw(st.integers(valid[0], valid[-1]), label="k"))
    return RuleSpec(kind, n)


def _run_child(call):
    """Run call in a child process with a timeout, so a run that never ends
    fails the test instead of hanging the suite; an OrderOutOfRangeError
    is printed to stdout."""
    code = (
        "from prrseq import OrderOutOfRangeError, RuleSpec, generate, generate_sequence\n"
        "try:\n"
        f"    {call}\n"
        "except OrderOutOfRangeError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(prrseq.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )


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

    @pytest.mark.parametrize(
        "kind, n, params",
        [
            (RuleKind.PSI2, 6, {"k": 1.5}),
            (RuleKind.PSI2, 6, {"k": True}),
            (RuleKind.UPSILON2, 6, {"k": 2.0}),
            (RuleKind.PSI2, 6.0, {"k": 1}),
            (RuleKind.SALA, True, {}),
            (RuleKind.PSI1, 6, {"kset": (1, 2.0, 6)}),
            (RuleKind.UPSILON1, 6, {"kset": (True, 6)}),
            (RuleKind.PSI1, 6, {"kset": 5}),
            (RuleKind.UPSILON1, 6, {"kset": object()}),
        ],
    )
    def test_rejects_non_int_fields(self, kind, n, params):
        # each once constructed (or raised a bare TypeError), and its
        # spec_string did not parse back
        with pytest.raises(InvalidSpecError, match="must be (an int|strictly increasing ints)"):
            RuleSpec(kind, n, **params)

    def test_string_kind_is_converted(self):
        spec = RuleSpec("sala", 6)
        assert spec == RuleSpec(RuleKind.SALA, 6)
        assert spec.spec_string() == "sala:n=6"
        assert generate_sequence(spec) == generate_sequence(RuleSpec(RuleKind.SALA, 6))

    def test_string_kind_gets_its_own_parameter_checks(self):
        assert RuleSpec("psi2", 6, k=1) == RuleSpec(RuleKind.PSI2, 6, k=1)
        with pytest.raises(InvalidSpecError, match="psi2 takes k, not kset"):
            RuleSpec("psi2", 6, kset=(1, 6))

    def test_unknown_kind_is_invalid(self):
        with pytest.raises(InvalidSpecError, match="unknown rule kind 'bogus'"):
            RuleSpec("bogus", 6)


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
            # integers are plain ASCII decimal: int() would take each of these
            "sala:n=6_0",
            "sala:n=+6",
            "sala:n= 6",
            "psi1:n=6:kset=1, 6",
            "psi2:n=6:k=\u0663",  # ARABIC-INDIC DIGIT THREE
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
        # k and k + lcm(1..n-2) select the same states; k = 13 and 12 are set
        # past RuleSpec's range check.  Their exponent tables differ at
        # c = n-1, which only the all-ones psi tail and the all-zeros
        # upsilon tail reach, and every rotation maps those to themselves:
        # so compare critical states, not tables.
        for kind, k, wrapped in ((RuleKind.PSI2, 1, 13), (RuleKind.UPSILON2, 0, 12)):
            spec, beyond = RuleSpec(kind, 6, k=k), RuleSpec(kind, 6, k=k)
            object.__setattr__(beyond, "k", wrapped)
            scans = [bytes(map(_scan_predicate(s), range(1 << 6))) for s in (spec, beyond)]
            assert scans[0] == scans[1]
            assert _critical_table(spec) == _critical_table(beyond)


def lambda_rotate_value(u, m, r):
    """lambda applied r times to the nonzero m-bit u.  One step rotates u
    left to just past its first 1, so the steps walk u's ones cyclically:
    r >= 1 lands just past the ((r - 1) mod w + 1)-th of its w ones."""
    if r == 0:
        return u
    ones = [i for i, b in enumerate(format(u, f"0{m}b")) if b == "1"]
    return rotate_left_value(u, m, ones[(r - 1) % len(ones)] + 1)


def theta_rotate_value(u, m, r):
    """theta applied r times to the m-bit u.  One step rotates u left to its
    first 0 after position 0, and leaves u as it is if there is none.  A
    moved u starts with that 0, so later steps walk u's zeros cyclically."""
    zeros = [i for i, b in enumerate(format(u, f"0{m}b")) if b == "0"]
    if r == 0 or zeros in ([], [0]):
        return u
    first = 1 if zeros[0] == 0 else 0  # the zero the first step lands on
    return rotate_left_value(u, m, zeros[(first + r - 1) % len(zeros)])


# independent single-step references, on strings
def naive_lambda_step(s):
    i = s.index("1")
    return s[i + 1 :] + s[: i + 1]


def naive_theta_step(s):
    i = s.find("0", 1)
    if i == -1:
        return s
    return s[i:] + s[:i]


def words(min_len=1, max_len=16, least=0):
    """Strings of m bits, m in min_len..max_len, with value at least least."""
    return st.integers(min_len, max_len).flatmap(
        lambda m: st.integers(least, (1 << m) - 1).map(lambda v: format(v, f"0{m}b"))
    )


def rotated(kernel, s, r):
    return format(kernel(int(s, 2), len(s), r), f"0{len(s)}b")


class TestLambdaRotate:
    def test_single_steps(self):
        assert rotated(lambda_rotate_value, "01101", 1) == "10101"
        assert rotated(lambda_rotate_value, "01101", 2) == "01011"

    def test_identity_and_period(self):
        assert rotated(lambda_rotate_value, "01011", 0) == "01011"
        assert rotated(lambda_rotate_value, "01011", 3) == "01011"  # weight 3 orbit returns

    # up to the widths generation uses
    @given(st.one_of(words(least=1), words(17, 63, least=1)))
    @settings(max_examples=300)
    def test_matches_naive_iteration(self, u):
        cur = u
        for r in range(1, 2 * len(u) + 3):
            cur = naive_lambda_step(cur)
            assert rotated(lambda_rotate_value, u, r) == cur

    @given(words(least=1), st.integers(10**9, 10**27))
    def test_huge_exponents_reduce_to_measured_period(self, u, big):
        orbit = [u]
        for _ in range(2 * len(u) + 2):
            orbit.append(naive_lambda_step(orbit[-1]))
        period = next(p for p in range(1, len(orbit) - 1) if orbit[1 + p] == orbit[1])
        assert rotated(lambda_rotate_value, u, big) == orbit[1 + (big - 1) % period]

    @given(words(least=1))
    def test_preserves_weight(self, u):
        assert rotated(lambda_rotate_value, u, 7).count("1") == u.count("1")


class TestThetaRotate:
    def test_fixed_points(self):
        for s in ("1111", "0111", "1", "0"):
            for r in (0, 1, 5, 10**12):
                assert rotated(theta_rotate_value, s, r) == s

    def test_single_step(self):
        assert rotated(theta_rotate_value, "01101", 1) == "01011"

    def test_all_zero_is_total(self):
        assert rotated(theta_rotate_value, "000000", 10**20) == "000000"

    # up to the widths generation uses
    @given(st.one_of(words(), words(17, 63)))
    @settings(max_examples=300)
    def test_matches_naive_iteration(self, u):
        cur = u
        for r in range(1, 2 * len(u) + 3):
            cur = naive_theta_step(cur)
            assert rotated(theta_rotate_value, u, r) == cur

    @given(words(min_len=2), st.integers(10**9, 10**27))
    def test_huge_exponents_reduce_to_measured_period(self, u, big):
        orbit = [u]
        for _ in range(2 * len(u) + 2):
            orbit.append(naive_theta_step(orbit[-1]))
        period = next(p for p in range(1, len(orbit) - 1) if orbit[1 + p] == orbit[1])
        assert rotated(theta_rotate_value, u, big) == orbit[1 + (big - 1) % period]

    @given(words(), st.integers(0, 100))
    def test_preserves_weight(self, u, r):
        assert rotated(theta_rotate_value, u, r).count("1") == u.count("1")


def definitional_predicate(spec):
    """spec's critical set as Gabric, Sawada, Williams and Wong define it:
    the advance operators applied e(c) times, then the necklace test, and
    each co-necklace test on the 2m-bit word of the tail and its
    complement.  The reference for the run-length selectors."""
    n, m = spec.n, spec.n - 1
    mask = (1 << m) - 1

    def conecklace(u):
        return is_necklace_value((u << m) | (u ^ mask), 2 * m)

    if spec.kind is RuleKind.SALA:
        return lambda v: is_necklace_value(v & mask, m) or conecklace(v & mask)
    e = _exponents(spec.kind, n, spec.kset, spec.k)
    if spec.kind in (RuleKind.PSI1, RuleKind.PSI2):

        def critical(v):
            u = v & mask
            if u >> (m - 1):
                return is_necklace_value(lambda_rotate_value(u, m, e[u.bit_count()]), m)
            return conecklace(u)

        return critical
    mid_mask = mask >> 1

    def critical(v):
        mid = (v >> 1) & mid_mask
        if v & 1:
            return conecklace((mid ^ mid_mask) << 1)
        return is_necklace_value(theta_rotate_value(mid, m, e[m - mid.bit_count()]), m)

    return critical


class TestScanPredicate:
    """The per-state predicate, which decides from run lengths before it
    rotates, against the definitional one."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_spec_agrees_with_the_definition_on_every_state(self, n):
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                scan, definition = _scan_predicate(spec), definitional_predicate(spec)
                assert [bool(scan(v)) for v in range(1 << n)] == list(
                    map(definition, range(1 << n))
                ), spec

    @pytest.mark.parametrize("kind", list(RuleKind))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rule_walks_agree_with_the_definition_above_the_table_cap(self, kind, data):
        # 256 rule steps from a drawn state, the order generation visits
        # states in; at n = 64 a walk meets about six critical states.
        # Tails 0^a 1^b and 1^b 0^a hold the all-zeros, all-ones and
        # single-run edge cases.
        spec = draw_spec(data, kind, lo=21)
        n, m = spec.n, spec.n - 1
        a = data.draw(st.integers(0, m), label="a")
        v = data.draw(
            st.sampled_from([((1 << (m - a)) - 1), ((1 << (m - a)) - 1) << a])
            | st.integers(0, (1 << m) - 1),
            label="tail",
        ) | (data.draw(st.integers(0, 1), label="top") << m)
        scan, definition = _scan_predicate(spec), definitional_predicate(spec)
        mask = (1 << n) - 1
        for _ in range(256):
            hit = definition(v)
            assert bool(scan(v)) == hit, (spec.spec_string(), format(v, f"0{n}b"))
            v = prr_step_value(v, n, mask) ^ hit

    def test_selectors_test_at_most_one_rotation_and_mostly_none(self, monkeypatch):
        # each state gets at most one necklace test, and only when a
        # longest 0-run qualifies: a few percent of random tails at n = 40
        calls = []

        def counted(v, width):
            calls.append(v)
            return is_necklace_value(v, width)

        monkeypatch.setattr(prrseq.rules, "is_necklace_value", counted)
        rng = random.Random(40)
        for spec in _seeded_specs(rng, 40)[1:]:  # sala tests every tail
            scan, definition = _scan_predicate(spec), definitional_predicate(spec)
            tested = 0
            for v in [rng.getrandbits(40) for _ in range(4000)]:
                calls.clear()
                assert scan(v) == definition(v), (spec, v)
                assert len(calls) <= 1
                tested += len(calls)
            assert tested < 4000 // 8, spec


def _seeded_specs(rng, n):
    """One spec per family at order n, with kset and k drawn from rng."""
    specs = []
    for kind in RuleKind:
        if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
            middle = [c for c in range(2, n - 1) if rng.random() < 0.5]
            specs.append(RuleSpec(kind, n, kset=(1, *middle, n)))
        elif kind in (RuleKind.PSI2, RuleKind.UPSILON2):
            valid = exponent_range(kind, n)
            specs.append(RuleSpec(kind, n, k=rng.randint(valid[0], valid[-1])))
        else:
            specs.append(RuleSpec(kind, n))
    return specs


class TestCriticalTables:
    """The per-order tables, built from the necklaces, against the
    per-state test they replace up to the table cap."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_spec_agrees_with_the_scan_on_every_state(self, n):
        # the table covers the n-1 tail bits, so doubled it covers every state
        pairs = count_cycles(n).total - 1
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                states = _critical_table(spec) * 2
                assert bytes(map(_scan_predicate(spec), range(1 << n))) == states, spec
                assert states.count(1) == 2 * pairs

    @pytest.mark.parametrize("n", range(13, 21))
    def test_seeded_specs_agree_with_the_scan(self, n):
        rng = random.Random(n)
        m = n - 1
        pairs = count_cycles(n).total - 1
        for spec in _seeded_specs(rng, n):
            crit, scan = critical_predicate(spec), _scan_predicate(spec)
            tails = list(itertools.compress(range(1 << m), _critical_table(spec)))
            marked = tails + [u | (1 << m) for u in tails]
            assert len(marked) == 2 * pairs, spec
            assert all(map(scan, marked)), spec
            sample = [rng.getrandbits(n) for _ in range(20000)]
            assert [bool(crit(v)) for v in sample] == list(map(scan, sample)), spec

    def test_co_necklace_flags_take_one_test_per_prenecklace(self, monkeypatch):
        # the flags come from the FKM walk, not from testing all 2^(m-1)
        # words that start with 0; v is a prenecklace iff v.1^m is a necklace
        m = 14
        mask = (1 << m) - 1
        prenecklaces = sum(is_necklace_value((v << m) | mask, 2 * m) for v in range(1 << m))
        calls = []

        def counted(v, width):
            calls.append(v)
            return is_conecklace_value(v, width)

        monkeypatch.setattr(prrseq.canonical, "is_conecklace_value", counted)
        monkeypatch.setattr(prrseq.rules, "is_conecklace_value", counted)
        prrseq.canonical._fkm_walk.cache_clear()
        psi = _critical_table(RuleSpec(RuleKind.PSI2, m + 1, k=1))
        upsilon = _critical_table(RuleSpec(RuleKind.UPSILON2, m + 1, k=0))
        assert 0 < len(calls) <= prenecklaces < 1 << (m - 1)
        assert len(set(calls)) == len(calls)
        # co-necklaces mark the tails that start with 0 for psi, and the odd
        # tails for upsilon; the selectors mark the rest
        ccr = count_cycles(m + 1).ccr
        assert psi[: 1 << (m - 1)].count(1) == upsilon[1::2].count(1) == ccr

    @staticmethod
    def rotated_table(spec):
        """The flags as first built: every co-necklace's mark, then each
        necklace rotated by _mark_shift, spec by spec."""
        m = spec.n - 1
        mask = (1 << m) - 1
        necklaces, _, conecklaces = _fkm_walk(m)
        flip = mask if spec.kind in (RuleKind.UPSILON1, RuleKind.UPSILON2) else 0
        table = bytearray(mask + 1)
        for x in conecklaces:
            table[x ^ flip] = 1
        shift = _mark_shift(spec)
        for x in necklaces:
            table[rotate_left_value(x, m, shift(x))] = 1
        return bytes(table)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_shared_mark_groups_give_the_rotated_tables(self, n):
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                assert _critical_table(spec) == self.rotated_table(spec), spec

    def test_shared_mark_groups_give_the_rotated_tables_of_drawn_specs(self):
        rng = random.Random(24)
        for n in range(10, 21):
            for spec in _seeded_specs(rng, n):
                assert _critical_table(spec) == self.rotated_table(spec), spec

    def test_a_sweep_builds_each_mark_group_once_within_the_bound(self):
        # a psi2 spec reads n - 2 weight classes, and its sweep (n - 2)(n - 1)/2
        # (c, j) groups in all: up to the family cap they fit in the cache,
        # so each is built once and then shared
        _marks.cache_clear()
        for n, groups in ((9, 28), (11, 45)):
            before = _marks.cache_info().misses
            for spec in all_specs(RuleKind.PSI2, n):
                _critical_table(spec)
            assert _marks.cache_info().misses - before == groups, n
        for spec in all_specs(RuleKind.PSI2, 12):  # 55 groups, more than the bound
            _critical_table(spec)
        info = _marks.cache_info()
        assert info.currsize == info.maxsize == 45

    def test_sala_tables_make_no_rotations(self, monkeypatch):
        # a necklace is its own sala mark
        calls = []
        monkeypatch.setattr(prrseq.rules, "rotate_left_value", lambda *a: calls.append(a))
        _critical_table(RuleSpec(RuleKind.SALA, 12))
        assert calls == []

    def test_equal_specs_share_one_predicate(self):
        # below and above the table cap
        for text in ("psi2:n=9:k=5", "upsilon1:n=30:kset=1,4,30"):
            assert critical_predicate(RuleSpec.parse(text)) is critical_predicate(
                RuleSpec.parse(text)
            )


class TestClassKernels:
    """The two per-class kernels the tables and the arcs share, against
    their definitions."""

    @staticmethod
    def brute_least_rotation(x, m):
        rotations = [rotate_left_value(x, m, r) for r in range(m)]
        least = min(rotations)
        return rotations.index(least), least, (rotations[1:] + [x]).index(x) + 1

    @pytest.mark.parametrize("m", range(2, 15))
    def test_least_rotation_of_every_word(self, m):
        for x in range(1, (1 << m) - 1):  # both bits
            assert _least_rotation(x, m) == self.brute_least_rotation(x, m), (m, x)

    def test_least_rotation_of_drawn_long_words(self):
        # periodic words too: a block repeated m / d times
        rng = random.Random(126)
        for m in range(17, 127):
            for d in [m] * 20 + [d for d in range(2, m) if m % d == 0]:
                block = rng.getrandbits(d) | 1 << rng.randrange(d)
                x = int(format(block, f"0{d}b") * (m // d), 2)
                if 0 < x < (1 << m) - 1:
                    assert _least_rotation(x, m) == self.brute_least_rotation(x, m), (m, x)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_mark_shift_lands_on_the_definitional_mark(self, n):
        # N rotated by shift(N) is the one tail of N's class on the
        # selector side that the definition accepts; sala's is N, and a
        # constant N, whose class may have no tail on that side, is its own
        m = n - 1
        mask = (1 << m) - 1
        classes = {x: {rotate_left_value(x, m, r) for r in range(m)} for x in _fkm_walk(m)[0]}
        for kind in RuleKind:
            if kind in (RuleKind.UPSILON1, RuleKind.UPSILON2):
                selector_side = lambda t: not t & 1  # noqa: E731
            else:
                selector_side = lambda t: t >> (m - 1)  # noqa: E731
            for spec in all_specs(kind, n):
                shift, definition = _mark_shift(spec), definitional_predicate(spec)
                for x, tails in classes.items():
                    if kind is RuleKind.SALA or x in (0, mask):
                        assert shift(x) == 0 and definition(x), (spec, x)
                        continue
                    marks = {t for t in tails if selector_side(t) and definition(t)}
                    assert marks == {rotate_left_value(x, m, shift(x))}, (spec.spec_string(), x)

    @staticmethod
    def ones(x, m):
        return [i for i, b in enumerate(format(x, f"0{m}b")) if b == "1"]

    @pytest.mark.parametrize("m", range(1, 13))
    def test_index_of_jth_one_of_every_short_word(self, m):
        for x in range(1 << m):
            found = [_index_of_jth_one(x, m, j) for j in range(1, x.bit_count() + 1)]
            assert found == self.ones(x, m), (m, x)

    @given(st.integers(13, 63), st.data())
    def test_index_of_jth_one_of_drawn_long_words(self, m, data):
        x = data.draw(st.integers(1, (1 << m) - 1))
        found = [_index_of_jth_one(x, m, j) for j in range(1, x.bit_count() + 1)]
        assert found == self.ones(x, m)


class TestGenerate:
    def test_is_a_generator_function(self):
        # the benchmark's tracer counts the bits of generator functions only
        assert inspect.isgeneratorfunction(generate)

    def test_reproduces_reference_rows(self, table1_rows, table3_rows):
        assert generate_sequence(RuleSpec.parse("psi1:n=6:kset=1,6")) == table1_rows[0]
        assert generate_sequence(RuleSpec.parse("psi2:n=6:k=5")) == table1_rows[8 + 4]
        assert generate_sequence(RuleSpec.parse("upsilon1:n=6:kset=1,2,6")) == table3_rows[1]
        assert generate_sequence(RuleSpec.parse("upsilon2:n=6:k=0")) == table3_rows[8]

    def test_full_period_text_matches_the_bits(self):
        spec = RuleSpec.parse("upsilon2:n=17:k=3")
        start = State(12345, 17)
        bits = "".join("01"[b] for b in generate(spec, start, 1 << 17))
        assert generate_sequence(spec, start) == bits

    def test_order_three_from_zero(self):
        assert generate_sequence(RuleSpec.parse("psi2:n=3:k=1")) == "00011101"

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
        proc = _run_child(f"generate_sequence(RuleSpec.parse('sala:n={n}'))")
        assert proc.stdout == f"window order must be in [1, 24], got {n}\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("n", [25, 64])
    def test_default_count_above_the_window_cap_raises_at_once(self, n):
        # with an explicit count any order streams
        assert len(list(generate(RuleSpec.parse(f"sala:n={n}"), count=3 * n))) == 3 * n
        proc = _run_child(f"next(generate(RuleSpec.parse('sala:n={n}')))")
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
        bits = generate_sequence(spec, State(v, spec.n))
        i = (bits + bits).index("0" * spec.n)  # rotate to the 0^n window
        assert bits[i:] + bits[:i] == generate_sequence(spec)

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

    @pytest.mark.parametrize("n", range(3, 13))
    def test_walk_below_the_table_cap_is_the_state_walk(self, n, monkeypatch):
        # up to three drawn specs per family, from zero and two drawn starts,
        # around the full period; and one predicate call per bit, which the
        # benchmark's traced counts rely on
        calls = 0

        def counted(spec):
            critical = critical_predicate(spec)

            def call(v):
                nonlocal calls
                calls += 1
                return critical(v)

            return call

        monkeypatch.setattr(prrseq.rules, "critical_predicate", counted)
        rng = random.Random(n)
        size = 1 << n
        for kind in RuleKind:
            specs = list(all_specs(kind, n))
            for spec in rng.sample(specs, min(3, len(specs))):
                for v in (0, rng.randrange(size), rng.randrange(size)):
                    for count in (0, 1, size - 1, size, size + n):
                        calls = 0
                        bits = bytes(generate(spec, State(v, n), count))
                        assert bits == walk_by_states(spec, v, count), (spec, v, count)
                        assert calls == count


def walk_by_states(spec, v, count):
    """The rule's walk from state v one state at a time, one prr_step_value
    and one predicate call per bit: the oracle for generate, which looks the
    feedback up below the table cap and walks by arcs above it."""
    n = spec.n
    mask = (1 << n) - 1
    critical = critical_predicate(spec)
    out = bytearray()
    for _ in range(count):
        out.append(v >> (n - 1))
        v = prr_step_value(v, n, mask) ^ critical(v)
    return bytes(out)


def walk_by_arcs(spec, v, count):
    """The first count bits of the walk from state v by arcs, its blocks joined."""
    arcs = _arcs(spec, v)
    out = bytearray()
    while len(out) < count:
        out += next(arcs)
    return bytes(out[:count])


def edge_tails(m):
    """Tails 0^a 1^b and 1^b 0^a (the constant ones among them), or any tail."""
    ramps = st.integers(0, m).flatmap(
        lambda a: st.sampled_from([(1 << (m - a)) - 1, ((1 << (m - a)) - 1) << a])
    )
    return ramps | st.integers(0, (1 << m) - 1)


def first_critical(critical, v, n):
    """The first critical state after v on its plain PRR cycle, stepping one
    state at a time: (steps, its tail).  The oracle for the arc offsets."""
    mask = (1 << n) - 1
    for d in itertools.count(1):
        v = prr_step_value(v, n, mask)
        if critical(v):
            return d, v & (mask >> 1)


def periodic_ccr_tails(m):
    """Tails b ~b b ... b, of m / len(b) blocks (an odd count), whose word
    u.~u has period 2 len(b) < 2m; any tail where m has no such block."""
    blocks = [d for d in range(1, m) if m % d == 0 and m // d % 2] or [m]
    return st.sampled_from(blocks).flatmap(
        lambda d: st.integers(0, (1 << d) - 1).map(
            lambda b: sum((b ^ ((1 << d) - 1) * (i % 2)) << (m - d - d * i) for i in range(m // d))
        )
    )


def assert_offsets(spec, critical, tails):
    """The arc offsets of each tail's CCR and PCR states that are not
    critical agree with the window-by-window scan."""
    n, m = spec.n, spec.n - 1
    ccr, pcr = _ccr_offset(spec), _pcr_offset(spec)
    for u in tails:
        for top in (1 - (u & 1), u & 1):  # CCR, then PCR
            v = top << m | u
            if critical(v):
                continue
            d, t = first_critical(critical, v, n)
            if top != u & 1:
                assert ccr(u) == (d, t), (spec, v)
            else:
                assert pcr(u) == d, (spec, v)


class TestArcWalk:
    """Generation by arcs: one block per plain-cycle stretch, byte-identical
    to the walk one state at a time."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_offsets_of_every_tail_match_the_scan(self, n):
        # one drawn spec per family, the table predicate as reference
        rng = random.Random(n)
        for kind in RuleKind:
            spec = rng.choice(list(all_specs(kind, n)))
            assert_offsets(spec, critical_predicate(spec), range(1 << (n - 1)))

    @pytest.mark.parametrize("kind", list(RuleKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_offsets_match_the_scan_above_the_table_cap(self, kind, data):
        spec = draw_spec(data, kind, lo=21)
        m = spec.n - 1
        u = data.draw(edge_tails(m) | periodic_ccr_tails(m), label="tail")
        assert_offsets(spec, _scan_predicate(spec), [u])

    def test_a_selector_mark_one_window_on_ends_the_arc(self):
        # window 1 of u.~u starts with 1 and is its class's psi2 mark, long
        # before the co-necklace's, at 29
        spec = RuleSpec.parse("psi2:n=21:k=5")
        u = int("11101010011110110101", 2)
        t = int("11010100111101101010", 2)
        assert _ccr_offset(spec)(u) == (1, t) == first_critical(critical_predicate(spec), u, 21)
        assert _scan_predicate(spec)(t)

    def test_only_the_co_necklace_mark_ends_the_arc(self):
        # none of the 12 windows before the co-necklace is its class's mark
        spec = RuleSpec.parse("psi2:n=21:k=5")
        u = int("11001000000010000000", 2)
        c = int("00000000011011111110", 2)
        assert is_conecklace_value(c, 20)
        assert _ccr_offset(spec)(u) == (13, c) == first_critical(critical_predicate(spec), 1 << 20 | u, 21)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_full_period_of_every_spec(self, n):
        # below the table cap generate walks state by state, so the arc
        # walk is called directly here
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                assert walk_by_arcs(spec, 0, 1 << n) == walk_by_states(spec, 0, 1 << n), spec

    @pytest.mark.parametrize("kind", list(RuleKind))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_generate_agrees_with_the_state_walk_above_the_table_cap(self, kind, data):
        spec = draw_spec(data, kind, lo=21)
        n, m = spec.n, spec.n - 1
        v = data.draw(edge_tails(m), label="tail") | data.draw(st.integers(0, 1), label="top") << m
        expected = walk_by_states(spec, v, 1 << 12)
        assert bytes(generate(spec, State(v, n), 1 << 12)) == expected, spec.spec_string()
        count = data.draw(st.integers(0, 3 * n), label="count")  # cut inside a block
        assert bytes(generate(spec, State(v, n), count)) == expected[:count]

    def test_a_co_necklace_splits_the_wrapped_run_of_its_class(self):
        # C ends with 0, so its last 0s and its leading 0s form one cyclic run
        # of its rotation class: here 2 + 5 of the necklace's leading 7
        m = 20
        c = int("00000100010101010100", 2)
        assert is_conecklace_value(c, m)
        necklace = min(rotate_left_value(c, m, r) for r in range(m))
        assert necklace == int("00000001000101010101", 2)
        assert rotate_left_value(necklace, m, 2) == c
        assert 2 in _split_run(necklace, m)

    @pytest.mark.parametrize("m", range(2, 15))
    def test_every_co_necklace_is_a_split_of_its_class(self, m):
        # so none but 0 starts at a longest 0-run of its rotation class,
        # and the arc walk's candidates hold every one
        for c in _fkm_walk(m)[2][1:]:
            necklace = min(rotate_left_value(c, m, r) for r in range(m))
            assert m - c.bit_length() < m - necklace.bit_length()
            assert any(rotate_left_value(necklace, m, t) == c for t in _split_run(necklace, m))


class TestCustomPredicate:
    @pytest.mark.parametrize(
        "text",
        [
            "sala:n=7",
            "psi1:n=7:kset=1,3,7",
            "psi2:n=7:k=5",
            "upsilon1:n=7:kset=1,4,7",
            "upsilon2:n=7:k=3",
        ],
    )
    def test_definition_as_override_validates_like_the_builtin(self, text):
        # a rule written as any predicate is checked by passing it as critical=
        spec = RuleSpec.parse(text)
        custom = verify_critical_set(spec, definitional_predicate(spec))
        builtin = verify_critical_set(spec)
        assert custom.ok and custom.summary() == builtin.summary()
        assert custom.tree.parents == builtin.tree.parents
        assert custom.tree.members == builtin.tree.members
        assert custom.tree.root == builtin.tree.root


class TestWholeFamiliesAreDeBruijn:
    @pytest.mark.parametrize("text", ASSORTED)
    def test_assorted_specs(self, text):
        spec = RuleSpec.parse(text)
        assert is_de_bruijn(generate_sequence(spec), spec.n)

    def test_in_critical_set_rejects_wrong_length(self):
        with pytest.raises(InvalidSpecError):
            in_critical_set(RuleSpec.parse("sala:n=6"), State(0, 7))
