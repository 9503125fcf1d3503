"""Successor rules that join the run-length register's cycles into one.

Each rule follows the feedback of the pure run-length register except on
a critical set of states, where it complements the feedback bit.  When
the critical set holds exactly one conjugate pair of states per joinable
pair of cycles, and those joins connect all cycles, the walk visits every
n-bit window exactly once: a de Bruijn sequence of order n.

Five rules are provided.  All of them accept, on each complementing-type
cycle, the state whose tail is the co-necklace.  They differ on the
cycling-type cycles:

* ``sala`` accepts tails that are necklaces outright;
* ``psi1`` and ``psi2`` accept the tail that reaches its cycle's necklace
  after a prescribed number of advance-past-the-first-1 rotations;
* ``upsilon1`` and ``upsilon2`` do the same with advance-to-the-next-0
  rotations of the zero-prefixed tail.

The prescription is a set of breakpoints (``kset``) for psi1/upsilon1 and
a single exponent (``k``) for psi2/upsilon2, giving 2^(n-3) respectively
lcm(1..n-2) distinct sequences per family.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple

from .canonical import _fkm_walk, _longest_zero_runs, is_conecklace_value, is_necklace_value
from .core import State, rotate_left_value, theta_rotate_value
from .registers import ORDER_LIMITS, check_order, prr_step_value

CriticalPredicate = Callable[[int], bool]
TailSelector = Callable[[int], bool]


class RuleKind(Enum):
    SALA = "sala"
    PSI1 = "psi1"
    PSI2 = "psi2"
    UPSILON1 = "upsilon1"
    UPSILON2 = "upsilon2"


class SpecSyntaxError(ValueError):
    """Rule spec string does not match the grammar."""


class InvalidSpecError(ValueError):
    """Well-formed spec with parameters outside the rule's valid range."""


def exponent_period(n: int) -> int:
    """lcm(1..n-2): the number of distinct single-exponent rules.

    Exponents k and k + exponent_period(n) select identical critical
    sets, because every advance operator cycles with some period
    dividing n - 2 on the tails it is applied to.
    """
    return math.lcm(*range(1, n - 1))


def exponent_range(kind: RuleKind, n: int) -> range:
    """Valid k at order n: 1..L for psi2, 0..L-1 for upsilon2, L = exponent_period(n)."""
    lo = 1 if kind is RuleKind.PSI2 else 0
    return range(lo, lo + exponent_period(n))


@dataclass(frozen=True)
class RuleSpec:
    """A fully parameterized successor rule.

    kset applies to psi1/upsilon1 and must be strictly increasing with
    first element 1, last element n, and second-largest element < n - 1.
    k applies to psi2/upsilon2 and must lie in exponent_range(kind, n).
    """

    kind: RuleKind
    n: int
    kset: Optional[Tuple[int, ...]] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        lo, hi = ORDER_LIMITS["rule"]
        if not lo <= self.n <= hi:
            raise InvalidSpecError(f"n must be in [{lo}, {hi}], got {self.n}")
        if self.kind in (RuleKind.PSI1, RuleKind.UPSILON1):
            self._check_kset()
        elif self.kind in (RuleKind.PSI2, RuleKind.UPSILON2):
            self._check_k()
        else:
            if self.kset is not None or self.k is not None:
                raise InvalidSpecError("sala takes no parameters besides n")

    def _check_kset(self) -> None:
        if self.k is not None or self.kset is None:
            raise InvalidSpecError(f"{self.kind.value} takes kset, not k")
        object.__setattr__(self, "kset", tuple(self.kset))
        ks = self.kset
        if list(ks) != sorted(set(ks)):
            raise InvalidSpecError(f"kset must be strictly increasing, got {ks}")
        if not 2 <= len(ks) <= self.n - 1:
            raise InvalidSpecError(f"kset size must be in [2, n-1], got {len(ks)}")
        if ks[0] != 1 or ks[-1] != self.n:
            raise InvalidSpecError(f"kset must start at 1 and end at n={self.n}")
        if ks[-2] >= self.n - 1:
            raise InvalidSpecError("second-largest kset element must be < n-1")

    def _check_k(self) -> None:
        if self.kset is not None or self.k is None:
            raise InvalidSpecError(f"{self.kind.value} takes k, not kset")
        valid = exponent_range(self.kind, self.n)
        if not valid[0] <= self.k <= valid[-1]:
            raise InvalidSpecError(
                f"k must be in [{valid[0]}, {valid[-1]}] for n={self.n}, got {self.k}"
            )

    @classmethod
    def parse(cls, text: str) -> "RuleSpec":
        """Parse ``kind:n=N``, ``kind:n=N:kset=a,b,...`` or ``kind:n=N:k=K``."""
        parts = text.strip().split(":")
        try:
            kind = RuleKind(parts[0].lower())
        except ValueError:
            raise SpecSyntaxError(f"unknown rule kind {parts[0]!r}") from None
        fields = {}
        for part in parts[1:]:
            key, sep, val = part.partition("=")
            if not sep or not key:
                raise SpecSyntaxError(f"malformed field {part!r}, expected key=value")
            if key in fields:
                raise SpecSyntaxError(f"duplicate field {key!r}")
            fields[key] = val
        n = _parse_int(fields.pop("n", None), "n")
        kset = k = None
        if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
            raw = fields.pop("kset", None)
            if raw is None:
                raise SpecSyntaxError(f"{kind.value} requires a kset field")
            kset = tuple(_parse_int(item, "kset") for item in raw.split(","))
        elif kind in (RuleKind.PSI2, RuleKind.UPSILON2):
            k = _parse_int(fields.pop("k", None), "k")
        if fields:
            raise SpecSyntaxError(f"unexpected field {sorted(fields)[0]!r}")
        return cls(kind, n, kset=kset, k=k)

    def spec_string(self) -> str:
        """Inverse of parse."""
        if self.kset is not None:
            return f"{self.kind.value}:n={self.n}:kset={','.join(map(str, self.kset))}"
        if self.k is not None:
            return f"{self.kind.value}:n={self.n}:k={self.k}"
        return f"{self.kind.value}:n={self.n}"


def _parse_int(raw: Optional[str], field: str) -> int:
    if raw is None:
        raise SpecSyntaxError(f"missing field {field!r}")
    try:
        return int(raw, 10)
    except ValueError:
        raise SpecSyntaxError(f"field {field!r} needs an integer, got {raw!r}") from None


def psi_critical_predicate(n: int, selector: TailSelector) -> CriticalPredicate:
    """Critical predicate accepting states by their tail u = bits 1..n-1.

    Tails starting with 0 are accepted iff they are co-necklaces.  Tails
    starting with 1 go to ``selector``, which must accept exactly one
    tail per rotation class for the resulting rule to be valid; the
    selector sees the tail as an (n-1)-bit value.
    """
    m = n - 1
    tail_mask = (1 << m) - 1
    tail_top = 1 << (m - 1)

    def critical(v: int) -> bool:
        u = v & tail_mask
        if u & tail_top:
            return selector(u)
        return is_conecklace_value(u, m)

    return critical


def upsilon_critical_predicate(n: int, selector: TailSelector) -> CriticalPredicate:
    """Critical predicate accepting states by their last bit.

    States ending in 1 are accepted iff the complement of bits 1..n-2,
    followed by 0, is a co-necklace.  States ending in 0 go to
    ``selector``, which sees the (n-1)-bit value 0,c1..c_{n-2} and must
    accept exactly one member per rotation class of such values.
    """
    m = n - 1
    mid_mask = (1 << (n - 2)) - 1

    def critical(v: int) -> bool:
        mid = (v >> 1) & mid_mask  # bits 1..n-2
        if v & 1:
            return is_conecklace_value((mid ^ mid_mask) << 1, m)
        return selector(mid)

    return critical


def _exponents(kind: RuleKind, n: int, kset=None, k=None) -> List[int]:
    """The exponent table of a psi or upsilon rule: e[c] advances take an
    accepted tail with count c to its necklace, c in 1..n-1 (e[0] unused):
    the weight for psi, where 1 <= e[c] <= c, and the number of zeros for
    upsilon, where 0 <= e[c] < c.

    * psi1: the largest kset element <= c; upsilon1: one less.
    * psi2: k is read cyclically over a cycle's weight-c tails (k and k + c
      agree).  The accepted tail's advance orbit first hits the necklace at
      a step congruent to k - 1 mod c, so k = 1 is a full lap of c advances.
    * upsilon2: zero-prefixed tails have purely periodic advance orbits of
      period c, so k is read mod c, one step behind psi2.

    k may lie outside RuleSpec's range: k and k + exponent_period(n) accept
    the same tails.
    """
    exponent = {
        RuleKind.PSI1: lambda c: kset[bisect_right(kset, c) - 1],
        RuleKind.PSI2: lambda c: (k - 2) % c + 1,
        RuleKind.UPSILON1: lambda c: kset[bisect_right(kset, c) - 1] - 1,
        RuleKind.UPSILON2: lambda c: (k - 1) % c,
    }[kind]
    return [0] + [exponent(c) for c in range(1, n)]


def _scan_predicate(spec: RuleSpec) -> CriticalPredicate:
    """spec's critical set tested state by state: the path above the table
    cap, and the oracle for the tables.  A necklace starts at a longest 0-run,
    so a selector tests only the one its advances can rotate a tail to."""
    n, m = spec.n, spec.n - 1
    mask = (1 << m) - 1
    if spec.kind is RuleKind.SALA:

        def critical(v: int) -> bool:
            u = v & mask
            return is_necklace_value(u, m) or is_conecklace_value(u, m)

        return critical
    e = _exponents(spec.kind, n, spec.kset, spec.k)

    def necklace_at(w: int, counted: int, before: int) -> bool:  # w starts with 1
        for s in _longest_zero_runs(w, m):  # at most one has `before` ones of counted ahead
            if (counted >> (m - s)).bit_count() == before:
                return is_necklace_value(rotate_left_value(w, m, s), m)
        return False

    if spec.kind in (RuleKind.PSI1, RuleKind.PSI2):  # lambda^e: past the e(c)-th one
        return psi_critical_predicate(
            n, lambda u: u == mask or necklace_at(u, u, e[u.bit_count()])
        )

    def upsilon_selector(u: int) -> bool:
        # theta^e: to the (e(z)+1)-th zero, the (e(z)-a+1)-th mod z past u's a leading 0s
        a, z = m - u.bit_length(), m - u.bit_count()
        w = ((u << a) | (u >> (m - a))) & mask
        return not u or necklace_at(w, w ^ mask, (e[z] - a) % z)

    return upsilon_critical_predicate(n, upsilon_selector)


@lru_cache(maxsize=4)
def _order_tables(m: int) -> Tuple[bytes, bytes, bytes]:
    """The sala, psi and upsilon flags over the m-bit tails, psi and upsilon
    without their selector halves.  All co-necklaces start and end with 0:
    psi reads those tails as they are, and upsilon reads the complement of
    the odd tails that start with 1.  sala adds the necklaces."""
    mask = (1 << m) - 1
    necklaces, _, conecklaces = _fkm_walk(m)
    psi, upsilon = bytearray(mask + 1), bytearray(mask + 1)
    for x in conecklaces:
        psi[x] = upsilon[mask ^ x] = 1
    sala = bytearray(psi)
    for x in necklaces:
        sala[x] = 1
    return bytes(sala), bytes(psi), bytes(upsilon)


def _critical_table(spec: RuleSpec) -> bytes:
    """spec's critical flags over the (n-1)-bit tails, from the necklaces.
    The tail a selector accepts is the one that e(c) advances take to its
    class's necklace x, of weight c and z zeros: for psi, x rotated to its
    one number c - e(c) + 1, which theta reaches on x's complement; for
    upsilon, x rotated to its zero number z - e(z) + 1, z - e(z) thetas."""
    n = spec.n
    check_order(n, "table")
    m = n - 1
    sala, psi, upsilon = _order_tables(m)
    if spec.kind is RuleKind.SALA:
        return sala
    necklaces = _fkm_walk(m)[0]
    e = _exponents(spec.kind, n, spec.kset, spec.k)
    if spec.kind in (RuleKind.PSI1, RuleKind.PSI2):
        table = bytearray(psi)
        mask = (1 << m) - 1
        for x in necklaces[1:]:  # 0 has no rotation starting with 1
            c = x.bit_count()
            table[mask ^ theta_rotate_value(x ^ mask, m, c - e[c] + 1)] = 1
    else:
        table = bytearray(upsilon)
        for x in necklaces[:-1]:  # all ones has no rotation starting with 0
            z = m - x.bit_count()
            table[theta_rotate_value(x, m, z - e[z]) << 1] = 1
    return bytes(table)


@lru_cache(maxsize=8)
def _predicate(spec: RuleSpec) -> CriticalPredicate:
    if spec.n > ORDER_LIMITS["table"][1]:
        return _scan_predicate(spec)
    table = _critical_table(spec)
    tail_mask = (1 << (spec.n - 1)) - 1
    return lambda v: table[v & tail_mask]


def critical_predicate(spec: RuleSpec) -> CriticalPredicate:
    """Membership test for spec's critical set, over packed n-bit values.

    Rules read only the last n - 1 bits: up to ORDER_LIMITS["table"] the
    test is a lookup in 2^(n-1) flags, above it a per-state test.  Built
    once per spec (a few are cached) and called per state."""
    return _predicate(spec)


def _check_state(spec: RuleSpec, s: State) -> None:
    if s.n != spec.n:
        raise InvalidSpecError(f"state length {s.n} does not match spec n={spec.n}")


def in_critical_set(spec: RuleSpec, s: State) -> bool:
    """True iff the rule complements the register feedback at s."""
    _check_state(spec, s)
    return bool(critical_predicate(spec)(s.value))


def next_bit(spec: RuleSpec, s: State) -> int:
    """The bit the rule shifts in after s."""
    return next_state(spec, s).value & 1


def next_state(spec: RuleSpec, s: State) -> State:
    _check_state(spec, s)
    v = prr_step_value(s.value, s.n, (1 << s.n) - 1) ^ critical_predicate(spec)(s.value)
    return State(v, s.n)


def generate(
    spec: RuleSpec,
    start: Optional[State] = None,
    count: Optional[int] = None,
) -> Iterator[int]:
    """Stream the rule's sequence: bit j is the oldest bit of the window
    at position j, so the first n bits spell out the start state.

    start defaults to all zeros, count to the full period 2^n (n <= 24).
    """
    n = spec.n
    if start is None:
        v = 0
    else:
        _check_state(spec, start)
        v = start.value
    if count is None:
        check_order(n, "window")
        count = 1 << n
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    critical = critical_predicate(spec)
    step = prr_step_value  # a local name saves a global lookup per bit
    mask = (1 << n) - 1
    top = n - 1
    for _ in range(count):
        yield (v >> top) & 1
        v = step(v, n, mask) ^ critical(v)


@dataclass(frozen=True)
class SequenceRecord:
    """One full period of a rule's output."""

    bits: str
    spec: RuleSpec
    start: State


def generate_sequence(spec: RuleSpec, start: Optional[State] = None) -> SequenceRecord:
    """One full period (2^n bits) starting from start, default all zeros.

    A full period is capped at the window-scan order, as in the CLI."""
    check_order(spec.n, "window")
    if start is None:
        start = State(0, spec.n)
    bits = "".join("01"[b] for b in generate(spec, start, 1 << spec.n))
    return SequenceRecord(bits, spec, start)
