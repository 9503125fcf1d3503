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
from functools import lru_cache, partial
from itertools import chain, islice
from operator import getitem
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .canonical import _fkm_walk, _longest_zero_runs, is_conecklace_value, is_necklace_value
from .core import State, rotate_left_value
from .registers import (
    ORDER_LIMITS,
    _prr_feedback_table,
    check_order,
    prr_leap_value,
    prr_step_value,
)

CriticalPredicate = Callable[[int], bool]


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
        try:
            object.__setattr__(self, "kind", RuleKind(self.kind))
        except ValueError:
            raise InvalidSpecError(f"unknown rule kind {self.kind!r}") from None
        lo, hi = ORDER_LIMITS["rule"]
        if type(self.n) is not int or not lo <= self.n <= hi:
            raise InvalidSpecError(f"n must be an int in [{lo}, {hi}], got {self.n!r}")
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
        if not isinstance(self.kset, Iterable):
            raise InvalidSpecError(f"kset must be strictly increasing ints, got {self.kset!r}")
        object.__setattr__(self, "kset", tuple(self.kset))
        ks = self.kset
        if any(type(c) is not int for c in ks) or list(ks) != sorted(set(ks)):
            raise InvalidSpecError(f"kset must be strictly increasing ints, got {ks}")
        if not 2 <= len(ks) <= self.n - 1:
            raise InvalidSpecError(f"kset size must be in [2, n-1], got {len(ks)}")
        if ks[0] != 1 or ks[-1] != self.n:
            raise InvalidSpecError(f"kset must start at 1 and end at n={self.n}")
        if ks[-2] >= self.n - 1:
            raise InvalidSpecError("second-largest kset element must be < n-1")

    def _check_k(self) -> None:
        if self.kset is not None or self.k is None:
            raise InvalidSpecError(f"{self.kind.value} takes k, not kset")
        if type(self.k) is not int:
            raise InvalidSpecError(f"k must be an int, got {self.k!r}")
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
    """spec's critical set tested state by state on the tail u, the last
    n - 1 bits: the path above the table cap, and the oracle for the tables.

    Sala accepts necklaces and co-necklaces.  Psi accepts a u starting with
    0 iff it is a co-necklace; upsilon a u ending with 1 iff ~u is one.  The
    rest go to the rule's selector, which accepts the one tail per rotation
    class that e(c) advances take to its necklace: psi's on u, upsilon's on
    y = 0 and u's first n - 2 bits.  A necklace starts at a longest 0-run, so
    a selector tests only the one its advances can rotate a tail to."""
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

    if spec.kind in (RuleKind.PSI1, RuleKind.PSI2):
        top = 1 << (m - 1)

        def critical(v: int) -> bool:
            u = v & mask
            if u & top:  # lambda^e: past the e(c)-th one
                return u == mask or necklace_at(u, u, e[u.bit_count()])
            return is_conecklace_value(u, m)

        return critical

    def critical(v: int) -> bool:
        u = v & mask
        if u & 1:
            return is_conecklace_value(u ^ mask, m)
        # theta^e on y: to the (e(z)+1)-th zero, the (e(z)-a+1)-th mod z past y's a leading 0s
        y = u >> 1
        a, z = m - y.bit_length(), m - y.bit_count()
        w = ((y << a) | (y >> (m - a))) & mask
        return not y or necklace_at(w, w ^ mask, (e[z] - a) % z)

    return critical


def _index_of_jth_one(x: int, m: int, j: int) -> int:
    """Index, counting from the left, of the j-th 1 of the m-bit value x.

    Binary search on prefix popcounts; x must have at least j ones.
    """
    lo, hi = 0, m - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        if (x >> (m - 1 - mid)).bit_count() >= j:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _mark_shift(spec: RuleSpec) -> Callable[[int], int]:
    """An (n-1)-bit necklace x rotated left by shift(x) is spec's mark in x's
    rotation class, the tail that e(c) advances take to x.  Psi: x's
    ((c - e(c)) mod c + 1)-th of c ones; upsilon: one past its
    ((z - e(z)) mod z + 1)-th of z zeros; sala and a constant x: 0.

    A psi advance (lambda) rotates past the first 1; an upsilon advance
    (theta) rotates to the first 0 after position 0, and leaves a tail with
    no such 0 as it is.  tests/test_rules.py's definitional_predicate
    applies them as the paper defines them, the reference for this rule."""
    m = spec.n - 1
    if spec.kind is RuleKind.SALA:
        return lambda x: 0
    upsilon = spec.kind in (RuleKind.UPSILON1, RuleKind.UPSILON2)
    flip, lag = ((1 << m) - 1, 1) if upsilon else (0, 0)
    e = _exponents(spec.kind, spec.n, spec.kset, spec.k)
    j = [0] + [(c - e[c]) % c + 1 for c in range(1, m + 1)]

    def shift(x: int) -> int:
        y = x ^ flip  # psi counts x's ones, upsilon its zeros
        c = y.bit_count()
        return _index_of_jth_one(y, m, j[c]) + lag if 0 < c < m else 0

    return shift


def _critical_table(spec: RuleSpec) -> bytes:
    """spec's critical flags over the (n-1)-bit tails: one mark per register
    cycle, from one FKM walk.  A co-necklace C (it starts and ends with 0)
    marks C for sala and psi, and ~C, an odd tail starting with 1, for
    upsilon.  A necklace x marks x rotated by _mark_shift (a constant x is
    its own mark, and also a co-necklace's)."""
    n = spec.n
    check_order(n, "table")
    m = n - 1
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


@lru_cache(maxsize=8)
def _predicate(spec: RuleSpec) -> CriticalPredicate:
    if spec.n > ORDER_LIMITS["table"][1]:
        return _scan_predicate(spec)
    # operator.getitem through a partial: C calls, cheaper than the bound
    # bytes.__getitem__ (a method-wrapper); no mask, as the flags are doubled
    return partial(getitem, _critical_table(spec) * 2)


def critical_predicate(spec: RuleSpec) -> CriticalPredicate:
    """Membership test for spec's critical set, over packed n-bit values.

    Rules read only the last n - 1 bits: up to ORDER_LIMITS["table"] the
    test is a lookup in 2^(n-1) flags stored twice, above it a per-state
    test.  Built once per spec (a few are cached) and called per state."""
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
    Above the table cap the walk goes arc by arc (_arcs); up to it, state
    by state: per bit, one lookup in the order's feedback table and one
    predicate call, a lookup in the spec's critical flags.
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
    if n > ORDER_LIMITS["table"][1]:
        yield from islice(chain.from_iterable(_arcs(spec, v)), count)
        return
    critical = critical_predicate(spec)
    feedback = _prr_feedback_table(n)
    mask = (1 << n) - 1
    top = n - 1
    for _ in range(count):
        yield v >> top
        v = ((v << 1) & mask | feedback[v]) ^ critical(v)


_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_BIT = (b"\x00", b"\x01")


def _arcs(spec: RuleSpec, v: int) -> Iterator[bytes]:
    """The rule's walk from state v, one block of bits per arc: the plain
    PRR steps up to and including the next critical state.

    From v, with tail u and c its oldest bit XOR its youngest, the plain
    steps emit v's oldest bit, then u, then u XOR c (prr_leap_value): the
    tails ahead are u's rotations on a PCR cycle (c = 0) and the windows
    of u followed by ~u on a CCR cycle.  So only the offset d of the first
    critical tail is needed; the block is the d + 1 oldest bits up to it,
    and the walk jumps to its successor with the feedback complemented."""
    n, m = spec.n, spec.n - 1
    mask, state_mask = (1 << m) - 1, (1 << n) - 1
    critical = critical_predicate(spec)
    pcr_offset = _pcr_offset(spec)
    ccr_offset = _ccr_offset(spec)
    step = prr_step_value
    while True:
        u = v & mask
        if critical(u):  # 20-50% of arcs, and every constant PCR tail, end here
            yield _BIT[v >> m]
            v = step(v, n, state_mask) ^ 1
            continue
        if ((v >> m) ^ v) & 1:  # CCR: the windows of u.~u
            d, t = ccr_offset(u)
        else:
            d = pcr_offset(u)
            t = rotate_left_value(u, m, d)
        word = (v << m | prr_leap_value(v, n) & mask) >> (2 * m - d)
        yield bin(word | 2 << d)[3:].encode().translate(_BITS)
        v = step((word & 1) << m | t, n, state_mask) ^ 1


def _least_rotation(x: int, m: int) -> Tuple[int, int, int]:
    """(k, N, p) for an m-bit x holding both bits: N is x's least rotation,
    x rotated left by k < p, and p is N's period.  N starts at a longest
    0-run, and so does each of the m/p rotations that give it."""
    mask = (1 << m) - 1
    a = m - x.bit_length()  # x rotated left by a starts with 1: no 0-run wraps
    w = ((x << a) | (x >> (m - a))) & mask
    starts = _longest_zero_runs(w, m)
    if len(starts) == 1:  # one run, one least rotation: no list to build
        return (a + starts[0]) % m, rotate_left_value(w, m, starts[0]), m
    rotations = [((w << s) | (w >> (m - s))) & mask for s in starts]
    least = min(rotations)
    ks = [(a + s) % m for s, y in zip(starts, rotations) if y == least]
    return min(ks), least, m // len(ks)


def _ccr_offset(spec: RuleSpec) -> Callable[[int], Tuple[int, int]]:
    """For a tail u on a CCR cycle, not critical, the offset d of the first
    critical tail among the windows of w = u.~u, and that window.

    Window k followed by its complement is w rotated left by k, so the one
    co-necklace among the windows, C, is where that rotation is w's
    necklace; upsilon marks ~C, m windows on, and the windows repeat with
    w's period.  Before it a window is critical iff it is its class's mark:
    the necklace N, which starts at a longest 0-run, rotated by a count.
    Psi's starts with 1, e(c) 1s before N; upsilon's ends with 0, read as
    y = 0 and its first m - 1 bits, e(z) 0s of y before N (z if e(z) = 0);
    sala's is N.  Window k's longest runs have the largest L with a start of
    L 0s in k..k+m-L, which changes only as runs enter or leave, so the
    windows go by in stretches of one L.  Psi reads the windows at 1s;
    upsilon reads window k as y, window k - 1 (at a 1) with that 1 cleared."""
    m = spec.n - 1
    mask, m2, m3 = (1 << m) - 1, 2 * m, 3 * m
    upsilon = spec.kind in (RuleKind.UPSILON1, RuleKind.UPSILON2)
    sala = spec.kind is RuleKind.SALA
    e = [] if sala else _exponents(spec.kind, spec.n, spec.kset, spec.k)
    e = [x or z for z, x in enumerate(e)] if upsilon else e
    lag = 1 if upsilon else 0
    span = [(1 << (m - L + 1)) - 1 for L in range(m + 2)]

    def offset(u: int) -> Tuple[int, int]:
        w = u << m | u ^ mask
        x = w << m | w >> m  # string index i is bit m3 - 1 - i; window k is k..k+m-1
        Z = [0, x ^ ((1 << m3) - 1)]  # Z[L]: where L 0s start
        while Z[-1]:
            Z.append(Z[-1] & Z[1] << (len(Z) - 1))
        L = top = len(Z) - 2
        lead = Z[top] >> m  # w's longest 0-runs: a lone one is where C starts
        k, _, p = _least_rotation(w, m2) if lead & (lead - 1) else (m2 - lead.bit_length(), 0, m2)
        f, stop = 1 - lag, (k + lag * m) % p - lag
        c0, prev, tau = u.bit_count(), -1, (u & -u).bit_length() - 2

        def least(q: int, y: int, s: int, tie: bool = False) -> bool:  # rotated by s, y is least
            S = (Z[L] >> (m2 - 1 - q + L)) & span[L]
            return not (tie or S & (S - 1)) or is_necklace_value(rotate_left_value(y, m, s), m)

        while (f := f if sala else m3 - (x & ((1 << (m3 - f)) - 1)).bit_length()) < stop:
            while (Z[L + 1] >> (m2 - f + L)) & span[L + 1]:
                L += 1
            while L and not (Z[L] >> (m2 - 1 - f + L)) & span[L]:
                L -= 1
            if not L:  # all 1s (y = 0 1^(m-1) for upsilon): its class's one tail
                return f + lag, (x >> (m2 - f - lag)) & mask
            # L holds until a longer run enters or none is in reach; keys: count -> start
            end = min(m2 + L + 1 - (Z[L + 1] & ((1 << (m2 - f + L)) - 1)).bit_length(), stop)
            starts = Z[L] & ((1 << (m3 - f)) - 1)
            P, keys = m3 - starts.bit_length(), {}
            while P < end + m - L:
                R = (x >> (m3 - P)).bit_count()
                keys[P if sala else P - R if upsilon else R] = P
                starts ^= 1 << (m3 - 1 - P)
                if (nxt := m3 - starts.bit_length()) > P + m - L + 1:
                    end = min(end, P + 1)
                P = nxt
            for P in keys if sala else ():  # a window ending with 1 at a longest run
                if f <= P < end and (t := (x >> (m2 - P)) & mask) & 1 and least(P, t, 0, False):
                    return P, t
            ones = 0 if sala else (x >> (m3 - end)) & ((1 << (end - f)) - 1)
            r = (x >> (m3 - f)).bit_count()  # the 1s before window q
            while ones:
                j = ones.bit_length()
                q = end - j
                ones ^= 1 << (j - 1)
                c = c0 + q - 2 * r  # window q's weight: a step swaps a bit for its complement
                z = m + 1 - c
                P = keys.get(q - r + e[z] - 1 if upsilon else r + e[c])
                r += 1
                if not upsilon:
                    if P is not None and P <= q + m - L:
                        if least(q, t := (x >> (m2 - q)) & mask, P - q):
                            return q, t
                    continue
                tau = tau + 1 if q == prev + 1 else 0  # window q's last 0s: ~(the 1s before q)
                prev = q
                if c == 1:  # y = 0
                    return q + 1, 0
                if (merged := z - tau == e[z]) or P is not None and P <= q + m - L:
                    y = (x >> (m2 - q)) & (mask >> 1)
                    M = m - y.bit_length() + tau  # y's wrapped run
                    s = m - tau if merged else P - q
                    if (M >= L if merged else L >= M) and least(q, y, s, M == L):
                        return q + 1, (x >> (m2 - q - 1)) & mask
            f = end
        return stop + lag, (x >> (m2 - stop - lag)) & mask

    return offset


def _split_run(y: int, m: int) -> range:
    """The t for which y = 0^L B (B starts and ends with 1) rotated left by t,
    0^(L-t) B 0^t, passes the co-necklace run filter: no run of B, and not
    the last t 0s, is longer than the first L - t."""
    b = y.bit_length()
    run = m - b
    agree = ~(y ^ (y >> 1)) & ((1 << (b - 1)) - 1)  # bit i: B's bits i and i + 1 agree
    longest = 1  # B's longest run, counted up to run
    while agree and longest < run:
        agree &= agree << 1
        longest += 1
    return range(1, min(run // 2, run - longest) + 1)


def _pcr_offset(spec: RuleSpec) -> Callable[[int], int]:
    """For a tail u on a PCR cycle, neither critical nor constant, the
    offset d of the first critical tail among its rotations: the tail
    rotated left by d.

    u's class holds its necklace N's own mark, N rotated by _mark_shift as
    in _critical_table, and the co-necklace marks that fall in it.  A
    co-necklace C (~C for upsilon) starts and ends with 0, so it splits the
    class's one longest 0-run into its last and its first 0s, and no other
    run, nor its last 0s, is longer than its first (_split_run; none in a
    periodic class).  Each split before the best offset so far is tested."""
    m = spec.n - 1
    mask = (1 << m) - 1
    critical = critical_predicate(spec)
    shift = _mark_shift(spec)
    upsilon = spec.kind in (RuleKind.UPSILON1, RuleKind.UPSILON2)

    def offset(u: int) -> int:
        a, x, p = _least_rotation(u, m)  # N = x is u rotated left by a
        best = (a + shift(x)) % p
        if upsilon:  # ~C is a rotation of N: split ~N's longest 0-run (none if two)
            s = _longest_zero_runs(x ^ mask, m)[0]
            a, x = a + s, rotate_left_value(x ^ mask, m, s)  # ~N at that run: u rotated by a
        for t in _split_run(x, m):
            f = (a + t) % m
            if f < best and critical(rotate_left_value(u, m, f)):
                best = f
        return best

    return offset


def _bit_text(bits: Iterator[int]) -> Iterator[str]:
    """A stream of 0/1 ints as "0"/"1" text, 2^16 bits per piece."""
    while block := bytes(islice(bits, 1 << 16)):
        yield block.translate(_TEXT).decode()


@dataclass(frozen=True)
class SequenceRecord:
    """One full period of a rule's output."""

    bits: str
    spec: RuleSpec
    start: State


def generate_sequence(spec: RuleSpec, start: Optional[State] = None) -> SequenceRecord:
    """One full period (2^n bits) starting from start, default all zeros.

    A full period is capped at the window-scan order, as in the CLI."""
    if start is None:
        start = State(0, spec.n)
    bits = "".join(_bit_text(generate(spec, start)))
    return SequenceRecord(bits, spec, start)
