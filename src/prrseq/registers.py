"""Feedback functions and the cycle structure of the run-length register.

Three registers appear here.  The pure cycling register (PCR) feeds the
oldest bit back; the complemented cycling register (CCR) feeds its
complement back; the pure run-length register (PRR) feeds back the parity
of the oldest bit, the second-oldest bit, and the youngest bit.  The PRR
of order n splits the 2^n states into cycles that mirror the PCR and CCR
cycles of order n - 1, which is what the successor rules exploit.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .canonical import _fkm_walk
from .core import MAX_LENGTH, State

# Supported orders, (lo, hi) inclusive, for each operation.  Generation is
# capped by the state width; whole-register operations by their O(2^n)
# tables, and family enumeration by the lcm(1..n-2) family sizes.
ORDER_LIMITS = {
    "rule": (3, MAX_LENGTH),
    "decompose": (3, 24),
    "window": (1, 24),
    "tree": (3, 20),
    "table": (3, 20),
    "family": (3, 11),
}


class OrderOutOfRangeError(ValueError):
    """Order outside the supported range for the requested operation."""


class CycleKind(Enum):
    PCR = "pcr"
    CCR = "ccr"


def check_order(n: int, operation: str) -> None:
    """Raise OrderOutOfRangeError unless n is within ORDER_LIMITS[operation]."""
    lo, hi = ORDER_LIMITS[operation]
    if not lo <= n <= hi:
        raise OrderOutOfRangeError(
            f"{operation} order must be in [{lo}, {hi}], got {n}"
        )


def prr_step_value(v: int, n: int, mask: int) -> int:
    """Shift the n-bit value v left within mask and append the PRR
    feedback: the parity of the oldest, second-oldest and youngest bits."""
    b = ((v >> (n - 1)) ^ (v >> (n - 2)) ^ v) & 1
    return ((v << 1) & mask) | b


def _prr_feedback_table(n: int) -> bytes:
    """prr_step_value's feedback bit for every n-bit state, one byte per
    state.  Within each quarter the byte is the youngest bit, complemented
    where the parity of the two oldest bits is 1: in the middle two
    quarters.  2^n bytes, so used only up to ORDER_LIMITS["table"]."""
    half = 1 << (n - 3)
    same, flipped = b"\0\1" * half, b"\1\0" * half
    return b"".join((same, flipped, flipped, same))


def prr_leap_value(v: int, n: int) -> int:
    """The state n - 1 PRR steps after the n-bit value v, in closed form.

    The oldest bit XOR the youngest bit, c, is the same along a PRR
    cycle, so each step shifts in the second-oldest bit XOR c: the next
    n - 1 steps shift in v's last n - 1 bits, each XOR c.  So the walk
    reads v's tail, then the tail XOR c, then the tail again."""
    m = n - 1
    return (v & 1) << m | (v ^ -(((v >> m) ^ v) & 1)) & ((1 << m) - 1)


def prr_next_bit(s: State) -> int:
    """Parity of the oldest, second-oldest, and youngest bits."""
    check_order(s.n, "rule")
    return prr_step_value(s.value, s.n, (1 << s.n) - 1) & 1


def _cycle_kind(v: int, n: int) -> CycleKind:
    return CycleKind.PCR if ((v >> (n - 1)) ^ v) & 1 == 0 else CycleKind.CCR


def classify_state(s: State) -> CycleKind:
    """Kind of the PRR cycle containing s.

    The first n - 1 bits of the states on one cycle trace an order-(n-1)
    PCR or CCR cycle; which one is visible in any single member: PCR
    exactly when the oldest and youngest bits agree.  Constant on cycles.
    """
    check_order(s.n, "rule")
    return _cycle_kind(s.value, s.n)


@dataclass(frozen=True, slots=True)
class Cycle:
    """One cycle of the PRR state graph.

    Member states are not stored: they are the period PRR steps from the
    representative.  A CycleArray builds these records as they are read.
    """

    representative: State
    kind: CycleKind
    period: int


@dataclass(frozen=True, slots=True)
class CycleArray(Sequence):
    """Read-only sequence of order-n PRR cycles, held as two arrays: the
    representatives' values (array('Q')) and the periods (array('B')).

    Indexing and iteration build each Cycle when it is read; the kind
    follows from the representative.  So a whole decomposition keeps 9
    bytes per cycle.  Equal contents compare and hash alike.
    """

    order: int
    representatives: array
    periods: array

    def __len__(self) -> int:
        return len(self.periods)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CycleArray(self.order, self.representatives[i], self.periods[i])
        v = self.representatives[i]
        return Cycle(State(v, self.order), _cycle_kind(v, self.order), self.periods[i])

    def __hash__(self) -> int:
        return hash((self.order, self.representatives.tobytes(), self.periods.tobytes()))


@dataclass(frozen=True, slots=True)
class CycleStructure:
    """Full cycle decomposition of the order-n PRR."""

    order: int
    pcr_cycles: CycleArray
    ccr_cycles: CycleArray

    @property
    def cycles(self) -> CycleArray:
        """Every cycle, the PCR-type ones first."""
        pcr, ccr = self.pcr_cycles, self.ccr_cycles
        return CycleArray(
            self.order, pcr.representatives + ccr.representatives, pcr.periods + ccr.periods
        )

    def lines(self) -> Iterator[str]:
        """Kind, period and representative of each cycle, PCR-type first,
        as newline-terminated lines."""
        n = self.order
        return (
            f"{kind.value} {p} ({v:0{n}b})\n"
            for kind, part in ((CycleKind.PCR, self.pcr_cycles), (CycleKind.CCR, self.ccr_cycles))
            for v, p in zip(part.representatives, part.periods)
        )


def decompose(n: int) -> CycleStructure:
    """Partition all 2^n states into PRR cycles.

    Along a cycle the first n - 1 bits run through the rotations of a
    necklace N (PCR type) or the complement-rotations of a co-necklace C
    (CCR type), and the last bit repeats the first bit or complements it.
    So the least member, the representative, is N followed by its first
    bit, or C followed by the complement of its first bit, and the period
    is that of N, or of the word C followed by its complement.  Within
    each kind, cycles come out sorted by representative.
    """
    check_order(n, "decompose")
    m = n - 1
    mask = (1 << m) - 1
    necklaces, periods, conecklaces, _ = _fkm_walk(m)
    pcr = CycleArray(n, array("Q", ((x << 1) | (x >> (m - 1)) for x in necklaces)), periods[:])
    # Rotating C.~C by m complements it, so its period is 2m/d for an odd d | m.
    shifts = [2 * m // d for d in range(m, 0, -1) if m % d == 0 and d & 1]
    ccr_periods = array("B")
    for x in conecklaces:  # each starts with 0
        w = (x << m) | (x ^ mask)
        p = next(s for s in shifts if (w >> s) | (w & ((1 << s) - 1)) << (2 * m - s) == w)
        ccr_periods.append(p)
    ccr = CycleArray(n, array("Q", ((x << 1) | 1 for x in conecklaces)), ccr_periods)
    return CycleStructure(n, pcr, ccr)


class CycleCounts(NamedTuple):
    pcr: int
    ccr: int
    total: int


def _totient(d: int) -> int:
    result = d
    x = d
    p = 2
    while p * p <= x:
        if x % p == 0:
            while x % p == 0:
                x //= p
            result -= result // p
        p += 1
    if x > 1:
        result -= result // x
    return result


def count_cycles(n: int) -> CycleCounts:
    """Closed-form cycle counts for the order-n PRR.

    With m = n - 1: the PCR-type count is (1/m) sum over d | m of
    phi(d) 2^(m/d), and the CCR-type count is (1/2m) the same sum
    restricted to odd d.  Exact integer arithmetic throughout.
    """
    check_order(n, "rule")
    m = n - 1
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    z = sum(_totient(d) * (1 << (m // d)) for d in divisors) // m
    zstar = sum(_totient(d) * (1 << (m // d)) for d in divisors if d % 2 == 1) // (2 * m)
    return CycleCounts(z, zstar, z + zstar)
