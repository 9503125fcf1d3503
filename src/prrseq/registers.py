"""Feedback functions and the cycle structure of the run-length register.

Three registers appear here.  The pure cycling register (PCR) feeds the
oldest bit back; the complemented cycling register (CCR) feeds its
complement back; the pure run-length register (PRR) feeds back the parity
of the oldest bit, the second-oldest bit, and the youngest bit.  The PRR
of order n splits the 2^n states into cycles that mirror the PCR and CCR
cycles of order n - 1, which is what the successor rules exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Tuple

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

    Member states are regenerated on demand from the representative
    rather than stored, so a full decomposition keeps O(2^n) bytes of
    bookkeeping instead of O(n 2^n) of state objects.
    """

    representative: State
    kind: CycleKind
    period: int

    def state_values(self) -> Iterator[int]:
        n = self.representative.n
        mask = (1 << n) - 1
        v = self.representative.value
        for _ in range(self.period):
            yield v
            v = prr_step_value(v, n, mask)


@dataclass(frozen=True, slots=True)
class CycleStructure:
    """Full cycle decomposition of the order-n PRR."""

    order: int
    pcr_cycles: Tuple[Cycle, ...]
    ccr_cycles: Tuple[Cycle, ...]

    @property
    def cycles(self) -> Tuple[Cycle, ...]:
        return self.pcr_cycles + self.ccr_cycles

    def to_text(self) -> str:
        """One line per cycle: kind, period, representative."""
        return "\n".join(
            f"{c.kind.value} {c.period} ({c.representative})" for c in self.cycles
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
    necklaces, periods, conecklaces = _fkm_walk(m)
    pcr = tuple(
        Cycle(State((x << 1) | (x >> (m - 1)), n), CycleKind.PCR, p)
        for x, p in zip(necklaces, periods)
    )
    # Rotating C.~C by m complements it, so its period is 2m/d for an odd d | m.
    shifts = [2 * m // d for d in range(m, 0, -1) if m % d == 0 and d & 1]
    ccr = []
    for x in conecklaces:  # each starts with 0
        w = (x << m) | (x ^ mask)
        p = next(s for s in shifts if (w >> s) | (w & ((1 << s) - 1)) << (2 * m - s) == w)
        ccr.append(Cycle(State((x << 1) | 1, n), CycleKind.CCR, p))
    return CycleStructure(n, pcr, tuple(ccr))


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
