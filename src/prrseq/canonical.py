"""Cycle-representative predicates.

A necklace is a string that is lexicographically no larger than any of its
cyclic rotations; necklaces are the canonical members of rotation classes.
The co-necklace predicate plays the same role for complement-then-rotate
classes: it marks the state of a complementing-register cycle from which
the cycle reads smallest.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .core import State


def is_necklace_value(v: int, m: int) -> bool:
    """True iff the m-bit value v is <= all of its rotations.

    Word-level test.  A non-constant necklace starts with its longest
    cyclic run of zeros and ends with a 1, so with z leading zeros v is
    rejected if any cyclic 0-run is longer than z; otherwise only the
    rotations starting at another run of exactly z zeros can be smaller.
    Runs are found by shift-ANDs on the doubled complement, where string
    index grows toward the low bits.
    """
    mask = (1 << m) - 1
    if v == 0 or v == mask:
        return True
    if v >> (m - 1) or not v & 1:
        return False
    z = m - v.bit_length()
    x = v ^ mask
    y = (x << m) | x
    k = 1
    while k < z:  # y marks where k zeros start; k grows to z by doubling
        s = min(k, z - k)
        y &= y << s
        k += s
    if y & (y << 1):  # a 0-run longer than z
        return False
    starts = (y >> m) & (mask >> 1)  # bit b: a run of z zeros starts at index m-1-b
    while starts:
        b = starts.bit_length() - 1
        r = m - 1 - b
        if ((v << r) | (v >> (m - r))) & mask < v:
            return False
        starts ^= 1 << b
    return True


def is_conecklace_value(v: int, m: int) -> bool:
    # v heads its complement-rotation class iff the 2m-bit word (v followed
    # by its complement) heads its plain rotation class: both conditions
    # compare v against the same 2m cyclic windows.
    return is_necklace_value((v << m) | (v ^ ((1 << m) - 1)), 2 * m)


@lru_cache(maxsize=4)
def _fkm_walk(m: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """The binary necklaces of length m, their periods, and the co-necklaces
    of length m, each in increasing order, from one iterative FKM walk
    (Ruskey, Savage and Wang, 1992): the next prenecklace raises the last 0
    to 1 and repeats the prefix that ends there, and the prenecklaces whose
    period p divides m are the necklaces.  A co-necklace C is a prenecklace
    too, as C followed by its complement is a necklace, which ends with 1,
    so C ends with 0: only those prenecklaces are tested."""
    mask = (1 << m) - 1
    necklaces, periods, conecklaces = [0], [1], [0]
    x = 0
    while x != mask:
        b = (~x & (x + 1)).bit_length() - 1  # the last 0, counted from the right
        p = m - b  # the new period
        q = -(-m // p)
        x = ((x >> b) | 1) * ((1 << p * q) - 1) // ((1 << p) - 1) >> (p * q - m)
        if m % p == 0:
            necklaces.append(x)
            periods.append(p)
        if not x & 1 and is_conecklace_value(x, m):
            conecklaces.append(x)
    return tuple(necklaces), tuple(periods), tuple(conecklaces)


def is_necklace(u: State) -> bool:
    """True iff u is the lexicographically least rotation of itself."""
    return is_necklace_value(u.value, u.n)


def is_conecklace(u: State) -> bool:
    """True iff u is the least n-window of the cyclic string formed by u
    followed by its complement."""
    return is_conecklace_value(u.value, u.n)
