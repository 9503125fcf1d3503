"""Register states and the two rotation operators the successor rules use.

A State packs its bits into a plain int, oldest bit first: the most
significant bit is the leftmost character of the string form and the first
bit shifted out of the register.  Everything downstream works on these
packed values, so the module also exposes the value-level kernels
(functions taking ``(value, length)`` pairs) that the hot paths call
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 64


class ZeroStateError(ValueError):
    """An operator that needs a 1 somewhere was given the all-zero state."""


@dataclass(frozen=True, slots=True)
class State:
    """Immutable contents of an n-bit shift register."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_LENGTH:
            raise ValueError(f"state length must be in [1, {MAX_LENGTH}], got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, s: str) -> "State":
        if not s or s.strip("01"):
            raise ValueError(f"expected a nonempty string over 0/1, got {s!r}")
        return cls(int(s, 2), len(s))

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")


def rotate_left_value(v: int, m: int, r: int) -> int:
    """Cyclically rotate an m-bit value left by r places."""
    r %= m
    if r == 0:
        return v
    mask = (1 << m) - 1
    return ((v << r) | (v >> (m - r))) & mask


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


def lambda_rotate_value(u: int, m: int, r: int) -> int:
    """Value kernel for lambda_rotate; u must be nonzero, r >= 0.

    One application rotates u left to just past its first 1.  Iterating
    therefore walks the ones of u cyclically: for r >= 1 the result is u
    rotated left to just past its j-th 1, where j = ((r - 1) mod w) + 1
    and w is the weight.  A binary search finds the j-th 1, so any r costs
    O(log m) big-int operations; the rules take exponents up to lcm(1..m).
    """
    if r == 0:
        return u
    w = u.bit_count()
    j = (r - 1) % w + 1
    return rotate_left_value(u, m, _index_of_jth_one(u, m, j) + 1)


def lambda_rotate(u: State, r: int) -> State:
    """Apply r times the rotation that carries everything up to and
    including the first 1 to the back of the state."""
    if u.value == 0:
        raise ZeroStateError("rotation past the first 1 needs a nonzero state")
    if r < 0:
        raise ValueError(f"rotation count must be >= 0, got {r}")
    return State(lambda_rotate_value(u.value, u.n, r), u.n)


def theta_rotate_value(u: int, m: int, r: int) -> int:
    """Value kernel for theta_rotate; r >= 0.

    Fixed points are the all-ones state and the state 0 followed by all
    ones.  Otherwise one application rotates u left to its first 0 at
    index >= 1.  Every non-fixed result starts with a 0, so from r = 1 on
    the operator walks the zeros of u cyclically and exponents reduce
    modulo the number of zeros, as in lambda_rotate_value.
    """
    if r == 0 or u == (1 << m) - 1 or u == (1 << (m - 1)) - 1:
        return u
    z = m - u.bit_count()
    # The first step skips index 0, so it lands on zero number 1 or 2
    # depending on whether u already starts with a 0.
    start = 2 if (u >> (m - 1)) & 1 == 0 else 1
    j = (start + r - 2) % z + 1
    return rotate_left_value(u, m, _index_of_jth_one(~u & ((1 << m) - 1), m, j))


def theta_rotate(u: State, r: int) -> State:
    """Apply r times the rotation that carries everything strictly before
    the first 0 past position 0 to the back of the state.  Total: states
    with no such 0 are returned unchanged."""
    if r < 0:
        raise ValueError(f"rotation count must be >= 0, got {r}")
    return State(theta_rotate_value(u.value, u.n, r), u.n)
