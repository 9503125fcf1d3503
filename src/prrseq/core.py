"""Register states and the cyclic rotation of a packed word.

A State packs its bits into a plain int, oldest bit first: the most
significant bit is the leftmost character of the string form and the first
bit shifted out of the register.  Everything downstream works on these
packed values, so the rotation here takes a ``(value, length)`` pair, as
the hot paths call it.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 64


@dataclass(frozen=True, slots=True)
class State:
    """Immutable contents of an n-bit shift register."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if type(self.value) is not int or type(self.n) is not int:
            raise ValueError(f"value and length must be ints, got {self.value!r} and {self.n!r}")
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
