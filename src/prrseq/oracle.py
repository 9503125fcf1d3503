"""Independent checks: de Bruijn verification and family enumeration.

Nothing here trusts the rule machinery's internals.  The window scan
looks only at the emitted bit strings, so it catches agreement between
the generator and the theory rather than assuming it.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

from .registers import check_order
from .rules import RuleKind, RuleSpec, exponent_period, exponent_range, generate_sequence

_NOT_BITS = str.maketrans("", "", "01")
_BITS = bytes.maketrans(b"01", b"\0\1")


class LengthMismatchError(ValueError):
    """Bit string length is not 2^n."""


def find_repeated_window(bits: str, n: int) -> Optional[Tuple[int, str]]:
    """Position and value of the first cyclic n-window that repeats an
    earlier one, or None if all 2^n windows are distinct.

    The windows go 4096 at a time, each piece sliced from bits with the
    n - 1 characters after it (the last piece wraps), so no copy of bits is
    held.  A piece's bits, one per w-byte field of an int (its UTF-16 or
    UTF-32 code units), times the sum over j < n of 2^((8w + 1)j), hold in
    field i >= n - 1 the window that ends at character i.  The windows
    before the first repeat are distinct, so its position is the number
    marked seen."""
    check_order(n, "window")
    if bits.translate(_NOT_BITS):
        raise ValueError("bit string may contain only 0 and 1")
    size = 1 << n
    if len(bits) != size:
        raise LengthMismatchError(f"order {n} needs {size} bits, got {len(bits)}")
    seen = bytearray(size)
    code, w = ("H", 2) if n <= 16 else ("I", 4)
    spread = sum(1 << (8 * w + 1) * j for j in range(n))
    for start in range(0, size, 4096):
        piece = bits[start : start + 4095 + n]
        if start + 4096 >= size:
            piece += bits[: n - 1]
        x = int.from_bytes(piece.encode(f"utf-{8 * w}-le").translate(_BITS), "little")
        fields = (x * spread).to_bytes(w * (len(piece) + n), "little")
        windows = array(code, fields[w * (n - 1) : w * len(piece)])
        if sys.byteorder == "big":
            windows.byteswap()
        for v in windows:
            if seen[v]:
                return seen.count(1), format(v, f"0{n}b")
            seen[v] = 1
    return None


def is_de_bruijn(bits: str, n: int) -> bool:
    """True iff bits, read cyclically, contains every n-window once."""
    return find_repeated_window(bits, n) is None


def all_specs(kind: RuleKind, n: int) -> Iterator[RuleSpec]:
    """Every valid spec of a kind at order n, in canonical order.

    kset rules enumerate by (size, lexicographic) over the optional
    middle elements; single-exponent rules by increasing k.
    """
    kind = RuleKind(kind)
    if kind.param == "kset":
        middle = range(2, n - 1)
        for r in range(0, n - 2):
            for combo in itertools.combinations(middle, r):
                yield RuleSpec(kind, n, kset=(1, *combo, n))
    elif kind.param == "k":
        for k in exponent_range(kind, n):
            yield RuleSpec(kind, n, k=k)
    else:
        yield RuleSpec(kind, n)


def family_size(kind: RuleKind, n: int) -> int:
    param = RuleKind(kind).param
    return 1 << (n - 3) if param == "kset" else exponent_period(n) if param == "k" else 1


@dataclass(frozen=True)
class FamilyEntry:
    spec: RuleSpec
    sequence: str
    de_bruijn: bool


@dataclass(frozen=True)
class FamilyReport:
    """Every sequence of a family (or union of families) at one order."""

    label: str
    n: int
    expected: Optional[int]
    entries: Tuple[FamilyEntry, ...]

    @cached_property
    def _groups(self) -> List[List[str]]:
        """The specs of each distinct sequence, in order of first appearance."""
        groups: dict = {}
        for e in self.entries:
            groups.setdefault(e.sequence, []).append(e.spec.spec_string())
        return list(groups.values())

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def distinct(self) -> int:
        return len(self._groups)

    @property
    def collisions(self) -> Tuple[Tuple[str, str], ...]:
        """Each pair of specs that give the same sequence."""
        return tuple(pair for specs in self._groups for pair in itertools.combinations(specs, 2))

    def to_csv(self) -> str:
        lines = ["spec,sequence,de_bruijn"]
        for e in self.entries:
            lines.append(f"{e.spec.spec_string()},{e.sequence},{int(e.de_bruijn)}")
        expected = self.expected if self.expected is not None else "-"
        lines.append(
            f"# label={self.label} n={self.n} total={self.total} "
            f"distinct={self.distinct} expected={expected}"
        )
        return "\n".join(lines)


def enumerate_family(kind: RuleKind, n: int) -> FamilyReport:
    """Generate every sequence of the family from the all-zero state.

    Each sequence starts with the all-zero window, so it is already in
    canonical form and equality of entries is plain string equality.
    Accepts the kind as a RuleKind member or its string value.
    """
    kind = RuleKind(kind)
    check_order(n, "family")
    entries = []
    for spec in all_specs(kind, n):
        bits = generate_sequence(spec)
        entries.append(FamilyEntry(spec, bits, is_de_bruijn(bits, n)))
    return FamilyReport(kind.value, n, family_size(kind, n), tuple(entries))


def family_union(*reports: FamilyReport) -> FamilyReport:
    """Pool the entries of several reports and recount distinct sequences."""
    if not reports:
        raise ValueError("family_union needs at least one report")
    n = reports[0].n
    if any(r.n != n for r in reports):
        raise ValueError("family reports must share one order")
    entries = tuple(e for r in reports for e in r.entries)
    return FamilyReport("+".join(r.label for r in reports), n, None, entries)
