"""Independent checks: de Bruijn verification and family enumeration.

Nothing here trusts the rule machinery's internals.  The window scan
looks only at the emitted bit strings, so it catches agreement between
the generator and the theory rather than assuming it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .registers import check_order
from .rules import RuleKind, RuleSpec, exponent_period, generate_sequence


class LengthMismatchError(ValueError):
    """Bit string length is not 2^n."""


class NotDeBruijnError(ValueError):
    """Operation needs a de Bruijn sequence but the input repeats a window."""


def _check_bits(bits: str, n: int) -> None:
    check_order(n, "window")
    if len(bits) != 1 << n:
        raise LengthMismatchError(
            f"order {n} needs {1 << n} bits, got {len(bits)}"
        )
    if bits.strip("01"):
        raise ValueError("bit string may contain only 0 and 1")


def find_repeated_window(bits: str, n: int) -> Optional[Tuple[int, str]]:
    """Position and value of the first cyclic n-window that repeats an
    earlier one, or None if all 2^n windows are distinct."""
    _check_bits(bits, n)
    size = 1 << n
    mask = size - 1
    seen = bytearray(size)
    v = int(bits[:n], 2)
    for j in range(size):
        if seen[v]:
            return j, format(v, f"0{n}b")
        seen[v] = 1
        v = ((v << 1) & mask) | (bits[(j + n) % size] == "1")
    return None


def is_de_bruijn(bits: str, n: int) -> bool:
    """True iff bits, read cyclically, contains every n-window once."""
    return find_repeated_window(bits, n) is None


def canonical_form(bits: str, n: int) -> str:
    """The rotation that starts at the unique all-zero window.

    Rotations of a de Bruijn sequence are the same cyclic object; the
    all-zero window occurs exactly once, so anchoring there picks one
    representative per class.
    """
    repeat = find_repeated_window(bits, n)
    if repeat is not None:
        raise NotDeBruijnError(
            f"window {repeat[1]} repeats at position {repeat[0]}"
        )
    idx = (bits + bits[:n]).index("0" * n)
    return bits[idx:] + bits[:idx]


def all_specs(kind: RuleKind, n: int) -> Iterator[RuleSpec]:
    """Every valid spec of a kind at order n, in canonical order.

    kset rules enumerate by (size, lexicographic) over the optional
    middle elements; single-exponent rules by increasing k.
    """
    kind = RuleKind(kind)
    if kind is RuleKind.SALA:
        yield RuleSpec(kind, n)
    elif kind in (RuleKind.PSI1, RuleKind.UPSILON1):
        middle = range(2, n - 1)
        for r in range(0, n - 2):
            for combo in itertools.combinations(middle, r):
                yield RuleSpec(kind, n, kset=(1, *combo, n))
    elif kind is RuleKind.PSI2:
        for k in range(1, exponent_period(n) + 1):
            yield RuleSpec(kind, n, k=k)
    else:
        for k in range(0, exponent_period(n)):
            yield RuleSpec(kind, n, k=k)


def family_size(kind: RuleKind, n: int) -> int:
    kind = RuleKind(kind)
    if kind is RuleKind.SALA:
        return 1
    if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
        return 1 << (n - 3)
    return exponent_period(n)


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
    total: int
    distinct: int
    expected: Optional[int]
    entries: Tuple[FamilyEntry, ...]
    collisions: Tuple[Tuple[str, str], ...]

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


def _build_report(
    label: str, n: int, entries: List[FamilyEntry], expected: Optional[int]
) -> FamilyReport:
    groups: dict = {}
    for e in entries:
        groups.setdefault(e.sequence, []).append(e)
    collisions = []
    for group in groups.values():
        if len(group) > 1:
            specs = [e.spec.spec_string() for e in group]
            collisions.extend(itertools.combinations(specs, 2))
    return FamilyReport(
        label=label,
        n=n,
        total=len(entries),
        distinct=len(groups),
        expected=expected,
        entries=tuple(entries),
        collisions=tuple(collisions),
    )


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
        record = generate_sequence(spec)
        entries.append(
            FamilyEntry(spec, record.bits, is_de_bruijn(record.bits, n))
        )
    return _build_report(kind.value, n, entries, family_size(kind, n))


def family_union(*reports: FamilyReport) -> FamilyReport:
    """Pool the entries of several reports and recount distinct sequences."""
    if not reports:
        raise ValueError("family_union needs at least one report")
    n = reports[0].n
    if any(r.n != n for r in reports):
        raise ValueError("family reports must share one order")
    entries = [e for r in reports for e in r.entries]
    label = "+".join(r.label for r in reports)
    return _build_report(label, n, entries, None)
