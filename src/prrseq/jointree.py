"""Spanning-tree validation of a rule's critical set.

A successor rule produces one full-period cycle exactly when its critical
states come in conjugate pairs, each pair bridges two register cycles,
every non-root cycle is designated by exactly one pair, and following the
bridges from any cycle reaches the root.  This module rebuilds that tree
from the implemented predicate by exhaustive scan, so it checks the rule
against first principles rather than against the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

from .core import State
from .registers import Cycle, CycleKind, check_order, decompose, prr_leap_value, prr_step_value
from .rules import CriticalPredicate, RuleKind, RuleSpec, critical_predicate


class NotPairedError(ValueError):
    """A critical state's conjugate is not critical."""


class NotSpanningError(ValueError):
    """The critical pairs do not link the cycles into one rooted tree."""


@dataclass(frozen=True, slots=True)
class TreeEdge:
    """One conjugate pair, oriented from the cycle it designates."""

    child: int
    parent: int
    child_state: State


@dataclass(frozen=True)
class CycleTree:
    """Cycles as nodes (sorted by representative) and a parent array: node i
    joins parents[i] (None at the root) by the pair whose child-side state is members[i]."""

    nodes: Tuple[Cycle, ...]
    parents: Tuple[Optional[int], ...]
    members: Tuple[int, ...]
    root: int

    @cached_property
    def edges(self) -> Tuple[TreeEdge, ...]:
        """One edge per pair, in child order, built on first read."""
        n = self.nodes[0].representative.n
        return tuple(
            TreeEdge(c, p, State(v, n))
            for c, (p, v) in enumerate(zip(self.parents, self.members))
            if p is not None
        )

    def to_dot(self) -> str:
        """Graphviz rendering; rotation-type cycles are ellipses,
        complementing-type cycles are boxes."""
        lines = ["digraph jointree {"]
        for i, cyc in enumerate(self.nodes):
            shape = "ellipse" if cyc.kind is CycleKind.PCR else "box"
            lines.append(
                f'  n{i} [label="{cyc.representative}", shape={shape}];'
            )
        for e in self.edges:
            lines.append(f'  n{e.child} -> n{e.parent} [label="{e.child_state}"];')
        lines.append("}")
        return "\n".join(lines)


@lru_cache(maxsize=4)
def _cycle_index(n: int):
    """Cycles sorted by representative plus a value -> node index table.

    A cycle's states are the n-bit windows of what its representative v
    emits: v, then the tails of its next two leaps of n - 1 steps, which
    cover a period of up to 2(n - 1)."""
    nodes = tuple(sorted(decompose(n).cycles, key=lambda c: c.representative.value))
    m, mask = n - 1, (1 << n) - 1
    index_of = [0] * (mask + 1)
    shifts = range(2 * m, 0, -1)  # state j of the cycle is w >> (2m - j), masked
    for i, cyc in enumerate(nodes):
        v = cyc.representative.value
        a = prr_leap_value(v, n)
        w = (v << m | a & (mask >> 1)) << m | prr_leap_value(a, n) & (mask >> 1)
        for s in shifts[: cyc.period]:
            index_of[(w >> s) & mask] = i
    return nodes, index_of


def _child_members(kind: RuleKind, n: int, lows: List[int], nodes, index_of) -> List[int]:
    """The member of each conjugate pair (lo, lo + 2^(n-1)) that lies in the
    child cycle: the cycle the rule marks.

    - psi marks the cycle of the shared tail extended by 1, the PRR
      successor of exactly one member: lo iff its second-oldest and
      youngest bits differ (its oldest is 0).
    - upsilon marks the cycle of the tail's zero-ended relabeling: lo, or
      for odd lo the successor of ~lo, which shares lo's cycle.
    - sala marks the cycle whose pair member steps directly onto its
      representative: hi, as lo does so only as 0^n, whose cycle is the root.
    """
    top = 1 << (n - 1)
    if kind is RuleKind.SALA:
        mask = (1 << n) - 1
        for lo in lows:
            if prr_step_value(lo | top, n, mask) != nodes[index_of[lo | top]].representative.value:
                raise NotSpanningError(
                    f"cannot orient conjugate pair ({State(lo, n)}, {State(lo | top, n)})"
                )
        return [lo | top for lo in lows]
    if kind in (RuleKind.PSI1, RuleKind.PSI2):
        return [lo if ((lo >> (n - 2)) ^ lo) & 1 else lo | top for lo in lows]
    return lows


def extract_tree(
    spec: RuleSpec, critical: Optional[CriticalPredicate] = None
) -> CycleTree:
    """Scan all states, pair the critical ones, and build the cycle tree.

    critical overrides the predicate the spec argument implies; the
    override is what makes negative controls possible.  Raises
    NotPairedError if some
    critical state's conjugate is not critical, NotSpanningError if the
    pairs do not form one tree spanning every cycle.

    Conjugates differ in the oldest bit, so in cycle kind: every pair
    bridges two cycles.  The pairing, orientation and spanning walk run on
    flat lists of values and node indices, which the tree keeps.
    """
    n = spec.n
    check_order(n, "tree")
    if critical is None:
        critical = critical_predicate(spec)
    nodes, index_of = _cycle_index(n)
    z = len(nodes)
    top = 1 << (n - 1)
    deviations = list(filter(critical, range(2 * top)))
    flags = bytearray(2 * top)
    for v in deviations:
        flags[v] = 1
    if flags[:top] != flags[top:]:
        v = next(v for v in deviations if not flags[v ^ top])
        raise NotPairedError(
            f"state {State(v, n)} is critical but its conjugate "
            f"{State(v ^ top, n)} is not"
        )
    # Paired, so the first half of the critical states are the pairs' lo.
    lows = deviations[: len(deviations) // 2]
    if len(lows) != z - 1:
        raise NotSpanningError(
            f"{len(deviations)} critical states cannot span {z} cycles "
            f"(need exactly {2 * (z - 1)})"
        )
    members = _child_members(spec.kind, n, lows, nodes, index_of)
    # Node indices come from index_of, so the parent array shares its int objects.
    children = [index_of[v] for v in members]
    parent_of: List[Optional[int]] = [None] * z
    member_of = [0] * z
    for c, v in zip(children, members):
        if parent_of[c] is not None:
            raise NotSpanningError(
                f"cycle ({nodes[c].representative}) is designated by "
                f"two conjugate pairs"
            )
        parent_of[c] = index_of[v ^ top]
        member_of[c] = v
    # z - 1 distinct children leave exactly one root.
    root = parent_of.index(None)
    reached = bytearray(z)
    reached[root] = 1
    for i in range(z):
        path = []
        j = i
        while not reached[j]:
            path.append(j)
            if len(path) > z:
                raise NotSpanningError(
                    f"cycle ({nodes[i].representative}) cannot reach the root"
                )
            j = parent_of[j]
        for j in path:
            reached[j] = 1
    return CycleTree(nodes=nodes, parents=tuple(parent_of), members=tuple(member_of), root=root)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a critical set against the tree conditions."""

    spec: RuleSpec
    cycle_count: int
    deviation_count: int
    root_representative: State
    ok: bool
    failures: Tuple[str, ...]
    tree: CycleTree

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"{self.spec.spec_string()}: {status}, {self.cycle_count} cycles, "
            f"{self.deviation_count} critical states, root ({self.root_representative})"
        )


def verify_critical_set(
    spec: RuleSpec, critical: Optional[CriticalPredicate] = None
) -> ValidationReport:
    """Validate a rule from first principles.

    Structural defects (unpaired states, broken tree) raise as in
    extract_tree.  Ordering defects, which are what distinguish the rule
    families, come back in the report: in psi-class and sala trees every
    parent precedes its child by representative; in upsilon-class trees
    each complementing child not under the root follows its grandparent
    anchor.  The orientation guarantees the rest for any predicate:
    - root 0^n for psi/sala: psi children hold a state ending in 1, sala tie-breaks.
    - root 1^n for upsilon: each child holds its pair's lo < 2^(n-1), and {1^n} holds none.
    - edges alternate cycle kinds: conjugates differ in kind.
    - the root's one upsilon child holds 01^(n-1): the least complementing cycle.
    """
    tree = extract_tree(spec, critical)
    nodes, parents, root = tree.nodes, tree.parents, tree.root
    # Nodes are sorted by representative: index order is representative order.
    if spec.kind in (RuleKind.SALA, RuleKind.PSI1, RuleKind.PSI2):
        failures = [
            f"parent ({nodes[p].representative}) does not precede child "
            f"({nodes[c].representative})"
            for c, p in enumerate(parents)
            if p is not None and p > c
        ]
    else:
        failures = [
            f"cycle ({nodes[c].representative}) does not follow its "
            f"parent's anchor ({nodes[parents[p]].representative})"
            for c, p in enumerate(parents)
            if p not in (None, root) and parents[p] > c and nodes[c].kind is CycleKind.CCR
        ]
    return ValidationReport(
        spec=spec,
        cycle_count=len(nodes),
        deviation_count=2 * (len(nodes) - 1),
        root_representative=nodes[root].representative,
        ok=not failures,
        failures=tuple(failures),
        tree=tree,
    )
