"""Spanning-tree validation of a rule's critical set.

A successor rule produces one full-period cycle exactly when its critical
states come in conjugate pairs, each pair bridges two register cycles,
every non-root cycle is designated by exactly one pair, and following the
bridges from any cycle reaches the root.  This module rebuilds that tree
from the implemented predicate by exhaustive scan, so it checks the rule
against first principles rather than against the generator.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

from .core import State
from .registers import (
    CycleArray,
    CycleKind,
    _cycle_kind,
    check_order,
    decompose,
    prr_leap_value,
    prr_step_value,
)
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
    joins parents[i] (None at the root) by the pair whose child-side state is
    members[i], an array('Q') holding 0 at the root."""

    nodes: CycleArray
    parents: Tuple[Optional[int], ...]
    members: array
    root: int

    def __hash__(self) -> int:
        return hash((self.nodes, self.parents, self.members.tobytes(), self.root))

    @cached_property
    def edges(self) -> Tuple[TreeEdge, ...]:
        """One edge per pair, in child order, built on first read."""
        n = self.nodes.order
        return tuple(
            TreeEdge(c, p, State(v, n))
            for c, (p, v) in enumerate(zip(self.parents, self.members))
            if p is not None
        )

    def to_dot(self) -> str:
        """Graphviz rendering; rotation-type cycles are ellipses,
        complementing-type cycles are boxes."""
        n = self.nodes.order
        lines = ["digraph jointree {"]
        for i, v in enumerate(self.nodes.representatives):
            shape = "ellipse" if _cycle_kind(v, n) is CycleKind.PCR else "box"
            lines.append(f'  n{i} [label="{v:0{n}b}", shape={shape}];')
        for c, (p, v) in enumerate(zip(self.parents, self.members)):
            if p is not None:
                lines.append(f'  n{c} -> n{p} [label="{v:0{n}b}"];')
        lines.append("}")
        return "\n".join(lines)


@lru_cache(maxsize=4)
def _cycle_index(n: int):
    """Cycles sorted by representative, an array('I') value -> node index
    table, and the node ids 0..Z-1 as one list.  Reading an id through the
    list rather than the table gives one shared int per node, so the trees'
    parent arrays hold no int objects of their own.

    A cycle's states are the n-bit windows of what its representative v
    emits: v, then the tails of its next two leaps of n - 1 steps, which
    cover a period of up to 2(n - 1)."""
    cycles = decompose(n).cycles  # two sorted runs, which sorted() merges
    reps, periods = array("Q"), array("B")
    m, mask = n - 1, (1 << n) - 1
    index_of = array("I", bytes(4 << n))
    shifts = range(2 * m, 0, -1)  # state j of the cycle is w >> (2m - j), masked
    for i, (v, period) in enumerate(sorted(zip(cycles.representatives, cycles.periods))):
        reps.append(v)
        periods.append(period)
        a = prr_leap_value(v, n)
        w = (v << m | a & (mask >> 1)) << m | prr_leap_value(a, n) & (mask >> 1)
        for s in shifts[:period]:
            index_of[(w >> s) & mask] = i
    return CycleArray(n, reps, periods), index_of, list(range(len(reps)))


def _child_members(kind: RuleKind, n: int, lows: Sequence[int], nodes, index_of) -> Sequence[int]:
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
        reps = nodes.representatives
        for lo in lows:
            if prr_step_value(lo | top, n, mask) != reps[index_of[lo | top]]:
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
    flat arrays of values and node indices, which the tree keeps.
    """
    n = spec.n
    check_order(n, "tree")
    if critical is None:
        critical = critical_predicate(spec)
    nodes, index_of, ids = _cycle_index(n)
    z = len(nodes)
    top = 1 << (n - 1)
    deviations = array("Q", filter(critical, range(2 * top)))
    # Sorted, so the pairs' lo come first and their hi follow in the same order.
    h = bisect_left(deviations, top)
    lows = deviations[:h]
    if deviations[h:] != array("Q", [v | top for v in lows]):
        marked = set(deviations)
        v = next(v for v in deviations if v ^ top not in marked)
        raise NotPairedError(
            f"state {State(v, n)} is critical but its conjugate "
            f"{State(v ^ top, n)} is not"
        )
    if len(lows) != z - 1:
        raise NotSpanningError(
            f"{len(deviations)} critical states cannot span {z} cycles "
            f"(need exactly {2 * (z - 1)})"
        )
    parent_of: List[Optional[int]] = [None] * z
    member_of = array("Q", bytes(8 * z))
    for v in _child_members(spec.kind, n, lows, nodes, index_of):
        c = index_of[v]
        if parent_of[c] is not None:
            raise NotSpanningError(
                f"cycle ({nodes[c].representative}) is designated by "
                f"two conjugate pairs"
            )
        parent_of[c] = ids[index_of[v ^ top]]
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
    return CycleTree(nodes=nodes, parents=tuple(parent_of), members=member_of, root=root)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a critical set against the tree conditions."""

    spec: RuleSpec
    failures: Tuple[str, ...]
    tree: CycleTree

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cycle_count(self) -> int:
        return len(self.tree.nodes)

    @property
    def deviation_count(self) -> int:
        """Critical states: the two of each pair that joins a child to its parent."""
        return 2 * (len(self.tree.parents) - self.tree.parents.count(None))

    @property
    def root_representative(self) -> State:
        return self.tree.nodes[self.tree.root].representative

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
        # a complementing-type cycle's oldest and youngest bits differ (_cycle_kind)
        reps, m = nodes.representatives, spec.n - 1
        failures = [
            f"cycle ({nodes[c].representative}) does not follow its "
            f"parent's anchor ({nodes[parents[p]].representative})"
            for c, p in enumerate(parents)
            if p not in (None, root) and parents[p] > c and (reps[c] >> m ^ reps[c]) & 1
        ]
    return ValidationReport(spec, tuple(failures), tree)
