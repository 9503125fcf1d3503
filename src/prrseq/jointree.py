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
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .core import State
from .registers import Cycle, CycleKind, check_order, decompose, prr_step_value
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
    """Cycles as nodes (sorted by representative) plus the pair edges."""

    nodes: Tuple[Cycle, ...]
    edges: Tuple[TreeEdge, ...]
    root: int

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
    """Cycles sorted by representative plus a value -> node index table."""
    structure = decompose(n)
    nodes = tuple(sorted(structure.cycles, key=lambda c: c.representative.value))
    mask = (1 << n) - 1
    index_of = [0] * (mask + 1)
    for i, cyc in enumerate(nodes):
        v = cyc.representative.value
        for _ in range(cyc.period):
            index_of[v] = i
            v = prr_step_value(v, n, mask)
    return nodes, index_of


def _designated_member(
    kind: RuleKind,
    n: int,
    lo: int,
    hi: int,
    nodes: Tuple[Cycle, ...],
    index_of: List[int],
) -> int:
    """Which member of the conjugate pair (lo, hi) lies in the child cycle.

    The psi-class rules mark the child as the cycle containing the shared
    tail extended by 1; the upsilon-class rules mark the cycle containing
    the zero-ended relabeling of the tail; sala marks the cycle whose pair
    member steps directly onto that cycle's representative.

    - psi: tail.1 is the PRR successor of exactly one member, the child.
    - upsilon: it is lo, or for odd lo the successor of ~lo, which shares lo's cycle.
    """
    mask = (1 << n) - 1
    if kind is RuleKind.SALA:
        cands = [
            m
            for m in (lo, hi)
            if prr_step_value(m, n, mask) == nodes[index_of[m]].representative.value
        ]
        if len(cands) == 1:
            return cands[0]
        if len(cands) == 2:
            # Tail is a necklace and a co-necklace at once (the all-zero
            # tail); the later cycle in representative order is the child.
            return max(cands, key=lambda m: nodes[index_of[m]].representative.value)
        raise NotSpanningError(
            f"cannot orient conjugate pair ({State(lo, n)}, {State(hi, n)})"
        )
    if kind in (RuleKind.PSI1, RuleKind.PSI2):
        return lo if prr_step_value(lo, n, mask) & 1 else hi
    return lo


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
    bridges two cycles.
    """
    n = spec.n
    check_order(n, "tree")
    if critical is None:
        critical = critical_predicate(spec)
    nodes, index_of = _cycle_index(n)
    size = 1 << n
    top = 1 << (n - 1)
    deviations = list(filter(critical, range(size)))
    flags = bytearray(size)
    for v in deviations:
        flags[v] = 1
    pairs = []
    for v in deviations:
        if not flags[v ^ top]:
            raise NotPairedError(
                f"state {State(v, n)} is critical but its conjugate "
                f"{State(v ^ top, n)} is not"
            )
        if not v & top:
            pairs.append(v)
    if len(pairs) != len(nodes) - 1:
        raise NotSpanningError(
            f"{len(deviations)} critical states cannot span {len(nodes)} cycles "
            f"(need exactly {2 * (len(nodes) - 1)})"
        )
    parent_edge: Dict[int, TreeEdge] = {}
    for lo in pairs:
        hi = lo | top
        member = _designated_member(spec.kind, n, lo, hi, nodes, index_of)
        edge = TreeEdge(
            child=index_of[member],
            parent=index_of[member ^ top],
            child_state=State(member, n),
        )
        if edge.child in parent_edge:
            raise NotSpanningError(
                f"cycle ({nodes[edge.child].representative}) is designated by "
                f"two conjugate pairs"
            )
        parent_edge[edge.child] = edge
    # len(nodes) - 1 distinct children leave exactly one root.
    root = next(i for i in range(len(nodes)) if i not in parent_edge)
    reached = {root}
    for i in range(len(nodes)):
        path = []
        j = i
        while j not in reached:
            path.append(j)
            if len(path) > len(nodes):
                raise NotSpanningError(
                    f"cycle ({nodes[i].representative}) cannot reach the root"
                )
            j = parent_edge[j].parent
        reached.update(path)
    edges = tuple(parent_edge[i] for i in sorted(parent_edge))
    return CycleTree(nodes=nodes, edges=edges, root=root)


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
    nodes = tree.nodes
    failures: List[str] = []
    if spec.kind in (RuleKind.SALA, RuleKind.PSI1, RuleKind.PSI2):
        for e in tree.edges:
            p = nodes[e.parent].representative
            c = nodes[e.child].representative
            if p.value >= c.value:
                failures.append(f"parent ({p}) does not precede child ({c})")
    else:
        parent_of = {e.child: e.parent for e in tree.edges}
        for e in tree.edges:
            child = nodes[e.child]
            if child.kind is CycleKind.CCR and e.parent != tree.root:
                anchor = nodes[parent_of[e.parent]].representative
                if anchor.value >= child.representative.value:
                    failures.append(
                        f"cycle ({child.representative}) does not follow its "
                        f"parent's anchor ({anchor})"
                    )
    return ValidationReport(
        spec=spec,
        cycle_count=len(nodes),
        deviation_count=2 * len(tree.edges),
        root_representative=nodes[tree.root].representative,
        ok=not failures,
        failures=tuple(failures),
        tree=tree,
    )
