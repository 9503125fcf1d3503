import random
import tracemalloc
from dataclasses import fields
from functools import lru_cache
from typing import Dict, List

import pytest

from prrseq import (
    CycleKind,
    CycleTree,
    NotPairedError,
    NotSpanningError,
    OrderOutOfRangeError,
    RuleSpec,
    State,
    TreeEdge,
    ValidationReport,
    all_specs,
    count_cycles,
    decompose,
    extract_tree,
    verify_critical_set,
)
from prrseq.jointree import _child_members, _cycle_index
from prrseq.registers import prr_step_value
from prrseq.rules import RuleKind, critical_predicate, exponent_range

PASSING = [
    "sala:n=3",
    "sala:n=6",
    "sala:n=10",
    "psi1:n=6:kset=1,6",
    "psi1:n=7:kset=1,2,4,7",
    "psi2:n=7:k=3",
    "psi2:n=9:k=100",
    "upsilon1:n=6:kset=1,3,6",
    "upsilon1:n=8:kset=1,8",
    "upsilon2:n=6:k=0",
    "upsilon2:n=9:k=419",
]


def swapped_pair(spec, drop, add):
    """The spec's critical set with the conjugate pair of drop (the member
    with top bit 0) replaced by the pair of add."""
    base = critical_predicate(spec)
    low = (1 << (spec.n - 1)) - 1
    drop, add = int(drop, 2), int(add, 2)
    assert base(drop) and not base(add)
    return lambda v: v & low == add or (base(v) and v & low != drop)


def edge_map(tree):
    return {
        str(tree.nodes[e.child].representative): str(tree.nodes[e.parent].representative)
        for e in tree.edges
    }


def toggled(spec, *states):
    """The spec's critical set with the given states' membership flipped."""
    base = critical_predicate(spec)
    flip = {int(s, 2) for s in states}
    return lambda v: bool(base(v)) ^ (v in flip)


# --- the per-pair oracle ----------------------------------------------------
# extract_tree and verify_critical_set as they were before the tree was built
# from flat per-order arrays: one PRR step per state for the index, one
# TreeEdge per pair and dicts for the walk, with its own DOT and summary
# text.  The parent-array tree must agree with it on every edge, report and
# failure message.


@lru_cache(maxsize=4)
def stepped_index(n):
    """Cycles sorted by representative plus a value -> node index table,
    filled by stepping the PRR from each representative."""
    nodes = tuple(sorted(decompose(n).cycles, key=lambda c: c.representative.value))
    mask = (1 << n) - 1
    index_of = [0] * (mask + 1)
    for i, cyc in enumerate(nodes):
        v = cyc.representative.value
        for _ in range(cyc.period):
            index_of[v] = i
            v = prr_step_value(v, n, mask)
    return nodes, index_of


def designated_member(kind, n, lo, hi, nodes, index_of):
    """Which member of the conjugate pair (lo, hi) lies in the child cycle.

    - psi: tail.1 is the PRR successor of exactly one member, the child.
    - upsilon: it is lo, or for odd lo the successor of ~lo, which shares lo's cycle.
    - sala: that member is hi, as lo steps onto its own cycle's
      representative only as 0^n, whose cycle is the root.
    """
    mask = (1 << n) - 1
    if kind is RuleKind.SALA:
        if prr_step_value(hi, n, mask) == nodes[index_of[hi]].representative.value:
            return hi
        raise NotSpanningError(
            f"cannot orient conjugate pair ({State(lo, n)}, {State(hi, n)})"
        )
    if kind in (RuleKind.PSI1, RuleKind.PSI2):
        return lo if prr_step_value(lo, n, mask) & 1 else hi
    return lo


def extract_tree_by_pairs(spec, critical=None):
    n = spec.n
    if critical is None:
        critical = critical_predicate(spec)
    nodes, index_of = stepped_index(n)
    size = 1 << n
    top = 1 << (n - 1)
    deviations = [v for v in range(size) if critical(v)]
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
        member = designated_member(spec.kind, n, lo, lo | top, nodes, index_of)
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
    return nodes, edges, root


def dot_by_pairs(nodes, edges):
    lines = ["digraph jointree {"]
    for i, cyc in enumerate(nodes):
        shape = "ellipse" if cyc.kind is CycleKind.PCR else "box"
        lines.append(f'  n{i} [label="{cyc.representative}", shape={shape}];')
    for e in edges:
        lines.append(f'  n{e.child} -> n{e.parent} [label="{e.child_state}"];')
    lines.append("}")
    return "\n".join(lines)


def verify_by_pairs(spec, critical=None):
    """The oracle's nodes, edges, root, DOT, summary and order failures."""
    nodes, edges, root = extract_tree_by_pairs(spec, critical)
    failures: List[str] = []
    if spec.kind in (RuleKind.SALA, RuleKind.PSI1, RuleKind.PSI2):
        for e in edges:
            p = nodes[e.parent].representative
            c = nodes[e.child].representative
            if p.value >= c.value:
                failures.append(f"parent ({p}) does not precede child ({c})")
    else:
        parent_of = {e.child: e.parent for e in edges}
        for e in edges:
            child = nodes[e.child]
            if child.kind is CycleKind.CCR and e.parent != root:
                anchor = nodes[parent_of[e.parent]].representative
                if anchor.value >= child.representative.value:
                    failures.append(
                        f"cycle ({child.representative}) does not follow its "
                        f"parent's anchor ({anchor})"
                    )
    summary = (
        f"{spec.spec_string()}: {'FAILED' if failures else 'ok'}, {len(nodes)} cycles, "
        f"{2 * len(edges)} critical states, root ({nodes[root].representative})"
    )
    return nodes, edges, root, dot_by_pairs(nodes, edges), summary, tuple(failures)


def verify_by_tree(spec, critical=None):
    """The same, read from verify_critical_set's report and its tree."""
    report = verify_critical_set(spec, critical)
    tree = report.tree
    return tuple(tree.nodes), tree.edges, tree.root, tree.to_dot(), report.summary(), report.failures


def outcome(verify, spec, critical=None):
    """What a validator makes of a critical set, or the exception's type
    and message."""
    try:
        return verify(spec, critical)
    except (NotPairedError, NotSpanningError) as exc:
        return type(exc).__name__, str(exc)


def seeded_specs(rng, n):
    """One spec per family at order n, with kset and k drawn from rng."""
    specs = []
    for kind in RuleKind:
        if kind in (RuleKind.PSI1, RuleKind.UPSILON1):
            middle = [c for c in range(2, n - 1) if rng.random() < 0.5]
            specs.append(RuleSpec(kind, n, kset=(1, *middle, n)))
        elif kind in (RuleKind.PSI2, RuleKind.UPSILON2):
            valid = exponent_range(kind, n)
            specs.append(RuleSpec(kind, n, k=rng.randint(valid[0], valid[-1])))
        else:
            specs.append(RuleSpec(kind, n))
    return specs


class TestExtractTree:
    @pytest.mark.parametrize("text", PASSING)
    def test_shape(self, text):
        spec = RuleSpec.parse(text)
        tree = extract_tree(spec)
        total = count_cycles(spec.n).total
        assert len(tree.nodes) == total
        assert len(tree.edges) == total - 1
        children = [e.child for e in tree.edges]
        assert len(set(children)) == len(children)
        assert tree.root not in children

    @pytest.mark.parametrize("text", PASSING)
    def test_edges_are_conjugate_pairs_bridging_kinds(self, text):
        spec = RuleSpec.parse(text)
        tree = extract_tree(spec)
        top = 1 << (spec.n - 1)
        index_of = _cycle_index(spec.n)[1]
        for e in tree.edges:
            # the child-side state lies in the child cycle, its conjugate
            # in the parent cycle
            assert index_of[e.child_state.value] == e.child
            assert index_of[e.child_state.value ^ top] == e.parent
            assert tree.nodes[e.child].kind is not tree.nodes[e.parent].kind

    @pytest.mark.parametrize("text", PASSING)
    def test_parent_array_gives_the_edges(self, text):
        tree = extract_tree(RuleSpec.parse(text))
        assert [f.name for f in fields(CycleTree)] == ["nodes", "parents", "members", "root"]
        assert tree.parents[tree.root] is None
        others = [i for i in range(len(tree.nodes)) if i != tree.root]
        assert [e.child for e in tree.edges] == others
        assert [e.parent for e in tree.edges] == [tree.parents[i] for i in others]
        assert [e.child_state.value for e in tree.edges] == [tree.members[i] for i in others]

    def test_edges_are_built_on_first_read(self):
        tree = verify_critical_set(RuleSpec.parse("upsilon1:n=8:kset=1,8")).tree
        # the check itself built no edges
        assert "edges" not in vars(tree)
        edges = tree.edges
        assert tree.edges is edges

    def test_equal_trees_hash_alike(self):
        spec = RuleSpec.parse("psi2:n=7:k=3")
        a, b = extract_tree(spec), extract_tree(spec)
        # cached edges are no field: reading them changes neither
        assert a.edges and "edges" not in vars(b)
        assert a == b and hash(a) == hash(b)

    def test_order_three_upsilon_tree(self):
        tree = extract_tree(RuleSpec.parse("upsilon2:n=3:k=0"))
        assert str(tree.nodes[tree.root].representative) == "111"
        assert edge_map(tree) == {"000": "001", "010": "001", "001": "111"}

    def test_reference_figure_tree(self):
        # join tree of the two-element breakpoint rule at order 6
        tree = extract_tree(RuleSpec.parse("upsilon1:n=6:kset=1,6"))
        assert edge_map(tree) == {
            "001010": "010101",
            "010110": "001001",
            "000110": "001001",
            "000010": "000101",
            "001110": "000101",
            "010101": "010110",
            "001001": "011110",
            "000101": "011110",
            "011110": "000001",
            "000000": "000001",
            "000001": "111111",
        }

    def test_rejects_large_order(self):
        with pytest.raises(OrderOutOfRangeError):
            extract_tree(RuleSpec.parse("sala:n=21"))

    def test_dot_output(self):
        tree = extract_tree(RuleSpec.parse("psi1:n=6:kset=1,6"))
        dot = tree.to_dot()
        assert dot.startswith("digraph")
        assert dot.count('label="0') + dot.count('label="1') == 12 + 11
        assert dot.rstrip().endswith("}")


class TestNegativeControls:
    """Every structural failure names what failed; the messages are pinned."""

    def test_unpaired_state_detected(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        with pytest.raises(NotPairedError) as err:
            extract_tree(spec, toggled(spec, "000011"))
        assert str(err.value) == "state 000011 is critical but its conjugate 100011 is not"

    def test_least_unpaired_state_named(self):
        # 000010 dropped leaves 100010 unpaired; 000111 and 000101 added are
        # unpaired too, and the least of the three is named
        spec = RuleSpec.parse("psi2:n=6:k=1")
        with pytest.raises(NotPairedError) as err:
            extract_tree(spec, toggled(spec, "000010", "000111", "000101"))
        assert str(err.value) == "state 000101 is critical but its conjugate 100101 is not"

    def test_least_unpaired_upper_state_named(self):
        # only states with top bit 1 are unpaired: 100000 and 100100
        spec = RuleSpec.parse("psi2:n=6:k=1")
        with pytest.raises(NotPairedError) as err:
            extract_tree(spec, toggled(spec, "000100", "000000"))
        assert str(err.value) == "state 100000 is critical but its conjugate 000000 is not"

    def test_missing_pair_detected(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        with pytest.raises(NotSpanningError) as err:
            extract_tree(spec, toggled(spec, "000000", "100000"))
        assert str(err.value) == "20 critical states cannot span 12 cycles (need exactly 22)"

    def test_extra_pair_detected(self):
        spec = RuleSpec.parse("upsilon2:n=6:k=1")
        # the kind's own predicate plus a foreign conjugate pair
        with pytest.raises(NotSpanningError) as err:
            extract_tree(spec, toggled(spec, "000011", "100011"))
        assert str(err.value) == "24 critical states cannot span 12 cycles (need exactly 22)"

    def test_wrong_kind_predicate_detected(self):
        ups = RuleSpec.parse("upsilon2:n=6:k=1")
        psi_pred = critical_predicate(RuleSpec.parse("psi2:n=6:k=1"))
        with pytest.raises(NotSpanningError) as err:
            extract_tree(ups, psi_pred)
        assert str(err.value) == "cycle (000010) is designated by two conjugate pairs"

    @pytest.mark.parametrize(
        "text, drop, add, designated",
        [("psi2:n=6:k=1", "000000", "000101", "000101"),
         ("upsilon2:n=6:k=1", "000000", "000001", "000001")],
    )
    def test_doubled_pair_detected(self, text, drop, add, designated):
        spec = RuleSpec.parse(text)
        with pytest.raises(NotSpanningError) as err:
            extract_tree(spec, swapped_pair(spec, drop, add))
        assert str(err.value) == f"cycle ({designated}) is designated by two conjugate pairs"

    def test_unreachable_root_detected(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        with pytest.raises(NotSpanningError) as err:
            extract_tree(spec, swapped_pair(spec, "000000", "000001"))
        assert str(err.value) == "cycle (000001) cannot reach the root"

    def test_unorientable_sala_pair_detected(self):
        spec = RuleSpec.parse("sala:n=6")
        with pytest.raises(NotSpanningError) as err:
            extract_tree(spec, swapped_pair(spec, "000000", "000110"))
        assert str(err.value) == "cannot orient conjugate pair (000110, 100110)"


class TestOrientation:
    def test_closed_forms_match_the_landmarks(self):
        """Every conjugate pair (lo, hi) at n = 3..14 bridges two cycles, and
        each closed-form child member shares its cycle with the landmark
        the rule names: psi the tail extended by 1, upsilon the tail's
        zero-ended relabeling (assembled bit by bit here).  For sala, lo
        steps onto its own cycle's representative only as 0^n, the root, so
        the member that does is hi, on exactly one pair per non-root cycle."""
        for n in range(3, 15):
            nodes, index_of, _ = _cycle_index(n)
            top = 1 << (n - 1)
            mask = (1 << n) - 1
            mid_mask = (1 << (n - 2)) - 1

            def lands(v):
                return prr_step_value(v, n, mask) == nodes[index_of[v]].representative.value

            assert sum(lands(lo | top) for lo in range(top)) == len(nodes) - 1
            lows = list(range(top))
            psi_members = _child_members(RuleKind.PSI2, n, lows, nodes, index_of)
            upsilon_members = _child_members(RuleKind.UPSILON2, n, lows, nodes, index_of)
            for lo, psi, upsilon in zip(lows, psi_members, upsilon_members):
                hi = lo | top
                assert index_of[lo] != index_of[hi]
                assert lands(lo) == (lo == 0), (n, lo)
                psi_landmark = (lo << 1) | 1
                if lo & 1 == 0:
                    upsilon_landmark = lo
                else:
                    c1 = (lo >> (n - 2)) & 1
                    upsilon_landmark = (((lo >> 1) ^ mid_mask) << 2) | c1
                assert index_of[psi] == index_of[psi_landmark], (n, lo)
                assert index_of[upsilon] == index_of[upsilon_landmark] == index_of[lo], (n, lo)
            # sala orients (0^n, 10^(n-1)) away from 0^n, and 01^(n-1) lies
            # in the least complementing cycle.
            assert _child_members(RuleKind.SALA, n, [0], nodes, index_of) == [top]
            least_ccr = min(i for i, c in enumerate(nodes) if c.kind is CycleKind.CCR)
            assert index_of[top - 1] == least_ccr


class TestPerPairOracle:
    """The flat-array tree against the per-pair oracle: the same nodes,
    edges, root, DOT text, summary and order failures, or the same error."""

    @pytest.mark.parametrize("n", range(3, 17))
    def test_index_matches_stepping(self, n):
        nodes, index_of, ids = _cycle_index(n)
        assert (tuple(nodes), list(index_of)) == stepped_index(n)
        assert ids == list(range(len(nodes)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_spec(self, n):
        for kind in RuleKind:
            for spec in all_specs(kind, n):
                assert outcome(verify_by_tree, spec) == outcome(verify_by_pairs, spec), spec

    @pytest.mark.parametrize("n", [10, 14])
    def test_seeded_specs(self, n):
        for spec in seeded_specs(random.Random(n), n):
            assert outcome(verify_by_tree, spec) == outcome(verify_by_pairs, spec), spec

    @pytest.mark.parametrize("n", range(4, 9))
    def test_mutated_sets(self, n):
        """Random flips of one to three states, flipped conjugate pairs and
        swapped pairs (half of them for a pair designating the same cycle):
        unpaired states, wrong counts, unorientable, doubly designated or
        cut-off cycles, and order failures all come out alike."""
        rng = random.Random(n)
        specs = [s for kind in RuleKind for s in all_specs(kind, n)]
        nodes, index_of = stepped_index(n)
        top = 1 << (n - 1)

        def child(kind, lo):
            try:
                return index_of[designated_member(kind, n, lo, lo | top, nodes, index_of)]
            except NotSpanningError:
                return None

        seen = set()
        for _ in range(200):
            spec = rng.choice(specs)
            base = critical_predicate(spec)
            lows = [v for v in range(top) if base(v)]
            how = rng.randrange(4)
            if how == 0:
                flip = set(rng.sample(range(2 * top), rng.randint(1, 3)))
            elif how == 1:
                v = rng.randrange(top)
                flip = {v, v | top}
            else:
                drop = rng.choice(lows)
                others = [v for v in range(top) if not base(v)]
                if how == 3:
                    same = child(spec.kind, drop)
                    others = [v for v in others if child(spec.kind, v) == same] or others
                add = rng.choice(others)
                flip = {drop, drop | top, add, add | top}
            critical = lambda v, base=base, flip=flip: bool(base(v)) ^ (v in flip)  # noqa: E731
            got = outcome(verify_by_tree, spec, critical)
            assert got == outcome(verify_by_pairs, spec, critical), (spec, sorted(flip))
            seen.add(got[0] if isinstance(got[0], str) else bool(got[-1]))
        # order failures (True) take a same-child swap at n >= 7 to show up
        want = {"NotPairedError", "NotSpanningError", False, *([True] if n >= 7 else [])}
        assert want <= seen, seen


class TestVerifyCriticalSet:
    @pytest.mark.parametrize("text", PASSING)
    def test_passes_on_real_rules(self, text):
        spec = RuleSpec.parse(text)
        report = verify_critical_set(spec)
        assert report.ok
        assert report.failures == ()
        assert report.cycle_count == count_cycles(spec.n).total
        assert report.deviation_count == 2 * (report.cycle_count - 1)

    @pytest.mark.parametrize("text", PASSING)
    def test_root_matches_rule_class(self, text):
        spec = RuleSpec.parse(text)
        report = verify_critical_set(spec)
        if spec.kind.value.startswith("upsilon"):
            assert str(report.root_representative) == "1" * spec.n
        else:
            assert str(report.root_representative) == "0" * spec.n

    def test_psi_parents_precede_children(self):
        spec = RuleSpec.parse("psi2:n=8:k=5")
        tree = verify_critical_set(spec).tree
        for e in tree.edges:
            assert tree.nodes[e.parent].representative.value < tree.nodes[e.child].representative.value

    def test_upsilon_alternates_kinds(self):
        spec = RuleSpec.parse("upsilon2:n=8:k=5")
        tree = verify_critical_set(spec).tree
        for e in tree.edges:
            child, parent = tree.nodes[e.child], tree.nodes[e.parent]
            if child.kind is CycleKind.PCR:
                assert parent.kind is CycleKind.CCR
            else:
                assert parent.kind is CycleKind.PCR

    def test_parent_after_child_reported(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        report = verify_critical_set(spec, swapped_pair(spec, "000010", "001011"))
        assert report.failures == ("parent (010110) does not precede child (000101)",)

    def test_child_before_anchor_reported(self):
        spec = RuleSpec.parse("upsilon2:n=6:k=1")
        report = verify_critical_set(spec, swapped_pair(spec, "011101", "000101"))
        assert report.failures == (
            "cycle (000101) does not follow its parent's anchor (010101)",
        )

    @pytest.mark.parametrize(
        "text",
        ["sala:n=16", "psi1:n=16:kset=1,2,5,16", "psi2:n=16:k=1234",
         "upsilon1:n=16:kset=1,4,16", "upsilon2:n=16:k=777"],
    )
    def test_report_keeps_two_words_per_cycle(self, text):
        # the parent array's shared ints and the members' array('Q'); the
        # nodes belong to the cached cycle index, which a first run builds
        spec = RuleSpec.parse(text)
        verify_critical_set(spec)
        tracemalloc.start()
        try:
            report = verify_critical_set(spec)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 24 * report.cycle_count, kept / report.cycle_count

    def test_report_counts_are_read_from_its_tree(self):
        assert [f.name for f in fields(ValidationReport)] == ["spec", "failures", "tree"]
        report = verify_critical_set(RuleSpec.parse("upsilon2:n=6:k=1"))
        tree = report.tree
        assert report.ok and not ValidationReport(report.spec, ("a failure",), tree).ok
        assert report.cycle_count == len(tree.nodes) == 12
        assert report.deviation_count == 2 * len(tree.edges) == 22
        assert report.root_representative == tree.nodes[tree.root].representative

    def test_summary_line(self):
        report = verify_critical_set(RuleSpec.parse("sala:n=6"))
        text = report.summary()
        assert "sala:n=6" in text and "12 cycles" in text and "22 critical states" in text
