import pytest

from prrseq import (
    CycleKind,
    NotPairedError,
    NotSpanningError,
    OrderOutOfRangeError,
    RuleSpec,
    count_cycles,
    extract_tree,
    verify_critical_set,
)
from prrseq.jointree import _cycle_index, _designated_member
from prrseq.registers import prr_step_value
from prrseq.rules import RuleKind, critical_predicate

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
    def test_unpaired_state_detected(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        base = critical_predicate(spec)
        with pytest.raises(NotPairedError):
            extract_tree(spec, lambda v: base(v) ^ (v == 0b000011))

    def test_missing_pair_detected(self):
        spec = RuleSpec.parse("psi2:n=6:k=1")
        base = critical_predicate(spec)
        with pytest.raises(NotSpanningError):
            extract_tree(spec, lambda v: base(v) and v not in (0b000000, 0b100000))

    def test_doubled_pair_detected(self):
        spec = RuleSpec.parse("upsilon2:n=6:k=1")
        base = critical_predicate(spec)
        # the kind's own predicate plus a foreign conjugate pair
        with pytest.raises(NotSpanningError):
            extract_tree(spec, lambda v: base(v) or v in (0b000011, 0b100011))

    def test_wrong_kind_predicate_detected(self):
        ups = RuleSpec.parse("upsilon2:n=6:k=1")
        psi_pred = critical_predicate(RuleSpec.parse("psi2:n=6:k=1"))
        with pytest.raises(NotSpanningError):
            extract_tree(ups, psi_pred)

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
            nodes, index_of = _cycle_index(n)
            top = 1 << (n - 1)
            mask = (1 << n) - 1
            mid_mask = (1 << (n - 2)) - 1

            def lands(v):
                return prr_step_value(v, n, mask) == nodes[index_of[v]].representative.value

            assert sum(lands(lo | top) for lo in range(top)) == len(nodes) - 1
            for lo in range(top):
                hi = lo | top
                assert index_of[lo] != index_of[hi]
                assert lands(lo) == (lo == 0), (n, lo)
                psi_landmark = (lo << 1) | 1
                if lo & 1 == 0:
                    upsilon_landmark = lo
                else:
                    c1 = (lo >> (n - 2)) & 1
                    upsilon_landmark = (((lo >> 1) ^ mid_mask) << 2) | c1
                psi = _designated_member(RuleKind.PSI2, n, lo, hi, nodes, index_of)
                upsilon = _designated_member(RuleKind.UPSILON2, n, lo, hi, nodes, index_of)
                assert index_of[psi] == index_of[psi_landmark], (n, lo)
                assert index_of[upsilon] == index_of[upsilon_landmark] == index_of[lo], (n, lo)
            # sala orients (0^n, 10^(n-1)) away from 0^n, and 01^(n-1) lies
            # in the least complementing cycle.
            assert _designated_member(RuleKind.SALA, n, 0, top, nodes, index_of) == top
            least_ccr = min(i for i, c in enumerate(nodes) if c.kind is CycleKind.CCR)
            assert index_of[top - 1] == least_ccr


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

    def test_summary_line(self):
        report = verify_critical_set(RuleSpec.parse("sala:n=6"))
        text = report.summary()
        assert "sala:n=6" in text and "12 cycles" in text and "22 critical states" in text
