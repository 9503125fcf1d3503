"""Binary de Bruijn sequences from successor rules on the pure run-length
register: generators, cycle-structure tools, and independent validators."""

from .canonical import is_conecklace, is_necklace
from .core import State
from .jointree import (
    CycleTree,
    NotPairedError,
    NotSpanningError,
    TreeEdge,
    ValidationReport,
    extract_tree,
    verify_critical_set,
)
from .oracle import (
    FamilyEntry,
    FamilyReport,
    LengthMismatchError,
    all_specs,
    enumerate_family,
    family_size,
    family_union,
    find_repeated_window,
    is_de_bruijn,
)
from .registers import (
    Cycle,
    CycleCounts,
    CycleKind,
    CycleStructure,
    OrderOutOfRangeError,
    classify_state,
    count_cycles,
    decompose,
    prr_next_bit,
)
from .rules import (
    InvalidSpecError,
    RuleKind,
    RuleSpec,
    SequenceRecord,
    SpecSyntaxError,
    exponent_period,
    generate,
    generate_sequence,
    in_critical_set,
    next_bit,
    next_state,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "CycleCounts",
    "CycleKind",
    "CycleStructure",
    "CycleTree",
    "FamilyEntry",
    "FamilyReport",
    "InvalidSpecError",
    "LengthMismatchError",
    "NotPairedError",
    "NotSpanningError",
    "OrderOutOfRangeError",
    "RuleKind",
    "RuleSpec",
    "SequenceRecord",
    "SpecSyntaxError",
    "State",
    "TreeEdge",
    "ValidationReport",
    "all_specs",
    "classify_state",
    "count_cycles",
    "decompose",
    "enumerate_family",
    "exponent_period",
    "extract_tree",
    "family_size",
    "family_union",
    "find_repeated_window",
    "generate",
    "generate_sequence",
    "in_critical_set",
    "is_conecklace",
    "is_de_bruijn",
    "is_necklace",
    "next_bit",
    "next_state",
    "prr_next_bit",
    "verify_critical_set",
]
