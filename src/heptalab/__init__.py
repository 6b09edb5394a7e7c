"""heptalab: recognition, decomposition, and coloring toolkit for
odd-hole-free graph corpora."""

__version__ = "0.1.0"

from .coloring import (
    ChiResult,
    Coloring,
    chromatic_number_exact,
    four_color_heptagram_type,
    four_color_t11,
    greedy_coloring,
    is_proper,
)
from .detect import (
    PatternHit,
    SearchBudgetExceeded,
    c7_complement,
    clique_number,
    find_full_house,
    find_induced_pattern,
    find_odd_hole,
    full_house_graph,
    has_c7_complement,
    is_perfect_bruteforce,
    verify_hit,
)
from .graph import (
    Graph,
    Graph6Error,
    SetRelation,
    complement,
    from_graph6,
    induced_subgraph,
    is_clique,
    is_stable_set,
    relation,
    to_graph6,
)
from .harmonious import (
    CutsetSearchResult,
    HarmoniousPartition,
    HarmonyVerdict,
    HarmonyViolation,
    MergeError,
    find_harmonious_cutset,
    merge_colorings,
    minimal_separators,
    verify_harmonious,
)
from .structures import (
    GenerationError,
    HeptagramTypeWitness,
    HeptagramWitness,
    StructureVerdict,
    T11Witness,
    Tail,
    VertexClassification,
    classify_vertex,
    find_tails,
    generate_heptagram_type,
    generate_t11_type,
    heptagram_consequences,
    recognize_heptagram_type,
    recognize_t11_type,
    verify_heptagram,
    verify_heptagram_type,
    verify_t11_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
