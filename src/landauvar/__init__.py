"""Landau varieties, Picard-Lefschetz variation operators and hierarchy
constraints for parameter integrals of Feynman and Aomoto type."""

from .poly import Polynomial, PolyMatrix, determinant, divides, parse, resultant
from .graphs import (
    BUILTIN_GRAPHS,
    Edge,
    FeynmanGraph,
    contract,
    load_graph,
    symanzik_F,
    symanzik_U,
)
from .landau import (
    LandauComponent,
    OneLoopMatrices,
    bubble_split,
    eliminate_critical_values,
    fixture_landau,
    gram_matrix,
    icecream_ellA12,
    icecream_ellA12_printed,
    oneloop_landau,
    split_component,
)
from .hierarchy import (
    HierarchyRelation,
    Verdict,
    compatible,
    hierarchy_graph,
    to_dot,
    word_vanishes,
)
from .localhom import (
    PinchConfig,
    local_rank,
    normalize_word,
    operator,
    pairing_transfer_sign,
    parse_word,
    partialK_reduction_sign,
    pinch_config,
    pl_sign,
    vanishing_cycle_sign,
)
from .variation import (
    VariationModel,
    builtin_model,
    check_against_hierarchy,
    compose,
    model_from_json,
    model_to_json,
    nilpotency_index,
    pl_operator,
    word_zero_certificate,
)
from .aomoto import (
    aomoto_components,
    aomoto_edges,
    aomoto_symbol,
    maximal_chain_value,
)
from .tracking import Loop, ParametricRootSystem, TrackResult, track

__version__ = "0.1.0"
