"""Simulation preorders over labeled transition systems and tree automata.

Provides the optimized counter-based refinement engine and its baseline, a
brute-force oracle, tree-automata downward/upward simulation via LTS
reductions, and simulation-equivalence quotienting.
"""

from .engine import (
    AuditError,
    EngineError,
    EngineState,
    SimMetrics,
    engine_step,
    lrt,
    olrt,
    run_engine,
)
from .generate import random_lts, random_preorder, random_ta
from .lts import (
    Lts,
    LtsError,
    LtsParseError,
    build_lts,
    is_simulation,
    out_preorder,
    parse_lts,
    parse_relation,
    quotient,
    serialize_lts,
    serialize_relation,
)
from .oracle import OracleResult, downward_naive, max_simulation_naive, split, upward_naive
from .partition import (
    PartitionError,
    PartitionRelationPair,
    coarsest_pair,
    refine_by_out,
    validate_coarsest,
)
from .relation import RelationError, StateRelation
from .tree import (
    Environment,
    TimbukParseError,
    TranslationResult,
    TreeAutomaton,
    TreeError,
    downward_simulation,
    downward_translation,
    lhs_and_envs,
    parse_timbuk,
    serialize_timbuk,
    ta_quotient,
    upward_simulation,
    upward_translation,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "EngineError",
    "EngineState",
    "Environment",
    "Lts",
    "LtsError",
    "LtsParseError",
    "OracleResult",
    "PartitionError",
    "PartitionRelationPair",
    "RelationError",
    "SimMetrics",
    "StateRelation",
    "TimbukParseError",
    "TranslationResult",
    "TreeAutomaton",
    "TreeError",
    "build_lts",
    "coarsest_pair",
    "downward_naive",
    "downward_simulation",
    "downward_translation",
    "engine_step",
    "is_simulation",
    "lhs_and_envs",
    "lrt",
    "max_simulation_naive",
    "olrt",
    "out_preorder",
    "parse_lts",
    "parse_relation",
    "parse_timbuk",
    "quotient",
    "random_lts",
    "random_preorder",
    "random_ta",
    "refine_by_out",
    "run_engine",
    "serialize_lts",
    "serialize_relation",
    "serialize_timbuk",
    "split",
    "ta_quotient",
    "upward_naive",
    "upward_simulation",
    "upward_translation",
    "validate_coarsest",
]
