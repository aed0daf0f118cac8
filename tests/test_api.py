"""The public API: removing or adding a name must be a deliberate edit here."""

import simred

PUBLIC = [
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
    "ta_quotient",
    "upward_naive",
    "upward_simulation",
    "upward_translation",
    "validate_coarsest",
]


def test_public_names_are_pinned():
    assert simred.__all__ == PUBLIC


def test_public_names_resolve():
    for name in simred.__all__:
        assert getattr(simred, name, None) is not None, name


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(simred))
