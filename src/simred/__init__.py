"""Simulation preorders over labeled transition systems and tree automata.

Provides the optimized counter-based refinement engine and its baseline, a
brute-force oracle, tree-automata downward/upward simulation via LTS
reductions, and simulation-equivalence quotienting.

Each public name is imported from its submodule on first use (PEP 562), so
``import simred`` loads no submodule and a caller pays only for the modules
whose names it touches.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it; __all__ keeps this order
_MODULE_OF = {
    "AuditError": "engine",
    "EngineError": "engine",
    "EngineState": "engine",
    "Environment": "tree",
    "Lts": "lts",
    "LtsError": "lts",
    "LtsParseError": "lts",
    "OracleResult": "oracle",
    "PartitionError": "partition",
    "PartitionRelationPair": "partition",
    "RelationError": "relation",
    "SimMetrics": "engine",
    "StateRelation": "relation",
    "TimbukParseError": "tree",
    "TranslationResult": "tree",
    "TreeAutomaton": "tree",
    "TreeError": "tree",
    "build_lts": "lts",
    "coarsest_pair": "partition",
    "downward_naive": "oracle",
    "downward_simulation": "tree",
    "downward_translation": "tree",
    "engine_step": "engine",
    "is_simulation": "lts",
    "lhs_and_envs": "tree",
    "lrt": "engine",
    "max_simulation_naive": "oracle",
    "olrt": "engine",
    "parse_lts": "lts",
    "parse_relation": "lts",
    "parse_timbuk": "tree",
    "quotient": "lts",
    "random_lts": "generate",
    "random_preorder": "generate",
    "random_ta": "generate",
    "refine_by_out": "partition",
    "run_engine": "engine",
    "serialize_lts": "lts",
    "serialize_relation": "lts",
    "serialize_timbuk": "tree",
    "ta_quotient": "tree",
    "upward_naive": "oracle",
    "upward_simulation": "tree",
    "upward_translation": "tree",
    "validate_coarsest": "partition",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # through __import__, the import statement's own path, which
    # -X importtime reports and importlib.import_module bypasses
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
