"""The tree reductions' initial preorders, built densely from their definitions.

A reference for the translations' ``initial`` pairs in the tests: quadratic
in the translated LTS's state count, so keep the automata small.
"""

from simred import StateRelation, coarsest_pair, out_preorder, refine_by_out


def initial_preorder(ta, tr, d=None, init=None) -> StateRelation:
    """I of the downward reduction (``d`` is None) or of the upward one.

    Downward, I is ``init`` on the automaton states (the full relation when
    it is None), the full relation on the left-hand-side nodes, and relates
    no state with a node.  Upward, I relates automaton states by final-state
    implication and environments with the same symbol and hole whose
    remaining states are componentwise d-related; it never relates an
    automaton state with an environment.
    """
    n = tr.lts.state_count
    rel = StateRelation.empty(n)
    for u, (kind_u, x) in enumerate(tr.back_map):
        for v, (kind_v, y) in enumerate(tr.back_map):
            if kind_u != kind_v:
                related = False
            elif d is None:
                related = kind_u == "lhs" or init is None or init.has(x, y)
            elif kind_u == "state":
                related = x not in ta.finals or y in ta.finals
            else:
                related = (
                    (x.symbol, x.hole) == (y.symbol, y.hole)
                    and len(x.others) == len(y.others)
                    and all(d.has(a, b) for a, b in zip(x.others, y.others))
                )
            if related:
                rel.add(u, v)
    return rel


def initial_pair_matches(ta, tr, d=None, init=None) -> bool:
    """``tr.initial`` is the coarsest pair of I, and OLRT's Out refinement of
    it is the coarsest pair of I & Out, Out taken from its definition."""
    i = initial_preorder(ta, tr, d, init)
    i_and_out = StateRelation(i.matrix & out_preorder(tr.lts).matrix)
    return tr.initial == coarsest_pair(i) and refine_by_out(
        tr.initial, tr.lts
    ) == coarsest_pair(i_and_out)
