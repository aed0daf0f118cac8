"""The output preorder of an LTS, built densely from its definition.

A reference for ``refine_by_out`` and the engines' Out refinement in the
tests: quadratic in the state count, so keep the systems small.
"""

import numpy as np

from simred import StateRelation


def out_preorder(lts) -> StateRelation:
    """The output preorder: (u,v) related iff out(u) is a subset of out(v)."""
    # (u,v) fails iff u emits some symbol v does not.
    o = lts.out_mask.astype(np.float32)
    return StateRelation((o @ (1.0 - o).T) < 0.5)
