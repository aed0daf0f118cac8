"""Dense binary relations over state ids.

A :class:`StateRelation` wraps an n x n boolean matrix and does not copy
it.  Its reflexive-transitive closure is computed without touching the
matrix beyond one scan for its pairs: ``partition.closure_pair`` condenses
the generator graph into strongly connected components with an iterative
Tarjan pass (Tarjan 1972) and closes the condensation in the order Tarjan
completes it, sinks first (Purdom 1970; Nuutila 1995).  That costs linear
time in n and the pairs plus k^2/64 words for k components; the dense
matrix is only built when a caller asks for it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RelationError", "StateRelation"]


class RelationError(ValueError):
    """A relation fails a structural requirement (e.g. it is not a preorder)."""


class StateRelation:
    """Binary relation on dense state ids, backed by a boolean matrix.

    Membership tests and updates are constant time.  Iteration over pairs is
    row-major by id, so every traversal is deterministic.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        # takes ownership of a boolean array: no copy, so a fresh n x n
        # result is never held twice
        m = np.asarray(matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise RelationError(f"relation matrix must be square, got shape {m.shape}")
        self.matrix = m

    @classmethod
    def empty(cls, n: int) -> "StateRelation":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def identity(cls, n: int) -> "StateRelation":
        return cls(np.eye(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "StateRelation":
        return cls(np.ones((n, n), dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "StateRelation":
        rel = cls.empty(n)
        for u, v in pairs:
            rel.matrix[u, v] = True
        return rel

    @property
    def size(self) -> int:
        """Number of states the relation is defined over."""
        return self.matrix.shape[0]

    def has(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v])

    def __contains__(self, pair) -> bool:
        u, v = pair
        return bool(self.matrix[u, v])

    def add(self, u: int, v: int) -> None:
        self.matrix[u, v] = True

    def remove(self, u: int, v: int) -> None:
        self.matrix[u, v] = False

    def pairs(self):
        """Yield all related pairs in row-major id order."""
        for u, v in np.argwhere(self.matrix):
            yield int(u), int(v)

    def pair_count(self) -> int:
        return int(self.matrix.sum())

    def copy(self) -> "StateRelation":
        return StateRelation(self.matrix.copy())

    def issubset(self, other: "StateRelation") -> bool:
        return bool(np.all(self.matrix <= other.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateRelation):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool(
            np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        raise TypeError("StateRelation is not hashable")

    def __repr__(self) -> str:
        return f"StateRelation(size={self.size}, pairs={self.pair_count()})"

    # -- preorder machinery -------------------------------------------------

    def preorder_violation(self):
        """Return None if the relation is a preorder, else a human-readable witness."""
        m = self.matrix
        diag = m.diagonal()
        if not diag.all():
            u = int(np.flatnonzero(~diag)[0])
            return f"not reflexive: pair ({u},{u}) missing"
        if m.all():
            return None
        from .partition import transitivity_witness  # partition imports this module

        witness = transitivity_witness(m)
        if witness is not None:
            u, v, w = witness
            return (
                f"not transitive: ({u},{v}) and ({v},{w}) present "
                f"but ({u},{w}) missing"
            )
        return None

    def is_preorder(self) -> bool:
        return self.preorder_violation() is None

    def require_preorder(self, what: str = "relation") -> None:
        violation = self.preorder_violation()
        if violation is not None:
            raise RelationError(f"{what} is not a preorder: {violation}")

    def reflexive_transitive_closure(self) -> "StateRelation":
        """The closure as a dense matrix: the expansion of
        :func:`~simred.partition.closure_pair`."""
        from .partition import closure_pair  # partition imports this module

        return closure_pair(self).induced_relation()
