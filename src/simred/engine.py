"""Counter-based refinement engines computing maximal simulation preorders.

Both engines refine a partition-relation pair until it induces the maximal
simulation contained in the initial preorder.  The baseline keeps a Remove
set and a counter array for every (block, symbol) pair over all states; the
optimized variant first refines the initial pair by the output preorder,
keeps Remove sets and counters only for symbols entering a block, restricts
them to states that can emit the symbol, and never schedules the rest.

All counters live in one integer arena and all Remove sets in a parallel
boolean arena: the (block, symbol) pair owns the segment that starts at
``off[block, symbol]`` (-1 when unallocated), one cell per state that can
carry the counter.  Each loop iteration takes one pending (block B, symbol a)
Remove set, splits the partition so that Remove is a union of blocks D
(one ``bincount`` finds the blocks it cuts), cuts every relation pair (C, D)
with C holding an a-predecessor of B, and decrements the counters of each
cut C with one scatter over the predecessor entries of its cut D blocks, all
symbols at once, followed by one zero scan.  Counters only fall, so the
slots found at zero afterwards are exactly those that one update per
(C, D, b) would find, and the scheduling order and every counter metric are
those of per-(C, D, b) updates.

The two restrictions and the output-preorder initialization are toggled by
the flags of :func:`run_engine`.  Remove sets restricted to emitters are
sound only on a pair refined by the output preorder, so that restriction
refines the initial pair whatever ``out_init`` says, and every flag
combination computes the same pair.  :func:`lrt` and :func:`olrt` are the
two named corner configurations, and like :func:`run_engine` both return
the final pair together with its run metrics.

The initial pair is trusted: a :class:`PartitionRelationPair` is the
coarsest pair of a preorder by construction, so no run checks it again,
and :meth:`EngineState.current_pair` hands out no pair that is not one.

The engine reads the LTS's own per-symbol CSR arrays and ``in_mask``; the
only tables it derives itself are the counter slots and the all-symbol
predecessor entries (``_Adjacency``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .lts import Lts
from .partition import PartitionRelationPair, _trusted_pair, refine_by_out

__all__ = [
    "EngineError",
    "AuditError",
    "SimMetrics",
    "EngineState",
    "engine_step",
    "run_engine",
    "lrt",
    "olrt",
    "ENGINES",
]


class EngineError(ValueError):
    pass


class AuditError(RuntimeError):
    """A debug-mode audit found live engine data out of sync with its definition."""


@dataclass
class SimMetrics:
    """Resource and progress counters for one engine run.

    ``counters_allocated`` is the peak number of simultaneously live counter
    cells.  ``remove_enqueued`` counts every insertion into a Remove set,
    including the copies made when a split block hands its pending sets to a
    new child.  ``skipped_iterations`` counts pending Remove sets discarded
    because their symbol stopped entering the owning block (the optimized
    scheduler never runs them).
    """

    counters_allocated: int = 0
    remove_enqueued: int = 0
    iterations: int = 0
    splits: int = 0
    skipped_iterations: int = 0
    wall_time_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


# counter initialization gathers at most about this many cells at a time
_GATHER_CELLS = 1 << 20
# a block of two to this many members gathers its predecessors one slice per
# state; one member is one slice of _row_index, more take its vectorized path
_FEW_STATES = 8


def _row_index(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray | slice:
    """Data indices of the CSR rows ``rows``, concatenated, vectorized (a
    slice for one row)."""
    if len(rows) == 1:
        r = rows[0]
        return slice(indptr[r], indptr[r + 1])
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    out_starts = np.cumsum(lens) - lens
    return np.repeat(starts - out_starts, lens) + np.arange(int(lens.sum()))


def _grown(arr: np.ndarray, cap: int, used: int) -> np.ndarray:
    out = np.zeros(cap, dtype=arr.dtype)
    out[:used] = arr[:used]
    return out


class _Adjacency:
    """The index tables the engine derives once from the LTS's CSR arrays.

    Symbol a has a counter slot for every state emitting a (``restrict``)
    or for every state: ``width[a]`` slots, whose states ``slot_state[a]``
    lists ascending, and ``succ_indptr[a]`` is the a-successor CSR over the
    slots.  ``pred_indptr`` indexes one predecessor table over all symbols:
    the entries of state w are its incoming transitions, each held as the
    symbol (``pred_sym``) and the counter slot of its source
    (``pred_slot``), and ``pred_dst`` repeats w.  ``count_dtype`` is the
    narrowest counter type holding the largest per-symbol out-degree.
    """

    def __init__(self, lts: Lts, restrict: bool):
        n, m = lts.state_count, lts.symbol_count
        emits = lts.out_mask if restrict else np.ones((n, m), dtype=bool)
        self.width = emits.sum(axis=0).tolist()
        self.slot_state = [np.flatnonzero(col) for col in emits.T]
        self.succ_indptr = [
            np.append(si[states], si[-1])
            for si, states in zip(lts.succ_indptr, self.slot_state)
        ]
        slot = np.cumsum(emits, axis=0) - 1
        by_dst = np.argsort(lts.dst, kind="stable")
        self.pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lts.dst, minlength=n), out=self.pred_indptr[1:])
        self.pred_sym = lts.sym[by_dst]
        self.pred_slot = slot[lts.src, lts.sym][by_dst]
        self.pred_dst = lts.dst[by_dst]
        degree = int(np.diff(lts.succ_indptr, axis=1).max(initial=0))
        self.count_dtype = next(
            t for t in (np.uint8, np.uint16, np.int32) if degree <= np.iinfo(t).max
        )
        self.one = self.count_dtype(1)  # a Python int sends ufunc.at down its slow path


class EngineState:
    """Live data for one refinement run; advance it with :meth:`step`.

    Holds the current partition-relation pair (relation as a growable
    boolean matrix over block ids), the counter and Remove-mask arenas with
    their offset table ``_off[block, symbol]`` (-1 when unallocated) and a
    free list of dropped segments per symbol, the activation ordering of
    blocks, and run metrics.  A segment has one cell per counter slot of its
    symbol, and the arenas grow by doubling.  Blocks whose Remove sets
    become nonempty move to the front of the scheduling order; selection
    scans from the front.  ``initial`` must cover the LTS's states; being a
    pair, it is already the coarsest pair of a preorder.
    """

    def __init__(
        self,
        lts: Lts,
        initial: PartitionRelationPair,
        *,
        out_init: bool = True,
        restrict_to_in: bool = True,
        restrict_remove: bool = True,
        audit: bool = False,
    ):
        if initial.state_count != lts.state_count:
            raise EngineError("initial pair does not cover this LTS's states")
        # Remove sets restricted to emitters are sound only on a pair refined by Out
        pair = refine_by_out(initial, lts) if out_init or restrict_remove else initial

        self.lts = lts
        self.out_init = out_init
        self.restrict_to_in = restrict_to_in
        self.restrict_remove = restrict_remove
        self.audit = audit
        self.metrics = SimMetrics()

        adj = _Adjacency(lts, restrict_remove)
        self._adj = adj
        m = lts.symbol_count

        k = pair.block_count
        cap = max(4, k)
        self._nb = k
        self._members: list[np.ndarray] = list(pair.members)
        self._block_of = np.array(pair.block_of)
        self._rel = np.zeros((cap, cap), dtype=bool)
        self._rel[:k, :k] = pair.rel
        self._bsize = np.zeros(cap, dtype=np.int64)
        self._bsize[:k] = [len(mem) for mem in self._members]
        self._pending: list[set[int]] = [set() for _ in range(k)]

        # the initial segments are laid out block by block, symbols ascending
        if restrict_to_in:
            alloc = np.zeros((k, m), dtype=bool)
            alloc[self._block_of[lts.dst], lts.sym] = True
        else:
            alloc = np.ones((k, m), dtype=bool)
        sizes = np.where(alloc, adj.width, 0)
        starts = (np.cumsum(sizes) - sizes.ravel()).reshape(k, m)
        self._top = self._cells = int(sizes.sum())
        self._off = np.full((cap, m), -1, dtype=np.int64)
        self._off[:k] = np.where(alloc, starts, -1)
        self._free: list[list[int]] = [[] for _ in range(m)]
        self._cnt = np.zeros(max(self._top, 1), dtype=adj.count_dtype)
        self._rmv = np.zeros(len(self._cnt), dtype=bool)

        # one gather per symbol over every block that allocates it, a chunk
        # of blocks at a time; blocks with zeros go on the stack ascending
        zeros = np.zeros((k, m), dtype=np.int64)
        for a in range(m):
            blocks = np.flatnonzero(alloc[:, a])
            w = adj.width[a]
            rows = max(1, _GATHER_CELLS // max(len(lts.succ_data[a]) + 1, w))
            for lo in range(0, len(blocks), rows):
                chunk = blocks[lo : lo + rows]
                counts = self._counts(a, chunk)
                cells = self._off[chunk, a][:, None] + np.arange(w)
                self._cnt[cells] = counts
                zero = counts == 0
                self._rmv[cells] = zero
                zeros[chunk, a] = np.count_nonzero(zero, axis=1)
        self.metrics.remove_enqueued = int(zeros.sum())
        bids, syms = zeros.nonzero()
        for bid, a in zip(bids.tolist(), syms.tolist()):
            self._pending[bid].add(a)
        self._stack: list[int] = np.flatnonzero(zeros.any(axis=1)).tolist()
        self.metrics.counters_allocated = self._cells
        if audit:
            self.audit_state()

    # -- helpers ------------------------------------------------------------

    def _preds_of(self, a: int, states: np.ndarray) -> np.ndarray:
        """The a-predecessors of ``states``, with multiplicity."""
        data, indptr = self.lts.pred_data[a], self.lts.pred_indptr[a]
        if 1 < len(states) <= _FEW_STATES:
            return np.concatenate([data[indptr[v] : indptr[v + 1]] for v in states.tolist()])
        return data[_row_index(indptr, states)]

    def _counts(self, a: int, blocks: np.ndarray) -> np.ndarray:
        """Counter values of symbol a on ``blocks``, one row per block: for
        each slot, the state's a-successors in blocks above that block."""
        indptr = self._adj.succ_indptr[a]
        above = self._rel[blocks][:, self._block_of[self.lts.succ_data[a]]]
        # prefix sums in the counter dtype may wrap, but every segment sum
        # fits it, so the wrapped differences are exact
        sums = np.zeros((len(blocks), above.shape[1] + 1), dtype=self._cnt.dtype)
        np.cumsum(above, axis=1, dtype=sums.dtype, out=sums[:, 1:])
        return sums[:, indptr[1:]] - sums[:, indptr[:-1]]

    def _segment(self, bid: int, a: int) -> slice:
        o = int(self._off[bid, a])
        return slice(o, o + self._adj.width[a])

    def _activate(self, bid: int, symbols) -> None:
        # move-to-front: newly pending blocks go on top of the scan order
        self._pending[bid].update(symbols)
        if not self._stack or self._stack[-1] != bid:
            self._stack.append(bid)

    def _alloc(self, bid: int, a: int) -> int:
        """Give (bid, a) a segment, a free-listed one if there is any."""
        w = self._adj.width[a]
        if self._free[a]:
            o = self._free[a].pop()
        else:
            o = self._top
            self._top += w
            if self._top > len(self._cnt):
                cap = max(2 * len(self._cnt), self._top)
                self._cnt = _grown(self._cnt, cap, o)
                self._rmv = _grown(self._rmv, cap, o)
        self._off[bid, a] = o
        self._cells += w
        return o

    def _new_block(self) -> int:
        if self._nb == self._rel.shape[0]:
            # blocks are non-empty, so there are never more than n of them
            cap = min(self._rel.shape[0] * 2, self.lts.state_count)
            grown = np.zeros((cap, cap), dtype=bool)
            grown[: self._nb, : self._nb] = self._rel[: self._nb, : self._nb]
            self._rel = grown
            self._bsize = _grown(self._bsize, cap, self._nb)
            off = np.full((cap, self._off.shape[1]), -1, dtype=np.int64)
            off[: self._nb] = self._off[: self._nb]
            self._off = off
        nid = self._nb
        self._nb += 1
        self._members.append(np.empty(0, dtype=np.int64))
        self._pending.append(set())
        return nid

    def _shrink_to_in(self, bid: int) -> None:
        """Free the segments of symbols that no longer enter the block."""
        if not self.restrict_to_in:
            return
        row = self._off[bid]
        entering = self.lts.in_mask[self._members[bid]].any(axis=0)
        for a in ((row >= 0) & ~entering).nonzero()[0].tolist():
            seg = self._segment(bid, a)
            if self._rmv[seg].any():
                self.metrics.skipped_iterations += 1
            self._pending[bid].discard(a)
            self._free[a].append(seg.start)
            self._cells -= self._adj.width[a]
            row[a] = -1

    # -- the loop -----------------------------------------------------------

    def step(self) -> bool:
        """Process one pending (block, symbol) Remove set.

        Returns False (and changes nothing) when no Remove set is pending.
        """
        stack = self._stack
        while stack and not self._pending[stack[-1]]:
            stack.pop()
        if not stack:
            return False
        bid = stack[-1]
        a = min(self._pending[bid])
        self._pending[bid].discard(a)
        mask = self._rmv[self._segment(bid, a)]
        slots = mask.nonzero()[0]
        mask[slots] = False
        remove = self._adj.slot_state[a][slots]  # ascending, like the slots
        b_pre = self._members[bid]  # snapshot: split replaces member arrays
        self.metrics.iterations += 1

        d_blocks = self._split(remove)
        self._prune(a, b_pre, remove, d_blocks)
        if self.audit:
            self.audit_state()
        return True

    def run(self) -> "EngineState":
        while self.step():
            pass
        return self

    def _split(self, remove: np.ndarray) -> np.ndarray:
        """Split the partition by ``remove``; return the block ids inside it,
        ascending."""
        nb = self._nb
        owners = self._block_of[remove]
        hits = np.bincount(owners, minlength=nb)
        touched = hits.nonzero()[0]
        sizes = self._bsize[touched]
        if sizes.sum() == len(remove):
            return touched  # every touched block lies inside Remove
        cut = hits[touched] != sizes
        metrics = self.metrics
        width = self._adj.width
        for pb in touched[cut].tolist():
            seg = remove[owners == pb]
            nid = self._new_block()
            metrics.splits += 1
            self._block_of[seg] = nid
            mem = self._members[pb]
            keep = mem[self._block_of[mem] == pb]
            self._members[pb] = keep
            self._members[nid] = seg
            self._bsize[pb] = len(keep)
            self._bsize[nid] = len(seg)
            old = nid  # row/col count before this block existed
            rel = self._rel
            rel[nid, :old] = rel[pb, :old]
            rel[:old, nid] = rel[:old, pb]
            rel[nid, nid] = rel[pb, pb]
            # children inherit counters and pending Remove sets from the parent;
            # the surviving part keeps the parent's segments, the new part
            # copies only the symbols that still enter it
            inherit = self._off[pb] >= 0
            if self.restrict_to_in:
                inherit &= self.lts.in_mask[seg].any(axis=0)
            for b in inherit.nonzero()[0].tolist():
                o = self._alloc(nid, b)
                src = int(self._off[pb, b])
                self._cnt[o : o + width[b]] = self._cnt[src : src + width[b]]
                mask = self._rmv[src : src + width[b]]
                self._rmv[o : o + width[b]] = mask
                enqueued = int(np.count_nonzero(mask))
                if enqueued:
                    metrics.remove_enqueued += enqueued
                    self._activate(nid, (b,))
            self._shrink_to_in(pb)
        metrics.counters_allocated = max(metrics.counters_allocated, self._cells)
        # the new blocks got the next ids, so they sort after the others
        return np.concatenate([touched[~cut], np.arange(nb, self._nb)])

    def _prune(
        self, a: int, b_pre: np.ndarray, remove: np.ndarray, d_blocks: np.ndarray
    ) -> None:
        """Delete the (C, D) relation pairs this step cuts and propagate the
        counter decrements, one scatter per cut C.

        C ranges over the blocks holding a-predecessors of the step's block,
        D over the blocks inside its Remove set; all cut pairs come from one
        slice of the relation.  The predecessor entries of the Remove states
        are gathered once.  For each cut C, in ascending order, the entries
        of its cut D blocks whose symbol has a segment on C are decremented
        together, and the slots found at zero join C's Remove sets.
        Activating only adds a symbol to C's pending set and pushes C once,
        so the scheduling order and every metric equal those of
        per-(C, D, b) updates.
        """
        preds = self._preds_of(a, b_pre)
        if preds.size == 0 or d_blocks.size == 0:
            return
        c_blocks = np.bincount(self._block_of[preds], minlength=self._nb).nonzero()[0]
        cut = self._rel[c_blocks[:, None], d_blocks]
        rows, cols = np.nonzero(cut)
        if rows.size == 0:
            return
        self._rel[c_blocks[rows], d_blocks[cols]] = False
        adj, cnt, rmv, metrics = self._adj, self._cnt, self._rmv, self.metrics
        entries = _row_index(adj.pred_indptr, remove)
        sym, slot = adj.pred_sym[entries], adj.pred_slot[entries]
        # each entry enters a Remove state, so its block is one of the D blocks
        d_pos = np.empty(self._nb, dtype=np.int64)
        d_pos[d_blocks] = np.arange(len(d_blocks))
        d_pos = d_pos[self._block_of[adj.pred_dst[entries]]]
        for i in cut.any(axis=1).nonzero()[0].tolist():
            cid = int(c_blocks[i])
            base = self._off[cid][sym]
            # keep entries into a cut D whose symbol has a segment on C (a
            # symbol that does not enter C is never scheduled there)
            live = cut[i][d_pos] & (base >= 0)
            flat = (base + slot)[live]
            np.subtract.at(cnt, flat, adj.one)
            # a decremented counter was >= 1, so its slot was in no Remove set
            fresh = cnt[flat] == 0
            hit = flat[fresh]
            if not hit.size:
                continue
            rmv[hit] = True
            hit.sort()  # a source with several successors in D repeats its slot
            metrics.remove_enqueued += len(hit) - int(np.count_nonzero(hit[1:] == hit[:-1]))
            self._activate(cid, sym[live][fresh].tolist())

    # -- results and audits ---------------------------------------------------

    def current_pair(self) -> PartitionRelationPair:
        """The live pair, before the first step or once no Remove set is
        pending; raises :class:`EngineError` in between, where the working
        relation need not be a preorder."""
        if self.metrics.iterations and any(self._pending):
            raise EngineError("no pair while a Remove set is pending")
        nb = self._nb
        return _trusted_pair(self._block_of, self._rel[:nb, :nb])

    def audit_state(self) -> None:
        """Recompute every live counter and Remove set from definitions.

        Raises :class:`AuditError` on the first mismatch.  Quadratic; only for
        debug runs.
        """
        for bid in range(self._nb):
            if not self._rel[bid, bid]:
                raise AuditError(f"block {bid} lost reflexivity")
            for a in np.flatnonzero(self._off[bid] >= 0).tolist():
                seg = self._segment(bid, a)
                have = self._cnt[seg]
                expected = self._counts(a, np.array([bid]))[0]
                if not np.array_equal(have, expected):
                    v = int(np.flatnonzero(have != expected)[0])
                    raise AuditError(
                        f"counter mismatch at block {bid}, symbol {a}, slot {v}: "
                        f"have {int(have[v])}, expected {int(expected[v])}"
                    )
                mask = self._rmv[seg]
                if mask.any() and a not in self._pending[bid]:
                    raise AuditError(f"remove set at block {bid}, symbol {a} is not pending")
                if (expected[mask] != 0).any():
                    raise AuditError(
                        f"remove set at block {bid}, symbol {a} holds a state "
                        "with a nonzero counter"
                    )


def engine_step(state: EngineState) -> bool:
    """Run exactly one refinement iteration; False once the fixpoint is reached."""
    return state.step()


def run_engine(
    lts: Lts,
    initial: PartitionRelationPair,
    *,
    out_init: bool = True,
    restrict_to_in: bool = True,
    restrict_remove: bool = True,
    audit: bool = False,
) -> tuple[PartitionRelationPair, SimMetrics]:
    """Refine ``initial`` to the coarsest pair inducing the maximal simulation."""
    t0 = time.perf_counter()
    state = EngineState(
        lts,
        initial,
        out_init=out_init,
        restrict_to_in=restrict_to_in,
        restrict_remove=restrict_remove,
        audit=audit,
    )
    state.run()
    pair = state.current_pair()
    state.metrics.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return pair, state.metrics


def lrt(lts: Lts, initial: PartitionRelationPair) -> tuple[PartitionRelationPair, SimMetrics]:
    """Baseline refinement: full allocation, no output-preorder initialization."""
    return run_engine(
        lts, initial, out_init=False, restrict_to_in=False, restrict_remove=False
    )


def olrt(lts: Lts, initial: PartitionRelationPair) -> tuple[PartitionRelationPair, SimMetrics]:
    """Optimized refinement; returns the final pair and its run metrics."""
    return run_engine(lts, initial)


# the two named configurations, by algorithm name
ENGINES = {"olrt": olrt, "lrt": lrt}
