"""Counter-based refinement engines computing maximal simulation preorders.

Both engines refine a partition-relation pair until it induces the maximal
simulation contained in the initial preorder.  The baseline keeps a Remove
set and a counter array for every (block, symbol) pair over all states; the
optimized variant first refines the initial pair by the output preorder,
keeps Remove sets and counters only for symbols entering a block, restricts
them to states that can emit the symbol, and never schedules the rest.

Each loop iteration takes one pending (block B, symbol a) Remove set, splits
the partition so that Remove is a union of blocks D, cuts every relation
pair (C, D) with C holding an a-predecessor of B, and decrements the
counters of each cut C.  The decrements are grouped by (C, b): all cut D
blocks that symbol b enters update C's b-counters in one step, followed by
one zero scan and one Remove-set update, which leaves the scheduling order
and every counter metric as they are with one update per (C, D, b).

The two restrictions and the output-preorder initialization can be toggled
independently (they are result-preserving one by one), which is what
:func:`run_engine` exposes; :func:`lrt` and :func:`olrt` are the two named
corner configurations, and like :func:`run_engine` both return the final
pair together with its run metrics.

The engine reads the LTS's own per-symbol CSR arrays and ``in_mask``; the
only tables it derives itself are OLRT's emitter slots (``_Adjacency``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lts import Lts
from .partition import (
    PartitionError,
    PartitionRelationPair,
    refine_by_out,
    validate_coarsest,
)

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
        return {
            "counters_allocated": self.counters_allocated,
            "remove_enqueued": self.remove_enqueued,
            "iterations": self.iterations,
            "splits": self.splits,
            "skipped_iterations": self.skipped_iterations,
            "wall_time_ms": self.wall_time_ms,
        }


def _gather_rows(indptr: np.ndarray, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate CSR rows (with multiplicity), vectorized."""
    if len(rows) == 1:
        r = rows[0]
        return data[indptr[r] : indptr[r + 1]]
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    out_starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(lens[:-1], out=out_starts[1:])
    idx = np.repeat(starts - out_starts, lens) + np.arange(total, dtype=np.int64)
    return data[idx]


def _segment_counts(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    # np.add.reduceat chokes on empty segments; cumulative sums do not.
    cs = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return (cs[indptr[1:]] - cs[indptr[:-1]]).astype(np.int32)


class _Adjacency:
    """The per-symbol index tables OLRT derives from the LTS's CSR arrays.

    ``out_states[a]`` lists the states emitting a, ascending;
    ``counter_slot[a]`` maps a state to its dense slot among them (-1 if it
    emits no a); ``rsucc_indptr[a]`` is the successor CSR restricted to the
    rows of ``out_states[a]``.
    """

    def __init__(self, lts: Lts):
        n = lts.state_count
        self.out_states: list[np.ndarray] = []
        self.counter_slot: list[np.ndarray] = []
        self.rsucc_indptr: list[np.ndarray] = []
        for si in lts.succ_indptr:
            degrees = si[1:] - si[:-1]
            outs = np.flatnonzero(degrees > 0)
            self.out_states.append(outs)
            slot = np.full(n, -1, dtype=np.int64)
            slot[outs] = np.arange(len(outs))
            self.counter_slot.append(slot)
            rind = np.zeros(len(outs) + 1, dtype=np.int64)
            np.cumsum(degrees[outs], out=rind[1:])
            self.rsucc_indptr.append(rind)


class _RemoveSet:
    """Pending states for one (block, symbol), deduplicated by a width mask.

    Items are held as a list of immutable id-array chunks so that inheriting
    a copy on a split is O(number of chunks).
    """

    __slots__ = ("mask", "chunks", "count")

    def __init__(self, width: int):
        self.mask = np.zeros(width, dtype=bool)
        self.chunks: list[np.ndarray] = []
        self.count = 0

    def clone(self) -> "_RemoveSet":
        new = _RemoveSet.__new__(_RemoveSet)
        new.mask = self.mask.copy()
        new.chunks = list(self.chunks)
        new.count = self.count
        return new

    def drain(self) -> np.ndarray:
        states = (
            np.concatenate(self.chunks) if self.chunks else np.empty(0, dtype=np.int64)
        )
        self.mask = np.zeros(len(self.mask), dtype=bool)
        self.chunks = []
        self.count = 0
        return states


class EngineState:
    """Live data for one refinement run; advance it with :meth:`step`.

    Holds the current partition-relation pair (relation as a growable
    boolean matrix over block ids), the per-(block, symbol) Remove sets and
    counter arrays, the activation ordering of blocks, and run metrics.
    Blocks whose Remove sets become nonempty move to the front of the
    scheduling order; selection scans from the front.
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
        # refine_by_out validates the pair itself; the plain start checks it here
        try:
            if out_init:
                pair = refine_by_out(initial, lts)
            else:
                validate_coarsest(initial)
                pair = initial
        except PartitionError as exc:
            raise EngineError(f"initial pair rejected: {exc}") from exc

        self.lts = lts
        self.out_init = out_init
        self.restrict_to_in = restrict_to_in
        self.restrict_remove = restrict_remove
        self.audit = audit
        self.metrics = SimMetrics()

        adj = _Adjacency(lts)
        self._adj = adj
        n, m = lts.state_count, lts.symbol_count

        k = pair.block_count
        cap = max(4, k)
        self._nb = k
        self._members: list[np.ndarray] = list(pair.members)
        self._block_of = np.array(pair.block_of)
        self._rel = np.zeros((cap, cap), dtype=bool)
        self._rel[:k, :k] = pair.rel
        self._bsize = np.zeros(cap, dtype=np.int64)
        self._bsize[:k] = [len(mem) for mem in self._members]

        # per block: symbol -> counter array / remove set; key present == allocated
        self._counts: list[dict[int, np.ndarray]] = [dict() for _ in range(k)]
        self._removes: list[dict[int, _RemoveSet]] = [dict() for _ in range(k)]
        self._pending: list[set[int]] = [set() for _ in range(k)]
        self._stack: list[int] = []
        self._cells = 0
        # per-block caches, dropped when a split shrinks the block
        self._insym_cache: dict[int, list[int]] = {}
        self._dec_cache: dict[tuple[int, int], tuple] = {}

        widths = [
            len(adj.out_states[a]) if restrict_remove else n for a in range(m)
        ]

        for bid in range(k):
            above = self._above_mask(bid)
            if restrict_to_in:
                symbols = self._in_symbols(self._members[bid]).tolist()
            else:
                symbols = range(m)
            for a in symbols:
                counts = self._initial_counts(a, above)
                self._counts[bid][a] = counts
                self._cells += len(counts)
                rs = _RemoveSet(widths[a])
                zero = np.flatnonzero(counts == 0)
                if zero.size:
                    rs.mask[zero] = True
                    states = (
                        adj.out_states[a][zero] if restrict_remove else zero
                    )
                    rs.chunks.append(states)
                    rs.count = len(states)
                    self.metrics.remove_enqueued += len(states)
                self._removes[bid][a] = rs
                if rs.count:
                    self._activate(bid, a)
        self.metrics.counters_allocated = max(self.metrics.counters_allocated, self._cells)
        if audit:
            self.audit_state()

    # -- helpers ------------------------------------------------------------

    def _in_symbols(self, states: np.ndarray) -> np.ndarray:
        """Symbols entering some state of ``states``, ascending."""
        return np.flatnonzero(self.lts.in_mask[states].any(axis=0))

    def _preds_of(self, a: int, states: np.ndarray) -> np.ndarray:
        """The a-predecessors of ``states``, with multiplicity."""
        return _gather_rows(self.lts.pred_indptr[a], self.lts.pred_data[a], states)

    def _above_mask(self, bid: int) -> np.ndarray:
        return self._rel[bid, : self._nb][self._block_of]

    def _initial_counts(self, a: int, above: np.ndarray) -> np.ndarray:
        vals = above[self.lts.succ_data[a]]
        if self.restrict_remove:
            return _segment_counts(self._adj.rsucc_indptr[a], vals)
        return _segment_counts(self.lts.succ_indptr[a], vals)

    def _activate(self, bid: int, a: int) -> None:
        # move-to-front: newly pending blocks go on top of the scan order
        if a not in self._pending[bid]:
            self._pending[bid].add(a)
        if not self._stack or self._stack[-1] != bid:
            self._stack.append(bid)

    def _new_block(self) -> int:
        if self._nb == self._rel.shape[0]:
            # blocks are non-empty, so there are never more than n of them
            cap = min(self._rel.shape[0] * 2, self.lts.state_count)
            grown = np.zeros((cap, cap), dtype=bool)
            grown[: self._nb, : self._nb] = self._rel[: self._nb, : self._nb]
            self._rel = grown
            grown_sizes = np.zeros(cap, dtype=np.int64)
            grown_sizes[: self._nb] = self._bsize[: self._nb]
            self._bsize = grown_sizes
        nid = self._nb
        self._nb += 1
        self._members.append(np.empty(0, dtype=np.int64))
        self._counts.append(dict())
        self._removes.append(dict())
        self._pending.append(set())
        return nid

    def _shrink_to_in(self, bid: int) -> None:
        """Drop data for symbols that no longer enter the block."""
        if not self.restrict_to_in:
            return
        allocated = sorted(self._counts[bid])
        if not allocated:
            return
        syms = np.array(allocated)
        alive = self.lts.in_mask[self._members[bid]][:, syms].any(axis=0)
        for a in syms[~alive]:
            a = int(a)
            self._cells -= len(self._counts[bid].pop(a))
            rs = self._removes[bid].pop(a)
            if rs.count:
                self.metrics.skipped_iterations += 1
            self._pending[bid].discard(a)

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
        remove = self._removes[bid][a].drain()
        remove.sort()
        b_pre = self._members[bid]  # snapshot: split replaces member arrays
        self.metrics.iterations += 1

        d_blocks = self._split(remove)
        self._prune(a, b_pre, d_blocks)
        if self.audit:
            self.audit_state()
        return True

    def run(self) -> "EngineState":
        while self.step():
            pass
        return self

    def _split(self, remove: np.ndarray) -> list[int]:
        """Split the partition by ``remove``; return the block ids inside it."""
        if remove.size == 0:
            return []
        owners = self._block_of[remove]
        order = np.argsort(owners, kind="stable")
        rs = remove[order]
        owners = owners[order]
        uniq, starts, counts = np.unique(owners, return_index=True, return_counts=True)
        full = counts == self._bsize[uniq]
        d_blocks = uniq[full].tolist()  # blocks fully inside: child equals parent
        metrics = self.metrics
        for pos in np.flatnonzero(~full):
            pb = int(uniq[pos])
            s = int(starts[pos])
            seg = rs[s : s + int(counts[pos])]
            mem = self._members[pb]
            nid = self._new_block()
            metrics.splits += 1
            self._block_of[seg] = nid
            keep = mem[self._block_of[mem] == pb]
            self._members[pb] = keep
            self._members[nid] = seg
            self._bsize[pb] = len(keep)
            self._bsize[nid] = len(seg)
            # decrement slots are cached only for the block's in-symbols
            for b in self._insym_cache.pop(pb, ()):
                self._dec_cache.pop((pb, b), None)
            old = nid  # row/col count before this block existed
            rel = self._rel
            rel[nid, :old] = rel[pb, :old]
            rel[:old, nid] = rel[:old, pb]
            rel[nid, nid] = rel[pb, pb]
            # children inherit counters and pending Remove sets from the parent;
            # the surviving part reuses the parent's storage, the new part
            # copies only the symbols that still enter it
            if self.restrict_to_in:
                child_syms = self._in_symbols(seg).tolist()
            else:
                child_syms = sorted(self._counts[pb])
            for b in child_syms:
                arr = self._counts[pb].get(b)
                if arr is None:
                    continue
                copy = arr.copy()
                self._counts[nid][b] = copy
                self._cells += len(copy)
                clone = self._removes[pb][b].clone()
                self._removes[nid][b] = clone
                if clone.count:
                    metrics.remove_enqueued += clone.count
                    self._activate(nid, b)
            self._shrink_to_in(pb)
            d_blocks.append(nid)
        metrics.counters_allocated = max(metrics.counters_allocated, self._cells)
        return sorted(d_blocks)

    def _in_symbols_of(self, bid: int) -> list[int]:
        syms = self._insym_cache.get(bid)
        if syms is None:
            syms = self._in_symbols(self._members[bid]).tolist()
            self._insym_cache[bid] = syms
        return syms

    def _decrement_indices(self, bid: int, b: int):
        """Counter slots hit when block ``bid`` leaves some above-set, with
        multiplicity, plus the deduplicated slots (None when already unique)."""
        key = (bid, b)
        cached = self._dec_cache.get(key)
        if cached is None:
            dmem = self._members[bid]
            sources = self._preds_of(b, dmem)
            if self.restrict_remove:
                idx = self._adj.counter_slot[b][sources]
            else:
                idx = sources
            # predecessor sets are duplicate-free, so multiplicity needs >1 member
            uniq = None if len(dmem) == 1 else np.unique(idx)
            cached = (idx, uniq)
            self._dec_cache[key] = cached
        return cached

    def _prune(self, a: int, b_pre: np.ndarray, d_blocks: list[int]) -> None:
        """Delete the (C, D) relation pairs this step cuts and propagate the
        counter decrements, grouped by (C, b).

        C ranges over the blocks holding a-predecessors of the step's block,
        D over the blocks inside its Remove set; all cut pairs come from one
        slice of the relation.  For each cut C, the decrement slots of every
        cut D that symbol b enters are applied to C's b-counters together,
        with one zero scan and one Remove-set update per (C, b).  Counters
        only fall and never below zero, so the slots found at zero after the
        group are exactly those the per-D updates found one D at a time.
        The (C, b) activations still come in ascending C order, and
        activating only adds b to C's pending set and pushes C once, so the
        scheduling order and every metric equal those of per-(C, D, b)
        updates.
        """
        preds = self._preds_of(a, b_pre)
        if preds.size == 0 or not d_blocks:
            return
        c_blocks = np.unique(self._block_of[preds])
        d_arr = np.asarray(d_blocks)
        rows, cols = np.nonzero(self._rel[np.ix_(c_blocks, d_arr)])
        if rows.size == 0:
            return
        cut_c, cut_d = c_blocks[rows], d_arr[cols]
        self._rel[cut_c, cut_d] = False
        cut: dict[int, list[int]] = {}  # row-major order: C ascending
        for cid, did in zip(cut_c.tolist(), cut_d.tolist()):
            cut.setdefault(cid, []).append(did)
        for cid, dids in cut.items():
            counts_c = self._counts[cid]
            groups: dict[int, list[int]] = {}
            for did in dids:
                for b in self._in_symbols_of(did):
                    if b in counts_c:  # else b does not enter C; never scheduled
                        groups.setdefault(b, []).append(did)
            for b, group in groups.items():
                if self._decrement_group(cid, b, group):
                    self._activate(cid, b)

    def _decrement_group(self, cid: int, b: int, dids: list[int]) -> bool:
        """Decrement C's b-counters for the blocks ``dids`` leaving its
        above-set and enqueue the slots that reach zero; True if any did."""
        arr = self._counts[cid][b]
        if len(dids) == 1:
            idx, uniq = self._decrement_indices(dids[0], b)
            if uniq is None:
                arr[idx] -= 1
                uniq = idx
            else:
                np.subtract.at(arr, idx, 1)
        else:
            idx = np.concatenate([self._decrement_indices(did, b)[0] for did in dids])
            hits = np.bincount(idx, minlength=len(arr))
            arr -= hits
            uniq = np.flatnonzero(hits)
        zero = uniq[arr[uniq] == 0]
        if zero.size == 0:
            return False
        rs = self._removes[cid][b]
        fresh = zero[~rs.mask[zero]]
        if fresh.size == 0:
            return False
        rs.mask[fresh] = True
        states = self._adj.out_states[b][fresh] if self.restrict_remove else fresh
        rs.chunks.append(states)
        rs.count += len(states)
        self.metrics.remove_enqueued += len(states)
        return True

    # -- results and audits ---------------------------------------------------

    def current_pair(self) -> PartitionRelationPair:
        """Snapshot of the live partition-relation pair."""
        nb = self._nb
        return PartitionRelationPair.from_labels(self._block_of, self._rel[:nb, :nb])

    def audit_state(self) -> None:
        """Recompute every live counter and Remove set from definitions.

        Raises :class:`AuditError` on the first mismatch.  Quadratic; only for
        debug runs.
        """
        for bid in range(self._nb):
            above = self._above_mask(bid)
            if not self._rel[bid, bid]:
                raise AuditError(f"block {bid} lost reflexivity")
            for a, arr in self._counts[bid].items():
                expected = self._initial_counts(a, above)
                if not np.array_equal(arr, expected):
                    v = int(np.flatnonzero(arr != expected)[0])
                    raise AuditError(
                        f"counter mismatch at block {bid}, symbol {a}, slot {v}: "
                        f"have {int(arr[v])}, expected {int(expected[v])}"
                    )
                rs = self._removes[bid][a]
                listed = np.zeros(len(rs.mask), dtype=bool)
                for chunk in rs.chunks:
                    if self.restrict_remove:
                        listed[self._adj.counter_slot[a][chunk]] = True
                    else:
                        listed[chunk] = True
                if not np.array_equal(listed, rs.mask):
                    raise AuditError(f"remove mask out of sync at block {bid}, symbol {a}")
                if (expected[rs.mask] != 0).any():
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
