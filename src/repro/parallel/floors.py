"""The release-floor sweep, once for both machines.

A blockable (conservative) runtime may execute its queue head only up to
a proven lower bound on its future arrivals.  Besides channel promises
and GVT, the kernel's structural lookahead gives one
(docs/protocol.md §2, "Release floors"): every LP reacts to an arrival
at least ``react_lookahead_phases`` later, so the earliest time
anything can still *arrive* at LP ``i`` is

    A_i = min over predecessors j of B_j
    B_j = min(m_j, min over predecessors k of B_k + react_la(j))

where ``m_j`` is ``j``'s *potential* — the minimum timestamp queued at
or under way to it.  This is a multi-source shortest-path problem;
:class:`ReleaseFloors` solves it incrementally over what the potentials
moved since its previous sweep.

Its inputs are two lists indexed by lp id — the potentials and the
*arrivals* (the earliest event already under way to each LP, which caps
its floor directly) — and fixed tables of the graph it sweeps; its
outputs are the floors it writes into blockable runtimes.  The two
machines differ only in the graph and in where the lists come from:

* the modelled machine sweeps the whole LP graph with the potentials
  its exact GVT walk notes (:meth:`ReleaseFloors.whole`);
* a ring worker sweeps its own LPs, and each *remote* predecessor of
  one of them enters as a source node — no predecessors of its own —
  whose potential the worker takes from the token
  (:meth:`ReleaseFloors.worker`; ``WorkerCore._carry_floors``).
"""

from __future__ import annotations

import heapq
from itertools import chain, compress
from operator import ne
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.vtime import INFINITY, MINUS_INFINITY, VirtualTime

#: The time of a floor that releases nothing: a worker's bound taken
#: from a GVT not committed yet, ``(-inf, k)``.
_NEVER = MINUS_INFINITY[0]


class ReleaseFloors:
    """The incremental release-floor sweep over one graph.

    ``readers`` holds, per lp id, the ``(runtime, processor)`` whose
    floor this sweep writes — blockable runtimes only, since only their
    safety test reads a floor — or ``None``.
    """

    def __init__(self, readers: Sequence[Optional[tuple]],
                 preds: Sequence[Tuple[int, ...]],
                 succ: Sequence[Tuple[int, ...]],
                 react: Sequence[int]) -> None:
        self.readers = readers
        self.preds, self.succ, self.react = preds, succ, react
        #: What the sweep carries between calls (potentials, arrivals,
        #: ``B``, ``A``, parents) — ``None`` means a full sweep.
        self.carried: Optional[Tuple[list, ...]] = None

    @classmethod
    def whole(cls, model, readers) -> "ReleaseFloors":
        """The modelled machine's sweep: the whole LP graph."""
        lps = model.lps
        return cls(readers,
                   [tuple(model.predecessors(lp.lp_id)) for lp in lps],
                   [tuple(model.successors(lp.lp_id)) for lp in lps],
                   [lp.react_lookahead_phases for lp in lps])

    @classmethod
    def worker(cls, model, readers, local) -> "ReleaseFloors":
        """One ring worker's sweep.  ``local[lp_id]`` says whether the
        worker owns the LP.  An owned LP keeps all its predecessors;
        a remote one has none (its potential is what its owner last
        carried, or GVT).  Only edges into owned LPs are walked."""
        lps = model.lps
        preds = [tuple(model.predecessors(lp.lp_id)) if local[lp.lp_id]
                 else () for lp in lps]
        succ = [tuple(s for s in model.successors(lp.lp_id) if local[s])
                for lp in lps]
        return cls(readers, preds, succ,
                   [lp.react_lookahead_phases for lp in lps])

    @property
    def bound(self) -> Optional[list]:
        """``B`` per lp id as of the last sweep (``None`` before one)."""
        return None if self.carried is None else self.carried[2]

    def drop(self) -> None:
        """Forget the carried state: the next sweep is a full one."""
        self.carried = None

    def sweep(self, potential: List[VirtualTime],
              arriving: List[VirtualTime]) -> List[int]:
        """Refresh ``B``, ``A`` and every reader's floor; the ids whose
        floor rose.

        ``B``, ``A`` and the predecessor each ``A`` came from are carried
        to the next sweep, which redoes only what the potentials moved:
        a risen potential takes the ``B`` it was with it, a lost ``B``
        the ``A`` that came from it, and a lost ``A`` the ``B`` it gave;
        lost ``A`` are reseeded from the predecessors, lost ``B`` and
        those of moved potentials recomputed, Dijkstra runs from the
        ones that changed, and only readers whose ``A`` or arrivals moved
        are evaluated again — the same values as a full sweep.  For LP
        classes with zero declared lookahead the sweep degenerates to
        reachability, which is still sound.  An arrival caps its
        target's floor directly: the predecessor's output bound cannot
        stand in for a message already under way.  A floor only rises,
        and one still at time −∞ is not written: it releases nothing.
        """
        n = len(potential)
        full = self.carried is None
        if full:
            self.carried = ([INFINITY] * n, [INFINITY] * n,
                            [INFINITY] * n, [INFINITY] * n, [-1] * n)
        was, was_arriving, bound, arrival, parent = self.carried
        succ, preds, react = self.succ, self.preds, self.react
        moved = list(compress(range(n), map(ne, potential, was)))
        # B and A lost with a risen potential (``cut``: every A that
        # moved, for the readers).
        lost = [v for v in moved if bound[v] == was[v] < potential[v]]
        cut = []
        for v in lost:  # grows while it is walked
            bound[v] = INFINITY
            for w in succ[v]:
                if parent[w] == v:
                    parent[w] = -1
                    arrival[w] = INFINITY
                    cut.append(w)
                    if bound[w] is not INFINITY and bound[w] != was[w]:
                        lost.append(w)  # its B came from that A
        for w in cut:
            for k in preds[w]:
                if bound[k] < arrival[w]:
                    arrival[w], parent[w] = bound[k], k
        heap = []
        for v in chain(lost, moved):
            best, low, la = potential[v], arrival[v], react[v]
            if low is not INFINITY:
                low = (low[0], low[1] + la) if la else low
                if low < best:
                    best = low
            if best != bound[v]:
                bound[v] = best
                heap.append((best, v))
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            time, v = heappop(heap)
            if time is not bound[v]:
                continue  # superseded by a lower one
            for w in succ[v]:
                if time < arrival[w]:
                    arrival[w], parent[w] = time, v
                    cut.append(w)
                    la = react[w]
                    candidate = (time[0], time[1] + la) if la else time
                    if candidate < bound[w]:
                        bound[w] = candidate
                        heappush(heap, (candidate, w))
        readers = self.readers
        raised = []
        evaluate: Iterable[int] = range(n) if full else chain(
            cut, compress(range(n), map(ne, arriving, was_arriving)))
        for lp_id in evaluate:
            reader = readers[lp_id]
            if reader is None:
                continue
            runtime, proc = reader
            floor = arrival[lp_id]
            if arriving[lp_id] < floor:
                floor = arriving[lp_id]
            if floor > runtime.release_floor and floor[0] != _NEVER:
                runtime.release_floor = tuple.__new__(VirtualTime, floor)
                # An idle runtime's floor rises too: a write no door
                # of the engine sees (durable-checkpoint bookkeeping).
                proc.touched.add(lp_id)
                raised.append(lp_id)
        self.carried = (potential, arriving, bound, arrival, parent)
        return raised
