"""The sequential event-driven simulator.

This is the uniprocessor baseline the paper measures speedups against
("improved for sequential simulation"): a single global event heap, no
synchronization protocol, no channel bookkeeping.  It doubles as the
reference implementation for the equivalence tests — every parallel
protocol must produce exactly the traces this engine produces.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .event import Event, EventKind
from .model import Model
from .stats import RunStats
from .vtime import VirtualTime


class SequentialSimulator:
    """Single-heap discrete-event simulator over a :class:`Model`.

    ``shuffle_ties`` (a ``random.Random``) randomizes the processing
    order of events with equal virtual time.  The paper's tie-breaking
    scheme guarantees that any such order yields the same results; the
    property-based tests exercise exactly that claim.
    """

    def __init__(self, model: Model, shuffle_ties=None,
                 key_fn=None) -> None:
        model.validate()
        self.model = model
        self._heap: List[Tuple[tuple, Event]] = []
        self.stats = RunStats()
        self._primed = False
        #: The heap key, chosen once.  ``key_fn`` is used by the
        #: tie-breaking ablation to simulate a kernel WITHOUT the (pt, lt)
        #: scheme (ordering by physical time only) and overrides
        #: ``shuffle_ties``; the default is the deterministic event order.
        if key_fn is not None:
            self._key = key_fn
        elif shuffle_ties is not None:
            draw = shuffle_ties.random
            self._key = lambda event: (event.time, draw())
        else:
            self._key = Event.sort_key

    # ------------------------------------------------------------------
    def inject(self, event: Event) -> None:
        """Insert an externally produced event (stimulus)."""
        heapq.heappush(self._heap, (self._key(event), event))

    def _prime(self) -> None:
        for lp in self.model.lps:
            for event in lp.init_events():
                self.inject(event)
        self._primed = True

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> RunStats:
        """Run until the heap drains, ``until`` fs is passed, or
        ``max_events`` have been executed.

        Events *at* physical time ``until`` are still processed (matching
        VHDL's inclusive end-of-simulation convention for ``run <t>``);
        the first event strictly beyond it stops the run.
        """
        if not self._primed:
            self._prime()
        # Hot loop: delta cycles produce large cohorts of events at the
        # same physical time, so the sweep hoists the stop checks and
        # method lookups out of the cohort and batches the statistics
        # updates per sweep.  Pop order is *exactly* the one-at-a-time
        # order (the heap is re-peeked after every dispatch, so events
        # injected mid-sweep take part in the ordering immediately).
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        key = self._key
        lps = self.model.lps
        null_kind = EventKind.NULL
        stats = self.stats
        executed = 0
        committed = 0
        final_time = stats.final_time
        try:
            while heap:
                pt = heap[0][1].time.pt
                if until is not None and pt > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                # Sweep every queued event at this physical time.
                while heap:
                    event = heap[0][1]
                    if event.time.pt != pt:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    pop(heap)
                    executed += 1
                    if event.kind is null_kind:
                        continue
                    lp = lps[event.dst]
                    lp.now = event.time
                    lp.simulate(event)
                    committed += 1
                    if event.time > final_time:
                        final_time = event.time
                    for out in lp.drain_outbox():
                        push(heap, (key(out), out))
        finally:
            # Fold the sweep-local counters into the shared stats (also
            # on error, so partial stats stay as exact as before).
            stats.events_committed += committed
            stats.events_executed += committed
            if final_time > stats.final_time:
                stats.final_time = final_time
        return self.stats

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def next_time(self) -> Optional[VirtualTime]:
        """Timestamp of the earliest pending event, if any."""
        if not self._heap:
            return None
        return self._heap[0][1].time
