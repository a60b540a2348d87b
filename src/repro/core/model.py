"""The PDES model: a static graph of LPs exchanging timestamped events.

``Model`` is the protocol-independent description that every engine
(sequential, conservative, optimistic, adaptive; modelled-parallel or
on real workers) consumes.  It holds the LPs, the declared channels
(needed by conservative synchronization), and per-LP synchronization
preferences (used by the mixed/adaptive protocol).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .lp import Channel, LogicalProcess
from .vtime import VirtualTime


class SyncMode(Enum):
    """Per-LP synchronization behaviour under the mixed protocol."""

    #: Always process events eagerly; roll back on stragglers (Time Warp).
    OPTIMISTIC = "optimistic"
    #: Only process provably safe events; block otherwise.
    CONSERVATIVE = "conservative"
    #: Start optimistic and self-adapt between the two modes at runtime.
    DYNAMIC = "dynamic"


class Model:
    """A registry of LPs plus the static communication topology."""

    def __init__(self) -> None:
        self.lps: List[LogicalProcess] = []
        self.channels: Dict[Tuple[int, int], Channel] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        self.sync_modes: Dict[int, SyncMode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_lp(self, lp: LogicalProcess,
               mode: SyncMode = SyncMode.OPTIMISTIC) -> int:
        """Register an LP; returns its dense id."""
        if lp.lp_id != -1:
            raise ValueError(f"LP {lp.name} already registered")
        lp.lp_id = len(self.lps)
        self.lps.append(lp)
        self._succ[lp.lp_id] = set()
        self._pred[lp.lp_id] = set()
        self.sync_modes[lp.lp_id] = mode
        return lp.lp_id

    def connect(self, src: LogicalProcess, dst: LogicalProcess,
                lookahead: Optional[VirtualTime] = None) -> Channel:
        """Declare the directed channel ``src -> dst``.

        Re-connecting an existing pair just refreshes the lookahead.
        Self-channels are implicit (an LP may always schedule for itself)
        and need not be declared.
        """
        key = (src.lp_id, dst.lp_id)
        channel = Channel(src.lp_id, dst.lp_id, lookahead)
        self.channels[key] = channel
        self._succ[src.lp_id].add(dst.lp_id)
        self._pred[dst.lp_id].add(src.lp_id)
        return channel

    def set_mode(self, lp: LogicalProcess, mode: SyncMode) -> None:
        self.sync_modes[lp.lp_id] = mode

    def set_all_modes(self, mode: SyncMode) -> None:
        for lp_id in self.sync_modes:
            self.sync_modes[lp_id] = mode

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def successors(self, lp_id: int) -> Set[int]:
        return self._succ[lp_id]

    def predecessors(self, lp_id: int) -> Set[int]:
        return self._pred[lp_id]

    def lp(self, lp_id: int) -> LogicalProcess:
        return self.lps[lp_id]

    def __len__(self) -> int:
        return len(self.lps)

    def validate(self) -> None:
        """Sanity-check the graph (dangling channels, duplicate names)."""
        n = len(self.lps)
        for (src, dst) in self.channels:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"channel {src}->{dst} references "
                                 f"unregistered LPs (model has {n})")
        seen: Set[str] = set()
        for lp in self.lps:
            if lp.name in seen:
                raise ValueError(f"duplicate LP name {lp.name!r}")
            seen.add(lp.name)

    def edges(self) -> Iterable[Tuple[int, int]]:
        return self.channels.keys()
