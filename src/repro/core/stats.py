"""Run statistics collected by every engine.

The paper's evaluation compares protocols by run time and, qualitatively,
by their overheads (rollbacks, blocking, null messages, memory).  Every
engine fills a :class:`RunStats` so benchmarks and tests can report the
same quantities uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .vtime import VirtualTime, ZERO


@dataclass
class RunStats:
    """Counters accumulated over one simulation run.

    Every field holds an immutable value, so a shallow copy
    (``dataclasses.replace``) is an independent image of the counters.
    """

    #: Committed (i.e. never rolled back) event executions.
    events_committed: int = 0
    #: Total event executions including ones later rolled back.
    events_executed: int = 0
    #: Number of rollbacks performed (optimistic/adaptive engines).
    rollbacks: int = 0
    #: Events squashed by rollbacks (executed - committed, tracked live).
    events_rolled_back: int = 0
    #: Antimessages sent.
    antimessages: int = 0
    #: Positive/negative pairs annihilated in input queues.
    annihilations: int = 0
    #: Null messages sent (conservative with lookahead).
    null_messages: int = 0
    #: Times a conservative LP had input pending but nothing safe.
    blocked_polls: int = 0
    #: Global deadlock-recovery rounds (lookahead-free conservative).
    deadlock_recoveries: int = 0
    #: GVT computations performed.
    gvt_rounds: int = 0
    #: State snapshots taken.
    snapshots: int = 0
    #: Snapshots reclaimed by fossil collection.
    fossils_collected: int = 0
    #: LP mode switches performed by the dynamic adaptation.
    mode_switches: int = 0
    #: Withheld sends (crash recovery) a re-execution regenerated
    #: identically (reused in place: neither resent nor cancelled).
    withheld_reused: int = 0
    #: Events re-executed during coast-forward (interval checkpointing:
    #: a rollback lands on the nearest earlier snapshot and silently
    #: replays forward to the target state).
    coast_forward_events: int = 0
    #: Peak simultaneous speculative (uncommitted) event log entries —
    #: the memory the paper says optimism "demands huge amounts" of.
    peak_speculative: int = 0
    #: Final GVT / furthest committed virtual time.
    final_time: VirtualTime = ZERO

    # -- delivery-fabric counters (repro.fabric) -----------------------
    #: Remote messages handed to the fabric (unique sends, not copies).
    fabric_sent: int = 0
    #: Transmission attempts lost by the fault plan.
    dropped: int = 0
    #: Transmissions the fault plan duplicated.
    duplicated: int = 0
    #: Copies that took an overtaking (non-FIFO) detour.
    reordered: int = 0
    #: Timeout-driven retransmissions performed by the reliable layer.
    retransmitted: int = 0
    #: Copies discarded by receiver-side duplicate suppression.
    dedup_dropped: int = 0
    #: Copies parked in receiver reorder buffers awaiting a gap fill.
    reorder_buffered: int = 0
    #: Acknowledgements processed by senders.
    acks: int = 0
    #: Redundant post-recovery cancellations suppressed at the sender.
    suppressed_resends: int = 0
    #: Processor crashes injected.
    crashes: int = 0
    #: Successful crash-recoveries (checkpoint restore + replay).
    recoveries: int = 0
    #: Events replayed from peers' output journals during recovery.
    replayed: int = 0

    # -- multiprocess-backend counters (repro.parallel.procs) ----------
    #: Inter-process envelopes sent (batches + acks; serialization
    #: boundary crossings, the quantity batching amortizes).
    ipc_batches: int = 0
    #: Events shipped inside those batches (ipc_events / ipc_batches is
    #: the achieved amortization factor).
    ipc_events: int = 0
    #: Token-ring circulations completed (each is one Mattern GVT wave;
    #: only a subset commits a new GVT, counted in ``gvt_rounds``).
    token_waves: int = 0
    #: Bounded optimism (``WorkerCore``; zero on modelled runs):
    #: ``act()`` calls declined because the lowest ready head lay
    #: beyond the worker's ``GVT + delta`` execution window.
    window_stalls: int = 0
    #: Commits at which a worker narrowed its window, and commits at
    #: which it widened it.
    window_shrinks: int = 0
    window_grows: int = 0
    #: Release floors a ring worker's sweep raised (docs/protocol.md
    #: §2); the modelled machine's sweep counts none.
    floors_raised: int = 0

    # -- network counters (repro.parallel.dist) ------------------------
    #: Bytes written to TCP sockets (frames, coordinator + workers).
    net_bytes_tx: int = 0
    #: Bytes read from TCP sockets.
    net_bytes_rx: int = 0
    #: Successful coordinator↔worker reconnections (each one exercised
    #: the custody/replay resync path).
    net_reconnects: int = 0
    #: Coordinator ping/pong round trips measured.
    net_rtt_samples: int = 0
    #: Sum of measured round-trip times, seconds (sum / samples is the
    #: mean RTT of the run).
    net_rtt_sum: float = 0.0
    #: Slowest observed round trip, seconds (max-folded by ``merge``).
    net_rtt_max: float = 0.0
    #: Durable-checkpoint uploads sent by workers (keyframes + deltas).
    net_ckpt_frames: int = 0
    #: ... of which full images (first, post-attach, post-crash, rebase).
    net_ckpt_keyframes: int = 0
    #: Pickled bytes of those uploads.
    net_ckpt_bytes: int = 0

    # -- liveness counters (repro.resilience) --------------------------
    #: Virtual-time surface samples taken (one per observation point:
    #: GVT round on the modelled machine, token wave on the ring).
    vt_spread_samples: int = 0
    #: Sum over samples of the surface width (max - min local clock, in
    #: femtoseconds) — width_sum / samples is the mean Korniss
    #: surface roughness of the run.
    vt_spread_width_sum: int = 0
    #: Widest surface observed (max-folded by ``merge``).
    vt_spread_width_max: int = 0
    #: Watchdog progress probes performed.
    watchdog_probes: int = 0
    #: Stalls diagnosed by the watchdog (0 on any healthy run).
    watchdog_stalls: int = 0

    def __getstate__(self) -> dict:
        """Pickle only the counters that moved: a dist checkpoint
        upload carries two of these, a ``done`` frame one, and most of
        their fifty-odd fields are zero."""
        return {name: value for name, value in self.__dict__.items()
                if value != _FRESH[name]}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.__dict__.update(state)

    @property
    def efficiency(self) -> float:
        """Fraction of executed events that were ultimately useful."""
        if self.events_executed == 0:
            return 1.0
        return self.events_committed / self.events_executed

    def merge(self, other: "RunStats") -> None:
        """Fold another processor's counters into this one: every field
        sums, but the peaks in :data:`_MAXED` take the maximum."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _SUMMED:
            mine[name] += theirs[name]
        for name in _MAXED:
            if theirs[name] > mine[name]:
                mine[name] = theirs[name]

    def ipc_summary(self) -> str:
        """One-line digest of the multiprocess-backend IPC counters."""
        per = (self.ipc_events / self.ipc_batches
               if self.ipc_batches else 0.0)
        return (f"envelopes={self.ipc_batches} events={self.ipc_events} "
                f"(avg {per:.1f}/envelope) waves={self.token_waves} "
                f"commits={self.gvt_rounds} "
                f"window_stalls={self.window_stalls} "
                f"(-{self.window_shrinks}/+{self.window_grows}) "
                f"floors_raised={self.floors_raised}")

    def liveness_summary(self) -> str:
        """One-line digest of the liveness/spread instrumentation."""
        mean = (self.vt_spread_width_sum / self.vt_spread_samples
                if self.vt_spread_samples else 0.0)
        return (f"spread_samples={self.vt_spread_samples} "
                f"width_mean={mean:.1f}fs "
                f"width_max={self.vt_spread_width_max}fs "
                f"probes={self.watchdog_probes} "
                f"stalls={self.watchdog_stalls}")

    def fabric_summary(self) -> str:
        """One-line digest of the delivery-fabric counters."""
        return (f"sent={self.fabric_sent} dropped={self.dropped} "
                f"dup={self.duplicated} reordered={self.reordered} "
                f"retransmitted={self.retransmitted} "
                f"dedup={self.dedup_dropped} acks={self.acks} "
                f"crashes={self.crashes} recoveries={self.recoveries} "
                f"replayed={self.replayed}")

    def net_summary(self) -> str:
        """One-line digest of the distributed-backend network counters."""
        mean_ms = (1e3 * self.net_rtt_sum / self.net_rtt_samples
                   if self.net_rtt_samples else 0.0)
        return (f"tx={self.net_bytes_tx}B rx={self.net_bytes_rx}B "
                f"reconnects={self.net_reconnects} "
                f"rtt_mean={mean_ms:.2f}ms "
                f"rtt_max={1e3 * self.net_rtt_max:.2f}ms "
                f"ckpt={self.net_ckpt_frames} uploads "
                f"({self.net_ckpt_keyframes} keyframes) "
                f"{self.net_ckpt_bytes}B")

    def summary(self) -> str:
        return (f"committed={self.events_committed} "
                f"executed={self.events_executed} "
                f"rollbacks={self.rollbacks} "
                f"antimsgs={self.antimessages} "
                f"nulls={self.null_messages} "
                f"deadlock_recoveries={self.deadlock_recoveries} "
                f"mode_switches={self.mode_switches} "
                f"efficiency={self.efficiency:.3f}")


#: What ``__getstate__`` leaves out: the fields of a fresh instance.
_FRESH = RunStats().__dict__
#: What ``merge`` folds by maximum, and what it sums.
_MAXED = ("peak_speculative", "final_time", "net_rtt_max",
          "vt_spread_width_max")
_SUMMED = tuple(name for name in _FRESH if name not in _MAXED)
