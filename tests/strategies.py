"""Shared hypothesis strategies and netlist builders for the test suite.

Every property-based file used to carry its own copy of the same
scaffolding: the hypothesis ``settings`` profile that disables the
deadline (parallel runs have wildly variable latency), the seed
strategies, the protocol/partition enumerations, and the small random
netlist the properties run through all the engines.  They live here
once so the fuzzing campaign, the conformance properties and the
equivalence properties all speak about the same scenario space.
"""

from hypothesis import HealthCheck, settings, strategies as st

from repro.circuits import build_random
from repro.circuits.random_logic import TOPOLOGY_SPACE
from repro.core.event import Event, EventKind
from repro.core.model import SyncMode
from repro.core.vtime import INFINITY, VirtualTime
from repro.fabric import FaultPlan

from tests.test_parallel_engine import build, ev

#: All synchronization protocols of the modelled machine.
PROTOCOLS = ("optimistic", "conservative", "mixed", "dynamic")

#: Protocols every backend supports (threads/procs reject "dynamic").
STATIC_PROTOCOLS = ("optimistic", "conservative", "mixed")

#: LP-to-processor partitioning schemes.
PARTITIONS = ("round_robin", "block", "bfs")

#: Small circuits: property tests run each example through several
#: engines, so the netlist must stay cheap.
SMALL_BUILD = dict(gates=10, registers=3, stimulus_bits=2, cycles=3)

#: The acceptance-level fault plan: >=5% drop, >=2% dup, non-FIFO.
HOSTILE = dict(drop=0.08, duplicate=0.03, reorder=0.2, jitter=1.0)

#: Seed space shared by circuit/schedule/jitter seeds.
seeds = st.integers(0, 10**6)

#: Smaller seed space for expensive examples (threads, fault sweeps).
small_seeds = st.integers(0, 10**4)

protocols = st.sampled_from(PROTOCOLS)
static_protocols = st.sampled_from(STATIC_PROTOCOLS)
partitions = st.sampled_from(PARTITIONS)

#: Random-netlist topology parameter sets, drawn from the *same*
#: discrete space the fuzzing campaign samples
#: (:data:`repro.circuits.random_logic.TOPOLOGY_SPACE`): one space,
#: two samplers, so property tests and ``repro fuzz`` explore
#: identical circuit families.
topologies = st.fixed_dictionaries({
    axis: st.sampled_from(choices)
    for axis, choices in TOPOLOGY_SPACE.items()})

#: Seeded fault plans drawn from the hostile corner of the plan space.
fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 10**6),
    drop=st.sampled_from([0.0, 0.05, 0.08]),
    duplicate=st.sampled_from([0.0, 0.03]),
    reorder=st.sampled_from([0.0, 0.1, 0.2]),
    jitter=st.sampled_from([0.0, 1.0, 2.0]),
)


def prop_settings(max_examples, **overrides):
    """The suite-wide hypothesis profile: no deadline, slowness OK."""
    overrides.setdefault("deadline", None)
    overrides.setdefault("suppress_health_check",
                         [HealthCheck.too_slow])
    return settings(max_examples=max_examples, **overrides)


def small_random_design(seed):
    """A fresh small random synchronous netlist (same shape per seed)."""
    return build_random(seed, **SMALL_BUILD).design


# ----------------------------------------------------------------------
# Arbitrary interleavings on one bare processor
# ----------------------------------------------------------------------
#: Two runtimes that can never block, one conservative, one dynamic,
#: forwarding in a ring 0 -> 1 -> 2 -> 3 -> 0 on one processor.
RING = [SyncMode.OPTIMISTIC, SyncMode.OPTIMISTIC, SyncMode.CONSERVATIVE,
        SyncMode.DYNAMIC]

#: One step of :class:`RingInterleaving`, as ``(op, a, b)``.
ring_steps = st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 3), st.integers(0, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 40), st.just(0)),
    # An antimessage that overtakes its positive, and the positive later.
    st.tuples(st.just("orphan"), st.integers(0, 1), st.integers(0, 12)),
    st.tuples(st.just("adopt"), st.just(0), st.just(0)),
    # A crashed incarnation's journalled send, withheld on recovery.
    st.tuples(st.just("withhold"), st.integers(0, 3), st.integers(0, 12)),
    st.tuples(st.just("null"), st.integers(0, 3), st.integers(0, 12)),
    st.tuples(st.just("act"), st.integers(1, 6), st.just(0)),
    st.tuples(st.just("gvt"), st.just(0), st.just(0)),
    # Move the execution window to GVT + a (a < 0: unbounded again).
    st.tuples(st.just("window"), st.integers(-1, 8), st.just(0)),
)


def gvt_round(proc):
    """What a machine's GVT round does to one processor."""
    low = proc.local_min_time()
    for event in proc.local_fifo:
        low = min(low, event.time)
    if low != INFINITY and low > proc.gvt_bound:
        proc.gvt_bound = low
    proc.flush_withheld_all(proc.gvt_bound)
    proc.drain_local()
    proc.fossil_collect(proc.gvt_bound)
    proc.rearm_blocked()


class RingInterleaving:
    """The :data:`RING` processor driven one ``ring_steps`` step at a
    time: deliveries, antimessages (rollbacks), overtaking
    antimessages, crash-recovery withheld sends, NULLs, executions, GVT
    rounds and moves of the execution window (what ``WorkerCore`` does
    at a commit)."""

    def __init__(self):
        self.proc, _lps, self.runtimes, _sent = build(
            RING, targets={0: 1, 1: 2, 2: 3, 3: 0})
        self.proc.route = self.proc.local_fifo.append
        self.delivered = []  # positives sent to runtimes that can roll back
        self.overtaken = []  # positives whose antimessage went first
        self.seq = 0

    def step(self, op, a, b):
        proc = self.proc
        # Never deliver below the commit horizon (a machine cannot).
        base = max(proc.gvt_bound[0], 0)
        if op == "deliver":
            self.seq += 1
            event = ev(a, base + b, payload=self.seq, seq=self.seq)
            if a < 2:
                self.delivered.append(event)
            proc.deliver(event)
            proc.drain_local()
        elif op == "cancel" and self.delivered:
            event = self.delivered.pop(a % len(self.delivered))
            if event.time >= proc.gvt_bound:
                proc.deliver(event.antimessage())
                proc.drain_local()
        elif op == "orphan":
            self.seq += 1
            event = ev(a, base + b, payload=self.seq, seq=self.seq)
            self.overtaken.append(event)
            proc.deliver(event.antimessage())
        elif op == "adopt" and self.overtaken:
            proc.deliver(self.overtaken.pop(0))
        elif op == "withhold":
            # LP a crashed after executing an event and forwarding it:
            # the receiver holds the forward, the restored LP has the
            # event to run again, and recovery hands the journalled
            # forward back the way fabric.recovery.reconcile_outgoing
            # does — reused if regenerated, cancelled once passed.
            self.seq += 1
            event = ev(a, base + b, payload=self.seq, seq=self.seq)
            forward = ev((a + 1) % 4, base + b + 1, payload=self.seq,
                         src=a, seq=10**6 + self.seq, send_pt=base + b)
            if a < 2:
                self.delivered.append(event)
            proc.deliver(forward)
            proc.deliver(event)
            proc.drain_local()
            runtime = self.runtimes[a]
            if runtime.mode is SyncMode.CONSERVATIVE:
                runtime.reuse_pending.append(forward)
                proc.live.add(a)
            else:
                proc.withhold(runtime, forward)
        elif op == "null":
            proc.deliver(Event(time=VirtualTime(base + b, 0),
                               kind=EventKind.NULL, dst=a, src=(a - 1) % 4,
                               send_time=VirtualTime(base, 0)))
        elif op == "act":
            for _ in range(a):
                proc.act()
        elif op == "gvt":
            gvt_round(proc)
        elif op == "window":
            proc.window_end = None if a < 0 else base + a
