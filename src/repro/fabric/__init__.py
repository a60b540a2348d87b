"""Unreliable delivery fabric: fault injection, reliable delivery,
crash-recovery.

The synchronization protocols in :mod:`repro.parallel` assume
exactly-once, in-order (per-link FIFO) message delivery.  This package
lets both parallel backends run over a network that violates every one
of those assumptions — seeded drops, duplicates, overtaking copies,
latency noise, even whole-processor crashes — while a reliable-delivery
layer (sequence numbers, acks, timeout retransmission, receiver-side
dedup/reorder buffers) re-establishes the guarantee underneath, so
committed simulation results stay identical to the sequential engine.

Public surface:

* :class:`FaultPlan` / :func:`parse_fault_plan` — what the network does.
* :class:`PerfectFabric` / :class:`ReliableFabric` — how messages move.
* :func:`install_jitter` — convenience: seeded latency noise on a
  machine built with default arguments.
* :func:`checkpoint_processor` / :func:`restore_processor` — durable
  processor images used by crash-recovery.
"""

from .plan import (FaultPlan, LinkFaults, parse_fault_plan,
                   plan_from_dict)
from .recovery import (ProcessorCheckpoint, checkpoint_processor,
                       restore_processor)
from .transport import (Packet, PerfectFabric, ReliableFabric,
                        install_jitter)

__all__ = [
    "FaultPlan",
    "LinkFaults",
    "parse_fault_plan",
    "plan_from_dict",
    "Packet",
    "PerfectFabric",
    "ReliableFabric",
    "install_jitter",
    "ProcessorCheckpoint",
    "checkpoint_processor",
    "restore_processor",
]
