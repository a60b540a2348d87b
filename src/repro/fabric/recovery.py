"""Durable processor checkpoints and crash reconciliation.

A *durable checkpoint* of a processor is taken where its owner is
consistent by itself: the modelled machine (single-threaded) images
every processor at each global GVT round, a ring worker images its own
processor each time it applies a GVT commit.  A checkpoint captures
the processor's volatile protocol state — every LP's state (via the
existing ``snapshot``/``restore`` hooks of the checkpoint-interval
machinery), input queues, the Time-Warp processed log, channel
promises, adaptation counters and statistics.

Crashing a processor discards its live state; recovery restores the
latest checkpoint and then reconciles the survivor with the rest of the
world.  The incoming half (journal replay from the checkpoint's
delivery horizon) belongs to the driver — :mod:`repro.fabric.transport`
re-queues packets in model time, ``WorkerCore._crash`` asks its peers
with a ``recover`` notice.  The restore and the outgoing half are the
same everywhere and live here once: :func:`recover_processor`.

Non-checkpointable LPs (the paper's heavy-state processes) cannot be
durably saved either; attempting to checkpoint a processor hosting one
raises ``ProtocolError`` — crash-recovery requires a fully
checkpointable placement, exactly as in real PDES deployments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

from ..core.event import Event
from ..core.model import SyncMode
from ..core.stats import RunStats
from ..core.vtime import VirtualTime


@dataclass
class ProcessorCheckpoint:
    """Durable image of one processor's volatile state."""

    clock: float
    gvt_bound: VirtualTime
    local_fifo: List[Any]
    ready: List[tuple]
    blocked: Set[int]
    stats: RunStats
    #: lp id -> that runtime's ``LPRuntime.image()``.
    runtimes: Dict[int, tuple] = field(default_factory=dict)
    #: Ids whose runtime image was captured for *this* checkpoint; the
    #: rest are the previous checkpoint's objects.  ``None``: all of
    #: them (a full image).  Bookkeeping about how the image was built,
    #: not part of what it says — two images of one state are equal.
    changed: Optional[Set[int]] = field(default=None, compare=False)


def checkpoint_processor(proc, previous: Optional[ProcessorCheckpoint] = None,
                         ) -> ProcessorCheckpoint:
    """Capture a processor's volatile state at a consistent global point.

    In-flight fabric traffic is deliberately *not* part of the image:
    the reliable layer's per-link journals reconstruct it during
    recovery (sender-side replay), which is what makes the checkpoint a
    purely local object.

    Given ``previous`` — the image this function last returned for
    ``proc`` (anything else is ignored) — only the runtimes in
    ``proc.touched``, everything that can have changed since, are
    captured again; the others' images are *shared* with ``previous``
    (a runtime image is never mutated: ``LPRuntime.restore`` copies
    every container out).  Without it, or after a restore, every
    runtime is captured.
    """
    copies = proc.copies
    ckpt = ProcessorCheckpoint(
        clock=proc.clock,
        gvt_bound=proc.gvt_bound,
        local_fifo=list(proc.local_fifo),
        ready=sorted(entry for entry in proc.ready
                     for _ in range(copies.get(entry, 1))),
        blocked=set(proc.blocked),
        stats=replace(proc.stats),
    )
    if previous is None or previous is not proc.imaged:
        ids: Iterable[int] = proc.runtimes
    else:
        ids = ckpt.changed = proc.touched
        ckpt.runtimes = dict(previous.runtimes)
    for lp_id in ids:
        ckpt.runtimes[lp_id] = proc.runtimes[lp_id].image()
    proc.imaged = ckpt
    proc.touched = set(proc.live)
    return ckpt


def restore_processor(proc, ckpt: ProcessorCheckpoint) -> None:
    """Overwrite a processor's volatile state with a checkpoint image.

    The crashed processor's inbox (in-flight remote copies) is cleared:
    everything under way is re-created by the peers' journal replay.
    ``cons_epoch`` handling is the caller's job — it must be bumped past
    the crash-time value so stale channel promises held by receivers can
    never collide with post-recovery conservative phases.

    The readiness bookkeeping derived from the image is rebuilt, not
    stored: ``live`` from what each restored runtime holds, the ready
    heap and its ``copies`` from the image's multiset of entries (one
    per poll of a blockable runtime; those of any other runtime are
    distinct by construction), ``armed`` from the heap.  ``imaged`` is
    dropped: the caller goes on to bump every epoch, so the next
    checkpoint is a full one.
    """
    proc.clock = ckpt.clock
    proc.gvt_bound = ckpt.gvt_bound
    proc.local_fifo = deque(ckpt.local_fifo)
    proc.inbox = []
    proc.ready = sorted(set(ckpt.ready))
    proc.copies = {}
    for entry in ckpt.ready:
        if proc.runtimes[entry[1]].blockable:
            proc.copies[entry] = proc.copies.get(entry, 0) + 1
    proc.blocked = set(ckpt.blocked)
    proc.stats = replace(ckpt.stats)
    for lp_id, image in ckpt.runtimes.items():
        runtime = proc.runtimes[lp_id]
        runtime.restore(image)
        runtime.armed = []
    proc.live = {lp_id for lp_id, runtime in proc.runtimes.items()
                 if not runtime.idle()}
    proc.imaged = None
    for key, lp_id in sorted(proc.ready, reverse=True):
        runtime = proc.runtimes[lp_id]
        if not runtime.blockable:
            runtime.armed.append(key)


#: Per outgoing link: the journalled sends since the checkpoint, and
#: what marks antimessage ids as already on the wire.
Links = Iterable[Tuple[List[Event], Callable[[Set[Any]], None]]]


def recover_processor(proc, ckpt: ProcessorCheckpoint, gvt: VirtualTime,
                      links: Links, restored: Callable[[], None]) -> None:
    """The crash restore of every machine: overwrite ``proc`` with its
    durable checkpoint ``ckpt``, resume at commit horizon ``gvt``, bump
    every conservative epoch past the image's and the crash-time value
    (stale promises held by receivers must never collide with
    post-recovery ones) and reconcile the dead incarnation's output,
    which may route antimessages.  ``restored`` runs right after the
    restore: what the caller restarts from the image (the model's
    release-floor sweep, a ring worker's execution window).
    """
    pre_epochs = {lp_id: runtime.cons_epoch
                  for lp_id, runtime in proc.runtimes.items()}
    restore_processor(proc, ckpt)
    restored()
    proc.gvt_bound = gvt
    for lp_id, runtime in proc.runtimes.items():
        runtime.cons_epoch = max(pre_epochs.get(lp_id, 0),
                                 runtime.cons_epoch) + 1
    reconcile_outgoing(proc, links)


def reconcile_outgoing(proc, links: Links) -> None:
    """Feed the dead incarnation's journalled post-checkpoint output
    back into the restored processor ``proc``.

    ``links`` holds one ``(window, mark_spent)`` pair per outgoing link:
    the sends journalled on it since the restored checkpoint, in send
    order, and the callable that tells the link which antimessage ids
    are already on the wire.  The window feeds the withheld-send path
    (``Processor.withhold``): regenerated messages are reused in place,
    abandoned ones are cancelled, and journalled antimessages suppress
    one re-send.
    """
    cancelled_since: Set[Any] = set()
    for window, mark_spent in links:
        # Eid ratchet: every windowed send is world-visible, but a
        # checkpoint restored into a fresh process (dist) rewinds
        # each LP's eid counter to its checkpoint mark.  Re-minting
        # a windowed seq would pair a *different* message with an
        # already-journalled eid — and the eventual antimessage
        # would annihilate the wrong one.  (In-process crashes keep
        # the live counters, which are already past the window:
        # the max() is a no-op there.)
        for event in window:
            if event.eid is None:
                continue
            minter = proc.runtimes.get(event.eid.src)
            if minter is not None and \
                    event.eid.seq > minter.lp._seq:
                minter.lp._seq = event.eid.seq
        anti_eids = {e.eid for e in window if e.sign < 0}
        if anti_eids:
            mark_spent(anti_eids)
            # Cancelled in the window but sent before it: the
            # restored log still claims these (see below).
            cancelled_since |= anti_eids - {
                e.eid for e in window if e.sign > 0}
        for event in window:
            if (event.sign > 0 and not event.is_null
                    and event.eid not in anti_eids):
                runtime = proc.runtimes.get(event.src)
                if runtime is None:
                    continue
                if runtime.mode is SyncMode.CONSERVATIVE:
                    # A conservative LP never rolls back, so the
                    # restored replay re-executes the same committed
                    # inputs and deterministically regenerates this
                    # send: the entry exists only to suppress the
                    # duplicate, it can never become an antimessage.
                    # It therefore must NOT go through withheld:
                    # pinning the cancellation horizon at its own
                    # timestamp would block the very conservative
                    # execution whose re-send it is waiting to
                    # match, and with GVT already at that timestamp
                    # no flush ever breaks the tie (the conservative
                    # crash-recovery self-deadlock).
                    runtime.reuse_pending.append(event)
                    proc.live.add(event.src)
                    continue
                # Each injected entry is an outstanding
                # cancellation: withhold() lowers the horizon so
                # no conservative LP commits at its timestamp
                # before the squash-or-cancel decision lands.
                proc.withhold(runtime, event)
    # The receivers annihilated those positives; the antimessages
    # this repeats are the ones just marked spent.
    proc.rollback_sends(cancelled_since)
