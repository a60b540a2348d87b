"""Reliable batched delivery for the worker ring.

Every :class:`~repro.parallel.backend.WorkerCore` worker — a thread, a
``multiprocessing`` process or a daemon on another host — ships events
to its peers as **batches**, one envelope per destination per
act-quantum, so the per-message cost of the transport (pickling, on
procs and dist) is amortized.  When a
:class:`~repro.fabric.plan.FaultPlan` is active, every event inside a
batch still needs the reliable-delivery guarantees the modelled
machine gets from :class:`~repro.fabric.transport.ReliableFabric`.
This module is the per-worker endpoint providing them:

* **the link state machine** of :mod:`repro.fabric.link` — per-link
  sequence numbers, output journal, unacked map, dedup and reorder
  buffers — the same one the modelled fabric drives, aged here by the
  GVT wave of a send's last transmission;
* **batch faults** — drop/duplicate/overtake injection drawn from the
  same seeded :class:`~repro.fabric.plan.LinkFaults` dice, in the same
  per-message order, as the modelled fabric (latency-valued faults
  have no meaning in real time and are realised as *overtakes*: an
  affected copy is held back on its link and posted after the link's
  next younger message, which exercises the same out-of-order arrival
  and receiver-side reorder buffering), with acknowledgements
  accumulated per batch and flushed as one ack envelope;
* **pump** — the ring has neither a model clock nor a global barrier,
  so retransmission is *token-driven*: at each
  GVT token visit, messages last transmitted two visits ago and still
  unacknowledged are re-posted (dice re-rolled, per-message drop
  budget capped, so delivery is eventually guaranteed);
* **crash support** — checkpoint marks (sender ``next_seq``, receiver
  ``expected`` floors) and the journal-window/replay helpers the
  backend's die/replay protocol is built from.  The journal, the
  unacked map and the sequence counters are *durable by construction*
  (the classic log-before-send assumption): a crash wipes the
  processor, not the message log.

The endpoint is single-owner state: each worker owns exactly one and
no other worker touches it — thread workers included — so no locks are
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.event import Event
from ..core.stats import RunStats
from .link import InLink, Item, OutLink, owed
from .plan import FaultPlan, LinkFaults


@dataclass
class _OutLink(OutLink):
    """The link's sender half plus what only a batch can do to it."""

    #: Copies held back to overtake the link's next younger traffic.
    holdback: List[Item] = field(default_factory=list)


class BatchedEndpoint:
    """One worker's reliable-delivery endpoint over batched IPC."""

    def __init__(self, plan: Optional[FaultPlan], index: int) -> None:
        self.plan = plan or FaultPlan()
        self.index = index
        self.stats = RunStats()
        #: Current GVT wave (the owner bumps it at each token visit);
        #: used to age unacked entries for the retransmit pump.
        self.wave = 0
        #: The link state machine (:mod:`.link`), aged by ``wave``.
        self._out: Dict[int, _OutLink] = {}
        self._in: Dict[int, InLink] = {}
        #: src worker -> seqs delivered since the last ack flush.
        self._acks_pending: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def _out_link(self, dst: int) -> _OutLink:
        link = self._out.get(dst)
        if link is None:
            link = _OutLink(LinkFaults(self.plan, (self.index, dst)))
            self._out[dst] = link
        return link

    def _in_link(self, src: int) -> InLink:
        link = self._in.get(src)
        if link is None:
            link = InLink()
            self._in[src] = link
        return link

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def encode(self, dst: int, events: Iterable[Event]) -> List[Item]:
        """Journal + fault-inject a flush of events into batch items."""
        link = self._out_link(dst)
        stats = self.stats
        items: List[Item] = []
        for event in events:
            seq = link.stage(event, self.wave, stats)
            if seq is None:
                continue
            held, link.holdback = link.holdback, []
            if link.faults.should_drop(seq):
                stats.dropped += 1
                items.extend(held)
                continue
            copies = link.faults.copies()
            if copies > 1:
                stats.duplicated += 1
            for _ in range(copies):
                _extra, overtake = link.faults.extra_latency()
                if overtake:
                    stats.reordered += 1
                    link.holdback.append((seq, event))
                else:
                    items.append((seq, event))
            # Held copies go out *after* the current message: they have
            # been overtaken by younger traffic.
            items.extend(held)
        return items

    def ack(self, dst: int, seqs: Iterable[int]) -> None:
        """Process an ack envelope from ``dst`` for our sends to it."""
        link = self._out_link(dst)
        for seq in seqs:
            link.acked(seq, self.stats)

    def pump(self, wave: int) -> Dict[int, List[Item]]:
        """Token-visit retransmission: items to re-post, per destination.

        Re-posts every holdback copy and every unacked message last
        transmitted **two** token visits ago or earlier (``wave - 2``
        or older).  One visit is not enough on a ring: a batch that
        leaves after the token was forwarded is acked *behind* that
        token, so the ack reaches us after the token's next visit by
        construction — one-visit ageing retransmits a third of a
        fault-free run, every copy then deduplicated.  Under a drop
        plan a lost message is re-sent one wave later, never lost.
        Drop dice are re-rolled per attempt; the per-message budget
        bounds how often the plan may keep losing one message.
        """
        posts: Dict[int, List[Item]] = {}
        for dst, link in self._out.items():
            items = link.holdback
            link.holdback = []
            for seq in sorted(link.unacked):
                event, sent_wave = link.unacked[seq]
                if sent_wave >= wave - 1:
                    continue  # its ack may still trail the token
                if link.faults.should_drop(seq):
                    self.stats.dropped += 1
                    link.unacked[seq] = (event, wave)
                    continue
                self.stats.retransmitted += 1
                link.unacked[seq] = (event, wave)
                items.append((seq, event))
            if items:
                posts[dst] = items
        return posts

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def decode(self, src: int, items: Iterable[Item]) -> List[Event]:
        """Unwrap one batch from ``src`` into in-order deliverable events."""
        link = self._in_link(src)
        stats = self.stats
        acks = self._acks_pending.setdefault(src, [])
        out: List[Event] = []
        for seq, event in items:
            acks.append(seq)  # ack every copy so the sender's map clears
            out.extend(link.accept(seq, event, stats))
        return out

    def take_acks(self) -> Dict[int, List[int]]:
        """Collect (and clear) the pending acks, per source worker."""
        acks, self._acks_pending = self._acks_pending, {}
        return acks

    # ------------------------------------------------------------------
    # GVT / termination support
    # ------------------------------------------------------------------
    def pending_events(self) -> Iterator[Event]:
        """Events this endpoint still owes the protocol.

        Unacked copies (the only surviving copy of a dropped message
        lives here), reorder-parked arrivals and holdback copies all
        pin the local GVT contribution.
        """
        yield from owed(self._out.values(), self._in.values())
        for link in self._out.values():
            for _seq, event in link.holdback:
                yield event

    def quiet(self) -> bool:
        """True when no link owes a delivery or an acknowledgement."""
        return not self._acks_pending \
            and next(self.pending_events(), None) is None

    # ------------------------------------------------------------------
    # Crash-recovery support
    # ------------------------------------------------------------------
    def checkpoint_marks(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """(sender next_seq per dst, receiver expected per src)."""
        return ({dst: link.next_seq for dst, link in self._out.items()},
                {src: link.expected for src, link in self._in.items()})

    def journal_tail(self, marks: Dict[int, int]) -> "BatchedEndpoint":
        """The endpoint as a *delta* checkpoint upload pickles it.

        Each out-link carries only the journal entries appended since
        ``marks`` (the sender ``next_seq`` marks of the previous
        upload) — the journal is append-only, so :meth:`adopt_journal`
        on the restoring side puts the rest back.  Everything else
        (unacked, in-links, ``spent_anti``, holdback) is small and
        mutable and rides whole.  The copy shares its containers with
        the live endpoint: pickle it, do not use it.
        """
        clone = BatchedEndpoint.__new__(BatchedEndpoint)
        clone.__dict__.update(self.__dict__)
        clone._out = {}
        for dst, link in self._out.items():
            clone._out[dst] = replace(
                link, journal=link.window(marks.get(dst, 0)))
        return clone

    def adopt_journal(self, older: "BatchedEndpoint") -> None:
        """Fold: put back the journal entries a :meth:`journal_tail`
        left with the upload before it."""
        for dst, link in older._out.items():
            link.journal.update(self._out[dst].journal)
            self._out[dst].journal = link.journal

    def rewind_receiver(self, floors: Dict[int, int]) -> None:
        """Crash: rewind delivery horizons to the checkpoint floors.

        Everything at or above a floor will be redelivered — by peers'
        journal replay and by still-queued envelopes — and reassembled
        in order through the normal buffer path.
        """
        for src, link in self._in.items():
            link.rewind(floors.get(src, 0))
        self._acks_pending.clear()

    def sender_window(self, dst: int, base: int) -> List[Event]:
        """Journalled sends to ``dst`` from seq ``base`` onwards.

        This is the dead incarnation's post-checkpoint output: the
        restored replay reconciles it through the withheld-send path
        (reuse what it regenerates, cancel what it abandons).
        """
        return list(self._out_link(dst).window(base).values())

    def mark_spent_anti(self, dst: int, eids) -> None:
        self._out_link(dst).spent_anti |= set(eids)

    def replay_for(self, dst: int, floor: int) -> List[Item]:
        """Peer-side recovery: re-post journalled sends from ``floor``.

        Entries may already have been delivered and acked — the crashed
        receiver rewound below them, so they count as owed again and
        re-enter the unacked map until re-acknowledged.
        """
        items = self._out_link(dst).replay(floor, self.wave)
        self.stats.replayed += len(items)
        return items
