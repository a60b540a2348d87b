"""The worker ring: one real worker per processor on a token ring.

One per-processor engine (:mod:`.engine`) runs on two kinds of machine,
which build it with the same :func:`~.engine.build_engine` and commit,
restore and cancel through the same engine and recovery calls — they
supply only transport and clock:

* the **modelled** machine (:mod:`.machine`) — deterministic
  co-simulation in model time, the benchmark instrument;
* the **worker ring** (:class:`WorkerCore`, here) — one real worker
  per processor on an asynchronous token ring, over three transports:
  in-process inboxes between workers that take turns in one thread
  (:mod:`.threads`, the deterministic demonstration), a mesh of
  one-way pipes between worker processes (:mod:`.procs`, the
  wall-clock-speedup backend), and asyncio/TCP between hosts
  (:mod:`.dist`).  The ring never constructs
  the modelled machine.

What lives here once for all three transports:

* **The whole worker loop** (:class:`WorkerCore`): act quanta, batched
  flushes, the pipelined Mattern token ring, the cancellation horizon,
  fabric pump/checkpoint cadence and crash recovery.  The threads,
  procs and dist backends differ *only* in how an envelope physically
  reaches a peer and in who resumes a worker's turns (the loop yields
  once per turn), so the loop lives here once, parameterized over
  three transport hooks (:meth:`WorkerCore._send_envelope`,
  :meth:`WorkerCore._recv_envelope`, :meth:`WorkerCore._emit_result`).
* **The description of a ring run** (:class:`RingSpec`) and what is
  done with one wherever the worker lives: validate it, build the
  engine from it (``WorkerCore.__init__``), ship the model beside it
  (:func:`pristine_payload`), and fold the workers' reports or fail
  with their partial stats (:func:`harvest`).

:class:`BackendOutcome` is the one result shape of all three, so
callers treat any backend's stats/GVT uniformly.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..config import RingSpec
from ..core.event import Event
from ..core.stats import RunStats
from ..core.vtime import INFINITY, MINUS_INFINITY, VirtualTime
from ..fabric.batched import BatchedEndpoint
from ..fabric.recovery import checkpoint_processor, recover_processor
from ..resilience import (DEFAULT_WALL_S, WallClockWatchdog, build_report,
                          resolve_watchdog)
from .engine import (Engine, LPRuntime, Processor, ProtocolError,
                     build_engine, proc_has_work, stamp_epoch)
from .floors import ReleaseFloors

#: Event executions per act quantum, between flushes.
QUANTUM = 64


@dataclass
class BackendOutcome:
    """Result shape shared by the real-concurrency backends."""

    stats: RunStats
    gvt: VirtualTime
    processors: int
    gvt_rounds: int
    #: Token-ring circulations completed (Mattern waves).
    waves: int = 0
    #: Wall-clock duration of the run, first worker started to harvest.
    wall_time_s: float = 0.0


def pristine_payload(model, partition) -> bytes:
    """Pickle ``model`` for workers that cannot inherit it (spawned or
    remote).  Taken *before* an engine build seeds init events, so a
    worker's own build — same spec, same deterministic partitioner —
    reproduces exactly the engine a forked worker inherits.  What
    cannot be shipped is said here, not by a worker that hangs."""
    try:
        pickle.dumps(partition, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as failure:
        raise ValueError(
            f"cannot ship this partition to spawned or remote workers "
            f"({failure}); use a named partitioner, a placement dict or "
            f"a module-level partitioner function (or, on procs, "
            f"start_method='fork')") from failure
    try:
        return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as failure:
        raise RuntimeError(
            f"model is not picklable ({failure}), which spawned and "
            f"remote workers require; make process bodies module-level "
            f"callables (see repro.circuits.bodies) (or, on procs, use "
            f"start_method='fork')") from failure


def harvest(machine, results: Dict[int, tuple], error: Optional[tuple],
            wall_time_s: float, net: Optional[RunStats] = None):
    """The parent side's last step on every ring backend.

    Unless every worker of ``machine`` reported ``done``, raise
    :class:`ProtocolError` — with the partial stats of those heard
    from, and the stall report if one was diagnosed.  Otherwise fold
    the reports into one outcome and pull the final LP states back into
    the caller's model, so results are read (e.g. the VHDL kernel's
    trace collection) exactly as after a run on any other backend.
    """
    spec, backend = machine.spec, machine.backend_name
    stats = RunStats()
    for index in sorted(results):
        stats.merge(results[index][2])
    if net is not None:
        stats.merge(net)
    if error is not None or len(results) < spec.processors:
        if error is not None:
            if error[3] is not None:
                stats.merge(error[3])
            failure = ProtocolError(
                f"{backend} worker {error[1]} failed: {error[2]}")
            if len(error) > 4 and error[4] is not None:
                failure.stall_report = error[4]
        else:
            missing = sorted(set(range(spec.processors)) - set(results))
            failure = ProtocolError(
                f"{backend} run exceeded its {spec.timeout_s:g}s "
                f"deadline; workers {missing} never completed")
        failure.partial_stats = stats
        raise failure
    gvt = MINUS_INFINITY
    waves = commits = 0
    for _tag, _i, _stats, lp_states, wgvt, wwaves, wcommits \
            in results.values():
        gvt = max(gvt, wgvt)
        waves = max(waves, wwaves)
        commits = max(commits, wcommits)
        for lp_id, (now, attrs) in lp_states.items():
            lp = machine.model.lps[lp_id]
            lp.now = now
            for attr, value in attrs.items():
                setattr(lp, attr, value)
    return BackendOutcome(
        stats=stats, gvt=gvt, processors=spec.processors,
        gvt_rounds=commits, waves=waves, wall_time_s=wall_time_s)


def fresh_token(wave: int, commit: Optional[VirtualTime],
                floor: VirtualTime = INFINITY,
                settled: bool = False, stalled: bool = False,
                notes: Optional[dict] = None) -> dict:
    """A blank Mattern token for the next wave (see :class:`WorkerCore`);
    ``notes`` are the release-floor notes the completed wave carried."""
    return {"wave": wave, "low": INFINITY, "sent": {}, "recv": {},
            "busy": False, "commit": commit,
            # Stall breaker: "moved" collects whether any worker made
            # progress since its previous cut; "stalled" is the
            # initiator's verdict on the completed wave (see
            # WorkerCore._initiate) and tells every worker to flush
            # withheld cancellations inclusive of GVT.
            "moved": False, "stalled": stalled,
            # Liveness additions (PR 6): "anti_low" accumulates each
            # worker's min outstanding-cancellation time at its cut;
            # "floor" carries the committed global cancellation horizon
            # alongside the GVT commit; "settled" tells workers the
            # previous wave's channel counts matched exactly (nothing in
            # flight), letting them prune their anti buckets one wave
            # earlier; "vt_min"/"vt_max" accumulate the per-LP clock
            # surface for the Korniss roughness signal.
            "anti_low": INFINITY, "floor": floor, "settled": settled,
            "vt_min": None, "vt_max": None,
            # Release floors (docs/protocol.md §2): worker -> its note
            # (B of its cut-edge sources, what it owes each remote LP,
            # its send counts when it took the note).  A worker
            # overwrites its own entry at each visit.
            "notes": {} if notes is None else notes}


def fold_images(chain: List[dict]) -> dict:
    """``[keyframe, delta, ...]`` (:meth:`WorkerCore._durable_image`)
    -> the image the last element stands for, taken in one piece.

    A delta overrides everything but the two parts it leaves out:
    runtime images overlay the older ones, journals are united.
    """
    image = chain[0]
    for delta in chain[1:]:
        delta["ckpt"].runtimes = {**image["ckpt"].runtimes,
                                  **delta["ckpt"].runtimes}
        delta["endpoint"].adopt_journal(image["endpoint"])
        image = delta
    return image


class WorkerCore:
    """The transport-agnostic worker: one processor on the token ring.

    Everything protocol — the act-quantum loop, batched flushes through
    an optional :class:`~repro.fabric.batched.BatchedEndpoint`, the
    pipelined Mattern token-ring GVT with two-cut channel counts, the
    cancellation horizon, checkpoint cadence and crash recovery — lives
    here once, shared by the threads, procs and dist backends.  A
    concrete backend supplies the physical transport:

    * :meth:`_send_envelope` — ship one envelope to a peer worker;
    * :meth:`_recv_envelope` — next inbound envelope (or ``None``);
    * :meth:`_emit_result` — deliver a done/error message upstream.

    and is constructed, like every ring machine, from a model and a
    :class:`RingSpec`.

    **Envelope format.**  Counted envelopes — anything that enters the
    ring's per-channel send/receive counts, i.e. everything except the
    token and the stop — travel wrapped as ``("c", src, n, inner)``
    where ``n`` is the sender's cumulative count for that channel.  On
    a lossless transport (in-process inboxes, pipes) the stamp is
    redundant: FIFO delivery makes the receiver's max-update identical
    to counting arrivals.  On a lossy transport (a dropped TCP
    connection) it is what keeps the two-cut argument honest: a lost
    envelope leaves a count *gap*, not a permanently frozen deficit —
    the next envelope on the channel (a fabric retransmission, a
    regenerated ack, a recovery notice) raises the receiver's count to
    the sender's, and the channel can settle again.  The lost *content*
    is recovered by the fabric layer (unacked map + token-driven pump;
    acks are regenerated on dedup re-receipt), never by the stamp.
    """

    def __init__(self, model, spec: RingSpec) -> None:
        self.spec = spec
        self.plan = spec.fault_plan
        self.recovery = spec.recovers
        self.use_fabric = (self.plan is not None
                           and (self.plan.faulty or self.recovery))
        self.watchdog_bound = float(
            resolve_watchdog(spec.watchdog_s, DEFAULT_WALL_S))
        # Every worker's engine, from (model, spec) alone: a worker that
        # builds from the pristine model gets what a forked one inherits.
        self.engine: Engine = build_engine(
            model, spec.processors, spec.protocol, spec.partition,
            until=spec.until)
        self.model = self.engine.model

    # -- transport hooks (concrete backends override) -------------------
    def _send_envelope(self, target: int, envelope: tuple) -> None:
        raise NotImplementedError

    def _recv_envelope(self, block_s: float):
        """Next inbound envelope; ``None`` on timeout/empty."""
        raise NotImplementedError

    def _emit_result(self, message: tuple) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _setup_worker(self, index: int) -> None:
        engine = self.engine
        self._index = index
        self._crash_schedule = self.spec.crashes
        self._proc: Processor = engine.procs[index]
        self._runtimes: Dict[int, LPRuntime] = engine.runtimes
        self._placement: Dict[int, int] = engine.placement
        self._net = RunStats()        # transport counters (crash-durable)
        self._outbox: Dict[int, List[Event]] = {
            i: [] for i in range(self.spec.processors) if i != index}
        self._sent_to: Dict[int, int] = {}
        self._recv_from: Dict[int, int] = {}
        self._send_min: VirtualTime = INFINITY
        self._progressed = False
        self._gvt: VirtualTime = MINUS_INFINITY
        self._held_token: Optional[dict] = None
        self._completed_token: Optional[dict] = None
        self._last_token_out: Optional[dict] = None
        self._stop_info: Optional[tuple] = None
        self._ckpt = None
        #: A commit was applied and its checkpoint not taken yet: the
        #: worker takes it right after forwarding the token.
        self._ckpt_owed = False
        self._ckpt_marks: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
        #: Sender marks of the checkpoint before ``_ckpt`` — where its
        #: delta's journal tail starts; None when ``_ckpt`` is a full
        #: image (the first one, or the one after a crash/restore).
        self._delta_base: Optional[Dict[int, int]] = None
        # Cancellation-horizon bookkeeping (see docs/protocol.md):
        # antimessages this worker routed, bucketed by the token wave
        # period they were sent in; buckets are pruned once the ring's
        # two-cut argument proves delivery.  ``_floor_committed`` is the
        # last global horizon that rode in with a GVT commit.
        self._anti_mins: Dict[int, VirtualTime] = {}
        self._cut_wave = -1
        self._floor_committed: VirtualTime = INFINITY
        self._open_window()
        self._watchdog = WallClockWatchdog(self.watchdog_bound)
        self._stall_report = None
        # Waves the initiator must sit out after a fresh-process restore
        # (dist kill-recovery): the checkpoint-old `_prev_sent` baseline
        # is too weak to anchor the two-cut argument, so wave one runs
        # invalid/unsettled and wave two re-bases the counts.
        self._revalidate = 0
        self._max_stale_resent = -1
        self.endpoint: Optional[BatchedEndpoint] = (
            BatchedEndpoint(self.plan, index) if self.use_fabric else None)
        self._setup_floors()
        if index == 0:
            # Initiator state: a sentinel "completed wave -1" primes the
            # ring (busy, nothing sent, nothing committable).
            self._completed_token = dict(fresh_token(-1, None), busy=True)
            self._prev_sent: Dict[tuple, int] = {}
            self._gvt_committed: VirtualTime = MINUS_INFINITY
            self._commits = 0
            self._last_completed_wave = -1

    def _run_index(self, index: int,
                   restore: Optional[tuple] = None) -> None:
        """Be worker ``index`` of the built machine until the ring
        stops (``restore``: see :meth:`_restore_incarnation`)."""
        for _ in self._turns(index, restore):
            pass

    def _turns(self, index: int, restore: Optional[tuple] = None):
        """:meth:`_run_index` one turn at a time: a generator that
        yields once per pass of the worker loop.  Closing it early ends
        the worker without a report."""
        self._setup_worker(index)
        try:
            self._install_route()
            if restore is not None:
                image, tail, recv_marks = restore
                self._restore_incarnation(image, tail, recv_marks)
            elif self.recovery:
                self._take_checkpoint()
            yield from self._worker_loop()
            self._report_done()
        except GeneratorExit:
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded upstream
            partial = RunStats()
            try:
                self._net.watchdog_probes += self._watchdog.probes
                partial.merge(self._proc.stats)
                if self.endpoint is not None:
                    partial.merge(self.endpoint.stats)
                partial.merge(self._net)
            except Exception:  # pragma: no cover - diagnostics only
                pass
            try:
                self._emit_result(
                    ("error", index, f"{type(exc).__name__}: {exc}",
                     partial, self._stall_report))
            except Exception:  # pragma: no cover - transport broken
                pass
        finally:
            # The hooks point back at this worker; under threads the
            # engine outlives the run, so drop them here.
            self._proc.route = self._proc.cancel_note = None

    def _install_route(self) -> None:
        proc = self._proc
        runtimes = self._runtimes
        placement = self._placement
        outbox = self._outbox
        index = self._index

        def route(event: Event) -> None:
            event = stamp_epoch(runtimes, event)
            target = placement[event.dst]
            if target == index:
                proc.local_fifo.append(event)
            else:
                outbox[target].append(event)

        proc.route = route
        # In a worker only this processor is live, and its horizon is
        # maintained by the ring, which also *raises* it again.
        proc.cancel_note = self._note_cancellation
        proc.cancel_floor = INFINITY

    def _note_cancellation(self, time: VirtualTime) -> None:
        """Eager horizon lowering: a cancellation just came into
        existence on this worker (withheld entry or routed anti).

        The time is also bucketed under the wave period it was minted
        in; the bucket is dropped once the token ring's two-cut
        condition proves every envelope of that period was received.
        """
        bucket = self._cut_wave + 1
        current = self._anti_mins.get(bucket)
        if current is None or time < current:
            self._anti_mins[bucket] = time
        proc = self._proc
        if time < proc.cancel_floor:
            proc.cancel_floor = time

    def _local_anti_low(self) -> VirtualTime:
        """Min outstanding-cancellation time this worker knows about:
        unpruned anti buckets, withheld entries (crash-recovery
        reconciliation), and negatives owed by the fabric endpoint."""
        low = self._proc.withheld_low()
        for value in self._anti_mins.values():
            if value < low:
                low = value
        if self.endpoint is not None:
            for event in self.endpoint.pending_events():
                if event.sign < 0 and event.time < low:
                    low = event.time
        return low

    def _prune_anti_buckets(self, before_wave: int) -> None:
        for bucket in [b for b in self._anti_mins if b <= before_wave]:
            del self._anti_mins[bucket]

    def _stall(self, reason: str) -> None:
        """Diagnose an unrecoverable worker stall: checkpoint (so a
        post-mortem restore is possible), assemble the forensics report
        and abort.  The report ships upstream through the error
        path and surfaces on the raised :class:`ProtocolError`."""
        self._net.watchdog_stalls += 1
        if self.recovery:
            self._take_checkpoint()
        in_flight = {
            "sent_to": {dst: n for dst, n in sorted(self._sent_to.items())},
            "recv_from": {src: n
                          for src, n in sorted(self._recv_from.items())},
            "outbox": sum(len(v) for v in self._outbox.values()),
            "cut_wave": self._cut_wave,
        }
        if self.endpoint is not None:
            in_flight["fabric_pending"] = len(
                list(self.endpoint.pending_events()))
        gvt = self._gvt if self._gvt != MINUS_INFINITY else None
        self._stall_report = build_report(
            self.backend_name, reason, [self._proc], gvt=gvt,
            bound=self._watchdog.bound, in_flight=in_flight,
            origin=self._index)
        raise ProtocolError("stall diagnosed: " + reason)

    def _worker_loop(self):
        """The worker's turns; yields once per turn, before it idles."""
        deadline = time.monotonic() + self.spec.timeout_s
        proc = self._proc
        while self._stop_info is None:
            progressed = self._drain(0.0)
            for _ in range(QUANTUM):
                if self._stop_info is not None:
                    return
                if proc.act():
                    progressed = self._unswept = True
                    continue
                # A quantum that ends on a blocked poll sweeps, if
                # anything moved since the last sweep: a floor that
                # rose re-arms what it releases.
                if self._unswept and self._readers_here and proc.blocked \
                        and self._sweep_floors()[0]:
                    continue
                break
            if progressed:
                self._progressed = True
            self._flush()
            if self._index == 0 and self._completed_token is not None:
                self._initiate()
            elif self._held_token is not None:
                token, self._held_token = self._held_token, None
                self._visit(token)
                self._forward(token)
            if self._ckpt_owed:
                # Forward first, image after: the checkpoint of the
                # commit this visit applied overlaps the peer's visit
                # (docs/distributed.md has the recovery argument).
                self._ckpt_owed = False
                self._take_checkpoint()
            if self._stop_info is not None:
                return
            yield
            if not progressed and self._held_token is None \
                    and self._completed_token is None:
                # Idle: block briefly on the inbound channel; a batch,
                # the token or the stop will wake us.
                self._drain(0.0008)
            if self._watchdog.tick(
                    (self._gvt, proc.stats.events_committed)):
                self._stall(
                    f"no GVT advance or commit on worker {self._index} "
                    f"in {self._watchdog.bound:g}s "
                    f"(gvt {self._gvt}, "
                    f"{proc.stats.events_executed} executed)")
            if time.monotonic() > deadline:
                self._stall(
                    f"worker {self._index} exceeded the "
                    f"{self.spec.timeout_s:g}s deadline "
                    f"(gvt {self._gvt}, "
                    f"{self._proc.stats.events_executed} executed)")

    # ------------------------------------------------------------------
    # Envelope plumbing
    # ------------------------------------------------------------------
    def _post(self, target: int, envelope: tuple) -> None:
        """Ship one counted envelope (anything but token/stop)."""
        count = self._sent_to.get(target, 0) + 1
        self._sent_to[target] = count
        self._send_envelope(target, ("c", self._index, count, envelope))

    def _post_batch(self, target: int, items: list) -> None:
        self._post(target, ("batch", self._index, items))
        self._net.ipc_batches += 1
        self._net.ipc_events += len(items)
        wrapped = self.endpoint is not None
        for item in items:
            event = item[1] if wrapped else item
            if event.time < self._send_min:
                self._send_min = event.time

    def _flush(self) -> bool:
        """Ship every destination's collected events as one envelope."""
        sent_any = False
        endpoint = self.endpoint
        for target, events in self._outbox.items():
            if not events:
                continue
            self._outbox[target] = []
            if endpoint is not None:
                items = endpoint.encode(target, events)
                if not items:
                    continue  # every copy dropped or held back
            else:
                items = events
            self._post_batch(target, items)
            sent_any = True
        return sent_any

    def _drain(self, block_s: float) -> bool:
        """Process inbound envelopes; True if any work was delivered."""
        progressed = False
        if block_s > 0:
            envelope = self._recv_envelope(block_s)
            if envelope is None:
                return False
            progressed |= self._dispatch(envelope)
        for _ in range(512):
            envelope = self._recv_envelope(0.0)
            if envelope is None:
                break
            progressed |= self._dispatch(envelope)
        return progressed

    def _dispatch(self, envelope: tuple) -> bool:
        kind = envelope[0]
        if kind == "c":
            _tag, src, count, inner = envelope
            # Cumulative channel-count stamp: max-update (not +1) so a
            # transport-level loss cannot freeze the channel's deficit.
            if count > self._recv_from.get(src, 0):
                self._recv_from[src] = count
            self._unswept = True
            return self._dispatch_inner(inner)
        if kind == "token":
            token = envelope[1]
            if self._token_stale(token):
                self._resend_token(token["wave"])
                return False
            if self._index == 0:
                self._completed_token = token
            else:
                self._held_token = token
            return False
        if kind == "stop":
            self._stop_info = envelope[1:]
            return True
        raise ProtocolError(f"unknown envelope kind {kind!r}")

    def _dispatch_inner(self, envelope: tuple) -> bool:
        kind = envelope[0]
        if kind == "batch":
            self._on_batch(envelope[1], envelope[2])
            return True
        if kind == "acks":
            self.endpoint.ack(envelope[1], envelope[2])
            return True
        if kind == "recover":
            self._on_recover(envelope[1], envelope[2], envelope[3])
            return True
        if kind == "die":
            self._crash()
            return True
        raise ProtocolError(f"unknown envelope kind {kind!r}")

    def _token_stale(self, token: dict) -> bool:
        wave = token["wave"]
        if self._index == 0:
            return wave <= self._last_completed_wave
        return wave <= self._cut_wave

    def _resend_token(self, stale_wave: int) -> None:
        """A reconnect re-delivered an already-consumed token: the copy
        this worker forwarded may have been the one the link lost, so
        put it back on the ring — at most once per stale wave number, so
        duplicate deliveries cannot breed token echoes.  The initiator
        never resends (it regenerates the ring via its own forward; a
        stale token there is always a duplicate, and dropping it is what
        terminates a circulating echo)."""
        if self._index == 0 or self._stop_info is not None:
            return
        if self._last_token_out is None:
            return
        if stale_wave <= self._max_stale_resent:
            return
        self._max_stale_resent = stale_wave
        self._send_envelope((self._index + 1) % self.spec.processors,
                            ("token", self._last_token_out))

    def _on_batch(self, src: int, items: list) -> None:
        endpoint = self.endpoint
        if endpoint is not None:
            events = endpoint.decode(src, items)
            # Flush acks immediately: one ack envelope per batch keeps
            # sender unacked maps (and the retransmit pump) small.
            for peer, seqs in endpoint.take_acks().items():
                self._post(peer, ("acks", self._index, seqs))
                self._net.ipc_batches += 1
        else:
            events = items
        proc = self._proc
        for event in events:
            proc.deliver(event)
            proc.drain_local()

    # ------------------------------------------------------------------
    # Token-ring GVT
    # ------------------------------------------------------------------
    def _local_low(self) -> VirtualTime:
        """This worker's cut contribution: local state + sends since
        the previous cut (the Mattern send-minimum)."""
        low = self._proc.local_min_time()
        for event in self._proc.local_fifo:
            if event.time < low:
                low = event.time
        for events in self._outbox.values():
            for event in events:
                if event.time < low:
                    low = event.time
        if self.endpoint is not None:
            for event in self.endpoint.pending_events():
                if event.time < low:
                    low = event.time
        if self._send_min < low:
            low = self._send_min
        return low

    def _busy(self) -> bool:
        if self._progressed:
            return True
        if self._proc.local_fifo:
            return True
        if any(self._outbox.values()):
            return True
        if self.endpoint is not None and not self.endpoint.quiet():
            return True
        return proc_has_work(self._proc, self.spec.until)

    def _visit(self, token: dict) -> None:
        """One worker's token visit: apply the piggybacked commit, cut,
        merge counts, run the retransmit pump."""
        wave = token["wave"]
        commit = token.get("commit")
        applied = False
        if commit is not None:
            # The commit proves wave-1 was two-cut valid: everything
            # sent before cut wave-2 was received.  Bucket b holds antis
            # minted between cuts b-1 and b; the envelope carrying one
            # may only leave at the end of visit b, i.e. before cut b+1
            # — so bucket b is provably delivered once b+1 <= wave-2.
            self._prune_anti_buckets(wave - 3)
            applied = self._apply_commit(commit)
        if token.get("settled"):
            # The previous wave's channel counts matched exactly:
            # everything sent before cut wave-1 was received, which
            # covers buckets up to wave-2 (same +1 flush slack).
            self._prune_anti_buckets(wave - 2)
        floor = token.get("floor", INFINITY)
        if floor != INFINITY or self._floor_committed != INFINITY:
            # The global horizon needs no two-cut validity: every
            # outstanding cancellation stays in its originator's
            # bucket/withheld list until delivery is *proven*, so last
            # wave's anti_low covers everything that existed at the
            # cuts, and anything minted since is strictly above the
            # GVT that bounds conservative execution anyway.
            self._floor_committed = floor
            self._refresh_cancel_floor()
        self._cut_wave = wave
        low = self._local_low()
        if low < token["low"]:
            token["low"] = low
        anti_low = self._local_anti_low()
        if anti_low < token["anti_low"]:
            token["anti_low"] = anti_low
        if self._watchdog.enabled:
            # watchdog_s=0 disables the liveness layer; skipping the
            # fold keeps vt_min None so the initiator never samples.
            for runtime in self._proc.runtimes.values():
                now = runtime.lp.now
                if token["vt_min"] is None or now < token["vt_min"]:
                    token["vt_min"] = now
                if token["vt_max"] is None or now > token["vt_max"]:
                    token["vt_max"] = now
        self._send_min = INFINITY
        index = self._index
        for dst, n in self._sent_to.items():
            token["sent"][(index, dst)] = n
        for src, n in self._recv_from.items():
            token["recv"][(src, index)] = n
        if not token["busy"] and self._busy():
            token["busy"] = True
        if self._progressed:
            token["moved"] = True
        self._progressed = False
        if token.get("stalled"):
            self._proc.flush_withheld_stalled(self._gvt)
            self._proc.drain_local()
        if self.endpoint is not None:
            self.endpoint.wave = token["wave"]
            for dst, items in self.endpoint.pump(token["wave"]).items():
                self._post_batch(dst, items)
        # Commit application may have produced antimessages (withheld flush)
        # or released blocked LPs whose sends are already queued.
        self._flush()
        if self._floors is not None:
            # Under recovery only a visit that applied a commit takes
            # a fresh note: the durable image taken right after the
            # forward holds exactly the state it describes.
            self._carry_floors(token, applied or not self.recovery)

    def _forward(self, token: dict) -> None:
        self._last_token_out = token
        self._send_envelope((self._index + 1) % self.spec.processors,
                            ("token", token))

    def _apply_commit(self, gvt: VirtualTime) -> bool:
        """Apply a GVT commit; False if it is not above the last one."""
        if gvt <= self._gvt:
            return False
        self._gvt = gvt
        self._proc.commit_gvt(gvt)
        self._move_window(gvt)
        if self.recovery:
            self._ckpt_owed = True
        return True

    # ------------------------------------------------------------------
    # Bounded optimism (docs/protocol.md): the GVT + delta window
    # ------------------------------------------------------------------
    def _open_window(self) -> None:
        """Start (or, after a crash, restart) the slow-start: a closed
        window at the current GVT — at time zero it admits exactly the
        initial events.  Delta and the marks are volatile; nothing of
        them is checkpointed."""
        stats = self._proc.stats
        self._delta = 0
        self._ramping = True
        self._window_marks = (stats.events_executed,
                              stats.events_rolled_back,
                              stats.window_stalls)
        self._proc.window_end = max(self._gvt.pt, 0)

    def _move_window(self, gvt: VirtualTime) -> None:
        """At a commit: resize delta from what this worker executed,
        wasted and was refused since the previous one, then pin the
        window's end to the new GVT."""
        proc = self._proc
        stats = proc.stats
        marks = (stats.events_executed, stats.events_rolled_back,
                 stats.window_stalls)
        executed, wasted, stalls = (
            now - then for now, then in zip(marks, self._window_marks))
        self._window_marks = marks
        delta = self._resize_window(executed, wasted, stalls > 0, gvt)
        if delta < self._delta:
            self._net.window_shrinks += 1
        elif delta > self._delta:
            self._net.window_grows += 1
        self._delta = delta
        proc.window_end = gvt.pt + delta

    def _resize_window(self, executed: int, wasted: int, bound: bool,
                       gvt: VirtualTime) -> int:
        """The next delta.  Multiplicative decrease on an interval that
        rolled back more than half of what it executed; increase only
        on one that wasted under an eighth *and* hit the window (a
        limit that did not bind says nothing about a wider one) —
        doubling until the first decrease, by an eighth after it.  The
        unit is the model's own: the distance from GVT to the lowest
        head the old window refused, i.e. the least widening that
        admits anything new."""
        delta = self._delta
        if not executed:
            return delta  # an idle interval is not evidence
        if 2 * wasted > executed:
            self._ramping = False
            return delta // 2
        if bound and 8 * wasted < executed:
            proc = self._proc
            end = proc.window_end
            refused = min((key[0][0] for key, _lp_id in proc.ready
                           if key[0][0] > end), default=gvt.pt)
            gap = max(refused - gvt.pt, 0)
            if self._ramping:
                return max(2 * delta, gap)
            # At least 1 fs: an eighth of a sub-8-fs gap rounds to
            # nothing, and a window halved to 0 would stay closed.
            return delta + max(max(delta, gap) // 8, 1)
        return delta

    def _refresh_cancel_floor(self) -> None:
        """Raise (or lower) the horizon to the freshest sound value:
        the globally committed floor capped by local knowledge.  Blocked
        conservative LPs are re-armed — a raised floor may be exactly
        what they were waiting for."""
        proc = self._proc
        floor = self._floor_committed
        local = self._local_anti_low()
        if local < floor:
            floor = local
        if floor != proc.cancel_floor:
            proc.cancel_floor = floor
            proc.rearm_blocked()

    def _initiate(self) -> None:
        """Initiator: evaluate the completed wave, start the next one."""
        token, self._completed_token = self._completed_token, None
        wave = token["wave"]
        self._last_completed_wave = wave
        commit: Optional[VirtualTime] = None
        floor: VirtualTime = INFINITY
        settled = stalled = False
        if wave >= 0:
            self._net.token_waves += 1
            sent, recv = token["sent"], token["recv"]
            # Two-cut validity: everything sent before the PREVIOUS
            # wave's cuts has been received before this wave's cuts, so
            # any message still in flight was sent inside the window the
            # send-minimums cover.
            valid = all(recv.get(channel, 0) >= n
                        for channel, n in self._prev_sent.items())
            candidate = token["low"]
            settled = self._counts_settled(sent, recv)
            while self._crash_schedule and \
                    self._crash_schedule[0][0] <= self._commits:
                # No commit is issued from cuts a dead incarnation
                # contributed to (docs/protocol.md §3.6).  The die goes
                # out *before* this wave is judged: the last commit has
                # been applied everywhere (and is imaged before the
                # victim reads another envelope), this wave's cuts are
                # the dying incarnation's, and so may the next one's
                # be — the notice can land on either side of the
                # victim's next visit.
                _at, victim = self._crash_schedule.pop(0)
                self._post(victim, ("die", self._index))
                self._revalidate = 2
            if self._revalidate > 0:
                # Run two waves invalid and unsettled (always safe — it
                # merely delays commits, pruning and termination).
                # After a scheduled crash, see above; a restored
                # initiator (dist kill-recovery) holds a checkpoint-old
                # _prev_sent baseline, and its first post-restore wave
                # may ride a self-primed sentinel token with empty
                # counts, so the re-based counts are trusted again only
                # after that.
                valid = False
                settled = False
                self._revalidate -= 1
            if valid and candidate != INFINITY \
                    and candidate > self._gvt_committed:
                commit = candidate
                self._gvt_committed = candidate
                self._commits += 1
            if not token["busy"] and commit is None and valid and settled:
                self._broadcast_stop()
                return
            # Work remains, yet a valid, settled wave on which no
            # worker moved commits nothing: the ring is fully stalled
            # with nothing in flight, so no event at or below GVT can
            # ever be generated again.  What pins GVT then is a
            # withheld cancellation at exactly GVT (a crash-recovery
            # injection the strict commit-time flush leaves in place),
            # and the inclusive flush the modelled machine performs in
            # the same situation (``_flush_withheld_at_gvt``) is sound.
            stalled = (valid and settled and commit is None
                       and not token.get("moved", True))
            self._prev_sent = dict(sent)
            # The completed wave's cancellation horizon rides the next
            # token regardless of commit validity (see _visit for why
            # it needs no two-cut argument).
            floor = token["anti_low"]
            vt_min, vt_max = token["vt_min"], token["vt_max"]
            if vt_min is not None and vt_max is not None:
                # Korniss virtual-time surface sample, one per wave.
                width = int(vt_max[0] - vt_min[0])
                self._net.vt_spread_samples += 1
                self._net.vt_spread_width_sum += width
                if width > self._net.vt_spread_width_max:
                    self._net.vt_spread_width_max = width
        fresh = fresh_token(wave + 1, commit, floor=floor,
                            settled=settled, stalled=stalled,
                            notes=dict(token["notes"]))
        self._visit(fresh)
        if self._stop_info is not None:  # pragma: no cover - defensive
            return
        self._forward(fresh)

    @staticmethod
    def _counts_settled(sent: Dict[tuple, int],
                        recv: Dict[tuple, int]) -> bool:
        """Every channel's cumulative send/receive counts agree: no
        envelope is in flight anywhere."""
        for channel in set(sent) | set(recv):
            if sent.get(channel, 0) != recv.get(channel, 0):
                return False
        return True

    def _broadcast_stop(self) -> None:
        info = (self._gvt_committed, self._net.token_waves, self._commits)
        for peer in range(1, self.spec.processors):
            self._send_envelope(peer, ("stop",) + info)
        self._stop_info = info

    # ------------------------------------------------------------------
    # Release floors on the ring (docs/protocol.md §2)
    # ------------------------------------------------------------------
    def _setup_floors(self) -> None:
        """This worker's release-floor sweep, when the run has a
        blockable runtime anywhere (a worker without one of its own
        still carries ``B`` for its peers)."""
        self._floors: Optional[ReleaseFloors] = None
        self._readers_here = False
        self._unswept = False
        runtimes = self._runtimes
        if not any(runtime.blockable for runtime in runtimes.values()):
            return
        index, placement, model = self._index, self._placement, self.model
        local = [placement[lp_id] == index for lp_id in runtimes]
        readers = [(runtime, self._proc)
                   if local[lp_id] and runtime.blockable else None
                   for lp_id, runtime in runtimes.items()]
        self._floors = ReleaseFloors.worker(model, readers, local)
        self._readers_here = any(readers)
        self._local = local
        #: Remote predecessors of this worker's LPs, by owner, and this
        #: worker's LPs with a remote successor (what its note carries).
        self._sources_of: Dict[int, List[int]] = {}
        for k in sorted({k for lp_id in runtimes if local[lp_id]
                         for k in model.predecessors(lp_id)
                         if not local[k]}):
            self._sources_of.setdefault(placement[k], []).append(k)
        self._own_sources = [
            lp_id for lp_id in runtimes if local[lp_id]
            and any(not local[w] for w in model.successors(lp_id))]
        #: Peer notes waiting for their send counts to be received, the
        #: last usable one per peer, and per peer the least noted count
        #: a note must show (raised by recovery notices).
        self._notes: Dict[int, tuple] = {}
        self._usable: Dict[int, tuple] = {}
        self._fence: Dict[int, float] = {}
        #: Crash notices of this worker a peer has yet to answer.
        self._unanswered: Dict[int, int] = {}
        #: The note this worker carries (``None``: none yet).
        self._note: Optional[tuple] = None

    def _floor_inputs(self) -> Tuple[list, list, Dict[int, VirtualTime]]:
        """``(potentials, arrivals, owed)``: the sweep's two inputs,
        indexed by lp id, and the earliest event this worker owes each
        remote LP.

        Own LPs get what this worker holds — queue heads, and as
        arrivals parked negatives, local messages, reorder-parked input
        and what peers' usable notes owe them.  A remote source gets
        the ``B`` its owner's usable note carries, never below the
        committed GVT; GVT alone without one."""
        local = self._local
        potential = [INFINITY] * len(local)
        arriving = list(potential)
        owed: Dict[int, VirtualTime] = {}

        def arrive(lp_id: int, time: VirtualTime) -> None:
            if not local[lp_id]:
                if time < owed.get(lp_id, INFINITY):
                    owed[lp_id] = time
            elif time < arriving[lp_id]:
                arriving[lp_id] = time
                if time < potential[lp_id]:
                    potential[lp_id] = time

        proc = self._proc
        runtimes = proc.runtimes
        for lp_id in proc.live:
            runtime = runtimes[lp_id]
            if runtime.cancelled:
                runtime.head()  # drops annihilated entries
            if runtime.queue:
                time = runtime.queue[0][0][0]
                if time < potential[lp_id]:
                    potential[lp_id] = time
            for negative in runtime.negatives.values():
                arrive(lp_id, negative.time)
            for pending in runtime.withheld:
                arrive(pending.dst, pending.time)
        for event in proc.local_fifo:
            arrive(event.dst, event.time)
        for events in self._outbox.values():
            for event in events:
                arrive(event.dst, event.time)
        if self.endpoint is not None:
            for event in self.endpoint.pending_events():
                arrive(event.dst, event.time)
        index, received = self._index, self._recv_from
        for peer, note in list(self._notes.items()):
            if received.get(peer, 0) >= note[2].get(index, 0):
                self._usable[peer] = note
                del self._notes[peer]
        gvt = self._gvt
        for peer, sources in self._sources_of.items():
            note = self._usable.get(peer)
            if note is None:
                for k in sources:
                    potential[k] = gvt
                continue
            carried, caps = note[0], note[1]
            for k in sources:
                bound = carried.get(k, INFINITY)
                potential[k] = bound if bound > gvt else gvt
            for lp_id, time in caps.items():
                if local[lp_id]:
                    arrive(lp_id, time)
        return potential, arriving, owed

    def _sweep_floors(self) -> Tuple[bool, Dict[int, VirtualTime]]:
        """Sweep; re-arm the blocked runtimes whose floor rose.  Returns
        whether there was one, and what this worker owes remote LPs."""
        self._unswept = False
        potential, arriving, owed = self._floor_inputs()
        raised = self._floors.sweep(potential, arriving)
        if not raised:
            return False, owed
        self._net.floors_raised += len(raised)
        return self._proc.rearm(raised), owed

    def _carry_floors(self, token: dict, refresh: bool) -> None:
        """The visit's part: take the peers' notes off the token, sweep,
        and leave this worker's note on it — a fresh one if
        ``refresh``, else the last one again."""
        notes = token["notes"]
        index, fence = self._index, self._fence
        for peer, note in notes.items():
            if peer != index and note is not self._usable.get(peer) \
                    and note[2].get(index, 0) >= fence.get(peer, 0):
                self._notes[peer] = note
        _rearmed, owed = self._sweep_floors()
        if refresh:
            bound = self._floors.bound
            self._note = ({lp_id: bound[lp_id] for lp_id in self._own_sources
                           if bound[lp_id] < INFINITY},
                          owed, dict(self._sent_to))
        if self._note is None:
            notes.pop(index, None)
        else:
            notes[index] = self._note

    def _fence_notes(self, peer: int, answer: bool) -> None:
        """A recovery notice from ``peer`` came in.  A crash notice drops
        its notes, and fences out any note it took before the notice —
        a token may still carry one.  An answer to this worker's own
        crash notice lifts the fence :meth:`_forget_floors` put up, once
        every notice ``peer`` owes an answer to is answered."""
        if answer:
            left = self._unanswered.get(peer, 0) - 1
            if left > 0:
                self._unanswered[peer] = left
                return
            self._unanswered.pop(peer, None)
        else:
            self._notes.pop(peer, None)
            self._usable.pop(peer, None)
        self._fence[peer] = self._recv_from.get(peer, 0)

    def _forget_floors(self) -> None:
        """A restored incarnation starts with every floor at
        ``MINUS_INFINITY``, no note of its own, and trusts no peer's
        note until that peer has answered its crash notice."""
        proc = self._proc
        for runtime in proc.runtimes.values():
            runtime.release_floor = MINUS_INFINITY
        self._floors.drop()
        self._note = None
        self._notes.clear()
        self._usable.clear()
        for peer in range(self.spec.processors):
            if peer != self._index:
                self._fence[peer] = float("inf")
                self._unanswered[peer] = self._unanswered.get(peer, 0) + 1

    # ------------------------------------------------------------------
    # Crash-recovery
    # ------------------------------------------------------------------
    def _take_checkpoint(self) -> None:
        """Durable-by-fiat checkpoint (log-before-send model): the
        processor image plus the fabric's sequence horizons."""
        sender_marks = self._ckpt_marks[0]
        self._ckpt = checkpoint_processor(self._proc, self._ckpt)
        self._delta_base = (sender_marks if self._ckpt.changed is not None
                            else None)
        self._ckpt_marks = (self.endpoint.checkpoint_marks()
                            if self.endpoint is not None else ({}, {}))
        self._checkpoint_taken()

    def _checkpoint_taken(self) -> None:
        """Hook: a fresh durable checkpoint exists.  The dist backend
        uploads it to the coordinator here; in-process backends keep it
        in memory (durable by fiat)."""

    def _durable_image(self, delta: bool = False) -> dict:
        """Everything a *freshly started process* needs to resume this
        worker's role: the processor checkpoint, the fabric endpoint
        (journal/unacked/sequence state — the log-before-send log), and
        the ring bookkeeping that must survive with them.

        A ``delta`` is the same dict cut down to what the image before
        it (see :func:`fold_images`) does not already say: the runtime
        images captured for this checkpoint and the journal entries
        appended since the last one.  Only valid while ``_delta_base``
        is set.
        """
        ckpt, endpoint = self._ckpt, self.endpoint
        if delta:
            ckpt = replace(ckpt, runtimes={
                lp_id: ckpt.runtimes[lp_id] for lp_id in ckpt.changed})
            endpoint = endpoint.journal_tail(self._delta_base)
        image = {
            "ckpt": ckpt,
            "marks": self._ckpt_marks,
            "endpoint": endpoint,
            "gvt": self._gvt,
            "cut_wave": self._cut_wave,
            "sent_to": dict(self._sent_to),
            "recv_from": dict(self._recv_from),
            "anti_mins": dict(self._anti_mins),
            "floor_committed": self._floor_committed,
            "net": self._net,
            "crash_schedule": list(self._crash_schedule),
        }
        if self._index == 0:
            image["initiator"] = (
                dict(self._prev_sent), self._gvt_committed,
                self._commits, self._last_completed_wave)
        return image

    def _restore_durable_image(self, image: dict) -> None:
        """Adopt a durable image in a fresh incarnation (dist kill-
        recovery).  Must run after :meth:`_setup_worker` and before the
        :meth:`_crash`-style reconciliation."""
        self._ckpt = image["ckpt"]
        self._ckpt_marks = image["marks"]
        self.endpoint = image["endpoint"]
        self._gvt = image["gvt"]
        self._cut_wave = image["cut_wave"]
        self._sent_to = dict(image["sent_to"])
        self._recv_from = dict(image["recv_from"])
        self._anti_mins = dict(image["anti_mins"])
        self._floor_committed = image["floor_committed"]
        self._net = image["net"]
        self._crash_schedule = list(image["crash_schedule"])
        if self._index == 0 and "initiator" in image:
            (self._prev_sent, self._gvt_committed,
             self._commits, self._last_completed_wave) = image["initiator"]
            self._revalidate = 2
            # Self-prime the ring: the dead incarnation may have been
            # holding the token (in which case the ring is empty and
            # only the initiator can restart it).  If a custody copy is
            # also re-delivered, one of the two same-wave tokens wins
            # the race at each peer and the other dies as a stale
            # duplicate within a lap — the revalidation window above
            # keeps the sentinel's empty counts from committing or
            # settling anything.
            self._completed_token = dict(
                fresh_token(self._last_completed_wave, None), busy=True)

    def _restart_from_image(self) -> None:
        """What a restored incarnation restarts from its image: the
        execution window, and its release floors."""
        self._open_window()
        if self._floors is not None:
            self._forget_floors()

    def _crash(self) -> None:
        """Lose all volatile state, recover from the durable checkpoint,
        reconcile with the world.  Needs no global barrier: the fabric
        endpoint (journals, unacked maps, sequence counters) is
        durable, in-flight input is re-created by the peers' journal
        replay, and stale conservative promises are invalidated by an
        epoch-bump broadcast.
        """
        endpoint = self.endpoint
        if endpoint is None:  # pragma: no cover - guarded at build time
            raise ProtocolError("crash injection requires the fabric")
        if self._ckpt is None:  # pragma: no cover - taken before loop
            raise ProtocolError(
                f"no durable checkpoint for worker {self._index}")
        endpoint.stats.crashes += 1
        # The un-encoded outbox is volatile: nothing in it was ever
        # journalled or promised, and the restored replay regenerates
        # (or abandons) each message on its own authority.  Emptied
        # first: the reconciliation routes antimessages into it.
        for target in self._outbox:
            self._outbox[target] = []
        sender_marks, recv_floors = self._ckpt_marks
        live_sender, _live_recv = endpoint.checkpoint_marks()
        proc = self._proc
        # The new incarnation starts its window over from the image.
        recover_processor(proc, self._ckpt, self._gvt, [
            (endpoint.sender_window(dst, sender_marks.get(dst, 0)),
             partial(endpoint.mark_spent_anti, dst))
            for dst in live_sender], restored=self._restart_from_image)
        endpoint.rewind_receiver(recv_floors)
        endpoint.stats.recoveries += 1
        # Tell every peer: bump your replica epochs (stale conservative
        # promises from the dead incarnation must not be trusted) and
        # replay your journal from my checkpoint's delivery horizon.
        epochs = {lp_id: runtime.cons_epoch
                  for lp_id, runtime in proc.runtimes.items()}
        for peer in range(self.spec.processors):
            if peer == self._index:
                continue
            self._post(peer, ("recover", self._index, epochs,
                              recv_floors.get(peer, 0)))
        # Re-checkpoint immediately: the durable image must reflect the
        # post-recovery epochs (a second failure restoring the *pre*-
        # crash image could otherwise reuse an epoch peers have already
        # seen and trust a stale conservative promise).
        self._take_checkpoint()

    def _restore_incarnation(self, image: dict, tail: list,
                             recv_marks: Optional[Dict[int, int]] = None,
                             ) -> None:
        """Fresh-process kill-recovery (dist): adopt the durable image,
        splice the coordinator-retained sent-tail back into the fabric
        journal, then run the standard crash reconciliation.

        ``tail`` is the coordinator's FIFO of ``(dst, envelope)`` pairs
        it relayed *from* this worker after the image was uploaded: the
        sends the dead incarnation made that the image's journal does
        not know about, but the world has seen.  Splicing them back in
        lets :meth:`_crash` reconcile them (cancel-or-reuse) exactly
        like any other post-checkpoint output; their count stamps
        restore ``_sent_to`` to the world-visible values so the ring's
        channel counts stay monotone on the sender side.

        ``recv_marks`` is the receive-side mirror: per-source counted-
        envelope high-water marks the coordinator observed while
        relaying *to* this worker.  The image's ``recv_from`` is frozen
        at checkpoint time, but the dead incarnation kept receiving —
        and pure-ack envelopes carry no journalled events, so peers can
        never replay them.  Without the marks the channel's cumulative
        recv count regresses permanently below the peer's sent count
        and the GVT ring's ``settled`` test never holds again.  The
        counts are termination bookkeeping only; the *content*
        obligations heal separately (batches via journal replay, acks
        via re-ack-on-duplicate).
        """
        self._restore_durable_image(image)
        for src, n in (recv_marks or {}).items():
            if n > self._recv_from.get(src, 0):
                self._recv_from[src] = n
        endpoint = self.endpoint
        horizon, ahead = self._gvt, False
        for dst, envelope in tail:
            if envelope[0] == "token":
                # Forwarded after the image: the dead incarnation cut
                # this wave, having applied the commit aboard.
                ahead = True
                token = envelope[1]
                self._cut_wave = max(self._cut_wave, token["wave"])
                if token["commit"] is not None:
                    horizon = max(horizon, token["commit"])
                continue
            _tag, _src, count, inner = envelope
            if count > self._sent_to.get(dst, 0):
                self._sent_to[dst] = count
            if inner[0] == "batch" and endpoint is not None:
                link = endpoint._out_link(dst)
                for seq, event in inner[2]:
                    link.journal[seq] = event
                    link.unacked[seq] = (event, endpoint.wave)
                    if seq >= link.next_seq:
                        link.next_seq = seq + 1
        self._crash()
        if self._index:
            self._rejoin(horizon, ahead)

    def _rejoin(self, horizon: VirtualTime, ahead: bool) -> None:
        """A restored non-initiator rejoins the ring behind a barrier:
        it executes and cuts nothing until every peer has answered its
        crash notice (the answer trails the peer's replay, so every
        input the dead incarnation consumed is queued again) and the
        token has come round.  Then ``horizon`` — the last commit the
        dead incarnation applied, read off the sent-tail's tokens; it
        was judged from a cut that precedes the image — is applied.
        If a dead cut postdates the image (``ahead``), the commit on
        the token now held was judged from it: what lies below it is
        final but yet to be executed *again* here, so it is a licence
        to execute (safety bound, window), never a flush or a fossil
        point.  docs/distributed.md, "Forward first, image after".
        """
        owed = set(range(self.spec.processors)) - {self._index}
        deadline = time.monotonic() + self.spec.timeout_s
        while (owed or self._held_token is None) \
                and self._stop_info is None:
            envelope = self._recv_envelope(0.05)
            if envelope is None:
                if time.monotonic() > deadline:
                    self._stall(f"worker {self._index} restored but "
                                f"never rejoined: no answer from "
                                f"{sorted(owed)}")
                continue
            if envelope[0] == "c" and envelope[3][0] == "recover":
                owed.discard(envelope[3][1])
            self._dispatch(envelope)
        self._apply_commit(horizon)
        token = self._held_token
        if ahead and token is not None and token["commit"] is not None:
            commit, token["commit"] = token["commit"], None
            proc = self._proc
            if commit > proc.gvt_bound:
                proc.gvt_bound = commit
                proc.window_end = max(proc.window_end, commit.pt)
                proc.rearm_blocked()
            self._held_token = None
            self._visit(token)
            token["commit"] = commit
            self._forward(token)

    def _on_recover(self, victim: int, epochs: Dict[int, int],
                    floor: int) -> None:
        """Peer side of a crash: epoch bump + journal replay.

        A crash notice (it carries epochs) is answered with this
        worker's own delivery horizon for the victim, as a notice
        without epochs.  The victim's new incarnation may be a fresh
        process (dist kill-recovery), and a notice this worker sent to
        the dead one — after a crash of its own, rewinding below what
        the victim holds as acknowledged — died with it: nothing else
        would ever replay those entries.
        """
        for lp_id, epoch in epochs.items():
            runtime = self._runtimes.get(lp_id)
            if runtime is not None and runtime.cons_epoch < epoch:
                runtime.cons_epoch = epoch
        if self._floors is not None:
            self._fence_notes(victim, answer=not epochs)
        items = self.endpoint.replay_for(victim, floor)
        if items:
            self._post_batch(victim, items)
        if epochs:
            _sent, expected = self.endpoint.checkpoint_marks()
            self._post(victim, ("recover", self._index, {},
                                expected.get(victim, 0)))

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _report_done(self) -> None:
        proc = self._proc
        proc.commit_remaining()
        self._net.watchdog_probes += self._watchdog.probes
        stats = RunStats()
        stats.merge(proc.stats)
        if self.endpoint is not None:
            stats.merge(self.endpoint.stats)
        stats.merge(self._net)
        lp_states = {
            lp_id: (runtime.lp.now,
                    {attr: getattr(runtime.lp, attr)
                     for attr in runtime.lp.state_attrs})
            for lp_id, runtime in proc.runtimes.items()}
        gvt, waves, commits = self._stop_info
        self._emit_result(
            ("done", self._index, stats, lp_states, gvt, waves, commits))
