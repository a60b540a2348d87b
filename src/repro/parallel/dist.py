"""Distributed multi-host backend: the token ring over asyncio/TCP.

This backend earns the *distributed* half of the paper's title.  Each
worker is a standalone process — launched by hand on any host with
``repro serve``, or auto-spawned on localhost by the coordinator — and
everything that crosses a machine boundary is a length-prefixed pickle
frame (:mod:`repro.fabric.wire`).  The synchronization protocol is
**unchanged**: workers run the exact
:class:`~repro.parallel.backend.WorkerCore` the procs backend runs —
same act quantum, same batched flushes, same pipelined Mattern
token-ring GVT, same :class:`~repro.fabric.batched.BatchedEndpoint`
retransmission and crash recovery.  Only the transport differs, and
what a worker is told to run is what a spawned procs worker gets as
process arguments: the pristine pickled model and the run's
:class:`~repro.config.RingSpec`, here as the ``spec`` frame.

**Topology.**  Hub and spoke: workers never dial each other.  Every
envelope a worker addresses to a peer travels as a ``("relay", dst,
envelope)`` frame to the coordinator, which forwards it.  TCP gives
per-connection FIFO and the coordinator forwards in arrival order, so
the per-channel FIFO the ring's two-cut count argument needs survives
intact.  (A mesh would halve latency; the hub keeps connection count
linear and gives the coordinator the vantage point the recovery story
below depends on.)

**Unreliable links as FaultPlan events.**  The fabric layer is always
on for dist runs — every batch is journalled, sequence-numbered and
acked even with no FaultPlan configured — because a TCP connection is
itself a lossy link: frames written but unread when a connection dies
are gone.  That makes a dropped connection *just another fault-plan
event*: the counted-envelope stamps (``("c", src, n, inner)``) keep
the ring's channel counts gap-tolerant, the token-driven pump
retransmits unacked journal entries, and receiver dedup absorbs the
duplicates that at-least-once redelivery creates.  Three pieces of
coordinator-side state close the remaining holes:

* **Token custody** — the ring has exactly one token; a frame loss
  must not lose it.  The coordinator remembers the last token it
  relayed *to* each worker until it sees a token *from* that worker.
  On reconnect the custody copy is re-delivered; a worker that already
  consumed it drops the duplicate (and re-forwards its own outbound
  copy, which is the one the link may have lost — see
  ``WorkerCore._resend_token``).
* **Checkpoint uploads** — workers upload their durable image
  (processor checkpoint + fabric endpoint + ring bookkeeping) at every
  checkpoint, behind the token that carried its commit: a keyframe now
  and then, in between deltas holding what changed since the upload
  before (``_DistWorkerCore._checkpoint_taken``).
  The coordinator keeps the chain as opaque blobs; a killed worker
  process is restored onto a *fresh* daemon, which folds it.
* **The sent-tail** — the coordinator retains every counted frame
  and token it relayed *from* a worker since the last upload its chain
  took (per-connection FIFO makes the cut exact).  On restore the tail
  is spliced back into the fabric journal
  (``WorkerCore._restore_incarnation``), so the dead incarnation's
  post-checkpoint sends — which the world has seen — are reconciled
  through the standard withheld-send crash path instead of
  becoming phantom positives, and the tokens tell it which waves the
  dead incarnation cut past its image (``WorkerCore._rejoin``).

**Security.**  Frames are pickles (the coordinator ships real models
with process-body callables).  Trusted networks only — localhost, a
private cluster, or an ssh tunnel.  See docs/distributed.md.

Like the other real backends, dist supports the static protocols only
(optimistic / conservative / mixed).
"""

from __future__ import annotations

import asyncio
import atexit
import os
import pickle
import queue as queue_module
import stat
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core.model import Model
from ..core.stats import RunStats
from ..fabric.plan import FaultPlan
from ..fabric.wire import WireError, recv_frame, send_frame
from .backend import (BackendOutcome, RingSpec, WorkerCore, fold_images,
                      harvest, pristine_payload)
from .engine import ProtocolError, resolve_model

#: Default TCP port for `repro serve`.
DEFAULT_PORT = 7421

#: How long a worker yields after forwarding the token (seconds).
TOKEN_HANDOFF_S = 0.0003

#: Stdout announcement a daemon prints once it is listening (the
#: coordinator parses this to learn an auto-spawned worker's port).
PORT_BANNER = "REPRO-DIST-WORKER PORT="

#: First line on the stdin pipe of a daemon a coordinator spawns: the
#: daemon exits at that pipe's EOF, i.e. however its owner dies.
OWNER_BANNER = "REPRO-DIST-OWNER\n"


# ======================================================================
# Worker side
# ======================================================================
class _DistWorkerCore(WorkerCore):
    """The shared worker loop over a relay session."""

    backend_name = "dist"

    def __init__(self, spec: Tuple[bytes, RingSpec],
                 session: "_Session") -> None:
        self._session = session
        payload, ring = spec
        # The fabric and recovery are unconditional on dist: TCP links
        # lose written frames when a connection dies, so every batch
        # needs the journal/ack machinery even under an empty plan.
        super().__init__(pickle.loads(payload), replace(
            ring, fault_plan=ring.fault_plan or FaultPlan(), recovery=True))
        # Upload bookkeeping (see _checkpoint_taken).
        self._uploads = 0
        self._keyframe_bytes = 0
        self._delta_bytes = 0
        self._attaches_seen = 0

    # -- transport hooks ------------------------------------------------
    def _send_envelope(self, target: int, envelope: tuple) -> None:
        self._session.send(("relay", target, envelope))

    def _forward(self, token: dict) -> None:
        super()._forward(token)
        # The session's loop thread writes the frame, and it needs the
        # interpreter lock this thread would hold through the image and
        # the next quantum (up to a 5 ms switch interval): yield it
        # once, so the peer is not kept waiting for the token.
        time.sleep(TOKEN_HANDOFF_S)

    def _recv_envelope(self, block_s: float):
        try:
            if block_s > 0:
                return self._session.inbox.get(timeout=block_s)
            return self._session.inbox.get_nowait()
        except queue_module.Empty:
            return None

    def _emit_result(self, message: tuple) -> None:
        self._session.send(message)

    def _checkpoint_taken(self) -> None:
        """Upload the new durable checkpoint: a delta against upload
        ``n - 1`` when the coordinator can be holding that one, else a
        keyframe (``base = None``).

        A keyframe goes first, after a crash/restore (``_delta_base``
        is unset: every runtime was re-imaged), after every (re)attach
        of the session (an upload may have died with the old
        connection, and the coordinator ignores deltas it cannot chain)
        and once the deltas since the last keyframe weigh what it
        weighed — the rebase rule: cost stays O(changed) amortised and
        the coordinator holds under two keyframes' worth plus the delta
        that tipped the scale, with nothing to tune.
        """
        n = self._uploads
        self._uploads = n + 1
        attaches = self._session.attaches
        delta = (self._delta_base is not None
                 and attaches == self._attaches_seen
                 and self._delta_bytes < self._keyframe_bytes)
        blob = pickle.dumps(self._durable_image(delta),
                            protocol=pickle.HIGHEST_PROTOCOL)
        self._session.send(
            ("ckpt", self._index, n, n - 1 if delta else None, blob))
        self._net.net_ckpt_frames += 1
        self._net.net_ckpt_bytes += len(blob)
        if delta:
            self._delta_bytes += len(blob)
        else:
            self._keyframe_bytes = len(blob)
            self._delta_bytes = 0
            self._attaches_seen = attaches
            self._net.net_ckpt_keyframes += 1


class _Session:
    """One (run_id, index) worker living inside a daemon.

    The asyncio loop owns the socket; the :class:`WorkerCore` loop runs
    in a side thread and talks to it through a thread-safe inbox
    (inbound envelopes) and ``call_soon_threadsafe`` (outbound frames).
    Outbound frames buffer while no connection is attached and flush on
    the next attach; the final done/error frame is additionally re-sent
    on *every* attach until the coordinator says ``bye`` (the
    coordinator dedups), so a connection loss cannot eat the result.
    """

    def __init__(self, daemon: "_WorkerDaemon", index: int,
                 spec: Tuple[bytes, RingSpec],
                 restore: Optional[Tuple[List[bytes], list, dict]]) -> None:
        self.daemon = daemon
        self.index = index
        self.state = "running"
        self.inbox: "queue_module.Queue" = queue_module.Queue()
        self.outbound: deque = deque()
        self.final: Optional[tuple] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: Connections attached so far; the core re-bases its
        #: checkpoint uploads on a keyframe when this moves.
        self.attaches = 0
        self.loop = asyncio.get_running_loop()
        self.bytes_tx = 0
        self.bytes_rx = 0
        self._writing = False
        self.thread = threading.Thread(
            target=self._run, args=(spec, restore), daemon=True,
            name=f"repro-dist-worker-{index}")
        self.thread.start()

    # -- core thread ----------------------------------------------------
    def _run(self, spec: Tuple[bytes, RingSpec],
             restore: Optional[Tuple[List[bytes], list, dict]]) -> None:
        try:
            core = _DistWorkerCore(spec, self)
        except BaseException as exc:  # noqa: BLE001 - forwarded upstream
            self.send(("error", self.index,
                       f"worker rebuild failed: "
                       f"{type(exc).__name__}: {exc}", RunStats(), None))
            return
        if restore is None:
            core._run_index(self.index)
        else:
            image = fold_images([pickle.loads(blob) for blob in restore[0]])
            core._run_index(self.index, restore=(image, list(restore[1]),
                                                 dict(restore[2])))

    def send(self, frame: tuple) -> None:
        self.loop.call_soon_threadsafe(self._enqueue, frame)

    # -- loop thread ----------------------------------------------------
    def _enqueue(self, frame: tuple) -> None:
        if frame[0] in ("done", "error"):
            self.state = "done"
            # Fold the session's transport tallies into the result the
            # coordinator will merge (the core never sees the socket).
            stats = frame[2] if frame[0] == "done" else frame[3]
            if stats is not None:
                stats.net_bytes_tx += self.bytes_tx
                stats.net_bytes_rx += self.bytes_rx
            self.final = frame
        self.outbound.append(frame)
        self._kick()

    def attach(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.attaches += 1
        if self.final is not None and self.final not in self.outbound:
            self.outbound.append(self.final)
        self._kick()

    def detach(self, writer: asyncio.StreamWriter) -> None:
        if self.writer is writer:
            self.writer = None

    def _kick(self) -> None:
        if self.writer is not None and not self._writing:
            self.loop.create_task(self._write_all())

    async def _write_all(self) -> None:
        if self._writing:
            return
        self._writing = True
        try:
            while self.outbound and self.writer is not None:
                frame = self.outbound[0]
                writer = self.writer
                try:
                    self.bytes_tx += await send_frame(writer, frame)
                except (ConnectionError, OSError, WireError):
                    self.detach(writer)
                    return
                try:
                    self.outbound.popleft()
                except IndexError:  # pragma: no cover - defensive
                    return
        finally:
            self._writing = False


class _WorkerDaemon:
    """`repro serve`: host worker sessions, one per coordinator run."""

    def __init__(self, once: bool = False) -> None:
        self.once = once
        self.sessions: Dict[Tuple[str, int], _Session] = {}
        self.closed = asyncio.Event()

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        session: Optional[_Session] = None
        key: Optional[Tuple[str, int]] = None
        try:
            while True:
                frame, nbytes = await recv_frame(reader)
                if session is not None:
                    session.bytes_rx += nbytes
                kind = frame[0]
                if kind == "hello":
                    _tag, run_id, index = frame
                    key = (run_id, index)
                    session = self.sessions.get(key)
                    state = session.state if session is not None else "new"
                    await send_frame(
                        writer, ("hi", index, state))
                    if session is not None:
                        session.attach(writer)
                elif kind == "spec":
                    session = _Session(self, key[1], frame[1], None)
                    self.sessions[key] = session
                    session.attach(writer)
                elif kind == "restore":
                    session = _Session(self, key[1], frame[1],
                                       (frame[2], frame[3], frame[4]))
                    self.sessions[key] = session
                    session.attach(writer)
                elif kind == "env":
                    if session is not None:
                        session.inbox.put(frame[1])
                elif kind == "ping":
                    await send_frame(writer, ("pong", frame[1]))
                elif kind == "bye":
                    if key is not None:
                        self.sessions.pop(key, None)
                    if self.once:
                        self.closed.set()
                    return
                elif kind == "exit":
                    self.closed.set()
                    return
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except WireError:
            pass
        finally:
            if session is not None:
                session.detach(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass


async def _serve_async(host: str, port: int, once: bool,
                       announce: bool = True) -> None:
    daemon = _WorkerDaemon(once=once)
    server = await asyncio.start_server(daemon.handle, host, port)
    actual = server.sockets[0].getsockname()[1]
    if announce:
        print(f"{PORT_BANNER}{actual}", flush=True)
    async with server:
        await daemon.closed.wait()


def _die_with_owner() -> None:
    """Exit at EOF of stdin if it is a pipe that opens with
    :data:`OWNER_BANNER`; any other stdin (a terminal, ``/dev/null``,
    a pipe that says something else or nothing) is left alone."""
    try:
        if not stat.S_ISFIFO(os.fstat(0).st_mode):
            return
    except OSError:
        return

    def watch() -> None:
        with open(0, closefd=False) as owner:
            if owner.readline() == OWNER_BANNER:
                owner.read()
                os._exit(0)

    threading.Thread(target=watch, daemon=True,
                     name="repro-dist-owner").start()


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          once: bool = False, announce: bool = True) -> None:
    """Run a worker daemon until told to exit (`repro serve`)."""
    _die_with_owner()
    try:
        asyncio.run(_serve_async(host, port, once, announce=announce))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass


# ======================================================================
# Coordinator side
# ======================================================================
#: Warm localhost daemons between the runs of this process, as
#: ``(process, port)`` (docs/distributed.md, "Daemon lifecycle").
_idle: List[Tuple[subprocess.Popen, int]] = []
_idle_lock = threading.Lock()


def _reap(proc: subprocess.Popen) -> None:
    with proc:  # closes its pipes and waits
        proc.kill()


def _park_local(daemons: List[Tuple[subprocess.Popen, int]]) -> None:
    """End of a run: ``daemons`` become the idle set.  Whatever was
    idle and not checked out is reaped, so the registry never holds
    more than the last run used."""
    with _idle_lock:
        stale, _idle[:] = list(_idle), daemons
    for proc, _port in stale:
        _reap(proc)


def shutdown_local_daemons() -> None:
    """Kill and reap every idle warm daemon (also runs at exit)."""
    _park_local([])


atexit.register(shutdown_local_daemons)
# A forked child (a procs worker, a pool worker) does not own them.
os.register_at_fork(after_in_child=_idle.clear)


class _WorkerLink:
    """Coordinator-side state of one worker connection."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.host = "127.0.0.1"
        self.port = 0
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connected = False
        self.done = False
        #: Last token frame relayed *to* this worker, held until a
        #: token arrives *from* it (at-least-once token delivery).
        self.token_custody: Optional[tuple] = None
        #: Stop envelope relayed to this worker, held until it's done.
        self.stop_custody: Optional[tuple] = None
        #: Uploaded durable image as an ordered chain of opaque blobs,
        #: ``[keyframe, delta, ...]``; ``ckpt_head`` is the upload
        #: number of the last one (a delta must name it as its base).
        self.ckpt: List[bytes] = []
        self.ckpt_head = -1
        #: Counted frames and tokens relayed *from* this worker since
        #: the last checkpoint upload the chain took: (dst, envelope)
        #: in relay order.
        self.tail: List[Tuple[int, tuple]] = []
        #: Counted envelopes owed *to* this worker while it is
        #: unreachable, flushed in order on reconnect.  Batches alone
        #: would heal via the endpoint's retransmit pump, but a lost
        #: ack/recover envelope on an otherwise-quiet channel would
        #: desync the ring's cumulative counts forever (the receiver's
        #: high-water mark only advances on *later* envelopes, and
        #: there may never be one) — so the relay parks instead of
        #: dropping.
        self.parked: List[tuple] = []
        #: Per-source counted-envelope high-water marks relayed *to*
        #: this worker.  Shipped with a restore: the durable image's
        #: receive counts are frozen at checkpoint time, but the dead
        #: incarnation kept consuming envelopes — and pure-ack
        #: envelopes are not journalled anywhere, so peers can never
        #: replay them.  Without these marks a restored worker's
        #: cumulative recv count for a quiet channel regresses below
        #: the peer's sent count forever and the GVT ring never
        #: settles again.
        self.recv_marks: Dict[int, int] = {}
        #: Popen handle when the coordinator auto-spawned the daemon
        #: or checked it out warm; never returned once ``killed``.
        self.proc: Optional[subprocess.Popen] = None
        self.warm = self.killed = False
        self.reconnecting = False
        self.reader_task: Optional[asyncio.Task] = None


class DistMachine:
    """Coordinate a model run across TCP worker daemons."""

    backend_name = "dist"

    def __init__(self, model: Model, processors: int,
                 hosts: Optional[List[str]] = None,
                 disconnects: Optional[List[Tuple[int, int]]] = None,
                 kills: Optional[List[Tuple[int, int]]] = None,
                 **ring) -> None:
        """``ring``: the fields of
        :class:`~repro.config.RingSpec`, as for
        :class:`~repro.parallel.procs.ProcsMachine`."""
        self.spec = RingSpec.of(processors, **ring)
        if self.spec.recovery is not None and not self.spec.recovery:
            raise ValueError(
                "the dist backend cannot run without recovery: a TCP "
                "link is itself an unreliable channel")
        model = resolve_model(model)
        model.validate()
        self.model = model
        self.hosts = list(hosts) if hosts else []
        if len(self.hosts) > processors:
            raise ValueError(
                f"{len(self.hosts)} hosts for {processors} workers")
        #: Deterministic mid-run network-failure injection: at the
        #: first token relay to ``worker`` with wave >= ``wave``, the
        #: coordinator closes that connection (token held in custody)
        #: and reconnects — exercising the custody/replay path without
        #: any timing dependence.
        self._disconnects = sorted(disconnects) if disconnects else []
        #: Kill injection: same trigger, but the (auto-spawned) worker
        #: process is killed and restored onto a fresh daemon from its
        #: last uploaded checkpoint + sent-tail.
        self._kills = sorted(kills) if kills else []
        if self._kills and self.hosts:
            raise ValueError(
                "kill injection requires auto-spawned workers "
                "(the coordinator cannot respawn an external daemon)")
        self._payload = pristine_payload(model, self.spec.partition)

    # ------------------------------------------------------------------
    def run(self, timeout_s: float = 120.0) -> BackendOutcome:
        self.spec = replace(self.spec, timeout_s=timeout_s)
        return asyncio.run(self._run_async(timeout_s))

    # ------------------------------------------------------------------
    async def _run_async(self, timeout_s: float) -> BackendOutcome:
        start = time.monotonic()
        self._deadline = start + timeout_s
        self._run_id = os.urandom(8).hex()
        self._net = RunStats()
        self._results: Dict[int, tuple] = {}
        self._error: Optional[tuple] = None
        self._finishing = False
        self._complete = asyncio.Event()
        self._spec = (self._payload, self.spec)
        self._links = [_WorkerLink(i)
                       for i in range(self.spec.processors)]
        self._tasks: List[asyncio.Task] = []
        clean = False
        try:
            # All links come up together: daemon start-up (interpreter
            # + imports) is the longest step of a short run and the
            # workers do not need each other for it — envelopes for a
            # peer that is not connected yet wait parked, the token in
            # custody.  One failure cancels the rest; the finally
            # below reaps every daemon that was spawned.
            bringing_up = [asyncio.ensure_future(self._bring_up(link))
                           for link in self._links]
            try:
                await asyncio.gather(*bringing_up)
            except BaseException:
                for task in bringing_up:
                    task.cancel()
                await asyncio.gather(*bringing_up, return_exceptions=True)
                raise
            self._tasks.append(
                asyncio.get_running_loop().create_task(self._pinger()))
            try:
                await asyncio.wait_for(
                    self._complete.wait(),
                    timeout=max(0.0, self._deadline - time.monotonic()))
            except asyncio.TimeoutError:
                pass
            clean = (self._error is None
                     and len(self._results) == self.spec.processors)
        finally:
            self._finishing = True
            for task in self._tasks:
                task.cancel()
            keep = []  # warm only after a run that proved them sound
            for link in self._links:
                if link.writer is not None:
                    try:
                        await send_frame(link.writer, ("bye",))
                    except Exception:
                        pass
                    try:
                        link.writer.close()
                    except Exception:
                        pass
                if link.proc is None:
                    continue
                if clean and not link.killed:
                    keep.append((link.proc, link.port))
                else:
                    _reap(link.proc)
            _park_local(keep)
        return harvest(self, self._results, self._error,
                       time.monotonic() - start, net=self._net)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def _bring_up(self, link: _WorkerLink) -> None:
        """First contact with one worker: locate or spawn its daemon,
        dial it, ship the spec."""
        if link.index < len(self.hosts):
            host, _sep, port = self.hosts[link.index].partition(":")
            link.host = host or "127.0.0.1"
            link.port = int(port) if port else DEFAULT_PORT
        else:
            await self._spawn_local(link)
        try:
            await self._connect(link, fresh=True)
        except (ConnectionError, OSError, WireError,
                asyncio.IncompleteReadError):
            if not link.warm:
                raise
            _reap(link.proc)  # alive but not answering: start over
            await self._spawn_local(link)
            await self._connect(link, fresh=True)

    async def _spawn_local(self, link: _WorkerLink) -> None:
        """Give ``link`` a localhost daemon: a warm one that is still
        alive, else a fresh one (parse its port announcement)."""
        link.host = "127.0.0.1"
        while True:
            with _idle_lock:
                if not _idle:
                    break
                link.proc, link.port = _idle.pop()
            link.warm = link.proc.poll() is None
            if link.warm:
                return
            _reap(link.proc)  # died while idle: only pipes to close
        # The daemon must import the same `repro` this process runs —
        # which may have been put on sys.path programmatically (tests,
        # scripts) rather than via an exported PYTHONPATH.
        env = dict(os.environ)
        pkg_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        paths = [pkg_dir] + [p for p in
                             env.get("PYTHONPATH", "").split(os.pathsep)
                             if p and p != pkg_dir]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        link.warm = False
        link.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=(None if os.environ.get("REPRO_DIST_DEBUG")
                    else subprocess.DEVNULL),
            text=True)
        try:
            link.proc.stdin.write(OWNER_BANNER)
            link.proc.stdin.flush()
        except OSError:
            pass  # died already: the banner read below says so
        loop = asyncio.get_running_loop()
        try:
            line = await asyncio.wait_for(
                loop.run_in_executor(None, link.proc.stdout.readline),
                timeout=min(30.0, max(1.0,
                                      self._deadline - time.monotonic())))
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"spawned worker daemon {link.index} never announced "
                f"its port")
        if not line.startswith(PORT_BANNER):
            raise ProtocolError(
                f"spawned worker daemon {link.index} printed "
                f"{line!r} instead of a port announcement")
        link.port = int(line[len(PORT_BANNER):].strip())

    async def _connect(self, link: _WorkerLink, fresh: bool) -> None:
        """Dial a worker, handshake, ship spec/restore, resync."""
        reader, writer = await asyncio.open_connection(
            link.host, link.port)
        self._net.net_bytes_tx += await send_frame(
            writer, ("hello", self._run_id, link.index))
        frame, nbytes = await recv_frame(reader)
        self._net.net_bytes_rx += nbytes
        if frame[0] != "hi" or frame[1] != link.index:
            raise ProtocolError(
                f"worker {link.index} handshake returned {frame!r}")
        state = frame[2]
        if state == "new":
            if fresh or not link.ckpt:
                # First contact (or lost before its very first
                # checkpoint upload, i.e. before it did anything).
                payload = ("spec", self._spec)
            else:
                payload = ("restore", self._spec, list(link.ckpt),
                           list(link.tail), dict(link.recv_marks))
            self._net.net_bytes_tx += await send_frame(writer, payload)
        link.reader, link.writer = reader, writer
        link.connected = True
        link.reader_task = asyncio.get_running_loop().create_task(
            self._reader(link))
        self._tasks.append(link.reader_task)
        # Resync: re-deliver whatever only the coordinator still holds.
        if link.token_custody is not None:
            await self._deliver(link, ("env", link.token_custody))
        if link.stop_custody is not None and not link.done:
            await self._deliver(link, ("env", link.stop_custody))
        # Flush envelopes parked while the worker was unreachable (a
        # restored incarnation wants them too: they raise its receive
        # counts to the world-visible values and carry acks its spliced
        # journal is owed).
        while link.parked and link.connected:
            envelope = link.parked.pop(0)
            await self._deliver(link, ("env", envelope))
            if not link.connected:
                link.parked.insert(0, envelope)

    async def _reader(self, link: _WorkerLink) -> None:
        try:
            while True:
                frame, nbytes = await recv_frame(link.reader)
                self._net.net_bytes_rx += nbytes
                await self._on_frame(link, frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                WireError):
            pass
        except asyncio.CancelledError:
            return
        link.connected = False
        if not self._finishing and not link.done:
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._reconnect(link, delay=0.05)))

    async def _reconnect(self, link: _WorkerLink, delay: float) -> None:
        if link.reconnecting:
            return
        link.reconnecting = True
        try:
            # Let the dead connection's reader finish draining first:
            # frames already in the socket buffer survive the peer's
            # death, and a restore must ship the *complete* sent-tail.
            task = link.reader_task
            if task is not None and task is not asyncio.current_task():
                try:
                    await task
                except Exception:  # pragma: no cover - reader cleans up
                    pass
            await asyncio.sleep(delay)
            while not self._finishing \
                    and time.monotonic() < self._deadline:
                try:
                    await self._connect(link, fresh=False)
                except (ConnectionError, OSError, WireError,
                        asyncio.IncompleteReadError):
                    await asyncio.sleep(0.1)
                    continue
                self._net.net_reconnects += 1
                return
        except asyncio.CancelledError:
            return
        finally:
            link.reconnecting = False

    async def _deliver(self, link: _WorkerLink, frame: tuple) -> None:
        if not link.connected or link.writer is None:
            return  # custody / fabric retransmission will heal it
        try:
            self._net.net_bytes_tx += await send_frame(
                link.writer, frame)
        except (ConnectionError, OSError, WireError):
            link.connected = False

    async def _relay_env(self, link: _WorkerLink,
                         envelope: tuple) -> None:
        """Relay one counted envelope; park it while the link is down.

        Parking keeps the coordinator→worker channel lossless for
        traffic that has no other retransmission path (see
        ``_WorkerLink.parked``).  The park-when-queued check preserves
        FIFO: a fresh envelope must not overtake ones still parked.
        A send that dies mid-frame re-parks the envelope — the worker
        side discards the truncated frame with the connection, and a
        rare duplicate is harmless (counts are high-water marks, batch
        seqs dedup, acks are idempotent).
        """
        if not link.connected or link.writer is None or link.parked:
            link.parked.append(envelope)
            return
        await self._deliver(link, ("env", envelope))
        if not link.connected:
            link.parked.append(envelope)

    async def _pinger(self) -> None:
        try:
            while not self._finishing:
                await asyncio.sleep(0.25)
                for link in self._links:
                    if link.connected and not link.done:
                        await self._deliver(
                            link, ("ping", time.monotonic()))
        except asyncio.CancelledError:
            return

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _pop_injection(self, schedule: List[Tuple[int, int]],
                       worker: int, wave: int) -> bool:
        for pos, (at_wave, victim) in enumerate(schedule):
            if victim == worker and wave >= at_wave:
                del schedule[pos]
                return True
        return False

    async def _on_frame(self, link: _WorkerLink, frame: tuple) -> None:
        kind = frame[0]
        if kind == "relay":
            dst, envelope = frame[1], frame[2]
            target = self._links[dst]
            if envelope[0] == "token":
                # A token FROM this worker proves it consumed its
                # input token: release custody of that copy.  It also
                # proves a cut: the tail tells a restored successor
                # (the latest wave and every commit are all it reads).
                link.token_custody = None
                if link.tail and link.tail[-1][1][0] == "token" \
                        and link.tail[-1][1][1]["commit"] is None:
                    link.tail.pop()
                link.tail.append((dst, envelope))
                wave = envelope[1].get("wave", 0)
                target.token_custody = envelope
                if self._pop_injection(self._disconnects, dst, wave):
                    await self._inject_disconnect(target)
                    return  # custody re-delivers the token on reconnect
                if target.ckpt and self._pop_injection(
                        self._kills, dst, wave):
                    await self._inject_kill(target)
                    return
                await self._deliver(target, ("env", envelope))
            elif envelope[0] == "stop":
                target.stop_custody = envelope
                await self._deliver(target, ("env", envelope))
            else:
                link.tail.append((dst, envelope))
                if envelope[0] == "c":
                    src, count = envelope[1], envelope[2]
                    if count > target.recv_marks.get(src, 0):
                        target.recv_marks[src] = count
                await self._relay_env(target, envelope)
        elif kind == "done":
            if frame[1] not in self._results:
                self._results[frame[1]] = frame
            link.done = True
            if len(self._results) >= self.spec.processors:
                self._complete.set()
        elif kind == "error":
            if self._error is None:
                self._error = frame
            self._complete.set()
        elif kind == "ckpt":
            _tag, _index, n, base, blob = frame
            if base is None:
                link.ckpt = [blob]
            elif link.ckpt and base == link.ckpt_head:
                link.ckpt.append(blob)
            else:
                # An orphan: the upload it builds on died with a
                # connection.  The chain still stands for the older
                # upload, so the tail must keep covering everything
                # since *that* one — exactly "upload lost", until the
                # worker's post-attach keyframe arrives.
                return
            link.ckpt_head = n
            link.tail.clear()
        elif kind == "pong":
            rtt = time.monotonic() - frame[1]
            self._net.net_rtt_samples += 1
            self._net.net_rtt_sum += rtt
            if rtt > self._net.net_rtt_max:
                self._net.net_rtt_max = rtt
        # anything else is ignored (forward compatibility)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    async def _inject_disconnect(self, link: _WorkerLink) -> None:
        """Close the link mid-run; the reader task reconnects."""
        if link.writer is not None:
            try:
                link.writer.close()
                await link.writer.wait_closed()
            except Exception:
                pass
        link.connected = False
        # The worker daemon keeps the session alive and buffers its
        # outbound frames; the reader task (which sees EOF) drives the
        # reconnect, after which custody re-delivers the held token.

    async def _inject_kill(self, link: _WorkerLink) -> None:
        """Kill the worker process; restore onto a fresh daemon."""
        if link.proc is None:  # pragma: no cover - guarded in __init__
            return
        _reap(link.proc)
        link.killed = True
        link.connected = False
        if link.writer is not None:
            try:
                link.writer.close()
            except Exception:
                pass
        await self._spawn_local(link)
        # The reader task sees the EOF once it drains the old socket
        # and drives the reconnect with the new port: state "new" + a
        # stored ckpt => restore from image + sent-tail, then custody
        # resync.  Only if no reader is live (link was already down)
        # does the coordinator kick the reconnect itself.
        if not link.connected and not link.reconnecting \
                and (link.reader_task is None or link.reader_task.done()):
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._reconnect(link, delay=0.0)))


def run_dist(model: Model, processors: int, timeout_s: float = 120.0,
             **config) -> BackendOutcome:
    """``DistMachine(model, processors, **config).run(timeout_s)``."""
    return DistMachine(model, processors, **config).run(timeout_s)
