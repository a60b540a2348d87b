"""The procs transport, in-process: two mesh endpoints on real pipes.

:class:`~repro.parallel.procs.MeshEndpoint` is what a procs worker sends
and reads through.  These tests hold the properties the ring relies on:
a send never blocks (two workers that each wrote more than a pipe
buffer toward the other still both return and read), every channel is
FIFO, a self-send is delivered, the parent's ``stop`` on a control pipe
reaches a running worker, and a peer's end of file does not turn the
idle wait into a spin.
"""

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.circuits import build_fsm
from repro.core.vtime import MINUS_INFINITY
from repro.fabric.wire import encode_frame
from repro.parallel.procs import (PARENT_STOP, MeshEndpoint, ProcsMachine,
                                  _Pipes)

MIB = 1 << 20


@contextmanager
def time_limit(seconds: float):
    """Fail, not hang, if the body overruns (a blocked ``write`` is
    interrupted by the alarm)."""
    def on_alarm(_signum, _frame):
        raise TimeoutError(f"still running after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pair():
    """Endpoints 0 and 1, one pipe each way, plus a control pipe to
    each (``controls[i]`` is the parent's write end)."""
    r01, w01 = os.pipe()
    r10, w10 = os.pipe()
    (c0, p0), (c1, p1) = os.pipe(), os.pipe()
    ends = [MeshEndpoint(0, {1: r10}, {1: w01}, c0),
            MeshEndpoint(1, {0: r01}, {0: w10}, c1)]
    yield ends, [p0, p1]
    for end in ends:
        end.close()
    for fd in (p0, p1):
        os.close(fd)


def test_sends_of_more_than_a_pipe_buffer_both_ways_never_block(pair):
    (zero, one), _controls = pair
    payload = b"x" * 4000
    count = MIB // len(payload) + 1
    with time_limit(10.0):
        for seq in range(count):
            zero.send(1, ("c", 0, seq, payload))
            one.send(0, ("c", 1, seq, payload))
        # Both have a backlog: the pipes took a buffer's worth each.
        assert zero._waiting and one._waiting
        got = {0: [], 1: []}
        while len(got[0]) < count or len(got[1]) < count:
            for end, peer in ((zero, 1), (one, 0)):
                envelope = end.recv(0.001)
                if envelope is not None:
                    got[peer].append(envelope)
    for src in (0, 1):
        assert [envelope[2] for envelope in got[src]] == list(range(count))
        assert all(envelope[1] == src and envelope[3] == payload
                   for envelope in got[src])
    assert not zero._waiting and not one._waiting


def test_a_self_send_is_delivered_in_order(pair):
    (zero, _one), _controls = pair
    zero.send(0, ("die", 0))
    zero.send(0, ("token", {"wave": 0}))
    assert zero.recv() == ("die", 0)
    assert zero.recv() == ("token", {"wave": 0})
    assert zero.recv() is None


def test_a_control_stop_comes_after_what_was_queued_before_it(pair):
    (zero, one), controls = pair
    for seq in range(100):
        one.send(0, ("c", 1, seq, ("acks", 1, [seq])))
    os.write(controls[0], encode_frame(PARENT_STOP))
    got = []
    with time_limit(10.0):
        while not got or got[-1][0] != "stop" or len(got) < 101:
            envelope = zero.recv(0.01)
            if envelope is not None:
                got.append(envelope)
    assert got[-1] == PARENT_STOP
    assert [envelope[2] for envelope in got if envelope[0] == "c"] \
        == list(range(100))


def test_a_peers_end_of_file_does_not_spin_the_wait(pair):
    (zero, one), _controls = pair
    zero.send(1, ("c", 0, 1, ("acks", 0, [])))
    zero.close()  # the peer is gone; what it wrote is still readable
    assert one.recv(0.5) == ("c", 0, 1, ("acks", 0, []))
    cpu, wall = time.process_time(), time.monotonic()
    assert one.recv(0.3) is None
    assert time.monotonic() - wall >= 0.25
    assert time.process_time() - cpu < 0.1
    # Writing to the peer that is gone drops the channel, silently.
    one.send(0, ("c", 1, 1, ("acks", 1, [])))
    one.send(0, ("c", 1, 2, ("acks", 1, [])))
    assert 0 not in one._backlog


def test_the_parents_stop_reaches_a_running_ring():
    """Two workers on the mesh, each in a thread of this process: the
    ring is running (events executed, no commit that ends it) when the
    parent's stop goes out on the control pipes, and both report."""
    channels = _Pipes(multiprocessing.get_context(), 2)
    machines = [ProcsMachine(build_fsm(cells=12, cycles=100000)
                             .design.elaborate(), 2,
                             protocol="optimistic")
                for _ in range(2)]
    threads = [threading.Thread(
        target=machine._serve,
        args=(index, channels.ends[index], channels.results, ()),
        daemon=True) for index, machine in enumerate(machines)]
    for thread in threads:
        thread.start()
    try:
        deadline = time.monotonic() + 20.0
        while any(getattr(machine, "_proc", None) is None
                  or machine._proc.stats.events_executed == 0
                  for machine in machines):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        channels.stop()
        reports = [channels.results.get(timeout=20.0) for _ in range(2)]
    finally:
        channels.stop()
        for thread in threads:
            thread.join(timeout=20.0)
        channels.close()
        for machine in machines:
            machine._mesh.close()
    assert sorted(report[1] for report in reports) == [0, 1]
    for report in reports:
        assert report[0] == "done"
        assert report[4:] == (MINUS_INFINITY, 0, 0)  # the parent's stop
    assert not any(thread.is_alive() for thread in threads)
