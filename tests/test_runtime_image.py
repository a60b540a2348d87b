"""What of an ``LPRuntime`` survives a crash: ``image()`` / ``restore()``.

A runtime images itself, so "what a runtime is" and "what a durable
checkpoint carries" are decided in one class.  The guard below walks
``LPRuntime.__slots__``: every slot is either wiring (fixed for life,
or rebuilt by ``restore_processor``) or comes back from the image.  A
slot added later that is neither imaged nor named here fails it.
"""

import pickle

import pytest

from repro.core.event import EventId
from repro.core.model import SyncMode
from repro.core.vtime import VirtualTime
from repro.parallel.engine import LPRuntime, ProtocolError

from tests.test_parallel_engine import build, ev

#: The slots an image leaves out: the LP and its place in the graph,
#: fixed at construction, and ``armed``, which ``restore_processor``
#: rebuilds from the restored ready heap.
WIRING = {"lp", "dynamic", "preds", "succs", "blockable", "armed"}


class _Fresh:
    """A value no image holds."""


def populated_runtime():
    """An optimistic runtime mid-run, with every durable slot holding
    something other than its initial value."""
    proc, (lp, _sink), (rt, _), _sent = build(
        [SyncMode.OPTIMISTIC, SyncMode.OPTIMISTIC], targets={0: 1})
    for pt in (1, 2, 3):
        proc.seed(ev(0, pt, payload=pt))
    while proc.act():
        pass
    for pt in (7, 8):
        proc.seed(ev(0, pt, payload=pt))
    assert rt.processed and rt.queue and lp.now == VirtualTime(3, 0)
    rt.mode = SyncMode.CONSERVATIVE
    rt.cons_epoch = 3
    rt.cancelled = {EventId(99, 8)}
    rt.negatives = {EventId(99, 9): ev(0, 9, seq=9).antimessage()}
    rt.channel_clocks = {99: (2, VirtualTime(4, 0))}
    rt.last_null_promise = {1: VirtualTime(5, 1)}
    rt.withheld = [ev(1, 6, src=0, seq=40)]
    rt.reuse_pending = [ev(1, 7, src=0, seq=41)]
    rt.release_floor = VirtualTime(2, 0)
    rt.window_executed, rt.window_squashed = 5, 2
    rt.blocked_streak, rt.since_switch, rt.since_snapshot = 1, 4, 6
    return rt


def test_every_slot_is_imaged_or_wiring():
    rt = populated_runtime()
    image = rt.image()
    for name in LPRuntime.__slots__:
        if name in WIRING:
            continue
        imaged = getattr(rt, name)
        setattr(rt, name, _Fresh())
        rt.restore(image)
        assert getattr(rt, name) == imaged, name
    assert rt.image() == image


def test_the_lp_comes_back_and_the_image_is_never_aliased():
    rt = populated_runtime()
    image = rt.image()
    log, now, seq = list(rt.lp.log), rt.lp.now, rt.lp._seq
    rt.lp.memory["log"].append("later")
    rt.lp.now = VirtualTime(50, 0)
    rt.lp._outbox.append(ev(1, 51, src=0, seq=99))
    rt.restore(image)
    assert (rt.lp.log, rt.lp.now, rt.lp._seq) == (log, now, seq)
    assert rt.lp._outbox == []
    # Containers are copied on both sides: mutating the live runtime
    # never reaches an image that a later checkpoint may share.
    rt.queue.clear()
    rt.processed[0].sent.append("later")
    rt.withheld.append("later")
    assert rt.image() != image
    rt.restore(image)
    assert rt.image() == image
    assert pickle.loads(pickle.dumps(image, -1)) == image


def test_a_heavy_state_lp_cannot_be_imaged():
    rt = populated_runtime()
    rt.lp.checkpointable = False
    with pytest.raises(ProtocolError, match="durably checkpointable"):
        rt.image()
