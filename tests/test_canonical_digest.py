"""Content hashes are pinned exactly, in tier-1.

:func:`~repro.vhdl.artifact.canonical` is the substrate of every content
address in the repo — the ``design_manifest`` digest behind
``Design.artifact()`` and the :func:`~repro.vhdl.artifact.artifact_key`
of the on-disk elaboration cache.  A faster encoder is welcome; a
different digest silently orphans every cache entry and memo key.
``tests/data/canonical_digest_golden.json`` holds, at fixed seeds, the
manifest digest of every :func:`~repro.harness.check.build_circuit`
family (plus the behavioural gate builders and the dct), the
``artifact_key`` of every ``circuits/vhdl_text.py`` source, and the
digests of hand-picked edge cases (nested sets, floats, bytes, enums,
a reference cycle, the per-event records).  Every commit must reproduce
them bit for bit.

A builder design's ``DesignArtifact.content_hash`` is computed on
first read, from the pickled payload; each design case also checks that
value, on the artifact itself and on an un-hashed artifact that crossed
a pickle round-trip.

Regenerate (only for a change that is *allowed* to move content
hashes, which also orphans existing caches)::

    PYTHONPATH=src python tests/test_canonical_digest.py
"""

import json
import pickle
import types
from pathlib import Path

import pytest

from repro.circuits import (build_dct, build_fsm, build_iir, fsm_vhdl,
                            iir_vhdl, random_behavioral_vhdl)
from repro.core.event import Event, EventId, EventKind
from repro.core.record import Record
from repro.core.vtime import VirtualTime
from repro.fabric.transport import Packet
from repro.harness.check import CIRCUITS, build_circuit
from repro.vhdl.artifact import artifact_key, canonical_digest, \
    design_manifest
from repro.vhdl.frontend.lexer import Token
from repro.vhdl.process import Wait
from repro.vhdl.signal import Assignment, Driver, _Transaction

GOLDEN = Path(__file__).parent / "data" / "canonical_digest_golden.json"

#: (label, builder) per design whose structural manifest is pinned.
DESIGNS = (
    [(f"{name}/seed{seed}", (lambda n=name, s=seed: build_circuit(n, s)))
     for name in sorted(CIRCUITS)
     for seed in ((0, 1, 2) if name in ("random", "behav") else (0,))]
    + [("fsm-behavioral", lambda: build_fsm(cells=6, cycles=4,
                                            level="behavioral").design),
       ("iir-behavioral", lambda: build_iir(level="behavioral").design),
       ("dct-gate-2", lambda: build_dct(n=2).design),
       ("dct-behavioral-2", lambda: build_dct(n=2,
                                              level="behavioral").design)])

#: (label, artifact_key arguments) per pinned VHDL source.
SOURCES = (
    ("fsm_vhdl-4x4", (fsm_vhdl(4, 4), "fsm_ring"), {}),
    ("fsm_vhdl-8x32", (fsm_vhdl(8, 32), "fsm_ring"), {}),
    ("iir_vhdl-default", (iir_vhdl(), "iir_bank"), {}),
    ("iir_vhdl-2x8x24", (iir_vhdl(chans=2, sections=8, cycles=24),
                         "iir_bank"), {}),
    ("random_behavioral_vhdl-0", (random_behavioral_vhdl(0),
                                  "behav_rand"), {}),
    ("random_behavioral_vhdl-7", (random_behavioral_vhdl(7, processes=5),
                                  "behav_rand"), {}),
    ("fsm_vhdl-generics-traced", (fsm_vhdl(4, 4), "fsm_ring"),
     {"generics": {"width": 8, "name": "x", "ratio": 0.5},
      "traced": ("b", "a")}),
    ("fsm_vhdl-untraced", (fsm_vhdl(4, 4), "fsm_ring"),
     {"traced": False}),
)


def _cycle():
    node = types.SimpleNamespace(name="loop", payload=[1, 2.5])
    node.me = node
    return node


def _driver():
    driver = Driver(0)
    driver.waveform.append(_Transaction(5, 1))
    return driver


EVENT = Event(time=VirtualTime(10, 3), kind=EventKind.SIGNAL_ASSIGN,
              dst=4, src=2, payload=Assignment(((1, 0), (0, 5)), True, 2),
              eid=EventId(2, 9), send_time=VirtualTime(10, 2), epoch=3)

#: (label, object) per pinned edge case of the encoder.
EDGES = (
    ("scalars", [None, True, False, 0, -1, 2 ** 70, "", "aé\n\"",
                 "\U0001f600"]),
    ("floats", [0.1, -0.0, 1e300, float("inf"), float("-inf"), 3.0]),
    ("bytes", [b"", b"\x00\xffab"]),
    ("enums", [EventKind.NULL, EventKind.USER, {EventKind.USER: 1}]),
    ("nested-sets", {frozenset({1, 2}), frozenset({"a", (1, "b")}),
                     frozenset()}),
    ("set-of-mixed", {1, "1", True, None, 2.5, (1, 2), b"x"}),
    ("dict-keys", {1: "i", "1": "s", None: "n", True: "t", 2.5: "f",
                   (1, 2): "tuple", b"k": "bytes", -7: "neg",
                   "é": "unicode", EventKind.USER: "enum"}),
    ("nested-dicts", {"a": {"b": {"c": [1, {2, 3}, (4, 5)]}},
                      "z": {}, "y": []}),
    ("cycle", _cycle()),
    ("slots", _driver()),
    ("types", [int, Event, canonical_digest, len]),
    ("vtime", [VirtualTime(0, 0), VirtualTime(7, 5)]),
    ("event", EVENT),
    ("antimessage", EVENT.antimessage()),
    ("event-defaults", Event(VirtualTime(1, 1), EventKind.USER, 0, 1)),
    ("assignment", Assignment(((1, 0),))),
    ("wait", [Wait(), Wait(on=frozenset({3, 1}), for_fs=0)]),
    ("packet", Packet((0, 1), 17, EVENT)),
    ("token", [Token("id", "clk", 3, 7), Token("eof", None, 9, 1)]),
)


def compute():
    return {
        "design_manifest": {label: canonical_digest(design_manifest(build()))
                            for label, build in DESIGNS},
        "artifact_key": {label: artifact_key(*args, **kwargs)
                         for label, args, kwargs in SOURCES},
        "edge": {label: canonical_digest(obj) for label, obj in EDGES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label,build", DESIGNS,
                         ids=[label for label, _ in DESIGNS])
def test_design_manifest_digest(golden, label, build):
    want = golden["design_manifest"][label]
    assert canonical_digest(design_manifest(build())) == want
    assert build().artifact().content_hash == want
    unhashed = build().artifact()
    assert unhashed._content_hash is None
    shipped = pickle.loads(pickle.dumps(unhashed))
    assert shipped._content_hash is None
    assert shipped.content_hash == want


@pytest.mark.parametrize("label,args,kwargs", SOURCES,
                         ids=[label for label, _, _ in SOURCES])
def test_artifact_key(golden, label, args, kwargs):
    assert artifact_key(*args, **kwargs) == golden["artifact_key"][label]


@pytest.mark.parametrize("label,obj", EDGES,
                         ids=[label for label, _ in EDGES])
def test_edge_case_digest(golden, label, obj):
    assert canonical_digest(obj) == golden["edge"][label]


def test_records_define_their_own_state():
    """A record's digest comes from its own ``__getstate__``, never
    from ``object.__getstate__``."""
    for cls in (Event, Assignment, Wait, Packet, Token):
        assert issubclass(cls, Record)
        assert cls.__getstate__ is Record.__getstate__


def test_golden_covers_every_case(golden):
    assert set(golden["design_manifest"]) == {l for l, _ in DESIGNS}
    assert set(golden["artifact_key"]) == {l for l, _, _ in SOURCES}
    assert set(golden["edge"]) == {l for l, _ in EDGES}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
