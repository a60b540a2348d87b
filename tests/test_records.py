"""Per-event records: dataclass-era value semantics at slot speed.

``Event``, ``Assignment``, ``Wait``, ``Packet`` and ``Token`` are built
once per event, per signal assignment, per process resume, per
transmitted copy and per lexeme.  They are slots records
(:class:`repro.core.record.Record`) instead of frozen dataclasses; these
tests pin that nothing observable changed: equality, hashing, ``repr``
and event ordering match a reference built from the field tuple the way
the dataclasses built them, pickles round-trip and stay compact, and no
pristine design artifact pickles one of them (so the change to slots
records needed no bump of the artifact format in ``MAGIC``).  A frozen
dataclass refused field writes at run time; for the records a scan of
the package source keeps that rule.
"""

import ast
import dataclasses
import io
import pickle
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.circuits import build_dct, build_fsm, build_iir, fsm_vhdl, \
    iir_vhdl
from repro.core.event import Event, EventId, EventKind
from repro.core.record import Record
from repro.core.vtime import VirtualTime
from repro.fabric.transport import Packet
from repro.vhdl.artifact import MAGIC, build_artifact
from repro.vhdl.frontend.lexer import Token
from repro.vhdl.process import Wait
from repro.vhdl.signal import Assignment

RECORDS = (Event, Assignment, Wait, Packet, Token)

# ---------------------------------------------------------------------------
# Field strategies
# ---------------------------------------------------------------------------
vtimes = st.builds(VirtualTime, st.integers(0, 10**6), st.integers(0, 99))
scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                    st.text(max_size=3))
eids = st.one_of(st.none(), st.builds(EventId, st.integers(0, 50),
                                      st.integers(0, 10**4)))
waveforms = st.lists(st.tuples(scalars, st.integers(0, 100)),
                     max_size=3).map(tuple)
assignments = st.builds(Assignment, waveforms, st.booleans(),
                        st.one_of(st.none(), st.integers(0, 50)))
events = st.builds(
    Event, vtimes, st.sampled_from(list(EventKind)), st.integers(0, 50),
    st.integers(0, 50), st.one_of(scalars, assignments),
    st.sampled_from([1, -1]), eids, vtimes, st.integers(-1, 5))
waits = st.builds(Wait, st.frozensets(st.integers(0, 20), max_size=4),
                  st.one_of(st.none(), st.just(bool)),
                  st.one_of(st.none(), st.integers(0, 10**6)))
packets = st.builds(Packet, st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    st.integers(0, 10**5), events)
tokens = st.builds(Token, st.sampled_from(["id", "kw", "int", "delim"]),
                   scalars, st.integers(1, 500), st.integers(1, 80))
INSTANCES = {Event: events, Assignment: assignments, Wait: waits,
             Packet: packets, Token: tokens}
any_record = st.one_of(*INSTANCES.values())


def _dataclass_of(cls):
    """The frozen dataclass ``cls`` used to be: same name, same fields."""
    namespace = {}
    if cls is Token:  # the lexer's own debugging repr, unchanged
        namespace["__repr__"] = lambda self: (
            f"Token({self.kind}, {self.value!r}, {self.line})")
    return dataclasses.make_dataclass(cls.__qualname__, cls.__slots__,
                                      frozen=True, namespace=namespace)


DATACLASSES = {cls: _dataclass_of(cls) for cls in RECORDS}


def reference(record):
    """``record`` as the dataclass-era instance with the same fields."""
    cls = type(record)
    return DATACLASSES[cls](*(getattr(record, name)
                              for name in cls.__slots__))


def reference_sort_key(event):
    """``Event.sort_key`` as the dataclass computed it."""
    eid = event.eid or EventId(event.src, -1)
    return (event.time, int(event.kind), eid.src, eid.seq, event.sign)


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------
class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_eq_hash_repr_match_the_dataclass(self, data):
        cls = data.draw(st.sampled_from(RECORDS))
        first = data.draw(INSTANCES[cls])
        second = data.draw(st.one_of(INSTANCES[cls], st.just(first)))
        ref_first, ref_second = reference(first), reference(second)
        assert repr(first) == repr(ref_first)
        assert hash(first) == hash(ref_first)
        assert (first == second) == (ref_first == ref_second)
        assert (first != second) == (ref_first != ref_second)
        twin = cls(*(getattr(first, name) for name in cls.__slots__))
        assert twin == first and hash(twin) == hash(first)

    @settings(max_examples=100, deadline=None)
    @given(any_record, any_record)
    def test_no_equality_across_classes(self, first, second):
        if type(first) is not type(second):
            assert first != second
            assert not first == second

    @settings(max_examples=150, deadline=None)
    @given(events, events)
    def test_event_order_unchanged(self, first, second):
        assert first.sort_key() == reference_sort_key(first)
        assert (first < second) == (reference_sort_key(first)
                                     < reference_sort_key(second))
        assert (first > second) == (reference_sort_key(first)
                                     > reference_sort_key(second))

    def test_keyword_construction_and_defaults(self):
        event = Event(time=VirtualTime(1, 0), kind=EventKind.USER,
                      dst=2, src=3)
        assert (event.payload, event.sign, event.eid, event.send_time,
                event.epoch) == (None, 1, None, VirtualTime(0, 0), -1)
        assert Assignment(((1, 0),)) == Assignment(
            waveform=((1, 0),), transport=False, reject=None)
        assert Wait() == Wait.forever() and Wait().is_forever
        assert Wait(for_fs=0) == Wait(frozenset(), None, 0)
        assert Packet(link=(0, 1), seq=2, event=event).time == event.time
        assert Token("id", "x", 1, 2) == Token(kind="id", value="x",
                                               line=1, column=2)

    def test_antimessage_and_stamp_copy_every_other_field(self):
        event = Event(VirtualTime(4, 2), EventKind.SIGNAL_UPDATE, 1, 2,
                      (3, "v"), 1, EventId(2, 8), VirtualTime(4, 1), 5)
        anti = event.antimessage()
        assert (anti.sign, anti.epoch) == (-1, -1)
        assert (anti.time, anti.kind, anti.dst, anti.src, anti.payload,
                anti.eid, anti.send_time) == (
            event.time, event.kind, event.dst, event.src, event.payload,
            event.eid, event.send_time)
        assert event.stamped(9) == Event(*(
            getattr(event, name) for name in Event.__slots__[:-1]), 9)


# ---------------------------------------------------------------------------
# Pickles
# ---------------------------------------------------------------------------
class TestPickle:
    @settings(max_examples=100, deadline=None)
    @given(any_record)
    def test_round_trip_compares_equal(self, record):
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            clone = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_instances_have_no_dict(self, cls):
        record = {Event: Event(VirtualTime(0, 0), EventKind.USER, 0, 0),
                  Assignment: Assignment(((1, 0),)), Wait: Wait(),
                  Packet: Packet((0, 1), 0, None),
                  Token: Token("eof", None, 1, 1)}[cls]
        assert not hasattr(record, "__dict__")

    def test_event_batch_pickles_compactly(self):
        batch = [Event(VirtualTime(1000 * i, i % 9),
                       EventKind.SIGNAL_UPDATE, i % 13, 40 + i % 7,
                       (i % 11, i % 2), 1, EventId(40 + i % 7, 10**4 + i),
                       VirtualTime(1000 * i, 0), -1)
                 for i in range(100)]
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) / len(batch) <= 64
        assert pickle.loads(blob) == batch


class _GlobalsSeen(pickle.Unpickler):
    """An unpickler that records every global a payload names."""

    def __init__(self, payload: bytes) -> None:
        super().__init__(io.BytesIO(payload))
        self.seen: set = set()

    def find_class(self, module: str, name: str) -> Any:
        self.seen.add((module, name))
        return super().find_class(module, name)


PRISTINE = {
    "fsm-gate": lambda: build_fsm(cells=6, cycles=2).design.artifact(),
    "iir-gate": lambda: build_iir(samples=[3, 200]).design.artifact(),
    "dct-gate": lambda: build_dct(n=2).design.artifact(),
    "fsm-vhdl": lambda: build_artifact(fsm_vhdl(4, 4), "fsm_ring"),
    "iir-vhdl": lambda: build_artifact(iir_vhdl(cycles=4), "iir_bank"),
}


@pytest.mark.parametrize("name", sorted(PRISTINE))
def test_pristine_artifacts_pickle_no_record(name):
    """No artifact holds a record, so records becoming slots classes
    left the artifact format alone; ``MAGIC`` moved to format 2 only
    when process bodies started to be handed their ``ProcessLP``."""
    unpickler = _GlobalsSeen(PRISTINE[name]().payload)
    unpickler.load()
    assert unpickler.seen  # the scan saw the payload's classes
    for record in RECORDS:
        assert (record.__module__, record.__qualname__) not in unpickler.seen
    assert MAGIC == b"repro-artifact\x002\n"


# ---------------------------------------------------------------------------
# Immutability: no field is written after __init__
# ---------------------------------------------------------------------------
# A frozen dataclass raised on a field write; a record does not (a
# ``__setattr__`` guard would cost what the slots bought).  Records are
# dict keys and set members in the engine and the fabric, so the rule
# is kept by reading the source instead: every write to an attribute
# named like a record field is ``self.<field>`` inside a class that is
# not a record, ``self.<field>`` inside a record's own ``__init__``, or
# listed below as a write to some other object.
SRC = Path(repro.__file__).parent

#: (module, function, target) of writes to a non-record attribute that
#: shares a record field's name, or of a dynamic ``setattr``.
NOT_A_RECORD = {
    ("parallel/engine.py", "build_engine", "proc.until"),  # Processor
    ("vhdl/signal.py", "restore", "driver.waveform"),  # Driver
    ("parallel/backend.py", "harvest", "setattr(lp, ...)"),  # an LP
}

SETTERS = {"setattr", "object.__setattr__"}


def _writes(tree: ast.AST):
    """``(class, function, target, attribute)`` per attribute store,
    ``del`` and ``setattr`` call in ``tree`` (attribute ``None`` for a
    ``setattr``: its name is not known statically)."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append((cls, fn, ast.unparse(node), node.attr))
        elif (isinstance(node, ast.Call)
              and ast.unparse(node.func) in SETTERS and node.args):
            found.append((cls, fn, f"setattr({ast.unparse(node.args[0])}"
                          ", ...)", None))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def _record_writes(module: str, tree: ast.AST):
    """The writes in ``tree`` that may touch a record's field."""
    fields = {name for cls in RECORDS for name in cls.__slots__}
    records = {cls.__name__ for cls in RECORDS}
    for cls, fn, target, attr in _writes(tree):
        if attr is not None and attr not in fields:
            continue
        if attr is None and target.startswith("setattr(self,") \
                and cls not in records:
            continue
        if target == f"self.{attr}" and (cls not in records
                                         or fn == "__init__"):
            continue
        if (module, fn, target) in NOT_A_RECORD:
            continue
        yield f"{module}: {cls}.{fn} writes {target}"


def test_every_record_is_scanned():
    assert set(Record.__subclasses__()) == set(RECORDS)


def test_no_record_field_is_written_after_init():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        offenders += _record_writes(module, ast.parse(path.read_text()))
    assert offenders == []


@pytest.mark.parametrize("snippet", [
    "def f(event):\n    event.time = 3\n",
    "def f(event):\n    del event.payload\n",
    "def f(p):\n    object.__setattr__(p, 'seq', 1)\n",
    "class Event:\n    def stamp(self):\n        self.epoch = 2\n",
])
def test_the_scan_sees_a_field_write(snippet):
    assert list(_record_writes("x.py", ast.parse(snippet)))

