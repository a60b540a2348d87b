"""Immutable, content-addressed elaboration artifacts.

The paper's premise (Sec. 3) is that one elaborated design — the
bi-partite process/signal LP graph — is simulated many times under many
configurations.  Until this module existed the repo conflated the two
phases: a :class:`~repro.vhdl.design.Design` carried *live mutable* LP
state, so every run had to re-parse, re-elaborate and re-lower its
source, and the procs backend could only ship the graph to workers by
``fork``-inheriting an already-built machine.

:class:`DesignArtifact` splits elaboration from runtime:

* it is an **immutable snapshot** of the post-elaboration LP graph —
  signal topology, channel wiring, initial values, process ASTs /
  compiled bodies — taken *before* any engine touches the model;
* it is **picklable**, so it crosses process boundaries under any
  ``multiprocessing`` start method (``spawn`` workers receive the
  artifact and build their own runtime locally — no fork inheritance);
* it is **content-addressed**: :func:`artifact_key` derives a stable
  SHA-256 from the elaboration *inputs* (source text, top entity,
  generics, trace selection), independent of
  ``PYTHONHASHSEED``, dict iteration order, object identity or
  ``repr()`` formatting — the key of the on-disk elaboration cache
  (:mod:`repro.vhdl.cache`);
* :meth:`DesignArtifact.instantiate` produces a **fresh mutable
  runtime** (a new ``Design`` whose ``Model`` + LP instances share
  nothing with any other instantiation), so one artifact feeds any
  number of concurrent runs on any backend.

Programmatic designs (the benchmark circuits) get the same treatment
through :meth:`DesignArtifact.from_design` / ``Design.artifact()``:
their content hash is the digest of a canonical *structural* manifest
of the LP graph rather than a source digest.  Nothing on the run path reads it, so it
is computed on first read of ``content_hash``, not at snapshot time.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple, Union

#: Framing magic for the on-disk serialization (see :meth:`to_bytes`).
#: The digit is the payload format: bumped whenever an entry written by
#: an older package would no longer unpickle, so it reads as a miss.
MAGIC = b"repro-artifact\x002\n"


class ArtifactError(RuntimeError):
    """The design cannot be snapshotted or the artifact is damaged."""


# ---------------------------------------------------------------------------
# Canonical serialization (the hash substrate)
# ---------------------------------------------------------------------------
#: Types :func:`canonical` returns as they are (exact types only).
_LEAVES = frozenset({str, int, bool, type(None)})


def canonical(obj: Any, _path: Optional[set] = None) -> Any:
    """Reduce ``obj`` to a JSON-able structure deterministically.

    The reduction is independent of ``PYTHONHASHSEED`` (sets are
    sorted by their members' canonical JSON encoding, dicts by key),
    of object identity (no ``id()``) and of ``repr()`` formatting.
    Functions and classes reduce to ``module:qualname``; objects
    reduce to their class plus a sorted attribute map (via
    ``__getstate__`` when defined).  Reference cycles collapse to a
    marker instead of recursing forever.
    """
    kind = type(obj)
    # The common leaves and sequences first, by exact type; subclasses
    # (IntEnum, named tuples) take the isinstance chain below.
    if kind in _LEAVES:
        return obj
    if kind is list or kind is tuple:
        return [x if type(x) in _LEAVES else canonical(x, _path)
                for x in obj]
    if isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() of a float is the shortest round-tripping literal —
        # deterministic across processes, unlike binary formatting
        # choices left to json implementations.
        return ["f", repr(obj)]
    if isinstance(obj, bytes):
        return ["b", obj.hex()]
    if isinstance(obj, Enum):
        return ["enum", type(obj).__qualname__, obj.name]
    if isinstance(obj, (list, tuple)):
        return [canonical(x, _path) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(_sort_key(x, _path) for x in obj)]
    if isinstance(obj, dict):
        items = [(_sort_key(k, _path), canonical(v, _path))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: kv[0])
        return ["map", [[k, v] for k, v in items]]
    if isinstance(obj, type):
        return ["class", obj.__module__, obj.__qualname__]
    if callable(obj) and hasattr(obj, "__qualname__"):
        return ["fn", getattr(obj, "__module__", "?"), obj.__qualname__]
    # Generic object: class identity + canonical state.  A cycle on
    # the current recursion path (an object whose state reaches back
    # to the object itself) collapses to a marker — the enclosing
    # structure still encodes which objects participate.
    if _path is None:
        _path = set()
    marker = id(obj)
    if marker in _path:
        return ["cycle", type(obj).__qualname__]
    _path.add(marker)
    try:
        getstate = getattr(obj, "__getstate__", None)
        if getstate is not None and type(obj).__module__ != "builtins":
            try:
                state = getstate()
            except TypeError:
                state = None
        else:
            state = None
        if state is None:
            if hasattr(obj, "__dict__"):
                state = obj.__dict__
            else:
                state = {slot: getattr(obj, slot)
                         for slot in getattr(type(obj), "__slots__", ())
                         if hasattr(obj, slot)}
        return ["obj", type(obj).__module__, type(obj).__qualname__,
                canonical(state, _path)]
    finally:
        _path.discard(marker)


_encode_str = json.encoder.encode_basestring_ascii
_encode_int = int.__repr__


def _sort_key(obj: Any, _path: Optional[set]) -> str:
    """``json.dumps(canonical(obj), sort_keys=True)``: how set members
    and dict keys sort.  Plain ``str`` and ``int`` keys are encoded
    directly, with the functions ``json.dumps`` itself uses for them."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return _encode_int(obj)
    return json.dumps(canonical(obj, _path), sort_keys=True)


def canonical_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``obj``."""
    return _digest(canonical(obj))


def _digest(form: Any) -> str:
    """SHA-256 over the JSON encoding of an already canonical ``form``.

    :func:`canonical` is idempotent on its own output, so for such a
    form this equals ``canonical_digest(form)`` without the second
    walk.  A canonical form holds no dicts, so no key sorting either.
    """
    payload = json.dumps(form, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _map(entries: Dict[str, Any]) -> List[Any]:
    """:func:`canonical` of a dict whose keys are ``str`` and whose
    values are already canonical."""
    return ["map", sorted([_encode_str(key), value]
                          for key, value in entries.items())]


def artifact_key(source: str, top: str,
                 generics: Optional[Dict[str, Any]] = None,
                 traced: Union[bool, Tuple[str, ...]] = True) -> str:
    """Content address of an elaboration: a pure function of its inputs.

    Two processes (any ``PYTHONHASHSEED``) elaborating the same source
    with the same top entity, generic overrides and trace selection
    compute the same key — so a cache hit soundly skips parse +
    elaborate.  How process bodies execute is a run's choice, not the
    artifact's (``exec_mode`` of :func:`~repro.vhdl.kernel.simulate`).
    """
    if isinstance(traced, (list, tuple)):
        traced = tuple(sorted(traced))
    return canonical_digest({
        "kind": "vhdl-source",
        "source": source,
        "top": top,
        "generics": dict(generics or {}),
        "traced": traced,
    })


def design_manifest(design) -> List[Any]:
    """Canonical structural manifest of an elaborated LP graph.

    Used to content-address *programmatic* designs (no source text to
    hash): LP inventory with configuration, channel wiring with
    lookahead, and per-LP sync modes — everything
    :meth:`DesignArtifact.instantiate` reproduces.  It is built in
    canonical form (what :func:`canonical` makes of the equivalent
    dict), so digesting it takes no second walk.
    """
    model = design.model
    lps = []
    for lp in model.lps:
        entry: Dict[str, Any] = {
            "id": lp.lp_id, "name": lp.name,
            "cls": type(lp).__qualname__,
        }
        body = getattr(lp, "body", None)
        if body is not None:
            entry["body"] = canonical(body)
        initial = getattr(lp, "initial", _MISSING)
        if initial is not _MISSING:
            entry["initial"] = canonical(initial)
            entry["traced"] = bool(getattr(lp, "traced", False))
            entry["readers"] = sorted(getattr(lp, "readers", ()))
            entry["drivers"] = sorted(getattr(lp, "drivers", ()))
        lps.append(_map(entry))
    return _map({
        "kind": "design-structure",
        "name": design.name,
        "lps": lps,
        "channels": sorted(
            [src, dst, canonical(channel.lookahead)]
            for (src, dst), channel in model.channels.items()),
        "modes": sorted(
            [lp_id, mode.name]
            for lp_id, mode in model.sync_modes.items()),
    })


class _MISSING:  # sentinel ("initial" may legitimately be None)
    pass


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------
class DesignArtifact:
    """An immutable, picklable, content-addressed elaboration snapshot.

    ``payload`` is the pickled post-elaboration :class:`Design`;
    :meth:`instantiate` unpickles a fresh, fully independent mutable
    copy.  ``content_hash`` addresses the artifact (cache key);
    ``meta`` records the elaboration inputs and graph inventory.
    """

    __slots__ = ("name", "_content_hash", "meta", "payload")

    def __init__(self, name: str, content_hash: Optional[str],
                 payload: bytes, meta: Optional[Dict] = None) -> None:
        self.name = name
        self._content_hash = content_hash
        self.payload = payload
        self.meta = dict(meta or {})

    @property
    def content_hash(self) -> str:
        """The artifact's address; for a builder design, the digest of
        its :func:`design_manifest`, computed on first read from a
        fresh copy of the payload and then kept (a pickled artifact
        carries it, or ``None`` if it was never read)."""
        # Two threads racing here compute the same digest; no lock.
        if self._content_hash is None:
            self._content_hash = _digest(
                design_manifest(pickle.loads(self.payload)))
        return self._content_hash

    # -- construction --------------------------------------------------
    @classmethod
    def from_design(cls, design, content_hash: Optional[str] = None,
                    meta: Optional[Dict] = None) -> "DesignArtifact":
        """Snapshot a built (un-simulated) Design into an artifact."""
        if getattr(design, "_simulated", False):
            raise ArtifactError(
                f"design {design.name!r} was already simulated; an "
                f"artifact must snapshot pristine post-elaboration "
                f"state (snapshot before running)")
        try:
            payload = pickle.dumps(design,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as failure:
            raise ArtifactError(
                f"design {design.name!r} is not picklable ({failure}); "
                f"process bodies must be module-level callables or "
                f"plain-data objects to cross a process boundary"
            ) from failure
        full_meta = {
            "signals": len(design.signals),
            "processes": len(design.processes),
            "lps": len(design.model),
            "channels": len(design.model.channels),
        }
        full_meta.update(meta or {})
        return cls(design.name, content_hash, payload, full_meta)

    # -- runtime -------------------------------------------------------
    def instantiate(self):
        """A fresh mutable runtime: new Design + Model + LP instances.

        Every call returns a fully independent copy; concurrent runs
        of the same artifact share nothing.
        """
        design = pickle.loads(self.payload)
        # The snapshot may have been taken after Design.elaborate();
        # the fresh copy is a new single-use runtime either way.
        design._elaborated = False
        design._simulated = False
        return design

    def instantiate_model(self):
        """Instantiate and finalize straight to a runnable Model."""
        return self.instantiate().elaborate()

    # -- introspection -------------------------------------------------
    def size_report(self) -> Dict[str, int]:
        return {key: self.meta.get(key, 0)
                for key in ("signals", "processes", "lps", "channels")}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DesignArtifact {self.name} "
                f"{self.content_hash[:12]} "
                f"{self.meta.get('lps', '?')} LPs>")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DesignArtifact)
                and other.content_hash == self.content_hash)

    def __hash__(self) -> int:
        return hash(self.content_hash)

    # -- serialization -------------------------------------------------
    def to_bytes(self) -> bytes:
        """Framed, integrity-checked serialization (cache file format).

        Layout: magic, JSON header line (name/hash/meta/payload
        digest), pickled design payload.  :meth:`from_bytes` verifies
        the payload digest so a truncated or bit-flipped cache entry
        is detected instead of deserialized.
        """
        header = json.dumps({
            "name": self.name,
            "content_hash": self.content_hash,
            "meta": self.meta,
            "payload_sha256": hashlib.sha256(self.payload).hexdigest(),
        }, sort_keys=True).encode("utf-8")
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(header)
        out.write(b"\n")
        out.write(self.payload)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DesignArtifact":
        if not blob.startswith(MAGIC):
            raise ArtifactError("not a repro artifact (bad magic)")
        body = blob[len(MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            raise ArtifactError("truncated artifact header")
        try:
            header = json.loads(body[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as failure:
            raise ArtifactError(
                f"corrupt artifact header: {failure}") from failure
        payload = body[newline + 1:]
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise ArtifactError(
                "artifact payload digest mismatch (corrupt entry)")
        return cls(header["name"], header["content_hash"], payload,
                   header.get("meta"))


def build_artifact(source: str, top: str,
                   generics: Optional[Dict[str, Any]] = None,
                   traced: Union[bool, Tuple[str, ...]] = True,
                   name: Optional[str] = None) -> DesignArtifact:
    """Parse + elaborate VHDL source into an artifact.

    The content hash is computed from the *inputs* via
    :func:`artifact_key`, so it is available without elaborating —
    which is exactly what lets :mod:`repro.vhdl.cache` skip this
    function entirely on a hit.
    """
    from .frontend import elaborate

    design = elaborate(source, top=top, generics=generics,
                       traced=traced, name=name)
    key = artifact_key(source, top, generics=generics, traced=traced)
    return DesignArtifact.from_design(
        design, content_hash=key,
        meta={"top": top, "generics": dict(generics or {})})
