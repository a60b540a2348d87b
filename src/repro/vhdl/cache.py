"""Content-addressed on-disk elaboration cache.

Elaborating a design is the expensive, run-independent half
of a simulation.  The cache stores :class:`~repro.vhdl.artifact.
DesignArtifact` blobs keyed by their content hash — a pure function of
the elaboration inputs (:func:`~repro.vhdl.artifact.artifact_key`) —
so a hit soundly skips parse and elaborate and goes straight
to ``instantiate()``.

Robustness properties (all under test):

* **atomic put** — entries are written to a temp file and ``rename``d
  into place, so a crashed writer never leaves a half-entry visible;
* **corruption recovery** — a truncated or bit-flipped entry fails the
  artifact's payload digest check on read; the entry is evicted and
  the caller falls back to a cold elaboration (a miss, never an error);
* **bounded size** — ``max_entries`` LRU eviction by access time.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, Optional, Tuple, Union

from .artifact import ArtifactError, DesignArtifact, artifact_key

#: Default cache location (override per-instance or via REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.path.join(
    os.path.expanduser("~"), ".cache", "repro", "elab")

_SUFFIX = ".artifact"


class ElabCache:
    """A directory of content-addressed artifact blobs."""

    def __init__(self, root: Optional[str] = None,
                 max_entries: int = 256) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = root
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, content_hash: str) -> str:
        if not content_hash or os.sep in content_hash:
            raise ValueError(f"bad cache key {content_hash!r}")
        return os.path.join(self.root, content_hash + _SUFFIX)

    def get(self, content_hash: str) -> Optional[DesignArtifact]:
        """The cached artifact, or None on miss *or damaged entry*."""
        path = self._path(content_hash)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            artifact = DesignArtifact.from_bytes(blob)
            if artifact.content_hash != content_hash:
                raise ArtifactError(
                    f"entry {content_hash[:12]} holds artifact "
                    f"{artifact.content_hash[:12]} (misfiled)")
        except ArtifactError:
            # A corrupt entry must behave as a miss: evict it so the
            # re-elaborated artifact can be re-put cleanly.
            self._evict(path)
            self.misses += 1
            return None
        self._touch(path)
        self.hits += 1
        return artifact

    def put(self, artifact: DesignArtifact) -> str:
        """Store ``artifact`` atomically; returns the entry path."""
        path = self._path(artifact.content_hash)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(artifact.to_bytes())
            os.replace(tmp, path)  # atomic on POSIX
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._prune()
        return path

    # ------------------------------------------------------------------
    def entries(self) -> Dict[str, int]:
        """Hash -> size in bytes for every (well-named) entry."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return {}
        out = {}
        for name in sorted(names):
            if name.endswith(_SUFFIX):
                try:
                    out[name[:-len(_SUFFIX)]] = os.path.getsize(
                        os.path.join(self.root, name))
                except OSError:
                    continue
        return out

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for content_hash in list(self.entries()):
            if self._evict(self._path(content_hash)):
                removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.entries())}

    # ------------------------------------------------------------------
    def _touch(self, path: str) -> None:
        try:
            os.utime(path, None)  # refresh LRU access time
        except OSError:
            pass

    def _evict(self, path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _prune(self) -> None:
        """LRU-evict down to ``max_entries`` (oldest mtime first)."""
        try:
            names = [n for n in os.listdir(self.root)
                     if n.endswith(_SUFFIX)]
        except OSError:
            return
        if len(names) <= self.max_entries:
            return
        aged = []
        for name in names:
            path = os.path.join(self.root, name)
            try:
                aged.append((os.path.getmtime(path), name, path))
            except OSError:
                continue
        aged.sort()
        for _mtime, _name, path in aged[:len(aged) - self.max_entries]:
            self._evict(path)


def cached_elaborate(source: str, top: str,
                     generics: Optional[Dict[str, Any]] = None,
                     traced: Union[bool, Tuple[str, ...]] = True,
                     name: Optional[str] = None,
                     cache: Optional[ElabCache] = None,
                     ) -> Tuple[DesignArtifact, bool]:
    """Elaborate VHDL source through the cache.

    Returns ``(artifact, hit)``.  The key is computed *without*
    elaborating, so a hit never touches the parser; a miss elaborates
    cold via :func:`~repro.vhdl.artifact.build_artifact` and stores
    the result for the next caller.
    """
    from .artifact import build_artifact

    cache = cache if cache is not None else ElabCache()
    key = artifact_key(source, top, generics=generics, traced=traced)
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    artifact = build_artifact(source, top, generics=generics,
                              traced=traced, name=name)
    cache.put(artifact)
    return artifact, False
