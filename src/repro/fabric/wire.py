"""Length-prefixed pickle framing for the distributed backend.

One frame = an 8-byte header (magic, protocol version, payload length)
followed by a pickled Python object.  The framing is deliberately dumb:
*reliability* is not its job — sequence numbers, acks, retransmission,
dedup and journal replay all live in
:class:`repro.fabric.batched.BatchedEndpoint`, exactly as they do for
the in-process backends.  The wire layer only has to (a) delimit
messages on a byte stream and (b) fail loudly when the peer is not a
repro coordinator/worker of the same protocol version.

**Security note.**  Frames are pickles: deserializing one executes
arbitrary code by design (the coordinator ships real `Model` objects
with process-body callables to workers).  The dist backend is therefore
a *trusted-network* transport — run it on localhost, inside a private
network, or over an authenticated tunnel (ssh -L), never on an
internet-facing port.  See docs/distributed.md.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Tuple

#: Frame header: 4-byte magic, 1-byte version, 3 pad, 4-byte length.
_HEADER = struct.Struct(">4sB3xI")
MAGIC = b"RPRO"
#: 2: checkpoint uploads are numbered keyframes/deltas and ``restore``
#: carries a chain of them (see docs/distributed.md).
VERSION = 2
HEADER_SIZE = _HEADER.size

#: Hard ceiling on a single frame (a pickled model for a large design
#: is a few MB; 256 MB means a corrupt length field fails fast instead
#: of attempting a giant allocation).
MAX_FRAME = 256 * 1024 * 1024


class WireError(Exception):
    """A malformed or incompatible frame arrived on the stream."""


def encode_frame(obj: Any) -> bytes:
    """Serialize one object into a self-delimiting frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte ceiling")
    return _HEADER.pack(MAGIC, VERSION, len(payload)) + payload


def decode_header(header: bytes) -> int:
    """Validate a frame header; return the payload length."""
    if len(header) != HEADER_SIZE:
        raise WireError(
            f"short frame header ({len(header)}/{HEADER_SIZE} bytes)")
    magic, version, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (not a repro peer?)")
    if version != VERSION:
        raise WireError(
            f"wire protocol version mismatch: peer speaks v{version}, "
            f"this build speaks v{VERSION}")
    if length > MAX_FRAME:
        raise WireError(
            f"frame length {length} exceeds the {MAX_FRAME}-byte "
            f"ceiling (corrupt stream?)")
    return length


def decode_frame(data: bytes) -> Tuple[Any, bytes]:
    """Split one complete frame off a byte buffer.

    Returns ``(object, rest)``; raises :class:`WireError` if the buffer
    does not hold a complete valid frame (use the asyncio helpers for
    streams — this form exists for tests and synchronous callers).
    """
    length = decode_header(data[:HEADER_SIZE])
    end = HEADER_SIZE + length
    if len(data) < end:
        raise WireError(
            f"truncated frame: have {len(data) - HEADER_SIZE} of "
            f"{length} payload bytes")
    return pickle.loads(data[HEADER_SIZE:end]), data[end:]


async def send_frame(writer: asyncio.StreamWriter, obj: Any) -> int:
    """Write one frame and drain; returns the bytes put on the wire."""
    frame = encode_frame(obj)
    writer.write(frame)
    await writer.drain()
    return len(frame)


async def recv_frame(reader: asyncio.StreamReader) -> Tuple[Any, int]:
    """Read one complete frame; returns ``(object, bytes_read)``.

    Raises :class:`asyncio.IncompleteReadError` on a clean or dirty
    EOF mid-frame (callers treat both as a connection loss) and
    :class:`WireError` on header corruption.
    """
    header = await reader.readexactly(HEADER_SIZE)
    length = decode_header(header)
    payload = await reader.readexactly(length)
    return pickle.loads(payload), HEADER_SIZE + length
