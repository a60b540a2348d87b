"""VHDL virtual time: pairs of physical time and cycle/phase logical time.

The paper's central device (Sec. 3.3) is to extend the VHDL physical
simulation time with a Lamport-clock-style *logical* component that encodes
the phase of the distributed VHDL simulation cycle.  Virtual time is the pair

    ``vt = (pt, lt)``

ordered lexicographically: ``vt1 < vt2`` iff ``vt1.pt < vt2.pt``, or
``vt1.pt == vt2.pt and vt1.lt < vt2.lt``.

The logical component advances in steps of three per delta cycle; the phase
of a virtual time is ``lt % 3``:

* phase 0 (``PHASE_ASSIGN``)    — signal LPs accept assignment events coming
  from process LPs; process LPs resume execution (*Run*).
* phase 1 (``PHASE_DRIVING``)   — driver transactions mature into new
  driving values.
* phase 2 (``PHASE_EFFECTIVE``) — resolution functions compute effective
  values which are broadcast; process LPs fold the updates into their local
  copies (*Update*).

A full delta cycle is therefore ``lt -> lt + 3`` at constant ``pt``;
advancing physical time resets the intra-cycle phase (the logical clock keeps
growing monotonically, which is all that the causal order requires).

Physical time is kept in integer femtoseconds, mirroring the IEEE 1076
``Time`` resolution, so there is never floating-point drift in timestamps.
"""

from __future__ import annotations

from typing import NamedTuple

# Physical time units, in femtoseconds (the IEEE 1076 base resolution).
FS = 1
PS = 1_000 * FS
NS = 1_000 * PS
US = 1_000 * NS
MS = 1_000 * US
SEC = 1_000 * MS

#: Number of phases in one delta cycle of the distributed VHDL cycle.
PHASES_PER_CYCLE = 3

#: Phase indices within a delta cycle (``lt % PHASES_PER_CYCLE``).
PHASE_ASSIGN = 0
PHASE_DRIVING = 1
PHASE_EFFECTIVE = 2


#: Builds a named tuple from a field tuple at C level, skipping the
#: Python-level ``__new__`` that a ``NamedTuple`` call goes through.
_tuple_new = tuple.__new__


class VirtualTime(NamedTuple):
    """A point in VHDL virtual time: ``(physical fs, logical phase count)``.

    ``NamedTuple`` gives us immutability and fast native lexicographic
    comparison, which is exactly the order relation the paper defines.
    """

    pt: int
    lt: int

    @property
    def phase(self) -> int:
        """Phase of this time within its delta cycle (0, 1 or 2)."""
        return self.lt % PHASES_PER_CYCLE

    @property
    def delta(self) -> int:
        """Delta-cycle index within the current physical time step.

        This is only meaningful relative to the logical time at which the
        current physical step began, but ``lt // 3`` is a convenient
        monotone delta counter for traces.
        """
        return self.lt // PHASES_PER_CYCLE

    def next_phase(self) -> "VirtualTime":
        """The immediately following phase at the same physical time."""
        return _tuple_new(VirtualTime, (self[0], self[1] + 1))

    def plus_phases(self, n: int) -> "VirtualTime":
        """Advance ``n`` phases at constant physical time."""
        if n < 0:
            raise ValueError("cannot move backwards in logical time")
        return VirtualTime(self.pt, self.lt + n)

    def next_delta(self) -> "VirtualTime":
        """The same phase, one full delta cycle later."""
        return _tuple_new(VirtualTime, (self[0], self[1] + PHASES_PER_CYCLE))

    def advance(self, dt: int, phase: int = PHASE_ASSIGN) -> "VirtualTime":
        """A future physical time ``pt + dt``, entering at ``phase``.

        The logical clock must keep increasing even across physical-time
        advances (it is a Lamport clock); we therefore move to the first
        ``lt`` greater than the current one whose phase is ``phase``.
        """
        if dt <= 0:
            raise ValueError("advance() needs a strictly positive delay; "
                             "use next_delta()/plus_phases() for delta steps")
        lt = self[1] + 1
        remainder = (phase - lt) % PHASES_PER_CYCLE
        return _tuple_new(VirtualTime, (self[0] + dt, lt + remainder))

    def with_phase(self, phase: int) -> "VirtualTime":
        """The first time >= self whose phase is ``phase``.

        Stays at the current ``lt`` when the phase already matches.
        """
        lt = self[1]
        return _tuple_new(VirtualTime,
                          (self[0], lt + (phase - lt) % PHASES_PER_CYCLE))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pt}fs@{self.lt}"


#: The origin of virtual time.
ZERO = VirtualTime(0, 0)

#: A virtual time strictly greater than any reachable simulation time.
#: ``float('inf')`` compares greater than every int, so the pair works with
#: the same lexicographic comparison as finite times.
INFINITY = VirtualTime(float("inf"), 0)  # type: ignore[arg-type]

#: A virtual time strictly smaller than any reachable simulation time.
MINUS_INFINITY = VirtualTime(float("-inf"), 0)  # type: ignore[arg-type]


def vt_min(*times: VirtualTime) -> VirtualTime:
    """Minimum of several virtual times (INFINITY if none given)."""
    return min(times, default=INFINITY)


def parse_time(value: float, unit: str = "ns") -> int:
    """Convert ``value`` in ``unit`` to integer femtoseconds.

    >>> parse_time(2, 'ns')
    2000000
    """
    scale = {"fs": FS, "ps": PS, "ns": NS, "us": US, "ms": MS,
             "sec": SEC, "s": SEC}.get(unit.lower())
    if scale is None:
        raise ValueError(f"unknown time unit {unit!r}")
    result = value * scale
    as_int = int(round(result))
    if abs(result - as_int) > 1e-9:
        raise ValueError(
            f"{value} {unit} is not an integral number of femtoseconds")
    return as_int


def format_time(fs: int) -> str:
    """Render femtoseconds in the largest unit that keeps it integral."""
    for unit, scale in (("sec", SEC), ("ms", MS), ("us", US), ("ns", NS),
                        ("ps", PS)):
        if fs and fs % scale == 0:
            return f"{fs // scale} {unit}"
    return f"{fs} fs"
