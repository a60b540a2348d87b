"""IEEE 1164 nine-value logic and the value types VHDL signals carry.

The distributed signal LP must apply *resolution functions* when a signal
has several drivers (paper Sec. 3.1), so the value system has to be a
faithful ``std_logic``: nine states, the standard resolution table, and
X-propagating logic operators.  Values are encoded as small ints for
speed; ``StdLogic`` wraps the encoding with a friendly API.

Scalars are interned singletons, so identity comparison works and
deep-copying a signal state is cheap.  Vectors are tuples of scalars.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

# Encoded std_ulogic states, in IEEE 1164 declaration order.
_CHARS = "UX01ZWLH-"
U, X, ZERO, ONE, Z, W, L, H, DASH = range(9)


class StdLogic:
    """One std_ulogic value.  Use the module-level singletons or
    :func:`sl` to obtain instances; the constructor interns by code."""

    __slots__ = ("code",)
    _interned: list = []

    def __new__(cls, code: int) -> "StdLogic":
        if not 0 <= code < 9:
            raise ValueError(f"invalid std_logic code {code}")
        if cls._interned:
            return cls._interned[code]
        obj = super().__new__(cls)
        obj.code = code
        return obj

    # Interning support: the module populates _interned after defining
    # the nine singletons below.

    @property
    def char(self) -> str:
        return _CHARS[self.code]

    def __repr__(self) -> str:
        return f"'{self.char}'"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StdLogic):
            return self.code == other.code
        if isinstance(other, str) and len(other) == 1:
            return self.char == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("StdLogic", self.code))

    def __deepcopy__(self, memo) -> "StdLogic":
        return self

    def __copy__(self) -> "StdLogic":
        return self

    def __reduce__(self):
        """Pickle as the constructor call ``StdLogic(code)``.

        ``__slots__`` + interning ``__new__`` breaks default pickling
        (no ``__dict__``, and blind ``__new__(cls)`` would bypass the
        intern table), which matters the moment events cross a process
        boundary: the multiprocess backend ships signal values inside
        pickled event batches.  Round-tripping through the constructor
        preserves the singleton identity, so ``is`` comparisons and the
        cheap-deepcopy property survive unpickling in another process.
        """
        return (StdLogic, (self.code,))

    # Logic operators (X-propagating, per IEEE 1164 tables).
    def __and__(self, other: "StdLogic") -> "StdLogic":
        return _AND[self.code][other.code]

    def __or__(self, other: "StdLogic") -> "StdLogic":
        return _OR[self.code][other.code]

    def __xor__(self, other: "StdLogic") -> "StdLogic":
        return _XOR[self.code][other.code]

    def __invert__(self) -> "StdLogic":
        return _NOT[self.code]

    @property
    def is_01(self) -> bool:
        """True when the value is a firm '0' or '1'."""
        return self.code in (ZERO, ONE)

    def to_x01(self) -> "StdLogic":
        """The IEEE 1164 TO_X01 conversion (weak values strengthened)."""
        return _TO_X01[self.code]

    def to_bool(self) -> bool:
        """'1'/'H' -> True, '0'/'L' -> False; anything else raises."""
        x01 = self.to_x01()
        if x01.code == ONE:
            return True
        if x01.code == ZERO:
            return False
        raise ValueError(f"std_logic {self.char!r} has no boolean value")


def _build_singletons() -> Tuple[StdLogic, ...]:
    slots = []
    for code in range(9):
        obj = object.__new__(StdLogic)
        obj.code = code
        slots.append(obj)
    StdLogic._interned = slots
    return tuple(slots)


(SL_U, SL_X, SL_0, SL_1, SL_Z, SL_W, SL_L, SL_H, SL_DASH) = _build_singletons()

_BY_CHAR = {c: StdLogic._interned[i] for i, c in enumerate(_CHARS)}


def sl(value: Union[str, int, bool, StdLogic]) -> StdLogic:
    """Coerce a char, 0/1 int, or bool to a StdLogic."""
    if isinstance(value, StdLogic):
        return value
    if isinstance(value, bool):
        return SL_1 if value else SL_0
    if isinstance(value, int):
        if value in (0, 1):
            return SL_0 if value == 0 else SL_1
        raise ValueError(f"only 0/1 ints coerce to std_logic, got {value}")
    if isinstance(value, str) and len(value) == 1:
        try:
            return _BY_CHAR[value.upper()]
        except KeyError:
            raise ValueError(f"invalid std_logic character {value!r}")
    raise TypeError(f"cannot coerce {value!r} to std_logic")


# ---------------------------------------------------------------------------
# IEEE 1164 tables.  Index order is the declaration order U X 0 1 Z W L H -.
# ---------------------------------------------------------------------------
def _table(rows: Sequence[str]) -> Tuple[Tuple[StdLogic, ...], ...]:
    return tuple(tuple(_BY_CHAR[c] for c in row) for row in rows)


#: Resolution table for std_logic (the `resolved` function of IEEE 1164).
_RESOLVE = _table([
    #  U    X    0    1    Z    W    L    H    -
    "UUUUUUUUU",   # U
    "UXXXXXXXX",   # X
    "UX0X0000X",   # 0
    "UXX11111X",   # 1
    "UX01ZWLHX",   # Z
    "UX01WWWWX",   # W
    "UX01LWLWX",   # L
    "UX01HWWHX",   # H
    "UXXXXXXXX",   # -
])

_AND = _table([
    #  U    X    0    1    Z    W    L    H    -
    "UU0UUU0UU",   # U
    "UX0XXX0XX",   # X
    "000000000",   # 0
    "UX01XX01X",   # 1
    "UX0XXX0XX",   # Z
    "UX0XXX0XX",   # W
    "000000000",   # L
    "UX01XX01X",   # H
    "UX0XXX0XX",   # -
])

_OR = _table([
    #  U    X    0    1    Z    W    L    H    -
    "UUU1UUU1U",   # U
    "UXX1XXX1X",   # X
    "UX01XX01X",   # 0
    "111111111",   # 1
    "UXX1XXX1X",   # Z
    "UXX1XXX1X",   # W
    "UX01XX01X",   # L
    "111111111",   # H
    "UXX1XXX1X",   # -
])

_XOR = _table([
    #  U    X    0    1    Z    W    L    H    -
    "UUUUUUUUU",   # U
    "UXXXXXXXX",   # X
    "UX01XX01X",   # 0
    "UX10XX10X",   # 1
    "UXXXXXXXX",   # Z
    "UXXXXXXXX",   # W
    "UX01XX01X",   # L
    "UX10XX10X",   # H
    "UXXXXXXXX",   # -
])

# U->U, X->X, 0->1, 1->0, Z->X, W->X, L->1, H->0, - -> X
_NOT = tuple(_BY_CHAR[c] for c in "UX10XX10X")

_TO_X01 = tuple(_BY_CHAR[c] for c in "XX01XX01X")


def resolve(values: Iterable[StdLogic]) -> StdLogic:
    """The IEEE 1164 resolution function over any number of drivers.

    An empty collection yields 'Z' (a signal with no active driver
    floats); this matches the LRM's treatment of resolved signals whose
    drivers are all disconnected.
    """
    result = SL_Z
    first = True
    for value in values:
        if first:
            result = value
            first = False
        else:
            result = _RESOLVE[result.code][value.code]
    return result if not first else SL_Z


def resolve_column(column: Sequence[StdLogic]) -> StdLogic:
    """:func:`resolve` of two or more drivers, folding through the table
    only the values that are driven.

    'Z' is the table's identity for every value except '-', which it
    turns into 'X'.  A column with at most one value other than 'Z'
    therefore resolves to that value ('X' for '-', 'Z' for none), and
    only the driven values of a column with two or more are folded.
    """
    if column.count(SL_Z) >= len(column) - 1:
        for value in column:
            if value is not SL_Z:
                return SL_X if value is SL_DASH else value
        return SL_Z
    return resolve([value for value in column if value is not SL_Z])


def resolve_vectors(driving: Sequence[Vector]) -> Vector:
    """Resolve two or more driving vectors column by column."""
    return tuple(map(resolve_column, zip(*driving)))


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------
Vector = Tuple[StdLogic, ...]

#: The bit an int's 0 or 1 becomes in :func:`slv`.
_BITS = (SL_0, SL_1)
#: What :func:`vector_to_int` reads for each code: the TO_X01 value of
#: '0' 'L' and '1' 'H', ``None`` for a bit with no boolean value.
_BIT_VALUE = (None, None, 0, 1, None, None, 0, 1, None)


def slv(bits: Union[str, int, Sequence], width: int = None) -> Vector:
    """Build a std_logic_vector.

    Accepts a string like ``"0101"`` (leftmost char = MSB), an int with a
    ``width``, or any sequence of coercible scalars.
    """
    if isinstance(bits, str):
        return tuple(sl(c) for c in bits)
    if isinstance(bits, int):
        if width is None:
            raise ValueError("integer vectors need an explicit width")
        if bits < 0:
            bits &= (1 << width) - 1
        return tuple([_BITS[(bits >> shift) & 1]
                      for shift in range(width - 1, -1, -1)])
    return tuple(sl(b) for b in bits)


def vector_to_int(vec: Vector, signed: bool = False) -> int:
    """Interpret a vector as an unsigned (or two's-complement) integer.

    Raises if any bit is not a firm 0/1 (after TO_X01 strengthening).
    """
    value = 0
    for bit in vec:
        digit = _BIT_VALUE[bit.code]
        if digit is None:
            bit.to_bool()  # raises, naming the bit
        value = (value << 1) | digit
    if signed and vec and _BIT_VALUE[vec[0].code]:
        value -= 1 << len(vec)
    return value


def vector_to_str(vec: Vector) -> str:
    return "".join(bit.char for bit in vec)


def vector_has_meta(vec: Vector) -> bool:
    """True if any element is not a firm 0/1."""
    return any(not bit.to_x01().is_01 for bit in vec)
