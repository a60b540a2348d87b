"""Shared-signal resolution pays the IEEE 1164 table only where two or
more drivers drive: every column it resolves equals the table fold of
:func:`repro.vhdl.values.resolve` over all of its drivers."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.vhdl.signal import resolve_values
from repro.vhdl.values import (SL_DASH, SL_X, SL_Z, StdLogic, resolve,
                               resolve_column, resolve_vectors)

NINE = tuple(StdLogic(code) for code in range(9))


def test_every_column_of_two_to_four_drivers():
    """All 9**2 + 9**3 + 9**4 = 7 371 columns, '-' and 'Z' included."""
    columns = [column for drivers in (2, 3, 4)
               for column in itertools.product(NINE, repeat=drivers)]
    assert len(columns) == 7371
    for column in columns:
        assert resolve_column(column) is resolve(column), column
        assert resolve_values(list(column), None) is resolve(column)


def test_a_lone_value_among_floating_drivers():
    assert resolve_column((SL_Z, SL_DASH, SL_Z)) is SL_X
    assert resolve_column((SL_Z, SL_Z)) is SL_Z


@st.composite
def driving_vectors(draw):
    """2-40 driving vectors of one width (1-64), at any 'Z' density."""
    width = draw(st.integers(1, 64))
    drivers = draw(st.integers(2, 40))
    floating = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [tuple(SL_Z if rng.random() < floating else rng.choice(NINE)
                  for _bit in range(width))
            for _driver in range(drivers)]


@settings(max_examples=300, deadline=None)
@given(driving_vectors())
def test_vectors_equal_the_per_bit_fold(driving):
    expected = tuple(resolve([vector[bit] for vector in driving])
                     for bit in range(len(driving[0])))
    assert resolve_vectors(driving) == expected
    assert resolve_values(driving, None) == expected
