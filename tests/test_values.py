"""IEEE 1164 nine-value logic: tables, resolution, vectors."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.vhdl.values import (SL_0, SL_1, SL_DASH, SL_H, SL_L, SL_U, SL_W,
                               SL_X, SL_Z, StdLogic, resolve, sl, slv,
                               vector_has_meta, vector_to_int, vector_to_str)

ALL = [SL_U, SL_X, SL_0, SL_1, SL_Z, SL_W, SL_L, SL_H, SL_DASH]
values = st.sampled_from(ALL)


class TestScalars:
    def test_interning(self):
        assert sl('1') is SL_1
        assert sl('z') is SL_Z  # case-insensitive
        assert StdLogic(3) is SL_1
        assert copy.deepcopy(SL_X) is SL_X

    def test_coercions(self):
        assert sl(True) is SL_1
        assert sl(0) is SL_0
        assert sl(SL_W) is SL_W

    def test_bad_coercions(self):
        with pytest.raises(ValueError):
            sl('q')
        with pytest.raises(ValueError):
            sl(2)
        with pytest.raises(TypeError):
            sl(None)
        with pytest.raises(ValueError):
            StdLogic(9)

    def test_char_round_trip(self):
        for v in ALL:
            assert sl(v.char) is v

    def test_eq_against_char(self):
        assert SL_1 == '1'
        assert SL_L == 'l'
        assert SL_1 != '0'

    def test_to_bool(self):
        assert SL_1.to_bool() is True
        assert SL_0.to_bool() is False
        assert SL_H.to_bool() is True   # weak high strengthens
        assert SL_L.to_bool() is False
        with pytest.raises(ValueError):
            SL_X.to_bool()
        with pytest.raises(ValueError):
            SL_Z.to_bool()


class TestLogicTables:
    def test_firm_truth_tables(self):
        assert (SL_0 & SL_1) is SL_0
        assert (SL_1 & SL_1) is SL_1
        assert (SL_0 | SL_1) is SL_1
        assert (SL_0 | SL_0) is SL_0
        assert (SL_1 ^ SL_1) is SL_0
        assert (SL_1 ^ SL_0) is SL_1
        assert (~SL_1) is SL_0
        assert (~SL_0) is SL_1

    def test_weak_values_behave_as_levels(self):
        assert (SL_H & SL_1) is SL_1
        assert (SL_L | SL_0) is SL_0
        assert (~SL_H) is SL_0
        assert (~SL_L) is SL_1

    def test_x_propagation(self):
        assert (SL_X & SL_1) is SL_X
        assert (SL_X & SL_0) is SL_0   # 0 dominates and
        assert (SL_X | SL_1) is SL_1   # 1 dominates or
        assert (SL_X ^ SL_1) is SL_X
        assert (~SL_Z) is SL_X

    def test_u_propagation(self):
        assert (SL_U & SL_1) is SL_U
        assert (SL_U & SL_0) is SL_0
        assert (SL_U | SL_0) is SL_U
        assert (~SL_U) is SL_U

    @given(values, values)
    def test_and_or_commutative(self, a, b):
        assert (a & b) is (b & a)
        assert (a | b) is (b | a)
        assert (a ^ b) is (b ^ a)

    @given(values)
    def test_de_morgan_on_firm_values(self, a):
        for b in (SL_0, SL_1):
            assert ~(a & b) == (~a | ~b) or not (a & b).is_01


class TestResolution:
    def test_z_is_identity_except_dont_care(self):
        # 'Z' resolves to the other driver for every value except '-',
        # which the IEEE 1164 table maps to 'X' against anything firm.
        for v in ALL:
            if v is SL_DASH:
                assert resolve([v, SL_Z]) is SL_X
            else:
                assert resolve([v, SL_Z]) is v

    def test_conflict_gives_x(self):
        assert resolve([SL_0, SL_1]) is SL_X

    def test_u_dominates(self):
        assert resolve([SL_U, SL_1]) is SL_U
        assert resolve([SL_0, SL_U, SL_Z]) is SL_U

    def test_weak_loses_to_strong(self):
        assert resolve([SL_H, SL_0]) is SL_0
        assert resolve([SL_L, SL_1]) is SL_1
        assert resolve([SL_H, SL_L]) is SL_W

    def test_empty_floats(self):
        assert resolve([]) is SL_Z

    def test_single_driver_passes_through(self):
        for v in ALL:
            assert resolve([v]) is v

    @given(st.lists(values, min_size=1, max_size=6))
    def test_order_independent(self, drivers):
        base = resolve(drivers)
        assert resolve(list(reversed(drivers))) is base

    @given(st.lists(values, min_size=2, max_size=6))
    def test_associative(self, drivers):
        left = resolve([resolve(drivers[:2])] + drivers[2:])
        assert left is resolve(drivers)


class TestVectors:
    def test_slv_from_string(self):
        vec = slv("10Z")
        assert vec == (SL_1, SL_0, SL_Z)

    def test_slv_from_int(self):
        assert vector_to_str(slv(5, width=4)) == "0101"
        assert vector_to_str(slv(0, width=3)) == "000"

    def test_slv_negative_wraps(self):
        assert vector_to_int(slv(-1, width=4)) == 15

    def test_slv_needs_width_for_ints(self):
        with pytest.raises(ValueError):
            slv(3)

    def test_vector_to_int_signed(self):
        assert vector_to_int(slv("111"), signed=True) == -1
        assert vector_to_int(slv("0110"), signed=True) == 6
        assert vector_to_int(slv("1000"), signed=True) == -8

    def test_vector_to_int_rejects_meta(self):
        with pytest.raises(ValueError):
            vector_to_int(slv("1X0"))

    def test_vector_has_meta(self):
        assert vector_has_meta(slv("1Z0"))
        assert not vector_has_meta(slv("10"))
        assert not vector_has_meta((SL_H, SL_L))  # weak but firm levels

    @given(st.integers(0, 2**16 - 1))
    def test_int_round_trip(self, n):
        assert vector_to_int(slv(n, width=16)) == n


def slv_by_bit(bits, width):
    """The per-bit definition of ``slv(int, width)``."""
    if bits < 0:
        bits &= (1 << width) - 1
    return tuple(sl((bits >> (width - 1 - i)) & 1) for i in range(width))


def vector_to_int_by_bit(vec, signed):
    """The per-bit definition of ``vector_to_int``."""
    value = 0
    for bit in vec:
        value = (value << 1) | (1 if bit.to_bool() else 0)
    if signed and vec and vec[0].to_bool():
        value -= 1 << len(vec)
    return value


def result_or_error(function, *args):
    try:
        return function(*args)
    except ValueError as error:
        return ("ValueError", str(error))


class TestVectorTables:
    """``slv`` and ``vector_to_int`` read tables; they must agree with
    the per-bit definitions, errors included."""

    @given(st.integers(1, 64), st.integers(-2**70, 2**70))
    def test_slv_from_int_matches_the_bits(self, width, value):
        vec = slv(value, width)
        expected = slv_by_bit(value, width)
        assert vec == expected
        assert all(a is b for a, b in zip(vec, expected))

    @given(st.lists(st.sampled_from([SL_0, SL_1, SL_L, SL_H]),
                    min_size=1, max_size=64), st.booleans())
    def test_vector_to_int_reads_weak_levels(self, vec, signed):
        vec = tuple(vec)
        assert vector_to_int(vec, signed) \
            == vector_to_int_by_bit(vec, signed)

    @given(st.lists(values, min_size=0, max_size=64), st.booleans())
    def test_vector_to_int_fails_like_the_bits(self, vec, signed):
        vec = tuple(vec)
        assert result_or_error(vector_to_int, vec, signed) \
            == result_or_error(vector_to_int_by_bit, vec, signed)

    @pytest.mark.parametrize("meta", [SL_X, SL_Z, SL_U, SL_DASH, SL_W])
    def test_a_meta_bit_names_itself(self, meta):
        with pytest.raises(ValueError, match=f"std_logic '{meta.char}'"):
            vector_to_int((SL_1, meta, SL_0))
