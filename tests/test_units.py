from __future__ import annotations

from decimal import Decimal

import pytest

from qkdroute.units import MAX_UNITS, UnitScale, as_decimal


def test_kbps_to_units_default_resolution():
    scale = UnitScale()
    assert scale.units_from_kbps(Decimal("0.5")) == 500
    assert scale.units_from_kbps(Decimal("1")) == 1000
    assert scale.units_from_kbps(Decimal("0.001")) == 1
    assert scale.units_from_kbps(5) == 5000


def test_unrepresentable_rate_rejected():
    scale = UnitScale()
    with pytest.raises(ValueError, match="not representable"):
        scale.units_from_kbps(Decimal("0.0005"))
    coarse = UnitScale(Decimal(10))
    with pytest.raises(ValueError, match="not representable"):
        coarse.units_from_kbps(Decimal("0.005"))
    assert coarse.units_from_kbps(Decimal("0.05")) == 5


def test_fine_resolution_allows_sub_bit_steps():
    fine = UnitScale(Decimal("0.1"))
    assert fine.units_from_kbps(Decimal("0.0001")) == 1
    assert fine.kbps(1) == Decimal("0.0001")


def test_round_trip_and_rendering():
    scale = UnitScale()
    assert scale.kbps(500) == Decimal("0.5")
    assert scale.kbps_str(500) == "0.5"
    assert scale.kbps_str(-200) == "-0.2"
    assert scale.kbps_str(0) == "0"
    assert scale.kbps_str(1000) == "1"
    assert scale.kbps_str(1234) == "1.234"


def test_bit_count_floors():
    scale = UnitScale()
    assert scale.bit_count(100, Decimal(100)) == 10000
    assert scale.bit_count(3, Decimal("0.5")) == 1
    assert scale.bits_exact(100, Decimal(100))
    assert not scale.bits_exact(3, Decimal("0.5"))


def test_as_decimal_accepts_common_spellings():
    assert as_decimal(0.1) == Decimal("0.1")
    assert as_decimal("0.1") == Decimal("0.1")
    assert as_decimal(3) == Decimal(3)
    with pytest.raises(TypeError):
        as_decimal(True)
    with pytest.raises(ValueError):
        as_decimal("not-a-number")


def test_resolution_must_be_positive():
    with pytest.raises(ValueError):
        UnitScale(Decimal(0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "-Infinity", "NaN",
                                   Decimal("sNaN"), Decimal("-inf")])
def test_as_decimal_refuses_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        as_decimal(value, "rate")


def test_decimal_overflow_becomes_value_error():
    with pytest.raises(ValueError, match="out of range"):
        UnitScale(Decimal("1e-999999")).units_from_kbps(1)
    with pytest.raises(ValueError, match="out of range"):
        UnitScale().units_from_kbps(Decimal("1e999999"))
    with pytest.raises(ValueError, match="out of range"):
        UnitScale(Decimal("1e999999"))
    with pytest.raises(ValueError, match="out of range"):
        UnitScale().bit_count(1000, Decimal("1e999999"))
    with pytest.raises(ValueError, match="out of range"):
        UnitScale().bits_exact(1000, Decimal("1e999999"))


def test_unit_counts_must_fit_int64():
    scale = UnitScale()
    assert scale.units_from_kbps(Decimal(MAX_UNITS) / 1000) == MAX_UNITS
    with pytest.raises(ValueError, match="units"):
        scale.units_from_kbps(Decimal(MAX_UNITS + 1) / 1000)
    with pytest.raises(ValueError, match="units"):
        scale.units_from_kbps(-Decimal(MAX_UNITS + 1) / 1000)
