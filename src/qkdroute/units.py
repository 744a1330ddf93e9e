"""Exact conversion between wire-format kbit/s values and internal rate units.

All routing arithmetic runs on integers so that deficiency comparisons and
step accounting are exact.  A rate unit is ``resolution_bps`` bits per second
(1 bit/s unless configured otherwise); input files carry kbit/s.
"""

from __future__ import annotations

from contextlib import contextmanager
from decimal import ROUND_FLOOR, Decimal, InvalidOperation, Overflow, localcontext
from typing import Iterator

_KBPS = Decimal(1000)
# the largest rate in units, so every rate a file or artifact carries fits int64
MAX_UNITS = 2**63 - 1


def as_decimal(value: object, field: str = "value") -> Decimal:
    """Coerce a JSON-ish numeric value to a finite Decimal without binary float drift."""
    if isinstance(value, bool):
        raise TypeError(f"{field} must be a number, got bool")
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, int):
        dec = Decimal(value)
    elif isinstance(value, float):
        # repr of a float is its shortest decimal form, which is what the
        # user wrote in all practical cases
        dec = Decimal(str(value))
    elif isinstance(value, str):
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"{field} is not a number: {value!r}") from exc
    else:
        raise TypeError(f"{field} must be a number, got {type(value).__name__}")
    if not dec.is_finite():
        raise ValueError(f"{field} must be finite, got {value!r}")
    return dec


@contextmanager
def _in_range(what: str) -> Iterator[None]:
    """Turn a Decimal overflow inside the block into a ValueError."""
    try:
        yield
    except Overflow as exc:
        raise ValueError(f"{what} is out of range") from exc


class Frozen:
    """An immutable value whose public ``__slots__`` are its fields, compared,
    hashed and shown as a frozen dataclass's, without loading ``dataclasses``;
    the base of ``UnitScale`` here and of the value classes in ``model``,
    ``paths``, ``engine`` and ``keysim``.  A slot named with a leading
    underscore holds a value worked out from the fields, not a field."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} is read-only")
    __delattr__ = __setattr__

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, from the fields in the order it takes them
        return type(self), tuple(self._fields().values())


class UnitScale(Frozen):
    """Fixed base resolution shared by every rate in one network description."""

    __slots__ = ("resolution_bps",)

    def __init__(self, resolution_bps: object = 1) -> None:
        res = as_decimal(resolution_bps, "resolution_bps")
        if res <= 0:
            raise ValueError(f"resolution_bps must be positive, got {res}")
        self._set(res)
        # so that kbps() of every unit count that fits the matrices is finite
        with _in_range(f"resolution_bps {res}"):
            self.kbps(MAX_UNITS)

    def units_from_kbps(self, value: object, field: str = "rate") -> int:
        """Convert a kbit/s value to integer units, rejecting remainders.

        Raises:
            ValueError: if the value is not an exact multiple of the
                resolution (such inputs would silently corrupt the integer
                bookkeeping downstream), or is more than MAX_UNITS units.
        """
        dec = as_decimal(value, field)
        what = f"{field} {dec} kbit/s in units of {self.resolution_bps} bit/s"
        with localcontext() as ctx, _in_range(what):
            ctx.prec = 50
            units = dec * _KBPS / self.resolution_bps
        if units != units.to_integral_value():
            raise ValueError(
                f"{field} {dec} kbit/s is not representable at a resolution "
                f"of {self.resolution_bps} bit/s"
            )
        if abs(units) > MAX_UNITS:
            raise ValueError(f"{field} {dec} kbit/s is more than {MAX_UNITS} units")
        return int(units)

    def kbps(self, units: int) -> Decimal:
        return Decimal(int(units)) * self.resolution_bps / _KBPS

    def kbps_str(self, units: int) -> str:
        """Render units as a trimmed decimal kbit/s string, e.g. ``0.1``."""
        text = format(self.kbps(units), "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        if text in ("", "-0"):
            text = "0"
        return text

    def _bits(self, units: int, tau: Decimal) -> Decimal:
        with _in_range(f"tau {tau} s"):
            return Decimal(int(units)) * self.resolution_bps * tau

    def bit_count(self, units: int, tau: Decimal) -> int:
        """Number of whole bits produced at ``units`` over ``tau`` seconds."""
        return int(self._bits(units, tau).to_integral_value(rounding=ROUND_FLOOR))

    def bits_exact(self, units: int, tau: Decimal) -> bool:
        bits = self._bits(units, tau)
        return bits == bits.to_integral_value()
