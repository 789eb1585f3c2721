"""Exact half-integer arithmetic for spin quantum numbers.

Spins and magnetic numbers are stored as twice their value in an ``int``, so
index arithmetic like ``j - m`` or ``2*j + 1`` is exact and never touches
floating point.  ``HalfInt.of`` reads an integer or a ``Fraction`` from its
own numerator and denominator and a float from its exact ratio, so no value
overflows on the way in.  ``spin`` is the one reader of a spin quantum number
in the package: every function that takes a spin j calls it, and only this
module calls ``HalfInt.of(j)`` itself.  ``magnetic`` is the one reader of a
magnetic number m of a spin j: it refuses an m that is not j - k for a whole
k, and ``su2._row`` adds the range |m| <= j of a basis row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Rational, Real


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-odd-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if isinstance(self.twice, bool) or not isinstance(self.twice, (int, Integral)):  # int first: no ABC lookup
            raise ValueError(f"twice-value must be an integer, got {self.twice!r}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce a HalfInt, or an int, Rational or float that is an exact multiple of 1/2.

        A bool, NaN and infinities are refused.
        """
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is a bool, not an integer or half-integer")
        if isinstance(value, Rational):
            # an integer or a fraction is read from its own terms, with no float to overflow
            numerator, denominator = int(value.numerator), int(value.denominator)
        elif isinstance(value, Real):
            if not math.isfinite(value):
                raise ValueError(f"{value!r} is not a finite number")
            # read exactly, so that no doubling or rounding of a large float overflows
            numerator, denominator = float(value).as_integer_ratio()
        else:
            raise TypeError(f"cannot interpret {value!r} as a half-integer")
        if denominator > 2:
            raise ValueError(f"{value!r} is not an integer or half-integer")
        return HalfInt(2 * numerator // denominator)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def spin(j) -> HalfInt:
    """``HalfInt.of(j)``, refused below 0: the one check of a spin quantum number."""
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("spin j must be nonnegative")
    return j


def magnetic(j, m) -> HalfInt:
    """``HalfInt.of(m)``, refused unless j - m is a whole number: the one check of a magnetic number.

    j is read by ``spin``, so a negative spin is refused first.
    """
    j, m = spin(j), HalfInt.of(m)
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"m={m} is not of the form j-k for j={j}")
    return m


def spin_range(j) -> list[HalfInt]:
    """Magnetic numbers m = j, j-1, ..., -j (the basis ordering used throughout)."""
    jt = spin(j).twice
    return [HalfInt(t) for t in range(jt, -jt - 1, -2)]
