import sys
from fractions import Fraction

import pytest

from spintomo.halfint import HalfInt, magnetic, spin, spin_range


def test_coercion():
    assert HalfInt.of(2).twice == 4
    assert HalfInt.of(0.5).twice == 1
    assert HalfInt.of(-1.5).twice == -3
    assert HalfInt.of(HalfInt(3)) == HalfInt(3)


def test_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    with pytest.raises(TypeError):
        HalfInt.of("1/2")


@pytest.mark.parametrize("value", [True, False])
def test_rejects_a_bool(value):
    # a bool is an Integral, and True once coerced to 1 as a spin or magnetic number
    with pytest.raises(ValueError, match="bool"):
        HalfInt.of(value)
    with pytest.raises(ValueError, match="bool"):
        spin(value)
    with pytest.raises(ValueError, match="twice-value must be an integer"):
        HalfInt(value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_rejects_non_finite_reals(value):
    with pytest.raises(ValueError, match=f"{value!r} is not a finite number"):
        HalfInt.of(value)


@pytest.mark.parametrize(
    "value, twice",
    [(1e308, 2 * int(1e308)), (-1e308, -2 * int(1e308)), (sys.float_info.max, 2 * int(sys.float_info.max)),
     (2.0**51 + 0.5, 2**52 + 1)],
)
def test_a_float_is_read_exactly(value, twice):
    # 2.0 * 1e308 overflows a float, and 2**51 + 1/2 keeps its half in the float's last bit
    assert HalfInt.of(value).twice == twice


def test_a_rational_is_read_exactly():
    # a Fraction past the double range has no float, so none is taken
    assert HalfInt.of(Fraction(10**400, 2)).twice == 10**400
    assert HalfInt.of(Fraction(-3, 2)).twice == -3
    with pytest.raises(ValueError, match=r"^Fraction\(1, 3\) is not an integer or half-integer$"):
        HalfInt.of(Fraction(1, 3))
    with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
        spin(Fraction(-1, 2))


def test_arithmetic_is_exact():
    j = HalfInt.of(1.5)
    m = HalfInt.of(-0.5)
    assert (j - m).twice == 4
    assert (j + m).twice == 2
    assert (-m).twice == 1
    assert abs(HalfInt(-3)) == HalfInt(3)
    assert float(j) == 1.5


def test_ordering():
    assert HalfInt.of(0.5) < HalfInt.of(1)
    assert HalfInt.of(-2) < HalfInt.of(-1.5)


def test_spin_range_descending():
    ms = spin_range(1.5)
    assert [m.twice for m in ms] == [3, 1, -1, -3]
    assert spin_range(0) == [HalfInt(0)]
    with pytest.raises(ValueError):
        spin_range(-1)


@pytest.mark.parametrize("j, twice", [(0, 0), (1.5, 3), (HalfInt(4), 4)])
def test_spin_is_the_half_integer_of_j(j, twice):
    assert spin(j) == HalfInt(twice)


@pytest.mark.parametrize("j", [-0.5, -1, HalfInt(-3)])
def test_spin_refuses_a_negative_spin(j):
    with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
        spin(j)


def test_str_forms():
    assert str(HalfInt.of(2)) == "2"
    assert str(HalfInt.of(-0.5)) == "-1/2"


def test_reflected_subtraction_and_repr():
    assert 1 - HalfInt(1) == HalfInt(1)
    assert repr(HalfInt(3)) == "HalfInt(3/2)"


@pytest.mark.parametrize("j, m, twice", [(HalfInt(2), -1, -2), (HalfInt(3), 0.5, 1), (HalfInt(1), 3.5, 7)])
def test_magnetic_reads_an_m_of_the_form_j_minus_k(j, m, twice):
    # the range |m| <= j is the basis row's rule (su2._row), not the number's
    assert magnetic(j, m) == HalfInt(twice)


@pytest.mark.parametrize("j, m, text", [(HalfInt(2), 0.5, "m=1/2 is not of the form j-k for j=1"),
                                        (HalfInt(1), -1, "m=-1 is not of the form j-k for j=1/2")])
def test_magnetic_refuses_an_m_off_the_parity_of_j(j, m, text):
    with pytest.raises(ValueError) as refused:
        magnetic(j, m)
    assert str(refused.value) == text
