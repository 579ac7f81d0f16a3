"""Series layer tests with independently computed binomial oracles."""

from fractions import Fraction
from math import comb

import pytest

from ospq.errors import BadSeriesHead, DivisionByZero
from ospq.scalar import ONE, ZERO, Scalar, scalar_from_string
from ospq.series import PowerSeries


def const(c, order=8):
    return PowerSeries.constant(c, "x", order)


def var(order=8):
    return PowerSeries.variable("x", order)


def test_sqrt_of_one_plus_x_matches_binomial_theorem():
    x = var(10)
    got = (const(1, 10) + x).sqrt()
    # independent oracle: C(1/2, k) = (-1)^(k-1) * C(2k, k) / (4^k * (2k-1))
    for k in range(11):
        if k == 0:
            expect = Fraction(1)
        else:
            expect = Fraction((-1) ** (k - 1) * comb(2 * k, k), 4**k * (2 * k - 1))
        assert got.coeffs[k] == Scalar.from_fraction(expect)


def test_sqrt_squares_back():
    x = var(12)
    s = const(1, 12) + x * 3 - x * x * 2
    r = s.sqrt()
    assert r * r == s


def test_sqrt_rejects_bad_head():
    with pytest.raises(BadSeriesHead):
        const(2, 4).sqrt()
    with pytest.raises(BadSeriesHead):
        var(4).sqrt()


def test_rational_power_composes():
    x = var(10)
    s = const(1, 10) + x
    third = s.rational_power(Fraction(1, 3))
    assert third * third * third == s
    assert s.rational_power(Fraction(-1, 2)) * s.sqrt() == const(1, 10)


def test_reciprocal_geometric_series():
    x = var(9)
    inv = (const(1, 9) - x).reciprocal()
    assert all(c == ONE for c in inv.coeffs)
    with pytest.raises(DivisionByZero):
        var(4).reciprocal()


def test_derivative():
    x = var(6)
    s = const(5, 6) + x * 2 + x * x * 7
    d = s.derivative()
    assert d.coeffs[0] == Scalar.from_int(2)
    assert d.coeffs[1] == Scalar.from_int(14)
    assert all(c == ZERO for c in d.coeffs[2:])


def test_truncation_tracks_shorter_operand():
    a = var(3)
    b = var(9)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_scalar_coefficients_allowed():
    hcoef = scalar_from_string("h^2/2")
    s = PowerSeries("b", [ONE, hcoef])
    assert (s * s).coeffs[1] == scalar_from_string("h^2")


def test_first_nonzero():
    x = var(5)
    assert (x * x * 3).first_nonzero() == (2, Scalar.from_int(3))
    assert const(0, 3).first_nonzero() is None
