"""Truncated Laurent series about p = 1, checked against the Scalar field.

The oracle is independent of the series code: a series read back as the
Scalar sum of c * (p - 1)^t * h^e must differ from the value it claims to
expand by a multiple of (p - 1)^prec, which ``Scalar.pole_order_at_p1``
decides by synthetic division over Z[p, h].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospq.errors import PoleAtUnity
from ospq.laurent import Laurent, valuation_floor
from ospq.scalar import ONE, P, ZERO, Scalar, scalar_from_string

T = P - ONE


def S(text):
    return scalar_from_string(text)


def back(series: Laurent) -> Scalar:
    """The known part of a series as a Scalar in p and h."""
    total = ZERO
    for (t, e), c in series.terms.items():
        total = total + Scalar.monomial(Fraction(c, series.den), 0, e) * T**t
    return total


def agrees_below_prec(value: Scalar, series: Laurent) -> bool:
    """value - back(series) vanishes at p = 1 to order series.prec."""
    rest = (value - back(series)) / T**series.prec
    return rest.is_zero or rest.pole_order_at_p1() == 0


# Denominators h^b * d(p), d a product of the factors the bridge and R_q use.
_FACTORS = [S("p-1"), S("p+1"), S("p^2+1"), S("p^2-p+1"), S("p^4+1"), P, S("3")]


@st.composite
def expandable(draw):
    num = ZERO
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        num = num + Scalar.monomial(
            draw(st.integers(min_value=-5, max_value=5)),
            draw(st.integers(min_value=0, max_value=5)),
            draw(st.integers(min_value=0, max_value=2)),
        )
    den = Scalar.monomial(1, 0, draw(st.integers(min_value=0, max_value=1)))
    for factor in draw(st.lists(st.sampled_from(_FACTORS), max_size=4)):
        den = den * factor
    return num / den


_prec = st.integers(min_value=-2, max_value=5)


@settings(max_examples=80, deadline=None)
@given(expandable(), _prec)
def test_expansion_agrees_below_its_precision(x, prec):
    series = Laurent.from_scalar(x, prec)
    assert series.prec == prec
    assert all(t < prec for t, _ in series.terms)
    assert agrees_below_prec(x, series)
    if not x.is_zero:
        assert series.val >= min(valuation_floor(x), prec)


@settings(max_examples=80, deadline=None)
@given(expandable(), expandable(), _prec, _prec)
def test_arithmetic_agrees_below_the_precision_it_claims(a, b, na, nb):
    sa, sb = Laurent.from_scalar(a, na), Laurent.from_scalar(b, nb)
    for value, series in (
        (a + b, sa + sb),
        (a - b, sa - sb),
        (-a, -sa),
        (a * b, sa * sb),
    ):
        assert agrees_below_prec(value, series)
    assert (sa * sb).prec == min(na + sb.val, nb + sa.val)
    assert (sa + sb).prec == min(na, nb)


@settings(max_examples=60, deadline=None)
@given(expandable())
def test_limit_matches_scalar_limit(x):
    series = Laurent.from_scalar(x, 1)
    if x.pole_order_at_p1():
        with pytest.raises(PoleAtUnity):
            series.limit()
    else:
        assert series.limit() == x.limit_p_to_1()


def test_valuation_is_order_at_one():
    # (p^2 - 1)^2 / (p^4 - 1)^3 has valuation 2 - 3 = -1
    x = S("(p^2-1)^2/(p^4-1)^3")
    series = Laurent.from_scalar(x, 2)
    assert valuation_floor(x) == -1
    assert series.val == -1
    assert series.coefficient(-1) == {0: Fraction(1, 16)}


def test_h_in_the_denominator():
    series = Laurent.from_scalar(S("(p+h)/(h^2*p)"), 2)
    assert series.coefficient(0) == {-2: 1, -1: 1}
    assert series.limit() == S("(h+1)/h^2")


def test_surviving_pole_raises():
    with pytest.raises(PoleAtUnity):
        Laurent.from_scalar(S("h/(p^2-1)"), 1).limit()


def test_mixed_denominator_is_refused():
    with pytest.raises(ValueError):
        Laurent.from_scalar(S("1/(p+h)"), 1)
