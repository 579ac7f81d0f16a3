"""Truncated Laurent series over Q[h], checked against the Scalar field.

The oracle is independent of the series code: a series read back as the
Scalar sum of c * (p - 1)^t * h^e must differ from the value it claims to
expand by a multiple of (p - 1)^prec, which ``Scalar.pole_order_at_p1``
decides by synthetic division over Z[p, h].  The fixed cases below check
the operations of the differential systems against binomial coefficients
worked out independently.  A limit at p = 1 is read as the contraction
reads it, by a 1 x 1 packed chain of :mod:`ospq.packed`.
"""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ospq.errors import BadSeriesHead, DivisionByZero, PoleAtUnity, PrecisionShortfall
from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.laurent import Laurent, valuation, valuation_floor
from ospq.packed import SeriesPlan
from ospq.qnumber import QNumber
from ospq.qrmatrix import universal_Rq, universal_Rq_factors
from ospq.scalar import H, ONE, P, ZERO, Scalar, scalar_from_string

from helpers import clear_package_caches

T = P - ONE


def S(text):
    return scalar_from_string(text)


def back(series: Laurent) -> Scalar:
    """The known part of a series as a Scalar in p and h."""
    total = ZERO
    for (t, e), c in series.terms.items():
        total = total + Scalar.monomial(Fraction(c, series.den), 0, e) * T**t
    return total


def vanishes_below(value: Scalar, prec: int) -> bool:
    """value is a multiple of (p - 1)^prec."""
    rest = value / T**prec
    return rest.is_zero or rest.pole_order_at_p1() == 0


def agrees_below_prec(value: Scalar, series: Laurent) -> bool:
    """value - back(series) vanishes at p = 1 to order series.prec."""
    return vanishes_below(value - back(series), series.prec)


def d_dp(x: Scalar) -> Scalar:
    """The derivative in p, by the quotient rule on num/den."""

    def poly(terms):
        return sum((Scalar.monomial(c, a, e) for (a, e), c in terms.items()), ZERO)

    def prime(terms):
        return poly({(a - 1, e): a * c for (a, e), c in terms.items() if a})

    num, den = poly(x.num), poly(x.den)
    return (prime(x.num) * den - num * prime(x.den)) / (den * den)


def same(a: Laurent, b: Laurent) -> bool:
    """No known coefficient of a - b is nonzero."""
    return (a - b).first_nonzero() is None


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


def chain_limit(series: Laurent) -> Scalar:
    """The limit of ``series`` read by the contraction's packed chain, as
    the one entry of 1 (series 1) with 1 x 1 legs equal to 1."""
    room = max(series.prec - series.val, 1)
    one = GradedMatrix((0,), {(0, 0): Laurent({(0, 0): 1}, 1, room)})
    rq = GradedMatrix((0,), {(0, 0): series})
    need = {0: room}
    return SeriesPlan(rq, (one, one), (one, one), need, need).run().limit().entry(0, 0)


@settings(max_examples=60, deadline=None)
@given(expandable())
def test_limit_matches_scalar_limit(x):
    series = Laurent.from_scalar(x, 1)
    if x.pole_order_at_p1():
        with pytest.raises(PoleAtUnity):
            chain_limit(series)
    else:
        assert chain_limit(series) == x.limit_p_to_1()


def test_valuation_is_order_at_one():
    # (p^2 - 1)^2 / (p^4 - 1)^3 has valuation 2 - 3 = -1
    x = S("(p^2-1)^2/(p^4-1)^3")
    series = Laurent.from_scalar(x, 2)
    assert valuation_floor(x) == -1
    assert series.val == -1
    assert series.coefficient(-1) == {0: Fraction(1, 16)}


@settings(max_examples=80, deadline=None)
@given(expandable(), st.integers(min_value=1, max_value=3), st.sampled_from([ONE, H, P + H]))
def test_valuation_counts_a_numerator_that_vanishes_at_one(x, k, c):
    # (p - 1)^k c x lies k orders above x, so above its floor once x has
    # no pole; the expansion's lowest known term sits exactly there
    assume(not x.is_zero)
    y = x * c * T**k
    v = valuation(y)
    assert v == valuation(x) + k
    assert Laurent.from_scalar(y, v + 1).val == v
    assert Laurent.from_scalar(x, v + 1).val == v - k


def test_valuation_of_each_h_slice():
    # the least vanishing h-slice decides: p - 1 + h has order 0, and
    # (p^2 - 1) h + (p - 1)^2 has order 1 although no slice is constant
    for text, v in (
        ("p-1+h", 0),
        ("(p^2-1)*h+(p-1)^2", 1),
        ("(p^2-1)^2*h/(p^4-1)", 1),
        ("(p-1)^3/(h*(p^2-1)*(p^4+1))", 2),
        ("h/(p^4-1)", -1),
    ):
        x = S(text)
        assert valuation(x) == v
        assert Laurent.from_scalar(x, v + 1).val == v
        assert valuation_floor(x) <= v


@pytest.mark.parametrize("twice", [(2, 2), (3, 3), (1, 4)])
def test_valuation_of_r_matrix_entries(twice):
    # the (1 - q^-2)^n of the universal R-matrix lifts entries above their
    # floor; each valuation is where the expansion starts
    rq = universal_Rq(*(HalfInt.from_twice(t) for t in twice))
    above = 0
    for s in rq.entries.values():
        v = valuation(s)
        assert Laurent.from_scalar(s, v + 1).val == v
        above += v > valuation_floor(s)
    assert above


def test_h_in_the_denominator():
    series = Laurent.from_scalar(S("(p+h)/(h^2*p)"), 2)
    assert series.coefficient(0) == {-2: 1, -1: 1}
    assert chain_limit(series) == S("(h+1)/h^2")


def test_surviving_pole_raises():
    with pytest.raises(PoleAtUnity):
        chain_limit(Laurent.from_scalar(S("h/(p^2-1)"), 1))


def test_mixed_denominator_is_refused():
    with pytest.raises(ValueError):
        Laurent.from_scalar(S("1/(p+h)"), 1)


# -- the operations of the differential systems -------------------------------


@settings(max_examples=60, deadline=None)
@given(expandable(), _prec)
def test_reciprocal_agrees_below_the_precision_it_claims(x, prec):
    series = Laurent.from_scalar(x, prec)
    assume(series.first_nonzero() is not None)
    v = series.val
    if set(series.coefficient(v)) != {0}:
        with pytest.raises(BadSeriesHead):
            series.reciprocal()
        return
    inv = series.reciprocal()
    assert (inv.val, inv.prec) == (-v, prec - 2 * v)
    assert agrees_below_prec(x.reciprocal(), inv)


@settings(max_examples=60, deadline=None)
@given(expandable(), _prec)
def test_derivative_agrees_below_the_precision_it_claims(x, prec):
    d = Laurent.from_scalar(x, prec).derivative()
    assert d.prec == prec - 1
    assert agrees_below_prec(d_dp(x), d)


_exponents = st.sampled_from(
    [Fraction(n, d) for n, d in ((1, 2), (-1, 2), (1, 3), (-1, 4), (3, 2), (2, 1))]
)


@settings(max_examples=40, deadline=None)
@given(expandable(), _exponents, st.integers(min_value=1, max_value=4))
def test_rational_power_agrees_below_the_precision_it_claims(w, r, prec):
    # x = 1 + O(t); y = x^(m/n) read back must satisfy y^n = x^m to that order
    x = ONE + w * T ** (1 - min(valuation_floor(w), 0))
    y = Laurent.from_scalar(x, prec).rational_power(r)
    r = Fraction(r)
    assert y.prec == prec
    assert vanishes_below(back(y) ** r.denominator - x**r.numerator, prec)


def test_sqrt_of_one_plus_x_matches_binomial_theorem():
    got = (1 + Laurent.variable(11)).sqrt()
    # independent oracle: C(1/2, k) = (-1)^(k-1) * C(2k, k) / (4^k * (2k-1))
    for k in range(11):
        if k == 0:
            expect = Fraction(1)
        else:
            expect = Fraction((-1) ** (k - 1) * comb(2 * k, k), 4**k * (2 * k - 1))
        assert got.coefficient(k) == {0: expect}
    assert got.prec == 11


def test_sqrt_squares_back():
    x = Laurent.variable(13)
    s = 1 + x * 3 - x * x * 2
    r = s.sqrt()
    assert same(r * r, s)
    assert (r * r).prec == 13


def test_sqrt_rejects_bad_head():
    x = Laurent.variable(5)
    for bad in (x + 2, x, x + H, x.reciprocal() + 1):
        with pytest.raises(BadSeriesHead):
            bad.sqrt()


def test_rational_power_composes():
    s = 1 + Laurent.variable(11)
    third = s.rational_power(Fraction(1, 3))
    assert same(third * third * third, s)
    assert same(s.rational_power(Fraction(-1, 2)) * s.sqrt(), s - s + 1)


def test_reciprocal_geometric_series():
    x = Laurent.variable(10)
    inv = (1 - x).reciprocal()
    assert inv.prec == 10
    assert all(inv.coefficient(k) == {0: 1} for k in range(10))
    pole = x.reciprocal()
    assert (pole.val, pole.prec, pole.coefficient(-1)) == (-1, 8, {0: 1})
    with pytest.raises(DivisionByZero):
        (x - x).reciprocal()
    with pytest.raises(BadSeriesHead):
        (x * H + x * x).reciprocal()


def test_derivative():
    x = Laurent.variable(7)
    d = (5 + x * 2 + x * x * 7).derivative()
    assert d.prec == 6
    assert d.coefficient(0) == {0: 2}
    assert d.coefficient(1) == {0: 14}
    assert all(d.coefficient(k) == {} for k in range(2, 6))


def test_truncation_tracks_shorter_operand():
    a = Laurent.variable(4)
    b = Laurent.variable(10)
    assert (a + b).prec == 4
    # a product also gains the other operand's valuation
    assert (a * b).prec == 5


def test_truncate_beyond_the_precision_raises():
    x = Laurent.variable(6)
    short = (x + x * x).truncate(2)
    assert short.prec == 2
    assert short.first_nonzero() == (1, ONE)
    with pytest.raises(PrecisionShortfall):
        short.coefficient(2)
    with pytest.raises(PrecisionShortfall):
        x.truncate(7)


def test_scalar_coefficients_allowed():
    s = 1 + Laurent.variable(3) * S("h^2/2")
    assert (s * s).coefficient(1) == {2: 1}


def test_first_nonzero():
    x = Laurent.variable(6)
    assert (x * x * 3).first_nonzero() == (2, Scalar.from_int(3))
    assert (x * S("h/2")).first_nonzero() == (1, S("h/2"))
    assert (x * 0).first_nonzero() is None
    assert Laurent.variable(2).first_nonzero() == (1, ONE)
    assert Laurent.variable(1).first_nonzero() is None


# -- R_q's expansion from its cyclotomic factors ---------------------------------


def identical(a: Laurent, b: Laurent) -> bool:
    """The same precision, valuation and coefficients, whatever the
    denominators the two series keep."""
    return (a.prec, a.val) == (b.prec, b.val) and {
        k: Fraction(c, a.den) for k, c in a.terms.items()
    } == {k: Fraction(c, b.den) for k, c in b.terms.items()}


@pytest.fixture
def cold_caches():
    """Empty caches, so that each unit series is first built at the
    shortest length the test asks of it."""
    clear_package_caches()
    yield
    clear_package_caches()


LADDER = [HalfInt.from_twice(t) for t in (1, 2, 3, 4)]

# Phi_d(1) is the prime q for d a power of q, and 1 for the other d > 1.
_PHI_ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 25, 27]


@st.composite
def qnumbers(draw):
    rational = Fraction(
        draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
    )
    phi = draw(st.dictionaries(st.sampled_from(_PHI_ORDERS), st.integers(-3, 3), max_size=4))
    return QNumber(rational, draw(st.integers(-6, 6)), phi)


class TestFromQNumber:
    def test_every_r_matrix_entry_matches_the_scalar_expansion(self, cold_caches):
        # each precision in turn, from the shortest: a unit series cached
        # at one length must not stand in for a longer one
        for pair in product(LADDER, repeat=2):
            entries = universal_Rq_factors(*pair).values()
            for prec in range(1, 5):
                for q in entries:
                    want = Laurent.from_scalar(q.to_scalar(), prec)
                    assert identical(Laurent.from_qnumber(q, prec), want), (pair, prec)

    @settings(max_examples=200, deadline=None)
    @given(qnumbers(), st.lists(st.integers(-3, 6), min_size=1, max_size=3))
    def test_drawn_qnumbers_match_the_scalar_expansion(self, q, precs):
        # negative powers of p, negative cyclotomic exponents and prime
        # power orders d, whose Phi_d(1) puts a prime in the denominator
        for prec in precs:
            want = Laurent.from_scalar(q.to_scalar(), prec)
            assert identical(Laurent.from_qnumber(q, prec), want)

    def test_zero_and_one(self):
        assert identical(Laurent.from_qnumber(QNumber(0), 3), Laurent({}, 1, 3))
        assert identical(Laurent.from_qnumber(QNumber(1), 2), Laurent({(0, 0): 1}, 1, 2))

    def test_valuation_is_the_phi_one_exponent(self):
        q = QNumber(Fraction(-2, 3), -5, {1: 2, 2: -1, 4: -2, 6: 1})
        series = Laurent.from_qnumber(q, 4)
        assert series.val == q.valuation() == 2
        # r (1 + t)^a Phi_2(1 + t)^-1 Phi_4(1 + t)^-2 Phi_6(1 + t) at t = 0
        assert series.coefficient(2) == {0: Fraction(-2, 3) / 2 / 4}
