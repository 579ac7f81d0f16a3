"""Kernel tests for the exact scalar field Q(p, h).

Expected values here were worked out by hand (or with integer
arithmetic independent of the Scalar class) and frozen, so a silent
regression in reduction, limits or printing cannot hide.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ospq.contraction import m_matrix
from ospq.errors import DivisionByZero, PoleAtUnity
from ospq.gmatrix import graded_kron, inverse
from ospq.halfint import HalfInt
from ospq.qrmatrix import universal_Rq
from ospq.scalar import (
    _UONE,
    H,
    ONE,
    P,
    ZERO,
    Scalar,
    _content_p,
    _h_major,
    _h_major_div_u,
    _h_prem,
    _monomial_gcd,
    _padd,
    _pdiv_exact,
    _pgcd,
    _plead_key,
    _pmul,
    _pneg,
    _u_gcd,
    _u_mul_h,
    p_power,
    scalar_from_string,
    scalar_to_string,
)


def S(text):
    return scalar_from_string(text)


class TestReduction:
    def test_simple_cancel(self):
        assert S("(p^2-1)/(p-1)") == S("p+1")

    def test_mixed_cancel(self):
        got = S("h*(p^4-1)") / (S("p^2-1") * S("p^2+1"))
        assert got == H

    def test_denominator_normalization(self):
        a = S("1/(2*p-2)")
        b = S("1") / (S("2") * S("p-1"))
        assert a == b

    def test_no_overcancel(self):
        assert S("(p^2+1)/(p+1)") != S("p+1")
        back = S("(p^2+1)/(p+1)") * S("p+1")
        assert back == S("p^2+1")

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_power_negative(self):
        assert S("p") ** -2 == S("1/p^2")

    def test_cross_cancellation_in_product(self):
        left = S("(p^2-1)/h")
        right = S("h^2/(p-1)")
        assert left * right == S("h*(p+1)")


class TestLimit:
    def test_plain_limit(self):
        assert S("(p^4-1)/(p^2-1)").limit_p_to_1() == S("2")

    def test_pole(self):
        with pytest.raises(PoleAtUnity):
            S("h/(p^2-1)").limit_p_to_1()

    def test_removable_before_limit(self):
        assert (S("h*(p-1)^2") / S("p-1")).limit_p_to_1() == ZERO

    def test_limit_keeps_h(self):
        got = S("(h^2*(p^3-1))/(p-1)").limit_p_to_1()
        assert got == S("3*h^2")

    def test_pole_order(self):
        assert S("h/(p^2-1)").pole_order_at_p1() == 1
        assert S("1/(p-1)^3").pole_order_at_p1() == 3
        assert S("p^4+h").pole_order_at_p1() == 0


class TestPPower:
    def test_examples(self):
        assert p_power(HalfInt.parse("3/2")) == S("p^3")
        assert p_power(HalfInt(-1)) == S("1/p^2")
        assert p_power(HalfInt(0)) == ONE


class TestStrings:
    def test_spec_example_shape(self):
        s = S("(p^4-1)/(2*h)")
        assert scalar_to_string(s) == "(p^4-1)/(2*h)"

    def test_integer_scaling(self):
        s = Scalar.from_fraction(Fraction(1, 2)) * H * H
        assert scalar_to_string(s) == "h^2/2"

    def test_negative(self):
        assert scalar_to_string(-H) == "-h"

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "p",
            "h",
            "h^2/2",
            "-h",
            "(p^4-1)/(2*h)",
            "(p^2+p+1)/(p^2-p+1)",
            "2*p^3*h",
            "(h^3-3*h+1)/(p^5-p)",
            "1/p^2",
        ],
    )
    def test_round_trip(self, text):
        s = S(text)
        assert scalar_from_string(scalar_to_string(s)) == s

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            S("p +")
        with pytest.raises(ValueError):
            S("q")


class TestSubstitution:
    def test_h_value(self):
        s = S("(h^2+h)/(p-1)")
        got = s.substitute_h(Fraction(1, 3))
        assert got == S("4/(9*(p-1))")

    def test_h_coefficients(self):
        s = S("(1+2*h+3*h^2)/(p+1)")
        coeffs = s.h_coefficients(3)
        assert coeffs == [S("1/(p+1)"), S("2/(p+1)"), S("3/(p+1)"), ZERO]

    def test_as_fraction_with_constant_denominator(self):
        assert S("3/2").as_fraction() == Fraction(3, 2)
        assert (S("3*p") / S("4*p")).as_fraction() == Fraction(3, 4)
        assert ZERO.as_fraction() == 0
        with pytest.raises(ValueError):
            S("1/(2*p)").as_fraction()


# -- field axioms on randomized small scalars --------------------------------

_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    nterms = draw(st.integers(min_value=1, max_value=3))
    acc = ZERO
    for _ in range(nterms):
        c = draw(_coeff)
        ep = draw(st.integers(min_value=0, max_value=3))
        eh = draw(st.integers(min_value=0, max_value=2))
        acc = acc + Scalar.monomial(c, ep, eh)
    return acc


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda s: not s.is_zero))
    return num / den


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_sub_and_div_invert(a):
    assert a - a == ZERO
    if not a.is_zero:
        assert a / a == ONE
        assert a * a.reciprocal() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_round_trip_random(a):
    assert scalar_from_string(scalar_to_string(a)) == a


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_string_is_canonical(a, b):
    # equal values print identically, whatever route produced them
    if a == b:
        assert scalar_to_string(a) == scalar_to_string(b)


def test_p_and_h_basics():
    assert P * P == S("p^2")
    assert (P - 1) * (P + 1) == S("p^2-1")
    assert (S("p^2-1") / S("p-1")) == S("p+1")


# -- specialization oracle and canonical-form invariants ---------------------


def _evaluate(poly: dict, p0: Fraction, h0: Fraction) -> Fraction:
    return sum((c * p0**ep * h0**eh for (ep, eh), c in poly.items()), Fraction(0))


def _at(s: Scalar, p0: Fraction, h0: Fraction) -> Fraction:
    """s at (p, h) = (p0, h0); the point must be off the poles of s."""
    den = _evaluate(s.den, p0, h0)
    assume(den != 0)
    return _evaluate(s.num, p0, h0) / den


def _specialize(poly: dict, keep: int, value: Fraction) -> dict:
    """Substitute ``value`` for one variable: a univariate dict in the other."""
    out = {}
    for key, c in poly.items():
        e = key[keep]
        out[e] = out.get(e, 0) + c * value ** key[1 - keep]
    return {e: c for e, c in out.items() if c}


def _gcd_degree(a: dict, b: dict) -> int:
    """Degree of the univariate gcd over Q, by plain Euclid on Fractions."""
    while b:
        db = max(b)
        a = dict(a)
        while a and max(a) >= db:
            da = max(a)
            f = Fraction(a[da]) / b[db]
            for e, c in b.items():
                k = e + da - db
                a[k] = a.get(k, 0) - f * c
                if not a[k]:
                    del a[k]
        a, b = b, a
    return max(a)


def _assert_canonical(s: Scalar):
    coeffs = [*s.num.values(), *s.den.values()]
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    lead = max(s.den, key=lambda k: (k[1], k[0]))
    assert s.den[lead] > 0
    # A common factor of num and den survives every specialization of the
    # variable it does not depend on (or of either, if it has both), so a
    # reduced pair has a constant gcd at one point at least.
    points = (Fraction(7, 11), Fraction(-13, 5), Fraction(17, 3))
    for keep in (0, 1):
        assert any(
            _gcd_degree(_specialize(s.num, keep, v), _specialize(s.den, keep, v)) <= 0
            for v in points
        )


_point = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), _point, _point, st.integers(min_value=-3, max_value=3))
def test_operations_commute_with_specialization(a, b, p0, h0, n):
    va, vb = _at(a, p0, h0), _at(b, p0, h0)
    results = [(a + b, va + vb), (a - b, va - vb), (a * b, va * vb)]
    if vb:
        results.append((a / b, va / vb))
    if va or n >= 0:
        results.append((a**n, va**n))
    for got, want in results:
        _assert_canonical(got)
        assert _at(got, p0, h0) == want


@settings(max_examples=60, deadline=None)
@given(scalars(), _point, _point)
def test_substitutions_commute_with_specialization(a, p0, h0):
    want = _at(a, p0, h0)
    got = a.substitute_h(h0)
    _assert_canonical(got)
    assert _at(got, p0, Fraction(0)) == want
    one = Fraction(1)
    assume(_evaluate(a.den, one, h0) != 0)
    limit = a.limit_p_to_1()
    _assert_canonical(limit)
    assert _at(limit, p0, h0) == _at(a, one, h0)


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_hash_follows_equality(a):
    again = scalar_from_string(scalar_to_string(a))
    assert again == a and hash(again) == hash(a)


# Entries of the conjugated R-matrix at spins (1, 1) before the limit p -> 1:
# reduced fractions whose denominators are products of p and cyclotomic
# polynomials in p, printed as they were before integer coefficients.
_CONTRACT_ONE_ONE = [
    ((0, 8), "(p^16*h^2+p^12*h^2+p^8*h^2+p^4*h^2+p^2*h^2+h^2)/(p^19+p^17+p^11+p^9)"),
    ((0, 16), "(-p^20*h^2-p^16*h^2-p^12*h^2+p^10*h^2-2*p^8*h^2-p^2*h^2-h^2)/(p^21+p^19+p^13+p^11)"),
    ((0, 18), "(-p^18*h^3+p^12*h^3+p^8*h^3-p^6*h^3+p^2*h^3+h^3)/(p^23+2*p^21+p^19+p^15+2*p^13+p^11)"),
    ((0, 24), "(p^10*h^4-p^4*h^4-p^2*h^4-h^4)/(p^30+2*p^28+p^26+2*p^22+4*p^20+2*p^18+p^14+2*p^12+p^10)"),
    ((1, 19), "(p^8*h^3+2*p^4*h^3+p^2*h^3+2*h^3)/(p^16+2*p^14+p^12+p^8+2*p^6+p^4)"),
    ((1, 21), "h^2/(p^12+p^4)"),
    ((3, 19), "(2*p^8*h^2+2*p^4*h^2+2*h^2)/(p^14+p^12+p^6+p^4)"),
    ((3, 23), "p^4*h^2/(p^8+1)"),
    ((5, 17), "(p^6*h^2+p^2*h^2)/(p^10+p^8+p^2+1)"),
    ((5, 23), "(-2*p^14*h^3-p^6*h^3-2*p^2*h^3-h^3)/(p^22+2*p^20+p^18+p^14+2*p^12+p^10)"),
    ((2, 16), "(p^14*h-p^12*h+2*p^10*h-p^8*h-h)/p^11"),
    ((6, 12), "(-p^6*h+p^4*h-2*p^2*h+h)/p^5"),
]


def test_printed_bytes_of_contraction_entries():
    m = m_matrix(1)
    big_m = graded_kron(m, m, b_op_parity=0)
    big_minv = graded_kron(inverse(m), inverse(m), b_op_parity=0)
    pre = big_minv @ (universal_Rq(1, 1) @ big_m)
    for key, text in _CONTRACT_ONE_ONE:
        entry = pre.entries[key]
        _assert_canonical(entry)
        assert scalar_to_string(entry) == text
        assert scalar_from_string(text) == entry


# -- single-term fast paths against the general path --------------------------

_exponent = st.integers(min_value=-3, max_value=3)


@st.composite
def monomial_ratios(draw):
    """(c/d) * p^a * h^b with exponents of either sign."""
    c = draw(st.integers(min_value=-12, max_value=12).filter(bool))
    d = draw(st.integers(min_value=1, max_value=12))
    return Scalar.monomial(Fraction(c, d), draw(_exponent), draw(_exponent))


@st.composite
def over_one_monomial(draw, den):
    """A canonical scalar whose denominator is exactly ``den``: a
    polynomial numerator with no monomial factor and no integer factor
    shared with the denominator's coefficient."""
    (k,) = den.values()
    num = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        key = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
        num[key] = draw(st.integers(min_value=-12, max_value=12).filter(bool))
    mp = min(ep for ep, _ in num)
    mh = min(eh for _, eh in num)
    num = {(ep - mp, eh - mh): c for (ep, eh), c in num.items()}
    while (g := gcd(k, *num.values())) > 1:
        num = {key: c // g for key, c in num.items()}
    return Scalar(num, dict(den), _canonical=True)


@st.composite
def same_monomial_den_pairs(draw):
    """Two canonical scalars over one monomial denominator.  Half of the
    pairs are built from their sum, which then carries a monomial and an
    integer factor, so that the reduction of the sum has work to do."""
    k = draw(st.integers(min_value=1, max_value=12))
    den = {(draw(st.integers(0, 3)), draw(st.integers(0, 3))): k}
    a = draw(over_one_monomial(den))
    if draw(st.booleans()):
        return a, draw(over_one_monomial(den))
    c, i, j = draw(st.integers(1, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rest = draw(over_one_monomial({(0, 0): 1})).num
    total = {(ep + i, eh + j): c * v for (ep, eh), v in rest.items()}
    num = _padd(total, {key: -v for key, v in a.num.items()})
    assume(num and gcd(k, *num.values()) == 1)
    assume(min(ep for ep, _ in num) == 0 == min(eh for _, eh in num))
    return a, Scalar(num, dict(den), _canonical=True)


@settings(max_examples=200, deadline=None)
@given(monomial_ratios(), monomial_ratios())
def test_monomial_product_matches_general_path(a, b):
    got = a * b
    want = Scalar._make(_pmul(a.num, b.num), _pmul(a.den, b.den))
    _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    assert scalar_to_string(got) == scalar_to_string(want)


@settings(max_examples=200, deadline=None)
@given(same_monomial_den_pairs())
def test_equal_monomial_den_sum_matches_general_path(pair):
    a, b = pair
    _assert_canonical(a)
    got = a + b
    want = Scalar._make(_padd(a.num, b.num), a.den)
    if not got.is_zero:
        _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    assert scalar_to_string(got) == scalar_to_string(want)


@settings(max_examples=60, deadline=None)
@given(st.one_of(monomial_ratios(), scalars()))
def test_one_is_returned_unchanged(x):
    assert x * ONE is x
    assert ONE * x is x
    assert x * 1 is x


def test_units_are_the_one_object():
    assert Scalar.from_fraction(Fraction(3, 3)) is ONE
    assert Scalar.monomial(1) is ONE
    assert p_power(HalfInt(0)) is ONE
    assert P * P.reciprocal() is ONE
    assert S("2*h/3") * S("3/(2*h)") is ONE


@st.composite
def different_monomial_den_pairs(draw):
    """Two canonical scalars over two different one-term denominators:
    either two monomial ratios, or a monomial ratio and a polynomial over
    a monomial, in either order."""
    a = draw(monomial_ratios())
    if draw(st.booleans()):
        b = draw(monomial_ratios())
    else:
        k = draw(st.integers(min_value=1, max_value=12))
        b = draw(over_one_monomial({(draw(st.integers(0, 3)), draw(st.integers(0, 3))): k}))
    assume(a.den != b.den)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(different_monomial_den_pairs())
def test_different_monomial_den_sum_matches_general_path(pair):
    a, b = pair
    got = a + b
    want = Scalar._make(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))
    if not got.is_zero:
        _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    assert scalar_to_string(got) == scalar_to_string(want)


@st.composite
def one_term_den_scalars(draw):
    """A canonical scalar with a one-term denominator: a monomial ratio, or
    a polynomial numerator, shifted by the powers the denominator lacks."""
    if draw(st.booleans()):
        return draw(monomial_ratios())
    dp, dh = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    s = draw(over_one_monomial({(dp, dh): draw(st.integers(min_value=1, max_value=12))}))
    i = 0 if dp else draw(st.integers(0, 2))
    j = 0 if dh else draw(st.integers(0, 2))
    return Scalar({(ep + i, eh + j): c for (ep, eh), c in s.num.items()}, s.den, _canonical=True)


@settings(max_examples=300, deadline=None)
@given(one_term_den_scalars(), one_term_den_scalars())
def test_one_term_den_product_matches_general_path(a, b):
    _assert_canonical(a)
    got = a * b
    want = Scalar._make(_pmul(a.num, b.num), _pmul(a.den, b.den))
    _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    assert scalar_to_string(got) == scalar_to_string(want)


@settings(max_examples=200, deadline=None)
@given(polys(), polys().filter(lambda s: len(s.num) == 1))
def test_one_term_pmul_matches_double_loop(a, b):
    want = {}
    for (ea, ha), ca in a.num.items():
        for (eb, hb), cb in b.num.items():
            key = (ea + eb, ha + hb)
            want[key] = want.get(key, 0) + ca * cb
    want = {key: c for key, c in want.items() if c}
    assert _pmul(a.num, b.num) == want == _pmul(b.num, a.num)


# -- Henrici sums and h-free GCDs against the full-GCD route ------------------


def reference_pgcd(a: dict, b: dict) -> dict:
    """The GCD in Z[p, h] by the primitive h-PRS alone, with no h-free
    shortcut: the oracle for ``_pgcd`` and for Henrici's sum."""
    if len(a) == 1 or len(b) == 1:
        return _monomial_gcd(a, b)
    epa, eha = min(k[0] for k in a), min(k[1] for k in a)
    epb, ehb = min(k[0] for k in b), min(k[1] for k in b)
    mono = (min(epa, epb), min(eha, ehb))
    ma = _h_major({(ep - epa, eh - eha): c for (ep, eh), c in a.items()})
    mb = _h_major({(ep - epb, eh - ehb): c for (ep, eh), c in b.items()})
    ca, cb = _content_p(ma), _content_p(mb)
    g0 = _u_gcd(ca, cb)
    pa, pb = _h_major_div_u(ma, ca), _h_major_div_u(mb, cb)
    if max(pa) == 0 or max(pb) == 0:
        prim = {0: _UONE}
    else:
        while True:
            if not pb:
                prim = pa
                break
            if max(pb) == 0:
                prim = {0: _UONE}
                break
            r = _h_prem(pa, pb)
            pa = pb
            pb = _h_major_div_u(r, _content_p(r)) if r else {}
    out = {}
    for eh, u in _u_mul_h(prim, g0).items():
        for ep, c in u.items():
            out[(ep + mono[0], eh + mono[1])] = c
    return _pneg(out) if out[_plead_key(out)] < 0 else out


def reference_sum(a: Scalar, b: Scalar) -> tuple:
    """(num, den) of a + b as the sum over b d, reduced by one full GCD."""
    num = _padd(_pmul(a.num, b.den), _pmul(b.num, a.den))
    if not num:
        return ZERO.num, ZERO.den
    den = _pmul(a.den, b.den)
    g = reference_pgcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    if den[_plead_key(den)] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


# Factors of the denominators the package meets: q-brackets and
# cyclotomic polynomials in p, an integer, and a few that carry h.
_FACTORS = [
    S(text)
    for text in (
        "p^2+1", "p^2-1", "p^4+p^2+1", "p^4+1", "p+1", "p^4-p^2+1", "3",
        "2*p^2+3", "p^2+h", "h*p+1", "h^2+p^2+1",
    )
]


@st.composite
def bracket_dens(draw):
    """A product of one to three factors from ``_FACTORS`` and a monomial."""
    den = Scalar.monomial(draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        den = den * draw(st.sampled_from(_FACTORS))
    return den


@st.composite
def over_bracket_dens(draw):
    return draw(polys().filter(bool)) / draw(bracket_dens())


@st.composite
def henrici_pairs(draw):
    """Two scalars over products of ``_FACTORS``.  A third are a and r - a
    for a drawn r, whose sum r often cancels a factor the two denominators
    share into their gcd; a sixth are a and -a, which sum to zero."""
    a = draw(over_bracket_dens())
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return a, -a
    if kind <= 2:
        return a, draw(over_bracket_dens()) - a
    return a, draw(over_bracket_dens())


@settings(max_examples=300, deadline=None)
@given(henrici_pairs())
def test_henrici_sum_matches_the_full_gcd_route(pair):
    a, b = pair
    got = a + b
    assert (got.num, got.den) == reference_sum(a, b)
    if got.is_zero:
        assert got is ZERO
    else:
        _assert_canonical(got)
    assert scalar_to_string(got) == scalar_to_string(b + a)


@st.composite
def h_free_gcd_pairs(draw):
    """Two polynomials, one free of h and one not, in either order, built
    from the h-free factors of ``_FACTORS`` so that they often share some."""
    a = draw(polys().map(lambda s: s.substitute_h(1)).filter(bool))
    b = draw(polys().filter(lambda s: s.h_degree() > 0))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        factor = draw(st.sampled_from(_FACTORS[:8]))
        a = a * factor
        if draw(st.booleans()):
            b = b * factor
    return (a.num, b.num) if draw(st.booleans()) else (b.num, a.num)


@settings(max_examples=300, deadline=None)
@given(h_free_gcd_pairs())
def test_h_free_gcd_matches_the_prs(pair):
    a, b = pair
    assert _pgcd(a, b) == reference_pgcd(a, b)


def test_h_free_gcd_keeps_integer_content_and_p_powers():
    a = S("6*p^3+12*p^5").num
    b = S("4*p^2*h+8*p^4*h+2*p^2").num
    assert _pgcd(a, b) == reference_pgcd(a, b) == {(2, 0): 2}
    assert _pgcd(S("2*p^2+2").num, S("(p^2+1)*(h+3*p)").num) == {(2, 0): 1, (0, 0): 1}
