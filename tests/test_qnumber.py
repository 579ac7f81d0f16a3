"""Factored q-numbers against the Scalar routes they replace.

``tests/references.py`` keeps the brackets as quotients of ``Scalar``
sums and R_q as a sum of graded Kronecker products of matrix powers.
Neither shares arithmetic with ``ospq.qnumber``, so each is an
independent oracle for the factored forms.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ospq.qnumber as qnumber
from ospq.errors import BadBracketArg, DivisionByZero
from ospq.halfint import HalfInt
from ospq.laurent import valuation
from ospq.qnumber import QNumber, cyclotomic
from ospq.qrmatrix import universal_Rq, universal_Rq_factors
from ospq.reps import factored_bracket, factored_plus_factorial
from ospq.scalar import ONE, P, ZERO, Scalar

from helpers import clear_package_caches, rq_half_j
from references import bracket_by_scalars, universal_Rq_by_matrices

SPINS = [HalfInt.from_twice(t) for t in range(1, 5)]
PAIRS = [*product(SPINS, repeat=2), (HalfInt(3), HalfInt(3))]


def q_numbers():
    """Products of rationals, powers of p and binomials p^m -+ 1."""
    factor = st.one_of(
        st.integers(-12, 12).map(QNumber.p_power),
        st.integers(-12, 12).filter(bool).map(QNumber.p_minus_one),
        st.integers(-12, 12).map(QNumber.p_plus_one),
        st.fractions(max_denominator=9).filter(bool).map(QNumber),
    )
    return st.lists(factor, max_size=5).map(_product)


def _product(factors):
    out = QNumber(1)
    for f in factors:
        out = out * f
    return out


class TestCyclotomic:
    def test_first_polynomials(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_nonzero_at_one_past_the_first(self):
        assert sum(cyclotomic(1)) == 0
        assert all(sum(cyclotomic(d)) for d in range(2, 60))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-40, 40))
    def test_phi_products_are_the_binomials(self, m):
        assert QNumber.p_minus_one(m).to_scalar() == P**m - ONE
        assert QNumber.p_plus_one(m).to_scalar() == P**m + ONE


class TestQNumber:
    @settings(max_examples=60, deadline=None)
    @given(q_numbers(), q_numbers())
    def test_product_is_the_scalar_product(self, a, b):
        assert (a * b).to_scalar() == a.to_scalar() * b.to_scalar()

    @settings(max_examples=60, deadline=None)
    @given(q_numbers(), st.integers(-3, 3))
    def test_reciprocal_and_power(self, a, n):
        assert a.reciprocal().to_scalar() == a.to_scalar().reciprocal()
        assert (a**n).to_scalar() == a.to_scalar() ** n
        assert (-a).to_scalar() == -a.to_scalar()

    @settings(max_examples=60, deadline=None)
    @given(q_numbers())
    def test_valuation_is_the_order_at_one(self, a):
        assert a.valuation() == valuation(a.to_scalar())

    def test_zero(self):
        zero = QNumber.p_minus_one(0)
        assert zero.to_scalar() is ZERO
        assert (zero * QNumber.p_plus_one(3)).to_scalar() is ZERO
        assert QNumber(1).to_scalar() is ONE
        assert QNumber.p_plus_one(0).to_scalar() == Scalar.from_int(2)
        with pytest.raises(DivisionByZero):
            zero.reciprocal()
        with pytest.raises(ValueError):
            zero.valuation()


halves = st.integers(-16, 16).map(HalfInt.from_twice)


class TestBrackets:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["q", "double", "curly"]), halves,
           st.integers(-4, 4).filter(bool))
    def test_each_kind_is_the_scalar_quotient(self, kind, x, base):
        got = factored_bracket(kind, x, base).to_scalar()
        assert got == bracket_by_scalars(kind, x, base)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 24))
    def test_plus_bracket_is_the_scalar_quotient(self, n):
        got = factored_bracket("plus", n).to_scalar()
        assert got == bracket_by_scalars("plus", HalfInt(n), 1)

    def test_zero_brackets(self):
        for kind in ("q", "curly"):
            for base in (1, -1, 2):
                assert factored_bracket(kind, 0, base).to_scalar() is ZERO
        assert factored_bracket("double", 0).to_scalar() is ZERO

    def test_bad_arguments_raise(self):
        for args in (("plus", 0), ("plus", HalfInt.from_twice(1)), ("plus", True),
                     ("plus", 2, 2), ("square", 1), ("q", 1, 0)):
            with pytest.raises(BadBracketArg):
                factored_bracket(*args)
        with pytest.raises(BadBracketArg):
            factored_plus_factorial(-1)

    def test_plus_factorial_is_the_product_of_scalar_brackets(self):
        total = ONE
        for n in range(1, 16):
            total = total * bracket_by_scalars("plus", HalfInt(n), 1)
            assert factored_plus_factorial(n).to_scalar() == total


class TestUniversalRq:
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: ",".join(map(str, pair)))
    def test_equals_the_matrix_route(self, pair):
        got, want = universal_Rq(*pair), universal_Rq_by_matrices(*pair)
        assert got.parity == want.parity
        assert set(got.entries) == set(want.entries)
        for key, s in want.entries.items():
            assert (got.entries[key].num, got.entries[key].den) == (s.num, s.den)

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_equals_the_closed_block_form(self, j):
        assert universal_Rq(HalfInt.from_twice(1), j) == rq_half_j(j)

    @pytest.mark.parametrize("pair", PAIRS[:16], ids=lambda pair: ",".join(map(str, pair)))
    def test_factored_valuations_are_the_laurent_ones(self, pair):
        r = universal_Rq(*pair)
        factors = universal_Rq_factors(*pair)
        assert factors.keys() == r.entries.keys()
        for key, q in factors.items():
            assert q.valuation() == valuation(r.entries[key])


@pytest.fixture
def fresh_caches():
    clear_package_caches()
    yield
    clear_package_caches()


@pytest.mark.parametrize("wrong", ["minus", "plus"])
def test_a_dropped_cyclotomic_factor_is_caught(monkeypatch, fresh_caches, wrong):
    """With the largest Phi_d of each binomial dropped, the binomials, a
    bracket and R_q all disagree with their Scalar references."""
    name = f"_{wrong}_factors"
    exact = getattr(qnumber, name)

    def short(m):
        out = exact(m)
        if len(out) > 1:
            del out[max(out)]
        return out

    monkeypatch.setattr(qnumber, name, short)
    binomial = QNumber.p_minus_one if wrong == "minus" else QNumber.p_plus_one
    target = P**6 - ONE if wrong == "minus" else P**6 + ONE
    assert binomial(6).to_scalar() != target
    kind, x = ("q", HalfInt(2)) if wrong == "minus" else ("double", HalfInt.from_twice(3))
    assert factored_bracket(kind, x).to_scalar() != bracket_by_scalars(kind, x, 1)
    pair = (HalfInt(1), HalfInt(1))
    assert universal_Rq(*pair) != universal_Rq_by_matrices(*pair)
