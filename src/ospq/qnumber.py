"""Factored q-numbers: products of powers of p and of cyclotomic factors.

Every bracket and factorial of :mod:`ospq.reps`, and every entry of the
universal R-matrix of :mod:`ospq.qrmatrix`, is one product of powers of
p, rational constants and binomials p^m - 1 and p^m + 1.  Each binomial
is a product of cyclotomic polynomials Phi_d(p):

    p^m - 1 = prod_{d | m} Phi_d,    p^m + 1 = prod_{d | 2m, d not | m} Phi_d.

A :class:`QNumber` keeps such a product factored, as

    (n / d) * p^a * prod_d Phi_d(p)^(e_d)

with n/d a reduced rational and integer exponents of either sign.  A
product adds the exponents, a reciprocal negates them and a power scales
them, so none of these does polynomial arithmetic.

:meth:`QNumber.to_scalar` writes the value once as a canonical
:class:`~ospq.scalar.Scalar`.  The Phi_d are monic, primitive, pairwise
coprime and prime to p, so the numerator n p^max(a, 0) prod_{e_d > 0}
Phi_d^e_d and the denominator d p^max(-a, 0) prod_{e_d < 0} Phi_d^-e_d
share no factor, have the integer contents |n| and d, and a positive
leading coefficient: they are the reduced form as they stand, with no
GCD.  Each of the two products is expanded once per multiset of factors.

The valuation at p = 1 is e_1, the exponent of Phi_1 = p - 1, because
Phi_d(1) != 0 for every d >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero
from .scalar import ONE, ZERO, Scalar


class QNumber:
    """(rational) * p^p_exp * prod Phi_d(p)^e over the items d: e of phi.

    A zero rational is the zero q-number, with no p-exponent and no
    factors.  Values are never written once built, so they may be shared;
    ``to_scalar`` remembers its result."""

    __slots__ = ("rational", "p_exp", "phi", "_scalar")

    def __init__(self, rational, p_exp: int = 0, phi=None):
        self.rational = Fraction(rational)
        zero = not self.rational
        self.p_exp = 0 if zero else int(p_exp)
        self.phi = {} if zero or not phi else {d: e for d, e in phi.items() if e}
        self._scalar = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def p_power(cls, a: int) -> "QNumber":
        """p^a, for an integer a of either sign."""
        return cls(1, a)

    @classmethod
    def p_minus_one(cls, m: int) -> "QNumber":
        """p^m - 1; for m < 0 it is -p^m (p^-m - 1), and zero at m = 0."""
        if m < 0:
            return cls(-1, m, _minus_factors(-m))
        if not m:
            return cls(0)
        return cls(1, 0, _minus_factors(m))

    @classmethod
    def p_plus_one(cls, m: int) -> "QNumber":
        """p^m + 1; for m < 0 it is p^m (p^-m + 1), and 2 at m = 0."""
        if m < 0:
            return cls(1, m, _plus_factors(-m))
        if not m:
            return cls(2)
        return cls(1, 0, _plus_factors(m))

    # -- the multiplicative group ----------------------------------------------

    def __mul__(self, other: "QNumber") -> "QNumber":
        if not self.rational or not other.rational:
            return QNumber(0)
        if not other.phi or not self.phi:
            phi = other.phi or self.phi  # shared: a QNumber is never written
        else:
            phi = dict(self.phi)
            for d, e in other.phi.items():
                e += phi.get(d, 0)
                if e:
                    phi[d] = e
                else:
                    del phi[d]
        return _make(self.rational * other.rational, self.p_exp + other.p_exp, phi)

    def __neg__(self) -> "QNumber":
        return _make(-self.rational, self.p_exp, self.phi)

    def reciprocal(self) -> "QNumber":
        if not self.rational:
            raise DivisionByZero("reciprocal of zero")
        return _make(
            1 / self.rational, -self.p_exp, {d: -e for d, e in self.phi.items()}
        )

    def __pow__(self, n: int) -> "QNumber":
        if n < 0:
            return self.reciprocal() ** -n
        if not n:
            return QNumber(1)
        return QNumber(
            self.rational**n, self.p_exp * n, {d: e * n for d, e in self.phi.items()}
        )

    # -- readers -----------------------------------------------------------------

    def valuation(self) -> int:
        """The exact order at p = 1 of a nonzero value: its exponent of
        Phi_1 = p - 1."""
        if not self.rational:
            raise ValueError("zero has no valuation")
        return self.phi.get(1, 0)

    def to_scalar(self) -> Scalar:
        """The value as a canonical ``Scalar``, built once, with no GCD."""
        if self._scalar is None:
            self._scalar = _scalar_of(self.rational, self.p_exp, self.phi)
        return self._scalar


def _make(rational: Fraction, p_exp: int, phi: dict) -> QNumber:
    """A QNumber from parts already in its form: a nonzero rational and
    nonzero exponents."""
    out = object.__new__(QNumber)
    out.rational, out.p_exp, out.phi, out._scalar = rational, p_exp, phi, None
    return out


def _scalar_of(rational: Fraction, p_exp: int, phi: dict) -> Scalar:
    if not rational:
        return ZERO
    if rational == 1 and not p_exp and not phi:
        return ONE
    up = tuple(sorted((d, e) for d, e in phi.items() if e > 0))
    down = tuple(sorted((d, -e) for d, e in phi.items() if e < 0))
    num = _terms(_expand(up), p_exp if p_exp > 0 else 0, rational.numerator)
    den = _terms(_expand(down), -p_exp if p_exp < 0 else 0, rational.denominator)
    return Scalar(num, den, _canonical=True)


def _terms(coeffs: tuple, shift: int, scale: int) -> dict:
    """The dense coefficients times scale * p^shift, as Scalar terms."""
    return {(k + shift, 0): c * scale for k, c in enumerate(coeffs) if c}


# -- cyclotomic polynomials ----------------------------------------------------


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


def _minus_factors(m: int) -> dict:
    """The Phi_d exponents of p^m - 1, m > 0."""
    return dict.fromkeys(_divisors(m), 1)


def _plus_factors(m: int) -> dict:
    """The Phi_d exponents of p^m + 1 = (p^2m - 1) / (p^m - 1), m > 0."""
    return dict.fromkeys((d for d in _divisors(2 * m) if m % d), 1)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple:
    """Phi_d(p) as dense integer coefficients from p^0 up: p^d - 1 divided
    exactly by Phi_k for every proper divisor k of d."""
    coeffs = [-1] + [0] * (d - 1) + [1]
    for k in _divisors(d)[:-1]:
        coeffs = _divide_monic(coeffs, cyclotomic(k))
    return tuple(coeffs)


def _divide_monic(a: list, b: tuple) -> list:
    """The exact quotient of a by the monic b, both dense from p^0 up."""
    db = len(b) - 1
    rest = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rest[i + db]
        if c:
            for k in range(db):
                rest[i + k] -= c * b[k]
    if any(rest[:db]):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def _expand(factors: tuple) -> tuple:
    """prod Phi_d^e over the sorted (d, e) pairs, e > 0, as dense integer
    coefficients from p^0 up.  The product of every prefix is memoized
    too, so entries that share their small factors share that work."""
    if not factors:
        return (1,)
    d, e = factors[-1]
    out = list(_expand(factors[:-1]))
    phi = [(k, c) for k, c in enumerate(cyclotomic(d)) if c]
    deg = phi[-1][0]
    for _ in range(e):
        n = len(out)
        acc = [0] * (n + deg)
        for k, c in phi:
            acc[k : k + n] = [x + c * y for x, y in zip(acc[k : k + n], out)]
        out = acc
    return tuple(out)
