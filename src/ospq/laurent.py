"""Truncated Laurent series in t = p - 1 with coefficients in Q[h].

The contraction keeps only the p -> 1 limit of M^-1 R_q M, and the
summands of that product have poles at p = 1 that all cancel.  Expanding
every entry about p = 1 reaches the limit without reducing a single
fraction of polynomials.  A :class:`~ospq.scalar.Scalar` num/den whose
denominator is h^b d(p) becomes, with p = 1 + t and d(1 + t) = t^v u(t),
u(0) != 0,

    num(1 + t, h) * u(t)^-1 * t^-v * h^-b,

where u(t)^-1 is a power series over Q.  A handful of cyclotomic
denominators cover every entry of the bridge and of R_q, so each one is
split once and inverted once per precision (:func:`_split_at_one`,
:func:`_unit_inverse`).

A :class:`Laurent` knows its coefficients below an absolute precision
``prec`` and nothing above it.  Every operation sets the precision it can
vouch for: min(N1, N2) for a sum and min(N1 + v2, N2 + v1) for a product,
where v is the valuation, the lowest exponent with a nonzero coefficient
(the precision itself when none is known).  A coefficient asked for at or
beyond the precision raises :class:`~ospq.errors.PrecisionShortfall`, so a
shortfall can never pass for a zero.  The series implements the entry
protocol of :class:`~ospq.gmatrix.GradedMatrix`, so matrices of them
multiply with the ordinary ``@``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import PoleAtUnity, PrecisionShortfall
from .scalar import Scalar


class Laurent:
    """Coefficients {(t_exp, h_exp): int} / den, known for every t_exp < prec.

    All coefficients share one positive integer denominator, so products
    and sums run on Python ints.  For the contraction's operands that
    denominator is a product of powers of a few small primes, the values
    at p = 1 of the cyclotomic factors of their denominators.
    """

    __slots__ = ("terms", "den", "prec", "val")

    def __init__(self, terms: dict, den: int, prec: int):
        self.terms = terms
        self.den = den
        self.prec = prec
        self.val = min((t for t, _ in terms), default=prec)

    @classmethod
    def from_scalar(cls, s: Scalar, prec: int) -> "Laurent":
        """The expansion of ``s`` about p = 1, exact below t^prec."""
        d, b = _p_part(s.den)
        v = _split_at_one(d)[0]
        n = prec + v  # the t-exponents of num(1+t) u^-1 that survive the shift
        inv, den = _unit_inverse(d, n)
        num = {}
        for (a, e), c in s.num.items():
            for k in range(min(a + 1, n)):
                key = (k, e)
                num[key] = num.get(key, 0) + c * comb(a, k)
        terms = {}
        for (k, e), c in num.items():
            if not c:
                continue
            for i in range(n - k):
                key = (k + i - v, e - b)
                x = terms.get(key, 0) + c * inv[i]
                if x:
                    terms[key] = x
                else:
                    terms.pop(key, None)
        return cls(terms, den, prec)

    # -- the GradedMatrix entry protocol ---------------------------------------

    @property
    def is_zero(self) -> bool:
        # A truncated series is never known to vanish exactly; an entry whose
        # known coefficients all cancel stays in its matrix with its precision.
        return False

    def __add__(self, other: "Laurent") -> "Laurent":
        prec = min(self.prec, other.prec)
        da, db = self.den, other.den
        if da == db:
            sa = sb = 1
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
        out = {k: c * sa for k, c in self.terms.items() if k[0] < prec}
        for k, c in other.terms.items():
            if k[0] < prec:
                x = out.get(k, 0) + c * sb
                if x:
                    out[k] = x
                else:
                    del out[k]
        return Laurent(out, da * sa, prec)

    def __neg__(self) -> "Laurent":
        return Laurent({k: -c for k, c in self.terms.items()}, self.den, self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        prec = min(self.prec + other.val, other.prec + self.val)
        out = {}
        right = sorted(other.terms.items())
        for (ta, ha), ca in self.terms.items():
            room = prec - ta
            for (tb, hb), cb in right:
                if tb >= room:
                    break
                key = (ta + tb, ha + hb)
                x = out.get(key, 0) + ca * cb
                if x:
                    out[key] = x
                else:
                    del out[key]
        den = self.den * other.den
        g = gcd(den, *out.values())
        if g != 1:
            out = {k: c // g for k, c in out.items()}
            den //= g
        return Laurent(out, den, prec)

    # -- reading coefficients --------------------------------------------------

    def coefficient(self, k: int) -> dict:
        """The coefficient of t^k as {h_exp: Fraction}."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self._numerators(k).items()}

    def limit(self) -> Scalar:
        """The value at p = 1; a surviving negative power is a genuine pole."""
        const = self._numerators(0)
        if self.val < 0:
            raise PoleAtUnity(f"a pole of order {-self.val} at p = 1 survives")
        return Scalar.from_h_laurent(const, self.den)

    def _numerators(self, k: int) -> dict:
        """The coefficient of t^k times den, as {h_exp: int}."""
        if k >= self.prec:
            raise PrecisionShortfall(
                f"coefficient of t^{k} asked of a series known below t^{self.prec}"
            )
        return {e: c for (t, e), c in self.terms.items() if t == k}

    def __repr__(self):
        return f"Laurent(val={self.val}, prec={self.prec}, nterms={len(self.terms)})"


def valuation_floor(s: Scalar) -> int:
    """Minus the order of vanishing of den(1 + t) at t = 0: v(s) >= this."""
    return -_split_at_one(_p_part(s.den)[0])[0]


def _p_part(den: dict):
    """Write den = h^b d(p); returns d as a sorted key tuple, and b."""
    b = next(iter(den))[1]
    if any(e != b for _, e in den):
        raise ValueError("a denominator mixing p and h has no expansion over Q[h]")
    return tuple(sorted((a, c) for (a, _), c in den.items())), b


@lru_cache(maxsize=None)
def _split_at_one(d: tuple):
    """d(1 + t) = t^v u(t): returns v and u's integer coefficients."""
    deg = max(a for a, _ in d)
    shifted = [sum(c * comb(a, k) for a, c in d if a >= k) for k in range(deg + 1)]
    v = next(k for k, c in enumerate(shifted) if c)
    return v, tuple(shifted[v:])


@lru_cache(maxsize=None)
def _unit_inverse(d: tuple, n: int):
    """The first n coefficients of u(t)^-1 for the unit u of d(1 + t).

    Returned as integer numerators over one common denominator.
    """
    u = _split_at_one(d)[1]
    head = Fraction(1, u[0])
    inv = []
    for k in range(n):
        # u * inv = 1, read at t^k
        acc = sum(u[i] * inv[k - i] for i in range(1, min(k, len(u) - 1) + 1))
        inv.append(((k == 0) - acc) * head)
    den = lcm(*(w.denominator for w in inv))
    return tuple(w.numerator * (den // w.denominator) for w in inv), den
