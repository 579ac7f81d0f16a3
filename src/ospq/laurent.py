"""Truncated Laurent series in one variable with coefficients in Q[h].

The variable is t = p - 1 for the contraction and b or s for the
differential systems of :mod:`ospq.ode`.

The contraction keeps only the p -> 1 limit of M^-1 R_q M, and the
summands of that product have poles at p = 1 that all cancel.  Expanding
every entry about p = 1 reaches the limit without reducing a single
fraction of polynomials.  A :class:`~ospq.scalar.Scalar` num/den whose
denominator is h^b d(p) becomes, with p = 1 + t and d(1 + t) = t^v u(t),
u(0) != 0,

    num(1 + t, h) * u(t)^-1 * t^-v * h^-b,

where u(t)^-1 is a power series over Q.  A handful of cyclotomic
denominators cover every entry of the bridge, so each one is split once
(:func:`_split_at_one`) and its unit inverted once per precision asked
of it (:func:`_unit_inverse`).  The contraction expands each distinct
bridge coefficient once, and one pass of the spin_ladder benchmark
workload makes 18 such inversions.  :func:`valuation` reads the exact
order at p = 1 through the same split, applied to each h-slice of the
numerator.

The entries of R_q are never written as a ``Scalar`` here: each is
expanded from its cyclotomic factors (:meth:`Laurent.from_qnumber`).
With p = 1 + t, r p^a prod_d Phi_d(p)^(e_d) is

    r t^(e_1) (1 + t)^a prod_{d >= 2} Phi_d(1 + t)^(e_d),

since Phi_1 = p - 1 = t and Phi_d(1) != 0 for d >= 2.  The binomial
series of (1 + t)^a has integer coefficients for either sign of a, and
the product of the Phi_d(1 + t)^(e_d) has integer coefficients over a
power of the product of Phi_d(1) over the d with e_d < 0; Phi_d(1) is
the prime q for d a power of q, and 1 for every other d >= 2.  Both are
built once per exponent or factor multiset and length
(:func:`_binomial_series`, :func:`_cyclotomic_unit`); one pass of the
spin_ladder workload expands 408 entries of R_q from 55 unit series.

A :class:`Laurent` knows its coefficients below an absolute precision
``prec`` and nothing above it.  Every operation sets the precision it can
vouch for: min(N1, N2) for a sum, min(N1 + v2, N2 + v1) for a product,
N - 2v for a reciprocal and N - 1 for a derivative, where v is the
valuation, the lowest exponent with a nonzero coefficient (the precision
itself when none is known).  A coefficient asked for at or beyond the
precision raises :class:`~ospq.errors.PrecisionShortfall`, so a shortfall
can never pass for a zero.  The series implements the entry protocol of
:class:`~ospq.gmatrix.GradedMatrix`, so matrices of them multiply with the
ordinary ``@``.  The contraction forms its products on packed t-digits
instead (:class:`~ospq.packed.SeriesPlan`), under the same precision
rules, and reads each t^0 coefficient there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import BadSeriesHead, DivisionByZero, PrecisionShortfall
from .qnumber import QNumber, cyclotomic
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

    @classmethod
    def from_qnumber(cls, q: QNumber, prec: int) -> "Laurent":
        """The expansion of the factored q-number ``q`` about p = 1, exact
        below t^prec.

        With p = 1 + t, r p^a prod_d Phi_d(p)^(e_d) is
        r t^(e_1) (1 + t)^a prod_{d >= 2} Phi_d(1 + t)^(e_d): its valuation
        is e_1, and its unit part is cut to prec - e_1 terms.
        """
        v = q.phi.get(1, 0) if q.rational else prec
        n = prec - v
        if n <= 0:
            return cls({}, 1, prec)
        binom = _binomial_series(q.p_exp, n)
        unit, den = _cyclotomic_unit(
            tuple(sorted((d, e) for d, e in q.phi.items() if d != 1)), n
        )
        num, den = q.rational.numerator, den * q.rational.denominator
        coeffs = [num * c for c in _product_below(binom, unit, n)]
        g = gcd(den, *coeffs)
        terms = {(k + v, 0): c // g for k, c in enumerate(coeffs) if c}
        return cls(terms, den // g, prec)

    @classmethod
    def variable(cls, prec: int) -> "Laurent":
        """The variable t itself, known below t^prec."""
        return cls({(1, 0): 1} if prec > 1 else {}, 1, prec)

    # -- the GradedMatrix entry protocol ---------------------------------------
    # There is no __bool__, so every series is truthy: a truncated series is
    # never known to vanish exactly, and an entry whose known coefficients all
    # cancel stays in its matrix with its precision.

    def __add__(self, other) -> "Laurent":
        if not isinstance(other, Laurent):
            other = _constant(other, self.prec)
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

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent({k: -c for k, c in self.terms.items()}, self.den, self.prec)

    def __sub__(self, other) -> "Laurent":
        return self + (-other)

    def __rsub__(self, other) -> "Laurent":
        return (-self) + other

    def __mul__(self, other) -> "Laurent":
        if not isinstance(other, Laurent):
            # known below t^(N - v), so that the product is known below t^N
            other = _constant(other, self.prec - self.val)
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

    __rmul__ = __mul__

    # -- the operations of the differential systems ----------------------------

    def __truediv__(self, other: "Laurent") -> "Laurent":
        return self * other.reciprocal()

    def reciprocal(self) -> "Laurent":
        """1 / self, of valuation -v and known below t^(N - 2v).

        The lowest known coefficient must be a nonzero rational free of h.
        """
        v = self.val
        if not self.terms:
            raise DivisionByZero("reciprocal of a series with no known nonzero term")
        head = self._numerators(v)
        if set(head) != {0}:
            raise BadSeriesHead(f"reciprocal needs an h-free lowest term, got {head}")
        # self = t^v (a + sum_i unit[i] t^i) / den; invert the bracket term by term
        a = head[0]
        unit = [{} for _ in range(self.prec - v)]
        for (t, e), c in self.terms.items():
            unit[t - v][e] = c
        inv = [{0: Fraction(self.den, a)}]
        for k in range(1, len(unit)):
            acc = {}
            for i in range(1, k + 1):
                for ea, ca in unit[i].items():
                    for eb, cb in inv[k - i].items():
                        acc[ea + eb] = acc.get(ea + eb, 0) - ca * cb
            inv.append({e: c / a for e, c in acc.items() if c})
        den = lcm(*(c.denominator for coeff in inv for c in coeff.values()))
        terms = {
            (k - v, e): c.numerator * (den // c.denominator)
            for k, coeff in enumerate(inv)
            for e, c in coeff.items()
        }
        return Laurent(terms, den, self.prec - 2 * v)

    def derivative(self) -> "Laurent":
        """d/dt, known below t^(N - 1)."""
        return Laurent(
            {(t - 1, e): t * c for (t, e), c in self.terms.items() if t},
            self.den,
            self.prec - 1,
        )

    def rational_power(self, r) -> "Laurent":
        """self^r for self = 1 + u, u = O(t): sum C(r, k) u^k, finite below t^N."""
        if self.val < 0 or self._numerators(0) != {0: self.den}:
            raise BadSeriesHead(f"a rational power needs 1 + O(t), got {self!r}")
        r = Fraction(r)
        u = self - 1
        out = power = _constant(1, self.prec)
        binom = Fraction(1)
        for k in range(1, self.prec):
            binom = binom * (r - (k - 1)) / k
            if not binom:
                break
            power = power * u
            out = out + power * binom
        return out

    def sqrt(self) -> "Laurent":
        return self.rational_power(Fraction(1, 2))

    def truncate(self, prec: int) -> "Laurent":
        """The same series known only below t^prec."""
        if prec > self.prec:
            raise PrecisionShortfall(
                f"truncation to t^{prec} asked of a series known below t^{self.prec}"
            )
        terms = {k: c for k, c in self.terms.items() if k[0] < prec}
        return Laurent(terms, self.den, prec)

    def first_nonzero(self):
        """(exponent, Scalar coefficient) of the lowest known nonzero term, or None."""
        if not self.terms:
            return None
        return self.val, Scalar.from_h_laurent(self._numerators(self.val), self.den)

    # -- reading coefficients --------------------------------------------------

    def coefficient(self, k: int) -> dict:
        """The coefficient of t^k as {h_exp: Fraction}."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self._numerators(k).items()}

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


def valuation(s: Scalar) -> int:
    """The exact order of a nonzero ``s`` at p = 1.

    The numerator vanishes to the order of its least vanishing h-slice,
    and the floor subtracts the order of the denominator; valuations of
    nonzero series over Q[h] add exactly under products.
    """
    slices = {}
    for (a, e), c in s.num.items():
        slices.setdefault(e, []).append((a, c))
    order = min(_split_at_one(tuple(sorted(d)))[0] for d in slices.values())
    return order + valuation_floor(s)


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
    if n <= 0:
        return (), 1
    u = _split_at_one(d)[1]
    inv = Laurent({(k, 0): c for k, c in enumerate(u[:n]) if c}, 1, n).reciprocal()
    return tuple(inv.terms.get((k, 0), 0) for k in range(n)), inv.den


@lru_cache(maxsize=None)
def _binomial_series(a: int, n: int) -> tuple:
    """The first n coefficients of (1 + t)^a, integers for either sign of a:
    C(a, k) = (-1)^k C(k - a - 1, k) for a < 0."""
    if a >= 0:
        return tuple(comb(a, k) for k in range(n))
    return tuple((-1) ** k * comb(k - a - 1, k) for k in range(n))


@lru_cache(maxsize=None)
def _cyclotomic_unit(factors: tuple, n: int):
    """The first n coefficients of prod Phi_d(1 + t)^e over the sorted
    (d, e) pairs, d >= 2 and e of either sign, as integer numerators over
    one denominator.

    The factors of positive exponent multiply as integer polynomials.
    Those of negative exponent multiply to N(t) with N(0) = c, the
    product of their values Phi_d(1) (a prime for d a prime power, else
    1), and c^n / N(t) has integer coefficients below t^n.
    """
    up = down = (1,)
    for d, e in factors:
        shifted = _split_at_one(tuple(enumerate(cyclotomic(d))))[1]
        for _ in range(abs(e)):
            if e > 0:
                up = _product_below(up, shifted, n)
            else:
                down = _product_below(down, shifted, n)
    down += (0,) * (n - len(down))
    c = down[0]
    # y_k = c^n [t^k] N(t)^-1: y_0 = c^(n-1), and c y_k = -sum_i N_i y_(k-i)
    inv = [c ** (n - 1)]
    for k in range(1, n):
        inv.append(-sum(down[i] * inv[k - i] for i in range(1, k + 1)) // c)
    coeffs = _product_below(up, inv, n)
    coeffs += (0,) * (n - len(coeffs))
    g = gcd(c**n, *coeffs)
    return tuple(x // g for x in coeffs), c**n // g


def _product_below(a, b, n: int) -> tuple:
    """The product of two dense integer polynomials, cut below t^n."""
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, x in enumerate(a[: len(out)]):
        for k, y in enumerate(b[: len(out) - i]):
            out[i + k] += x * y
    return tuple(out)


def _constant(c, prec: int) -> Laurent:
    """An int, Fraction or Scalar expanded by ``from_scalar`` below t^prec."""
    if not isinstance(c, Scalar):
        c = Scalar.from_fraction(c)
    return Laurent.from_scalar(c, prec)
