"""The exact coefficient field Q(p, h).

Every scalar in the toolkit is a reduced fraction of polynomials in two
commuting symbols:

* ``p``, the quarter power of the deformation parameter of the standard
  quantum superalgebra (so integer powers of p cover every exponent the
  representation theory produces: q = p^2, q^(1/2) = p);
* ``h``, the Jordanian deformation parameter, kept symbolic throughout.

Polynomials are sparse dicts mapping ``(p_exponent, h_exponent)`` to
``int``: a ``Scalar`` stores its numerator and denominator in Z[p, h], in
the primitive form that :func:`scalar_to_string` prints.  Numerator and
denominator share no polynomial factor, the gcd of all their integer
coefficients together is one, and the denominator's leading coefficient
(largest ``(h_exponent, p_exponent)`` pair) is positive.  That picks one
representative per value, so equality is plain structural equality and
hashing is safe.

Reduction is a GCD over Z (Brown 1971; Collins 1967): strip the common
monomial, write both polynomials in h with coefficients in Z[p], take
out their contents in Z[p], and run a primitive pseudo-remainder
sequence in h, dividing out the content at every step.  A gcd over Z
carries the integer content too, so dividing by it leaves the pair
primitive with no separate content pass.  Integer coefficients are only
ever divided where the quotient is known to be exact: by their own gcd,
or after ``divmod`` has shown a zero remainder
(:class:`~ospq.errors.CancellationFailure` otherwise).

Nothing in this module (or anywhere in the package) uses floating point.
The classical limit p -> 1 is taken by exact substitution on the reduced
form; a reduced denominator vanishing at p = 1 is a genuine pole and
raises :class:`~ospq.errors.PoleAtUnity`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import CancellationFailure, DivisionByZero, PoleAtUnity
from .halfint import as_half

# ---------------------------------------------------------------------------
# raw polynomial layer: dict[(ep, eh)] -> int, zero coefficients absent
# ---------------------------------------------------------------------------

_PONE = {(0, 0): 1}
_UONE = {0: 1}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pneg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (ea, ha), ca in a.items():
        for (eb, hb), cb in b.items():
            k = (ea + eb, ha + hb)
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _ppow(a: dict, n: int) -> dict:
    out = dict(_PONE)
    base = a
    while n:
        if n & 1:
            out = _pmul(out, base)
        base = _pmul(base, base) if n > 1 else base
        n >>= 1
    return out


def _plead_key(a: dict):
    """Leading monomial under the fixed order: lex on (h_exp, p_exp)."""
    return max(a, key=lambda k: (k[1], k[0]))


def _pdeg_h(a: dict) -> int:
    return max(k[1] for k in a) if a else -1


def _icontent(a: dict) -> int:
    """The gcd of the integer coefficients (positive for a nonzero poly)."""
    return gcd(*a.values())


def _pat_p1(a: dict) -> dict:
    """Substitute p = 1; result is a univariate dict {h_exp: int}."""
    out = {}
    for (_, eh), c in a.items():
        s = out.get(eh, 0) + c
        if s:
            out[eh] = s
        else:
            out.pop(eh, None)
    return out


def _p_from_h_univar(u: dict) -> dict:
    return {(0, eh): c for eh, c in u.items()}


def _psub_h(a: dict, top: int, bottom: int, deg: int) -> dict:
    """Substitute h = top/bottom and scale by bottom^deg (deg >= h-degree)."""
    out = {}
    for (ep, eh), c in a.items():
        v = c * top**eh * bottom ** (deg - eh)
        if v:
            k = (ep, 0)
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _pdiv_p_minus_1(a: dict):
    """Divide by (p - 1).  Returns (quotient, True) or (None, False)."""
    # Treat a as a polynomial in p with h-polynomial coefficients and run
    # synthetic division at the root p = 1 for each h stratum.
    if not a:
        return {}, True
    by_h: dict[int, dict[int, int]] = {}
    for (ep, eh), c in a.items():
        by_h.setdefault(eh, {})[ep] = c
    out = {}
    for eh, coeffs in by_h.items():
        deg = max(coeffs)
        carry = 0
        # quotient coefficient of p^k is sum of dividend coefficients above k
        for k in range(deg - 1, -1, -1):
            carry += coeffs.get(k + 1, 0)
            if carry:
                out[(k, eh)] = carry
        if carry + coeffs.get(0, 0) != 0:
            return None, False
    return out, True


# -- univariate helpers in p over Z (dict {ep: int}) ------------------------


def _u_primitive(u: dict) -> dict:
    """u divided by its integer content (exact: the content divides all)."""
    c = _icontent(u) if u else 1
    if c == 1:
        return u
    return {e: v // c for e, v in u.items()}


def _u_prem(a: dict, b: dict) -> dict:
    """A nonzero integer multiple of the remainder of a by b over Q."""
    db = max(b)
    lb = b[db]
    a = dict(a)
    while a:
        da = max(a)
        if da < db:
            break
        la = a.pop(da)
        # a <- (lb/g) * a - (la/g) * p^(da-db) * b, exact with g = gcd(la, lb)
        g = gcd(la, lb)
        scale_a, scale_b = lb // g, la // g
        if scale_a != 1:
            a = {e: v * scale_a for e, v in a.items()}
        shift = da - db
        for e, c in b.items():
            if e == db:
                continue
            k = e + shift
            s = a.get(k, 0) - scale_b * c
            if s:
                a[k] = s
            else:
                a.pop(k, None)
    return a


def _u_gcd(a: dict, b: dict) -> dict:
    """GCD in Z[p] of two nonzero polys, with positive leading coefficient."""
    c = gcd(_icontent(a), _icontent(b))
    shift = min(min(a), min(b))
    if len(a) == 1 or len(b) == 1:
        return {shift: c}
    # strip the powers of p, then a primitive remainder sequence
    ma, mb = min(a), min(b)
    a = _u_primitive({e - ma: v for e, v in a.items()})
    b = _u_primitive({e - mb: v for e, v in b.items()})
    if max(a) < max(b):
        a, b = b, a
    while b and max(b):
        a, b = b, _u_primitive(_u_prem(a, b))
    if b:
        return {shift: c}
    if a[max(a)] < 0:
        c = -c
    return {e + shift: v * c for e, v in a.items()}


def _u_div_exact(a: dict, b: dict) -> dict:
    """Exact division in Z[p]; raises if a remainder survives."""
    if not a:
        return {}
    db = max(b)
    lb = b[db]
    a = dict(a)
    q = {}
    while a:
        da = max(a)
        if da < db:
            raise CancellationFailure("inexact univariate division")
        factor, rest = divmod(a.pop(da), lb)
        if rest:
            raise CancellationFailure("inexact univariate division")
        q[da - db] = factor
        shift = da - db
        for e, c in b.items():
            if e == db:
                continue
            k = e + shift
            s = a.get(k, 0) - factor * c
            if s:
                a[k] = s
            else:
                a.pop(k, None)
    return q


def _u_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


# -- bivariate GCD (h-major form: dict {eh: p-poly dict}) -------------------


def _h_major(a: dict) -> dict:
    out: dict[int, dict] = {}
    for (ep, eh), c in a.items():
        out.setdefault(eh, {})[ep] = c
    return out


def _h_major_to_terms(m: dict) -> dict:
    out = {}
    for eh, u in m.items():
        for ep, c in u.items():
            out[(ep, eh)] = c
    return out


def _content_p(m: dict) -> dict:
    """The content in Z[p] of an h-major poly: the gcd of its coefficients."""
    g = None
    for u in m.values():
        g = u if g is None else _u_gcd(g, u)
        if g == _UONE:
            break
    if g[max(g)] < 0:
        g = {e: -v for e, v in g.items()}
    return g


def _h_major_div_u(m: dict, g: dict) -> dict:
    if g == _UONE:
        return m
    return {eh: _u_div_exact(u, g) for eh, u in m.items()}


def _h_prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of h-major polynomials with p-poly coefficients."""
    da, db = max(a), max(b)
    lb = b[db]
    a = {eh: dict(u) for eh, u in a.items()}
    while a:
        da = max(a)
        if da < db:
            break
        la = a.pop(da)
        # a <- lb * a - la * h^(da-db) * b   (drop the cancelled lead)
        new = {}
        for eh, u in a.items():
            new[eh] = _u_mul(u, lb)
        for eh, u in b.items():
            if eh == db:
                continue
            k = eh + da - db
            prod = _u_mul(u, la)
            if k in new:
                merged = dict(new[k])
                for e, c in prod.items():
                    s = merged.get(e, 0) - c
                    if s:
                        merged[e] = s
                    else:
                        merged.pop(e, None)
                new[k] = merged
            else:
                new[k] = {e: -c for e, c in prod.items()}
        a = {eh: u for eh, u in new.items() if u}
    return a


def _monomial_gcd(a: dict, b: dict) -> dict:
    ep = min(min(k[0] for k in a), min(k[0] for k in b))
    eh = min(min(k[1] for k in a), min(k[1] for k in b))
    return {(ep, eh): gcd(_icontent(a), _icontent(b))}


def _pgcd(a: dict, b: dict) -> dict:
    """GCD in Z[p, h], normalized with a positive leading coefficient."""
    if not a or not b:
        raise ValueError("gcd of zero polynomial")
    if len(a) == 1 or len(b) == 1:
        return _monomial_gcd(a, b)
    # strip common monomial content first
    epa = min(k[0] for k in a)
    eha = min(k[1] for k in a)
    epb = min(k[0] for k in b)
    ehb = min(k[1] for k in b)
    mono = (min(epa, epb), min(eha, ehb))
    ma = _h_major({(ep - epa, eh - eha): c for (ep, eh), c in a.items()})
    mb = _h_major({(ep - epb, eh - ehb): c for (ep, eh), c in b.items()})
    ca, cb = _content_p(ma), _content_p(mb)
    g0 = _u_gcd(ca, cb)
    pa = _h_major_div_u(ma, ca)
    pb = _h_major_div_u(mb, cb)
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
    if out[_plead_key(out)] < 0:
        out = _pneg(out)
    return out


def _u_mul_h(m: dict, g: dict) -> dict:
    if g == _UONE:
        return m
    return {eh: _u_mul(u, g) for eh, u in m.items()}


def _pdiv_exact(a: dict, b: dict) -> dict:
    """Exact division in Z[p, h]; raises if b does not divide a."""
    if not a:
        return {}
    if len(b) == 1:
        (ep, eh), c = next(iter(b.items()))
        out = {}
        for (kp, kh), v in a.items():
            q, rest = divmod(v, c)
            if rest or kp < ep or kh < eh:
                raise CancellationFailure("inexact monomial division")
            out[(kp - ep, kh - eh)] = q
        return out
    ma, mb = _h_major(a), _h_major(b)
    db = max(mb)
    lb = mb[db]
    q: dict[int, dict] = {}
    while ma:
        da = max(ma)
        if da < db:
            raise CancellationFailure("inexact bivariate division")
        qc = _u_div_exact(ma[da], lb)
        q[da - db] = qc
        for eh, u in mb.items():
            k = eh + da - db
            prod = _u_mul(u, qc)
            cur = dict(ma.get(k, {}))
            for e, c in prod.items():
                s = cur.get(e, 0) - c
                if s:
                    cur[e] = s
                else:
                    cur.pop(e, None)
            if cur:
                ma[k] = cur
            else:
                ma.pop(k, None)
    return _h_major_to_terms(q)


# ---------------------------------------------------------------------------
# Scalar: reduced fractions of the above
# ---------------------------------------------------------------------------


class Scalar:
    """An element of Q(p, h) in canonical primitive form over Z[p, h]."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict, _canonical=False):
        if not _canonical:
            raise RuntimeError("use the Scalar constructors, not __init__")
        self.num = num
        self.den = den
        self._hash = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(num: dict, den: dict) -> "Scalar":
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return ZERO
        g = _pgcd(num, den)
        if g != _PONE:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        return Scalar._normalized(num, den)

    @staticmethod
    def _over_monomial(num: dict, den: dict) -> "Scalar":
        """num/den reduced, for a canonical one-term den.

        The gcd of a polynomial and a monomial is their common monomial
        times the integer gcd, so no polynomial GCD is needed.
        """
        if not num:
            return ZERO
        ((dp, dh), k), = den.items()
        g = gcd(k, *num.values())
        mp, mh = dp, dh
        for ep, eh in num:
            if ep < mp:
                mp = ep
            if eh < mh:
                mh = eh
        if g != 1 or mp or mh:
            num = {(ep - mp, eh - mh): c // g for (ep, eh), c in num.items()}
            den = {(dp - mp, dh - mh): k // g}
        return Scalar(num, den, _canonical=True)

    @staticmethod
    def _normalized(num: dict, den: dict) -> "Scalar":
        if den[_plead_key(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return Scalar(num, den, _canonical=True)

    @classmethod
    def from_int(cls, n: int) -> "Scalar":
        if n == 0:
            return ZERO
        if n == 1:
            return ONE
        return cls({(0, 0): int(n)}, dict(_PONE), _canonical=True)

    @classmethod
    def from_fraction(cls, q) -> "Scalar":
        q = Fraction(q)
        if not q:
            return ZERO
        if q == 1:
            return ONE
        return cls({(0, 0): q.numerator}, {(0, 0): q.denominator}, _canonical=True)

    @classmethod
    def monomial(cls, coeff, p_exp: int = 0, h_exp: int = 0) -> "Scalar":
        """coeff * p^p_exp * h^h_exp with exponents of either sign."""
        coeff = Fraction(coeff)
        if not coeff:
            return ZERO
        if coeff == 1 and not p_exp and not h_exp:
            return ONE
        np_, dp = (p_exp, 0) if p_exp >= 0 else (0, -p_exp)
        nh, dh = (h_exp, 0) if h_exp >= 0 else (0, -h_exp)
        return cls(
            {(np_, nh): coeff.numerator},
            {(dp, dh): coeff.denominator},
            _canonical=True,
        )

    @classmethod
    def from_h_laurent(cls, coeffs: dict, den: int) -> "Scalar":
        """sum of c * h^e / den over {e: c}: int c, e of either sign, den > 0."""
        if not coeffs:
            return ZERO
        low = min(min(coeffs), 0)
        num = {(0, e - low): c for e, c in coeffs.items()}
        return Scalar._over_monomial(num, {(0, -low): den})

    # -- predicates and accessors -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def as_fraction(self) -> Fraction:
        """The value as a rational number; fails if p or h survive."""
        if set(self.den) != {(0, 0)} or set(self.num) - {(0, 0)}:
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self.num.get((0, 0), 0), self.den[(0, 0)])

    def h_degree(self) -> int:
        return _pdeg_h(self.num)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            if len(self.den) == 1:
                return Scalar._over_monomial(_padd(self.num, other.num), self.den)
            return Scalar._make(_padd(self.num, other.num), self.den)
        if len(self.den) == 1 == len(other.den):
            # two monomial denominators: sum over their lcm, each numerator
            # shifted and scaled up to it, with no polynomial GCD
            ((p1, h1), k1), = self.den.items()
            ((p2, h2), k2), = other.den.items()
            g = gcd(k1, k2)
            lp, lh = max(p1, p2), max(h1, h2)
            c1, c2 = k2 // g, k1 // g
            num = _padd(
                {(ep + lp - p1, eh + lh - h1): v * c1 for (ep, eh), v in self.num.items()},
                {(ep + lp - p2, eh + lh - h2): v * c2 for (ep, eh), v in other.num.items()},
            )
            return Scalar._over_monomial(num, {(lp, lh): c2 * k2})
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Scalar._make(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return Scalar(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the unit constructors and the monomial product below return the
        # ONE object itself, so this identity test catches most units
        if other is ONE:
            return self
        if self is ONE:
            return other
        num1, den1, num2, den2 = self.num, self.den, other.num, other.den
        if not num1 or not num2:
            return ZERO
        if len(den1) == 1 == len(den2) and len(num1) == 1 == len(num2):
            # monomial times monomial: one integer gcd, exponents subtracted;
            # a one-term denominator has a positive coefficient, so the
            # result needs no sign fix
            ((a1, b1), c1), = num1.items()
            ((a2, b2), c2), = num2.items()
            ((d1, e1), k1), = den1.items()
            ((d2, e2), k2), = den2.items()
            c, k = c1 * c2, k1 * k2
            if k != 1:
                g = gcd(c, k)
                c, k = c // g, k // g
            ep, eh = a1 + a2 - d1 - d2, b1 + b2 - e1 - e2
            if c == k == 1 and not ep and not eh:
                return ONE
            return Scalar(
                {(ep if ep > 0 else 0, eh if eh > 0 else 0): c},
                {(-ep if ep < 0 else 0, -eh if eh < 0 else 0): k},
                _canonical=True,
            )
        # cross-cancellation by gcds over Z keeps the product reduced and
        # primitive without a final GCD: by Gauss's lemma the content of a
        # product is the product of the contents, and the contents left on
        # each side share no factor
        if den2 != _PONE:
            g = _pgcd(num1, den2)
            if g != _PONE:
                num1 = _pdiv_exact(num1, g)
                den2 = _pdiv_exact(den2, g)
        if den1 != _PONE:
            g = _pgcd(num2, den1)
            if g != _PONE:
                num2 = _pdiv_exact(num2, g)
                den1 = _pdiv_exact(den1, g)
        return Scalar._normalized(_pmul(num1, num2), _pmul(den1, den2))

    __rmul__ = __mul__

    def reciprocal(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("reciprocal of zero")
        return Scalar._normalized(dict(self.den), dict(self.num))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def __pow__(self, n: int):
        if n == 0:
            return ONE
        if n < 0:
            return self.reciprocal() ** (-n)
        return Scalar._normalized(_ppow(self.num, n), _ppow(self.den, n))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (
                    tuple(sorted(self.num.items())),
                    tuple(sorted(self.den.items())),
                )
            )
        return self._hash

    # -- limits and substitutions --------------------------------------------

    def limit_p_to_1(self) -> "Scalar":
        """Exact classical limit p -> 1 on the reduced form."""
        den1 = _pat_p1(self.den)
        if not den1:
            num1 = _pat_p1(self.num)
            if not num1:
                raise CancellationFailure(
                    "reduced fraction with num and den both vanishing at p=1"
                )
            raise PoleAtUnity(f"pole at p = 1 in {self}")
        num1 = _pat_p1(self.num)
        return Scalar._make(_p_from_h_univar(num1), _p_from_h_univar(den1))

    def pole_order_at_p1(self) -> int:
        """Multiplicity of (p - 1) in the reduced denominator."""
        order = 0
        d = self.den
        while True:
            q, exact = _pdiv_p_minus_1(d)
            if not exact:
                return order
            order += 1
            d = q

    def substitute_h(self, value) -> "Scalar":
        value = Fraction(value)
        # clear the denominator of h: scale num and den by it to one power
        top, bottom = value.numerator, value.denominator
        deg = max(_pdeg_h(self.num), _pdeg_h(self.den))
        num = _psub_h(self.num, top, bottom, deg)
        den = _psub_h(self.den, top, bottom, deg)
        return Scalar._make(num, den)

    def h_coefficients(self, upto: int) -> list:
        """Exact Taylor coefficients in h through order ``upto``.

        Defined only when the reduced denominator is free of h (the cases
        this package needs: representation entries whose h dependence is
        polynomial).
        """
        if _pdeg_h(self.den) > 0:
            raise ValueError(f"denominator depends on h: {self}")
        out = []
        for k in range(upto + 1):
            coeff = {(ep, 0): c for (ep, eh), c in self.num.items() if eh == k}
            out.append(Scalar._make(coeff, dict(self.den)) if coeff else ZERO)
        return out

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        return scalar_to_string(self)

    def __repr__(self):
        return f"Scalar({scalar_to_string(self)})"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar.from_int(x)
    if isinstance(x, Fraction):
        return Scalar.from_fraction(x)
    return NotImplemented


ZERO = Scalar({}, dict(_PONE), _canonical=True)
ONE = Scalar(dict(_PONE), dict(_PONE), _canonical=True)
H = Scalar.monomial(1, 0, 1)
P = Scalar.monomial(1, 1, 0)


def rational(n: int, d: int = 1) -> Scalar:
    """The rational constant n/d."""
    return Scalar.from_fraction(Fraction(n, d))


def p_power(x) -> Scalar:
    """p^(2x) for a half-integer x, i.e. q^x with q = p^2.

    Taking the argument in units of half-integers keeps every exponent an
    integer; anything that would need a genuine quarter-integer power of
    the deformation parameter is a bug upstream and is rejected by
    :class:`~ospq.halfint.HalfInt` itself.
    """
    x = as_half(x)
    return Scalar.monomial(1, x.twice, 0)


# ---------------------------------------------------------------------------
# string grammar: integer coefficients, p, h, ^, *, +, -, / and parentheses
# ---------------------------------------------------------------------------


def _poly_to_string(terms: list) -> str:
    parts = []
    for (ep, eh), c in terms:
        factors = []
        if ep:
            factors.append("p" if ep == 1 else f"p^{ep}")
        if eh:
            factors.append("h" if eh == 1 else f"h^{eh}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def _sorted_terms(d: dict) -> list:
    return sorted(d.items(), key=lambda kv: (kv[0][1], kv[0][0]), reverse=True)


def _is_atom(terms: list) -> bool:
    if len(terms) != 1:
        return False
    (ep, eh), c = terms[0]
    if c < 0:
        return False
    nfactors = (1 if ep else 0) + (1 if eh else 0) + (1 if abs(c) != 1 else 0)
    return nfactors <= 1


def scalar_to_string(s: Scalar) -> str:
    """Canonical string form with integer coefficients.

    The stored form already has integer coefficients with no common
    factor and a positive leading denominator coefficient, so it is
    printed as it stands.  The result parses back to an equal Scalar.
    """
    if s.is_zero:
        return "0"
    nterms = _sorted_terms(s.num)
    if s.den == _PONE:
        return _poly_to_string(nterms)
    dterms = _sorted_terms(s.den)
    nstr = _poly_to_string(nterms)
    if len(nterms) > 1:
        nstr = f"({nstr})"
    dstr = _poly_to_string(dterms)
    if not _is_atom(dterms):
        dstr = f"({dstr})"
    return f"{nstr}/{dstr}"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ValueError(f"scalar parse error at {self.pos}: {msg} in {self.text!r}")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                value = value + self.term()
            elif c == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                value = value * self.unary()
            elif c == "/":
                self.pos += 1
                value = value / self.unary()
            else:
                return value

    def unary(self) -> Scalar:
        if self.peek() == "-":
            self.pos += 1
            return -self.unary()
        if self.peek() == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            return base ** (sign * self.integer())
        return base

    def atom(self) -> Scalar:
        c = self.peek()
        if c == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if c == "p":
            self.pos += 1
            return P
        if c == "h":
            self.pos += 1
            return H
        if c.isdigit():
            return Scalar.from_int(self.integer())
        self.error(f"unexpected {c!r}")

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start : self.pos])


def scalar_from_string(text: str) -> Scalar:
    parser = _Parser(text)
    value = parser.expr()
    if parser.peek():
        parser.error("trailing input")
    return value
