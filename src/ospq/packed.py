"""Exact evaluation of p-free tensor expressions on packed integers.

The Jordanian tables and the Hopf-suite expressions built on them have no
p: every entry and every coefficient is an integer polynomial in h over a
one-term denominator k*h^e.  Such an expression is evaluated here at
h = X = 2^B with plain ints, by the unchanged
:meth:`~ospq.texpr.TensorExpression.evaluate`, and each entry of the
result is read back as an exact :class:`~ospq.scalar.Scalar` (Kronecker
substitution: Kronecker 1882; Harvey 2009).

* Each leg's table is scaled by s = D*h^E, with D the lcm of the
  integers of its entry denominators and E their largest h-power, so that
  its letter matrices hold integer polynomials in h.  m is the largest l1
  norm of an entry.
* Each expression's coefficients are brought to one scale
  G = K*h^F * prod_legs s^Lmax, where K*h^F clears the coefficient
  denominators and Lmax is the longest word on the leg.  A term whose
  words have lengths L gets the integer polynomial
  c' = c*K*h^F * prod_legs s^(Lmax - L), so that the sum of its terms
  evaluates to G times the expression.
* Every coefficient of that polynomial matrix is bounded in absolute
  value by

      sum_terms |c'|_1 * prod_legs n^(L - 1) * m^L

  (n the leg's dimension, L >= 1; a leg with L = 0 contributes 1), read
  off the terms alone.  With B = bound.bit_length() + 1 every coefficient
  lies strictly between -2^(B-1) and 2^(B-1), so a polynomial is fixed by
  its value at X: its coefficients are the balanced base-X digits of that
  value.  A zero value is an exact zero.

An entry or a coefficient with p in it, or with a denominator of more
than one term, cannot be packed: :func:`evaluate_all` then evaluates on
``Scalar``s, as ``expr.evaluate(reps)`` does.  Nothing here approximates,
and nothing is cached.
"""

from __future__ import annotations

from math import lcm, prod

from .gmatrix import GradedMatrix
from .reps import GeneratorTable
from .scalar import Scalar
from .texpr import TensorExpression


def evaluate_all(exprs, reps) -> list:
    """``[expr.evaluate(reps) for expr in exprs]``, computed on packed ints
    with one width for all the expressions when they and the tables pack."""
    plan = PackedPlan.of(exprs, reps)
    if plan is None:
        return [expr.evaluate(reps) for expr in exprs]
    return plan.run(plan.width)


def pack(poly: dict, width: int) -> int:
    """The value at h = 2^width of the integer polynomial {h_exp: int}."""
    return sum(c << (width * e) for e, c in poly.items())


def unpack(value: int, width: int) -> dict:
    """The polynomial {h_exp: int} whose coefficients are the balanced
    base-2^width digits of ``value``: the inverse of :func:`pack` on
    polynomials with every coefficient below 2^(width-1) in absolute value."""
    out = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    e = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        if digit:
            out[e] = digit
        value = (value - digit) >> width
        e += 1
    return out


class _Unpackable(Exception):
    """A scalar has p in it, or a denominator of more than one term."""


def _h_fraction(s: Scalar):
    """(numerator {h_exp: int}, k, e) of s = numerator / (k h^e); raises
    _Unpackable when s has p in it or a denominator of more than one term."""
    if len(s.den) != 1:
        raise _Unpackable
    ((dp, e), k), = s.den.items()
    if dp or any(ep for ep, _ in s.num):
        raise _Unpackable
    return {eh: c for (_, eh), c in s.num.items()}, k, e


def _l1(poly: dict) -> int:
    return sum(abs(c) for c in poly.values())


class _ScaledTable:
    """A table's letters, scaled by s = D h^E to integer polynomials."""

    __slots__ = ("parity", "polys", "den", "hpow", "norm")

    def __init__(self, rep, letters):
        self.parity = rep.parity
        split = {
            name: {ij: _h_fraction(v) for ij, v in rep.matrix(name).entries.items()}
            for name in letters
        }
        fractions = [f for entries in split.values() for f in entries.values()]
        self.den = lcm(*(k for _, k, _ in fractions))
        self.hpow = max((e for _, _, e in fractions), default=0)
        self.polys = {
            name: {
                ij: {eh + self.hpow - e: c * (self.den // k) for eh, c in num.items()}
                for ij, (num, k, e) in entries.items()
            }
            for name, entries in split.items()
        }
        self.norm = max(
            (_l1(poly) for entries in self.polys.values() for poly in entries.values()),
            default=0,
        )

    def word_bound(self, length: int) -> int:
        """A bound on the l1 norm of any entry of a scaled word matrix."""
        if not length:
            return 1
        return len(self.parity) ** (length - 1) * self.norm**length

    def at(self, width: int) -> "_IntTable":
        return _IntTable(
            "packed",
            None,
            self.parity,
            {
                name: GradedMatrix(
                    self.parity, {ij: pack(poly, width) for ij, poly in entries.items()}
                )
                for name, entries in self.polys.items()
            },
        )


class _IntTable(GeneratorTable):
    """A generator table of ``int`` matrices, the values at h = 2^B."""

    __slots__ = ()

    def identity(self) -> GradedMatrix:
        return GradedMatrix(self.parity, {(i, i): 1 for i in range(self.dim)})


class _PackedExpression:
    """One expression's terms as integer polynomials at the common scale
    G, which is den * h^hpow, with the bound on G times its value."""

    __slots__ = ("nlegs", "terms", "den", "hpow", "bound")

    def __init__(self, expr, legs):
        self.nlegs = expr.nlegs
        split = [(key, *_h_fraction(c)) for key, c in expr.terms.items()]
        lmax = [max((len(key[l]) for key, *_ in split), default=0) for l in range(self.nlegs)]
        big_k = lcm(*(k for _, _, k, _ in split))
        big_f = max((f for _, _, _, f in split), default=0)
        self.den = big_k * prod(leg.den**n for leg, n in zip(legs, lmax))
        self.hpow = big_f + sum(leg.hpow * n for leg, n in zip(legs, lmax))
        self.terms = {}
        self.bound = 0
        for key, num, k, f in split:
            mult, shift, bound = big_k // k, big_f - f, 1
            for leg, n, word in zip(legs, lmax, key):
                gap = n - len(word)
                if gap:
                    mult *= leg.den**gap
                    shift += leg.hpow * gap
                bound *= leg.word_bound(len(word))
            self.terms[key] = {eh + shift: c * mult for eh, c in num.items()}
            self.bound += mult * _l1(num) * bound

    def unpack(self, value: int, width: int) -> Scalar:
        coeffs = {e - self.hpow: c for e, c in unpack(value, width).items()}
        return Scalar.from_h_laurent(coeffs, self.den)


class PackedPlan:
    """Expressions and tables scaled to integer polynomials, with the one
    width that the bound of every expression proves safe.  A table that
    sits on several legs is packed once, and its word matrices are built
    once for all the legs and expressions."""

    __slots__ = ("scaled", "slots", "exprs", "width")

    def __init__(self, scaled, slots, exprs):
        self.scaled = scaled
        self.slots = slots
        self.exprs = exprs
        self.width = max((e.bound for e in exprs), default=0).bit_length() + 1

    @classmethod
    def of(cls, exprs, reps):
        """The plan for ``exprs`` on ``reps``, or None when a table entry or
        a coefficient cannot be packed."""
        distinct, slots = [], []
        for rep in reps:
            slot = next((k for k, seen in enumerate(distinct) if seen is rep), len(distinct))
            if slot == len(distinct):
                distinct.append(rep)
            slots.append(slot)
        letters = [set() for _ in distinct]
        for expr in exprs:
            if expr.nlegs != len(reps):
                raise ValueError("need one representation per leg")
            for key in expr.terms:
                for slot, word in zip(slots, key):
                    letters[slot].update(word)
        try:
            scaled = [_ScaledTable(rep, names) for rep, names in zip(distinct, letters)]
            legs = [scaled[slot] for slot in slots]
            return cls(scaled, slots, [_PackedExpression(expr, legs) for expr in exprs])
        except _Unpackable:
            return None

    def run(self, width: int) -> list:
        """Each expression's matrix, evaluated at h = 2^width and unpacked;
        exact for every width of at least ``self.width``."""
        tables = [table.at(width) for table in self.scaled]
        memos = [{} for _ in tables]
        reps = [tables[slot] for slot in self.slots]
        leg_memos = [memos[slot] for slot in self.slots]
        out = []
        for expr in self.exprs:
            terms = {key: pack(poly, width) for key, poly in expr.terms.items()}
            values = TensorExpression(expr.nlegs, terms).evaluate(reps, leg_memos)
            out.append(values.map_entries(lambda v: expr.unpack(v, width)))
        return out
