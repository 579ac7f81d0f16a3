"""Exact identities of the package decided on packed integers.

A polynomial with integer coefficients is fixed by its value at a large
enough power of two: its coefficients are the balanced base-2^B digits
of that value once every one lies strictly between -2^(B-1) and 2^(B-1)
(Kronecker substitution: Kronecker 1882; Harvey 2009).  Matrices whose
entries are such polynomials are therefore multiplied here as matrices
of plain ints, by the unchanged :class:`~ospq.gmatrix.GradedMatrix`
arithmetic, and nothing is approximated: each width is proven from a
bound on the coefficients before any packed product is taken.

One scaling rule clears the denominators (:func:`_scaled`): scalars
whose denominators are one-term, k*p^a*h^b, are multiplied by their
common scale D*p^A*h^B, with D the lcm of the k and A, B the largest a
and b, which leaves integer polynomials in p and h.  The letters of a
table, the coefficients of an expression and the entries of a pair
matrix are each scaled so.  Two kinds of computation are packed.

**Tensor expressions on the Jordanian tables** (:func:`evaluate_all`, the
Hopf suites).  Every table entry, coefficient and scale is p-free.  Such
an expression is evaluated at h = X = 2^B by
:meth:`~ospq.texpr.TensorExpression.evaluate`, and each entry of the
result is read back as an exact :class:`~ospq.scalar.Scalar`.

* Each leg's table is scaled by its s = D*h^E.  m is the largest l1
  norm of a scaled entry.
* Each expression's coefficients, scaled by their K*h^F, are brought to
  one scale G = K*h^F * prod_legs s^Lmax, where Lmax is the longest word
  on the leg: a term whose words have lengths L is multiplied by
  prod_legs s^(Lmax - L), giving its integer polynomial c', so that the
  sum of its terms evaluates to G times the expression.
* Every coefficient of that polynomial matrix is bounded in absolute
  value by

      sum_terms |c'|_1 * prod_legs n^(L - 1) * m^L

  (n the leg's dimension, L >= 1; a leg with L = 0 contributes 1), read
  off the terms alone.  With B = bound.bit_length() + 1 every coefficient
  lies strictly between -2^(B-1) and 2^(B-1), so a polynomial is fixed by
  its value at X: its coefficients are the balanced base-X digits of that
  value.  A zero value is an exact zero.

**Product identities of pair matrices** (:func:`product_difference`, the
graded Yang-Baxter equation and the RLL exchange relation).  Each factor
is a matrix over Q(p, h) on two legs of a tensor product, embedded by
:func:`~ospq.gmatrix.embed_pair`, and the identity equates two products
that use every factor once.

* Both products carry the same scale, the product of the factors'
  scales, so the scaled products are equal exactly when the products are.
* The entrywise l1 norms of the scaled factors, embedded and multiplied
  in each order as matrices of non-negative ints, bound the l1 norm, and
  so every coefficient, of each entry of the scaled products; their
  p-degree is at most d, the sum of the factors' largest p-degrees.
* Each monomial p^a*h^b becomes X^(a + span*b) with span = d + 1, and
  with B = bound.bit_length() + 1 for the larger bound of the two sides
  every entry is evaluated at X = 2^B: distinct monomials of p-degree
  a <= d land on distinct digits, so the evaluation is injective on both
  products, and the packed products are equal exactly when the identity
  holds.  This is a proof, not a probabilistic test.

An entry or a coefficient that cannot be packed (one with p in it, for
the Hopf suites, or with a denominator of more than one term) refuses
the packed route: :func:`evaluate_all` then evaluates on ``Scalar``s, as
``expr.evaluate(reps)`` does, and :func:`product_difference` takes the
two products on ``Scalar``s, as it does when the packed products differ,
so that every residual is the exact ``Scalar`` one.  Nothing here is
cached.
"""

from __future__ import annotations

from functools import reduce
from math import lcm, prod
from operator import matmul

from .gmatrix import GradedMatrix, embed_pair, tensor_parity
from .reps import GeneratorTable
from .scalar import Scalar
from .texpr import TensorExpression


def evaluate_all(exprs, reps) -> list:
    """``[expr.evaluate(reps) for expr in exprs]``, computed on packed ints
    with one width for all the expressions when they and the tables pack.
    Either way each distinct table's word matrices are built once: in one
    int table per call on packed ints, otherwise in the table's own memo."""
    plan = PackedPlan.of(exprs, reps)
    if plan is not None:
        return plan.run()
    return [expr.evaluate(reps) for expr in exprs]


def product_difference(factors, left, right, parities) -> GradedMatrix:
    """The difference of two products of pair matrices, exactly.

    ``factors`` holds (matrix, leg pair) items, each matrix embedded on
    its legs of the product whose leg parities are ``parities`` (see
    :func:`~ospq.gmatrix.embed_pair`); ``left`` and ``right`` list every
    factor's index once, in the order of multiplication.  When packed ints
    prove the two products equal the zero matrix is returned at once;
    otherwise (the products differ, or a factor does not pack) both are
    taken on ``Scalar``s and subtracted.
    """
    plan = ProductPlan.of(factors, parities, (left, right))
    if plan is not None and plan.agree():
        return GradedMatrix.zero(tensor_parity(parities))
    mats = [embed_pair(m, parities, legs) for m, legs in factors]
    return _chain(mats, left) - _chain(mats, right)


def pack(poly: dict, width: int) -> int:
    """The value at X = 2^width of the integer polynomial {exp: int}."""
    return sum(c << (width * e) for e, c in poly.items())


def unpack(value: int, width: int) -> dict:
    """The polynomial {exp: int} whose coefficients are the balanced
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


def _scaled(scalars: dict):
    """(polys, D, a, b): each of ``scalars`` times D p^a h^b, as an integer
    polynomial {(p_exp, h_exp): int} keyed like ``scalars``.  D is the lcm
    of the integers of their one-term denominators, a and b the largest
    powers of p and h in them; a denominator of more than one term raises
    _Unpackable."""
    if any(len(s.den) != 1 for s in scalars.values()):
        raise _Unpackable
    dens = [next(iter(s.den.items())) for s in scalars.values()]
    den = lcm(*(k for _, k in dens))
    top_p = max((a for (a, _), _ in dens), default=0)
    top_h = max((b for (_, b), _ in dens), default=0)
    polys = {
        key: {
            (ep + top_p - a, eh + top_h - b): c * (den // k)
            for (ep, eh), c in s.num.items()
        }
        for (key, s), ((a, b), k) in zip(scalars.items(), dens)
    }
    return polys, den, top_p, top_h


def _h_scaled(scalars: dict):
    """(polys, D, b) of :func:`_scaled`, each polynomial as {h_exp: int};
    raises _Unpackable when p is in the scale or in a scaled polynomial."""
    polys, den, top_p, top_h = _scaled(scalars)
    if top_p:
        raise _Unpackable
    out = {key: {} for key in polys}
    for key, poly in polys.items():
        for (ep, eh), c in poly.items():
            if ep:
                raise _Unpackable
            out[key][eh] = c
    return out, den, top_h


def _slots(reps):
    """The distinct tables of ``reps``, by identity, and the index of each
    leg's table among them."""
    distinct, slots = [], []
    for rep in reps:
        slot = next((k for k, seen in enumerate(distinct) if seen is rep), len(distinct))
        if slot == len(distinct):
            distinct.append(rep)
        slots.append(slot)
    return distinct, slots


def _l1(poly: dict) -> int:
    return sum(abs(c) for c in poly.values())


class _ScaledTable:
    """A table's letters, scaled by s = D h^E to integer polynomials."""

    __slots__ = ("parity", "polys", "den", "hpow", "norm")

    def __init__(self, rep, letters):
        self.parity = rep.parity
        polys, self.den, self.hpow = _h_scaled(
            {(name, ij): v for name in letters for ij, v in rep.matrix(name).entries.items()}
        )
        self.polys = {name: {} for name in letters}
        for (name, ij), poly in polys.items():
            self.polys[name][ij] = poly
        self.norm = max(map(_l1, polys.values()), default=0)

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
        polys, big_k, big_f = _h_scaled(expr.terms)
        lmax = [max((len(key[l]) for key in polys), default=0) for l in range(self.nlegs)]
        self.den = big_k * prod(leg.den**n for leg, n in zip(legs, lmax))
        self.hpow = big_f + sum(leg.hpow * n for leg, n in zip(legs, lmax))
        self.terms = {}
        self.bound = 0
        for key, poly in polys.items():
            mult, shift, bound = 1, 0, 1
            for leg, n, word in zip(legs, lmax, key):
                gap = n - len(word)
                if gap:
                    mult *= leg.den**gap
                    shift += leg.hpow * gap
                bound *= leg.word_bound(len(word))
            self.terms[key] = {eh + shift: c * mult for eh, c in poly.items()}
            self.bound += mult * _l1(poly) * bound

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
        distinct, slots = _slots(reps)
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

    def run(self) -> list:
        """Each expression's matrix, evaluated at h = 2^width and unpacked;
        legs that hold one table share its int table and word matrices."""
        width = self.width
        tables = [table.at(width) for table in self.scaled]
        reps = [tables[slot] for slot in self.slots]
        out = []
        for expr in self.exprs:
            terms = {key: pack(poly, width) for key, poly in expr.terms.items()}
            values = TensorExpression(expr.nlegs, terms).evaluate(reps)
            out.append(values.map_entries(lambda v: expr.unpack(v, width)))
        return out


class ProductPlan:
    """Pair matrices scaled to integer polynomials in p and h, with the
    width that proves packing injective on every product in ``orders``."""

    __slots__ = ("factors", "parities", "orders", "span", "width")

    def __init__(self, factors, parities, orders):
        # factors: (pair parity, scaled entries, leg pair) per factor; once
        # span is known each monomial p^a h^b becomes X^(a + span*b)
        self.parities = parities
        self.orders = orders
        self.span = span = 1 + sum(
            max((ep for poly in polys.values() for ep, _ in poly), default=0)
            for _, polys, _ in factors
        )
        for _, polys, _ in factors:
            for ij, poly in polys.items():
                polys[ij] = {a + span * b: c for (a, b), c in poly.items()}
        self.factors = factors
        norms = [m.map_entries(abs) for m in self._embedded(_l1)]
        bound = max(
            max(_chain(norms, order).entries.values(), default=0) for order in orders
        )
        self.width = bound.bit_length() + 1

    @classmethod
    def of(cls, factors, parities, orders):
        """The plan for (matrix, leg pair) ``factors``, or None when an
        entry has a denominator of more than one term.  Each order must
        use every factor once, so that both products carry one scale."""
        if any(sorted(order) != list(range(len(factors))) for order in orders):
            raise ValueError("each order must use every factor once")
        try:
            scaled = [(m.parity, _scaled(m.entries)[0], legs) for m, legs in factors]
        except _Unpackable:
            return None
        return cls(scaled, tuple(parities), tuple(orders))

    def _embedded(self, value) -> list:
        """Each factor with ``value(poly)`` in place of each entry, embedded."""
        return [
            embed_pair(
                GradedMatrix(parity, {ij: value(poly) for ij, poly in polys.items()}),
                self.parities,
                legs,
            )
            for parity, polys, legs in self.factors
        ]

    def products(self) -> list:
        """The scaled product of each order at p = 2^width and
        h = 2^(width*span), as a matrix of ints; injective on the products
        at the proven width."""
        mats = self._embedded(lambda poly: pack(poly, self.width))
        return [_chain(mats, order) for order in self.orders]

    def agree(self) -> bool:
        """Whether the products of all the orders are equal, decided at the
        proven width."""
        first, *rest = self.products()
        return all(first == other for other in rest)


def _chain(mats, order) -> GradedMatrix:
    """The product of ``mats`` in ``order``, left to right."""
    return reduce(matmul, (mats[k] for k in order))
