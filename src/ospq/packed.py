"""Exact identities of the package decided on packed integers.

A polynomial with integer coefficients is fixed by its value at a large
enough power of two: its coefficients are the balanced base-2^B digits
of that value once every one lies strictly between -2^(B-1) and 2^(B-1)
(Kronecker substitution: Kronecker 1882; Harvey 2009).  Matrices whose
entries are such polynomials are therefore multiplied here as matrices
of plain ints, and nothing is approximated: each width is proven from a
bound on the coefficients before any packed product is taken.

One scaling rule clears the denominators (:func:`_scaled`): scalars
whose denominators are one-term, k*p^a*h^b, are multiplied by their
common scale D*p^A*h^B, with D the lcm of the k and A, B the largest a
and b, which leaves integer polynomials in p and h.  The entries of a
pair matrix are scaled so.  Two kinds of computation are packed.

**Product identities of pair matrices** (:func:`product_difference`, the
graded Yang-Baxter equation and the RLL exchange relation).  Each factor
is a matrix over Q(p, h) on two legs of a tensor product, embedded by
:func:`~ospq.gmatrix.embed_pair`, and the identity equates two products
that use every factor once.

* Both products carry the same scale, the product of the factors'
  scales, so the scaled products are equal exactly when the products are.
  A matrix that sits in several factors (L in the RLL relation) is
  scaled once, and each factor is embedded once; its norms and its
  packed values are both read through that one embedding.
* The width is bounded by matrix-vector products, with no product of
  norm matrices formed: |(A B)_ij| <= sum_k |A|_ik max_j |B|_kj for the
  entrywise l1 norms.  For each order, u starts as the row maxima of the
  last factor's norms, and u <- |F| u is applied for each factor F
  further left; every entry of the final u bounds the l1 norm, and so
  every coefficient, of each entry of its row of the scaled product.
  The p-degree of those entries is at most d, the sum of the factors'
  largest p-degrees.
* Each monomial p^a*h^b becomes X^(a + span*b) with span = d + 1, and
  with B = bound.bit_length() + 1 for the larger bound of the two sides
  every entry is evaluated at X = 2^B: distinct monomials of p-degree
  a <= d land on distinct digits, so the evaluation is injective on both
  products, and the packed products are equal exactly when the identity
  holds.  This is a proof, not a probabilistic test.

An entry with a denominator of more than one term refuses the packed
route: :func:`product_difference` then takes the two products on
``Scalar``s, as it does when the packed products differ, so that every
residual is the exact ``Scalar`` one.  The packed products use the
unchanged :class:`~ospq.gmatrix.GradedMatrix` arithmetic.

**Series chains of the contraction** (:class:`SeriesPlan`,
``contraction.contract``).  The operands are truncated Laurent series in
t = p - 1 over Q[h] (:mod:`ospq.laurent`): R_q and the two legs each of
M = M1 (x) M2 and M^-1, every entry known below its own t^N and with
its own valuation v, and the chain is M^-1 (R_q M), whose t^0
coefficients are the contraction.  Such entries always pack.

* Each matrix is scaled to the lcm of its entries' denominators, and
  each h-slice of an entry is an integer polynomial in t, its digits
  counted from t^v, packed at t = 2^W.
* The width.  A product's l1 norm is at most the product of its
  factors' and a sum's at most the sum of its summands', and a cut only
  drops digits.  So |(A B)_ij| <= sum_k |A|_ik max_j |B|_kj for the
  entrywise l1 norms, and four bounds follow from the norms of the
  scaled operands with no N x N norm matrix formed:

  - the largest entry of |M| = |M1| (x) |M2|, the product of its legs'
    largest entries, and that of |M^-1| likewise;
  - r = |R_q| u, with u the row maxima of |M|, which are the Kronecker
    product of the legs' row maxima: r_k bounds every entry in row k
    of R_q M;
  - |M^-1| r, applied one leg at a time, which bounds every entry in
    its row of M^-1 (R_q M).

  Each bounds every coefficient of every h-slice of that stage's
  entries before they are cut.  W is bound.bit_length() + 1 for the
  largest of them, fixed before any product is packed, so every such
  coefficient lies strictly between -2^(W-1) and 2^(W-1).
* The products.  The Kronecker products, R_q M and M^-1 (R_q M) are
  formed on ints, one big-int product per pair of h-slices.  Every
  accumulated entry gets the precision the Laurent rules give it:
  min(Na + vb, Nb + va) for a summand, the least over its summands for
  a sum, and the asked-for N in a Kronecker product, which raises
  PrecisionShortfall when a summand falls short of it.  It is then cut
  there with one mask and a sign fix: the balanced residue mod 2^(W n),
  n the number of digits below t^N, is exactly those digits, and its
  lowest set bit gives the new valuation.
* Why a digit at or above t^N never reaches a kept digit.  The packed
  value is the exact integer polynomial at 2^W, with nothing reduced,
  so its digits from the n-th on add a multiple of 2^(W n), whatever
  their size: those digits are the unknown part of the series, and may
  be sums of any length.  The digits below t^N lie in the balanced
  range, so their sum is below 2^(W n - 1) in absolute value, and the
  balanced residue is that sum.  Carries run only upwards.
* The limit.  Each final entry's t^0 digit becomes a ``Scalar`` by
  ``Scalar.from_h_laurent``.  A final entry known below t^0 or lower
  raises PrecisionShortfall, and one with a nonzero digit at a negative
  power of t raises PoleAtUnity.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import matmul

from .errors import PoleAtUnity, PrecisionShortfall
from .gmatrix import GradedMatrix, embed_pair, tensor_parity
from .scalar import Scalar


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


class _Unpackable(Exception):
    """A scalar has a denominator of more than one term."""


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


class ProductPlan:
    """Pair matrices scaled to integer polynomials in p and h, with the
    width that proves packing injective on every product in ``orders``.

    A matrix that several factors share is scaled once, and each factor
    is embedded once: the embedding maps each entry of the product space
    to the signed position of an entry of its pair matrix, through which
    both the norms and the packed values are read."""

    __slots__ = ("parity", "polys", "embedded", "orders", "span", "width")

    def __init__(self, polys, slots, embedded, parity, orders):
        # polys: the scaled entries of each distinct matrix, in a fixed
        # order; slots[f] the distinct matrix of factor f, and embedded[f]
        # maps each entry of the product space to +-(n + 1) for entry n
        # of that matrix, negative where the embedding flips its sign
        self.parity = parity
        self.orders = orders
        degree = [max((ep for poly in m for ep, _ in poly), default=0) for m in polys]
        self.span = span = 1 + sum(degree[slot] for slot in slots)
        # once span is known each monomial p^a h^b becomes X^(a + span*b)
        self.polys = [
            [{a + span * b: c for (a, b), c in poly.items()} for poly in m] for m in polys
        ]
        self.embedded = list(zip(slots, embedded))
        norms = [[_l1(poly) for poly in m] for m in polys]
        images = [
            {pos: norms[slot][abs(n) - 1] for pos, n in cells.items()}
            for slot, cells in self.embedded
        ]
        bound = 0
        for *rest, last in orders:
            u = _row_maxima(images[last], len(parity))
            for k in reversed(rest):
                u = _apply(images[k], u)
            bound = max(bound, *u)
        self.width = bound.bit_length() + 1

    @classmethod
    def of(cls, factors, parities, orders):
        """The plan for (matrix, leg pair) ``factors``, or None when an
        entry has a denominator of more than one term.  Each order must
        use every factor once, so that both products carry one scale."""
        if any(sorted(order) != list(range(len(factors))) for order in orders):
            raise ValueError("each order must use every factor once")
        distinct, slots = _slots([m for m, _ in factors])
        try:
            scaled = [_scaled(m.entries)[0] for m in distinct]
        except _Unpackable:
            return None
        parities = tuple(parities)
        embedded = [
            embed_pair(
                GradedMatrix(m.parity, {ij: n for n, ij in enumerate(scaled[slot], 1)}),
                parities,
                legs,
            ).entries
            for (m, legs), slot in zip(factors, slots)
        ]
        polys = [list(m.values()) for m in scaled]
        return cls(polys, slots, embedded, tensor_parity(parities), tuple(orders))

    def products(self) -> list:
        """The scaled product of each order at p = 2^width and
        h = 2^(width*span), as a matrix of ints; injective on the products
        at the proven width."""
        packed = [[pack(poly, self.width) for poly in m] for m in self.polys]
        mats = [
            GradedMatrix(self.parity, {
                pos: packed[slot][n - 1] if n > 0 else -packed[slot][-n - 1]
                for pos, n in cells.items()
            })
            for slot, cells in self.embedded
        ]
        return [_chain(mats, order) for order in self.orders]

    def agree(self) -> bool:
        """Whether the products of all the orders are equal, decided at the
        proven width."""
        first, *rest = self.products()
        return all(first == other for other in rest)


def _row_maxima(norms: dict, dim: int) -> list:
    """The largest entry in each row of a matrix of non-negative ints."""
    out = [0] * dim
    for (i, _), c in norms.items():
        if c > out[i]:
            out[i] = c
    return out


def _apply(norms: dict, u: list) -> list:
    """The matrix of non-negative ints ``norms`` times the vector u.

    When every entry of u bounds the l1 norms of its row of a matrix B,
    each entry of the result bounds those of its row of A B, for A with
    entry norms ``norms``: |(A B)_ij| <= sum_k |A|_ik max_j |B|_kj."""
    out = [0] * len(u)
    for (i, k), c in norms.items():
        out[i] += c * u[k]
    return out


def _chain(mats, order) -> GradedMatrix:
    """The product of ``mats`` in ``order``, left to right."""
    return reduce(matmul, (mats[k] for k in order))


# -- series chains of the contraction -----------------------------------------


class _Series:
    """A matrix of truncated series in t over Z[h] with one denominator.

    ``cells`` maps (row, col) to (prec, val, slices): the entry times
    ``den`` is known below t^prec, val is its lowest exponent with a
    nonzero known coefficient (prec when there is none), and ``slices``
    maps an h-exponent to that slice's t-digits, digit d being the
    coefficient of t^(val + d).  The digits are a polynomial {d: int}
    before packing and its value at 2^width after."""

    __slots__ = ("parity", "den", "cells")

    def __init__(self, parity, den: int, cells: dict):
        self.parity = parity
        self.den = den
        self.cells = cells

    @classmethod
    def of(cls, matrix: GradedMatrix) -> "_Series":
        """The :class:`~ospq.laurent.Laurent` entries of ``matrix`` over
        their lcm."""
        den = lcm(*(x.den for x in matrix.entries.values()))
        cells = {}
        for key, x in matrix.entries.items():
            slices = {}
            for (t, e), c in x.terms.items():
                slices.setdefault(e, {})[t - x.val] = c * (den // x.den)
            cells[key] = (x.prec, x.val, slices)
        return cls(matrix.parity, den, cells)

    def norms(self) -> dict:
        """The l1 norm of each entry's digits, keyed by (row, col)."""
        return {
            key: sum(map(_l1, slices.values()))
            for key, (_, _, slices) in self.cells.items()
        }

    def at(self, width: int) -> "_Series":
        return _Series(self.parity, self.den, {
            key: (prec, val, {e: pack(poly, width) for e, poly in slices.items()})
            for key, (prec, val, slices) in self.cells.items()
        })


class SeriesPlan:
    """The contraction's operands, R_q and the even legs of M and M^-1,
    as :class:`_Series`, with the one width proven for the chain
    M^-1 (R_q M).  ``need_m[l]`` is the precision asked of row l of
    M = M1 (x) M2 and ``need_i[k]`` that of column k of M^-1."""

    __slots__ = ("rq", "m_legs", "i_legs", "need_m", "need_i", "width")

    def __init__(self, rq, m_legs, i_legs, need_m: dict, need_i: dict):
        self.rq = _Series.of(rq)
        self.m_legs = [_Series.of(leg) for leg in m_legs]
        self.i_legs = [_Series.of(leg) for leg in i_legs]
        self.need_m = need_m
        self.need_i = need_i
        (m1, m2), (i1, i2) = (
            [leg.norms() for leg in legs] for legs in (self.m_legs, self.i_legs)
        )
        d1, d2 = (len(leg.parity) for leg in self.m_legs)
        # the row maxima of |M1| (x) |M2| are the products of the legs' own
        rows = [x * y for x in _row_maxima(m1, d1) for y in _row_maxima(m2, d2)]
        right = _apply(self.rq.norms(), rows)
        final = _apply_kron(i1, i2, right, d2)
        bound = max(
            max(m1.values(), default=0) * max(m2.values(), default=0),
            max(i1.values(), default=0) * max(i2.values(), default=0),
            *right,
            *final,
        )
        self.width = bound.bit_length() + 1

    def run(self) -> "SeriesChain":
        """M^-1 and R_q M on packed ints at the plan's width."""
        width = self.width
        big_m = _kron(*(leg.at(width) for leg in self.m_legs), self.need_m, 0, width)
        big_i = _kron(*(leg.at(width) for leg in self.i_legs), self.need_i, 1, width)
        return SeriesChain(big_i, _product(self.rq.at(width), big_m, width), width)


class SeriesChain:
    """M^-1 and R_q M of the contraction, packed at one width."""

    __slots__ = ("left", "right", "width")

    def __init__(self, left: _Series, right: _Series, width: int):
        self.left = left
        self.right = right
        self.width = width

    def product(self) -> _Series:
        """M^-1 (R_q M), each entry cut to its own precision."""
        return _product(self.left, self.right, self.width)

    def limit(self) -> GradedMatrix:
        """The t^0 coefficient of each entry of M^-1 (R_q M) as a
        ``Scalar``.  An entry known below t^0 or lower raises
        PrecisionShortfall, and a nonzero coefficient at a negative power
        of t raises PoleAtUnity."""
        final = self.product()
        width = self.width
        mask, half = (1 << width) - 1, 1 << (width - 1)
        entries = {}
        for key, (prec, val, slices) in final.cells.items():
            if prec <= 0:
                raise PrecisionShortfall(
                    f"coefficient of t^0 asked of a series known below t^{prec}"
                )
            if val < 0:
                raise PoleAtUnity(f"a pole of order {-val} at p = 1 survives")
            if val == 0:
                coeffs = {}
                for e, x in slices.items():
                    digit = x & mask
                    if digit >= half:
                        digit -= 1 << width
                    if digit:
                        coeffs[e] = digit
                entries[key] = Scalar.from_h_laurent(coeffs, final.den)
        return GradedMatrix(final.parity, entries)

    def pole_orders(self) -> list:
        """(i, j, order) for each entry of M^-1 (R_q M) whose summands had
        a pole at p = 1, with the worst order among them: valuations add,
        so a summand's order is -(v(M^-1[i, k]) + v((R_q M)[k, j]))."""
        cols = {}
        for (k, j), (_, val, _) in self.right.cells.items():
            cols.setdefault(k, []).append((j, val))
        worst = {}
        for (i, k), (_, lv, _) in self.left.cells.items():
            for j, rv in cols.get(k, ()):
                order = -(lv + rv)
                if order > worst.get((i, j), 0):
                    worst[(i, j)] = order
        return [(i, j, order) for (i, j), order in sorted(worst.items())]


def _apply_kron(a: dict, b: dict, u: list, db: int) -> list:
    """(A (x) B) u for matrices of non-negative ints given by their
    entries, B of dimension ``db``, one leg at a time."""
    half = [0] * len(u)
    for (i, k), c in b.items():
        for n in range(0, len(u), db):
            half[n + i] += c * u[n + k]
    out = [0] * len(u)
    for (i, k), c in a.items():
        for n in range(db):
            out[i * db + n] += c * half[k * db + n]
    return out


def _kron(a: _Series, b: _Series, need: dict, axis: int, width: int) -> _Series:
    """The Kronecker product of two even legs, each entry cut to
    ``need[n]``, n its row (axis 0) or column (axis 1).  A product known
    below a lower power of t raises PrecisionShortfall."""
    dim = len(b.parity)
    cells = {}
    for (i, j), (pa, va, sa) in a.cells.items():
        for (k, l), (pb, vb, sb) in b.cells.items():
            key = (i * dim + k, j * dim + l)
            prec, known = need[key[axis]], min(pa + vb, pb + va)
            if known < prec:
                raise PrecisionShortfall(
                    f"truncation to t^{prec} asked of a series known below t^{known}"
                )
            cells[key] = _cut(prec, va + vb, _times({}, sa, sb, 0), width)
    parity = tensor_parity((a.parity, b.parity))
    return _Series(parity, a.den * b.den, cells)


def _product(a: _Series, b: _Series, width: int) -> _Series:
    """a @ b, each entry known below the least precision of its summands
    and cut there; a summand of entries known below t^Na and t^Nb, of
    valuations va and vb, is known below t^min(Na + vb, Nb + va)."""
    rows = {}
    for (k, j), cell in b.cells.items():
        rows.setdefault(k, []).append((j, cell))
    acc = {}
    for (i, k), (pa, va, sa) in a.cells.items():
        for j, (pb, vb, sb) in rows.get(k, ()):
            prec, low = min(pa + vb, pb + va), va + vb
            cur = acc.get((i, j))
            if cur is None:
                acc[i, j] = cur = [prec, low, {}]
            elif prec < cur[0]:
                cur[0] = prec
            if sa and sb:
                # the sum's digit 0 is the lowest exponent of its summands
                if not cur[2]:
                    cur[1] = low
                elif low < cur[1]:
                    up = width * (cur[1] - low)
                    cur[1], cur[2] = low, {e: x << up for e, x in cur[2].items()}
                _times(cur[2], sa, sb, width * (low - cur[1]))
    return _Series(a.parity, a.den * b.den, {
        key: _cut(prec, low, slices, width) for key, (prec, low, slices) in acc.items()
    })


def _times(out: dict, sa: dict, sb: dict, shift: int) -> dict:
    """Add the product of the packed slices ``sa`` and ``sb``, shifted up
    by ``shift`` bits, into ``out``."""
    for ea, xa in sa.items():
        for eb, xb in sb.items():
            e = ea + eb
            out[e] = out.get(e, 0) + (xa * xb << shift)
    return out


def _cut(prec: int, low: int, slices: dict, width: int) -> tuple:
    """(prec, val, slices) of packed slices whose digit 0 is t^low, known
    below t^prec: each slice kept as its balanced residue mod 2^(width n),
    n = prec - low, which is its digits below t^prec; val is read from
    the lowest set bit, and the digits are then counted from t^val."""
    if prec <= low:
        return prec, prec, {}
    mod = 1 << (width * (prec - low))
    half = mod >> 1
    kept, skip = {}, prec - low
    for e, x in slices.items():
        x &= mod - 1
        if x >= half:
            x -= mod
        if x:
            kept[e] = x
            skip = min(skip, ((x & -x).bit_length() - 1) // width)
    if skip:
        kept = {e: x >> (width * skip) for e, x in kept.items()}
    return prec, low + skip, kept
