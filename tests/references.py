"""Routes the package used before, kept as independent references.

The q-numbers.  The package builds the brackets, the q-deformed f and
every entry of R_q as products of factored q-numbers
(``qnumber.QNumber``).  Before, each bracket was a quotient of ``Scalar``
sums reduced by polynomial GCDs, and R_q a sum over n of graded
Kronecker products of matrix powers; those routes share no arithmetic
with the factored one.

The functions of e^2.  The package builds the bridge M = E_{q^2}(eta e^2), its inverse, its
quotients and the Jordanian letters as series in the shift
(``nilfun.ShiftSeries``).  These are the routes it used before, by dense
matrix work: ``nil_series`` over matrix powers, Gauss-Jordan
``gmatrix.inverse``, ``unit_power`` with a matrix closure check and
``nil_log_unit``.  They share no code with the series, so each is an
independent oracle.  The disentanglement check reads log core from a
series too; ``nil_log_unit`` is its old route.

The r1 twist.  The package evaluates G = exp(h TH (x) X), its inverse at
-h and the R-matrix G21^-1 G from one two-leg expression, word by word.
Before, each factor was ``nil_exp`` of the dense graded Kronecker product,
and G21^-1 the exponential of -h X (x) TH with no swap.

Packed digits.  ``unpack`` reads a packed polynomial back digit by digit,
as the Hopf suites did when they were evaluated at h = 2^B; the width
tests decode with it.
"""

from fractions import Fraction
from functools import reduce
from operator import matmul

import ospq.nilfun as nilfun
from ospq.contraction import eta, q2_factorial
from ospq.errors import CancellationFailure
from ospq.gmatrix import GradedMatrix, embed_pair, graded_kron, inverse, tensor_parity
from ospq.halfint import HalfInt, as_half
from ospq.packed import _scaled
from ospq.reps import GeneratorTable, classical_rep, q_rep, weight_twice
from ospq.scalar import ONE, H, P, p_power, rational


def twist_by_kron(rep1: GeneratorTable, rep2: GeneratorTable, step=H) -> GradedMatrix:
    """exp(step TH (x) X) on a pair of modules, as ``nil_exp`` of the
    dense graded Kronecker product."""
    th = rep1.matrix("T") @ rep1.matrix("H")
    return nilfun.nil_exp(graded_kron(th, rep2.matrix("X"), b_op_parity=0).scale(step))


def universal_Rh_r1_by_kron(rep1: GeneratorTable, rep2: GeneratorTable) -> GradedMatrix:
    """G21^-1 G on a pair of modules, G21^-1 = exp(-h X (x) TH) formed on
    the pair as it stands."""
    th = rep2.matrix("T") @ rep2.matrix("H")
    g21inv = nilfun.nil_exp(graded_kron(rep1.matrix("X"), th, b_op_parity=0).scale(-H))
    return g21inv @ twist_by_kron(rep1, rep2)


def bracket_by_scalars(kind: str, xx: HalfInt, a: int):
    """A bracket as the quotient of two ``Scalar`` sums of powers of q."""
    if kind == "q":
        num = p_power(xx * a) - p_power(xx * (-a))
        den = p_power(HalfInt(a)) - p_power(HalfInt(-a))
        return num / den
    if kind == "double":
        num = p_power(xx * a)
        tail = p_power(xx * (-a))
        num = num + tail if xx.twice % 2 else num - tail
        den = p_power(HalfInt.from_twice(a)) + p_power(HalfInt.from_twice(-a))
        return num / den
    if kind == "plus":
        val = bracket_by_scalars("double", HalfInt.from_twice(xx.twice // 2), 1)
        return val if xx.twice % 4 else -val
    num = ONE - p_power(xx * a)
    den = ONE - p_power(HalfInt(a))
    return num / den


def q_lowering_by_scalars(j) -> GradedMatrix:
    """The q-deformed f on the spin-j module, from ``bracket_by_scalars``."""
    j = as_half(j)
    parity = q_rep(j).parity
    half = HalfInt.from_twice(1)
    entries = {}
    for k in range(len(parity) - 1):
        m = HalfInt.from_twice(weight_twice(j, k))
        up, down = j + m, j - m + half
        if k % 2 == 0:
            c = -(bracket_by_scalars("q", up, 1) * bracket_by_scalars("double", down, 1))
        else:
            c = bracket_by_scalars("double", up, 1) * bracket_by_scalars("q", down, 1)
        entries[(k + 1, k)] = c
    return GradedMatrix(parity, entries)


def universal_Rq_by_matrices(j1, j2) -> GradedMatrix:
    """R_q as q^{h (x) h} times the sum over n of the coefficient times the
    graded Kronecker product of (q^{h/2} e)^n and (q^{-h/2} f)^n, every
    coefficient a ``Scalar`` product and every term a matrix."""
    j1, j2 = as_half(j1), as_half(j2)
    rep1, rep2 = q_rep(j1), q_rep(j2)
    raise_half = rep1.matrix("K") @ rep1.matrix("e")
    lower_half = rep2.matrix("Kinv") @ q_lowering_by_scalars(j2)
    omega = ONE - P**-4  # 1 - q^{-2}
    an = GradedMatrix.identity(rep1.parity)
    bn = GradedMatrix.identity(rep2.parity)
    factorial = ONE
    total = None
    for n in range(min(rep1.dim, rep2.dim)):
        if n:
            an = an @ raise_half
            bn = bn @ lower_half
            factorial = factorial * bracket_by_scalars("plus", HalfInt(n), 1)
        coeff = p_power(HalfInt.from_twice(n * (n + 1) // 2)) * omega**n / factorial
        term = graded_kron(an, bn, b_op_parity=n % 2).scale(coeff)
        total = term if total is None else total + term
    d2 = rep2.dim
    cartan = {}
    for k1 in range(rep1.dim):
        for k2 in range(d2):
            g = k1 * d2 + k2
            cartan[(g, g)] = p_power(HalfInt(weight_twice(j1, k1) * weight_twice(j2, k2)))
    parity = tensor_parity((rep1.parity, rep2.parity))
    return GradedMatrix(parity, cartan) @ total


def unit_power(m: GradedMatrix, r) -> GradedMatrix:
    """(identity plus nilpotent)^r for rational r, with a closure check:
    for r = k/d the result w satisfies w^d == m^k, or w^d m^-k == 1 when k
    is negative.  The series is read through ``ospq.nilfun`` at call time,
    so a test may patch it."""
    r = Fraction(r)
    n = m - GradedMatrix.identity(m.parity)
    binom = [Fraction(1)]
    for k in range(1, m.dim + 1):
        binom.append(binom[-1] * (r - (k - 1)) / k)
    w = nilfun.nil_series(n, lambda k: binom[k])
    k, d = r.numerator, r.denominator
    if k >= 0:
        closed = w**d == m**k
    else:
        closed = w**d @ m ** (-k) == GradedMatrix.identity(m.parity)
    if not closed:
        raise CancellationFailure(f"rational power {r} failed its closure check")
    return w


def unit_sqrt(m: GradedMatrix) -> GradedMatrix:
    return unit_power(m, Fraction(1, 2))


def nil_log_unit(m: GradedMatrix) -> GradedMatrix:
    """log of a unipotent matrix (identity plus nilpotent)."""
    n = m - GradedMatrix.identity(m.parity)
    return nilfun.nil_series(
        n, lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0)
    )


def eq2_series(x: GradedMatrix) -> GradedMatrix:
    """The base-q^2 exponential of a nilpotent matrix argument."""
    return nilfun.nil_series(x, lambda n: q2_factorial(n).reciprocal())


def bridge(j) -> tuple:
    """M, M^-1 by Gauss-Jordan, and script_t at each gamma in -2..2 by
    halves, keyed by twice gamma."""
    e = q_rep(j).matrix("e")
    e2 = e @ e
    m = eq2_series(e2.scale(eta()))
    minv = inverse(m)
    quotients = {
        twice: minv @ eq2_series(e2.scale(eta() * p_power(twice)))
        for twice in range(-4, 5)
    }
    return m, minv, quotients


def tilde_t_powers(j) -> tuple:
    cl = classical_rep(j)
    e2 = cl.matrix("e") @ cl.matrix("e")
    root = unit_sqrt(cl.identity() + (e2 @ e2).scale(H**2))
    big_t = e2.scale(H) + root
    return big_t, e2.scale(-H) + root, unit_power(big_t, Fraction(1, 2))


def r2_generators(j) -> GeneratorTable:
    cl = classical_rep(j)
    ident = cl.identity()
    e, f, h = cl.matrix("e"), cl.matrix("f"), cl.matrix("h")
    big_t, big_tinv, thalf = tilde_t_powers(j)
    big_h = (big_t + big_tinv).scale(rational(1, 2)) @ h
    gq = (big_t - ident) @ inverse(big_t + ident)
    big_f = (
        f
        + (gq @ e).scale(H * rational(1, 4))
        - (gq @ e @ h).scale(H * rational(1, 2))
    )
    mats = {
        "H": big_h,
        "E": e,
        "F": big_f,
        "T": big_t,
        "Tinv": big_tinv,
        "Thalf": thalf,
        "Tinvhalf": unit_power(big_t, Fraction(-1, 2)),
        "X": nil_log_unit(big_t).scale(H.reciprocal()),
        "Y": -(big_f @ big_f),
    }
    return GeneratorTable("jordanian-r2", j, cl.parity, mats)


def r1_generators(j, family: str) -> GeneratorTable:
    cl = classical_rep(j)
    e, f, h, bp = cl.matrix("e"), cl.matrix("f"), cl.matrix("h"), cl.matrix("b+")
    iden = cl.identity()
    half, quarter = rational(1, 2), rational(1, 4)
    h2 = H * H
    if family == "minimal":
        core = iden - bp.scale(H + H)
        t = unit_power(core, Fraction(-1, 2))
        tinv = unit_power(core, Fraction(1, 2))
        thalf = unit_power(core, Fraction(-1, 4))
        tinvhalf = unit_power(core, Fraction(1, 4))
        big_e = thalf @ e
        big_h = tinv @ h
        big_f = (
            tinvhalf @ f
            - (bp @ unit_power(core, Fraction(-3, 4)) @ e).scale(h2 * quarter)
            + (tinvhalf @ e @ h).scale(H * half)
        )
        big_x = nil_log_unit(core).scale(-(H + H).reciprocal())
    else:
        shear = bp.scale(H * half)
        t = (iden + shear) @ inverse(iden - shear)
        tinv = (iden - shear) @ inverse(iden + shear)
        thalf = unit_power(t, Fraction(1, 2))
        tinvhalf = unit_power(t, Fraction(-1, 2))
        flat = iden - shear @ shear
        big_e = unit_power(flat, Fraction(-1, 2)) @ e
        big_h = h
        big_f = (
            unit_power(flat, Fraction(1, 2)) @ f
            - (bp @ unit_power(flat, Fraction(-3, 2)) @ e).scale(h2 * quarter)
            - (bp @ unit_power(flat, Fraction(-1, 2)) @ e @ h).scale(h2 * quarter)
        )
        big_x = nil_log_unit(t).scale(H.reciprocal())
    tm = t - tinv
    big_y = (
        -(big_f @ big_f)
        + (tm @ big_h @ big_h).scale(H * rational(1, 8))
        + (tm @ big_e @ big_f).scale(H * quarter)
        + ((t @ t - tinv @ tinv) @ big_h).scale(H * rational(3, 16))
        + tm.scale(H * quarter)
        + (tm @ tm @ tm).scale(H * rational(9, 128))
    )
    matrices = {
        "H": big_h,
        "E": big_e,
        "F": big_f,
        "T": t,
        "Tinv": tinv,
        "Thalf": thalf,
        "Tinvhalf": tinvhalf,
        "X": big_x,
        "Y": big_y,
    }
    return GeneratorTable(f"jordanian-r1-{family}", j, cl.parity, matrices)


def series_width_by_norm_matrices(plan) -> int:
    """The width of a ``packed.SeriesPlan`` from N x N norm matrices, as
    the plan proved it before its bounds were matrix-vector products: the
    largest entry of |M| = |M1| (x) |M2|, |M^-1| likewise, |R_q| |M| and
    |M^-1| |R_q| |M|, each formed as a matrix of ints."""

    def norms(series):
        return GradedMatrix(series.parity, series.norms())

    big_m, big_i = (
        graded_kron(*map(norms, legs), b_op_parity=0) for legs in (plan.m_legs, plan.i_legs)
    )
    right = norms(plan.rq) @ big_m
    bound = max(
        max(m.entries.values(), default=0) for m in (big_m, big_i, right, big_i @ right)
    )
    return bound.bit_length() + 1


def product_width_by_norm_matrices(factors, parities, orders) -> int:
    """The width of a ``packed.ProductPlan`` from norm matrix products, as
    the plan proved it before: each factor's entrywise l1 norms, scaled,
    embedded and multiplied in each order as matrices of ints."""
    norms = [
        embed_pair(
            GradedMatrix(m.parity, {
                ij: sum(map(abs, poly.values())) for ij, poly in _scaled(m.entries)[0].items()
            }),
            parities,
            legs,
        ).map_entries(abs)
        for m, legs in factors
    ]
    bound = max(
        max(reduce(matmul, (norms[k] for k in order)).entries.values(), default=0)
        for order in orders
    )
    return bound.bit_length() + 1


def unpack(value: int, width: int) -> dict:
    """The polynomial {exp: int} whose coefficients are the balanced
    base-2^width digits of ``value``: the inverse of ``packed.pack`` on
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
