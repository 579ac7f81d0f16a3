"""Contraction of the standard quantization onto the first Jordanian one.

The bridge is a unipotent matrix M built from the square of the raising
operator.  Conjugating the standard R-matrix by M (x) M and then taking
the exact limit q -> 1 produces the triangular Jordanian R-matrix with
the residual deformation parameter h.  The same limit applied to the
conjugated Cartan exponential produces the Jordanian group-like
generator, which also has a closed form in the classical generators.

The Jordanian table it lands on, ``r2_generators``, and the group-like
element with its inverse and square root, ``tilde_t_powers``, are built
in :mod:`ospq.reps`; this module checks the element against its limit
and assembles the closed block form from the table.

Everything here is matrix-level and exact.  The contraction expands
R_q, M and M^-1 as truncated Laurent series in t = p - 1
(:mod:`ospq.laurent`) and keeps the t^0 coefficient of the product, so the
poles that cancel are never reduced away as fractions; a genuine pole
raises instead of being approximated.  Each entry is expanded only as far
as that coefficient needs, a bound read from the exact valuations at
p = 1 of the entries it meets.  M and M^-1 are Kronecker products of one
bridge per spin, so each bridge is expanded once and the products are
formed on series.
"""

from __future__ import annotations

from .errors import Inconsistency
from .gmatrix import GradedMatrix, block_matrix, graded_kron, inverse
from .halfint import HalfInt, as_half, spin_cache
from .hopf import r2_algebra
from .laurent import Laurent, valuation
from .nilfun import nil_series
from .packed import product_difference
from .qrmatrix import universal_Rq
from .report import VerificationReport, matrix_residuals
from .reps import (
    bracket,
    q_rep,
    r2_generators,
    refuse_oversized,
    rep_parity,
    tilde_t_powers,
    weight_twice,
)
from .scalar import H as HPARAM
from .scalar import ONE, P, ZERO, Scalar, p_power, rational, scalar_to_string
from .texpr import TensorExpression as TE
from .texpr import tensor_product


def eta() -> Scalar:
    """The bridge coupling h / (q^2 - 1)."""
    return HPARAM / (P**4 - ONE)


def q2_factorial(n: int) -> Scalar:
    total = ONE
    for k in range(1, n + 1):
        total = total * bracket("q", k, base=2)
    return total


def eq2_series(x: GradedMatrix) -> GradedMatrix:
    """The base-q^2 exponential of a nilpotent matrix argument."""
    return nil_series(x, lambda n: q2_factorial(n).reciprocal())


@spin_cache
def m_matrix(j) -> GradedMatrix:
    """The contraction bridge on the spin-j module."""
    rep = q_rep(j)
    e2 = rep.matrix("e") @ rep.matrix("e")
    return eq2_series(e2.scale(eta()))


@spin_cache
def m_inverse(j) -> GradedMatrix:
    """The inverse of the contraction bridge on the spin-j module."""
    return inverse(m_matrix(j))


@spin_cache
def bridge_valuations(j) -> tuple:
    """The exact valuations at p = 1 of the entries of M and of M^-1."""
    return tuple(
        {key: valuation(s) for key, s in m.entries.items()}
        for m in (m_matrix(j), m_inverse(j))
    )


def q_cartan_power(j, alpha) -> GradedMatrix:
    """Diagonal matrix of q^{alpha h}: entry p^{4 alpha m} at weight m."""
    j = as_half(j)
    alpha = as_half(alpha)
    parity = rep_parity(j)
    entries = {}
    for k in range(len(parity)):
        tm = weight_twice(j, k)  # 2m
        entries[(k, k)] = p_power(HalfInt.from_twice(alpha.twice * tm))
    return GradedMatrix(parity, entries)


@spin_cache
def script_t(j, alpha) -> GradedMatrix:
    """The shifted-exponential quotient E(eta e^2)^-1 E(q^{2 alpha} eta e^2)."""
    e = q_rep(j).matrix("e")
    shift = p_power(alpha * 2)  # q^{2 alpha}
    return m_inverse(j) @ eq2_series((e @ e).scale(eta() * shift))


@spin_cache
def conjugated_cartan(j, alpha) -> GradedMatrix:
    """The conjugated Cartan exponential M^-1 q^{alpha h} M, in its
    quotient form script_t(j, alpha) q^{alpha h}."""
    return script_t(j, alpha) @ q_cartan_power(j, alpha)


class ContractionResult:
    """Contracted R-matrix plus the cancellation bookkeeping."""

    __slots__ = ("j1", "j2", "source", "matrix", "log")

    def __init__(self, j1, j2, source, matrix, log=()):
        self.j1 = j1
        self.j2 = j2
        self.source = source
        self.matrix = matrix
        self.log = tuple(log)


# The largest (4 j1 + 1)(4 j2 + 1) that ``contract`` accepts, that of the
# pair (3, 3), which takes about 2.9 s on 2 cores; (5/2, 5/2), at 121,
# takes about 1.2 s and (2, 2) 0.27 s, so the cost grows 2.5 to 4.3 times
# per half-spin step.
MAX_CONTRACT_DIM = 169

# The largest module dimension 4 j + 1 of either spin, that of j = 5:
# inverting the bridge M by Gauss-Jordan grows steeply with one spin
# alone, so (1/2, 5) takes about 1.9 s, (1/2, 6) 4.4 s, and (1/2, 8),
# inside ``MAX_CONTRACT_DIM``, ran past 60 s.
MAX_CONTRACT_SPIN_DIM = 21


def contract(j1, j2, source: str = "universal", log_cancellation: bool = False):
    """Contract the standard R-matrix at spins (j1, j2).

    ``source`` chooses between conjugating the universal R-matrix and the
    closed three-block form, the L-operator words evaluated on the
    Jordanian generators (the latter only exists for j1 = 1/2).  With
    ``log_cancellation`` the result records, per entry, the worst pole
    order that appeared among the summands before cancellation.  Pairs
    whose product dimension exceeds ``MAX_CONTRACT_DIM``, or with a spin
    whose module dimension exceeds ``MAX_CONTRACT_SPIN_DIM``, raise
    ``ValueError`` at once.
    """
    j1, j2 = as_half(j1), as_half(j2)
    refuse_oversized((j1, j2), MAX_CONTRACT_DIM)
    for j in (j1, j2):
        refuse_oversized((j,), MAX_CONTRACT_SPIN_DIM)
    if source == "half-j-formula":
        if j1 != HalfInt.from_twice(1):
            raise ValueError("the closed block form needs j1 = 1/2")
        matrix = _assemble_blocks(l_operator_words(), r2_generators(j2))
        return ContractionResult(j1, j2, source, matrix)
    if source != "universal":
        raise ValueError(f"unknown contraction source {source!r}")

    rq = universal_Rq(j1, j2)
    vr = {key: valuation(s) for key, s in rq.entries.items()}
    (vm1, vi1), (vm2, vi2) = bridge_valuations(j1), bridge_valuations(j2)
    # Valuations add exactly.  With col_i[k] the lowest valuation in
    # column k of M^-1 and row_m[l] that in row l of M, the t^0
    # coefficient of M^-1 (R_q M) is exact once R_q[k, l] is known below
    # t^(1 - col_i[k] - row_m[l]), M[l, j] below
    # t^max_k(1 - col_i[k] - v(R_q[k, l])) and M^-1[i, k] below
    # t^(1 - min_l(v(R_q[k, l]) + row_m[l])).  A bound that fell short
    # would raise PrecisionShortfall, never give a wrong limit.
    col_i = _kron_lowest(_lowest(vi1, 1), _lowest(vi2, 1))
    row_m = _kron_lowest(_lowest(vm1, 0), _lowest(vm2, 0))
    need_m, low_r = {}, {}
    for (k, l), v in vr.items():
        n, w = 1 - col_i[k] - v, v + row_m[l]
        need_m[l] = max(need_m.get(l, n), n)
        low_r[k] = min(low_r.get(k, w), w)
    need_i = {k: 1 - w for k, w in low_r.items()}
    series = GradedMatrix(rq.parity, {
        (k, l): Laurent.from_scalar(s, 1 - col_i[k] - row_m[l])
        for (k, l), s in rq.entries.items()
    })
    right = series @ _kron_series(
        (m_matrix(j1), m_matrix(j2)), (vm1, vm2), need_m, 0
    )
    left = _kron_series((m_inverse(j1), m_inverse(j2)), (vi1, vi2), need_i, 1)

    log = []
    if log_cancellation:
        # valuations add, so a summand's pole order is -(v(left) + v(right))
        cols = {}
        for (k, jj), val in right.entries.items():
            cols.setdefault(k, []).append((jj, val.val))
        worst = {}
        for (i, k), lv in left.entries.items():
            for jj, rv in cols.get(k, ()):
                order = -(lv.val + rv)
                if order > worst.get((i, jj), 0):
                    worst[(i, jj)] = order
        log = [(i, jj, order) for (i, jj), order in sorted(worst.items())]

    contracted = (left @ right).map_entries(Laurent.limit)
    return ContractionResult(j1, j2, "universal", contracted, log)


def _lowest(vals: dict, axis: int) -> dict:
    """The lowest valuation in each row (axis 0) or column (axis 1)."""
    out = {}
    for key, v in vals.items():
        i = key[axis]
        out[i] = min(out.get(i, v), v)
    return out


def _kron_lowest(low1: dict, low2: dict) -> dict:
    """Each index of the Kronecker product's rows or columns against the
    sum of its legs' lowest valuations."""
    d2 = len(low2)
    return {a * d2 + b: x + y for a, x in low1.items() for b, y in low2.items()}


def _kron_series(legs, vals, need: dict, axis: int) -> GradedMatrix:
    """graded_kron of the two even legs on series, each entry known below
    t^need[n] for n its row (axis 0) or column (axis 1).

    Each leg entry is expanded once, as far as its most demanding partner
    needs, and each product is then cut to its own precision.
    """
    d2 = legs[1].dim
    precs = ({}, {})
    for k1, x in vals[0].items():
        for k2, y in vals[1].items():
            n = need[k1[axis] * d2 + k2[axis]]
            precs[0][k1] = max(precs[0].get(k1, n - y), n - y)
            precs[1][k2] = max(precs[1].get(k2, n - x), n - x)
    m1, m2 = (
        GradedMatrix(m.parity, {
            key: Laurent.from_scalar(s, prec[key]) for key, s in m.entries.items()
        })
        for m, prec in zip(legs, precs)
    )
    big = graded_kron(m1, m2, b_op_parity=0)
    return GradedMatrix(big.parity, {
        key: x.truncate(need[key[axis]]) for key, x in big.entries.items()
    })


# -- classical-side closed forms ---------------------------------------------


def tilde_t_routes(j) -> dict:
    """The Jordanian group-like element, by closed form (the ``T`` of
    ``reps.tilde_t_powers``) and by limit."""
    j = as_half(j)
    closed = tilde_t_powers(j)[0]
    limited = conjugated_cartan(j, 1).map_entries(Scalar.limit_p_to_1)
    return {"closed": closed, "limit": limited}


def tilde_t(j) -> GradedMatrix:
    routes = tilde_t_routes(j)
    if routes["closed"] != routes["limit"]:
        raise Inconsistency("group-like closed form disagrees with the limit")
    return routes["closed"]


# -- the L-operator and its Hopf behaviour ------------------------------------


def l_operator_words():
    """Upper-triangular 3x3 table of Jordanian-letter expressions."""
    zero = TE(1, {})
    one = TE.unit(1)
    quarter = HPARAM * rational(1, 4)
    return [
        [
            TE.word(("T",)),
            TE.word(("Thalf", "E")).scale(HPARAM),
            -TE.word(("H",)).scale(HPARAM)
            + (TE.word(("T",)) - TE.word(("Tinv",))).scale(quarter),
        ],
        [zero, one, -TE.word(("Tinvhalf", "E")).scale(HPARAM)],
        [zero, zero, TE.word(("Tinv",))],
    ]


def l_inverse_words():
    zero = TE(1, {})
    one = TE.unit(1)
    quarter = HPARAM * rational(1, 4)
    return [
        [
            TE.word(("Tinv",)),
            -TE.word(("Tinvhalf", "E")).scale(HPARAM),
            TE.word(("H",)).scale(HPARAM)
            + (TE.word(("T",)) - TE.word(("Tinv",))).scale(quarter),
        ],
        [zero, one, TE.word(("Thalf", "E")).scale(HPARAM)],
        [zero, zero, TE.word(("T",))],
    ]


def _assemble_blocks(words, rep) -> GradedMatrix:
    return block_matrix((0, 1, 0), [[w.evaluate([rep]) for w in row] for row in words])


def L_operator(j) -> GradedMatrix:
    """The contracted R-matrix at (1/2, j), assembled from Jordanian letters.

    Also asserts agreement with the universal-source contraction, which is
    the fundamental exchange-algebra consistency statement.
    """
    half = HalfInt.from_twice(1)
    ell = contract(half, j, source="half-j-formula").matrix
    contracted = contract(half, j).matrix
    if ell != contracted:
        raise Inconsistency("L-operator disagrees with the contracted R-matrix")
    return ell


# The largest dimension 9 (4 j + 1) of the (1/2, 1/2, j) product that
# ``rll_check`` accepts, that of j = 5, which takes about 2 s on 2 cores;
# j = 4 takes 0.4 s, and j = 11/2 and 6 take 3.8 and 7.3 s.
MAX_RLL_DIM = 189


def rll_check(j) -> VerificationReport:
    """Exchange relation R L1 L2 = L2 L1 R on the (1/2, 1/2, j) product.

    Spins whose product dimension exceeds ``MAX_RLL_DIM`` raise
    ``ValueError`` at once."""
    j = as_half(j)
    half = HalfInt.from_twice(1)
    refuse_oversized((half, half, j), MAX_RLL_DIM)
    r = contract(half, half).matrix
    ell = L_operator(j)
    parities = (rep_parity(half), rep_parity(half), rep_parity(j))
    factors = [(r, (0, 1)), (ell, (0, 2)), (ell, (1, 2))]
    diff = product_difference(factors, (0, 1, 2), (2, 1, 0), parities)
    fails = matrix_residuals("RLL", diff)
    return VerificationReport("rll", {"j": j}, fails)


def frt_hopf_check(j1, j2) -> VerificationReport:
    """Coproduct, counit and antipode of L against the matrix Hopf rules.

    Entrywise: Delta(L[a][c]) must equal sum_b L[a][b] (x) L[b][c]; the
    counit of L must be the identity table; the antipode of L must be the
    closed-form inverse, entry by entry.
    """
    j1, j2 = as_half(j1), as_half(j2)
    alg = r2_algebra()
    rep1, rep2 = r2_generators(j1), r2_generators(j2)
    words = l_operator_words()
    inv_words = l_inverse_words()
    fails = []
    for a in range(3):
        for c in range(3):
            lhs = words[a][c].coproduct(0, alg.delta)
            rhs = TE(2, {})
            for b in range(3):
                rhs = rhs + tensor_product(words[a][b], words[b][c])
            diff = (lhs - rhs).evaluate([rep1, rep2])
            fails += matrix_residuals(f"coproduct:L[{a}][{c}]", diff)
    for a in range(3):
        for c in range(3):
            got = words[a][c].counit(0, alg.eps).terms.get((), ZERO)
            want = ONE if a == c else ZERO
            if got != want:
                fails.append(
                    (f"counit:L[{a}][{c}]", (0, 0), scalar_to_string(got - want))
                )
    for a in range(3):
        for c in range(3):
            lhs = words[a][c].antipode(0, alg.smap).evaluate([rep1])
            rhs = inv_words[a][c].evaluate([rep1])
            fails += matrix_residuals(f"antipode:L[{a}][{c}]", lhs - rhs)
    return VerificationReport("frt-hopf", {"j1": j1, "j2": j2}, fails)


# -- operator identities of the standard algebra -------------------------------


# The largest module dimension 4 j + 1 that ``identity_check`` accepts,
# that of j = 3: ``verify --suite identities --order 3`` takes 3.4 s there
# on 2 cores, and 0.5, 1.1 and 9.5 s at j = 2, 5/2 and 7/2.
MAX_IDENTITY_DIM = 13


def identity_check(j, n: int) -> VerificationReport:
    """Reordering identities for f e^{2n} and f^2 e^{2n}, plus the
    conjugation rules of the shifted-exponential quotients and the dual
    construction of the Jordanian group-like element.  The part that does
    not depend on n is computed once per spin.

    A spin whose module dimension exceeds ``MAX_IDENTITY_DIM`` raises
    ``ValueError`` before any work."""
    refuse_oversized((j,), MAX_IDENTITY_DIM)
    j = as_half(j)
    rep = q_rep(j)
    e, f = rep.matrix("e"), rep.matrix("f")
    t, tinv = rep.matrix("t"), rep.matrix("tinv")
    fails = []

    q = P**2
    qp1 = q + ONE
    omega = q - q.reciprocal()
    c_plus = bracket("curly", n, base=2)
    c_minus = bracket("curly", n, base=-2)
    lhs1 = f @ e ** (2 * n)
    rhs1 = (
        e ** (2 * n) @ f
        - (e ** (2 * n - 1) @ t).scale(q / qp1 * c_plus)
        - (e ** (2 * n - 1) @ tinv).scale(c_minus / qp1)
    )
    fails += matrix_residuals(f"f.e^{2 * n}", lhs1 - rhs1)

    ratio = (q - ONE) / qp1
    c4_plus = bracket("curly", n, base=4)
    c4_minus = bracket("curly", n, base=-4)
    cp_prev = bracket("curly", n - 1, base=2)
    cm_prev = bracket("curly", n - 1, base=-2)
    two_plus = bracket("curly", 2, base=2)
    two_minus = bracket("curly", 2, base=-2)
    lhs2 = f @ f @ e ** (2 * n)
    rhs2 = (
        e ** (2 * n) @ f @ f
        + (e ** (2 * n - 1) @ t @ f).scale(q * ratio * c_plus)
        - (e ** (2 * n - 1) @ tinv @ f).scale(ratio * c_minus / q)
        + (e ** (2 * n - 2) @ t @ t).scale(
            (q / qp1)
            * (c4_plus / omega - (q**2) * ratio * cp_prev * c_plus / two_plus)
        )
        - (e ** (2 * n - 2) @ tinv @ tinv).scale(
            (ONE / qp1)
            * (c4_minus / omega - ratio * cm_prev * c_minus / (two_minus * q**2))
        )
        - (e ** (2 * n - 2)).scale(
            (q / qp1**3) * (q * c_plus + c_minus)
        )
    )
    fails += matrix_residuals(f"f^2.e^{2 * n}", lhs2 - rhs2)
    fails += _spin_identity_failures(j)
    return VerificationReport("identities", {"j": j, "n": n}, fails)


@spin_cache
def _spin_identity_failures(j) -> tuple:
    """The failures of the identities of ``identity_check`` that do not
    depend on n: the bridge conjugation and additivity rules, the shift
    identity, the quotient difference and the tilde blocks."""
    fails = []
    half = HalfInt.from_twice(1)
    alphas = [HalfInt(1), HalfInt(-1), half, -half]
    big_m = m_matrix(j)
    big_minv = m_inverse(j)
    for alpha in alphas:
        lhs = big_minv @ q_cartan_power(j, alpha) @ big_m
        rhs = conjugated_cartan(j, alpha)
        fails += matrix_residuals(f"conjugation:alpha={alpha}", lhs - rhs)
    for alpha in alphas:
        for beta in alphas:
            lhs = conjugated_cartan(j, alpha + beta)
            rhs = conjugated_cartan(j, alpha) @ conjugated_cartan(j, beta)
            fails += matrix_residuals(
                f"additivity:alpha={alpha},beta={beta}", lhs - rhs
            )

    # Shift identity of the base-q^2 exponential on the nilpotent argument.
    e = q_rep(j).matrix("e")
    e2 = e @ e
    arg = e2.scale(eta())
    lhs = eq2_series(arg.scale(p_power(HalfInt(2)))) - eq2_series(
        arg.scale(p_power(HalfInt(-2)))
    )
    rhs = (arg @ eq2_series(arg)).scale(p_power(HalfInt(2)) - p_power(HalfInt(-2)))
    fails += matrix_residuals("shift-identity", lhs - rhs)

    lhs = script_t(j, 1) - script_t(j, -1)
    rhs = e2.scale(eta() * (p_power(HalfInt(2)) - p_power(HalfInt(-2))))
    fails += matrix_residuals("quotient-difference", lhs - rhs)

    # Classical-side group-like element: closed form against the limit,
    # the defining difference relation, and the square root of its half.
    routes = tilde_t_routes(j)
    fails += matrix_residuals("tilde-closed-vs-limit", routes["closed"] - routes["limit"])
    # e has the same matrix as the classical e, so e2 is the classical e^2
    big_t, big_tinv, thalf = tilde_t_powers(j)
    fails += matrix_residuals(
        "tilde-difference", big_t - big_tinv - e2.scale(HPARAM + HPARAM)
    )
    fails += matrix_residuals(
        "tilde-inverse", big_t @ big_tinv - GradedMatrix.identity(big_t.parity)
    )
    half_limit = conjugated_cartan(j, half).map_entries(Scalar.limit_p_to_1)
    fails += matrix_residuals("tilde-half-power", thalf - half_limit)
    return tuple(fails)
