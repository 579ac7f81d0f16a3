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

The bridge M = E_{q^2}(eta e^2), its inverse and the quotients
E(eta e^2)^-1 E(q^{2 alpha} eta e^2) are functions of e^2, built as
series in the shift (:class:`~ospq.nilfun.ShiftSeries`): M^-1 is the
series inverse of M, and no matrix is inverted.  The conjugation rules
of ``identity_check`` are certified on the same series where they
hold.

Everything here is matrix-level and exact.  The contraction expands
R_q, M and M^-1 as truncated Laurent series in t = p - 1
(:mod:`ospq.laurent`) and keeps the t^0 coefficient of the product, so the
poles that cancel are never reduced away as fractions; a genuine pole
raises instead of being approximated.  Each entry is expanded only as far
as that coefficient needs, a bound read from the exact valuations at
p = 1 of the entries it meets.  R_q is read from its factored entries
(:func:`~ospq.qrmatrix.universal_Rq_factors`) alone: each valuation is
the exponent of Phi_1 = p - 1, and each entry is expanded straight from
its factors (:meth:`~ospq.laurent.Laurent.from_qnumber`), never written
as a ``Scalar``.  M and M^-1 are Kronecker products of one bridge per
spin, so each bridge is expanded once, and every entry on one shift
diagonal of a bridge is the same coefficient, expanded once.  The
Kronecker products and the chain M^-1 (R_q M) are formed on packed
t-digits at one width proven by matrix-vector bounds
(:class:`~ospq.packed.SeriesPlan`), each entry cut to its own precision,
and the pole orders of the cancellation log are read from the same
packed valuations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .errors import Inconsistency
from .gmatrix import GradedMatrix, block_matrix, inverse, tensor_parity
from .halfint import HalfInt, as_half, spin_cache
from .hopf import GROUP_LIKE, SUITE_CACHE_SIZE, expression_residuals, r2_algebra
from .laurent import Laurent, valuation
from .nilfun import ShiftSeries, shift_length
from .packed import SeriesPlan
from .qnumber import QNumber
from .qrmatrix import universal_Rq_factors, ybe_check
from .report import VerificationReport, matrix_residuals
from .reps import (
    bracket,
    factored_bracket,
    q_rep,
    r2_generators,
    refuse_oversized,
    rep_parity,
    tilde_t_powers,
    weight_twice,
)
from .scalar import H as HPARAM
from .scalar import ONE, P, Scalar, p_power, rational
from .texpr import TensorExpression as TE
from .texpr import tensor_product


@lru_cache(maxsize=None)
def eta() -> Scalar:
    """The bridge coupling h / (q^2 - 1), with q^2 - 1 factored."""
    return HPARAM * QNumber.p_minus_one(4).reciprocal().to_scalar()


def q2_factorial(n: int) -> Scalar:
    """[1]_{q^2} [2]_{q^2} ... [n]_{q^2}, with the empty product 1, formed
    as a factored q-number and built once per n."""
    return _q2_factorial(n).to_scalar()


@lru_cache(maxsize=None)
def _q2_factorial(n: int) -> QNumber:
    if n < 1:
        return QNumber(1)
    return _q2_factorial(n - 1) * factored_bracket("q", n, base=2)


def eq2_shift_series(c: Scalar, n: int) -> ShiftSeries:
    """E_{q^2}(c x) mod x^n: the k-th coefficient is c^k / [k]_{q^2}!."""
    return ShiftSeries.of(n, lambda k: c**k * q2_factorial(k).reciprocal())


@spin_cache
def m_matrix(j) -> GradedMatrix:
    """The contraction bridge E_{q^2}(eta e^2) on the spin-j module."""
    parity = rep_parity(j)
    return eq2_shift_series(eta(), shift_length(len(parity), 2)).matrix(parity, 2)


@spin_cache
def m_inverse(j) -> GradedMatrix:
    """The inverse of the contraction bridge on the spin-j module: the
    inverse of the series that ``m_matrix(j)`` reads back as.  A bridge
    that is not a series in e^2 is inverted by Gauss-Jordan."""
    m = m_matrix(j)
    series = ShiftSeries.read(m, 2)
    if series is None:
        return inverse(m)
    return series.inverse().matrix(m.parity, 2)


@spin_cache
def bridge_valuations(j) -> tuple:
    """The exact valuations at p = 1 of the entries of M and of M^-1,
    each distinct coefficient read once."""
    out = []
    for m in (m_matrix(j), m_inverse(j)):
        seen = {}
        for s in m.entries.values():
            if id(s) not in seen:
                seen[id(s)] = valuation(s)
        out.append({key: seen[id(s)] for key, s in m.entries.items()})
    return tuple(out)


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
    """The shifted-exponential quotient E(eta e^2)^-1 E(q^{2 alpha} eta e^2),
    a product of series.  An ``m_inverse(j)`` that is not a series in e^2
    raises ``Inconsistency``."""
    minv = m_inverse(j)
    inv = ShiftSeries.read(minv, 2)
    if inv is None:
        raise Inconsistency("the inverse bridge is not a series in e^2")
    shift = eta() * p_power(alpha * 2)  # q^{2 alpha} eta
    return (inv * eq2_shift_series(shift, inv.length)).matrix(minv.parity, 2)


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
# pair (3, 3).  A fresh ``ospq contract --format json`` process on 2 cores
# takes about 0.8 s there (34 MB peak RSS), 0.4 s at (5/2, 5/2), dimension
# 121 (23 MB), and 0.18 s at (2, 2) (18 MB), so the cost grows about two
# times per half-spin step.
MAX_CONTRACT_DIM = 169

# The largest module dimension 4 j + 1 of either spin, that of j = 5.
# The bridge and its inverse are series in e^2, and R_q is expanded from
# its factors, so what grows steeply with one spin alone is the packed
# chain: fresh processes on 2 cores took 0.42, 1.5 and 12.2 s at (1/2, 5),
# (1/2, 6) and (1/2, 8) (18 to 28 MB).
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

    Without ``log_cancellation`` the result is a pure function of the
    spins and the source, so it is built once per (j1, j2, source), the
    spins keyed as HalfInts after the size check, and shared by every
    caller: never mutate it or its matrix.  The cancellation log is built
    afresh on every call.
    """
    j1, j2 = as_half(j1), as_half(j2)
    refuse_oversized((j1, j2), MAX_CONTRACT_DIM, MAX_CONTRACT_SPIN_DIM)
    if log_cancellation:
        return _contract(j1, j2, source, True)
    return _shared_contraction(j1, j2, source)


@lru_cache(maxsize=None)
def _shared_contraction(j1: HalfInt, j2: HalfInt, source: str):
    return _contract(j1, j2, source, False)


def _contract(j1: HalfInt, j2: HalfInt, source: str, log_cancellation: bool):
    if source == "half-j-formula":
        if j1 != HalfInt.from_twice(1):
            raise ValueError("the closed block form needs j1 = 1/2")
        matrix = _assemble_blocks(l_operator_words(), r2_generators(j2))
        return ContractionResult(j1, j2, source, matrix)
    if source != "universal":
        raise ValueError(f"unknown contraction source {source!r}")

    rq = universal_Rq_factors(j1, j2)
    vr = {key: q.valuation() for key, q in rq.items()}
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
    series = GradedMatrix(tensor_parity((rep_parity(j1), rep_parity(j2))), {
        (k, l): Laurent.from_qnumber(q, 1 - col_i[k] - row_m[l])
        for (k, l), q in rq.items()
    })
    chain = SeriesPlan(
        series,
        _bridge_series((m_matrix(j1), m_matrix(j2)), (vm1, vm2), need_m, 0),
        _bridge_series((m_inverse(j1), m_inverse(j2)), (vi1, vi2), need_i, 1),
        need_m,
        need_i,
    ).run()
    log = chain.pole_orders() if log_cancellation else ()
    return ContractionResult(j1, j2, "universal", chain.limit(), log)


# The largest (4 j1 + 1)(4 j2 + 1)(4 j3 + 1) of a Yang-Baxter check on
# contracted R-matrices, that of (5/2, 5/2, 5/2).  Fresh ``verify --suite
# ybe --kind contracted`` processes on 2 cores: (2, 2, 2) took 0.5 s
# (46 MB), (5/2)^3 3.0 s (112 MB) and (3, 3, 3), with the caps lifted,
# 7.3 s (299 MB); the product of the three R-matrices, not the
# contractions, sets the cost.
MAX_CONTRACTED_YBE_DIM = 1331


def refuse_oversized_contracted_triple(spins) -> None:
    """Raise ``ValueError`` unless the triple fits ``MAX_CONTRACTED_YBE_DIM``
    and each of its three pairs fits the caps of :func:`contract`, before
    the first pair is contracted."""
    refuse_oversized(spins, MAX_CONTRACTED_YBE_DIM)
    for pair in combinations(spins, 2):
        refuse_oversized(pair, MAX_CONTRACT_DIM, MAX_CONTRACT_SPIN_DIM)


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


def _bridge_series(legs, vals, need: dict, axis: int) -> tuple:
    """The two even legs of a Kronecker product on series, each entry
    expanded as far as its most demanding partner needs for the product
    to be known below t^need[n], n its row (axis 0) or column (axis 1).

    Every entry on one shift diagonal of a bridge is the same ``Scalar``,
    so each distinct coefficient is expanded once, as far as the most
    demanding of its entries needs, and the entries share that series;
    the packed Kronecker product cuts each of its entries to its need."""
    d2 = legs[1].dim
    precs = ({}, {})
    for k1, x in vals[0].items():
        for k2, y in vals[1].items():
            n = need[k1[axis] * d2 + k2[axis]]
            precs[0][k1] = max(precs[0].get(k1, n - y), n - y)
            precs[1][k2] = max(precs[1].get(k2, n - x), n - x)
    out = []
    for m, prec in zip(legs, precs):
        top, coeffs = {}, {}
        for key, s in m.entries.items():
            coeffs[id(s)] = s
            top[id(s)] = max(top.get(id(s), prec[key]), prec[key])
        series = {i: Laurent.from_scalar(s, top[i]) for i, s in coeffs.items()}
        out.append(
            GradedMatrix(m.parity, {key: series[id(s)] for key, s in m.entries.items()})
        )
    return tuple(out)


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


def _l_words(h, letter) -> list:
    """The upper-triangular 3x3 table of L, with h taken as ``h`` and each
    letter named in ``letter`` read as the letter it maps to."""

    def w(*names):
        return TE.word(letter.get(name, name) for name in names)

    zero, one = TE(1, {}), TE.unit(1)
    return [
        [
            w("T"),
            w("Thalf", "E").scale(h),
            -w("H").scale(h) + (w("T") - w("Tinv")).scale(h * rational(1, 4)),
        ],
        [zero, one, -w("Tinvhalf", "E").scale(h)],
        [zero, zero, w("Tinv")],
    ]


def l_operator_words():
    """Upper-triangular 3x3 table of Jordanian-letter expressions."""
    return _l_words(HPARAM, {})


def l_inverse_words():
    """The closed-form inverse of L: L with h -> -h and each group-like
    letter swapped for its inverse."""
    return _l_words(-HPARAM, GROUP_LIKE)


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
# ``rll_check`` accepts, that of j = 5, the largest spin ``contract``
# takes.  Fresh processes on 2 cores took 0.16, 0.6, 0.65 and 1.1 s at
# j = 4, 5, 11/2 and 6, the last two with the caps lifted (17 to 21 MB).
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
    fails = [("RLL", (i, k), v) for i, k, v in ybe_check(r, ell, ell, parities)]
    return VerificationReport("rll", {"j": j}, fails)


@lru_cache(maxsize=SUITE_CACHE_SIZE)
def frt_rules(alg) -> tuple:
    """The matrix Hopf rules of L in ``alg``, built once per algebra: the
    coproduct rules Delta(L[a][c]) = sum_b L[a][b] (x) L[b][c] on two legs,
    the counit rules eps(L[a][c]) = delta_ac on none and the antipode
    rules S(L[a][c]) = Linv[a][c] on one, each a tuple of (label,
    expression that must vanish)."""
    words, inv = l_operator_words(), l_inverse_words()
    rules = ([], [], [])
    for a, c in product(range(3), repeat=2):
        l_ac, at = words[a][c], f"L[{a}][{c}]"
        rhs = sum((tensor_product(words[a][b], words[b][c]) for b in range(3)), TE(2, {}))
        rules[0].append((f"coproduct:{at}", l_ac.coproduct(0, alg.delta) - rhs))
        delta_ac = TE.unit(0) if a == c else TE(0, {})
        rules[1].append((f"counit:{at}", l_ac.counit(0, alg.eps) - delta_ac))
        rules[2].append((f"antipode:{at}", l_ac.antipode(0, alg.smap) - inv[a][c]))
    return tuple(map(tuple, rules))


# The largest module dimension 4 j + 1 of either spin that
# ``frt_hopf_check`` accepts, that of j = 32, and the largest product
# (4 j1 + 1)(4 j2 + 1), that of (16, 16).  The rules are decided at h = 1
# by the grading.  Fresh processes on 2 cores, the caps lifted, took
# 0.63, 1.07, 2.35 and 3.43 s at (1/2, j) for j = 24, 32, 40 and 48 (24
# to 52 MB): one large spin is cheap, as its table is built from series
# in e^2, and pairs of large spins set the budget: (12, 12), (14, 14),
# (16, 16) and (18, 18) took 0.97, 1.76, 2.9 to 3.7 and 5.12 s (112, 171,
# 283 and 485 MB), and (21/2, 24) and (15/2, 32) 3.27 and 3.73 s (298 and
# 282 MB).  Of the pairs inside both caps, (15/2, 32) and (16, 16) cost
# the most, as (11/2, 24) and (12, 12) did before (3.7 to 5.2 s).
MAX_FRT_HOPF_SPIN_DIM = 129
MAX_FRT_HOPF_DIM = 4225


def frt_hopf_check(j1, j2) -> VerificationReport:
    """L against :func:`frt_rules` of the r2 algebra: the coproduct rules
    on the spin-(j1, j2) tables and the antipode rules on the spin-j1 one.
    A spin whose module dimension exceeds ``MAX_FRT_HOPF_SPIN_DIM``, or a
    pair whose product dimension exceeds ``MAX_FRT_HOPF_DIM``, raises
    ``ValueError`` before any table is built."""
    refuse_oversized((j1, j2), spin_cap=MAX_FRT_HOPF_SPIN_DIM)
    refuse_oversized((j1, j2), MAX_FRT_HOPF_DIM)
    j1, j2 = as_half(j1), as_half(j2)
    coproduct, counit, antipode = frt_rules(r2_algebra())
    rep1 = r2_generators(j1)
    fails = expression_residuals(coproduct, [rep1, r2_generators(j2)])
    fails += expression_residuals(counit, []) + expression_residuals(antipode, [rep1])
    return VerificationReport("frt-hopf", {"j1": j1, "j2": j2}, fails)


# -- operator identities of the standard algebra -------------------------------


# The largest module dimension 4 j + 1 that ``identity_check`` accepts,
# that of j = 3: a fresh ``verify --suite identities --order 3`` process
# on 2 cores takes 1.1 s there, and 0.27, 0.5 and 2.35 s at j = 2, 5/2
# and 7/2 (17 to 19 MB), once the additivity rules are certified.
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


def _conjugation_certified(bridge: ShiftSeries, quotient: GradedMatrix, gamma) -> bool:
    """Whether M^-1 q^{gamma h} M = S q^{gamma h} follows from series
    alone, for the bridge M with M^-1 M = 1 read back as ``bridge`` and S
    the quotient ``script_t(j, gamma)``.

    With q = q^{gamma h},
    M^-1 q M - S q = M^-1 (q M q^-1 - M S) q + (M^-1 M - 1) S q,
    and q M q^-1 multiplies the k-th coefficient m_k of M by q^{2 gamma k},
    the weight drop across S^k.  So the rule holds when S reads back as a
    series s with m_k q^{2 gamma k} = (m s)_k for every k."""
    s = ShiftSeries.read(quotient, 2)
    if s is None:
        return False
    twisted = ShiftSeries(
        c * p_power(gamma * (2 * k)) for k, c in enumerate(bridge.coeffs)
    )
    return twisted == bridge * s


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
    inverts = big_minv @ big_m == GradedMatrix.identity(big_m.parity)
    bridge = ShiftSeries.read(big_m, 2) if inverts else None
    # The conjugation rule at every gamma that is an alpha or an alpha +
    # beta; only the alphas are reported.
    conjugation = {}
    for twice in range(-4, 5):
        gamma = HalfInt.from_twice(twice)
        quotient = script_t(j, gamma)
        if bridge is not None and _conjugation_certified(bridge, quotient, gamma):
            conjugation[gamma] = []
            continue
        lhs = big_minv @ q_cartan_power(j, gamma) @ big_m
        rhs = conjugated_cartan(j, gamma)
        conjugation[gamma] = matrix_residuals(f"conjugation:alpha={gamma}", lhs - rhs)
    for alpha in alphas:
        fails += conjugation[alpha]
    # With M^-1 M = 1, q^{alpha h} q^{beta h} = q^{(alpha + beta) h} and the
    # conjugation rule at all nine gammas, cc(alpha) cc(beta) =
    # M^-1 q^{alpha h} M M^-1 q^{beta h} M = cc(alpha + beta): every
    # additivity residual is zero, and no product is formed.
    certified = (
        not any(conjugation.values())
        and inverts
        and all(
            q_cartan_power(j, alpha) @ q_cartan_power(j, beta)
            == q_cartan_power(j, alpha + beta)
            for alpha in alphas
            for beta in alphas
        )
    )
    if not certified:
        for alpha in alphas:
            for beta in alphas:
                lhs = conjugated_cartan(j, alpha + beta)
                rhs = conjugated_cartan(j, alpha) @ conjugated_cartan(j, beta)
                fails += matrix_residuals(
                    f"additivity:alpha={alpha},beta={beta}", lhs - rhs
                )

    # Shift identity of the base-q^2 exponential on the nilpotent argument
    # x = e^2, as series in x.
    n = shift_length(big_m.dim, 2)
    q2, qm2 = p_power(HalfInt(2)), p_power(HalfInt(-2))
    lhs = eq2_shift_series(eta() * q2, n) - eq2_shift_series(eta() * qm2, n)
    rhs = eq2_shift_series(eta(), n).times_x().scale(eta() * (q2 - qm2))
    fails += matrix_residuals("shift-identity", (lhs - rhs).matrix(big_m.parity, 2))

    e = q_rep(j).matrix("e")
    e2 = e @ e
    lhs = script_t(j, 1) - script_t(j, -1)
    rhs = e2.scale(eta() * (q2 - qm2))
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
