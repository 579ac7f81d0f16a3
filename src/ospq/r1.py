"""The Jordanian quantization with a deformed even sector: its twists and
the checks built on them.

On every finite module this Hopf superalgebra is reached from the
classical one by a change of generators only: the module stays the
classical one, the new generator matrices are classical matrices
dressed by rational powers of a unipotent element.  Two dressing
families are implemented; their tables are built by
``ospq.reps.r1_generators``.

* ``minimal``: every dressing factor is a power of the single
  unipotent matrix ``1 - 2h b+``.  All formulas close exactly, so
  every check in this family runs with no truncation at all.
* ``hdiag``: the dressing keeps the Cartan generator classical.  The
  group-like element becomes a ratio of two unipotents and the inverse
  change of generators is written through hyperbolic functions of the
  nilpotent logarithm, which again terminate on finite modules.

The quantization is triangular.  Its R-matrix is a coboundary of a
single exponential twist, ``twist_expression``, from which G, its
inverse and the R-matrix are all evaluated; this module verifies the
whole package:
the R-matrix identities, the twist's primitivity and cocycle
properties, the antipode transformer in closed form, and the
disentanglement identity behind that closed form.  Both families'
twists are displayed here: the minimal one closes as an exponential,
the hdiag one is a series in h shown through ``SERIES_DEPTH``, and the
cocycle and antipode checks run one body for either, exact for minimal
and order by order for hdiag.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotNilpotent
from .gmatrix import GradedMatrix, graded_kron, graded_primitive, swap_conjugate
from .graded import evaluate_all
from .halfint import HalfInt
from .hopf import r1_algebra
from .nilfun import ShiftSeries, nil_exp, shift_length
from .report import VerificationReport, matrix_residuals, series_residuals
from .reps import (
    GeneratorTable,
    _require_family,
    classical_rep,
    r1_generators,
    refuse_oversized,
    x_nilpotency,
)
from .scalar import H as HPARAM
from .scalar import ONE, Scalar, rational
from .texpr import TensorExpression as TE
from .texpr import tensor_product

# ``graded_kron`` is not used here but stays bound: the benchmark's
# tracer rebinds it in every module that imported it by name, and its
# test pins this module among them.
__all__ = [
    "MAX_ANTIPODE_DIM", "MAX_COCYCLE_SPIN_DIM", "MAX_DISENTANGLE_DIM",
    "MAX_TRIANGULARITY_DIM", "MAX_TWIST_SPIN_DIM", "MAX_YBE_R1_DIM",
    "MAX_YBE_R1_SPIN_DIM", "SERIES_DEPTH", "antipode_check",
    "antipode_transformer", "cocycle_check", "disentangle_check",
    "graded_kron", "hdiag_twist_expression", "inverse_map_words",
    "triangularity_check", "twist_expression", "twist_matrix",
    "twist_property_check", "universal_Rh_r1",
]

# The h-order through which the hdiag checks hold: its twist is known
# only as a series, displayed through second order.
SERIES_DEPTH = 2


# ---------------------------------------------------------------------------
# The exponential twist and the R-matrix it cobounds.
# ---------------------------------------------------------------------------


def twist_expression(nmax: int, step: Scalar = HPARAM) -> TE:
    """exp(step TH (x) X) as a two-leg expression, truncated after nmax terms.

    On modules the series terminates on its own because X is nilpotent;
    nmax only has to reach the highest power of X that is not zero on the
    second leg's module.  At step -h it is the inverse twist.
    """
    out = TE.unit(2)
    coeff = ONE
    for n in range(1, nmax + 1):
        coeff = coeff * step / Scalar.from_int(n)
        out = out + TE.pure((("T", "H") * n, ("X",) * n), coeff)
    return out


def hdiag_twist_expression() -> TE:
    """The displayed hdiag twist series through second order, as a two-leg
    expression in the dressed letters."""
    skew = TE.pure((("H",), ("X",))) - TE.pure((("X",), ("H",)))
    tail = TE.pure((("H",), ("X", "X"))) + TE.pure((("X", "X"), ("H",)))
    return (
        TE.unit(2)
        + skew.scale(HPARAM * rational(1, 2))
        + (skew * skew + tail).scale(HPARAM * HPARAM * rational(1, 8))
    )


def _family_twist(family: str, nmax: int) -> TE:
    """The family's twist: the exponential one, kept to nmax terms, for
    minimal, the displayed series for hdiag."""
    return twist_expression(nmax) if family == "minimal" else hdiag_twist_expression()


def _residuals_maybe_orders(label: str, diff: GradedMatrix, exact: bool):
    if exact:
        return matrix_residuals(label, diff)
    return series_residuals(label, diff, SERIES_DEPTH)


def twist_matrix(
    rep1: GeneratorTable, rep2: GeneratorTable, step: Scalar = HPARAM
) -> GradedMatrix:
    """exp(step TH (x) X) on a pair of modules: the twist at step h, its
    inverse at -h.

    The expression keeps the powers of X below the nilpotency bound n of
    the second module, so ``NotNilpotent`` is raised unless X^n is zero
    there."""
    n = x_nilpotency(rep2.j)
    if not rep2.word_matrix(("X",) * n).is_zero:
        raise NotNilpotent(f"X^{n} is not zero on the spin-{rep2.j} module")
    return twist_expression(n - 1, step).evaluate([rep1, rep2])


def universal_Rh_r1(j1, j2, family: str = "minimal") -> GradedMatrix:
    """R-matrix of the quantization on the pair (j1, j2): G21^{-1} G, with
    G21^{-1} the inverse twist on (j2, j1) conjugated by the swap."""
    rep1 = r1_generators(j1, family)
    rep2 = r1_generators(j2, family)
    g21inv = swap_conjugate(twist_matrix(rep2, rep1, -HPARAM), rep1.parity, rep2.parity)
    return g21inv @ twist_matrix(rep1, rep2)


# The largest (4 j1 + 1)(4 j2 + 1)(4 j3 + 1) of a Yang-Baxter check on r1
# R-matrices, that of (3, 3, 3), and the largest module dimension of any
# one spin there, per family: j = 5 for minimal and j = 4 for hdiag.  A
# large pair costs more than its share of the triple, so both caps hold.
# Fresh ``verify --suite ybe --kind r1`` processes on 2 cores:
#   minimal: (5/2)^3, (3, 3, 3), (4, 4, 4) took 0.63, 1.76, 11.3 s (41, 82,
#     338 MB), and (1/2, 5, 5) 1.20 s (65 MB); past the spin cap
#     (1/2, 6, 6) took 3.1 s (116 MB);
#   hdiag: (5/2)^3, (3, 3, 3), (4, 4, 4) took 0.94, 2.33, 19.4 s (51, 101,
#     433 MB), and (1, 4, 4), (3/2, 4, 4) 1.41, 3.04 s (64, 99 MB); past
#     the spin cap (1/2, 5, 5) and (1/2, 6, 6) took 2.6 and 7.2 s.
MAX_YBE_R1_DIM = 2197
MAX_YBE_R1_SPIN_DIM = {"minimal": 21, "hdiag": 17}


# The largest (4 j1 + 1)(4 j2 + 1) that ``triangularity_check`` accepts,
# that of (5/2, 5/2).  Fresh processes on 2 cores, minimal (hdiag):
# (2, 2), (5/2, 5/2), (3, 3) took 0.39 (0.51), 1.06 (1.39), 2.72 (3.14) s;
# the slowest pair inside, (1/2, 19/2), 2.0 (1.8) s, and (1/2, 27/2), at
# 165, 6.1 (4.3) s.  The check's 19 products, not R, set the cost.
MAX_TRIANGULARITY_DIM = 121


def triangularity_check(j1, j2, family: str = "minimal") -> VerificationReport:
    """R21 R = 1 and R intertwines the coproduct with its opposite.

    Pairs whose product dimension exceeds ``MAX_TRIANGULARITY_DIM`` raise
    ``ValueError`` before any work."""
    j1, j2 = HalfInt(j1), HalfInt(j2)
    refuse_oversized((j1, j2), MAX_TRIANGULARITY_DIM)
    rep1 = r1_generators(j1, family)
    rep2 = r1_generators(j2, family)
    r = universal_Rh_r1(j1, j2, family)
    r21 = swap_conjugate(universal_Rh_r1(j2, j1, family), rep1.parity, rep2.parity)
    iden = GradedMatrix.identity(r.parity)
    failures = matrix_residuals("R21R", r21 @ r - iden)
    alg = r1_algebra()
    for name in alg.letters:
        dl = alg.delta[name]
        straight = dl.evaluate([rep1, rep2])
        opposite = swap_conjugate(dl.evaluate([rep2, rep1]), rep1.parity, rep2.parity)
        failures += matrix_residuals(f"intertwine:{name}", r @ straight - opposite @ r)
    return VerificationReport(
        "triangularity", {"j1": j1, "j2": j2, "family": family}, failures
    )


# ---------------------------------------------------------------------------
# Inverse change of generators: words that evaluate back to the classical
# matrices.
# ---------------------------------------------------------------------------


def inverse_map_words(family: str = "minimal", nilpotency: int | None = None) -> dict:
    """One-leg expressions, per classical letter, in the dressed letters.

    For the hdiag family the reciprocal of cosh needs a terminating
    geometric series, so the nilpotency bound of the target module must
    be supplied.
    """
    _require_family(family)
    half, quarter, eighth = rational(1, 2), rational(1, 4), rational(1, 8)
    if family == "minimal":
        return {
            "e": TE.word(("Tinvhalf", "E")),
            "h": TE.word(("T", "H")),
            "f": (
                TE.word(("Thalf", "F"))
                + (
                    TE.word(("Thalf", "T", "E")) - TE.word(("Thalf", "Tinv", "E"))
                ).scale(HPARAM * eighth)
                - TE.word(("Thalf", "E", "H")).scale(HPARAM * half)
            ),
        }
    if nilpotency is None:
        raise ValueError("the hdiag words need the nilpotency bound of the module")
    cosh_half = (TE.word(("Thalf",)) + TE.word(("Tinvhalf",))).scale(half)
    sinh_half = (TE.word(("Thalf",)) - TE.word(("Tinvhalf",))).scale(half)
    sinh_full = (TE.word(("T",)) - TE.word(("Tinv",))).scale(half)
    # sech as the terminating geometric series in cosh - 1, which starts
    # at degree two in the nilpotent X.
    bump = cosh_half - TE.unit(1)
    sech_half = TE.unit(1)
    term = TE.unit(1)
    coeff = ONE
    for _ in range(max(0, (nilpotency - 1) // 2)):
        term = term * bump
        coeff = -coeff
        sech_half = sech_half + term.scale(coeff)
    return {
        "e": sech_half * TE.word(("E",)),
        "h": TE.word(("H",)),
        "f": (
            cosh_half * TE.word(("F",))
            + (sinh_full * cosh_half * TE.word(("E",))).scale(HPARAM * quarter)
            + (sinh_half * TE.word(("E", "H"))).scale(HPARAM * half)
        ),
    }


# The largest module dimension 4 j + 1 of either spin that the twist suite
# accepts, per family: j = 6 for minimal (``twist_property_check``) and
# j = 7/2 for hdiag (``twist.hdiag_twist_check``).  The cost grows with
# each spin alone, most steeply with the larger, so a product cap would
# not track it.  Fresh ``verify --suite twist`` processes on 2 cores:
#   minimal: (4, 4), (6, 6), (13/2, 13/2), (7, 7), (8, 8) took 0.39, 1.45,
#     1.97, 2.66, 4.45 s (24 to 113 MB); one large spin, (1/2, 8), (1/2, 12),
#     (1/2, 16), took 0.52, 1.45, 3.65 s, and (5/2, 12) 4.1 s;
#   hdiag: (2, 2), (3, 3), (7/2, 7/2), (4, 4) took 0.21, 1.06, 1.60, 4.19 s
#     (18 to 47 MB); (1/2, 5), (1/2, 6) took 0.63, 2.12 s.
MAX_TWIST_SPIN_DIM = {"minimal": 25, "hdiag": 15}


def twist_property_check(j1, j2) -> VerificationReport:
    """The minimal-family words undress the coproduct through the twist.

    Three things are verified on the pair of modules: the words evaluate
    to the classical generator matrices, those matrices satisfy the
    classical relations, and conjugating the dressed coproduct of each
    word by the twist yields the primitive classical coproduct.  A spin
    whose module dimension exceeds ``MAX_TWIST_SPIN_DIM["minimal"]``
    raises ``ValueError`` before any table is built.
    """
    refuse_oversized((j1, j2), spin_cap=MAX_TWIST_SPIN_DIM["minimal"])
    j1, j2 = HalfInt(j1), HalfInt(j2)
    rep1 = r1_generators(j1, "minimal")
    rep2 = r1_generators(j2, "minimal")
    cls1, cls2 = classical_rep(j1), classical_rep(j2)
    words = inverse_map_words("minimal")
    alg = r1_algebra()
    failures = []
    for name, word in words.items():
        for tag, rep, cls in (("left", rep1, cls1), ("right", rep2, cls2)):
            failures += matrix_residuals(
                f"classical-image:{name}:{tag}",
                word.evaluate([rep]) - cls.matrix(name),
            )
    for tag, rep in (("left", rep1), ("right", rep2)):
        ee = words["e"].evaluate([rep])
        ff = words["f"].evaluate([rep])
        hh = words["h"].evaluate([rep])
        failures += matrix_residuals(f"[h,e]=e:{tag}", hh @ ee - ee @ hh - ee)
        failures += matrix_residuals(f"[h,f]=-f:{tag}", hh @ ff - ff @ hh + ff)
        failures += matrix_residuals(f"{{e,f}}=-h:{tag}", ee @ ff + ff @ ee + hh)
    gmat = twist_matrix(rep1, rep2)
    ginv = twist_matrix(rep1, rep2, -HPARAM)
    for name, word in words.items():
        dressed = word.coproduct(0, alg.delta).evaluate([rep1, rep2])
        primitive = graded_primitive(word.evaluate([rep1]), word.evaluate([rep2]))
        failures += matrix_residuals(
            f"primitive:{name}", gmat @ dressed @ ginv - primitive
        )
    return VerificationReport("twist", {"j1": j1, "j2": j2}, failures)


# ---------------------------------------------------------------------------
# Cocycle identity for the twist.
# ---------------------------------------------------------------------------


# The largest module dimension 4 j + 1 of any one spin that
# ``cocycle_check`` accepts, that of j = 5/2.  Its four factors are
# decided at h = 1 by the grading, and the two products are ``Scalar``
# matmuls.  Fresh processes on 2 cores, the cap lifted: minimal (2, 2, 2)
# 0.6 to 0.95 s (46 MB), (5/2)^3 3.2 s (156 MB), (3, 3, 3) 24.7 s
# (766 MB); hdiag (2, 2, 2) 1.0 to 1.2 s (55 MB), (5/2)^3 4.3 to 4.6 s
# (146 MB).  The minimal
# twist keeps one term per power of X that the last two modules do not
# kill, and the cost grows steeply with the second and third spins, so a
# product-dimension budget does not track it: (1/2, 5/2, 5/2) takes
# 1.48 s (103 MB), (1/2, 3, 3) 8.4 s (506 MB) and (1/2, 7/2, 7/2) 44 s
# (2.7 GB).  (5/2)^3 costs what (2, 2, 2) did before (3.7 to 5.2 s).
MAX_COCYCLE_SPIN_DIM = 11


def cocycle_check(j1, j2, j3, twist: str = "minimal") -> VerificationReport:
    """(G (x) 1) (Delta (x) id)G = (1 (x) G) (id (x) Delta)G on a triple.

    The minimal twist closes exactly; the hdiag series is verified order
    by order in h, through ``SERIES_DEPTH``.  A spin whose module
    dimension exceeds ``MAX_COCYCLE_SPIN_DIM`` raises ``ValueError``
    before any work.
    """
    _require_family(twist)
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    refuse_oversized((j1, j2, j3), spin_cap=MAX_COCYCLE_SPIN_DIM)
    reps = [r1_generators(jj, twist) for jj in (j1, j2, j3)]
    alg = r1_algebra()
    g = _family_twist(twist, x_nilpotency(j2) + x_nilpotency(j3))
    # Each factor is evaluated on its own and the matrices multiplied, so
    # the product of the two expressions is never expanded.  The left
    # side's factors are dropped once multiplied, which lowers the peak.
    unit = TE.unit(1)
    g12, delta1, g23, delta2 = evaluate_all([
        tensor_product(g, unit),
        g.coproduct(0, alg.delta),
        tensor_product(unit, g),
        g.coproduct(1, alg.delta),
    ], reps)
    lhs = g12 @ delta1
    del g12, delta1
    rhs = g23 @ delta2
    failures = _residuals_maybe_orders("cocycle", lhs - rhs, twist == "minimal")
    return VerificationReport(
        "cocycle", {"j1": j1, "j2": j2, "j3": j3, "family": twist}, failures
    )


# ---------------------------------------------------------------------------
# Antipode transformer and the disentanglement behind its closed form.
# ---------------------------------------------------------------------------


def antipode_transformer(j, family: str = "minimal") -> GradedMatrix:
    """mu (id (x) S) applied to the twist, evaluated on the spin-j module."""
    _require_family(family)
    j = HalfInt(j)
    g = _family_twist(family, x_nilpotency(j))
    return g.antipode(1, r1_algebra().smap).mu(0).evaluate([r1_generators(j, family)])


def _transformer_display(rep: GeneratorTable, family: str) -> GradedMatrix:
    iden = rep.identity()
    if family == "minimal":
        drop = iden - rep.matrix("Tinv") @ rep.matrix("Tinv")
        return nil_exp((rep.word_matrix(("T", "H")) @ drop).scale(rational(-1, 2)))
    x = rep.matrix("X")
    return iden - x.scale(HPARAM) + (x @ x).scale(HPARAM * HPARAM * rational(1, 2))


# The largest module dimension 4 j + 1 that ``antipode_check`` accepts,
# per family: j = 10 for minimal, j = 13/2 for hdiag.  Fresh processes on
# 2 cores, with the tables built from series in e^2: minimal took 0.49,
# 0.91 and 2.43 s at j = 13/2, 8 and 10 (25, 36 and 60 MB); hdiag took
# 2.42 and 14.7 s at j = 13/2 and 8 (54 and 239 MB) and ran past 60 s at
# j = 10.  The hdiag time is the evaluation of its words, not its table.
MAX_ANTIPODE_DIM = {"minimal": 41, "hdiag": 27}


def antipode_check(j, family: str = "minimal") -> VerificationReport:
    """Transformer both ways, plus the conjugation law for the antipode.

    Route one is the displayed form (a closed exponential for the
    minimal family, a series through second order for hdiag).  Route
    two folds the antipode into the twist.  The conjugation law says
    the transformer carries the dressed antipode of each classical word
    to minus that word.  Everything is exact for the minimal family;
    for hdiag the comparisons hold through second order in h.  A spin
    whose module dimension exceeds the family's ``MAX_ANTIPODE_DIM``
    raises ``ValueError`` before any table is built.
    """
    _require_family(family)
    refuse_oversized((j,), MAX_ANTIPODE_DIM[family])
    j = HalfInt(j)
    rep = r1_generators(j, family)
    alg = r1_algebra()
    built = antipode_transformer(j, family)
    shown = _transformer_display(rep, family)
    exact = family == "minimal"
    failures = _residuals_maybe_orders("transformer", built - shown, exact)
    words = inverse_map_words(
        family, nilpotency=None if family == "minimal" else x_nilpotency(j)
    )
    for name, word in words.items():
        dressed = word.antipode(0, alg.smap).evaluate([rep])
        target = -word.evaluate([rep])
        failures += _residuals_maybe_orders(
            f"conjugation:{name}", built @ dressed - target @ built, exact
        )
    return VerificationReport("antipode", {"j": j, "family": family}, failures)


# The largest module dimension 4 j + 1 that ``disentangle_check``
# accepts, that of j = 40.  With log core and its powers as series in b+,
# fresh processes on 2 cores took 0.40, 1.40, 3.91, 8.87 and 16.2 s at
# j = 20, 30, 40, 50 and 60, with peak RSS growing from 19 to 50 MB.
MAX_DISENTANGLE_DIM = 161


def disentangle_check(j) -> VerificationReport:
    """mu[exp(half h (x) log core)] equals exp(-h h b+), exactly in h.

    A spin whose module dimension exceeds ``MAX_DISENTANGLE_DIM`` raises
    ``ValueError`` before any table is built."""
    refuse_oversized((j,), MAX_DISENTANGLE_DIM)
    j = HalfInt(j)
    cl = classical_rep(j)
    h, bp = cl.matrix("h"), cl.matrix("b+")
    # log core is a series in b+ with no constant term, so its k-th power
    # starts at b+^k and vanishes from k = n on
    n = shift_length(cl.dim, 2)
    logc = ShiftSeries.poly(n, 1, -(HPARAM + HPARAM)).log()
    lhs = hpow = GradedMatrix.identity(cl.parity)
    lpow = ShiftSeries.poly(n, 1)
    weight = Fraction(1)
    for k in range(1, n):
        hpow = hpow @ h
        lpow = lpow * logc
        weight = weight / (2 * k)
        term = hpow @ lpow.matrix(cl.parity, 2)
        lhs = lhs + term.scale(Scalar.from_fraction(weight))
    rhs = nil_exp((h @ bp).scale(-HPARAM))
    failures = matrix_residuals("disentangle", lhs - rhs)
    return VerificationReport("disentangle", {"j": j}, failures)
