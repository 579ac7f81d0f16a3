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
single exponential twist, and this module verifies the whole package:
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

from .gmatrix import GradedMatrix, graded_kron, graded_primitive, swap_conjugate
from .halfint import HalfInt
from .hopf import r1_algebra
from .nilfun import nil_exp, nil_log_unit
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

# The h-order through which the hdiag checks hold: its twist is known
# only as a series, displayed through second order.
SERIES_DEPTH = 2


# ---------------------------------------------------------------------------
# The exponential twist and the R-matrix it cobounds.
# ---------------------------------------------------------------------------


def twist_expression(nmax: int) -> TE:
    """exp(h TH (x) X) as a two-leg expression, truncated after nmax terms.

    On modules the series terminates on its own because X is nilpotent;
    nmax only has to reach the nilpotency bound of whatever the second
    leg will be evaluated on.
    """
    out = TE.unit(2)
    coeff = ONE
    for n in range(1, nmax + 1):
        coeff = coeff * HPARAM / Scalar.from_int(n)
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


def _th(rep: GeneratorTable) -> GradedMatrix:
    return rep.matrix("T") @ rep.matrix("H")


def _exp_kron(a: GradedMatrix, b: GradedMatrix, step: Scalar) -> GradedMatrix:
    """exp(step a (x) b) for even a and b, one of them nilpotent.  Its
    inverse is the same exponential at -step."""
    return nil_exp(graded_kron(a, b, b_op_parity=0).scale(step))


def twist_matrix(rep1: GeneratorTable, rep2: GeneratorTable) -> GradedMatrix:
    """The twist evaluated on a pair of modules: exp(h TH (x) X)."""
    return _exp_kron(_th(rep1), rep2.matrix("X"), HPARAM)


def universal_Rh_r1(j1, j2, family: str = "minimal") -> GradedMatrix:
    """R-matrix of the quantization on the pair (j1, j2): G21^{-1} G,
    with G21^{-1} = exp(-h X (x) TH)."""
    rep1 = r1_generators(j1, family)
    rep2 = r1_generators(j2, family)
    return _exp_kron(rep1.matrix("X"), _th(rep2), -HPARAM) @ twist_matrix(rep1, rep2)


# The largest (4 j1 + 1)(4 j2 + 1) that ``triangularity_check`` accepts,
# that of the pair (5/2, 5/2), which takes about 1.1 s on 2 cores; (2, 2)
# and (3, 3) take 0.55 and 2.6 s.  An unbalanced pair costs more: the
# slowest inside, (1/2, 19/2), takes 2.6 s, and (1/2, 27/2), at 165, 9 s.
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


def twist_property_check(j1, j2) -> VerificationReport:
    """The minimal-family words undress the coproduct through the twist.

    Three things are verified on the pair of modules: the words evaluate
    to the classical generator matrices, those matrices satisfy the
    classical relations, and conjugating the dressed coproduct of each
    word by the twist yields the primitive classical coproduct.
    """
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
    ginv = _exp_kron(_th(rep1), rep2.matrix("X"), -HPARAM)
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
# ``cocycle_check`` accepts, that of j = 2: the minimal family takes 4.2
# to 5.2 s at (2, 2, 2) on 2 cores, and hdiag 1.0 s.  The minimal twist
# keeps one term per power of X that the last two modules do not kill,
# and the cost about doubles with each half-step of the second or third
# spin, so a product-dimension budget does not track it: (1/2, 5/2, 5/2),
# at 363, takes 10 s, and (1/2, 7/2, 7/2), at 675, ran past 60 s, against
# 0.57 to 0.74 s at (3/2)^3.
MAX_COCYCLE_SPIN_DIM = 9


def cocycle_check(j1, j2, j3, twist: str = "minimal") -> VerificationReport:
    """(G (x) 1) (Delta (x) id)G = (1 (x) G) (id (x) Delta)G on a triple.

    The minimal twist closes exactly; the hdiag series is verified order
    by order in h, through ``SERIES_DEPTH``.  A spin whose module
    dimension exceeds ``MAX_COCYCLE_SPIN_DIM`` raises ``ValueError``
    before any work.
    """
    _require_family(twist)
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    for j in (j1, j2, j3):
        refuse_oversized((j,), MAX_COCYCLE_SPIN_DIM)
    reps = [r1_generators(jj, twist) for jj in (j1, j2, j3)]
    alg = r1_algebra()
    g = _family_twist(twist, x_nilpotency(j2) + x_nilpotency(j3))
    # Each factor is evaluated on its own and the matrices multiplied, so
    # the product of the two expressions is never expanded.
    unit = TE.unit(1)
    lhs = tensor_product(g, unit).evaluate(reps) @ g.coproduct(0, alg.delta).evaluate(reps)
    rhs = tensor_product(unit, g).evaluate(reps) @ g.coproduct(1, alg.delta).evaluate(reps)
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
        return nil_exp((_th(rep) @ drop).scale(rational(-1, 2)))
    x = rep.matrix("X")
    return iden - x.scale(HPARAM) + (x @ x).scale(HPARAM * HPARAM * rational(1, 2))


def antipode_check(j, family: str = "minimal") -> VerificationReport:
    """Transformer both ways, plus the conjugation law for the antipode.

    Route one is the displayed form (a closed exponential for the
    minimal family, a series through second order for hdiag).  Route
    two folds the antipode into the twist.  The conjugation law says
    the transformer carries the dressed antipode of each classical word
    to minus that word.  Everything is exact for the minimal family;
    for hdiag the comparisons hold through second order in h.
    """
    _require_family(family)
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


def disentangle_check(j) -> VerificationReport:
    """mu[exp(half h (x) log core)] equals exp(-h h b+), exactly in h."""
    j = HalfInt(j)
    cl = classical_rep(j)
    h, bp = cl.matrix("h"), cl.matrix("b+")
    iden = GradedMatrix.identity(cl.parity)
    core = iden - bp.scale(HPARAM + HPARAM)
    logc = nil_log_unit(core)
    lhs = GradedMatrix.identity(cl.parity)
    hpow = iden
    lpow = iden
    weight = Fraction(1)
    for k in range(1, cl.dim + 1):
        hpow = hpow @ h
        lpow = lpow @ logc
        if lpow.is_zero:
            break
        weight = weight / (2 * k)
        lhs = lhs + (hpow @ lpow).scale(Scalar.from_fraction(weight))
    rhs = nil_exp((h @ bp).scale(-HPARAM))
    failures = matrix_residuals("disentangle", lhs - rhs)
    return VerificationReport("disentangle", {"j": j}, failures)
