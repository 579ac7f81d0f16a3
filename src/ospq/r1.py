"""The Jordanian quantization with a deformed even sector.

On every finite module this Hopf superalgebra is reached from the
classical one by a change of generators only: the module stays the
classical one, the new generator matrices are classical matrices
dressed by rational powers of a unipotent element.  Two dressing
families are implemented.

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
disentanglement identity behind that closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .gmatrix import (
    GradedMatrix,
    graded_kron,
    graded_primitive,
    inverse,
    swap_conjugate,
)
from .halfint import HalfInt
from .hopf import r1_algebra
from .nilfun import nil_exp, nil_log_unit, unit_power
from .report import VerificationReport, matrix_residuals, series_residuals
from .reps import GeneratorTable, classical_rep
from .scalar import H as HPARAM
from .scalar import ONE, Scalar, rational
from .texpr import TensorExpression as TE
from .texpr import tensor_product

FAMILIES = ("minimal", "hdiag")


def x_nilpotency(j) -> int:
    """Smallest k with b+^k = 0 on the spin-j module, namely 2j + 1."""
    return HalfInt(j).twice + 1


def _require_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown dressing family {family!r}")


@lru_cache(maxsize=None)
def r1_generators(j, family: str = "minimal") -> GeneratorTable:
    """Dressed generator matrices on the spin-j module.

    The returned table carries the letters H, E, F, T, Tinv, Thalf,
    Tinvhalf, X and Y.  X is the nilpotent logarithm of T divided by h,
    and Y is solved from the relation that expresses F^2 through Y.
    """
    _require_family(family)
    j = HalfInt(j)
    cl = classical_rep(j)
    e, f, h, bp = cl.matrix("e"), cl.matrix("f"), cl.matrix("h"), cl.matrix("b+")
    iden = GradedMatrix.identity(cl.parity)
    half, quarter = rational(1, 2), rational(1, 4)
    h2 = HPARAM * HPARAM

    if family == "minimal":
        # Unipotent core: every factor is a rational power of it.
        core = iden - bp.scale(HPARAM + HPARAM)
        t = unit_power(core, Fraction(-1, 2))
        tinv = unit_power(core, Fraction(1, 2))
        thalf = unit_power(core, Fraction(-1, 4))
        tinvhalf = unit_power(core, Fraction(1, 4))
        big_e = thalf @ e
        big_h = tinv @ h
        big_f = (
            tinvhalf @ f
            - (bp @ unit_power(core, Fraction(-3, 4)) @ e).scale(h2 * quarter)
            + (tinvhalf @ e @ h).scale(HPARAM * half)
        )
        big_x = nil_log_unit(core).scale(-(HPARAM + HPARAM).reciprocal())
    else:
        # Cartan stays classical; the group-like is a unipotent ratio.
        shear = bp.scale(HPARAM * half)
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
        big_x = nil_log_unit(t).scale(HPARAM.reciprocal())

    tm = t - tinv
    big_y = (
        -(big_f @ big_f)
        + (tm @ big_h @ big_h).scale(HPARAM * rational(1, 8))
        + (tm @ big_e @ big_f).scale(HPARAM * quarter)
        + ((t @ t - tinv @ tinv) @ big_h).scale(HPARAM * rational(3, 16))
        + tm.scale(HPARAM * quarter)
        + (tm @ tm @ tm).scale(HPARAM * rational(9, 128))
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


# ---------------------------------------------------------------------------
# The exponential twist and the R-matrix it cobounds.
# ---------------------------------------------------------------------------


def twist_expression(nmax: int, negate: bool = False) -> TE:
    """exp(+-h TH (x) X) as a two-leg expression, truncated after nmax terms.

    On modules the series terminates on its own because X is nilpotent;
    nmax only has to reach the nilpotency bound of whatever the second
    leg will be evaluated on.
    """
    step = -HPARAM if negate else HPARAM
    out = TE.unit(2)
    coeff = ONE
    for n in range(1, nmax + 1):
        coeff = coeff * step / Scalar.from_int(n)
        out = out + TE.pure((("T", "H") * n, ("X",) * n), coeff)
    return out


def _twist_legs(rep1: GeneratorTable, rep2: GeneratorTable):
    th1 = rep1.matrix("T") @ rep1.matrix("H")
    th2 = rep2.matrix("T") @ rep2.matrix("H")
    return th1, rep1.matrix("X"), th2, rep2.matrix("X")


def twist_matrix(rep1: GeneratorTable, rep2: GeneratorTable) -> GradedMatrix:
    """The twist evaluated on a pair of modules: exp(h TH (x) X)."""
    th1, _, _, x2 = _twist_legs(rep1, rep2)
    return nil_exp(graded_kron(th1, x2, b_op_parity=0).scale(HPARAM))


def universal_Rh_r1(j1, j2, family: str = "minimal") -> GradedMatrix:
    """R-matrix of the quantization on the pair (j1, j2): G21^{-1} G."""
    rep1 = r1_generators(j1, family)
    rep2 = r1_generators(j2, family)
    th1, x1, th2, x2 = _twist_legs(rep1, rep2)
    g = nil_exp(graded_kron(th1, x2, b_op_parity=0).scale(HPARAM))
    g21 = nil_exp(graded_kron(x1, th2, b_op_parity=0).scale(HPARAM))
    return inverse(g21) @ g


def triangularity_check(j1, j2, family: str = "minimal") -> VerificationReport:
    """R21 R = 1 and R intertwines the coproduct with its opposite."""
    j1, j2 = HalfInt(j1), HalfInt(j2)
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
    ginv = inverse(gmat)
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


def cocycle_check(j1, j2, j3, twist: str = "minimal") -> VerificationReport:
    """(G (x) 1) (Delta (x) id)G = (1 (x) G) (id (x) Delta)G on a triple.

    The minimal twist closes exactly; for the hdiag family the identity
    is verified order by order in h, which the series module owns.
    """
    _require_family(twist)
    if twist == "hdiag":
        from .twist import hdiag_cocycle_check

        return hdiag_cocycle_check(j1, j2, j3)
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    reps = [r1_generators(jj, "minimal") for jj in (j1, j2, j3)]
    alg = r1_algebra()
    nmax = x_nilpotency(j2) + x_nilpotency(j3)
    g = twist_expression(nmax)
    lhs = tensor_product(g, TE.unit(1)) * g.coproduct(0, alg.delta)
    rhs = tensor_product(TE.unit(1), g) * g.coproduct(1, alg.delta)
    failures = matrix_residuals("cocycle", (lhs - rhs).evaluate(reps))
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
    rep = r1_generators(j, family)
    alg = r1_algebra()
    if family == "minimal":
        g = twist_expression(x_nilpotency(j))
        return g.antipode(1, alg.smap).mu(0).evaluate([rep])
    from .twist import hdiag_twist_expression

    g = hdiag_twist_expression()
    return g.antipode(1, alg.smap).mu(0).evaluate([rep])


def _transformer_display(rep: GeneratorTable, family: str) -> GradedMatrix:
    iden = rep.identity()
    if family == "minimal":
        th = rep.matrix("T") @ rep.matrix("H")
        drop = iden - rep.matrix("Tinv") @ rep.matrix("Tinv")
        return nil_exp((th @ drop).scale(rational(-1, 2)))
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


def _residuals_maybe_orders(label: str, diff: GradedMatrix, exact: bool, upto: int = 2):
    if exact:
        return matrix_residuals(label, diff)
    return series_residuals(label, diff, upto)


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
