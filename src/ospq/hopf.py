"""Hopf-superalgebra data and the five verification suites.

Each algebra is described at the level of letters: a relation list (each
entry an expression that must vanish), a coproduct table, an antipode
table and a counit table.  The five suites check, all at matrix level in
chosen representations:

  1. the defining relations,
  2. that the coproduct kills every relation (homomorphism property),
  3. coassociativity on each generator,
  4. both counit axioms on each generator,
  5. both antipode axioms on each generator.

Everything returns exact residuals; an empty failure list is a pass.
Each suite builds its expressions once per algebra and evaluates them all
through :func:`ospq.packed.evaluate_all`: on integers at h = 2^B with a
proven width when the tables and coefficients have no p (the Jordanian
algebras), on ``Scalar``s otherwise.  Both routes give the same residuals.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from types import MappingProxyType

from .packed import evaluate_all
from .report import VerificationReport, matrix_residuals
from .reps import r1_generators, r2_generators
from .scalar import H as HPARAM
from .scalar import ONE, P, rational
from .texpr import TensorExpression as TE


def W(*names) -> TE:
    return TE.word(names)


def comm(a: TE, b: TE) -> TE:
    return a * b - b * a


def acomm(a: TE, b: TE) -> TE:
    return a * b + b * a


class HopfAlgebra:
    """Letter-level presentation of one Hopf superalgebra.

    Its relations and tables are read-only once built, so the suites may
    cache their residuals by the algebra itself."""

    __slots__ = ("name", "letters", "relations", "delta", "smap", "eps")

    def __init__(self, name, letters, relations, delta, smap, eps):
        self.name = name
        self.letters = tuple(letters)
        self.relations = tuple(relations)
        self.delta = MappingProxyType(dict(delta))
        self.smap = MappingProxyType(dict(smap))
        self.eps = MappingProxyType(dict(eps))


def _group_like(name: str) -> TE:
    return TE.pure(((name,), (name,)))


def _primitive(name: str) -> TE:
    return TE.letter(name, nlegs=2, leg=0) + TE.letter(name, nlegs=2, leg=1)


_LETTERS = ("H", "E", "F", "T", "Tinv", "Thalf", "Tinvhalf", "X", "Y")
# The group-like letters, each with its inverse, which is also its antipode.
_GROUP_LIKE = {"T": "Tinv", "Tinv": "T", "Thalf": "Tinvhalf", "Tinvhalf": "Thalf"}


def _jordanian(name, relations, delta, smap) -> HopfAlgebra:
    """One Jordanian algebra, from its own relations and its own coproducts
    and antipodes of H, F and Y.

    The two Jordanian algebras share the rest: the letters and the counit,
    the coproduct and antipode of E, X and the group-like T family, and
    the three relations that close that family, which follow each
    algebra's own relations."""
    one = TE.unit(1)
    closure = [
        ("T*Tinv", W("T", "Tinv") - one),
        ("Thalf^2", W("Thalf", "Thalf") - W("T")),
        ("Thalf*Tinvhalf", W("Thalf", "Tinvhalf") - one),
    ]
    shared_delta = {
        "E": TE.pure((("E",), ("Tinvhalf",))) + TE.pure((("Thalf",), ("E",))),
        "X": _primitive("X"),
        **{t: _group_like(t) for t in _GROUP_LIKE},
    }
    shared_smap = {
        "E": -W("E"),
        "X": -W("X"),
        **{t: W(inv) for t, inv in _GROUP_LIKE.items()},
    }
    delta = {**shared_delta, **delta}
    smap = {**shared_smap, **smap}
    zero = rational(0)
    return HopfAlgebra(
        name,
        _LETTERS,
        [*relations, *closure],
        {letter: delta[letter] for letter in _LETTERS},
        {letter: smap[letter] for letter in _LETTERS},
        {letter: ONE if letter in _GROUP_LIKE else zero for letter in _LETTERS},
    )


@lru_cache(maxsize=None)
def r2_algebra() -> HopfAlgebra:
    """The first nonstandard quantization: deformed odd-odd anticommutator."""
    one = TE.unit(1)
    H, E, F, Y = W("H"), W("E"), W("F"), W("Y")
    T, Ti = W("T"), W("Tinv")
    tp = T + Ti
    tm = T - Ti
    half, quarter = rational(1, 2), rational(1, 4)
    relations = [
        ("[H,E]", comm(H, E) - (tp * E).scale(half)),
        ("[H,F]", comm(H, F) + (tp * F + F * tp).scale(quarter)),
        ("{E,F}", acomm(E, F) + H),
        ("[H,T]", comm(H, T) - (T * T - one)),
        ("[H,Tinv]", comm(H, Ti) - (Ti * Ti - one)),
        # The F-side correction term carries a plus sign: with Y = -F^2 the
        # whole relation is forced by [H,F], [T,F] and E^2, and that
        # derivation (also checked on every module with 4j+1 >= 5, where the
        # two readings differ by (h/2) F (T - Tinv) E != 0) fixes the sign.
        (
            "[H,Y]",
            comm(H, Y)
            + (tp * Y + Y * tp).scale(half)
            + (E * tm * F - F * tm * E).scale(HPARAM * quarter),
        ),
        ("[T,Y]", comm(T, Y) - (T * H + H * T).scale(HPARAM * half)),
        ("[Tinv,Y]", comm(Ti, Y) + (Ti * H + H * Ti).scale(HPARAM * half)),
        ("E^2", E * E - tm.scale((HPARAM + HPARAM).reciprocal())),
        ("F^2", F * F + Y),
        ("[T,F]", comm(T, F) - (T * E).scale(HPARAM)),
        ("[Tinv,F]", comm(Ti, F) + (Ti * E).scale(HPARAM)),
        ("[Y,E]", comm(Y, E) - (tp * F + F * tp).scale(quarter)),
    ]
    delta = {
        "H": TE.pure((("H",), ("Tinv",)))
        + TE.pure((("T",), ("H",)))
        + TE.pure((("E", "Thalf"), ("E", "Tinvhalf"))).scale(HPARAM),
        "F": TE.pure((("F",), ("Tinvhalf",))) + TE.pure((("Thalf",), ("F",))),
        "Y": TE.pure((("Y",), ("Tinv",)))
        + TE.pure((("T",), ("Y",)))
        + TE.pure((("E", "Thalf"), ("Tinvhalf", "F"))).scale(HPARAM * half)
        + TE.pure((("Thalf", "F"), ("E", "Tinvhalf"))).scale(HPARAM * half),
    }
    smap = {
        "H": -H - (E * E).scale(HPARAM),
        "F": -F + E.scale(HPARAM * half),
        "Y": -Y + H.scale(HPARAM * half) + (E * E).scale(HPARAM * HPARAM * quarter),
    }
    return _jordanian("r2", relations, delta, smap)


@lru_cache(maxsize=None)
def r1_algebra() -> HopfAlgebra:
    """The second nonstandard quantization: deformed even sector."""
    one = TE.unit(1)
    H, E, F, Y = W("H"), W("E"), W("F"), W("Y")
    T, Ti = W("T"), W("Tinv")
    tp = T + Ti
    tm = T - Ti
    t2p = T * T + one
    ti2p = Ti * Ti + one
    t2m = T * T - Ti * Ti
    half, quarter, eighth = rational(1, 2), rational(1, 4), rational(1, 8)
    h2 = HPARAM * HPARAM
    mixed = tm * H + H * tm
    relations = [
        ("[H,E]", comm(H, E) - (tp * E).scale(half)),
        (
            "[H,F]",
            comm(H, F)
            + (tp * F + F * tp).scale(quarter)
            + (mixed * E + E * mixed).scale(HPARAM * eighth),
        ),
        ("{E,F}", acomm(E, F) + (tp * H + H * tp).scale(quarter)),
        ("[H,T]", comm(H, T) - (T * T - one)),
        ("[H,Tinv]", comm(H, Ti) - (Ti * Ti - one)),
        ("[H,Y]", comm(H, Y) + (tp * Y + Y * tp).scale(half)),
        ("[T,Y]", comm(T, Y) - (T * H + H * T).scale(HPARAM * half)),
        ("[Tinv,Y]", comm(Ti, Y) + (Ti * H + H * Ti).scale(HPARAM * half)),
        ("E^2", E * E - tm.scale((HPARAM + HPARAM).reciprocal())),
        ("[Y,E]", comm(Y, E) - F),
        ("[T,F]", comm(T, F) - (t2p * E).scale(HPARAM * half)),
        ("[Tinv,F]", comm(Ti, F) + (ti2p * E).scale(HPARAM * half)),
        (
            "F^2",
            F * F
            + Y
            - (tm * H * H).scale(HPARAM * eighth)
            - (tm * E * F).scale(HPARAM * quarter)
            - (t2m * H).scale(HPARAM * rational(3, 16))
            - tm.scale(HPARAM * quarter)
            - (tm * tm * tm).scale(HPARAM * rational(9, 128)),
        ),
        (
            "[F,Y]",
            comm(F, Y)
            - (tm * F).scale(HPARAM * quarter)
            - (tm * E * Y).scale(HPARAM * half)
            + (E * H * H).scale(h2 * quarter)
            + (tp * E * H).scale(h2 * rational(3, 8))
            + E.scale(h2 * half)
            + (tm * tm * E).scale(h2 * rational(15, 64)),
        ),
    ]
    delta = {
        "H": TE.pure((("H",), ("T",))) + TE.pure((("Tinv",), ("H",))),
        "F": TE.pure((("F",), ("Thalf",)))
        + TE.pure((("Tinvhalf",), ("F",)))
        + (
            TE.pure((("Tinv", "E"), ("Tinvhalf", "H")))
            + TE.pure((("Tinv", "E"), ("H", "Tinvhalf")))
        ).scale(HPARAM * quarter)
        - (
            TE.pure((("Thalf", "H"), ("T", "E")))
            + TE.pure((("H", "Thalf"), ("T", "E")))
        ).scale(HPARAM * quarter),
        "Y": TE.pure((("Y",), ("T",))) + TE.pure((("Tinv",), ("Y",))),
    }
    smap = {
        "H": -H + (E * E).scale(HPARAM + HPARAM),
        "F": -F - (tp * E).scale(HPARAM * half),
        "Y": -Y - H.scale(HPARAM) + (E * E).scale(h2),
    }
    return _jordanian("r1", relations, delta, smap)


@lru_cache(maxsize=None)
def q_algebra() -> HopfAlgebra:
    """The standard quantization, with K = q^{h/2} as a letter."""
    one = TE.unit(1)
    h, e, f = W("h"), W("e"), W("f")
    K, Ki = W("K"), W("Kinv")
    omega = P**2 - P**-2  # q - q^{-1}
    relations = [
        ("[h,e]", comm(h, e) - e),
        ("[h,f]", comm(h, f) + f),
        ("{e,f}", acomm(e, f) + (K * K - Ki * Ki).scale(omega.reciprocal())),
        ("K*Kinv", K * Ki - one),
        ("[h,K]", comm(h, K)),
        ("Ke=pEK", K * e - (e * K).scale(P)),
        ("Kf=f/pK", K * f - (f * K).scale(P.reciprocal())),
    ]
    delta = {
        "h": _primitive("h"),
        "e": TE.pure((("e",), ("Kinv",))) + TE.pure((("K",), ("e",))),
        "f": TE.pure((("f",), ("Kinv",))) + TE.pure((("K",), ("f",))),
        "K": _group_like("K"),
        "Kinv": _group_like("Kinv"),
    }
    smap = {
        "h": -h,
        "e": e.scale(-(P.reciprocal())),
        "f": f.scale(-P),
        "K": Ki,
        "Kinv": K,
    }
    zero = rational(0)
    eps = {"h": zero, "e": zero, "f": zero, "K": ONE, "Kinv": ONE}
    return HopfAlgebra("q", ("h", "e", "f", "K", "Kinv"), relations, delta, smap, eps)


# -- the five suites ---------------------------------------------------------

# Entries kept by each suite's cache: twice the 32 triples of the
# criterion-7 sweep (8 triples for each of r2, r1 in both families and q).
SUITE_CACHE_SIZE = 64


def _suite_cache(suite):
    """Cache a suite's residuals, as a tuple, by its algebra and its legs.

    Each suite depends on nothing else, so a sweep over triples runs each
    single-leg suite once per table and the coproduct homomorphism once
    per ordered pair.  The arguments hash by identity, which is sound
    because neither an algebra nor a generator table's letters are written
    once built.  The cache keeps the ``SUITE_CACHE_SIZE`` most recent entries,
    so tables built on the fly are not kept alive for good.  Each call
    returns a fresh list; ``cache_info`` and ``cache_clear`` are those of
    the underlying cache."""
    cached = lru_cache(maxsize=SUITE_CACHE_SIZE)(lambda *legs: tuple(suite(*legs)))

    @wraps(suite)
    def residuals(*legs) -> list:
        return list(cached(*legs))

    residuals.cache_info = cached.cache_info
    residuals.cache_clear = cached.cache_clear
    return residuals


def _residuals(labelled, reps) -> list:
    """The failures of (label, expression) pairs that must vanish on ``reps``."""
    mats = evaluate_all([expr for _, expr in labelled], reps)
    fails = []
    for (label, _), m in zip(labelled, mats):
        fails += matrix_residuals(label, m)
    return fails


@lru_cache(maxsize=SUITE_CACHE_SIZE)
def _expressions(algebra: HopfAlgebra, build) -> tuple:
    """The labelled expressions of one suite, built once per algebra."""
    return tuple(build(algebra))


def _coproduct_relations(algebra: HopfAlgebra):
    for label, expr in algebra.relations:
        yield label, expr.coproduct(0, algebra.delta)


def _coassociators(algebra: HopfAlgebra):
    for name in algebra.letters:
        d = TE.letter(name).coproduct(0, algebra.delta)
        yield name, d.coproduct(0, algebra.delta) - d.coproduct(1, algebra.delta)


def _counit_differences(algebra: HopfAlgebra):
    for name in algebra.letters:
        x = TE.letter(name)
        d = x.coproduct(0, algebra.delta)
        yield f"left:{name}", d.counit(0, algebra.eps) - x
        yield f"right:{name}", d.counit(1, algebra.eps) - x


def _antipode_differences(algebra: HopfAlgebra):
    for name in algebra.letters:
        d = TE.letter(name).coproduct(0, algebra.delta)
        target = TE.unit(1).scale(algebra.eps[name])
        yield f"left:{name}", d.antipode(0, algebra.smap).mu(0) - target
        yield f"right:{name}", d.antipode(1, algebra.smap).mu(0) - target


@_suite_cache
def relations_residuals(algebra: HopfAlgebra, rep) -> list:
    return _residuals(algebra.relations, [rep])


@_suite_cache
def delta_homomorphy_residuals(algebra: HopfAlgebra, rep1, rep2) -> list:
    return _residuals(_expressions(algebra, _coproduct_relations), [rep1, rep2])


@_suite_cache
def coassociativity_residuals(algebra: HopfAlgebra, rep1, rep2, rep3) -> list:
    return _residuals(_expressions(algebra, _coassociators), [rep1, rep2, rep3])


@_suite_cache
def counit_residuals(algebra: HopfAlgebra, rep) -> list:
    return _residuals(_expressions(algebra, _counit_differences), [rep])


@_suite_cache
def antipode_residuals(algebra: HopfAlgebra, rep) -> list:
    return _residuals(_expressions(algebra, _antipode_differences), [rep])


def hopf_suite_failures(algebra: HopfAlgebra, reps) -> list:
    """Run all five suites over a triple of representations.

    Single-leg suites run on each distinct representation; the coproduct
    homomorphism runs on the first two legs; coassociativity on all three.
    Labels are prefixed with the suite name, and a single-leg suite's
    label names the spin of its table, as in ``relations[j=1/2]``.  When
    two distinct tables of one spin sit in the triple, it also names the
    first leg (counted from 1) that holds the table, as in
    ``relations[j=1/2,leg=2]``.
    """
    rep1, rep2, rep3 = reps
    distinct = []
    for leg, rep in enumerate(reps, start=1):
        if all(rep is not seen for _, seen in distinct):
            distinct.append((leg, rep))
    spins = [rep.j for _, rep in distinct]
    tags = [
        f"j={rep.j},leg={leg}" if spins.count(rep.j) > 1 else f"j={rep.j}"
        for leg, rep in distinct
    ]
    fails = []
    for tag, (_, rep) in zip(tags, distinct):
        for item in relations_residuals(algebra, rep):
            fails.append((f"relations[{tag}]:{item[0]}",) + item[1:])
    for item in delta_homomorphy_residuals(algebra, rep1, rep2):
        fails.append((f"coproduct-homomorphism:{item[0]}",) + item[1:])
    for item in coassociativity_residuals(algebra, rep1, rep2, rep3):
        fails.append((f"coassociativity:{item[0]}",) + item[1:])
    for tag, (_, rep) in zip(tags, distinct):
        for item in counit_residuals(algebra, rep):
            fails.append((f"counit[{tag}]:{item[0]}",) + item[1:])
        for item in antipode_residuals(algebra, rep):
            fails.append((f"antipode[{tag}]:{item[0]}",) + item[1:])
    return fails


def r2_hopf_check(j1, j2, j3) -> VerificationReport:
    reps = [r2_generators(j) for j in (j1, j2, j3)]
    fails = hopf_suite_failures(r2_algebra(), reps)
    return VerificationReport(
        "hopf-r2", {"j1": j1, "j2": j2, "j3": j3}, fails
    )


def r1_hopf_check(j1, j2, j3, family: str = "minimal") -> VerificationReport:
    reps = [r1_generators(j, family) for j in (j1, j2, j3)]
    fails = hopf_suite_failures(r1_algebra(), reps)
    return VerificationReport(
        "r1-hopf", {"j1": j1, "j2": j2, "j3": j3, "family": family}, fails
    )


def r1_relations_check(j, family: str = "minimal") -> VerificationReport:
    rep = r1_generators(j, family)
    fails = relations_residuals(r1_algebra(), rep)
    return VerificationReport(
        "r1-relations", {"j": j, "family": family}, fails
    )
