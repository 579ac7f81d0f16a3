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
in :func:`expression_residuals`, which the FRT rules of
:mod:`ospq.contraction` share, through :func:`ospq.graded.evaluate_all`:
on int tables at h = 1, lifted by the grading, when every table entry
and coefficient is a p-free monomial of its degree (the Jordanian
algebras), on ``Scalar``s otherwise.  Both routes give the same
residuals.

Two suites lean on the closure relations of the group-like family (T
Tinv = 1, Thalf^2 = T, Thalf Tinvhalf = 1): on a table where they hold,
every word has the matrix of its group-like normal form
(:func:`normal_word`).  Coassociativity is first offered a certificate:
when every coassociator has no terms in that normal form and the closure
relations hold on all three tables, its residuals are empty without any
evaluation.  The coproduct homomorphism is evaluated in that normal form,
which has fewer words, when the closure relations hold on both tables,
and as written otherwise.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from types import MappingProxyType

from .graded import evaluate_all
from .report import VerificationReport, matrix_residuals
from .reps import r1_generators, r2_generators, refuse_oversized
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
GROUP_LIKE = {"T": "Tinv", "Tinv": "T", "Thalf": "Tinvhalf", "Tinvhalf": "Thalf"}
# The power of Thalf that each group-like letter is on a table where the
# closure relations hold.
_THALF_POWER = {"T": 2, "Tinv": -2, "Thalf": 1, "Tinvhalf": -1}


def _closure() -> list:
    """The three relations that close the group-like family of a
    Jordanian algebra.  On a table where they hold, T Tinv = 1 makes T
    invertible with inverse Tinv, Thalf Tinvhalf = 1 makes Thalf
    invertible with inverse Tinvhalf, and Thalf^2 = T: every letter of the
    family is the power ``_THALF_POWER`` of one invertible Thalf."""
    one = TE.unit(1)
    return [
        ("T*Tinv", W("T", "Tinv") - one),
        ("Thalf^2", W("Thalf", "Thalf") - W("T")),
        ("Thalf*Tinvhalf", W("Thalf", "Tinvhalf") - one),
    ]


def merged_word(word) -> tuple:
    """The word with each run of adjacent group-like letters replaced by
    its total power of Thalf, an int, and a run of power 0 dropped;
    nothing is reordered.  On a table where the closure relations hold
    (:func:`_closure`), a word and its merged form, in which n stands for
    Thalf^n, have the same matrix."""
    out = []
    for name in word:
        power = _THALF_POWER.get(name)
        if power is None:
            out.append(name)
        elif out and isinstance(out[-1], int):
            out[-1] += power
        else:
            out.append(power)
    return tuple(x for x in out if x != 0)


def normal_word(word) -> tuple:
    """The word in group-like normal form: each run of adjacent
    group-like letters, of total power n of Thalf (:func:`merged_word`),
    written back as T^k for n = 2k and T^k Thalf for n = 2k + 1, as
    Tinv^k and Tinv^k Tinvhalf for n = -2k and -(2k + 1), and dropped
    for n = 0.  On a table where the closure relations hold, a word and
    its normal form have the same matrix."""
    out = []
    for item in merged_word(word):
        if isinstance(item, int):
            whole, half = ("T", "Thalf") if item > 0 else ("Tinv", "Tinvhalf")
            k, odd = divmod(abs(item), 2)
            out += [whole] * k + [half] * odd
        else:
            out.append(item)
    return tuple(out)


def _normal_form(expr: TE) -> TE:
    """The expression with every word in group-like normal form
    (:func:`normal_word`), equal terms summed."""
    acc = {}
    for key, coeff in expr.terms.items():
        normal = tuple(normal_word(word) for word in key)
        acc[normal] = acc[normal] + coeff if normal in acc else coeff
    return TE(expr.nlegs, acc)


def _jordanian(name, relations, delta, smap) -> HopfAlgebra:
    """One Jordanian algebra, from its own relations and its own coproducts
    and antipodes of H, F and Y.

    The two Jordanian algebras share the rest: the letters and the counit,
    the coproduct and antipode of E, X and the group-like T family, and
    the three relations that close that family, which follow each
    algebra's own relations."""
    shared_delta = {
        "E": TE.pure((("E",), ("Tinvhalf",))) + TE.pure((("Thalf",), ("E",))),
        "X": _primitive("X"),
        **{t: _group_like(t) for t in GROUP_LIKE},
    }
    shared_smap = {
        "E": -W("E"),
        "X": -W("X"),
        **{t: W(inv) for t, inv in GROUP_LIKE.items()},
    }
    delta = {**shared_delta, **delta}
    smap = {**shared_smap, **smap}
    zero = rational(0)
    return HopfAlgebra(
        name,
        _LETTERS,
        [*relations, *_closure()],
        {letter: delta[letter] for letter in _LETTERS},
        {letter: smap[letter] for letter in _LETTERS},
        {letter: ONE if letter in GROUP_LIKE else zero for letter in _LETTERS},
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


def expression_residuals(labelled, reps) -> list:
    """The failures of (label, expression) pairs that must vanish on ``reps``."""
    mats = evaluate_all([expr for _, expr in labelled], reps)
    return [x for (label, _), m in zip(labelled, mats) for x in matrix_residuals(label, m)]


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
    return expression_residuals(algebra.relations, [rep])


def _normal_coproduct_relations(algebra: HopfAlgebra):
    for label, expr in _expressions(algebra, _coproduct_relations):
        yield label, _normal_form(expr)


@lru_cache(maxsize=SUITE_CACHE_SIZE)
def _closure_labels(algebra: HopfAlgebra) -> tuple:
    """The labels of the closure relations (:func:`_closure`) when the
    algebra has all three of them, else ()."""
    closure = _closure()
    if all(relation in algebra.relations for relation in closure):
        return tuple(label for label, _ in closure)
    return ()


@_suite_cache
def delta_homomorphy_residuals(algebra: HopfAlgebra, rep1, rep2) -> list:
    """The residuals of Delta(rel) = 0 for each relation.  When the
    algebra has the closure relations and both tables pass them, each
    Delta(rel) is evaluated in group-like normal form
    (:func:`_normal_form`), which has the same matrix there and fewer
    words; otherwise as written."""
    closure = _closure_labels(algebra)
    build = _coproduct_relations
    if closure and all(_relations_hold(algebra, rep, closure) for rep in (rep1, rep2)):
        build = _normal_coproduct_relations
    return expression_residuals(_expressions(algebra, build), [rep1, rep2])


@lru_cache(maxsize=SUITE_CACHE_SIZE)
def _coassociativity_certificate(algebra: HopfAlgebra):
    """The labels of the relations whose holding on every leg makes each
    coassociator of the algebra vanish, or None when there is no such
    certificate.  No relation is needed when every coassociator has no
    terms.  The closure relations are needed when the algebra has them
    and every coassociator has no terms in group-like normal form
    (:func:`_normal_form`): on tables where they hold, each word has the
    matrix of its normal form, so each coassociator has the zero matrix
    of its normal form (the simplest case of Bergman's diamond lemma)."""
    coassociators = [expr for _, expr in _expressions(algebra, _coassociators)]
    if all(expr.is_zero for expr in coassociators):
        return ()
    closure = _closure_labels(algebra)
    if closure and all(_normal_form(expr).is_zero for expr in coassociators):
        return closure
    return None


def _relations_hold(algebra: HopfAlgebra, rep, labels) -> bool:
    """Whether the relations named in ``labels`` hold on ``rep``, read
    from :func:`relations_residuals`; no relation is evaluated when
    ``labels`` is empty."""
    if not labels:
        return True
    return all(item[0] not in labels for item in relations_residuals(algebra, rep))


@_suite_cache
def coassociativity_residuals(algebra: HopfAlgebra, rep1, rep2, rep3) -> list:
    """The residuals of (Delta (x) id) Delta = (id (x) Delta) Delta on
    each letter.  When the algebra's certificate
    (:func:`_coassociativity_certificate`) holds on all three tables they
    are empty and no matrix is built; otherwise every coassociator is
    evaluated."""
    reps = [rep1, rep2, rep3]
    needed = _coassociativity_certificate(algebra)
    if needed is not None and all(_relations_hold(algebra, rep, needed) for rep in reps):
        return []
    return expression_residuals(_expressions(algebra, _coassociators), reps)


@_suite_cache
def counit_residuals(algebra: HopfAlgebra, rep) -> list:
    return expression_residuals(_expressions(algebra, _counit_differences), [rep])


@_suite_cache
def antipode_residuals(algebra: HopfAlgebra, rep) -> list:
    return expression_residuals(_expressions(algebra, _antipode_differences), [rep])


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


# The largest module dimension 4 j + 1 of any one spin that
# ``r2_hopf_check`` accepts, that of j = 6.  Coassociativity is certified
# without a matrix on the built tables, so the coproduct homomorphism on
# the first two legs sets the cost, decided at h = 1 by the grading
# (``ospq.graded``).  One fresh process per (j, j, j) on 2 cores, the cap
# lifted above j = 5: j = 4 0.61 s (21 MB peak RSS), 5 0.87 s (25 MB),
# 6 1.44 s (34 MB), 7 2.73 s (48 MB), 8 4.85 s (75 MB).  j = 6 costs what
# j = 5 did before the graded route (1.6 to 1.9 s).
MAX_HOPF_R2_SPIN_DIM = 25


def r2_hopf_check(j1, j2, j3) -> VerificationReport:
    """All five suites of the r2 algebra on a triple of spins.  A spin
    whose module dimension exceeds ``MAX_HOPF_R2_SPIN_DIM`` raises
    ``ValueError`` before any table is built."""
    refuse_oversized((j1, j2, j3), spin_cap=MAX_HOPF_R2_SPIN_DIM)
    reps = [r2_generators(j) for j in (j1, j2, j3)]
    fails = hopf_suite_failures(r2_algebra(), reps)
    return VerificationReport(
        "hopf-r2", {"j1": j1, "j2": j2, "j3": j3}, fails
    )


# The largest module dimension 4 j + 1 of any one spin that
# ``r1_hopf_check`` accepts, that of j = 6, set as for r2.  One fresh
# process per (j, j, j) on 2 cores, the cap lifted above j = 5: minimal
# j = 5 1.10 s (27 MB peak RSS), 6 2.23 s (36 MB), 7 4.21 s (52 MB); hdiag
# 1.14, 2.43 and 4.39 s.  j = 6 stays inside what j = 5 cost before the
# graded route (3.3 to 3.8 s).
MAX_R1_HOPF_SPIN_DIM = 25


def r1_hopf_check(j1, j2, j3, family: str = "minimal") -> VerificationReport:
    """All five suites of the r1 algebra on a triple of spins, in one
    dressing family.  A spin whose module dimension exceeds
    ``MAX_R1_HOPF_SPIN_DIM`` raises ``ValueError`` before any table is
    built."""
    refuse_oversized((j1, j2, j3), spin_cap=MAX_R1_HOPF_SPIN_DIM)
    reps = [r1_generators(j, family) for j in (j1, j2, j3)]
    fails = hopf_suite_failures(r1_algebra(), reps)
    return VerificationReport(
        "r1-hopf", {"j1": j1, "j2": j2, "j3": j3, "family": family}, fails
    )


# The largest module dimension 4 j + 1 that ``r1_relations_check``
# accepts, that of j = 28.  With the tables built from series in e^2 and
# the relations decided at h = 1 by the grading, fresh processes on 2
# cores took 0.63, 1.25, 2.02, 3.17 and 4.17 s for the minimal family at
# j = 16, 20, 24, 28 and 32 (31, 41, 52, 71 and 86 MB), and 0.37, 0.85
# and 1.76 s for hdiag at j = 16, 24 and 32 (28 to 74 MB).  The minimal
# family sets the budget: j = 28 costs what j = 16 did before (3.1 to
# 3.2 s).
MAX_R1_RELATIONS_DIM = 113


def r1_relations_check(j, family: str = "minimal") -> VerificationReport:
    """The defining relations on the spin-j table of the family.  A spin
    whose module dimension exceeds ``MAX_R1_RELATIONS_DIM`` raises
    ``ValueError`` before the table is built."""
    refuse_oversized((j,), MAX_R1_RELATIONS_DIM)
    rep = r1_generators(j, family)
    fails = relations_residuals(r1_algebra(), rep)
    return VerificationReport(
        "r1-relations", {"j": j, "family": family}, fails
    )
