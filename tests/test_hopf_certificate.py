"""The Hopf suites on the closure relations of the T family.

``coassociativity_residuals`` returns no residuals, and builds no matrix,
when every coassociator vanishes once each run of adjacent group-like
letters is merged into one power of Thalf and every table satisfies the
three closure relations.  ``delta_homomorphy_residuals`` evaluates each
Delta(rel) in group-like normal form (``normal_word``) when both tables
satisfy them.  These tests hold both to the routes they replace, on
tables that pass and fail those relations.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospq import hopf
from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.hopf import (
    coassociativity_residuals,
    delta_homomorphy_residuals,
    merged_word,
    normal_word,
    q_algebra,
    r1_algebra,
    r2_algebra,
    relations_residuals,
)
from ospq.graded import evaluate_all
from ospq.report import matrix_residuals
from ospq.reps import GeneratorTable, q_rep, r1_generators, r2_generators
from ospq.scalar import rational
from ospq.texpr import TensorExpression as TE

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)
SPINS = (HALF, ONEJ)
CLOSURE = ("T*Tinv", "Thalf^2", "Thalf*Tinvhalf")

CASES = {
    "r2": (r2_algebra, r2_generators),
    "r1-minimal": (r1_algebra, lambda j: r1_generators(j, "minimal")),
    "r1-hdiag": (r1_algebra, lambda j: r1_generators(j, "hdiag")),
    "q": (q_algebra, q_rep),
}
JORDANIAN = ("r2", "r1-minimal", "r1-hdiag")


def evaluated_coassociativity(algebra, reps) -> list:
    """The evaluated route: every letter's coassociator built and
    evaluated on the three tables, whatever they satisfy."""
    labelled = []
    for name in algebra.letters:
        d = TE.letter(name).coproduct(0, algebra.delta)
        labelled.append((name, d.coproduct(0, algebra.delta) - d.coproduct(1, algebra.delta)))
    mats = evaluate_all([expr for _, expr in labelled], reps)
    fails = []
    for (label, _), m in zip(labelled, mats):
        fails += matrix_residuals(label, m)
    return fails


def altered(rep, name, change) -> GeneratorTable:
    """A fresh table equal to ``rep`` but for letter ``name``."""
    mats = {letter: rep.matrix(letter) for letter in rep.names()}
    mats[name] = change(mats[name])
    return GeneratorTable(rep.variant, rep.j, rep.parity, mats)


def closure_failures(algebra, rep) -> set:
    return {item[0] for item in relations_residuals(algebra, rep)} & set(CLOSURE)


@pytest.mark.parametrize("case", sorted(CASES))
def test_suite_matches_the_evaluated_route_on_every_triple(case):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    coassociativity_residuals.cache_clear()
    for triple in product(SPINS, repeat=3):
        reps = [rep_of(j) for j in triple]
        assert coassociativity_residuals(algebra, *reps) == evaluated_coassociativity(
            algebra, reps
        ) == []


@pytest.mark.parametrize("case", JORDANIAN)
def test_perturbed_thalf_fails_closure_and_is_evaluated(case):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    bad = altered(rep_of(ONEJ), "Thalf", lambda m: m.scale(rational(2)))
    assert closure_failures(algebra, bad) == {"Thalf^2", "Thalf*Tinvhalf"}
    placements = ([bad, rep_of(HALF), rep_of(ONEJ)], [rep_of(HALF), bad, bad])
    wants = [evaluated_coassociativity(algebra, reps) for reps in placements]
    assert wants[0]
    for reps, want in zip(placements, wants):
        assert coassociativity_residuals(algebra, *reps) == want


@pytest.mark.parametrize("case", JORDANIAN)
def test_negated_y_passes_closure_and_stays_certified(case, monkeypatch):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    bad = altered(rep_of(HALF), "Y", lambda m: -m)
    # Y's relations break, the closure relations hold
    assert relations_residuals(algebra, bad)
    assert closure_failures(algebra, bad) == set()
    reps = [bad, rep_of(ONEJ), bad]
    assert evaluated_coassociativity(algebra, reps) == []
    monkeypatch.setattr(hopf, "evaluate_all", forbidden)
    assert coassociativity_residuals(algebra, *reps) == []


def forbidden(*args):
    raise AssertionError("a matrix was evaluated")


@pytest.mark.parametrize("case", JORDANIAN)
def test_certified_triple_builds_no_matrix(case, monkeypatch):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    reps = [rep_of(j) for j in (ONEJ, HALF, ONEJ)]
    for rep in reps:
        relations_residuals(algebra, rep)
    coassociativity_residuals.cache_clear()
    monkeypatch.setattr(hopf, "evaluate_all", forbidden)
    assert coassociativity_residuals(algebra, *reps) == []


def test_q_coassociators_need_no_relation(monkeypatch):
    # every coassociator of q has no terms, so no table is asked anything
    assert all(expr.is_zero for _, expr in hopf._expressions(q_algebra(), hopf._coassociators))
    coassociativity_residuals.cache_clear()
    monkeypatch.setattr(hopf, "relations_residuals", forbidden)
    monkeypatch.setattr(hopf, "evaluate_all", forbidden)
    assert coassociativity_residuals(q_algebra(), q_rep(HALF), q_rep(ONEJ), q_rep(HALF)) == []


def test_merging_keeps_order_and_drops_power_zero():
    assert merged_word(("T", "Thalf", "E", "Tinv", "T", "F", "Tinvhalf")) == (3, "E", "F", -1)
    assert merged_word(("Thalf", "Tinvhalf")) == ()
    assert merged_word(("E", "Tinv", "Thalf", "Thalf", "E")) == ("E", "E")
    assert merged_word(("H", "X", "Y")) == ("H", "X", "Y")


def merged_matrix(rep, merged) -> GradedMatrix:
    """The matrix of a merged word, each int n read as Thalf^n."""
    m = rep.identity()
    for item in merged:
        if isinstance(item, int):
            letter = "Thalf" if item > 0 else "Tinvhalf"
            for _ in range(abs(item)):
                m = m @ rep.matrix(letter)
        else:
            m = m @ rep.matrix(item)
    return m


TABLES = [
    (case, j) for case in JORDANIAN for j in (HALF, ONEJ, HalfInt.from_twice(3))
]


@given(
    table=st.sampled_from(TABLES),
    word=st.lists(st.sampled_from(hopf._LETTERS), max_size=6).map(tuple),
)
@settings(max_examples=60, deadline=None)
def test_word_matrix_is_that_of_its_merged_form(table, word):
    # on a table that passes the closure relations, a word, its merged form
    # and its normal form have one matrix
    case, j = table
    algebra_of, rep_of = CASES[case]
    rep = rep_of(j)
    assert closure_failures(algebra_of(), rep) == set()
    want = rep.word_matrix(word)
    assert want == merged_matrix(rep, merged_word(word))
    assert rep.word_matrix(normal_word(word)) == want


# -- the coproduct homomorphism in group-like normal form --------------------

NORMAL_SPINS = (HALF, ONEJ, HalfInt.from_twice(3))


def as_written(algebra):
    return hopf._expressions(algebra, hopf._coproduct_relations)


def in_normal_form(algebra):
    return hopf._expressions(algebra, hopf._normal_coproduct_relations)


def scalar_matrices(labelled, reps) -> list:
    return [expr.evaluate(reps) for _, expr in labelled]


def scalar_residuals(labelled, reps) -> list:
    return [
        x
        for (label, _), m in zip(labelled, scalar_matrices(labelled, reps))
        for x in matrix_residuals(label, m)
    ]


def word_coproducts(algebra) -> list:
    """Delta of each word that some relation of the algebra holds."""
    words = sorted({word for _, expr in algebra.relations for (word,) in expr.terms if word})
    return [(" ".join(word), TE.word(word).coproduct(0, algebra.delta)) for word in words]


def spied_builds(monkeypatch) -> list:
    """The suite builders ``hopf._expressions`` is asked for from now on,
    leaving out those that a builder asks for while it runs."""
    builds = []
    depth = [0]
    built = hopf._expressions

    def spy(algebra, build):
        if not depth[0]:
            builds.append(build)
        depth[0] += 1
        try:
            return built(algebra, build)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hopf, "_expressions", spy)
    return builds


def test_normal_words():
    assert normal_word(("T", "Thalf", "E", "Tinv", "T", "F", "Tinvhalf")) == (
        "T", "Thalf", "E", "F", "Tinvhalf",
    )
    assert normal_word(("Thalf", "Thalf", "Thalf", "Thalf", "Thalf")) == ("T", "T", "Thalf")
    assert normal_word(("Tinvhalf", "Tinv", "H", "Tinv", "Tinv")) == (
        "Tinv", "Tinvhalf", "H", "Tinv", "Tinv",
    )
    assert normal_word(("Thalf", "Tinvhalf", "X")) == ("X",)
    assert normal_word(("H", "E", "Y")) == ("H", "E", "Y")


@pytest.mark.parametrize("case", JORDANIAN)
def test_homomorphy_normal_form_has_the_matrices_of_the_written_form(case):
    # every ordered pair of {1/2, 1, 3/2}, compared as full matrices
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    written, normal = as_written(algebra), in_normal_form(algebra)
    assert [label for label, _ in written] == [label for label, _ in normal]
    assert sum(len(e.terms) for _, e in normal) < sum(len(e.terms) for _, e in written)
    # the coproducts of the relations' words do not vanish
    words = word_coproducts(algebra)
    normal_words = [(label, hopf._normal_form(expr)) for label, expr in words]
    for pair in product(NORMAL_SPINS, repeat=2):
        reps = [rep_of(j) for j in pair]
        want = scalar_matrices(written, reps)
        assert scalar_matrices(normal, reps) == want
        assert all(not m.entries for m in want)
        assert delta_homomorphy_residuals(algebra, *reps) == []
        assert scalar_matrices(normal_words, reps) == scalar_matrices(words, reps)


@pytest.mark.parametrize("case", JORDANIAN)
def test_homomorphy_on_negated_y_takes_the_normal_form(case, monkeypatch):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    bad = altered(rep_of(HALF), "Y", lambda m: -m)
    assert relations_residuals(algebra, bad)
    assert closure_failures(algebra, bad) == set()
    builds = spied_builds(monkeypatch)
    for reps in ([bad, rep_of(ONEJ)], [rep_of(HALF), bad], [bad, bad]):
        want = scalar_residuals(as_written(algebra), reps)
        assert want
        builds.clear()
        assert delta_homomorphy_residuals(algebra, *reps) == want
        assert builds == [hopf._normal_coproduct_relations]


@pytest.mark.parametrize("case", JORDANIAN)
def test_homomorphy_on_perturbed_thalf_is_evaluated_as_written(case, monkeypatch):
    algebra_of, rep_of = CASES[case]
    algebra = algebra_of()
    bad = altered(rep_of(ONEJ), "Thalf", lambda m: m.scale(rational(2)))
    assert closure_failures(algebra, bad) == {"Thalf^2", "Thalf*Tinvhalf"}
    builds = spied_builds(monkeypatch)
    for reps in ([bad, rep_of(HALF)], [rep_of(HALF), bad]):
        want = scalar_residuals(as_written(algebra), reps)
        # here the normal form has other matrices, so the guard matters
        assert scalar_residuals(in_normal_form(algebra), reps) != want
        builds.clear()
        assert delta_homomorphy_residuals(algebra, *reps) == want
        assert builds == [hopf._coproduct_relations]


def test_q_homomorphy_keeps_the_written_form(monkeypatch):
    assert hopf._closure_labels(q_algebra()) == ()
    builds = spied_builds(monkeypatch)
    reps = [q_rep(HALF), q_rep(ONEJ)]
    delta_homomorphy_residuals.cache_clear()
    assert delta_homomorphy_residuals(q_algebra(), *reps) == []
    assert builds == [hopf._coproduct_relations]


def test_normal_form_is_a_function_of_the_merged_form():
    # two words with one merged form have one normal form, and the normal
    # form merges back to the merged form
    for word in (("T", "Tinvhalf", "E"), ("Thalf", "E"), ("Tinv", "Thalf", "Thalf", "Thalf")):
        assert merged_word(normal_word(word)) == merged_word(word)
    assert normal_word(("T", "Tinvhalf", "E")) == normal_word(("Thalf", "E"))
