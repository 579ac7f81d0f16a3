"""Coassociativity certified by the closure relations of the T family.

``coassociativity_residuals`` returns no residuals, and builds no matrix,
when every coassociator vanishes once each run of adjacent group-like
letters is merged into one power of Thalf and every table satisfies the
three closure relations.  These tests hold it to the evaluated route it
replaces, on tables that pass and fail those relations.
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
    merged_word,
    q_algebra,
    r1_algebra,
    r2_algebra,
    relations_residuals,
)
from ospq.packed import evaluate_all
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
    case, j = table
    rep = CASES[case][1](j)
    assert rep.word_matrix(word) == merged_matrix(rep, merged_word(word))
