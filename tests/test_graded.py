"""The graded evaluator of ``ospq.graded`` against ``TensorExpression.evaluate``.

Every suite expression and FRT rule, and probes whose matrices are not
zero, are evaluated on both routes on every ordered pair and triple of
spins in {1/2, 1, 3/2}, for r2 and both r1 families: the matrices must be
equal.  The probes carry coefficients c/k h^f with k > 1 and f of either
sign, and sums of terms of several degrees, so that a wrong lift, a lost
degree split or a lost scale shows.  The gates refuse tables off the
grading, homogeneous perturbations stay on the graded route, and an
entry at an odd power of h^(1/2) raises.
"""

from itertools import product

import pytest

from ospq import texpr
from ospq.contraction import frt_rules
from ospq.errors import NotGraded
from ospq.gmatrix import GradedMatrix
from ospq.graded import _IntTable, evaluate_all
from ospq.halfint import HalfInt
from ospq.hopf import hopf_suite_failures, r1_algebra, r2_algebra, relations_residuals
from ospq.report import matrix_residuals
from ospq.reps import r2_generators
from ospq.scalar import H, ONE, P, rational
from ospq.texpr import TensorExpression as TE

from test_packed import (
    JORDANIAN,
    fresh_copy,
    routes,
    suite_expressions,
    with_matrix,
    y_flipped,
)

SPINS = [HalfInt.from_twice(k) for k in (1, 2, 3)]
LETTERS = r2_algebra().letters
COEFFS = [ONE, H * rational(-1, 2), rational(3) / H, H * H * rational(1, 6)]


def probes(nlegs) -> list:
    """One pure tensor per letter, with that letter on one leg and others
    beside it, each with its own coefficient; then their sum, whose terms
    have several degrees.  None has the zero matrix."""
    out = []
    for n, name in enumerate(LETTERS):
        words = [
            (name,) if leg == n % nlegs else (LETTERS[(n + 3 * leg) % 9], name)
            for leg in range(nlegs)
        ]
        out.append(TE.pure(words, COEFFS[n % len(COEFFS)]))
    return out + [sum(out[1:], out[0])]


def doubled_thalf(rep):
    return with_matrix(rep, "Thalf", rep.matrix("Thalf").scale(rational(2)))


def assert_graded_equals_scalar(exprs, reps) -> int:
    """The tables pass their gates and ``evaluate_all`` gives the Scalar
    route's matrices; returns the number of nonzero entries compared."""
    assert all(_IntTable.of(rep) is not None for rep in reps)
    got = evaluate_all(exprs, reps)
    want = [expr.evaluate(reps) for expr in exprs]
    assert got == want
    return sum(len(m.entries) for m in want)


class TestAgainstScalars:
    @pytest.mark.parametrize("case", list(JORDANIAN))
    @pytest.mark.parametrize("nlegs", [1, 2, 3])
    def test_every_suite_expression_and_probe(self, case, nlegs):
        algebra_of, rep_of = JORDANIAN[case]
        exprs = [expr for _, expr in suite_expressions(algebra_of(), nlegs)]
        if case == "r2" and nlegs < 3:
            coproduct, _, antipode = frt_rules(algebra_of())
            exprs += [expr for _, expr in (antipode, coproduct)[nlegs - 1]]
        exprs += probes(nlegs)
        nonzero = 0
        for spins in product(SPINS, repeat=nlegs):
            nonzero += assert_graded_equals_scalar(exprs, [rep_of(j) for j in spins])
        assert nonzero > 100

    def test_zero_legs(self):
        _, counit, _ = frt_rules(r2_algebra())
        exprs = [expr for _, expr in counit]
        exprs += [TE.unit(0).scale(c) for c in COEFFS]
        exprs.append(sum(exprs[-len(COEFFS):], TE(0, {})))
        assert assert_graded_equals_scalar(exprs, []) == len(COEFFS) + 1

    def test_two_degrees_in_one_entry(self, monkeypatch):
        # X + h X is one term whose coefficient 1 + h falls back to
        # Scalars; X + T is two terms, of the degrees 2 and 0, that meet on
        # the entries (i, i + 2), where T holds h e^2
        rep = r2_generators(HalfInt(1))
        x = TE.word(["X"])
        exprs = [x + x.scale(H), x + TE.word(["T"])]
        # the second is evaluated once per degree
        assert routes(monkeypatch, exprs, [rep]) == ["GeneratorTable", "_IntTable", "_IntTable"]
        got = evaluate_all(exprs, [rep])
        assert all(any(len(v.num) == 2 for v in m.entries.values()) for m in got)


class TestHomogeneousPerturbations:
    @pytest.mark.parametrize("case", list(JORDANIAN))
    @pytest.mark.parametrize("change", [y_flipped, doubled_thalf], ids=["Y-negated", "Thalf-doubled"])
    def test_stay_graded_with_the_scalar_residuals(self, case, change, monkeypatch):
        algebra_of, rep_of = JORDANIAN[case]
        algebra = algebra_of()
        good, bad = rep_of(HalfInt(1)), change(rep_of(HalfInt.from_twice(1)))
        for reps in ([bad], [good, bad], [bad, good, bad]):
            exprs = [expr for _, expr in suite_expressions(algebra, len(reps))]
            assert set(routes(monkeypatch, exprs, reps)) == {"_IntTable"}
        want = []
        for label, expr in algebra.relations:
            want += matrix_residuals(label, expr.evaluate([bad]))
        assert want and relations_residuals(algebra, bad) == want
        assert hopf_suite_failures(algebra, [bad, good, bad])


class TestGates:
    def test_a_mislabelled_degree_refuses(self, monkeypatch):
        rep = r2_generators(HalfInt(1))
        assert _IntTable.of(fresh_copy(rep)) is not None
        monkeypatch.setitem(texpr.DEGREES, "X", 0)
        assert _IntTable.of(fresh_copy(rep)) is None
        # so does a letter filed under the name of another degree
        monkeypatch.undo()
        assert _IntTable.of(with_matrix(rep, "E", rep.matrix("F"))) is None

    @pytest.mark.parametrize("name", ["H", "E", "F", "X", "Y"])
    def test_an_entry_at_another_power_of_h_refuses(self, name):
        rep = r2_generators(HalfInt(1))
        m = rep.matrix(name)
        ij = max(m.entries)
        moved = with_matrix(rep, name, m + GradedMatrix(m.parity, {ij: m.entries[ij] * (H - ONE)}))
        assert moved.matrix(name).entries[ij] == m.entries[ij] * H
        assert _IntTable.of(moved) is None
        exprs = [expr for _, expr in r2_algebra().relations]
        assert evaluate_all(exprs, [moved]) == [expr.evaluate([moved]) for expr in exprs]

    def test_an_unused_p_dependent_letter_refuses_the_table(self):
        good = r2_generators(HalfInt.from_twice(1))
        extra = with_matrix(good, "K", GradedMatrix(good.parity, {(0, 0): P}))
        assert _IntTable.of(extra) is None

    def test_an_entry_off_the_grading_raises(self):
        # weights that the gate never saw: row 0 of E sits at an odd 2e
        rep = fresh_copy(r2_generators(HalfInt(1)))
        table = _IntTable.of(rep)
        table.weights = [table.weights[0] + 1, *table.weights[1:]]
        with pytest.raises(NotGraded):
            evaluate_all([TE.word(["E"])], [rep])


class TestMemo:
    def test_the_int_table_lives_on_the_table(self, monkeypatch):
        rep = fresh_copy(JORDANIAN["r1-hdiag"][1](HalfInt(1)))
        exprs = [expr for _, expr in suite_expressions(r1_algebra(), 2)]
        assert evaluate_all(exprs, [rep, rep]) == [expr.evaluate([rep, rep]) for expr in exprs]
        table = rep.graded
        assert isinstance(table, _IntTable) and table.words
        # a second call reads the memo, whose word matrices are all built
        calls = [0]
        matmul = GradedMatrix.__matmul__

        def counted(a, b):
            calls[0] += 1
            return matmul(a, b)

        monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
        evaluate_all(exprs, [rep, rep])
        assert rep.graded is table and calls[0] == 0

