"""The packed-integer route of the Hopf suites against the Scalar route.

``ospq.packed`` evaluates p-free expressions at h = 2^B on ints and unpacks
the result; ``TensorExpression.evaluate`` on ``Scalar``s is the reference.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospq import hopf
from ospq.gmatrix import GradedMatrix, graded_kron
from ospq.halfint import HalfInt
from ospq.hopf import (
    q_algebra,
    r1_algebra,
    r2_algebra,
    relations_residuals,
)
from ospq.packed import PackedPlan, evaluate_all, pack, unpack
from ospq.report import matrix_residuals
from ospq.reps import GeneratorTable, q_rep, r1_generators, r2_generators
from ospq.scalar import H, ONE, P, Scalar, rational
from ospq.texpr import TensorExpression as TE

from test_scalar import scalars

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)

JORDANIAN = {
    "r2": (r2_algebra, r2_generators),
    "r1-minimal": (r1_algebra, lambda j: r1_generators(j, "minimal")),
    "r1-hdiag": (r1_algebra, lambda j: r1_generators(j, "hdiag")),
}


def with_matrix(rep, name, matrix) -> GeneratorTable:
    mats = {letter: rep.matrix(letter) for letter in rep.names()}
    mats[name] = matrix
    return GeneratorTable(rep.variant, rep.j, rep.parity, mats)


def y_flipped(rep) -> GeneratorTable:
    return with_matrix(rep, "Y", -rep.matrix("Y"))


def perturbed(rep, name="F", delta=H * rational(1, 3)) -> GeneratorTable:
    """One entry of one letter moved by ``delta``: by default h/3, whose
    denominator 3 no Jordanian table has."""
    m = rep.matrix(name)
    ij = min(m.entries)
    return with_matrix(rep, name, m + GradedMatrix(m.parity, {ij: delta}))


def suite_expressions(algebra, nlegs):
    """Every expression the five suites evaluate on ``nlegs`` legs."""
    if nlegs == 1:
        builders = (hopf._counit_differences, hopf._antipode_differences)
        return [*algebra.relations, *(x for b in builders for x in hopf._expressions(algebra, b))]
    if nlegs == 2:
        return list(hopf._expressions(algebra, hopf._coproduct_relations))
    return list(hopf._expressions(algebra, hopf._coassociators))


def assert_packed_matches_scalar(exprs, reps) -> int:
    """Packed and Scalar routes agree entry by entry; returns the number of
    nonzero entries compared."""
    plan = PackedPlan.of(exprs, reps)
    assert plan is not None
    packed = plan.run(plan.width)
    nonzero = 0
    for expr, got in zip(exprs, packed):
        want = expr.evaluate(reps)
        assert got.parity == want.parity
        assert got.entries == want.entries
        assert matrix_residuals("x", got) == matrix_residuals("x", want)
        nonzero += len(want.entries)
    return nonzero


class TestDifferential:
    @pytest.mark.parametrize("case", list(JORDANIAN))
    @pytest.mark.parametrize("j", [HALF, ONEJ], ids=str)
    def test_single_leg_suites(self, case, j):
        algebra_of, rep_of = JORDANIAN[case]
        good = rep_of(j)
        labelled = suite_expressions(algebra_of(), 1)
        exprs = [expr for _, expr in labelled]
        assert assert_packed_matches_scalar(exprs, [good]) == 0
        nonzero = 0
        for bad in (y_flipped(good), perturbed(good), perturbed(good, "H", rational(1, 3) / H)):
            nonzero += assert_packed_matches_scalar(exprs, [bad])
        assert nonzero > 20

    @pytest.mark.parametrize("case", list(JORDANIAN))
    def test_coproduct_homomorphism(self, case):
        algebra_of, rep_of = JORDANIAN[case]
        exprs = [expr for _, expr in suite_expressions(algebra_of(), 2)]
        good, one = rep_of(HALF), rep_of(ONEJ)
        assert assert_packed_matches_scalar(exprs, [good, one]) == 0
        nonzero = assert_packed_matches_scalar(exprs, [y_flipped(good), one])
        nonzero += assert_packed_matches_scalar(exprs, [good, perturbed(good)])
        assert nonzero > 20

    @pytest.mark.parametrize("case", list(JORDANIAN))
    def test_coassociativity(self, case):
        algebra_of, rep_of = JORDANIAN[case]
        exprs = [expr for _, expr in suite_expressions(algebra_of(), 3)]
        good, one = rep_of(HALF), rep_of(ONEJ)
        bad = perturbed(good, "Thalf")
        assert assert_packed_matches_scalar(exprs, [good, one, good]) == 0
        assert assert_packed_matches_scalar(exprs, [bad, good, bad]) > 0
        assert assert_packed_matches_scalar(exprs, [good, bad, good]) > 0

    def test_flipped_tables_fail_through_unpacked_residuals(self):
        for case, (algebra_of, rep_of) in JORDANIAN.items():
            algebra = algebra_of()
            bad = y_flipped(rep_of(HALF))
            want = []
            for label, expr in algebra.relations:
                want += matrix_residuals(label, expr.evaluate([bad]))
            assert want and relations_residuals(algebra, bad) == want, case


class TestWidth:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.data())
    def test_round_trip_at_the_extremes(self, width, data):
        top = (1 << (width - 1)) - 1
        coeff = st.one_of(
            st.sampled_from([top, -top]), st.integers(min_value=-top, max_value=top)
        )
        poly = data.draw(st.dictionaries(st.integers(0, 12), coeff, max_size=8))
        poly = {e: c for e, c in poly.items() if c}
        assert unpack(pack(poly, width), width) == poly

    @pytest.mark.parametrize(
        "parity, entry, coeff, length, top",
        [
            # H = 3h on one dimension: 81 h^4 against the bound 81
            ((0,), H * rational(3), ONE, 4, 81),
            # H = h on every entry of two dimensions: H^5 = 2^4 h^5 on each
            # entry, so (3/2) H^5 is 24 h^5 at the scale 2, against the bound
            # 3 * 2^4
            ((0, 0), H, rational(3, 2), 5, 48),
        ],
    )
    def test_one_bit_short_of_the_bound_unpacks_wrongly(self, parity, entry, coeff, length, top):
        # On these tables the bound is tight: one coefficient of the scaled
        # result reaches it.
        n = len(parity)
        cells = {(i, k): entry for i in range(n) for k in range(n)}
        rep = GeneratorTable("test", None, parity, {"H": GradedMatrix(parity, cells)})
        expr = TE.word(["H"] * length).scale(coeff)
        plan = PackedPlan.of([expr], [rep])
        assert plan.width == top.bit_length() + 1
        want = expr.evaluate([rep])
        assert plan.run(plan.width) == [want]
        assert plan.run(plan.width + 5) == [want]
        short = plan.run(plan.width - 1)[0]
        assert short.entries and short.entries != want.entries

    def test_real_tables_need_few_bits(self):
        for (_, (algebra_of, rep_of)), j in product(JORDANIAN.items(), (HALF, ONEJ)):
            exprs = [expr for _, expr in suite_expressions(algebra_of(), 3)]
            rep = rep_of(j)
            assert PackedPlan.of(exprs, [rep] * 3).width <= 40


class TestRefusal:
    def test_p_dependent_table(self):
        reps = [q_rep(HALF), q_rep(ONEJ)]
        exprs = [expr for _, expr in suite_expressions(q_algebra(), 2)]
        assert PackedPlan.of(exprs, reps) is None
        assert evaluate_all(exprs, reps) == [expr.evaluate(reps) for expr in exprs]

    def test_p_dependent_coefficient(self):
        rep = r2_generators(HALF)
        exprs = [TE.word(["H", "E"]).scale(P), TE.word(["F"])]
        assert PackedPlan.of(exprs, [rep]) is None
        assert evaluate_all(exprs, [rep]) == [expr.evaluate([rep]) for expr in exprs]

    def test_denominator_of_more_than_one_term(self):
        good = r2_generators(HALF)
        bad = perturbed(good, "F", (ONE + H).reciprocal())
        labelled = suite_expressions(r2_algebra(), 1)
        exprs = [expr for _, expr in labelled]
        assert PackedPlan.of(exprs, [bad]) is None
        got = evaluate_all(exprs, [bad])
        assert got == [expr.evaluate([bad]) for expr in exprs]
        assert any(not m.is_zero for m in got)
        want = []
        for label, expr in r2_algebra().relations:
            want += matrix_residuals(label, expr.evaluate([bad]))
        assert want and relations_residuals(r2_algebra(), bad) == want

    def test_unused_p_dependent_letter_does_not_refuse(self):
        good = r2_generators(HALF)
        extra = with_matrix(good, "K", GradedMatrix(good.parity, {(0, 0): P}))
        exprs = [expr for _, expr in r2_algebra().relations]
        assert PackedPlan.of(exprs, [extra]) is not None


class TestEntryProtocol:
    @settings(max_examples=100, deadline=None)
    @given(scalars())
    def test_scalar_truthiness(self, s):
        assert bool(s) == (not s.is_zero)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_int_matrices_agree_with_constant_scalars(self, data):
        def matrix(parity):
            n = len(parity)
            cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            entries = data.draw(st.dictionaries(cells, st.integers(-5, 5), max_size=n * n))
            return GradedMatrix(parity, entries)

        def as_scalars(m):
            return m.map_entries(Scalar.from_int)

        pa = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
        pb = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
        a, b, c = matrix(pa), matrix(pa), matrix(pb)
        assert all(type(v) is int and v for v in a.entries.values())
        for got, want in (
            (a @ b, as_scalars(a) @ as_scalars(b)),
            (a + b, as_scalars(a) + as_scalars(b)),
            (a - b, as_scalars(a) - as_scalars(b)),
            (a.scale(-3), as_scalars(a).scale(-3)),
            (a.map_entries(lambda v: v * v), as_scalars(a).map_entries(lambda v: v * v)),
        ):
            assert as_scalars(got) == want
        parity = data.draw(st.integers(0, 1))
        assert as_scalars(graded_kron(a, c, b_op_parity=parity)) == graded_kron(
            as_scalars(a), as_scalars(c), b_op_parity=parity
        )
