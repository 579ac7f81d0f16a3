"""The packed-integer routes against the Scalar route.

``ospq.packed`` evaluates p-free expressions at h = 2^B on ints and unpacks
the result, with ``TensorExpression.evaluate`` on ``Scalar``s as the
reference; and it decides the Yang-Baxter and RLL product identities at
p = 2^B, h = 2^(B*span), with the products of the embedded ``Scalar``
matrices as the reference.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospq import hopf
from ospq.contraction import L_operator, contract, rll_check
from ospq.gmatrix import GradedMatrix, embed_pair, graded_kron, tensor_parity
from ospq.halfint import HalfInt
from ospq.hopf import (
    q_algebra,
    r1_algebra,
    r2_algebra,
    relations_residuals,
)
from ospq.packed import (
    PackedPlan,
    ProductPlan,
    _scaled,
    evaluate_all,
    pack,
    product_difference,
    unpack,
)
from ospq.qrmatrix import universal_Rq, ybe_check
from ospq.r1 import universal_Rh_r1
from ospq.report import matrix_residuals
from ospq.reps import GeneratorTable, q_rep, r1_generators, r2_generators, rep_parity
from ospq.scalar import H, ONE, P, Scalar, rational
from ospq.texpr import TensorExpression as TE

from test_scalar import one_term_den_scalars, scalars

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
    packed = plan.run()
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
        proven = plan.width
        assert plan.run() == [want]
        plan.width = proven + 5
        assert plan.run() == [want]
        plan.width = proven - 1
        short = plan.run()[0]
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

    def test_p_in_the_scale_alone_refuses(self):
        # H = h/p scales to the p-free h, but H H is h^2/p^2, not h^2
        rep = GeneratorTable("test", None, (0,), {"H": GradedMatrix((0,), {(0, 0): H / P})})
        exprs = [TE.word(["H", "H"])]
        assert PackedPlan.of(exprs, [rep]) is None
        assert evaluate_all(exprs, [rep]) == [expr.evaluate([rep]) for expr in exprs]

    def test_unused_p_dependent_letter_does_not_refuse(self):
        good = r2_generators(HALF)
        extra = with_matrix(good, "K", GradedMatrix(good.parity, {(0, 0): P}))
        exprs = [expr for _, expr in r2_algebra().relations]
        assert PackedPlan.of(exprs, [extra]) is not None


class TestScaling:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(one_term_den_scalars(), max_size=6))
    def test_scaled_polynomials_over_the_scale_are_the_input(self, values):
        scalars = {("x", k): v for k, v in enumerate(values)}
        polys, den, top_p, top_h = _scaled(scalars)
        scale = Scalar.monomial(den, top_p, top_h)
        assert list(polys) == list(scalars)
        for key, poly in polys.items():
            assert all(ep >= 0 and eh >= 0 and type(c) is int for (ep, eh), c in poly.items())
            assert Scalar._make(poly, {(0, 0): 1}) / scale == scalars[key]


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


# -- product identities ----------------------------------------------------------

LEFT, RIGHT = (0, 1, 2), (2, 1, 0)
THREEHALF = HalfInt.from_twice(3)


def triple_case(pair_matrix, spins):
    """The Yang-Baxter factors R12, R13, R23 of ``pair_matrix`` on ``spins``."""
    j1, j2, j3 = spins
    factors = [
        (pair_matrix(j1, j2), (0, 1)),
        (pair_matrix(j1, j3), (0, 2)),
        (pair_matrix(j2, j3), (1, 2)),
    ]
    return factors, tuple(rep_parity(j) for j in spins)


def rll_case(j):
    ell = L_operator(j)
    factors = [(contract(HALF, HALF).matrix, (0, 1)), (ell, (0, 2)), (ell, (1, 2))]
    return factors, (rep_parity(HALF), rep_parity(HALF), rep_parity(j))


KINDS = {
    "q": universal_Rq,
    "r1-minimal": lambda a, b: universal_Rh_r1(a, b, "minimal"),
    "r1-hdiag": lambda a, b: universal_Rh_r1(a, b, "hdiag"),
    "r2": lambda a, b: contract(a, b).matrix,
}
Q_TRIPLES = [
    (HALF, HALF, HALF),
    (HALF, HALF, ONEJ),
    (HALF, ONEJ, HALF),
    (ONEJ, HALF, THREEHALF),
    (ONEJ, ONEJ, ONEJ),
    (THREEHALF, THREEHALF, THREEHALF),
]
H_TRIPLES = [(HALF, HALF, HALF), (HALF, HALF, ONEJ), (HALF, ONEJ, HALF), (HALF, ONEJ, ONEJ)]
CASES = [
    *((f"q:{','.join(map(str, t))}", "q", t) for t in Q_TRIPLES),
    *(
        (f"{kind}:{','.join(map(str, t))}", kind, t)
        for kind in ("r1-minimal", "r1-hdiag", "r2")
        for t in H_TRIPLES
    ),
]


def case_of(kind, spins):
    return rll_case(spins) if kind == "rll" else triple_case(KINDS[kind], spins)


def one_term_scale(m) -> Scalar:
    """D p^Ea h^Eb for the one-term entry denominators k p^a h^b of m."""
    dens = [item for v in m.entries.values() for item in v.den.items()]
    return Scalar.monomial(
        lcm(*(k for _, k in dens)),
        max((a for (a, _), _ in dens), default=0),
        max((b for (_, b), _ in dens), default=0),
    )


def on_x(poly, span) -> dict:
    """{(p_exp, h_exp): int} with p^a h^b put to X^(a + span*b)."""
    return {a + span * b: c for (a, b), c in poly.items()}


def scalar_products(factors, parities):
    mats = [embed_pair(m, parities, legs) for m, legs in factors]
    return [mats[i] @ mats[j] @ mats[k] for i, j, k in (LEFT, RIGHT)]


def assert_packed_images(factors, parities):
    """The packed products are the images of the scaled Scalar products,
    whose coefficients and p-degrees the plan's width and span cover;
    returns the Scalar difference of the two products."""
    plan = ProductPlan.of(factors, parities, (LEFT, RIGHT))
    assert plan is not None
    scale = ONE
    for m, _ in factors:
        scale = scale * one_term_scale(m)
    wants = scalar_products(factors, parities)
    for got, want in zip(plan.products(), wants):
        scaled = want.scale(scale)
        polys = [v.num for v in scaled.entries.values()]
        assert all(v.den == {(0, 0): 1} for v in scaled.entries.values())
        assert all(abs(c) < 1 << (plan.width - 1) for num in polys for c in num.values())
        assert all(ep < plan.span for num in polys for ep, _ in num)
        assert got == scaled.map_entries(lambda v: pack(on_x(v.num, plan.span), plan.width))
    diff = wants[0] - wants[1]
    assert plan.agree() == diff.is_zero
    return diff


def perturbed_first(factors, delta):
    """``factors`` with one entry of the first factor moved by ``delta``."""
    (m, legs), *rest = factors
    ij = max(m.entries)
    return [(m + GradedMatrix(m.parity, {ij: delta}), legs), *rest]


class TestProductDifferential:
    @pytest.mark.parametrize("name, kind, spins", CASES, ids=[c[0] for c in CASES])
    def test_yang_baxter(self, name, kind, spins):
        factors, parities = case_of(kind, spins)
        assert assert_packed_images(factors, parities).is_zero
        assert ybe_check(*(m for m, _ in factors), parities) == []

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4])
    def test_rll(self, twice_j):
        j = HalfInt.from_twice(twice_j)
        assert assert_packed_images(*case_of("rll", j)).is_zero
        assert rll_check(j).ok

    @pytest.mark.parametrize(
        "kind, spins, delta",
        [
            ("q", (HALF, ONEJ, HALF), P**-3 * rational(2, 3)),
            ("q", (ONEJ, ONEJ, ONEJ), H),  # p and h in one product
            ("r1-minimal", (HALF, HALF, ONEJ), H * rational(1, 3)),
            ("r1-hdiag", (HALF, ONEJ, ONEJ), H * rational(1, 3)),
            ("r2", (HALF, ONEJ, HALF), H * rational(1, 3)),
            ("rll", HALF, ONE),
            ("rll", ONEJ, H * rational(1, 3)),
        ],
        ids=str,
    )
    def test_a_perturbed_entry_fails_with_the_scalar_residuals(self, kind, spins, delta):
        factors, parities = case_of(kind, spins)
        bad = perturbed_first(factors, delta)
        diff = assert_packed_images(bad, parities)
        assert not diff.is_zero
        got = product_difference(bad, LEFT, RIGHT, parities)
        assert matrix_residuals("x", got) == matrix_residuals("x", diff)
        if kind != "rll":
            want = [(r, c, s) for _, (r, c), s in matrix_residuals("x", diff)]
            assert ybe_check(*(m for m, _ in bad), parities) == want

    def test_a_refused_factor_falls_back_to_scalars(self):
        # a scalar multiple of R12 still solves the equation, but its
        # denominator 1 + p has two terms
        factors, parities = triple_case(universal_Rq, (HALF, HALF, HALF))
        (r12, legs), *rest = factors
        scaled = [(r12.scale((ONE + P).reciprocal()), legs), *rest]
        assert ProductPlan.of(scaled, parities, (LEFT, RIGHT)) is None
        assert product_difference(scaled, LEFT, RIGHT, parities).is_zero
        bad = perturbed_first(scaled, H)
        assert ProductPlan.of(bad, parities, (LEFT, RIGHT)) is None
        lhs, rhs = scalar_products(bad, parities)
        assert product_difference(bad, LEFT, RIGHT, parities) == lhs - rhs != lhs - lhs

    def test_each_order_uses_every_factor_once(self):
        factors, parities = triple_case(universal_Rq, (HALF, HALF, HALF))
        with pytest.raises(ValueError):
            ProductPlan.of(factors, parities, (LEFT, (0, 1, 1)))


def pair_matrices(draw, parity):
    """A random pair matrix on ``parity`` whose entries are small multiples
    of p^a h^b / d, exponents of either sign."""
    n = len(parity)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entry = st.builds(
        lambda c, d, a, b: Scalar.monomial(Fraction(c, d), a, b),
        st.integers(-3, 3),
        st.integers(1, 3),
        st.integers(-1, 2),
        st.integers(-1, 2),
    )
    return GradedMatrix(parity, draw(st.dictionaries(cells, entry, max_size=2 * n)))


class TestRandomProducts:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_packed_images_on_odd_legs(self, data):
        # odd basis vectors on every leg, so embed_pair flips signs and the
        # signed sums can cancel where the l1 bound must not
        parities = ((0, 1), (0, 1), (0, 1))
        pair = tensor_parity(parities[:2])
        factors = [(pair_matrices(data.draw, pair), legs) for legs in ((0, 1), (0, 2), (1, 2))]
        diff = assert_packed_images(factors, parities)
        assert product_difference(factors, LEFT, RIGHT, parities) == diff


class TestProductWidth:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(1, 6), st.data())
    def test_two_variable_round_trip_at_the_extremes(self, width, span, data):
        top = (1 << (width - 1)) - 1
        coeff = st.one_of(
            st.sampled_from([top, -top]), st.integers(min_value=-top, max_value=top)
        )
        monomial = st.tuples(st.integers(0, span - 1), st.integers(0, 6))
        poly = data.draw(st.dictionaries(monomial, coeff, max_size=10))
        poly = {k: c for k, c in poly.items() if c}
        value = pack(on_x(poly, span), width)
        got = {divmod(e, span)[::-1]: c for e, c in unpack(value, width).items()}
        assert got == poly

    @pytest.mark.parametrize("x", [H, P], ids=["h", "p"])
    @pytest.mark.parametrize("bits", [3, 9])
    def test_one_bit_short_of_the_bound_the_products_collide(self, x, bits):
        # M N and N M differ only in one entry, x - 1 against 2^bits - 1;
        # the bound is 2^bits - 1, so the proven width is bits + 1, and at
        # x = 2^bits the two entries collide.  The verdict is only ever
        # taken at the proven width.
        parities = ((0, 0), (0,))
        m = GradedMatrix((0, 0), {(0, 1): ONE})
        n = GradedMatrix((0, 0), {(0, 0): x - ONE, (1, 1): rational((1 << bits) - 1)})
        factors = [(m, (0, 1)), (n, (0, 1))]
        plan = ProductPlan.of(factors, parities, ((0, 1), (1, 0)))
        assert plan.width == bits + 1
        assert not plan.agree()
        proven = plan.width
        for width in (proven, proven + 7):
            plan.width = width
            first, second = plan.products()
            assert first != second
        plan.width = proven - 1
        first, second = plan.products()
        assert first == second
        assert product_difference(factors, (0, 1), (1, 0), parities) == m @ n - n @ m

    def test_span_exceeds_the_p_degree_of_every_product(self):
        factors, parities = triple_case(universal_Rq, (ONEJ, ONEJ, ONEJ))
        plan = ProductPlan.of(factors, parities, (LEFT, RIGHT))
        degrees = [
            max(ep for v in m.scale(one_term_scale(m)).entries.values() for ep, _ in v.num)
            for m, _ in factors
        ]
        assert plan.span == 1 + sum(degrees) > 1


def word_prefixes(exprs) -> set:
    """Every prefix of two or more letters of a word of ``exprs``: the words
    whose matrices cost one product each."""
    return {
        word[:n]
        for expr in exprs
        for key in expr.terms
        for word in key
        for n in range(2, len(word) + 1)
    }


class TestSharedMemos:
    def test_refused_suites_build_each_word_matrix_once(self, monkeypatch):
        # a fresh copy of the cached table, with an empty memo, on both legs
        cached = q_rep(ONEJ)
        table = GeneratorTable(cached.variant, cached.j, cached.parity, cached.matrices)
        reps = [table, table]
        exprs = [expr for _, expr in suite_expressions(q_algebra(), 2)]
        assert PackedPlan.of(exprs, reps) is None
        want = [expr.evaluate([cached, cached]) for expr in exprs]
        calls = [0]
        matmul = GradedMatrix.__matmul__

        def counted(a, b):
            calls[0] += 1
            return matmul(a, b)

        monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
        assert evaluate_all(exprs, reps) == want
        assert calls[0] == len(word_prefixes(exprs)) > 0
        # the table keeps its word matrices: a second call builds none
        calls[0] = 0
        assert evaluate_all(exprs, reps) == want
        assert calls[0] == 0
