"""Tensor-expression algebra: grading signs, Hopf maps, evaluation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ospq.texpr as texpr
from ospq.gmatrix import GradedMatrix, graded_kron, kron_into, tensor_parity
from ospq.halfint import HalfInt
from ospq.hopf import q_algebra, r1_algebra, r2_algebra
from ospq.reps import GeneratorTable, q_rep, r1_generators, r2_generators
from ospq.graded import evaluate_all
from ospq.scalar import H, ONE, P, Scalar
from ospq.texpr import TensorExpression as TE
from ospq.texpr import tensor_product, word_parity


def sc(n):
    return Scalar.from_fraction(Fraction(n))


def fundamental():
    """Classical three-dimensional representation: h diagonal, e/f odd shifts."""
    parity = (0, 1, 0)
    e = GradedMatrix(parity, {(0, 1): ONE, (1, 2): ONE})
    f = GradedMatrix(parity, {(1, 0): -ONE, (2, 1): ONE})
    h = GradedMatrix(parity, {(0, 0): ONE, (2, 2): -ONE})
    return GeneratorTable("fundamental", None, parity, {"e": e, "f": f, "h": h})


REP = fundamental()


class TestGradedMultiplication:
    def test_odd_factors_anticommute_across_legs(self):
        e_left = TE.letter("e", nlegs=2, leg=0)
        e_right = TE.letter("e", nlegs=2, leg=1)
        ee = TE.pure((("e",), ("e",)))
        assert e_left * e_right == ee
        assert e_right * e_left == -ee

    def test_even_factor_commutes_across_legs(self):
        h_left = TE.letter("h", nlegs=2, leg=0)
        e_right = TE.letter("e", nlegs=2, leg=1)
        assert h_left * e_right == e_right * h_left

    def test_unit_is_identity(self):
        x = TE.pure((("e", "f"), ("h",)), sc(3))
        one = TE.unit(2)
        assert one * x == x
        assert x * one == x

    def test_square_of_odd_sum_drops_cross_terms(self):
        # (e(x)1 + 1(x)e)^2 = e^2(x)1 + 1(x)e^2: the mixed terms cancel in pairs.
        d = TE.letter("e", nlegs=2, leg=0) + TE.letter("e", nlegs=2, leg=1)
        expected = TE.pure((("e", "e"), ())) + TE.pure(((), ("e", "e")))
        assert d * d == expected

    def test_word_parity(self):
        assert word_parity(("e",)) == 1
        assert word_parity(("e", "f")) == 0
        assert word_parity(("h", "T", "X")) == 0
        assert word_parity(("E", "F", "E")) == 1


class TestEvaluation:
    def test_unit_evaluates_to_identity(self):
        m = TE.unit(1).evaluate([REP])
        assert m == GradedMatrix.identity(REP.parity)

    def test_word_is_ordered_product(self):
        ef = TE.word(("e", "f")).evaluate([REP])
        assert ef == REP.matrix("e") @ REP.matrix("f")

    def test_second_leg_letter_matches_kron(self):
        m = TE.letter("e", nlegs=2, leg=1).evaluate([REP, REP])
        ident = GradedMatrix.identity(REP.parity)
        assert m == graded_kron(ident, REP.matrix("e"), b_op_parity=1)

    def test_defining_relation_in_rep(self):
        # {e,f} = -h holds in the fundamental representation.
        ef = TE.word(("e", "f")) + TE.word(("f", "e"))
        anti = ef.evaluate([REP])
        assert anti == REP.matrix("h").scale(-ONE)

    def test_mu_concatenates(self):
        x = TE.pure((("e",), ("f",)))
        merged = x.mu(0)
        assert merged == TE.word(("e", "f"))
        assert merged.evaluate([REP]) == REP.matrix("e") @ REP.matrix("f")

    @pytest.mark.parametrize("nlegs", [2, 3])
    def test_empty_expression_is_the_zero_of_the_tensor_space(self, nlegs):
        spin_one = q_rep(HalfInt(1))
        reps = [spin_one] * nlegs
        zero = TE(nlegs, {}).evaluate(reps)
        assert zero.is_zero
        assert zero.dim == 5**nlegs
        assert zero.parity == tensor_parity([spin_one.parity] * nlegs)
        unit = TE.unit(nlegs).evaluate(reps)
        assert zero @ unit == zero
        assert zero + unit == unit

    def test_zero_legs_evaluate_to_the_one_by_one_coefficient(self):
        counit = TE.letter("T").counit(0, r2_algebra().eps)
        assert counit.nlegs == 0
        one = GradedMatrix((0,), {(0, 0): ONE})
        zero = TE(0, {})
        assert counit.evaluate([]) == one
        assert (counit.scale(H) - TE.unit(0)).evaluate([]).entries == {(0, 0): H - ONE}
        assert zero.evaluate([]).dim == 1 and zero.evaluate([]).is_zero
        assert zero.evaluate([]).parity == (0,)
        # the graded route lifts the coefficient back, and refuses p
        assert evaluate_all([counit, zero], []) == [one, zero.evaluate([])]
        with_p = TE.unit(0).scale(P)
        assert evaluate_all([with_p], []) == [GradedMatrix((0,), {(0, 0): P})]

    def test_result_is_never_a_rep_matrix(self):
        e = REP.matrix("e")
        before = dict(e.entries)
        for expr in (TE.letter("e"), TE.word(("e",)) + TE.word(("e",))):
            got = expr.evaluate([REP])
            assert got is not e and got.entries is not e.entries
            got.entries.clear()
        assert e.entries == before


WORD_LETTERS = st.lists(st.sampled_from(["e", "f", "h"]), min_size=0, max_size=2)


@st.composite
def pure_tensors(draw):
    w0 = tuple(draw(WORD_LETTERS))
    w1 = tuple(draw(WORD_LETTERS))
    c = draw(st.integers(min_value=-3, max_value=3).filter(lambda n: n != 0))
    return TE.pure((w0, w1), sc(c))


@st.composite
def expressions(draw):
    terms = draw(st.lists(pure_tensors(), min_size=1, max_size=3))
    total = TE(2, {})
    for t in terms:
        total = total + t
    return total


class TestMultiplicationAgainstMatrices:
    @given(expressions(), expressions())
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates_to_matrix_product(self, a, b):
        lhs = (a * b).evaluate([REP, REP])
        rhs = a.evaluate([REP, REP]) @ b.evaluate([REP, REP])
        assert lhs == rhs

    @given(expressions(), expressions(), expressions())
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(expressions(), expressions(), expressions())
    @settings(max_examples=30, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


# Toy Hopf tables over the classical algebra: e, f primitive; T group-like.
DELTA = {
    "e": TE.letter("e", nlegs=2, leg=0) + TE.letter("e", nlegs=2, leg=1),
    "f": TE.letter("f", nlegs=2, leg=0) + TE.letter("f", nlegs=2, leg=1),
    "h": TE.letter("h", nlegs=2, leg=0) + TE.letter("h", nlegs=2, leg=1),
    "T": TE.pure((("T",), ("T",))),
}
SMAP = {
    "e": -TE.letter("e"),
    "f": -TE.letter("f"),
    "h": -TE.letter("h"),
    "T": TE.letter("Tinv"),
}
ZERO = Scalar.from_int(0)
EPS = {"e": ZERO, "f": ZERO, "h": ZERO, "T": ONE}


class TestHopfMaps:
    def test_primitive_square_stays_primitive(self):
        # e odd and primitive forces e^2 primitive: the cross terms carry
        # opposite Koszul signs.
        got = TE.word(("e", "e")).coproduct(0, DELTA)
        want = TE.pure((("e", "e"), ())) + TE.pure(((), ("e", "e")))
        assert got == want

    def test_coproduct_of_mixed_word(self):
        got = TE.word(("e", "f")).coproduct(0, DELTA)
        want = (
            TE.pure((("e", "f"), ()))
            + TE.pure(((), ("e", "f")))
            + TE.pure((("e",), ("f",)))
            - TE.pure((("f",), ("e",)))
        )
        assert got == want

    def test_coproduct_is_homomorphism(self):
        a = TE.word(("e", "h")) + TE.word(("f",)).scale(sc(2))
        b = TE.word(("f", "e")) - TE.word(("h",))
        lhs = (a * b).coproduct(0, DELTA)
        rhs = a.coproduct(0, DELTA) * b.coproduct(0, DELTA)
        assert lhs == rhs

    def test_coproduct_middle_leg_of_three(self):
        x = TE.pure((("e",), ("f",), ("h",)))
        got = x.coproduct(1, DELTA)
        want = TE.pure((("e",), ("f",), (), ("h",))) + TE.pure(
            (("e",), (), ("f",), ("h",))
        )
        assert got == want

    def test_antipode_reverses_with_sign(self):
        # S(ef) = -S(f)S(e) = -fe with S(e)=-e, S(f)=-f.
        got = TE.word(("e", "f")).antipode(0, SMAP)
        assert got == -TE.word(("f", "e"))

    def test_antipode_of_odd_square(self):
        # S(e^2) = -S(e)S(e) = -e^2.
        got = TE.word(("e", "e")).antipode(0, SMAP)
        assert got == -TE.word(("e", "e"))

    def test_antipode_swaps_group_like(self):
        got = TE.word(("T", "T")).antipode(0, SMAP)
        assert got == TE.word(("Tinv", "Tinv"))

    def test_counit_kills_primitives_keeps_group_like(self):
        x = TE.pure((("T",), ("e",))) + TE.pure((("e",), ("h",)))
        got = x.counit(0, EPS)
        assert got == TE.letter("e")

    def test_counit_axiom_on_letters(self):
        for name in ("e", "f", "h", "T"):
            x = TE.letter(name)
            d = x.coproduct(0, DELTA)
            assert d.counit(0, EPS) == x
            assert d.counit(1, EPS) == x

    def test_antipode_axiom_on_letters(self):
        # mu (S (x) id) Delta(g) = eps(g) 1 for the toy table.
        for name in ("e", "f", "h", "T"):
            x = TE.letter(name)
            folded = x.coproduct(0, DELTA).antipode(0, SMAP).mu(0)
            if name == "T":
                # T Tinv is a formal word here, not reducible without a rep;
                # check instead that exactly that word survives.
                assert folded == TE.word(("Tinv", "T"))
            else:
                assert folded.is_zero

    def test_unknown_generator_raises(self):
        from ospq.errors import UnknownGenerator

        with pytest.raises(UnknownGenerator):
            TE.word(("zz",)).coproduct(0, DELTA)


def stores_no_zero(x):
    return all(not coeff.is_zero for coeff in x.terms.values())


class TestNoStoredZeros:
    """Every operation sums into a plain dict and leaves the dropping of
    cancelled terms to the constructor."""

    @given(expressions(), expressions())
    @settings(max_examples=60, deadline=None)
    def test_no_operation_stores_a_zero(self, a, b):
        assert not (a - a).terms
        built = [
            a + b,
            (a + b) - b,
            a * b - b * a,
            (a - b) * (a + b),
            tensor_product(a, b),
            tensor_product(a, TE.unit(1), b),
            a.coproduct(0, DELTA),
            (a * b).coproduct(1, DELTA),
            a.antipode(0, SMAP),
            (a - b).antipode(1, SMAP),
            a.counit(0, EPS),
            (a + b).counit(1, EPS),
            a.mu(0),
            (a - b).mu(0),
        ]
        for x in built:
            assert stores_no_zero(x)

    def test_cancelling_terms_leave_no_key(self):
        # e (x) f and ef (x) 1 merge under mu, e^2 (x) 1 dies under the
        # counit of the second leg, and the cross terms of Delta(e^2) cancel
        x = TE.pure((("e",), ("f",))) - TE.pure((("e", "f"), ()))
        assert x.mu(0).is_zero
        assert TE.pure((("e", "e"), ("h",))).counit(1, EPS).is_zero
        assert TE.word(("e", "e")).coproduct(0, DELTA).terms.keys() == {
            (("e", "e"), ()),
            ((), ("e", "e")),
        }


class TestScalarCoefficients:
    def test_symbolic_coefficients_multiply(self):
        x = TE.letter("e").scale(H)
        y = TE.letter("f").scale(H)
        prod = x * y
        assert prod == TE.word(("e", "f")).scale(H * H)


# -- differential oracle: evaluate against the plain per-term evaluation ----


ODD = {"e", "f", "E", "F"}


def reference_evaluate(expr, reps):
    """One term at a time: every word from the identity, then each choice
    of one nonzero entry per leg, placed at its first-leg-major index with
    the coefficient and its grading sign, then a running sum.  The sign
    is written out here, apart from ``gmatrix``: the word on leg k passes
    the columns of the legs before it, which gives
    (-1)^(|w_k| * sum_{l<k} parity_l(col_l))."""
    acc = {}
    for key, coeff in expr.terms.items():
        legs = []
        for rep, word in zip(reps, key):
            m = GradedMatrix.identity(rep.parity)
            for name in word:
                m = m @ rep.matrix(name)
            legs.append(m.entries.items())
        odd = [sum(name in ODD for name in word) % 2 for word in key]
        for cells in product(*legs):
            row = col = passed = sign = 0
            val = coeff
            for rep, w_odd, ((i, j), v) in zip(reps, odd, cells):
                row, col = row * rep.dim + i, col * rep.dim + j
                sign ^= w_odd & passed
                passed ^= rep.parity[j]
                val = val * v
            acc[(row, col)] = acc.get((row, col), 0) + (-val if sign else val)
    parity = [sum(bits) % 2 for bits in product(*(rep.parity for rep in reps))]
    return GradedMatrix(parity, acc)


def hopf_suite_expressions(algebra, reps):
    """(label, expression, legs) for everything the five Hopf suites evaluate."""
    rep1, rep2, rep3 = reps
    out = []
    for rep in (rep1, rep2):
        for label, expr in algebra.relations:
            out.append((f"relation {label}", expr, [rep]))
        for name in algebra.letters:
            x = TE.letter(name)
            d = x.coproduct(0, algebra.delta)
            out.append((f"left counit {name}", d.counit(0, algebra.eps) - x, [rep]))
            out.append((f"right counit {name}", d.counit(1, algebra.eps) - x, [rep]))
            for leg in (0, 1):
                folded = d.antipode(leg, algebra.smap).mu(0)
                out.append((f"antipode {leg} {name}", folded, [rep]))
    for label, expr in algebra.relations:
        out.append((f"coproduct {label}", expr.coproduct(0, algebra.delta), [rep1, rep2]))
    for name in algebra.letters:
        d = TE.letter(name).coproduct(0, algebra.delta)
        diff = d.coproduct(0, algebra.delta) - d.coproduct(1, algebra.delta)
        out.append((f"coassociativity {name}", diff, [rep1, rep2, rep3]))
    return out


HALF_J, ONE_J = HalfInt.from_twice(1), HalfInt(1)
HOPF_CASES = {
    "q": (q_algebra, q_rep),
    "r2": (r2_algebra, r2_generators),
    "r1-minimal": (r1_algebra, lambda j: r1_generators(j, "minimal")),
    "r1-hdiag": (r1_algebra, lambda j: r1_generators(j, "hdiag")),
}


def every_other_term(expr):
    """Half of the expression's terms: the suites' expressions vanish in a
    representation, but such a part mostly does not, so a fault in the
    evaluation cannot cancel out."""
    return TE(expr.nlegs, dict(list(expr.terms.items())[::2]))


def assert_grouped_matches_flat(expr, legs, label=""):
    got = expr.evaluate(legs)
    want = reference_evaluate(expr, legs)
    assert got.parity == want.parity, label
    assert got.entries == want.entries, label
    return got


class TestEvaluateOracle:
    @pytest.mark.parametrize("case", sorted(HOPF_CASES))
    def test_hopf_suite_expressions_match_reference(self, case):
        algebra_of, rep_of = HOPF_CASES[case]
        half, one = rep_of(HALF_J), rep_of(ONE_J)
        # mixed spins, so a leg evaluated in the wrong rep cannot agree
        nonzero = total = 0
        for reps in ([half, one, half], [one, half, one]):
            for label, expr, legs in hopf_suite_expressions(algebra_of(), reps):
                assert_grouped_matches_flat(expr, legs, label)
                part = every_other_term(expr)
                nonzero += not assert_grouped_matches_flat(part, legs, label).is_zero
                total += 1
        assert nonzero > total // 2

    @given(expressions())
    @settings(max_examples=40, deadline=None)
    def test_random_expressions_match_reference(self, expr):
        assert expr.evaluate([REP, REP]) == reference_evaluate(expr, [REP, REP])


SPINS = (HALF_J, ONE_J)


class TestGroupedEvaluate:
    """``evaluate`` sums each last-leg word's terms on the shorter legs
    and takes one Kronecker product per word; the flat reference takes one
    per term and leg.  Both must give the same matrix."""

    @pytest.mark.parametrize("case", sorted(HOPF_CASES))
    def test_every_relation_coproduct_on_every_pair(self, case):
        algebra_of, rep_of = HOPF_CASES[case]
        alg = algebra_of()
        nonzero = shared = 0
        for j1, j2 in product(SPINS, repeat=2):
            legs = [rep_of(j1), rep_of(j2)]
            for label, expr in alg.relations:
                d = expr.coproduct(0, alg.delta)
                assert_grouped_matches_flat(d, legs, label)
                part = every_other_term(d)
                nonzero += not assert_grouped_matches_flat(part, legs, label).is_zero
                shared += len({key[1] for key in d.terms}) < len(d.terms)
        # most parts survive, and most coproducts share a last-leg word
        assert nonzero > 2 * len(alg.relations)
        assert shared > 2 * len(alg.relations)

    @pytest.mark.parametrize("case", sorted(HOPF_CASES))
    def test_coassociativity_differences_on_every_triple(self, case):
        algebra_of, rep_of = HOPF_CASES[case]
        alg = algebra_of()
        for triple in product(SPINS, repeat=3):
            legs = [rep_of(j) for j in triple]
            for name in alg.letters:
                d = TE.letter(name).coproduct(0, alg.delta)
                diff = d.coproduct(0, alg.delta) - d.coproduct(1, alg.delta)
                assert_grouped_matches_flat(diff, legs, name)
                assert_grouped_matches_flat(every_other_term(diff), legs, name)

    @pytest.mark.parametrize("nlegs", [2, 3])
    def test_odd_last_leg_word(self, nlegs):
        # every term ends in the odd word E or EFE, and the heads are of
        # both parities, so the Kronecker sign is live in each group
        legs = [r2_generators(j) for j in (ONE_J, HALF_J, ONE_J)[:nlegs]]
        heads = [("E",), ("H", "T"), ("F", "E", "F"), ("Y",), ()]
        expr = TE(nlegs, {})
        for n, head in enumerate(heads):
            for tail in (("E",), ("E", "F", "E")):
                words = (head, tail) if nlegs == 2 else (head, ("F",), tail)
                expr = expr + TE.pure(words, sc(n + 1) * H)
        assert word_parity(("E", "F", "E")) == 1
        got = assert_grouped_matches_flat(expr, legs)
        assert not got.is_zero

    def test_one_kronecker_product_per_last_leg_word(self, monkeypatch):
        calls = []

        def counting_kron(entries, a_entries, a_parity, b, b_op_parity):
            calls.append(b_op_parity)
            kron_into(entries, a_entries, a_parity, b, b_op_parity)

        monkeypatch.setattr(texpr, "kron_into", counting_kron)
        alg = r2_algebra()
        legs = [r2_generators(HALF_J), r2_generators(ONE_J)]
        for label, expr in alg.relations:
            d = expr.coproduct(0, alg.delta)
            calls.clear()
            d.evaluate(legs)
            assert len(calls) == len({key[1] for key in d.terms}), label
