"""The deformed-even-sector quantization: dressings, R-matrix, twist."""

import re
from fractions import Fraction

import pytest

import ospq.r1
from ospq.gmatrix import GradedMatrix, inverse, swap_conjugate
from ospq.halfint import HalfInt
from ospq.hopf import r1_algebra, r1_hopf_check, r1_relations_check
from ospq.qrmatrix import ybe_check
from ospq.r1 import (
    MAX_COCYCLE_SPIN_DIM,
    MAX_TRIANGULARITY_DIM,
    _exp_kron,
    _th,
    antipode_check,
    antipode_transformer,
    cocycle_check,
    disentangle_check,
    inverse_map_words,
    r1_generators,
    triangularity_check,
    twist_expression,
    twist_matrix,
    twist_property_check,
    universal_Rh_r1,
    x_nilpotency,
)
from ospq.report import matrix_residuals
from ospq.reps import GeneratorTable, classical_rep, refuse_oversized
from ospq.scalar import H, Scalar, scalar_from_string
from ospq.texpr import TensorExpression as TE
from ospq.texpr import tensor_product

from helpers import from_rows
from test_packed import perturbed

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)
THREEHALF = HalfInt.from_twice(3)
SPINS = (HALF, ONEJ, THREEHALF)
FAMILIES = ("minimal", "hdiag")


def sc(text):
    return scalar_from_string(text)


class TestDressedGenerators:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_all_relations_hold(self, family, j):
        report = r1_relations_check(j, family)
        assert report.failures == []

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_classical_limit(self, family, j):
        rep = r1_generators(j, family)
        cl = classical_rep(j)
        at_zero = {
            name: rep.matrix(name).map_entries(lambda v: v.substitute_h(0))
            for name in rep.names()
        }
        assert at_zero["E"] == cl.matrix("e")
        assert at_zero["F"] == cl.matrix("f")
        assert at_zero["H"] == cl.matrix("h")
        assert at_zero["X"] == cl.matrix("b+")
        assert at_zero["Y"] == cl.matrix("b-")
        iden = rep.identity()
        for name in ("T", "Tinv", "Thalf", "Tinvhalf"):
            assert at_zero[name] == iden

    def test_minimal_spot_values_smallest_module(self):
        rep = r1_generators(HALF, "minimal")
        cl = classical_rep(HALF)
        # On the three-dimensional module b+ squares to zero, so the
        # dressing factors collapse to two terms each.
        assert rep.matrix("T") == cl.matrix("b+").scale(H) + rep.identity()
        assert rep.matrix("E") == cl.matrix("e")
        assert rep.matrix("X") == cl.matrix("b+")
        expect_f = from_rows(
            cl.parity,
            [
                [sc("0"), sc("-h/2"), sc("0")],
                [sc("-1"), sc("0"), sc("-h/2")],
                [sc("0"), sc("1"), sc("0")],
            ],
        )
        assert rep.matrix("F") == expect_f

    def test_families_agree_and_differ_at_spin_half(self):
        low = r1_generators(HALF, "minimal")
        alt = r1_generators(HALF, "hdiag")
        assert low.matrix("T") == alt.matrix("T")
        assert low.matrix("E") == alt.matrix("E")
        assert low.matrix("H") != alt.matrix("H")
        assert alt.matrix("H") == classical_rep(HALF).matrix("h")

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_hdiag_keeps_cartan_classical(self, j):
        rep = r1_generators(j, "hdiag")
        assert rep.matrix("H") == classical_rep(j).matrix("h")

    def test_hdiag_x_picks_up_cubic_correction(self):
        # Through spin 1 the logarithm stops at its first term; at spin
        # 3/2 the cubic of the nilpotent survives and contributes h^2/12.
        for j in (HALF, ONEJ):
            rep = r1_generators(j, "hdiag")
            assert rep.matrix("X") == classical_rep(j).matrix("b+")
        rep = r1_generators(THREEHALF, "hdiag")
        diff = rep.matrix("X") - classical_rep(THREEHALF).matrix("b+")
        assert dict(diff.entries) == {(0, 6): sc("h^2/12")}

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_x_nilpotency_bound_is_sharp(self, j):
        bp = classical_rep(j).matrix("b+")
        d = x_nilpotency(j)
        assert (bp**d).is_zero
        assert not (bp ** (d - 1)).is_zero

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            r1_generators(HALF, "maximal")

    def test_wrong_sign_on_y_breaks_relations(self):
        rep = r1_generators(ONEJ, "minimal")
        mats = {name: rep.matrix(name) for name in rep.names()}
        mats["Y"] = -mats["Y"]
        bad = GeneratorTable(rep.variant, rep.j, rep.parity, mats)
        from ospq.hopf import relations_residuals

        assert relations_residuals(r1_algebra(), bad) != []


class TestRMatrix:
    PAIRS = ((HALF, HALF), (HALF, ONEJ), (ONEJ, ONEJ))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda p: "-".join(str(x) for x in p)
    )
    def test_triangular_and_intertwines(self, family, pair):
        report = triangularity_check(*pair, family)
        assert report.failures == []
        assert report.suite == "triangularity"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_graded_yang_baxter(self, family):
        r = universal_Rh_r1(HALF, HALF, family)
        parity = r1_generators(HALF, family).parity
        assert ybe_check(r, r, r, (parity, parity, parity)) == []

    def test_families_agree_on_smallest_pair(self):
        # With three-dimensional legs the square of the raising operator
        # vanishes and the two dressings produce the same matrices for the
        # tensor factors that enter the coboundary formula.
        assert universal_Rh_r1(HALF, HALF, "minimal") == universal_Rh_r1(
            HALF, HALF, "hdiag"
        )

    def test_families_are_distinct_realizations(self):
        # On larger legs the dressings are equivalent but not equal
        # representations, so the evaluated matrices differ by a genuine
        # change of basis.  Each passes the Yang-Baxter, triangularity and
        # intertwining checks on its own.
        assert universal_Rh_r1(HALF, ONEJ, "minimal") != universal_Rh_r1(
            HALF, ONEJ, "hdiag"
        )

    def test_classical_limit_is_identity(self):
        r = universal_Rh_r1(HALF, HALF, "minimal")
        at_zero = r.map_entries(lambda v: v.substitute_h(0))
        assert at_zero == GradedMatrix.identity(r.parity)

    def test_poisoned_r_matrix_fails_yang_baxter(self):
        r = universal_Rh_r1(HALF, HALF, "minimal")
        parity = r.parity
        poison = GradedMatrix(parity, {(0, 8): H})
        assert ybe_check(r + poison, r, r, tuple([r1_generators(HALF, "minimal").parity] * 3)) != []

    def test_poisoned_r_matrix_fails_intertwining(self):
        # The unitarity product tau(R) @ R is identity for any matrix of
        # coboundary shape, so corruption must be caught by the coproduct
        # intertwining residual instead.
        rep = r1_generators(HALF, "minimal")
        r = universal_Rh_r1(HALF, HALF, "minimal")
        bad = r + GradedMatrix(r.parity, {(1, 3): H})
        word = r1_algebra().delta["H"]
        straight = word.evaluate([rep, rep])
        flipped = swap_conjugate(straight, rep.parity, rep.parity)
        assert (r @ straight - flipped @ r).is_zero
        assert not (bad @ straight - flipped @ bad).is_zero


class TestNegatedExponentInverse:
    """The R-matrix and the twist property invert a twist exponential as
    the exponential of the negated argument; Gauss-Jordan is the oracle."""

    PAIRS = ((HALF, HALF), (HALF, ONEJ), (ONEJ, HALF))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda p: "-".join(str(x) for x in p)
    )
    def test_inverses_match_gauss_jordan(self, family, pair):
        rep1, rep2 = (r1_generators(j, family) for j in pair)
        gmat = twist_matrix(rep1, rep2)
        ginv = _exp_kron(_th(rep1), rep2.matrix("X"), -H)
        assert ginv @ gmat == GradedMatrix.identity(gmat.parity)
        assert ginv == inverse(gmat)
        g21 = swap_conjugate(twist_matrix(rep2, rep1), rep1.parity, rep2.parity)
        assert universal_Rh_r1(*pair, family) == inverse(g21) @ gmat


class TestTwistProperty:
    PAIRS = ((HALF, HALF), (HALF, ONEJ), (ONEJ, ONEJ))

    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda p: "-".join(str(x) for x in p)
    )
    def test_undressing_makes_words_primitive(self, pair):
        report = twist_property_check(*pair)
        assert report.failures == []

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_words_evaluate_to_classical_generators(self, j):
        rep = r1_generators(j, "minimal")
        cl = classical_rep(j)
        words = inverse_map_words("minimal")
        for name in ("e", "h", "f"):
            assert words[name].evaluate([rep]) == cl.matrix(name)

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_hdiag_words_evaluate_to_classical_generators(self, j):
        rep = r1_generators(j, "hdiag")
        cl = classical_rep(j)
        words = inverse_map_words("hdiag", nilpotency=x_nilpotency(j))
        for name in ("e", "h", "f"):
            assert words[name].evaluate([rep]) == cl.matrix(name)

    @pytest.mark.parametrize("extra", (1, 2, 3))
    def test_hdiag_words_stable_under_longer_truncation(self, extra):
        # the terminating geometric series for sech may be cut anywhere
        # at or past the nilpotency bound without changing the value
        rep = r1_generators(ONEJ, "hdiag")
        base = inverse_map_words("hdiag", nilpotency=x_nilpotency(ONEJ))
        longer = inverse_map_words("hdiag", nilpotency=x_nilpotency(ONEJ) + extra)
        for name in ("e", "h", "f"):
            assert base[name].evaluate([rep]) == longer[name].evaluate([rep])

    def test_hdiag_words_require_bound(self):
        with pytest.raises(ValueError):
            inverse_map_words("hdiag")

    def test_worked_anticommutator(self):
        # {undressed e, undressed f} must equal minus the undressed h,
        # which on the dressed side reads -TH.
        rep = r1_generators(ONEJ, "minimal")
        words = inverse_map_words("minimal")
        ee = words["e"].evaluate([rep])
        ff = words["f"].evaluate([rep])
        th = rep.matrix("T") @ rep.matrix("H")
        assert ee @ ff + ff @ ee == -th

    def test_twist_is_invertible_exponential(self):
        rep1 = r1_generators(HALF, "minimal")
        rep2 = r1_generators(ONEJ, "minimal")
        gmat = twist_matrix(rep1, rep2)
        at_zero = gmat.map_entries(lambda v: v.substitute_h(0))
        assert at_zero == GradedMatrix.identity(gmat.parity)

    def test_expression_matches_matrix_route(self):
        rep1 = r1_generators(HALF, "minimal")
        rep2 = r1_generators(ONEJ, "minimal")
        expr = twist_expression(x_nilpotency(ONEJ))
        assert expr.evaluate([rep1, rep2]) == twist_matrix(rep1, rep2)


class TestCocycle:
    TRIPLES = [
        (a, b, c)
        for a in (HALF, ONEJ)
        for b in (HALF, ONEJ)
        for c in (HALF, ONEJ)
    ]

    @pytest.mark.parametrize(
        "triple", TRIPLES, ids=lambda t: "-".join(str(x) for x in t)
    )
    def test_minimal_cocycle_exact(self, triple):
        report = cocycle_check(*triple, "minimal")
        assert report.failures == []
        assert report.parameters["family"] == "minimal"

    def test_unknown_twist_rejected(self):
        with pytest.raises(ValueError):
            cocycle_check(HALF, HALF, HALF, "neither")

    @pytest.mark.parametrize("letter", ["X", "H"])
    @pytest.mark.parametrize(
        "triple",
        [(HALF, HALF, HALF), (HALF, ONEJ, HALF), (ONEJ, HALF, ONEJ)],
        ids=lambda t: "-".join(str(x) for x in t),
    )
    def test_perturbed_middle_leg_matches_the_expanded_route(self, monkeypatch, triple, letter):
        # The check multiplies the evaluated factors; the reference expands
        # the product of the two sides first and evaluates it once.
        tables = [r1_generators(j, "minimal") for j in triple]
        tables[1] = perturbed(tables[1], letter)
        legs = iter(zip(triple, tables))

        def leg_table(j, family):
            want_j, table = next(legs)
            assert (j, family) == (want_j, "minimal")
            return table

        monkeypatch.setattr(ospq.r1, "r1_generators", leg_table)
        got = cocycle_check(*triple, "minimal").failures
        alg = r1_algebra()
        g = twist_expression(x_nilpotency(triple[1]) + x_nilpotency(triple[2]))
        lhs = tensor_product(g, TE.unit(1)) * g.coproduct(0, alg.delta)
        rhs = tensor_product(TE.unit(1), g) * g.coproduct(1, alg.delta)
        want = matrix_residuals("cocycle", (lhs - rhs).evaluate(tables))
        assert 2 <= len(want) <= 16
        assert got == want


def forbidden(*args):
    raise AssertionError("work started on an oversized input")


def test_oversized_triangularity_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(ospq.r1, "r1_generators", forbidden)
    assert MAX_TRIANGULARITY_DIM == 11 * 11
    refuse_oversized((HALF, HalfInt.from_twice(19)), MAX_TRIANGULARITY_DIM)  # inside
    for pair in ((HalfInt(3), HalfInt(3)), (HALF, HalfInt(10))):
        for family in FAMILIES:
            with pytest.raises(ValueError, match="exceeds the cap of 121"):
                triangularity_check(*pair, family)


def test_oversized_cocycle_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(ospq.r1, "r1_generators", forbidden)
    assert MAX_COCYCLE_SPIN_DIM == 9
    refuse_oversized((HalfInt(2),), MAX_COCYCLE_SPIN_DIM)  # j = 2 is inside
    big = HalfInt.from_twice(5)
    for triple in ((big, HALF, HALF), (HALF, big, HALF), (HALF, HALF, big)):
        for family in FAMILIES:
            with pytest.raises(ValueError, match="exceeds the cap of 9"):
                cocycle_check(*triple, family)


class TestAntipodeTransformer:
    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_minimal_exact(self, j):
        report = antipode_check(j, "minimal")
        assert report.failures == []

    @pytest.mark.parametrize("j", (HALF, ONEJ), ids=str)
    def test_hdiag_through_second_order(self, j):
        report = antipode_check(j, "hdiag")
        assert report.failures == []

    def test_transformer_is_group_like_at_zero(self):
        g = antipode_transformer(ONEJ, "minimal")
        at_zero = g.map_entries(lambda v: v.substitute_h(0))
        assert at_zero == GradedMatrix.identity(g.parity)

    def test_flipped_exponent_fails(self):
        from ospq.nilfun import nil_exp

        rep = r1_generators(ONEJ, "minimal")
        th = rep.matrix("T") @ rep.matrix("H")
        drop = rep.identity() - rep.matrix("Tinv") @ rep.matrix("Tinv")
        wrong = nil_exp((th @ drop).scale(Scalar.from_fraction(Fraction(1, 2))))
        assert wrong != antipode_transformer(ONEJ, "minimal")


class TestDisentanglement:
    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_exact_in_symbolic_h(self, j):
        report = disentangle_check(j)
        assert report.failures == []

    def test_smallest_module_closed_form(self):
        # both sides collapse to 1 - h (h b+) on the three-dimensional module
        cl = classical_rep(HALF)
        expect = GradedMatrix.identity(cl.parity) - (
            cl.matrix("h") @ cl.matrix("b+")
        ).scale(H)
        from ospq.nilfun import nil_exp

        assert nil_exp((cl.matrix("h") @ cl.matrix("b+")).scale(-H)) == expect


class TestEvenSubalgebraContainment:
    """The even letters H, T, Tinv, Y close among themselves."""

    EVEN = {"H", "T", "Tinv", "Y"}

    @staticmethod
    def letters_of(name):
        return set(re.findall(r"[A-Z][a-z]*", name))

    def expression_letters(self, expr):
        used = set()
        for words in expr.terms:
            for word in words:
                used.update(word)
        return used

    def test_relations_stay_inside(self):
        alg = r1_algebra()
        scanned = 0
        for name, expr in alg.relations:
            if self.letters_of(name) <= self.EVEN:
                assert self.expression_letters(expr) <= self.EVEN, name
                scanned += 1
        assert scanned >= 5

    def test_coproducts_stay_inside(self):
        alg = r1_algebra()
        for name in sorted(self.EVEN):
            assert self.expression_letters(alg.delta[name]) <= self.EVEN, name

    def test_odd_letters_do_leak_elsewhere(self):
        # control: the coproduct of F genuinely uses the even letters,
        # so the scan above is not vacuous
        alg = r1_algebra()
        assert not self.expression_letters(alg.delta["F"]) <= self.EVEN


class TestHopfSuites:
    TRIPLES = [
        (a, b, c)
        for a in (HALF, ONEJ)
        for b in (HALF, ONEJ)
        for c in (HALF, ONEJ)
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "triple", TRIPLES, ids=lambda t: "-".join(str(x) for x in t)
    )
    def test_five_suites(self, family, triple):
        report = r1_hopf_check(*triple, family)
        assert report.failures == []
        assert report.parameters["family"] == family
