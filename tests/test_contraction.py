"""Contraction of the standard R-matrix to the triangular Jordanian one.

The two golden matrices below were transcribed by hand from the published
displays and frozen here as strings; the code under test must reproduce
them entry for entry with h kept symbolic.
"""

from fractions import Fraction

import pytest

import ospq.contraction
from ospq.contraction import (
    MAX_CONTRACT_DIM,
    MAX_CONTRACT_SPIN_DIM,
    MAX_FRT_HOPF_DIM,
    MAX_FRT_HOPF_SPIN_DIM,
    MAX_IDENTITY_DIM,
    MAX_RLL_DIM,
    ContractionResult,
    bridge_valuations,
    conjugated_cartan,
    L_operator,
    _assemble_blocks,
    _spin_identity_failures,
    contract,
    eta,
    frt_hopf_check,
    frt_rules,
    identity_check,
    l_inverse_words,
    l_operator_words,
    m_inverse,
    m_matrix,
    q_cartan_power,
    rll_check,
    script_t,
    tilde_t,
    tilde_t_routes,
)
from ospq.errors import Inconsistency, PoleAtUnity, PrecisionShortfall
from ospq.gmatrix import (
    GradedMatrix,
    embed_pair,
    graded_kron,
    inverse,
    swap_conjugate,
)
from ospq.halfint import HalfInt
from ospq.hopf import HopfAlgebra, r2_algebra, relations_residuals
from ospq.laurent import Laurent, valuation_floor
from ospq.qrmatrix import universal_Rq, ybe_check
from ospq.report import matrix_residuals
from ospq.reps import (
    GeneratorTable,
    classical_rep,
    q_rep,
    r2_generators,
    refuse_oversized,
    rep_parity,
    tilde_t_powers,
)
from ospq.scalar import (
    H,
    ONE,
    ZERO,
    Scalar,
    rational,
    scalar_from_string,
    scalar_to_string,
)
from ospq.texpr import TensorExpression as TE
from ospq.texpr import tensor_product

from helpers import clear_package_caches, from_rows, series_limit
from references import eq2_series

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)
THREEHALF = HalfInt.from_twice(3)
TWOJ = HalfInt(2)


@pytest.fixture
def cold_caches():
    """Empty caches before the test, and again after it, so that nothing a
    patched builder made stays cached for later tests."""
    clear_package_caches()
    yield
    clear_package_caches()


def mat_from_rows(parity, rows):
    return from_rows(
        parity, [[scalar_from_string(s) for s in row] for row in rows]
    )


GOLDEN_9 = [
    ["1", "0", "h", "0", "h", "0", "-h", "0", "h^2/2"],
    ["0", "1", "0", "0", "0", "h", "0", "0", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "0", "h"],
    ["0", "0", "0", "1", "0", "0", "0", "-h", "0"],
    ["0", "0", "0", "0", "1", "0", "0", "0", "-h"],
    ["0", "0", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0", "-h"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "1"],
]

GOLDEN_15 = [
    ["1", "0", "h", "0", "h^2/2", "0", "h", "0", "h^2/2", "0", "-2*h", "0", "h^2/2", "0", "h^3"],
    ["0", "1", "0", "h", "0", "0", "0", "h", "0", "h^2/2", "0", "-h", "0", "h^2/2", "0"],
    ["0", "0", "1", "0", "h", "0", "0", "0", "h", "0", "0", "0", "0", "0", "h^2/2"],
    ["0", "0", "0", "1", "0", "0", "0", "0", "0", "h", "0", "0", "0", "h", "0"],
    ["0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "2*h"],
    ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "-h", "0", "h^2/2", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "-h", "0", "h^2/2"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "-h", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "-h"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "-h", "0", "h^2/2"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "-h", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "-h"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1"],
]


class TestBridge:
    def test_eta_value(self):
        assert eta() == scalar_from_string("h/(p^4-1)")

    def test_m_matrix_half_is_two_term(self):
        m = m_matrix(HALF)
        rep = q_rep(HALF)
        e2 = rep.matrix("e") @ rep.matrix("e")
        assert m == GradedMatrix.identity(rep.parity) + e2.scale(eta())

    def test_m_matrix_one_has_q2_factorial(self):
        # dim 5: e^2 has nilpotency degree 3, so the series has three terms
        # and the quadratic one is divided by p^4 + p^-4.
        m = m_matrix(ONEJ)
        rep = q_rep(ONEJ)
        e2 = rep.matrix("e") @ rep.matrix("e")
        two = scalar_from_string("(p^8+1)/p^4")
        expected = (
            GradedMatrix.identity(rep.parity)
            + e2.scale(eta())
            + (e2 @ e2).scale(eta() * eta() / two)
        )
        assert m == expected

    def test_inverse_off_the_series_is_the_gauss_jordan_inverse(
        self, monkeypatch, cold_caches
    ):
        # one entry of M moved: M is no series in e^2, so M^-1 comes from
        # Gauss-Jordan, and script_t, a product of series, refuses it
        built = m_matrix

        def perturbed(j):
            m = built(j)
            return m + GradedMatrix(m.parity, {(0, 2): H})

        monkeypatch.setattr(ospq.contraction, "m_matrix", perturbed)
        m = ospq.contraction.m_matrix(ONEJ)
        assert m_inverse(ONEJ) == inverse(m)
        with pytest.raises(Inconsistency):
            script_t(ONEJ, 1)

    def test_eq2_series_rejects_non_nilpotent(self):
        rep = q_rep(HALF)
        with pytest.raises(ArithmeticError):
            eq2_series(rep.identity())

    def test_cartan_power_matches_rep_letter(self):
        for j in (HALF, ONEJ):
            rep = q_rep(j)
            assert q_cartan_power(j, HalfInt(1)) == rep.matrix("t")
            assert q_cartan_power(j, HALF) == rep.matrix("K")

    def test_conjugation_moves_bridge_past_cartan(self):
        for j in (HALF, ONEJ):
            m = m_matrix(j)
            for alpha in (HalfInt(1), HALF, -HALF):
                lhs = inverse(m) @ q_cartan_power(j, alpha) @ m
                rhs = script_t(j, alpha) @ q_cartan_power(j, alpha)
                assert lhs == rhs


class TestGoldenMatrices:
    def test_contract_half_half_matches_display(self):
        res = contract(HALF, HALF)
        parity = (0, 1, 0, 1, 0, 1, 0, 1, 0)
        assert res.matrix == mat_from_rows(parity, GOLDEN_9)

    def test_contract_half_one_matches_display(self):
        res = contract(HALF, ONEJ)
        parity = tuple((i // 5 + i % 5) % 2 for i in range(15))
        assert res.matrix == mat_from_rows(parity, GOLDEN_15)

    def test_contract_is_deterministic(self):
        a = contract(HALF, HALF, log_cancellation=True)
        b = contract(HALF, HALF, log_cancellation=True)
        assert a.matrix == b.matrix
        assert a.log == b.log

    def test_h_zero_gives_identity(self):
        res = contract(HALF, ONEJ)
        at0 = res.matrix.map_entries(lambda s: s.substitute_h(0))
        assert at0 == GradedMatrix.identity(res.matrix.parity)


class TestCancellationLog:
    def test_log_records_true_pole_orders(self):
        res = contract(HALF, HALF, log_cancellation=True)
        log = dict(((i, j), d) for i, j, d in res.log)
        # the corner entry h^2/2 arises from a double pole that cancels
        assert log[(0, 8)] == 2
        assert all(d > 0 for d in log.values())

    def test_log_off_by_default(self):
        assert contract(HALF, HALF).log == ()

    def test_no_pole_for_tested_spin_pairs(self):
        for j1, j2 in ((HALF, THREEHALF), (ONEJ, ONEJ)):
            res = contract(j1, j2)  # raises PoleAtUnity on failure
            assert res.matrix.dim == (2 * j1.twice + 1) * (2 * j2.twice + 1)


def scalar_route(j1, j2):
    """The contraction over Q(p, h), as ``contract`` computed it before the
    series route: conjugate, take each entry's limit, and log the pole
    order of every summand product."""
    rq = universal_Rq(j1, j2)
    m1, m2 = m_matrix(j1), m_matrix(j2)
    big_m = graded_kron(m1, m2, b_op_parity=0)
    big_minv = graded_kron(inverse(m1), inverse(m2), b_op_parity=0)
    right = rq @ big_m
    pre = big_minv @ right
    cols = {}
    for (k, jj), val in right.entries.items():
        cols.setdefault(k, []).append((jj, val))
    worst = {}
    for (i, k), lv in big_minv.entries.items():
        for jj, rv in cols.get(k, ()):
            order = (lv * rv).pole_order_at_p1()
            if order > worst.get((i, jj), 0):
                worst[(i, jj)] = order
    log = tuple((i, jj, d) for (i, jj), d in sorted(worst.items()) if d > 0)
    return pre.map_entries(lambda s: s.limit_p_to_1()), log


def vanishes_at_one(s: Scalar) -> bool:
    at_one = {}
    for (_, eh), c in s.num.items():
        at_one[eh] = at_one.get(eh, 0) + c
    return not any(at_one.values())


SMALL_PAIRS = [
    (a, b) for a in (HALF, ONEJ, THREEHALF) for b in (HALF, ONEJ, THREEHALF)
]


class TestLaurentRoute:
    @pytest.mark.parametrize("pair", SMALL_PAIRS, ids=lambda p: f"{p[0]},{p[1]}")
    def test_matches_scalar_route(self, pair):
        res = contract(*pair, log_cancellation=True)
        matrix, log = scalar_route(*pair)
        assert res.matrix.to_json_dict() == matrix.to_json_dict()
        assert res.log == log

    @pytest.mark.parametrize("pair", SMALL_PAIRS, ids=lambda p: f"{p[0]},{p[1]}")
    def test_bridge_valuations_are_pole_orders(self, pair):
        m1, m2 = m_matrix(pair[0]), m_matrix(pair[1])
        for big in (
            graded_kron(m1, m2, b_op_parity=0),
            graded_kron(inverse(m1), inverse(m2), b_op_parity=0),
        ):
            for s in big.entries.values():
                order = s.pole_order_at_p1()
                assert valuation_floor(s) == -order
                if not vanishes_at_one(s):
                    assert Laurent.from_scalar(s, 1).val == -order

    def test_perturbed_bridge_raises(self, monkeypatch, cold_caches):
        # one entry of M given an extra 1/(p - 1): the conjugation is still a
        # conjugation, but its poles no longer cancel
        built = m_matrix

        def perturbed(j):
            m = built(j)
            entries = dict(m.entries)
            key = min(k for k in entries if k[0] != k[1])
            entries[key] = entries[key] / scalar_from_string("p-1")
            return GradedMatrix(m.parity, entries)

        monkeypatch.setattr(ospq.contraction, "m_matrix", perturbed)
        for pair in ((HALF, HALF), (ONEJ, HALF), (ONEJ, THREEHALF)):
            with pytest.raises(PoleAtUnity):
                contract(*pair)

    def test_coefficient_at_or_beyond_precision_raises(self):
        series = Laurent.from_scalar(scalar_from_string("1/(p-1)"), 0)
        assert series.coefficient(-1) == {0: 1}
        for k in (0, 3):
            with pytest.raises(PrecisionShortfall):
                series.coefficient(k)
        # 1/(p-1) known below t^1 squares to a series known below t^0 only,
        # so its limit must refuse instead of reading a zero
        x = Laurent.from_scalar(scalar_from_string("1/(p-1)"), 1)
        square = x * x
        assert square.prec == 0
        with pytest.raises(PrecisionShortfall):
            series_limit(square)


def global_floor_route(j1, j2):
    """The series route as ``contract`` ran it with one precision per
    operand: each Kronecker product formed over Q(p, h), and every entry
    of an operand expanded as far as the lowest valuation floor of the
    three matrices asks."""
    rq = universal_Rq(j1, j2)
    big_m = graded_kron(m_matrix(j1), m_matrix(j2), b_op_parity=0)
    big_minv = graded_kron(m_inverse(j1), m_inverse(j2), b_op_parity=0)
    fr, fm, fi = (
        min(valuation_floor(s) for s in x.entries.values())
        for x in (rq, big_m, big_minv)
    )

    def expand(m, prec):
        return m.map_entries(lambda s: Laurent.from_scalar(s, prec))

    right = expand(rq, 1 - fi - fm) @ expand(big_m, 1 - fi - fr)
    left = expand(big_minv, 1 - fr - fm)
    cols = {}
    for (k, jj), val in right.entries.items():
        cols.setdefault(k, []).append((jj, val.val))
    worst = {}
    for (i, k), lv in left.entries.items():
        for jj, rv in cols.get(k, ()):
            order = -(lv.val + rv)
            if order > worst.get((i, jj), 0):
                worst[(i, jj)] = order
    log = tuple((i, jj, order) for (i, jj), order in sorted(worst.items()))
    return (left @ right).map_entries(series_limit), log


LADDER = (HALF, ONEJ, THREEHALF, TWOJ)


def shorten(monkeypatch, route: str) -> None:
    """Make the ``Laurent`` constructor ``route`` expand one order less
    than it is asked."""
    expand = getattr(Laurent, route).__func__
    monkeypatch.setattr(
        Laurent, route, classmethod(lambda cls, x, prec: expand(cls, x, prec - 1))
    )


class TestEntrywisePrecision:
    @pytest.mark.parametrize(
        "pair",
        [(a, b) for a in LADDER for b in LADDER],
        ids=lambda p: f"{p[0]},{p[1]}",
    )
    def test_matches_global_floor_route(self, pair):
        res = contract(*pair, log_cancellation=True)
        matrix, log = global_floor_route(*pair)
        assert res.matrix.to_json_dict() == matrix.to_json_dict()
        assert res.log == log

    @pytest.mark.parametrize("pair", [(HALF, HALF), (THREEHALF, THREEHALF)])
    def test_one_order_less_falls_short(self, pair, monkeypatch, cold_caches):
        # every entry of R_q (expanded from its factors), M and M^-1
        # (expanded from Scalars) known one order less than the rule asks:
        # some t^0 coefficient of the product is then unknown.  The series
        # are cut on packed ints, never by Laurent.truncate.
        for route in ("from_scalar", "from_qnumber"):
            shorten(monkeypatch, route)
        monkeypatch.setattr(Laurent, "truncate", None)
        with pytest.raises(PrecisionShortfall):
            contract(*pair)

    @pytest.mark.parametrize("pair", [(HALF, HALF), (HALF, ONEJ), (THREEHALF, THREEHALF)])
    def test_r_matrix_alone_one_order_short(self, pair, monkeypatch, cold_caches):
        # only R_q's entries one order short, the bridge legs as the rule
        # asks: the chain still refuses to read a t^0 coefficient
        shorten(monkeypatch, "from_qnumber")
        monkeypatch.setattr(Laurent, "truncate", None)
        with pytest.raises(PrecisionShortfall, match="coefficient of t\\^0"):
            contract(*pair)

    @pytest.mark.parametrize("pair", [(HALF, HALF), (THREEHALF, THREEHALF)])
    def test_inverse_legs_one_order_short(self, pair, monkeypatch, cold_caches):
        # the legs of M^-1 expanded for need_i lowered by one, while the
        # packed Kronecker product still cuts to need_i: its own check
        # must refuse before any product of the chain is read
        expand = ospq.contraction._bridge_series

        def short(legs, vals, need, axis):
            if axis == 1:
                need = {k: n - 1 for k, n in need.items()}
            return expand(legs, vals, need, axis)

        monkeypatch.setattr(ospq.contraction, "_bridge_series", short)
        with pytest.raises(PrecisionShortfall, match="truncation"):
            contract(*pair)

    def test_bridge_valuations_are_exact(self):
        for j in LADDER:
            for m, vals in zip((m_matrix(j), m_inverse(j)), bridge_valuations(j)):
                assert vals.keys() == m.entries.keys()
                for key, v in vals.items():
                    assert Laurent.from_scalar(m.entries[key], v + 1).val == v


class TestLargeSpins:
    def test_two_two_is_p_free_identity_at_h_zero_and_unitary(self):
        r = contract(TWOJ, TWOJ).matrix
        assert all(
            ep == 0 for s in r.entries.values() for ep, _ in (*s.num, *s.den)
        )
        ident = GradedMatrix.identity(r.parity)
        assert r.map_entries(lambda s: s.substitute_h(0)) == ident
        par = rep_parity(TWOJ)
        assert swap_conjugate(r, par, par) @ r == ident

    def test_oversized_pair_refused_before_any_work(self, monkeypatch, cold_caches):
        def forbidden(*args):
            raise AssertionError("work started on an oversized pair")

        monkeypatch.setattr(ospq.contraction, "m_matrix", forbidden)
        assert MAX_CONTRACT_DIM == 13 * 13
        for pair in ((HalfInt(3), HalfInt.from_twice(7)), (HalfInt(5), HalfInt(5))):
            for source in ("universal", "half-j-formula"):
                with pytest.raises(ValueError, match="exceeds the cap of 169"):
                    contract(*pair, source=source)
        assert MAX_CONTRACT_SPIN_DIM == 21
        refuse_oversized((HalfInt(5),), MAX_CONTRACT_SPIN_DIM)  # j = 5 is inside
        for pair in ((HALF, HalfInt(8)), (HalfInt.from_twice(11), HALF)):
            for source in ("universal", "half-j-formula"):
                with pytest.raises(ValueError, match="exceeds the cap of 21"):
                    contract(*pair, source=source)


def test_oversized_rll_refused_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started on an oversized spin")

    for name in ("universal_Rq_factors", "m_matrix", "r2_generators"):
        monkeypatch.setattr(ospq.contraction, name, forbidden)
    assert MAX_RLL_DIM == 9 * 21
    refuse_oversized((HALF, HALF, HalfInt(5)), MAX_RLL_DIM)  # j = 5 is inside
    for j in (HalfInt.from_twice(11), HalfInt(8)):
        with pytest.raises(ValueError, match="exceeds the cap of 189"):
            rll_check(j)


def test_oversized_frt_hopf_refused_before_any_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started on an oversized spin")

    monkeypatch.setattr(ospq.contraction, "r2_generators", forbidden)
    assert (MAX_FRT_HOPF_SPIN_DIM, MAX_FRT_HOPF_DIM) == (129, 65 * 65)
    refuse_oversized((HalfInt(32),), MAX_FRT_HOPF_SPIN_DIM)  # j = 32 is inside
    refuse_oversized((HalfInt(16), HalfInt(16)), MAX_FRT_HOPF_DIM)  # so is (16, 16)
    for pair in ((HALF, HalfInt.from_twice(65)), (HalfInt(40), HALF)):
        with pytest.raises(ValueError, match="exceeds the cap of 129"):
            frt_hopf_check(*pair)
    # 67 * 65 and 33 * 129: each spin is inside, the pair is not
    for pair in ((HalfInt.from_twice(33), HalfInt(16)), (HalfInt(8), HalfInt(32))):
        with pytest.raises(ValueError, match="exceeds the cap of 4225"):
            frt_hopf_check(*pair)


def test_oversized_identities_refused_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started on an oversized spin")

    for name in ("q_rep", "m_matrix"):
        monkeypatch.setattr(ospq.contraction, name, forbidden)
    assert MAX_IDENTITY_DIM == 13
    refuse_oversized((HalfInt(3),), MAX_IDENTITY_DIM)  # j = 3 is inside
    for j in (HalfInt.from_twice(7), HalfInt(8)):
        with pytest.raises(ValueError, match="exceeds the cap of 13"):
            identity_check(j, 1)


class TestSources:
    def test_formula_equals_universal(self):
        for j in (HALF, ONEJ, THREEHALF, TWOJ, HalfInt.from_twice(5), HalfInt(3)):
            a = contract(HALF, j)
            b = contract(HALF, j, source="half-j-formula")
            assert a.matrix == b.matrix
            assert isinstance(a, ContractionResult)
            assert b.source == "half-j-formula"

    def test_formula_needs_spin_half_first_leg(self):
        with pytest.raises(ValueError):
            contract(ONEJ, ONEJ, source="half-j-formula")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            contract(HALF, HALF, source="numerology")


class TestGroupLike:
    def test_routes_agree(self):
        for j in (HALF, ONEJ, THREEHALF):
            routes = tilde_t_routes(j)
            assert routes["closed"] == routes["limit"]

    def test_difference_relation(self):
        for j in (HALF, ONEJ):
            cl = classical_rep(j)
            e2 = cl.matrix("e") @ cl.matrix("e")
            tt = tilde_t(j)
            tinv = inverse(tt)
            assert tt - tinv == e2.scale(H + H)

    def test_classical_limit_is_identity(self):
        tt = tilde_t(ONEJ).map_entries(lambda s: s.substitute_h(0))
        assert tt == GradedMatrix.identity(rep_parity(ONEJ))


class TestJordanianGenerators:
    def test_all_relations_hold(self):
        alg = r2_algebra()
        for j in (HALF, ONEJ, THREEHALF):
            assert relations_residuals(alg, r2_generators(j)) == []

    def test_classical_limit_recovers_lie_superalgebra(self):
        for j in (HALF, ONEJ):
            rep = r2_generators(j)
            cl = classical_rep(j)
            for new, old in (("E", "e"), ("F", "f"), ("H", "h"), ("X", "b+"), ("Y", "b-")):
                got = rep.matrix(new).map_entries(lambda s: s.substitute_h(0))
                assert got == cl.matrix(old), (new, old)

    def test_wrong_sign_square_fails_relations(self):
        # the relation list pins the sign of the odd square: +F^2 breaks it
        rep = r2_generators(ONEJ)
        mats = {name: rep.matrix(name) for name in rep.names()}
        mats["Y"] = rep.matrix("F") @ rep.matrix("F")
        flipped = GeneratorTable("jordanian-r2", ONEJ, rep.parity, mats)
        labels = {f[0] for f in relations_residuals(r2_algebra(), flipped)}
        assert "F^2" in labels

    def test_printed_mixed_term_sign_is_inconsistent(self):
        # The two candidate corrections in the [H,Y] relation differ by
        # (h/2) F (T - Tinv) E, which vanishes on the 3-dim module but not
        # beyond; only the plus sign on the F-side term closes the algebra.
        rep = r2_generators(ONEJ)
        Hm, E, F, Y = (rep.matrix(x) for x in "HEFY")
        T, Ti = rep.matrix("T"), rep.matrix("Tinv")
        P, M = T + Ti, T - Ti
        half = Scalar.from_fraction(Fraction(1, 2))
        quarter = Scalar.from_fraction(Fraction(1, 4))
        comm = Hm @ Y - Y @ Hm
        sym = (P @ Y + Y @ P).scale(half)
        emf = (E @ M @ F).scale(H * quarter)
        fme = (F @ M @ E).scale(H * quarter)
        assert comm + sym + emf - fme == GradedMatrix.zero(rep.parity)
        printed_residual = comm + sym + emf + fme
        assert printed_residual == (F @ M @ E).scale(H * half)
        assert not printed_residual.is_zero

    def test_mixed_term_readings_agree_on_three_dim_module(self):
        rep = r2_generators(HALF)
        E, F = rep.matrix("E"), rep.matrix("F")
        M = rep.matrix("T") - rep.matrix("Tinv")
        assert (F @ M @ E).is_zero


def evaluated_bridge_blocks(j) -> list:
    """The conjugation and additivity residuals of ``_spin_identity_failures``
    with every product formed: the route the certificate replaces."""
    c = ospq.contraction
    half = HalfInt.from_twice(1)
    alphas = [HalfInt(1), HalfInt(-1), half, -half]
    fails = []
    for alpha in alphas:
        lhs = c.m_inverse(j) @ q_cartan_power(j, alpha) @ c.m_matrix(j)
        fails += matrix_residuals(
            f"conjugation:alpha={alpha}", lhs - c.conjugated_cartan(j, alpha)
        )
    for alpha in alphas:
        for beta in alphas:
            lhs = c.conjugated_cartan(j, alpha + beta)
            rhs = c.conjugated_cartan(j, alpha) @ c.conjugated_cartan(j, beta)
            fails += matrix_residuals(f"additivity:alpha={alpha},beta={beta}", lhs - rhs)
    return fails


def bridge_blocks_and_cartan_products(j) -> tuple:
    """The conjugation and additivity failures of a cold
    ``_spin_identity_failures(j)``, and how many products of two
    conjugated Cartan matrices it formed."""
    operands = []
    matmul = GradedMatrix.__matmul__

    def recording(a, b):
        operands.append((a, b))
        return matmul(a, b)

    GradedMatrix.__matmul__ = recording
    try:
        fails = _spin_identity_failures(j)
    finally:
        GradedMatrix.__matmul__ = matmul
    cartans = [conjugated_cartan(j, HalfInt.from_twice(t)) for t in range(-4, 5)]

    def is_cartan(m):
        return any(m is c for c in cartans)

    products = sum(is_cartan(a) and is_cartan(b) for a, b in operands)
    bridge = [f for f in fails if f[0].startswith(("conjugation:", "additivity:"))]
    return bridge, products


def conjugation_products(j) -> tuple:
    """The conjugation failures of a cold ``_spin_identity_failures(j)``,
    and how many products M^-1 q^{gamma h} it formed."""
    c = ospq.contraction
    operands = []
    matmul = GradedMatrix.__matmul__

    def recording(a, b):
        operands.append((a, b))
        return matmul(a, b)

    GradedMatrix.__matmul__ = recording
    try:
        fails = _spin_identity_failures(j)
    finally:
        GradedMatrix.__matmul__ = matmul
    minv, big_m = c.m_inverse(j), c.m_matrix(j)
    products = sum(a == minv and b != big_m for a, b in operands)
    return [f for f in fails if f[0].startswith("conjugation:")], products


class TestIdentities:
    @pytest.mark.parametrize("twice_j", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reordering_and_bridge_rules(self, twice_j, n):
        report = identity_check(HalfInt.from_twice(twice_j), n)
        assert report.failures == []
        assert report.status == "pass"

    def test_cold_caches_give_the_warm_report(self):
        keys = [(j, n) for j in (HALF, ONEJ, THREEHALF) for n in (1, 2, 3)]
        for key in keys:
            identity_check(*key)  # fills the caches
        warm = {key: identity_check(*key).to_json_dict() for key in keys}
        for key in keys:
            clear_package_caches()
            assert identity_check(*key).to_json_dict() == warm[key]

    def test_perturbed_quotient_breaks_conjugation_and_additivity(
        self, monkeypatch, cold_caches
    ):
        built = script_t

        # only spin 1 is perturbed, so a block cached under the wrong spin
        # shows as a pass at spin 1 or a failure at spin 1/2
        def perturbed(j, alpha):
            m = built(j, alpha)
            if j != ONEJ:
                return m
            entries = dict(m.entries)
            entries[(0, 0)] = entries[(0, 0)] + H
            return GradedMatrix(m.parity, entries)

        monkeypatch.setattr(ospq.contraction, "script_t", perturbed)
        assert identity_check(HALF, 1).ok
        report = identity_check(ONEJ, 1)
        labels = {label.split(":")[0] for label, _, _ in report.failures}
        assert {"conjugation", "additivity"} <= labels

    @pytest.mark.parametrize("j", (HALF, ONEJ, THREEHALF, TWOJ), ids=str)
    def test_bridge_blocks_match_the_evaluated_route(self, j, cold_caches):
        got, products = bridge_blocks_and_cartan_products(j)
        assert got == evaluated_bridge_blocks(j) == []
        # certified: no product of two conjugated Cartan matrices is formed
        assert products == 0

    def test_perturbed_inverse_bridge_takes_the_evaluated_route(
        self, monkeypatch, cold_caches
    ):
        # h in the top right corner of M^-1 adds h E[0, last] (q^{gamma h} M
        # - E(q^{2 gamma} eta e^2) q^{gamma h}) to each conjugation
        # residual, which is zero: the last rows of M and of every E(...)
        # are those of the identity.  For the same reason the limits at
        # p = 1 stay finite.  Only M^-1 M = 1 fails, so the certificate
        # must not hold, and the sixteen additivity products give today's
        # residuals.
        built = m_inverse

        def perturbed(j):
            m = built(j)
            if j != ONEJ:
                return m
            entries = dict(m.entries)
            corner = (0, m.dim - 1)
            entries[corner] = entries.get(corner, ZERO) + H
            return GradedMatrix(m.parity, entries)

        monkeypatch.setattr(ospq.contraction, "m_inverse", perturbed)
        got, products = bridge_blocks_and_cartan_products(ONEJ)
        want = evaluated_bridge_blocks(ONEJ)
        assert got == want
        assert {label.split(":")[0] for label, _, _ in want} == {"additivity"}
        assert products == 16
        assert bridge_blocks_and_cartan_products(HALF) == ([], 0)

    @pytest.mark.parametrize("j", (HALF, ONEJ, THREEHALF, TWOJ), ids=str)
    def test_certified_conjugation_forms_no_bridge_product(self, j, cold_caches):
        assert conjugation_products(j) == ([], 0)

    def test_uncertified_conjugation_forms_each_bridge_product(
        self, monkeypatch, cold_caches
    ):
        # M^-1 M = 1 fails, as in the test above, so the conjugation rule
        # is evaluated at all nine gammas
        built = m_inverse

        def perturbed(j):
            m = built(j)
            corner = (0, m.dim - 1)
            return m + GradedMatrix(m.parity, {corner: H})

        monkeypatch.setattr(ospq.contraction, "m_inverse", perturbed)
        assert conjugation_products(ONEJ) == ([], 9)

    def test_inverse_off_by_a_corner_fails_the_rule_with_true_quotients(
        self, monkeypatch, cold_caches
    ):
        # the quotients stay those of the true M^-1, so m_k q^{2 gamma k} =
        # (m s)_k holds at every gamma; only M^-1 M = 1 tells that the
        # corner of M^-1 leaves h q^{gamma h}[last] E[0, last] in every
        # conjugation residual
        quotients = {
            gamma: script_t(ONEJ, gamma)
            for gamma in map(HalfInt.from_twice, range(-4, 5))
        }
        built = m_inverse

        def perturbed(j):
            m = built(j)
            return m + GradedMatrix(m.parity, {(0, m.dim - 1): H})

        monkeypatch.setattr(ospq.contraction, "m_inverse", perturbed)
        monkeypatch.setattr(ospq.contraction, "script_t", lambda j, a: quotients[a])
        fails, products = conjugation_products(ONEJ)
        alphas = {"1", "-1", "1/2", "-1/2"}
        assert {label for label, _, _ in fails} == {f"conjugation:alpha={a}" for a in alphas}
        assert products == 9

    def test_quotient_off_the_series_is_evaluated(self, monkeypatch, cold_caches):
        # one diagonal entry of S at gamma = 1 moved: S no longer reads
        # back as a series, so the conjugation rule there is evaluated
        # and fails, and no other gamma is touched
        built = script_t

        def perturbed(j, alpha):
            m = built(j, alpha)
            if alpha != 1:
                return m
            return m + GradedMatrix(m.parity, {(0, 0): H})

        monkeypatch.setattr(ospq.contraction, "script_t", perturbed)
        fails, products = conjugation_products(ONEJ)
        assert {label for label, _, _ in fails} == {"conjugation:alpha=1"}
        assert products == 1

    def test_series_quotient_off_the_rule_is_evaluated(self, monkeypatch, cold_caches):
        # S at gamma = 1 plus h times the identity still reads back as a
        # series, but m_k q^{2k} = (m s)_k fails at k = 0, so the rule there
        # is evaluated and fails
        built = script_t

        def perturbed(j, alpha):
            m = built(j, alpha)
            if alpha != 1:
                return m
            return m + GradedMatrix.identity(m.parity).scale(H)

        monkeypatch.setattr(ospq.contraction, "script_t", perturbed)
        fails, products = conjugation_products(ONEJ)
        assert {label for label, _, _ in fails} == {"conjugation:alpha=1"}
        assert products == 1

    def test_n_free_blocks_are_built_once_per_spin(self, cold_caches):
        for n in (1, 2, 3):
            assert identity_check(THREEHALF, n).ok
        assert _spin_identity_failures.cache_info().misses == 1
        assert q_rep.cache_info().misses == 1

    def test_perturbed_jordanian_t_breaks_the_tilde_blocks(
        self, monkeypatch, cold_caches
    ):
        # the closed route of the group-like element is the T of
        # tilde_t_powers, so a fault there must show against the limit
        built = tilde_t_powers

        def perturbed(j):
            big_t, big_tinv, thalf = built(j)
            return big_t + GradedMatrix(big_t.parity, {(0, 0): H}), big_tinv, thalf

        monkeypatch.setattr(ospq.contraction, "tilde_t_powers", perturbed)
        report = identity_check(1, 1)
        labels = {label for label, _, _ in report.failures}
        assert "tilde-closed-vs-limit" in labels

    def test_tilde_blocks_build_no_jordanian_table(self, cold_caches):
        # T, its inverse and its square root come from tilde_t_powers, so
        # the identities never build F, X, Y or Tinvhalf
        assert identity_check(1, 1).ok
        assert r2_generators.cache_info().currsize == 0
        assert tilde_t_powers.cache_info().currsize == 1


@pytest.mark.parametrize(
    "builder",
    [
        q_rep,
        classical_rep,
        r2_generators,
        tilde_t_powers,
        m_matrix,
        m_inverse,
        bridge_valuations,
        _spin_identity_failures,
    ],
    ids=lambda b: b.__name__,
)
def test_int_and_halfint_spins_share_one_cache_entry(builder, cold_caches):
    first = builder(1)
    assert builder(HalfInt(1)) is first
    assert builder.cache_info().misses == 1


def test_several_spin_arguments_share_one_cache_entry(cold_caches):
    for builder in (script_t, conjugated_cartan):
        first = builder(1, -1)
        assert builder(HalfInt(1), HalfInt(-1)) is first
        assert builder.cache_info().misses == 1


def test_contract_inverts_each_bridge_once(cold_caches):
    for pair in ((ONEJ, THREEHALF), (THREEHALF, ONEJ), (ONEJ, ONEJ)):
        contract(*pair)
    assert m_inverse.cache_info().misses == 2


def test_contract_is_built_once_per_spins_and_source(cold_caches):
    shared = ospq.contraction._shared_contraction
    first = contract(HALF, 1)
    assert contract(HalfInt.from_twice(1), ONEJ) is first
    assert contract(Fraction(1, 2), HalfInt(1), source="universal") is first
    formula = contract(HALF, ONEJ, source="half-j-formula")
    assert formula is not first and formula.matrix == first.matrix
    # the cancellation log is built afresh on every call
    logged = contract(HALF, ONEJ, log_cancellation=True)
    assert logged is not first and logged.log and not first.log
    assert logged.matrix == first.matrix
    assert contract(HALF, ONEJ, log_cancellation=True) is not logged
    assert shared.cache_info().misses == 2
    # oversized pairs are refused before the cache
    with pytest.raises(ValueError, match="exceeds the cap"):
        contract(HalfInt(5), HalfInt(5))
    assert shared.cache_info().misses == 2


class TestLOperator:
    def test_half_case_is_the_golden_matrix(self):
        parity = (0, 1, 0, 1, 0, 1, 0, 1, 0)
        assert L_operator(HALF) == mat_from_rows(parity, GOLDEN_9)

    def test_inverse_closed_form(self):
        for j in (HALF, ONEJ, THREEHALF):
            ell = L_operator(j)
            linv = _assemble_blocks(l_inverse_words(), r2_generators(j))
            ident = GradedMatrix.identity(ell.parity)
            assert ell @ linv == ident
            assert linv @ ell == ident

    @pytest.mark.parametrize("twice_j", [1, 2, 3])
    def test_exchange_relation(self, twice_j):
        report = rll_check(HalfInt.from_twice(twice_j))
        assert report.failures == []

    def test_exchange_relation_detects_corruption(self):
        r = contract(HALF, HALF).matrix
        ell = L_operator(HALF)
        bad = dict(ell.entries)
        bad[(0, 2)] = bad[(0, 2)] + ONE  # poison one h-entry
        ell_bad = GradedMatrix(ell.parity, bad)
        ps = (rep_parity(HALF),) * 3
        r12 = embed_pair(r, ps, (0, 1))
        l1 = embed_pair(ell_bad, ps, (0, 2))
        l2 = embed_pair(ell_bad, ps, (1, 2))
        assert not (r12 @ l1 @ l2 - l2 @ l1 @ r12).is_zero

    @pytest.mark.parametrize("pair", [(1, 2), (2, 2), (2, 1)])
    def test_matrix_hopf_structure(self, pair):
        report = frt_hopf_check(
            HalfInt.from_twice(pair[0]), HalfInt.from_twice(pair[1])
        )
        assert report.failures == []


def reference_frt_failures(alg, rep1, rep2):
    """The FRT rules checked by three direct evaluate loops, the counit
    rules read off as scalars: the route the labelled rules replaced."""
    words, inv_words = l_operator_words(), l_inverse_words()
    fails = []
    for a in range(3):
        for c in range(3):
            lhs = words[a][c].coproduct(0, alg.delta)
            rhs = TE(2, {})
            for b in range(3):
                rhs = rhs + tensor_product(words[a][b], words[b][c])
            diff = (lhs - rhs).evaluate([rep1, rep2])
            fails += matrix_residuals(f"coproduct:L[{a}][{c}]", diff)
    for a in range(3):
        for c in range(3):
            got = words[a][c].counit(0, alg.eps).terms.get((), ZERO)
            want = ONE if a == c else ZERO
            if got != want:
                fails.append(
                    (f"counit:L[{a}][{c}]", (0, 0), scalar_to_string(got - want))
                )
    for a in range(3):
        for c in range(3):
            lhs = words[a][c].antipode(0, alg.smap).evaluate([rep1])
            rhs = inv_words[a][c].evaluate([rep1])
            fails += matrix_residuals(f"antipode:L[{a}][{c}]", lhs - rhs)
    return sorted(fails)


def perturbed(name, change):
    """A builder of spin-j r2 tables with letter ``name`` changed, a fresh
    table per call.  L has no F, so only its own letters are perturbed."""

    def build(j):
        good = r2_generators(j)
        mats = dict(good.matrices)
        mats[name] = change(mats[name])
        return GeneratorTable(good.variant, good.j, good.parity, mats)

    return build


PERTURBED = {
    "T-doubled": perturbed("T", lambda m: m.scale(rational(2))),
    "Thalf-plus-h": perturbed("Thalf", lambda m: m + GradedMatrix(m.parity, {(0, 1): H})),
}


def blocks(failures) -> set:
    return {label.split(":")[0] for label, _, _ in failures}


class TestFrtRules:
    """``frt_hopf_check`` runs its rules through the Hopf suites' residual
    path; the direct loops are its reference."""

    @pytest.mark.parametrize("j1", [HALF, ONEJ, THREEHALF])
    @pytest.mark.parametrize("j2", [HALF, ONEJ, THREEHALF])
    def test_matches_the_direct_loops(self, j1, j2):
        want = reference_frt_failures(r2_algebra(), r2_generators(j1), r2_generators(j2))
        assert want == []
        assert frt_hopf_check(j1, j2).failures == want

    @pytest.mark.parametrize("case", sorted(PERTURBED))
    @pytest.mark.parametrize("pair", [(HALF, ONEJ), (ONEJ, HALF)])
    def test_matches_on_a_perturbed_table(self, monkeypatch, case, pair):
        build = PERTURBED[case]
        monkeypatch.setattr(ospq.contraction, "r2_generators", build)
        got = frt_hopf_check(*pair).failures
        want = reference_frt_failures(r2_algebra(), *(build(j) for j in pair))
        assert got == want
        assert blocks(want) == {"coproduct", "antipode"}

    def test_matches_on_a_perturbed_counit(self, monkeypatch):
        good = r2_algebra()
        bad = HopfAlgebra(
            "r2-eps(T)=2", good.letters, good.relations, good.delta, good.smap,
            {**good.eps, "T": rational(2)},
        )
        monkeypatch.setattr(ospq.contraction, "r2_algebra", lambda: bad)
        rep = r2_generators(HALF)
        got = frt_hopf_check(HALF, HALF).failures
        assert got == reference_frt_failures(bad, rep, rep)
        counit = [item for item in got if item[0].startswith("counit:")]
        assert counit == [
            ("counit:L[0][0]", (0, 0), "1"),
            ("counit:L[0][2]", (0, 0), "h/4"),
        ]

    def test_rules_are_built_once_per_algebra(self):
        alg = r2_algebra()
        assert frt_rules(alg) is frt_rules(alg)
        coproduct, counit, antipode = frt_rules(alg)
        assert {expr.nlegs for _, expr in coproduct} == {2}
        assert {expr.nlegs for _, expr in counit} == {0}
        assert {expr.nlegs for _, expr in antipode} == {1}
        assert len(coproduct) == len(counit) == len(antipode) == 9


def test_rll_residuals_are_the_direct_product_difference(monkeypatch):
    ell = L_operator(HALF)
    bad = dict(ell.entries)
    bad[(0, 2)] = bad[(0, 2)] + ONE  # poison one h-entry
    ell_bad = GradedMatrix(ell.parity, bad)
    monkeypatch.setattr(ospq.contraction, "L_operator", lambda j: ell_bad)
    r = contract(HALF, HALF).matrix
    ps = (rep_parity(HALF),) * 3
    r12 = embed_pair(r, ps, (0, 1))
    l1 = embed_pair(ell_bad, ps, (0, 2))
    l2 = embed_pair(ell_bad, ps, (1, 2))
    want = matrix_residuals("RLL", r12 @ l1 @ l2 - l2 @ l1 @ r12)
    assert want
    assert rll_check(HALF).failures == want


class TestContractedYBE:
    def test_contracted_r_satisfies_braid_exchange(self):
        r = contract(HALF, HALF).matrix
        ps = (rep_parity(HALF),) * 3
        assert ybe_check(r, r, r, ps) == []
