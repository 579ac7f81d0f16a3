"""Brackets and the generator tables."""

from fractions import Fraction

import pytest

from ospq.errors import BadBracketArg
from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.reps import (
    bracket,
    classical_rep,
    plus_factorial,
    q_rep,
    r1_generators,
    rep_dim,
    rep_parity,
)
from ospq.scalar import ONE, P, Scalar, p_power

SPINS = [HalfInt.parse("1/2"), HalfInt(1), HalfInt.parse("3/2"), HalfInt(2)]


def anticommutator(a, b):
    return a @ b + b @ a


def commutator(a, b):
    return a @ b - b @ a


class TestBrackets:
    def test_q_bracket_values(self):
        assert bracket("q", 1) == ONE
        assert bracket("q", 2) == P**2 + P**-2
        assert bracket("q", HalfInt.parse("1/2")) == (P + P**-1).reciprocal()
        # Antisymmetry in x.
        assert bracket("q", -2) == -bracket("q", 2)

    def test_q_bracket_other_base(self):
        # Base q^2 doubles every exponent.
        assert bracket("q", 2, base=2) == P**4 + P**-4
        assert bracket("q", 1, base=2) == ONE

    def test_double_bracket_values(self):
        assert bracket("double", HalfInt.parse("1/2")) == ONE
        assert bracket("double", 1) == P - P**-1
        assert bracket("double", HalfInt.parse("3/2")) == P**2 - ONE + P**-2

    def test_plus_bracket_frozen_values(self):
        assert bracket("plus", 1) == ONE
        assert bracket("plus", 2) == -(P - P**-1)
        assert bracket("plus", 3) == P**2 - ONE + P**-2
        assert bracket("plus", 4) == -(P - P**-1) * (P**2 + P**-2)

    def test_plus_bracket_rejects_bad_args(self):
        with pytest.raises(BadBracketArg):
            bracket("plus", 0)
        with pytest.raises(BadBracketArg):
            bracket("plus", HalfInt.parse("1/2"))
        with pytest.raises(BadBracketArg):
            bracket("plus", 2, base=2)

    def test_curly_bracket_is_geometric_sum(self):
        for a in (2, -2, 4, -4):
            for n in range(1, 5):
                expected = sum(
                    (p_power(HalfInt(a * k)) for k in range(1, n)), ONE
                )
                assert bracket("curly", n, base=a) == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadBracketArg):
            bracket("square", 1)

    def test_plus_factorial(self):
        assert plus_factorial(0) == ONE
        assert plus_factorial(1) == ONE
        assert plus_factorial(2) == -(P - P**-1)
        assert plus_factorial(3) == -(P - P**-1) * (P**2 - ONE + P**-2)
        with pytest.raises(BadBracketArg):
            plus_factorial(-1)


class TestClassicalRep:
    def test_dimensions_and_parity(self):
        for j in SPINS:
            rep = classical_rep(j)
            assert rep.dim == 2 * j.twice + 1
            assert rep.parity == tuple(k % 2 for k in range(rep.dim))

    def test_fundamental_matrices(self):
        rep = classical_rep(HalfInt.parse("1/2"))
        par = rep.parity
        assert rep.matrix("e") == GradedMatrix(par, {(0, 1): ONE, (1, 2): ONE})
        assert rep.matrix("f") == GradedMatrix(par, {(1, 0): -ONE, (2, 1): ONE})
        assert rep.matrix("h") == GradedMatrix(
            par, {(0, 0): ONE, (2, 2): -ONE}
        )

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_defining_relations(self, j):
        rep = classical_rep(j)
        h, e, f = rep.matrix("h"), rep.matrix("e"), rep.matrix("f")
        bp, bm = rep.matrix("b+"), rep.matrix("b-")
        two = Scalar.from_int(2)
        assert commutator(h, e) == e
        assert commutator(h, f) == -f
        assert anticommutator(e, f) == -h
        assert commutator(h, bp) == bp.scale(two)
        assert commutator(h, bm) == -(bm.scale(two))
        assert commutator(bp, bm) == h
        assert commutator(bp, f) == e
        assert commutator(bm, e) == f
        assert bp == e @ e
        assert bm == -(f @ f)

    def test_casimir_like_parity_of_generators(self):
        rep = classical_rep(HalfInt(1))
        assert rep.matrix("e").operator_parity() == 1
        assert rep.matrix("f").operator_parity() == 1
        assert rep.matrix("h").operator_parity() == 0
        assert rep.matrix("b+").operator_parity() == 0


class TestQRep:
    def test_fundamental_matches_display(self):
        rep = q_rep(HalfInt.parse("1/2"))
        par = rep.parity
        assert rep.matrix("e") == GradedMatrix(par, {(0, 1): ONE, (1, 2): ONE})
        assert rep.matrix("f") == GradedMatrix(par, {(1, 0): -ONE, (2, 1): ONE})
        assert rep.matrix("h") == GradedMatrix(
            par, {(0, 0): ONE, (2, 2): -ONE}
        )

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_defining_relations(self, j):
        rep = q_rep(j)
        h, e, f = rep.matrix("h"), rep.matrix("e"), rep.matrix("f")
        assert commutator(h, e) == e
        assert commutator(h, f) == -f
        # {e,f} = -[h]_q with the bracket applied to the weight eigenvalues.
        hq = GradedMatrix(
            rep.parity,
            {
                (k, k): bracket("q", j.twice - k)
                for k in range(rep.dim)
                if j.twice != k
            },
        )
        assert anticommutator(e, f) == -hq

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_classical_limit(self, j):
        rep = q_rep(j)
        cl = classical_rep(j)
        for name in ("h", "e", "f"):
            assert rep.matrix(name).map_entries(
                lambda s: s.limit_p_to_1()
            ) == cl.matrix(name)

    def test_cartan_exponentials(self):
        rep = q_rep(HalfInt(1))
        K, Kinv = rep.matrix("K"), rep.matrix("Kinv")
        t, tinv = rep.matrix("t"), rep.matrix("tinv")
        ident = rep.identity()
        assert K @ Kinv == ident
        assert t @ tinv == ident
        assert K @ K == t
        # Conjugating the raising operator by q^h scales it by q = p^2.
        e = rep.matrix("e")
        assert t @ e @ tinv == e.scale(P**2)
        assert K @ e @ Kinv == e.scale(P)

    def test_spin_one_lowering_coefficients(self):
        rep = q_rep(HalfInt(1))
        f = rep.matrix("f")
        assert f.entry(1, 0) == -(P**2 + P**-2)
        assert f.entry(2, 1) == P**2 - ONE + P**-2
        assert f.entry(3, 2) == -(P**2 - ONE + P**-2)
        assert f.entry(4, 3) == P**2 + P**-2


def test_helpers():
    assert rep_dim(HalfInt.parse("3/2")) == 7
    assert rep_parity(HalfInt.parse("1/2")) == (0, 1, 0)


def test_every_r1_call_form_returns_one_table():
    # the Hopf suite caches and hopf_suite_failures tell legs apart by
    # identity, so each (spin, family) must give one table
    table = r1_generators(HalfInt(1), "minimal")
    assert r1_generators(1) is table
    assert r1_generators(Fraction(1), "minimal") is table
    assert r1_generators(HalfInt(1), family="minimal") is table
    assert r1_generators(1, family="hdiag") is r1_generators(HalfInt(1), "hdiag")
