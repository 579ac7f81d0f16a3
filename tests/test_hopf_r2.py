"""Hopf-algebra verification of the first Jordanian quantization."""

import pytest

from ospq.halfint import HalfInt
from ospq.hopf import (
    HopfAlgebra,
    antipode_residuals,
    coassociativity_residuals,
    counit_residuals,
    delta_homomorphy_residuals,
    r2_algebra,
    r2_hopf_check,
)
from ospq.reps import r2_generators
from ospq.scalar import H
from ospq.texpr import TensorExpression as TE

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)
SPINS = (HALF, ONEJ)


def all_triples():
    return [(a, b, c) for a in SPINS for b in SPINS for c in SPINS]


class TestFiveSuites:
    @pytest.mark.parametrize(
        "triple", all_triples(), ids=lambda t: "-".join(str(x) for x in t)
    )
    def test_every_suite_passes(self, triple):
        report = r2_hopf_check(*triple)
        assert report.failures == []
        assert report.status == "pass"

    def test_report_identity(self):
        report = r2_hopf_check(HALF, HALF, HALF)
        assert report.suite == "hopf-r2"
        assert report.parameters == {"j1": HALF, "j2": HALF, "j3": HALF}


class TestAntipodeOfOddGenerators:
    def test_shifted_antipode_of_second_odd_generator(self):
        # S(F) = -F + (h/2) E satisfies both antipode axioms as printed.
        alg = r2_algebra()
        for j in SPINS:
            rep = r2_generators(j)
            bad = [f for f in antipode_residuals(alg, rep) if ":F" in f[0]]
            assert bad == []

    def test_plain_negation_would_fail(self):
        alg = r2_algebra()
        smap = dict(alg.smap)
        smap["F"] = -TE.letter("F")
        broken = HopfAlgebra(
            "r2-broken", alg.letters, alg.relations, alg.delta, smap, alg.eps
        )
        rep = r2_generators(HALF)
        bad = [f for f in antipode_residuals(broken, rep) if ":F" in f[0]]
        assert bad != []


class TestNegativeControls:
    def test_flipped_mixing_term_breaks_homomorphy(self):
        # negating the h-weighted cross term in the coproduct of the Cartan
        # generator must break homomorphy of the odd anticommutator relation
        alg = r2_algebra()
        delta = dict(alg.delta)
        delta["H"] = (
            TE.pure((("H",), ("Tinv",)))
            + TE.pure((("T",), ("H",)))
            - TE.pure((("E", "Thalf"), ("E", "Tinvhalf"))).scale(H)
        )
        broken = HopfAlgebra(
            "r2-broken", alg.letters, alg.relations, delta, alg.smap, alg.eps
        )
        r1, r2 = r2_generators(HALF), r2_generators(HALF)
        bad = [
            f
            for f in delta_homomorphy_residuals(broken, r1, r2)
            if f[0] == "{E,F}"
        ]
        assert bad != []
        # sanity: the unbroken algebra has no such residuals
        assert delta_homomorphy_residuals(alg, r1, r2) == []

    def test_counit_is_sensitive(self):
        alg = r2_algebra()
        eps = dict(alg.eps)
        eps["T"] = eps["H"]  # wrong: group-like letter must have counit one
        broken = HopfAlgebra(
            "r2-broken", alg.letters, alg.relations, alg.delta, alg.smap, eps
        )
        assert counit_residuals(broken, r2_generators(HALF)) != []


class TestCoassociativityDirect:
    def test_mixed_spin_triple(self):
        alg = r2_algebra()
        reps = [r2_generators(j) for j in (HALF, ONEJ, HALF)]
        assert coassociativity_residuals(alg, *reps) == []
