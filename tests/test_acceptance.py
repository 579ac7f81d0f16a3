"""The acceptance gate: thirteen exact, time-bounded criteria.

One test per criterion, so a verbose run prints exactly one pass or
fail line for each.  Every comparison is exact; there are no
tolerances anywhere.  Each criterion also asserts its own wall-time
bound, measured around the computation it performs.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from ospq.cli import load_fixture
from ospq.contraction import (
    contract,
    identity_check,
    r2_generators,
    rll_check,
    tilde_t_routes,
)
from ospq.gmatrix import GradedMatrix, swap_conjugate
from ospq.halfint import HalfInt
from ospq.hopf import (
    hopf_suite_failures,
    q_algebra,
    r1_algebra,
    r1_hopf_check,
    r1_relations_check,
    r2_algebra,
    r2_hopf_check,
    relations_residuals,
)
from ospq.ode import map_ode_check
from ospq.qrmatrix import ybe_check, ybe_check_q
from ospq.r1 import (
    antipode_check,
    cocycle_check,
    disentangle_check,
    r1_generators,
    triangularity_check,
    twist_property_check,
    universal_Rh_r1,
)
from ospq.reps import GeneratorTable, q_rep, rep_parity
from ospq.twist import hdiag_twist_check, series_twist

HALF = HalfInt(Fraction(1, 2))
ONEJ = HalfInt(1)
THREEHALF = HalfInt(Fraction(3, 2))
FAMILIES = ("minimal", "hdiag")


@contextmanager
def criterion(number: int, bound: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < bound, (
        f"criterion {number} took {elapsed:.2f}s, bound {bound:.0f}s"
    )
    print(f"criterion {number:2d}: PASS  ({elapsed:.2f}s < {bound:.0f}s)")


def test_criterion_01_golden_nine_by_nine():
    with criterion(1, 1.0):
        assert contract(HALF, HALF).matrix == load_fixture(
            "contract_half_half.json"
        )


def test_criterion_02_golden_fifteen_by_fifteen():
    with criterion(2, 5.0):
        assert contract(HALF, ONEJ).matrix == load_fixture(
            "contract_half_one.json"
        )


def test_criterion_03_all_singularities_cancel():
    with criterion(3, 60.0):
        pairs = ((HALF, HALF), (HALF, ONEJ), (HALF, THREEHALF), (ONEJ, ONEJ))
        for pair in pairs:
            matrix = contract(*pair).matrix
            for value in matrix.entries.values():
                # substituting a number for h must leave a plain rational,
                # which proves the deformation parameter p is gone from
                # every entry rather than hiding behind a removable pole
                value.substitute_h(Fraction(1)).as_fraction()


def test_criterion_04_graded_yang_baxter():
    with criterion(4, 30.0):
        assert ybe_check_q(HALF, HALF, HALF) == []
        parities = (rep_parity(HALF),) * 3
        contracted = contract(HALF, HALF).matrix
        assert ybe_check(contracted, contracted, contracted, parities) == []
        for family in FAMILIES:
            dressed = universal_Rh_r1(HALF, HALF, family)
            assert ybe_check(dressed, dressed, dressed, parities) == []


def test_criterion_05_rll_exchange():
    with criterion(5, 30.0):
        for j in (HALF, ONEJ, THREEHALF):
            assert rll_check(j).ok


def test_criterion_06_relation_lists_under_the_maps():
    with criterion(6, 60.0):
        for j in (HALF, ONEJ, THREEHALF):
            assert relations_residuals(r2_algebra(), r2_generators(j)) == []
            for family in FAMILIES:
                assert r1_relations_check(j, family).ok
        # The sign convention adopted for the odd-square generator is the
        # one the relation lists force; negating it must break both lists
        # already at the smallest spin.
        controls = (
            (r2_generators(HALF), r2_algebra()),
            (r1_generators(HALF, "minimal"), r1_algebra()),
        )
        for table, algebra in controls:
            mats = {name: table.matrix(name) for name in table.names()}
            mats["Y"] = -mats["Y"]
            flipped = GeneratorTable(table.variant, table.j, table.parity, mats)
            assert relations_residuals(algebra, flipped) != []


def test_criterion_07_hopf_axiom_suites():
    with criterion(7, 5.0):
        for triple in product((HALF, ONEJ), repeat=3):
            assert r2_hopf_check(*triple).ok
            for family in FAMILIES:
                assert r1_hopf_check(*triple, family=family).ok
            reps = [q_rep(j) for j in triple]
            assert hopf_suite_failures(q_algebra(), reps) == []


def test_criterion_08_triangularity():
    with criterion(8, 30.0):
        for j1, j2 in ((HALF, HALF), (HALF, ONEJ), (ONEJ, ONEJ)):
            forward = contract(j1, j2).matrix
            backward = contract(j2, j1).matrix
            flipped = swap_conjugate(backward, rep_parity(j1), rep_parity(j2))
            assert flipped @ forward == GradedMatrix.identity(forward.parity)
            for family in FAMILIES:
                assert triangularity_check(j1, j2, family).ok


def test_criterion_09_minimal_twist():
    with criterion(9, 60.0):
        assert twist_property_check(HALF, HALF).ok
        assert twist_property_check(HALF, ONEJ).ok
        assert cocycle_check(HALF, HALF, HALF, twist="minimal").ok
        for j in (HALF, ONEJ, THREEHALF):
            assert antipode_check(j, "minimal").ok


def test_criterion_10_disentanglement():
    with criterion(10, 10.0):
        for j in (HALF, ONEJ, THREEHALF):
            assert disentangle_check(j).ok


def test_criterion_11_series_twist():
    with criterion(11, 10.0):
        series = series_twist(2)
        assert series.display_matched == [True, True]
        assert hdiag_twist_check(HALF, HALF).ok
        for j in (HALF, ONEJ):
            assert antipode_check(j, "hdiag").ok


def test_criterion_12_ode_oracle():
    with criterion(12, 60.0):
        for family in FAMILIES:
            report = map_ode_check(family, 12)
            assert report.ok
            assert report.parameters["eq3-radical-phi1"] == "0"
            assert report.parameters["eq3-radical-phi2"] != "0"


def test_criterion_13_operator_identities():
    with criterion(13, 10.0):
        for j in (HALF, ONEJ, THREEHALF):
            for n in (1, 2, 3):
                assert identity_check(j, n).ok
            routes = tilde_t_routes(j)
            assert routes["closed"] == routes["limit"]
