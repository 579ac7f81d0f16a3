"""Series in a shift against the matrix calculus they replace.

``ShiftSeries`` is checked twice: its ring operations and functions
against the same operations on the matrices it stands for, and every
matrix the package builds from it (the bridge, its inverse and quotients,
the Jordanian letters) against the matrix routes kept in ``references``.
A series wrong in one coefficient must show in the second comparison.
"""

from fractions import Fraction

import pytest

import ospq.nilfun as nilfun
import references
from ospq.contraction import m_inverse, m_matrix, script_t
from ospq.errors import CancellationFailure, NotNilpotent
from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.nilfun import ShiftSeries, check_power, nil_exp, shift_length
from ospq.reps import r1_generators, r2_generators, rep_parity, tilde_t_powers
from ospq.scalar import H, ONE, P, ZERO, rational

from helpers import clear_package_caches

SPINS = [HalfInt.from_twice(t) for t in range(1, 9)]  # j = 1/2, 1, ..., 4
POWERS = [(1, 2), (-1, 2), (1, 4), (-3, 4), (3, 2), (-3, 2), (2, 1)]


@pytest.fixture
def cold_caches():
    clear_package_caches()
    yield
    clear_package_caches()


def shift_matrix(dim: int, step: int) -> GradedMatrix:
    parity = tuple(k % 2 for k in range(dim))
    return GradedMatrix(parity, {(i, i + step): ONE for i in range(dim - step)})


def sample(n: int, *coeffs) -> ShiftSeries:
    return ShiftSeries.poly(n, *coeffs)


class TestShiftSeries:
    @pytest.mark.parametrize("dim, step", [(1, 2), (4, 1), (5, 2), (8, 2), (9, 2)])
    def test_ring_operations_are_those_of_the_matrices(self, dim, step):
        parity = tuple(k % 2 for k in range(dim))
        n = shift_length(dim, step)
        a = sample(n, 2, H, P - ONE, rational(1, 3), H * P)
        b = sample(n, ONE / (P + ONE), 0, -H, 5)
        ma, mb = a.matrix(parity, step), b.matrix(parity, step)
        assert (a * b).matrix(parity, step) == ma @ mb
        assert (a + b).matrix(parity, step) == ma + mb
        assert (a - b).matrix(parity, step) == ma - mb
        assert a.scale(-ONE).matrix(parity, step) == -ma
        assert a.scale(H).matrix(parity, step) == ma.scale(H)
        shift = shift_matrix(dim, step)
        assert a.times_x().matrix(parity, step) == shift @ ma
        assert (a**3).matrix(parity, step) == ma @ ma @ ma
        ident = GradedMatrix.identity(parity)
        assert a.inverse().matrix(parity, step) @ ma == ident
        assert shift**n == GradedMatrix.zero(parity)

    @pytest.mark.parametrize("r", [Fraction(*r) for r in POWERS], ids=str)
    def test_power_is_the_matrix_unit_power(self, r):
        parity = rep_parity(3)
        n = shift_length(len(parity), 2)
        u = sample(n, 1, H + H, -H * P, rational(7, 2))
        want = references.unit_power(u.matrix(parity, 2), r)
        assert u.power(r).matrix(parity, 2) == want

    def test_log_and_exp_are_the_matrix_ones(self):
        parity = rep_parity(HalfInt.from_twice(5))
        n = shift_length(len(parity), 2)
        u = sample(n, 1, H, rational(-1, 3) * H * H, P)
        nil = u - sample(n, 1)
        assert u.log().matrix(parity, 2) == references.nil_log_unit(u.matrix(parity, 2))
        assert nil.exp().matrix(parity, 2) == nil_exp(nil.matrix(parity, 2))
        assert u.log().exp() == u

    @pytest.mark.parametrize("dim, step", [(1, 2), (5, 1), (7, 2), (8, 2)])
    def test_read_takes_a_matrix_back_to_its_series(self, dim, step):
        parity = tuple(k % 2 for k in range(dim))
        n = shift_length(dim, step)
        for series in (sample(n, 1, H, 0, P), sample(n, 0, 0, H), sample(n)):
            assert ShiftSeries.read(series.matrix(parity, step), step) == series

    def test_read_refuses_a_matrix_that_is_no_series(self):
        parity = rep_parity(2)
        good = sample(5, 1, H, 3).matrix(parity, 2)
        off_step = good + GradedMatrix(parity, {(0, 1): H})
        below = good + GradedMatrix(parity, {(3, 1): ONE})
        unequal = good + GradedMatrix(parity, {(2, 4): H})
        missing = GradedMatrix(
            parity, {k: v for k, v in good.entries.items() if k != (6, 8)}
        )
        for m in (off_step, below, unequal, missing):
            assert ShiftSeries.read(m, 2) is None
        assert ShiftSeries.read(good, 2) == sample(5, 1, H, 3)
        # at step 1 the same matrix is the series in e with e^2 for x
        assert ShiftSeries.read(good, 1) == sample(9, 1, 0, H, 0, 3)

    def test_closure_check_rejects_a_wrong_power(self):
        u = sample(4, 1, H + H)
        root = u.power(Fraction(1, 2))
        wrong = ShiftSeries((*root.coeffs[:-1], root.coeffs[-1] + H))
        check_power(root, u, Fraction(1, 2))
        for r, w in ((Fraction(1, 2), wrong), (Fraction(-1, 2), root)):
            with pytest.raises(CancellationFailure, match="closure check"):
                check_power(w, u, r)

    def test_power_runs_its_closure_check(self, monkeypatch):
        # with the last term of each recurrence dropped, the root of
        # 1 + 2 h x comes out as 1, and the check must refuse it
        support = nilfun._support

        def short(coeffs, start=0):
            found = support(coeffs, start)
            return found[:-1] if start else found

        monkeypatch.setattr(nilfun, "_support", short)
        with pytest.raises(CancellationFailure, match="closure check"):
            sample(3, 1, H + H).power(Fraction(1, 2))

    def test_functions_refuse_a_wrong_constant_term(self):
        with pytest.raises(NotNilpotent):
            sample(3, 2, H).power(Fraction(1, 2))
        with pytest.raises(NotNilpotent):
            sample(3, 2, H).log()
        with pytest.raises(NotNilpotent):
            sample(3, 1, H).exp()
        assert sample(3, ZERO, H).exp() == sample(3, 1, H, H * H * rational(1, 2))


# -- everything built from series against the matrix routes ------------------


def mismatches(j) -> list:
    """The names of the bridge matrices and Jordanian letters at spin j
    that differ from their matrix route in ``references``."""
    out = []
    m, minv, quotients = references.bridge(j)
    if m_matrix(j) != m:
        out.append("M")
    if m_inverse(j) != minv:
        out.append("M^-1")
    out += [
        f"script_t:{twice}/2"
        for twice, quotient in quotients.items()
        if script_t(j, HalfInt.from_twice(twice)) != quotient
    ]
    if tilde_t_powers(j) != references.tilde_t_powers(j):
        out.append("tilde_t_powers")
    tables = [(r2_generators(j), references.r2_generators(j))]
    tables += [
        (r1_generators(j, family), references.r1_generators(j, family))
        for family in ("minimal", "hdiag")
    ]
    for built, reference in tables:
        assert built.names() == reference.names()
        out += [
            f"{built.variant}:{name}"
            for name in built.names()
            if built.matrix(name) != reference.matrix(name)
        ]
    return out


@pytest.mark.parametrize("j", SPINS, ids=str)
def test_series_builds_equal_the_matrix_routes(j):
    assert mismatches(j) == []


def test_r2_half_power_runs_its_closure_check(monkeypatch, cold_caches):
    # Tinvhalf = exp(-log T / 2) is checked against T itself
    built = ShiftSeries.exp

    def wrong(self):
        out = built(self)
        return ShiftSeries((*out.coeffs[:-1], out.coeffs[-1] + H))

    monkeypatch.setattr(ShiftSeries, "exp", wrong)
    with pytest.raises(CancellationFailure, match="closure check"):
        r2_generators(HalfInt.from_twice(3))


@pytest.mark.parametrize("op", ["__mul__", "inverse", "power", "log", "exp"])
def test_a_series_wrong_in_one_coefficient_is_caught(monkeypatch, cold_caches, op):
    # the last coefficient of every result of one operation gains h: the
    # oracle comparison, or the closure check on the way, must see it
    built = getattr(ShiftSeries, op)

    def wrong(self, *args):
        out = built(self, *args)
        return ShiftSeries((*out.coeffs[:-1], out.coeffs[-1] + H))

    monkeypatch.setattr(ShiftSeries, op, wrong)
    j = HalfInt.from_twice(3)
    try:
        found = mismatches(j)
    except CancellationFailure:
        return
    assert found != []
