"""Standard R-matrices: closed block form, universal form, Yang-Baxter."""

import pytest

import ospq.qrmatrix
from ospq.gmatrix import GradedMatrix, inverse
from ospq.halfint import HalfInt
from ospq.qrmatrix import MAX_YBE_Q_DIM, universal_Rq, ybe_check_q
from ospq.scalar import ONE, P

from helpers import rq_half_j

HALF = HalfInt.parse("1/2")
THREEHALF = HalfInt.parse("3/2")


class TestClosedFormAgainstUniversal:
    def test_spin_half_half(self):
        assert universal_Rq(HALF, HALF) == rq_half_j(HALF)

    def test_spin_half_one(self):
        assert universal_Rq(HALF, HalfInt(1)) == rq_half_j(HalfInt(1))

    def test_spin_half_threehalf(self):
        assert universal_Rq(HALF, THREEHALF) == rq_half_j(THREEHALF)


class TestUniversalStructure:
    def test_fundamental_corner_entries(self):
        r = universal_Rq(HALF, HALF)
        assert r.entry(0, 0) == P**2  # q^{h(x)h} on the top weight
        assert r.entry(8, 8) == P**2
        assert r.entry(4, 4) == ONE
        # Lowest-weight (x) highest-weight corner picks up q^{-1}.
        assert r.entry(2, 2) == P**-2

    def test_even_operator(self):
        assert universal_Rq(HALF, HalfInt(1)).operator_parity() == 0

    def test_classical_limit_is_identity(self):
        r = universal_Rq(HALF, HALF)
        lim = r.map_entries(lambda s: s.limit_p_to_1())
        assert lim == GradedMatrix.identity(r.parity)

    def test_invertible(self):
        r = universal_Rq(HALF, HALF)
        rinv = inverse(r)
        assert r @ rinv == GradedMatrix.identity(r.parity)

    def test_triangular_in_weight_basis(self):
        # All entries below the diagonal in the tensor basis vanish: the
        # raising/lowering structure only moves weight off the first leg
        # upward and the second leg downward.
        r = universal_Rq(HALF, HalfInt(1))
        d2 = 5
        for (row, col) in r.entries:
            r1, r2 = divmod(row, d2)
            c1, c2 = divmod(col, d2)
            assert r1 <= c1 and r2 >= c2


class TestYangBaxter:
    def test_all_fundamental(self):
        assert ybe_check_q(HALF, HALF, HALF) == []

    def test_mixed_spins(self):
        assert ybe_check_q(HALF, HALF, HalfInt(1)) == []

    @pytest.mark.slow
    def test_spin_one_everywhere(self):
        assert ybe_check_q(HalfInt(1), HALF, HalfInt(1)) == []

    def test_spin_two_everywhere(self):
        # 729 dimensions: decided on packed integers in well under a second
        assert ybe_check_q(2, 2, 2) == []

    def test_oversized_triple_refused_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started on an oversized triple")

        monkeypatch.setattr(ospq.qrmatrix, "universal_Rq", forbidden)
        assert MAX_YBE_Q_DIM == 9 * 9 * 9
        for triple in ((2, 2, HalfInt.from_twice(5)), (HALF, 5, 5), (10, 10, 10)):
            with pytest.raises(ValueError, match="exceeds the cap of 729"):
                ybe_check_q(*triple)

    def test_each_pair_matrix_is_built_once(self):
        universal_Rq.cache_clear()
        assert ybe_check_q(1, 1, 1) == []
        assert universal_Rq.cache_info().misses == 1
        assert universal_Rq(1, HalfInt(1)) is universal_Rq(HalfInt(1), 1)
        assert universal_Rq.cache_info().misses == 1
