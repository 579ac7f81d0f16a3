"""Residual checks for the two families' differential systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospq import ode
from ospq.errors import PrecisionShortfall
from ospq.laurent import Laurent
from ospq.ode import (
    RADICAL_READINGS,
    _divide,
    direct_residuals,
    inverse_residuals,
    map_ode_check,
)
from ospq.scalar import ONE

FAMILIES = ("minimal", "hdiag")

#: first surviving coefficient of the third direct equation when its
#: radical is read with the fourth power of the second function, per
#: family; the reading with the first function leaves nothing at all
PHI2_READING_LEAD = {
    "minimal": "order 4: 3*h^5/4",
    "hdiag": "order 5: h^6/16",
}


class TestDirectSystem:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_residuals_vanish(self, family):
        residuals = direct_residuals(family, 12)
        for label in ("eq1", "eq2", "eq3:phi1", "eq4", "eq5", "eq6"):
            assert residuals[label].first_nonzero() is None, label
            assert residuals[label].prec == 13, label

    @pytest.mark.parametrize("family", FAMILIES)
    def test_alternate_radical_reading_fails(self, family):
        residuals = direct_residuals(family, 12)
        lead = residuals["eq3:phi2"].first_nonzero()
        assert lead is not None

    def test_both_readings_are_expanded(self):
        assert RADICAL_READINGS == ("phi1", "phi2")
        assert set(direct_residuals("minimal", 6)) == {
            "eq1",
            "eq2",
            "eq3:phi1",
            "eq3:phi2",
            "eq4",
            "eq5",
            "eq6",
        }

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError):
            direct_residuals("classical", 8)


class TestInverseSystem:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_residuals_vanish(self, family):
        residuals = inverse_residuals(family, 12)
        for label in sorted(residuals):
            assert residuals[label].first_nonzero() is None, label
            assert residuals[label].prec == 13, label

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError):
            inverse_residuals("", 8)


class TestReport:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_suite_passes_at_order_twelve(self, family):
        report = map_ode_check(family, 12)
        assert report.ok
        assert report.failures == []
        assert report.parameters["eq3-radical-phi1"] == "0"
        assert report.parameters["eq3-radical-phi2"] == PHI2_READING_LEAD[family]

    def test_order_below_four_is_rejected(self):
        # Below fourth order the two radical readings agree, so the
        # report could not answer the question it exists for.
        with pytest.raises(ValueError):
            map_ode_check("minimal", 3)

    def test_precision_shortfall_is_not_a_pass(self, monkeypatch):
        # Without the guard orders the derivatives leave residuals known to
        # fewer orders than asked; the order-12 suite must refuse, not pass.
        monkeypatch.setattr(ode, "GUARD", 0)
        with pytest.raises(PrecisionShortfall):
            map_ode_check("minimal", 12)

    @settings(max_examples=8, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        order=st.integers(min_value=4, max_value=10),
    )
    def test_residuals_vanish_at_every_order(self, family, order):
        report = map_ode_check(family, order)
        assert report.ok


class TestSeriesDivision:
    def test_common_zero_at_origin_cancels(self):
        b = Laurent.variable(7)
        quotient = _divide(b + b * b, b)
        assert quotient.prec == 6
        assert (quotient - (1 + b)).first_nonzero() is None

    def test_insufficient_vanishing_is_an_error(self):
        b = Laurent.variable(7)
        one = Laurent.from_scalar(ONE, 7)
        with pytest.raises(ArithmeticError):
            _divide(one, b)

    def test_zero_denominator_is_an_error(self):
        b = Laurent.variable(7)
        with pytest.raises(ZeroDivisionError):
            _divide(b, b - b)
