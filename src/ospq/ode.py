"""Series verification of the differential systems behind the dressings.

Substituting the one-parameter ansatz for the dressed generators into
the defining relations produces two systems of six nonlinear ordinary
differential equations: a direct system in the classical nilpotent
variable for the functions (phi1, phi2, phi3, u1, u2), and an inverse
system in the group-like variable for (psi1, psi2, psi3, w1, w2).
Given phi1 (respectively psi1), the remaining four functions have
closed solutions.  This module plugs each family's generating function
and the solved expressions into all twelve equations and expands every
residual as an exact truncated :class:`~ospq.laurent.Laurent` series in
b or s; each residual must vanish identically through the requested
order, and one known through fewer orders raises
:class:`~ospq.errors.PrecisionShortfall`.

The third direct equation needs care.  As printed, its radical is
built from the fourth power of phi2, while the radical in every other
equation uses phi1.  Both readings are expanded here and the report
records the first surviving coefficient of each, so the comparison
settles which reading is consistent with the solved functions.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import Laurent
from .report import VerificationReport
from .scalar import H as HPARAM
from .scalar import rational, scalar_to_string

#: extra working orders, consumed by derivatives and divisions that
#: factor out a zero at the origin
GUARD = 4

RADICAL_READINGS = ("phi1", "phi2")


def _divide(num: Laurent, den: Laurent) -> Laurent:
    """num / den, where den may vanish at the origin if num vanishes as fast."""
    quotient = num / den
    if quotient.val < 0:
        raise ArithmeticError("numerator does not vanish fast enough")
    return quotient


def _pow4(series: Laurent) -> Laurent:
    sq = series * series
    return sq * sq


def direct_residuals(family: str, order: int) -> dict:
    """Residual series of the six direct equations, keyed by label.

    The third equation appears twice, once per radical reading.
    """
    h2 = HPARAM * HPARAM
    b = Laurent.variable(order + GUARD + 1)
    if family == "minimal":
        phi1 = (1 - b * (HPARAM + HPARAM)).rational_power(Fraction(-1, 4))
    elif family == "hdiag":
        phi1 = (1 - (b * b) * (h2 * rational(1, 4))).rational_power(Fraction(-1, 2))
    else:
        raise ValueError(f"unknown dressing family {family!r}")
    phi1p = phi1.derivative()
    rho = (1 + (b * b) * h2 * _pow4(phi1)).sqrt()
    phi2 = (rho * phi1) / (phi1 + b * phi1p * 2)
    phi2p = phi2.derivative()
    phi3 = phi1.reciprocal()
    phi3p = phi3.derivative()
    u1 = b * (phi1 * phi1 * phi1) * (-(h2 * rational(1, 4)))
    u1p = u1.derivative()
    u2 = _divide(1 - rho * phi2, (b * phi1) * 2)
    u2p = u2.derivative()
    rho_print = (1 + (b * b) * h2 * _pow4(phi2)).sqrt()
    cube1 = phi1 * phi1 * phi1
    out = {
        "eq1": (phi1 + b * phi1p * 2) * phi2 - rho * phi1,
        "eq2": b * phi2 * phi3p * 2 - phi2 * phi3 + rho * phi3,
        "eq3:phi1": b * phi2 * u1p * 2 + (phi2 + rho) * u1 + b * rho * cube1 * h2,
        "eq3:phi2": b * phi2 * u1p * 2
        + (phi2 + rho_print) * u1
        + b * rho * cube1 * h2,
        "eq4": (phi2 - b * phi2p * 2 + rho) * u2
        + phi2p * phi3
        + b * phi2 * u2p * 2
        + b * cube1 * phi2 * h2,
        "eq5": phi1 * (b * u2 * 2 - phi3) + rho * phi2,
        "eq6": b * phi1 * (u1 * 2 + u2)
        - b * phi1p * (phi3 - b * u2 * 2)
        + (b * b) * _pow4(phi1) * h2,
    }
    return {label: series.truncate(order + 1) for label, series in out.items()}


def inverse_residuals(family: str, order: int) -> dict:
    """Residual series of the six inverse equations, keyed by label."""
    s = Laurent.variable(order + GUARD + 1)
    t = 1 + s
    ti = t.reciprocal()
    if family == "minimal":
        psi1 = t.rational_power(Fraction(-1, 2))
    elif family == "hdiag":
        psi1 = (
            (t.rational_power(Fraction(1, 2)) + t.rational_power(Fraction(-1, 2)))
            * rational(1, 2)
        ).reciprocal()
    else:
        raise ValueError(f"unknown dressing family {family!r}")
    psi1p = psi1.derivative()
    psi2 = (psi1 * 2) / ((t + ti) * psi1 + (t * t - 1) * psi1p * 2)
    psi2p = psi2.derivative()
    psi3 = psi1.reciprocal()
    psi3p = psi3.derivative()
    w1 = ((t - ti) * HPARAM) / (psi1 * 8)
    w1p = w1.derivative()
    w2 = _divide((t + ti - psi2 * 2) * HPARAM, (t - ti) * psi1 * 2)
    w2p = w2.derivative()
    out = {
        "eq1": (t * t - 1) * psi1p * psi2 * 2 + (t + ti) * psi1 * psi2 - psi1 * 2,
        "eq2": (t * t - 1) * psi2 * psi3p * 2 - (t + ti) * psi2 * psi3 + psi3 * 2,
        "eq3": psi2
        * (
            (t + ti) * w1 * 2
            + (t * t - 1) * w1p * 4
            - (t * t - ti * ti) * psi3 * HPARAM
        )
        + w1 * 4,
        "eq4": (t - ti) * psi2 * (t * w2p * 2 - psi3 * HPARAM)
        + (t * t + 1) * psi2p * psi3 * HPARAM
        + ((t + ti) * psi2 - (t * t - 1) * psi2p * 2 + 2) * w2,
        "eq5": (t - ti) * psi1 * w2 * 2
        - (t + ti) * psi1 * psi3 * HPARAM
        + psi2 * (HPARAM + HPARAM),
        "eq6": (t - ti)
        * psi1
        * (w1 * 4 + (t + ti) * w2 - (t - ti) * psi3 * HPARAM)
        + t * (t - ti) * psi1p * ((t - ti) * w2 * 2 - (t + ti) * psi3 * HPARAM),
    }
    return {label: series.truncate(order + 1) for label, series in out.items()}


def _first_nonzero_note(series: Laurent) -> str:
    lead = series.first_nonzero()
    if lead is None:
        return "0"
    return f"order {lead[0]}: {scalar_to_string(lead[1])}"


# The largest expansion order that ``map_ode_check`` accepts.  Fresh
# ``verify --suite ode`` processes on 2 cores took 0.25, 0.86, 1.9 to 2.2,
# 3.9 to 5.4 and 8.6 s at orders 50, 100, 150, 200 and 250 for the minimal
# family (17 MB throughout), and about half as long for hdiag.
MAX_ODE_ORDER = 150


def map_ode_check(family: str, order: int = 12) -> VerificationReport:
    """Expand all twelve residuals for one family through the given order.

    The suite fails on any surviving coefficient, with the radical of
    the third direct equation taken in its phi1 reading.  Both readings
    of that radical are additionally summarized in the report
    parameters, so the output answers which one the solved functions
    satisfy.  Orders below 4 or above ``MAX_ODE_ORDER`` raise
    ``ValueError`` at once.
    """
    if order < 4:
        raise ValueError("the expansion order must be at least 4")
    if order > MAX_ODE_ORDER:
        raise ValueError(f"expansion order {order} exceeds the cap of {MAX_ODE_ORDER}")
    failures = []
    direct = direct_residuals(family, order)
    inverse = inverse_residuals(family, order)
    for index, label in enumerate(("eq1", "eq2", "eq3:phi1", "eq4", "eq5", "eq6")):
        lead = direct[label].first_nonzero()
        if lead is not None:
            failures.append(
                (f"direct:{label}", (index + 1, lead[0]), scalar_to_string(lead[1]))
            )
    for index, label in enumerate(("eq1", "eq2", "eq3", "eq4", "eq5", "eq6")):
        lead = inverse[label].first_nonzero()
        if lead is not None:
            failures.append(
                (f"inverse:{label}", (index + 1, lead[0]), scalar_to_string(lead[1]))
            )
    return VerificationReport(
        "ode",
        {
            "family": family,
            "order": order,
            "eq3-radical-phi1": _first_nonzero_note(direct["eq3:phi1"]),
            "eq3-radical-phi2": _first_nonzero_note(direct["eq3:phi2"]),
        },
        failures,
    )
