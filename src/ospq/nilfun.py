"""Functional calculus on nilpotent and unipotent matrices.

exp, log, rational powers and the hyperbolic pair are all terminating
series here because their arguments are nilpotent (or identity plus
nilpotent).  Termination is detected by the powers actually reaching
zero; if that has not happened after ``dim`` steps the argument was not
nilpotent and we refuse to continue.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CancellationFailure, NotNilpotent
from .gmatrix import GradedMatrix
from .scalar import Scalar


def nil_series(n: GradedMatrix, coeff_at) -> GradedMatrix:
    """sum_k coeff_at(k) * n^k for nilpotent n, k from 0 up."""
    out = GradedMatrix.identity(n.parity).scale(_as_scalar(coeff_at(0)))
    term = GradedMatrix.identity(n.parity)
    for k in range(1, n.dim + 1):
        term = term @ n
        if term.is_zero:
            return out
        c = coeff_at(k)
        if c:
            out = out + term.scale(_as_scalar(c))
    raise NotNilpotent(f"no termination after {n.dim} powers")


def _as_scalar(c):
    if isinstance(c, Scalar):
        return c
    return Scalar.from_fraction(Fraction(c))


def nil_exp(n: GradedMatrix) -> GradedMatrix:
    fact = [Fraction(1)]
    for k in range(1, n.dim + 1):
        fact.append(fact[-1] / k)
    return nil_series(n, lambda k: fact[k])


def nil_log_unit(m: GradedMatrix) -> GradedMatrix:
    """log of a unipotent matrix (identity plus nilpotent)."""
    n = m - GradedMatrix.identity(m.parity)
    return nil_series(
        n, lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0)
    )


def unit_power(m: GradedMatrix, r) -> GradedMatrix:
    """(identity plus nilpotent)^r for rational r, with a closure check.

    The binomial series terminates by nilpotency.  Afterwards, for
    r = k/d, the result w is verified to satisfy w^d == m^k exactly, or
    w^d m^(-k) == 1 when k is negative so that no inverse is taken.  The
    check pins the branch and guards the series against bookkeeping
    slips.
    """
    r = Fraction(r)
    n = m - GradedMatrix.identity(m.parity)
    binom = [Fraction(1)]
    for k in range(1, m.dim + 1):
        binom.append(binom[-1] * (r - (k - 1)) / k)
    w = nil_series(n, lambda k: binom[k])
    k, d = r.numerator, r.denominator
    if k >= 0:
        closed = w**d == m**k
    else:
        closed = w**d @ m ** (-k) == GradedMatrix.identity(m.parity)
    if not closed:
        raise CancellationFailure(f"rational power {r} failed its closure check")
    return w


def unit_sqrt(m: GradedMatrix) -> GradedMatrix:
    return unit_power(m, Fraction(1, 2))

