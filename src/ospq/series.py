"""Truncated exact power series with Scalar coefficients.

A series carries its variable tag, a coefficient list for orders
0..order, and nothing else.  All arithmetic truncates to the shorter
operand, so precision bookkeeping is automatic.  Fractional powers use
the terminating binomial expansion of (1 + u)^r, which is exact because
u has no constant term.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadSeriesHead, DivisionByZero
from .scalar import ONE, ZERO, Scalar


class PowerSeries:
    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        self.var = var
        self.coeffs = tuple(c if isinstance(c, Scalar) else _to_scalar(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, var: str, order: int) -> "PowerSeries":
        value = _to_scalar(value)
        return cls(var, [value] + [ZERO] * order)

    @classmethod
    def variable(cls, var: str, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("order too small to hold the variable itself")
        return cls(var, [ZERO, ONE] + [ZERO] * (order - 1))

    def _check(self, other: "PowerSeries"):
        if self.var != other.var:
            raise ValueError(f"series variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Scalar, Fraction)):
            other = PowerSeries.constant(other, self.var, self.order)
        self._check(other)
        n = min(self.order, other.order)
        return PowerSeries(
            self.var, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Scalar, Fraction)):
            other = PowerSeries.constant(other, self.var, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Fraction)):
            c = _to_scalar(other)
            return PowerSeries(self.var, [ck * c for ck in self.coeffs])
        self._check(other)
        n = min(self.order, other.order)
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a.is_zero:
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(self.var, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Scalar, Fraction)):
            c = _to_scalar(other)
            return PowerSeries(self.var, [ck / c for ck in self.coeffs])
        self._check(other)
        return self * other.reciprocal(min(self.order, other.order))

    def __rtruediv__(self, other):
        return PowerSeries.constant(other, self.var, self.order) / self

    def reciprocal(self, order=None) -> "PowerSeries":
        n = self.order if order is None else min(order, self.order)
        head = self.coeffs[0]
        if head.is_zero:
            raise DivisionByZero("series reciprocal with zero constant term")
        inv_head = head.reciprocal()
        out = [inv_head] + [ZERO] * n
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(1, k + 1):
                if j <= self.order and not self.coeffs[j].is_zero:
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv_head * acc
        return PowerSeries(self.var, out)

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries(self.var, [ZERO])
        return PowerSeries(
            self.var,
            [self.coeffs[k] * k for k in range(1, self.order + 1)],
        )

    def shift(self, by: int) -> "PowerSeries":
        """Multiply by var^by (by >= 0), keeping the truncation order."""
        if by == 0:
            return self
        return PowerSeries(self.var, ([ZERO] * by + list(self.coeffs))[: self.order + 1])

    def rational_power(self, r) -> "PowerSeries":
        """(head 1 series)^r for rational r, via the binomial expansion."""
        r = Fraction(r)
        if self.coeffs[0] != ONE:
            raise BadSeriesHead(
                f"rational power needs constant term 1, got {self.coeffs[0]}"
            )
        n = self.order
        u = PowerSeries(self.var, (ZERO,) + self.coeffs[1:])
        out = PowerSeries.constant(ONE, self.var, n)
        upow = PowerSeries.constant(ONE, self.var, n)
        binom = Fraction(1)
        for k in range(1, n + 1):
            binom = binom * (r - (k - 1)) / k
            upow = upow * u
            if binom:
                out = out + upow * Scalar.from_fraction(binom)
        return out

    def sqrt(self) -> "PowerSeries":
        return self.rational_power(Fraction(1, 2))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def first_nonzero(self):
        """(order, coefficient) of the lowest nonzero term, or None."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                return k, c
        return None

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.var, self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.var == other.var and all(
            self.coeffs[k] == other.coeffs[k] for k in range(n + 1)
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            parts.append(f"({c})*{self.var}^{k}" if k else f"{c}")
        body = " + ".join(parts) if parts else "0"
        return f"PowerSeries[{body} + O({self.var}^{self.order + 1})]"


def _to_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar.from_int(x)
    if isinstance(x, Fraction):
        return Scalar.from_fraction(x)
    raise TypeError(f"cannot use {x!r} as a series coefficient")
