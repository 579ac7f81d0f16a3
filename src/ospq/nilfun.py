"""Functional calculus on nilpotent matrices and on series in a shift.

The exponential of a nilpotent matrix is a terminating series.
Termination is detected by the powers actually reaching zero; if that
has not happened after ``dim`` steps the argument was not nilpotent and
we refuse to continue.

Most such arguments in the package are functions of one shift: on every
module e is the unit shift, so e^2 shifts by two with unit entries, and a
function of it is the upper-triangular Toeplitz matrix sum_k c_k S^k of
one power series.  :class:`ShiftSeries` computes those functions on the
coefficients alone.  With S^n = 0, the series mod x^n and the matrices
sum_k c_k S^k form isomorphic rings, so a product, inverse, rational power,
log or exp of such matrices is a truncated power-series operation (Knuth,
TAOCP vol. 2, section 4.7) on n coefficients instead of a matrix
computation on n^2 entries, and it gives the same exact entries.
:meth:`ShiftSeries.read` takes a matrix back to its series, or to None
when it is not one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CancellationFailure, NotNilpotent
from .gmatrix import GradedMatrix
from .scalar import ONE, ZERO, Scalar


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


# -- series in a shift -------------------------------------------------------


def shift_length(dim: int, step: int) -> int:
    """The n with S^(n-1) != 0 = S^n for the shift S by ``step`` on a
    space of dimension ``dim``: the length of a series that S reaches."""
    return (dim - 1) // step + 1


class ShiftSeries:
    """c_0 + c_1 x + ... + c_{n-1} x^{n-1} over ``Scalar``, read mod x^n.

    Series of one length form a ring; every operation keeps the length.
    Built once, a series is never changed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, n: int, coeff_at) -> "ShiftSeries":
        """The series of length n whose k-th coefficient is coeff_at(k)."""
        return cls(_as_scalar(coeff_at(k)) for k in range(n))

    @classmethod
    def poly(cls, n: int, *coeffs) -> "ShiftSeries":
        """The polynomial coeffs[0] + coeffs[1] x + ... mod x^n."""
        return cls.of(n, lambda k: coeffs[k] if k < len(coeffs) else 0)

    @classmethod
    def read(cls, m: GradedMatrix, step: int):
        """The series whose matrix at ``step`` is ``m``, or None if ``m`` is
        not sum_k c_k S^k: an entry off the powers of S, or two entries on
        one power that differ (an absent entry counts as a zero)."""
        n = shift_length(m.dim, step)
        coeffs = [ZERO] * n
        counts = [0] * n
        for (i, j), v in m.entries.items():
            k, off = divmod(j - i, step)
            if k < 0 or off:
                return None
            if counts[k] and v is not coeffs[k] and v != coeffs[k]:
                return None
            coeffs[k] = v
            counts[k] += 1
        for k, count in enumerate(counts):
            if count and count != m.dim - step * k:
                return None
        return cls(coeffs)

    def matrix(self, parity, step: int) -> GradedMatrix:
        """sum_k c_k S^k, S the shift by ``step``: entry (i, i + step k)
        is c_k.  Coefficients past the module's last power are dropped."""
        dim = len(parity)
        entries = {}
        for k, c in enumerate(self.coeffs):
            if c:
                off = step * k
                for i in range(dim - off):
                    entries[(i, i + off)] = c
        return GradedMatrix(parity, entries)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ShiftSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "ShiftSeries") -> "ShiftSeries":
        return ShiftSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "ShiftSeries") -> "ShiftSeries":
        return ShiftSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, c: Scalar) -> "ShiftSeries":
        return ShiftSeries(a * c for a in self.coeffs)

    def times_x(self) -> "ShiftSeries":
        """x times the series: its matrix is S times the series' matrix."""
        return ShiftSeries((ZERO, *self.coeffs[:-1]))

    def __mul__(self, other: "ShiftSeries") -> "ShiftSeries":
        n = self.length
        out = [ZERO] * n
        right = _support(other.coeffs)
        for i, a in _support(self.coeffs):
            for k, b in right:
                if i + k >= n:
                    break
                out[i + k] = out[i + k] + a * b
        return ShiftSeries(out)

    def __pow__(self, k: int) -> "ShiftSeries":
        out = ShiftSeries.poly(self.length, 1)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "ShiftSeries":
        """1 / series, for a nonzero constant term:
        w_k = -(sum_{i=1..k} c_i w_{k-i}) / c_0."""
        c0 = self.coeffs[0].reciprocal()
        w = [c0]
        tail = _support(self.coeffs[1:], 1)
        for k in range(1, self.length):
            acc = ZERO
            for i, c in tail:
                if i > k:
                    break
                acc = acc + c * w[k - i]
            w.append(-(acc * c0))
        return ShiftSeries(w)

    def power(self, r) -> "ShiftSeries":
        """series^r for rational r and constant term 1, by J. C. P. Miller's
        recurrence k w_k = sum_{i=1..k} ((r + 1) i - k) c_i w_{k-i}, the
        binomial series, with the closure check of :func:`check_power`."""
        r = Fraction(r)
        self._require_unit("a rational power")
        w = [ONE]
        tail = _support(self.coeffs[1:], 1)
        for k in range(1, self.length):
            acc = ZERO
            for i, c in tail:
                if i > k:
                    break
                weight = ((r + 1) * i - k) / k
                if weight:
                    acc = acc + c * w[k - i] * Scalar.from_fraction(weight)
            w.append(acc)
        out = ShiftSeries(w)
        check_power(out, self, r)
        return out

    def log(self) -> "ShiftSeries":
        """log of a series with constant term 1, from series' = w' series:
        k w_k = k c_k - sum_{i=1..k-1} i w_i c_{k-i}."""
        self._require_unit("a logarithm")
        w = [ZERO]
        for k in range(1, self.length):
            acc = self.coeffs[k] * Scalar.from_int(k)
            for i in range(1, k):
                if w[i] and self.coeffs[k - i]:
                    acc = acc - w[i] * self.coeffs[k - i] * Scalar.from_int(i)
            w.append(acc * Scalar.from_fraction(Fraction(1, k)))
        return ShiftSeries(w)

    def exp(self) -> "ShiftSeries":
        """exp of a series with constant term 0, from w' = series' w:
        k w_k = sum_{i=1..k} i c_i w_{k-i}."""
        if self.coeffs[0]:
            raise NotNilpotent("exp of a series needs a zero constant term")
        w = [ONE]
        tail = _support(self.coeffs[1:], 1)
        for k in range(1, self.length):
            acc = ZERO
            for i, c in tail:
                if i > k:
                    break
                acc = acc + c * w[k - i] * Scalar.from_fraction(Fraction(i, k))
            w.append(acc)
        return ShiftSeries(w)

    def _require_unit(self, what: str) -> None:
        if self.coeffs[0] != ONE:
            raise NotNilpotent(f"{what} of a series needs the constant term 1")


def check_power(w: ShiftSeries, m: ShiftSeries, r) -> None:
    """Raise unless w = m^r for r = k/d in the sense w^d = m^k, or
    w^d m^-k = 1 when k is negative so that no inverse is taken.  The check
    pins the branch and guards the series against bookkeeping slips."""
    r = Fraction(r)
    k, d = r.numerator, r.denominator
    if k >= 0:
        closed = w**d == m**k
    else:
        closed = w**d * m ** (-k) == ShiftSeries.poly(m.length, 1)
    if not closed:
        raise CancellationFailure(f"rational power {r} failed its closure check")


def _support(coeffs, start: int = 0) -> list:
    """The (index, coefficient) pairs of the nonzero coefficients."""
    return [(i, c) for i, c in enumerate(coeffs, start) if c]
