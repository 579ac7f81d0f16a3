"""Representations of the orthosymplectic superalgebra and its q-deformation.

The spin-j module has dimension 4j+1 with basis ordered by descending
weight; basis index k carries parity k mod 2 and weight m = j - k/2.
Bracket utilities cover the four deformation brackets used throughout:

    q       [x]   = (q^x - q^-x) / (q - q^-1)
    double  [[x]] = (q^x - (-1)^{2x} q^-x) / (q^1/2 + q^-1/2)
    plus    [n]+  = (-1)^{n-1} [[n/2]]
    curly   {x}   = (1 - q^x) / (1 - q)

each taken at base q^a when ``base=a`` is passed.  Everything is exact in
the fraction field over p = q^{1/2}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadBracketArg, Inconsistency, UnknownGenerator
from .gmatrix import GradedMatrix
from .halfint import HalfInt, as_half, spin_cache
from .scalar import ONE, Scalar, p_power

HALF = HalfInt.from_twice(1)

def bracket(kind: str, x, base: int = 1) -> Scalar:
    """Evaluate one of the four deformation brackets at ``x``, base q^base."""
    if kind == "q":
        xx = as_half(x)
        a = int(base)
        if a == 0:
            raise BadBracketArg("bracket base must be nonzero")
        num = p_power(xx * a) - p_power(xx * (-a))
        den = p_power(HalfInt(a)) - p_power(HalfInt(-a))
        return num / den
    if kind == "double":
        xx = as_half(x)
        a = int(base)
        if a == 0:
            raise BadBracketArg("bracket base must be nonzero")
        num = p_power(xx * a)
        tail = p_power(xx * (-a))
        num = num + tail if xx.twice % 2 else num - tail
        den = p_power(HalfInt.from_twice(a)) + p_power(HalfInt.from_twice(-a))
        return num / den
    if kind == "plus":
        if base != 1:
            raise BadBracketArg("plus bracket is only defined at base q")
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise BadBracketArg("plus bracket needs a positive integer")
        val = bracket("double", HalfInt.from_twice(x))
        return val if x % 2 else -val
    if kind == "curly":
        xx = as_half(x)
        a = int(base)
        if a == 0:
            raise BadBracketArg("bracket base must be nonzero")
        num = ONE - p_power(xx * a)
        den = ONE - p_power(HalfInt(a))
        return num / den
    raise BadBracketArg(f"unknown bracket kind {kind!r}")


def plus_factorial(n: int) -> Scalar:
    """[n]+! = [1]+ [2]+ ... [n]+, with [0]+! = 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadBracketArg("factorial needs a nonnegative integer")
    total = ONE
    for k in range(1, n + 1):
        total = total * bracket("plus", k)
    if total.is_zero:
        raise Inconsistency("plus-bracket factorial vanished")
    return total


class GeneratorTable:
    """Named generator matrices of one representation on one graded space.

    The builders cache their tables, so one table is shared by every
    caller: neither it nor its matrices are written once built."""

    __slots__ = ("variant", "j", "parity", "matrices")

    def __init__(self, variant: str, j: HalfInt, parity, matrices):
        self.variant = variant
        self.j = j
        self.parity = tuple(parity)
        self.matrices = dict(matrices)

    @property
    def dim(self) -> int:
        return len(self.parity)

    def matrix(self, name: str) -> GradedMatrix:
        try:
            return self.matrices[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def names(self):
        return sorted(self.matrices)

    def identity(self) -> GradedMatrix:
        return GradedMatrix.identity(self.parity)


def rep_dim(j) -> int:
    return 2 * as_half(j).twice + 1


def rep_parity(j):
    return tuple(k % 2 for k in range(rep_dim(j)))


def weight_twice(j, k: int) -> int:
    """Twice the weight of basis index k: 2m = 2j - k."""
    return as_half(j).twice - k


@spin_cache
def classical_rep(j) -> GeneratorTable:
    dim = rep_dim(j)
    parity = rep_parity(j)
    e = GradedMatrix(parity, {(k - 1, k): ONE for k in range(1, dim)})
    f_entries = {}
    for k in range(dim - 1):
        if k % 2 == 0:
            c = Fraction(-(2 * j.twice - k), 2)
        else:
            c = Fraction(k + 1, 2)
        f_entries[(k + 1, k)] = Scalar.from_fraction(c)
    f = GradedMatrix(parity, f_entries)
    h = GradedMatrix(
        parity,
        {(k, k): Scalar.from_int(j.twice - k) for k in range(dim)},
    )
    bp = e @ e
    bm = (f @ f).scale(-ONE)
    return GeneratorTable(
        "classical", j, parity, {"h": h, "e": e, "f": f, "b+": bp, "b-": bm}
    )


@spin_cache
def q_rep(j) -> GeneratorTable:
    dim = rep_dim(j)
    parity = rep_parity(j)
    e = GradedMatrix(parity, {(k - 1, k): ONE for k in range(1, dim)})
    f_entries = {}
    for k in range(dim - 1):
        m = HalfInt.from_twice(weight_twice(j, k))
        up = j + m
        down = j - m + HALF
        if k % 2 == 0:
            c = -(bracket("q", up) * bracket("double", down))
        else:
            c = bracket("double", up) * bracket("q", down)
        f_entries[(k + 1, k)] = c
    f = GradedMatrix(parity, f_entries)
    h_entries = {}
    k_entries = {}
    kinv_entries = {}
    t_entries = {}
    tinv_entries = {}
    for k in range(dim):
        m = HalfInt.from_twice(weight_twice(j, k))
        h_entries[(k, k)] = Scalar.from_int(m.twice)
        k_entries[(k, k)] = p_power(m)
        kinv_entries[(k, k)] = p_power(-m)
        t_entries[(k, k)] = p_power(m * 2)
        tinv_entries[(k, k)] = p_power(m * (-2))
    mats = {
        "h": GradedMatrix(parity, h_entries),
        "e": e,
        "f": f,
        "K": GradedMatrix(parity, k_entries),
        "Kinv": GradedMatrix(parity, kinv_entries),
        "t": GradedMatrix(parity, t_entries),
        "tinv": GradedMatrix(parity, tinv_entries),
    }
    return GeneratorTable("q-deformed", j, parity, mats)
