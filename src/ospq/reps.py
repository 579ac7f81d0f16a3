"""Generator tables of osp(2|1) and of its three quantizations.

All five tables live here: the classical one, the standard q-deformed
one, the Jordanian r2 one reached by the contraction, and the Jordanian
r1 one in its two dressing families.  The spin-j module has dimension
4j+1 with basis ordered by descending weight; basis index k carries
parity k mod 2 and weight m = j - k/2.  Every table is a pure function of
its spin (and family), cached so that one table is shared by all callers.

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
from functools import lru_cache
from math import prod

from .errors import BadBracketArg, Inconsistency, UnknownGenerator
from .gmatrix import GradedMatrix, inverse
from .halfint import HalfInt, as_half, spin_cache
from .nilfun import nil_log_unit, unit_power, unit_sqrt
from .scalar import H as HPARAM
from .scalar import ONE, Scalar, p_power, rational

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
    caller: neither it nor its letter matrices are written once built.
    The one thing that grows is ``words``, the memo of word products that
    :meth:`word_matrix` fills, so each word's matrix is built once per
    table."""

    __slots__ = ("variant", "j", "parity", "matrices", "words")

    def __init__(self, variant: str, j: HalfInt, parity, matrices):
        self.variant = variant
        self.j = j
        self.parity = tuple(parity)
        self.matrices = dict(matrices)
        self.words = {}

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

    def word_matrix(self, word: tuple) -> GradedMatrix:
        """The ordered product of the word's letter matrices.

        A word costs one product per letter past its longest memoized
        prefix, and every new prefix is memoized.  A one-letter word is the
        table's own matrix: never mutate the result."""
        m = self.words.get(word)
        if m is not None:
            return m
        if not word:
            m = self.words[word] = self.identity()
            return m
        n = len(word) - 1
        while n and word[:n] not in self.words:
            n -= 1
        if n:
            m = self.words[word[:n]]
        else:
            m = self.words[word[:1]] = self.matrix(word[0])
            n = 1
        while n < len(word):
            m = m @ self.matrix(word[n])
            n += 1
            self.words[word[:n]] = m
        return m


def rep_dim(j) -> int:
    return 2 * as_half(j).twice + 1


def refuse_oversized(spins, cap: int) -> None:
    """Raise ``ValueError`` when the tensor product of the spin modules has
    a dimension above ``cap``: a check's size budget, applied before any
    work."""
    dim = prod(rep_dim(j) for j in spins)
    if dim > cap:
        names = ", ".join(str(as_half(j)) for j in spins)
        raise ValueError(
            f"spins ({names}) give dimension {dim}, which exceeds the cap of {cap}"
        )


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


# -- the Jordanian tables ------------------------------------------------------


@spin_cache
def tilde_t_powers(j) -> tuple:
    """The Jordanian group-like element T = h e^2 + sqrt(1 + h^2 e^4) on
    the spin-j module, with its inverse and its square root."""
    cl = classical_rep(j)
    e2 = cl.matrix("e") @ cl.matrix("e")
    root = unit_sqrt(cl.identity() + (e2 @ e2).scale(HPARAM**2))
    big_t = e2.scale(HPARAM) + root
    return big_t, e2.scale(-HPARAM) + root, unit_power(big_t, Fraction(1, 2))


@spin_cache
def r2_generators(j) -> GeneratorTable:
    """Jordanian generators on the spin-j module, via the classical ones."""
    cl = classical_rep(j)
    ident = cl.identity()
    e, f, h = cl.matrix("e"), cl.matrix("f"), cl.matrix("h")
    big_t, big_tinv, thalf = tilde_t_powers(j)
    # (T + Tinv) / 2 is the root sqrt(1 + h^2 e^4)
    big_h = (big_t + big_tinv).scale(rational(1, 2)) @ h
    gq = (big_t - ident) @ inverse(big_t + ident)
    big_f = (
        f
        + (gq @ e).scale(HPARAM * rational(1, 4))
        - (gq @ e @ h).scale(HPARAM * rational(1, 2))
    )
    tinvhalf = unit_power(big_t, Fraction(-1, 2))
    x = nil_log_unit(big_t).scale(HPARAM.reciprocal())
    y = -(big_f @ big_f)
    mats = {
        "H": big_h,
        "E": e,
        "F": big_f,
        "T": big_t,
        "Tinv": big_tinv,
        "Thalf": thalf,
        "Tinvhalf": tinvhalf,
        "X": x,
        "Y": y,
    }
    return GeneratorTable("jordanian-r2", j, cl.parity, mats)


FAMILIES = ("minimal", "hdiag")


def x_nilpotency(j) -> int:
    """Smallest k with b+^k = 0 on the spin-j module, namely 2j + 1."""
    return HalfInt(j).twice + 1


def _require_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown dressing family {family!r}")


def r1_generators(j, family: str = "minimal") -> GeneratorTable:
    """Dressed generator matrices on the spin-j module.

    The returned table carries the letters H, E, F, T, Tinv, Thalf,
    Tinvhalf, X and Y.  X is the nilpotent logarithm of T divided by h,
    and Y is solved from the relation that expresses F^2 through Y.
    Every call form of one spin and family returns the same table.
    """
    return _r1_table(as_half(j), family)


@lru_cache(maxsize=None)
def _r1_table(j: HalfInt, family: str) -> GeneratorTable:
    _require_family(family)
    cl = classical_rep(j)
    e, f, h, bp = cl.matrix("e"), cl.matrix("f"), cl.matrix("h"), cl.matrix("b+")
    iden = cl.identity()
    half, quarter = rational(1, 2), rational(1, 4)
    h2 = HPARAM * HPARAM

    if family == "minimal":
        # Unipotent core: every factor is a rational power of it.
        core = iden - bp.scale(HPARAM + HPARAM)
        t = unit_power(core, Fraction(-1, 2))
        tinv = unit_power(core, Fraction(1, 2))
        thalf = unit_power(core, Fraction(-1, 4))
        tinvhalf = unit_power(core, Fraction(1, 4))
        big_e = thalf @ e
        big_h = tinv @ h
        big_f = (
            tinvhalf @ f
            - (bp @ unit_power(core, Fraction(-3, 4)) @ e).scale(h2 * quarter)
            + (tinvhalf @ e @ h).scale(HPARAM * half)
        )
        big_x = nil_log_unit(core).scale(-(HPARAM + HPARAM).reciprocal())
    else:
        # Cartan stays classical; the group-like is a unipotent ratio.
        shear = bp.scale(HPARAM * half)
        t = (iden + shear) @ inverse(iden - shear)
        tinv = (iden - shear) @ inverse(iden + shear)
        thalf = unit_power(t, Fraction(1, 2))
        tinvhalf = unit_power(t, Fraction(-1, 2))
        flat = iden - shear @ shear
        big_e = unit_power(flat, Fraction(-1, 2)) @ e
        big_h = h
        big_f = (
            unit_power(flat, Fraction(1, 2)) @ f
            - (bp @ unit_power(flat, Fraction(-3, 2)) @ e).scale(h2 * quarter)
            - (bp @ unit_power(flat, Fraction(-1, 2)) @ e @ h).scale(h2 * quarter)
        )
        big_x = nil_log_unit(t).scale(HPARAM.reciprocal())

    tm = t - tinv
    big_y = (
        -(big_f @ big_f)
        + (tm @ big_h @ big_h).scale(HPARAM * rational(1, 8))
        + (tm @ big_e @ big_f).scale(HPARAM * quarter)
        + ((t @ t - tinv @ tinv) @ big_h).scale(HPARAM * rational(3, 16))
        + tm.scale(HPARAM * quarter)
        + (tm @ tm @ tm).scale(HPARAM * rational(9, 128))
    )
    matrices = {
        "H": big_h,
        "E": big_e,
        "F": big_f,
        "T": t,
        "Tinv": tinv,
        "Thalf": thalf,
        "Tinvhalf": tinvhalf,
        "X": big_x,
        "Y": big_y,
    }
    return GeneratorTable(f"jordanian-r1-{family}", j, cl.parity, matrices)
