"""Generator tables of osp(2|1) and of its three quantizations.

All five tables live here: the classical one, the standard q-deformed
one, the Jordanian r2 one reached by the contraction, and the Jordanian
r1 one in its two dressing families.  The spin-j module has dimension
4j+1 with basis ordered by descending weight; basis index k carries
parity k mod 2 and weight m = j - k/2.  Every table is a pure function of
its spin (and family), cached so that one table is shared by all callers.
In the Jordanian tables every letter that is a function of b+ = e^2,
and every such factor of E, H, F and Y, is a series in the shift
(:class:`~ospq.nilfun.ShiftSeries`) written out as its matrix once;
the one exception is r2's (T - 1)(T + 1)^-1, a Gauss-Jordan inversion.

Bracket utilities cover the four deformation brackets used throughout:

    q       [x]   = (q^x - q^-x) / (q - q^-1)
    double  [[x]] = (q^x - (-1)^{2x} q^-x) / (q^1/2 + q^-1/2)
    plus    [n]+  = (-1)^{n-1} [[n/2]]
    curly   {x}   = (1 - q^x) / (1 - q)

each taken at base q^a when ``base=a`` is passed.  Everything is exact in
the fraction field over p = q^{1/2}.  Each bracket is one product of a
power of p and the binomials p^m -+ 1, so it is kept as a factored
q-number (:class:`~ospq.qnumber.QNumber`): ``factored_bracket``, the
factorial [n]+! (``factored_plus_factorial``) and the entries of the
q-deformed f (``q_lowering``) are products of their factors, with no
polynomial GCD, and ``bracket`` and ``q_rep`` write them as ``Scalar``s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import BadBracketArg, UnknownGenerator
from .gmatrix import GradedMatrix, inverse
from .halfint import HalfInt, as_half, spin_cache
from .nilfun import ShiftSeries, check_power, shift_length
from .qnumber import QNumber
from .scalar import H as HPARAM
from .scalar import ONE, Scalar, p_power, rational

HALF = HalfInt.from_twice(1)


def bracket(kind: str, x, base: int = 1) -> Scalar:
    """Evaluate one of the four deformation brackets at ``x``, base q^base."""
    return factored_bracket(kind, x, base).to_scalar()


def factored_bracket(kind: str, x, base: int = 1) -> QNumber:
    """The bracket as a factored q-number.

    The arguments are checked here and the value is built once per
    (kind, x as a HalfInt, base)."""
    if kind == "plus":
        if base != 1:
            raise BadBracketArg("plus bracket is only defined at base q")
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise BadBracketArg("plus bracket needs a positive integer")
        return _bracket(kind, HalfInt(x), 1)
    if kind not in ("q", "double", "curly"):
        raise BadBracketArg(f"unknown bracket kind {kind!r}")
    xx = as_half(x)
    a = int(base)
    if a == 0:
        raise BadBracketArg("bracket base must be nonzero")
    return _bracket(kind, xx, a)


@lru_cache(maxsize=None)
def _bracket(kind: str, xx: HalfInt, a: int) -> QNumber:
    """The bracket as a factored q-number; q^{a x} = p^t with t = 2 a x."""
    t = xx.twice * a
    if kind == "q":
        # (p^t - p^-t) / (p^2a - p^-2a) = p^(2a - t) (p^2t - 1) / (p^4a - 1)
        return (
            QNumber.p_power(2 * a - t)
            * QNumber.p_minus_one(2 * t)
            * QNumber.p_minus_one(4 * a).reciprocal()
        )
    if kind == "double":
        # (p^t -+ p^-t) / (p^a + p^-a) = p^(a - t) (p^2t -+ 1) / (p^2a + 1)
        top = QNumber.p_plus_one(2 * t) if xx.twice % 2 else QNumber.p_minus_one(2 * t)
        return QNumber.p_power(a - t) * top * QNumber.p_plus_one(2 * a).reciprocal()
    if kind == "plus":
        val = _bracket("double", HalfInt.from_twice(xx.twice // 2), 1)
        return val if xx.twice % 4 else -val
    # (1 - p^t) / (1 - p^2a)
    return QNumber.p_minus_one(t) * QNumber.p_minus_one(2 * a).reciprocal()


def factored_plus_factorial(n: int) -> QNumber:
    """[n]+! = [1]+ [2]+ ... [n]+, with [0]+! = 1, as a factored q-number
    built once per n."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise BadBracketArg("factorial needs a nonnegative integer")
    return _plus_factorial(n)


@lru_cache(maxsize=None)
def _plus_factorial(n: int) -> QNumber:
    if not n:
        return QNumber(1)
    return _plus_factorial(n - 1) * _bracket("plus", HalfInt(n), 1)


@spin_cache
def q_lowering(j) -> tuple:
    """The entries f[k + 1, k] of the q-deformed lowering operator on the
    spin-j module, as factored q-numbers."""
    out = []
    for k in range(rep_dim(j) - 1):
        m = HalfInt.from_twice(weight_twice(j, k))
        up, down = j + m, j - m + HALF
        if k % 2 == 0:
            out.append(-(_bracket("q", up, 1) * _bracket("double", down, 1)))
        else:
            out.append(_bracket("double", up, 1) * _bracket("q", down, 1))
    return tuple(out)


class GeneratorTable:
    """Named generator matrices of one representation on one graded space.

    The builders cache their tables, so one table is shared by every
    caller: neither it nor its letter matrices are written once built.
    Two memos grow, and live exactly as long as the table: ``words``, the
    word products that :meth:`word_matrix` fills, so each word's matrix is
    built once per table, and ``graded``, the table's letters at h = 1 as
    ints, or False when they are off the grading, which :mod:`ospq.graded`
    sets once."""

    __slots__ = ("variant", "j", "parity", "matrices", "words", "graded")

    def __init__(self, variant: str, j: HalfInt, parity, matrices):
        self.variant = variant
        self.j = j
        self.parity = tuple(parity)
        self.matrices = dict(matrices)
        self.words = {}
        self.graded = None

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


def refuse_oversized(spins, cap: int | None = None, spin_cap: int | None = None) -> None:
    """Raise ``ValueError`` when the tensor product of the spin modules has
    a dimension above ``cap``, and then when one spin's module has a
    dimension above ``spin_cap``: a check's size budget, applied before
    any work.  A cap of None is not checked."""
    for group, limit in [(spins, cap), *(((j,), spin_cap) for j in spins)]:
        dim = prod(rep_dim(j) for j in group)
        if limit is not None and dim > limit:
            names = ", ".join(str(as_half(j)) for j in group)
            raise ValueError(
                f"spins ({names}) give dimension {dim}, which exceeds the cap of {limit}"
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
    f_entries = {(k + 1, k): c.to_scalar() for k, c in enumerate(q_lowering(j))}
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


@lru_cache(maxsize=None)
def _tilde_t_series(n: int) -> tuple:
    """T = h x + sqrt(1 + h^2 x^2), its inverse h x - sqrt(...) and its
    square root, mod x^n."""
    hx = ShiftSeries.poly(n, 0, HPARAM)
    root = (ShiftSeries.poly(n, 1) + hx * hx).power(Fraction(1, 2))
    big_t = hx + root
    return big_t, root - hx, big_t.power(Fraction(1, 2))


@spin_cache
def tilde_t_powers(j) -> tuple:
    """The Jordanian group-like element T = h e^2 + sqrt(1 + h^2 e^4) on
    the spin-j module, with its inverse and its square root."""
    parity = rep_parity(j)
    return tuple(
        s.matrix(parity, 2) for s in _tilde_t_series(shift_length(len(parity), 2))
    )


@spin_cache
def r2_generators(j) -> GeneratorTable:
    """Jordanian generators on the spin-j module, via the classical ones.

    The letters that are functions of e^2 are series in it, with
    log T = asinh(h e^2), X = log T / h and Tinvhalf = exp(-log T / 2),
    except (T - 1)(T + 1)^-1, which inverts the matrix T + 1 by
    Gauss-Jordan."""
    cl = classical_rep(j)
    e, f, h, parity = cl.matrix("e"), cl.matrix("f"), cl.matrix("h"), cl.parity
    big_t, big_tinv, thalf = tilde_t_powers(j)
    t, tinv, _ = _tilde_t_series(shift_length(cl.dim, 2))
    log_t = t.log()
    tinvhalf = log_t.scale(rational(-1, 2)).exp()
    check_power(tinvhalf, t, Fraction(-1, 2))
    # (T + Tinv) / 2 is the root sqrt(1 + h^2 e^4)
    root = (t + tinv).scale(rational(1, 2)).matrix(parity, 2)
    # The one matrix inversion left on the benchmark's workloads, which
    # keeps perfbench's gmatrix.inverse layer measured until that layer
    # is replaced (ROADMAP item 1); as a series it is (t - 1)(t + 1)^-1.
    ident = cl.identity()
    gq = (big_t - ident) @ inverse(big_t + ident)
    big_f = (
        f
        + (gq @ e).scale(HPARAM * rational(1, 4))
        - (gq @ e @ h).scale(HPARAM * rational(1, 2))
    )
    mats = {
        "H": root @ h,
        "E": e,
        "F": big_f,
        "T": big_t,
        "Tinv": big_tinv,
        "Thalf": thalf,
        "Tinvhalf": tinvhalf.matrix(parity, 2),
        "X": log_t.scale(HPARAM.reciprocal()).matrix(parity, 2),
        "Y": -(big_f @ big_f),
    }
    return GeneratorTable("jordanian-r2", j, parity, mats)


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
    e, f, h, parity = cl.matrix("e"), cl.matrix("f"), cl.matrix("h"), cl.parity
    half, quarter = rational(1, 2), rational(1, 4)
    h2 = HPARAM * HPARAM
    n = shift_length(cl.dim, 2)
    one = ShiftSeries.poly(n, 1)

    # Every function of b+ = e^2 is a series in it: the group-like letters,
    # X, and the dressings in E = e_dress e, H = h_dress h and
    # F = f_dress f + fe_dress e + feh_dress e h.  Only the products with
    # e, f, h and F are matrix products.
    if family == "minimal":
        # Unipotent core: every factor is a rational power of it.
        core = ShiftSeries.poly(n, 1, -(HPARAM + HPARAM))
        t, tinv = core.power(Fraction(-1, 2)), core.power(Fraction(1, 2))
        thalf, tinvhalf = core.power(Fraction(-1, 4)), core.power(Fraction(1, 4))
        big_x = core.log().scale(-(HPARAM + HPARAM).reciprocal())
        e_dress, h_dress, f_dress = thalf, tinv, tinvhalf
        fe_dress = core.power(Fraction(-3, 4)).times_x().scale(-h2 * quarter)
        feh_dress = tinvhalf.scale(HPARAM * half)
    else:
        # Cartan stays classical; the group-like is a unipotent ratio.
        shear = ShiftSeries.poly(n, 0, HPARAM * half)
        t = (one + shear) * (one - shear).inverse()
        tinv = (one - shear) * (one + shear).inverse()
        thalf, tinvhalf = t.power(Fraction(1, 2)), t.power(Fraction(-1, 2))
        big_x = t.log().scale(HPARAM.reciprocal())
        flat = one - shear * shear
        e_dress, h_dress = flat.power(Fraction(-1, 2)), one
        f_dress = flat.power(Fraction(1, 2))
        fe_dress = flat.power(Fraction(-3, 2)).times_x().scale(-h2 * quarter)
        feh_dress = e_dress.times_x().scale(-h2 * quarter)

    def on_module(series):
        return series.matrix(parity, 2)

    big_e = on_module(e_dress) @ e
    big_h = on_module(h_dress) @ h
    big_f = (
        on_module(f_dress) @ f
        + on_module(fe_dress) @ e
        + on_module(feh_dress) @ e @ h
    )
    tm = t - tinv
    squares = t * t - tinv * tinv
    cubic = tm.scale(HPARAM * quarter) + (tm * tm * tm).scale(HPARAM * rational(9, 128))
    # tm H = (tm h_dress) h and tm E = (tm e_dress) e
    big_y = (
        -(big_f @ big_f)
        + (on_module(tm * h_dress) @ h @ big_h).scale(HPARAM * rational(1, 8))
        + (on_module(tm * e_dress) @ e @ big_f).scale(HPARAM * quarter)
        + (on_module(squares * h_dress) @ h).scale(HPARAM * rational(3, 16))
        + on_module(cubic)
    )
    matrices = {
        "H": big_h,
        "E": big_e,
        "F": big_f,
        "T": on_module(t),
        "Tinv": on_module(tinv),
        "Thalf": on_module(thalf),
        "Tinvhalf": on_module(tinvhalf),
        "X": on_module(big_x),
        "Y": big_y,
    }
    return GeneratorTable(f"jordanian-r1-{family}", j, parity, matrices)
