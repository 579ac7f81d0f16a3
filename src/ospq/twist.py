"""Order-by-order analysis of the Cartan-preserving twist.

The hdiag dressing family comes with a twist that is only known as a
power series in h.  Its first orders have simple displayed forms:

    order 0   1 (x) 1
    order 1   (1/2) (H (x) X - X (x) H)
    order 2   (1/8) ((H (x) X - X (x) H)^2 + H (x) X^2 + X^2 (x) H)

That display, ``hdiag_twist_expression``, and the depth ``SERIES_DEPTH``
through which it holds live in :mod:`ospq.r1`, beside the minimal
family's exponential twist, and the cocycle and antipode checks there
run either family's twist.  This module verifies the display two more
ways.  First, it is plugged into the undressing of the coproduct and
the residuals are expanded in h, which must vanish through second
order.  Second, the defining linear problem is solved from scratch on
the smallest pair of modules, order by order, over an ansatz of tensor
words in H and X, and the displayed coefficients must solve the same
system.  The solver reports the dimension of the homogeneous kernel so
that any mismatch can be separated into "wrong" and "gauge".

Everything is exact: the series coefficients are rational numbers and
the order-by-order extraction uses exact Taylor coefficients in h.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import Inconsistency
from .gmatrix import GradedMatrix, graded_kron, graded_primitive
from .halfint import HalfInt
from .hopf import r1_algebra
from .r1 import SERIES_DEPTH, hdiag_twist_expression, inverse_map_words
from .report import VerificationReport, series_residuals
from .reps import classical_rep, r1_generators, x_nilpotency
from .scalar import H as HPARAM
from .scalar import ONE, Scalar
from .texpr import TensorExpression as TE

# The order-n ansatz has (2^(2n+1) - 1)^2 columns, about 16 times more
# per order: 16,129 at order 3, which solves in well under a second,
# and 261,121 at order 4.
MAX_SERIES_ORDER = 3


def hdiag_drinfeld_residuals(j1, j2) -> list:
    """Residuals of the undressing property for the displayed series.

    For each classical letter, conjugating the dressed coproduct of its
    inverse-map word by the twist must give back the primitive
    coproduct.  The comparison is linear in the twist, so no inverse is
    needed, and it holds through second order in h.
    """
    rep1 = r1_generators(j1, "hdiag")
    rep2 = r1_generators(j2, "hdiag")
    cls1, cls2 = classical_rep(j1), classical_rep(j2)
    alg = r1_algebra()
    gmat = hdiag_twist_expression().evaluate([rep1, rep2])
    failures = []
    bound = max(x_nilpotency(HalfInt(j1)), x_nilpotency(HalfInt(j2)))
    for name, word in inverse_map_words("hdiag", nilpotency=bound).items():
        dressed = word.coproduct(0, alg.delta).evaluate([rep1, rep2])
        primitive = graded_primitive(cls1.matrix(name), cls2.matrix(name))
        failures += series_residuals(
            f"undress:{name}", gmat @ dressed - primitive @ gmat, SERIES_DEPTH
        )
    return failures


# ---------------------------------------------------------------------------
# Solving for the series coefficients from scratch.
# ---------------------------------------------------------------------------


def _flat(gm: GradedMatrix) -> dict:
    """A constant matrix's nonzero entries as rationals, keyed by their
    row-major position."""
    return {i * gm.dim + j: v.as_fraction() for (i, j), v in gm.entries.items()}


def _leg_words(max_len: int):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (letter,) for w in frontier for letter in ("H", "X")]
        words.extend(frontier)
    return words


def _word_classes(max_len: int, rep):
    """The distinct matrices in ``rep`` of the leg words of at most
    max_len letters, and each word's index among them."""
    classes = {}
    word_class = {}
    for word in _leg_words(max_len):
        word_class[word] = classes.setdefault(rep.word_matrix(word), len(classes))
    return list(classes), word_class


def _ansatz_pairs(n: int):
    """Pairs of leg words of at most 2n letters, by total length, then pair."""
    pairs = product(_leg_words(2 * n), repeat=2)
    return sorted(pairs, key=lambda pair: (len(pair[0]) + len(pair[1]), pair))


def _ansatz_rows(pairs, mats, word_class, primitives):
    """Sparse coefficient rows of one order's system: the commutator with
    each primitive in name order, then the two counit conditions.

    Columns whose words have the same two matrices share one Kronecker
    matrix, so its commutators are built once and scattered.  Returns
    the rows, the distinct Kronecker matrices and each column's index
    among them.
    """
    classes = {}
    column_class = [
        classes.setdefault((word_class[left], word_class[right]), len(classes))
        for left, right in pairs
    ]
    # H and X are even, so the ungraded Kronecker product is the graded one.
    krons = [graded_kron(mats[a], mats[b], b_op_parity=0) for a, b in classes]
    rows = []
    for name in sorted(primitives):
        prim = primitives[name]
        commutators = [_flat(b @ prim - prim @ b) for b in krons]
        block = [{} for _ in range(prim.dim ** 2)]
        for col, c in enumerate(column_class):
            for flat, value in commutators[c].items():
                block[flat][col] = value
        rows += block
    units = [_flat(mat) for mat in mats]
    for side in (0, 1):
        block = [{} for _ in range(mats[0].dim ** 2)]
        for col, pair in enumerate(pairs):
            if not pair[side]:
                for flat, value in units[word_class[pair[1 - side]]].items():
                    block[flat][col] = value
        rows += block
    return rows, krons, column_class


def _h_slices(gm: GradedMatrix, upto: int):
    """Taylor coefficient matrices of an h-polynomial matrix."""
    slices = [{} for _ in range(upto + 1)]
    for key, value in gm.entries.items():
        for order, coeff in enumerate(value.h_coefficients(upto)):
            slices[order][key] = coeff
    return [GradedMatrix(gm.parity, entries) for entries in slices]


class _LinearSystem:
    """Sparse exact linear system with a fixed column order."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []

    def add_row(self, coeffs: dict, rhs: Fraction):
        if coeffs or rhs:
            self.rows.append((dict(coeffs), rhs))

    def solve(self):
        """RREF; returns (particular solution, rank) or None if inconsistent.

        Free variables are set to zero, so the particular solution is
        canonical for the given column order.
        """
        pivots = {}
        reduced = []
        for coeffs, rhs in self.rows:
            coeffs = dict(coeffs)
            for col, (prow, prhs) in pivots.items():
                c = coeffs.get(col)
                if c:
                    for k, v in prow.items():
                        coeffs[k] = coeffs.get(k, Fraction(0)) - c * v
                        if not coeffs[k]:
                            del coeffs[k]
                    rhs = rhs - c * prhs
            coeffs = {k: v for k, v in coeffs.items() if v}
            if not coeffs:
                if rhs:
                    return None
                continue
            col = min(coeffs)
            inv = 1 / coeffs.pop(col)
            coeffs = {k: v * inv for k, v in coeffs.items()}
            rhs = rhs * inv
            for pcol, (prow, prhs) in pivots.items():
                c = prow.get(col)
                if c:
                    for k, v in coeffs.items():
                        prow[k] = prow.get(k, Fraction(0)) - c * v
                        if not prow[k]:
                            del prow[k]
                    pivots[pcol] = (prow, prhs - c * rhs)
            pivots[col] = (coeffs, rhs)
        solution = [Fraction(0)] * self.ncols
        for col, (_, prhs) in pivots.items():
            solution[col] = prhs
        return solution, len(pivots)

    def residual(self, vector) -> bool:
        """True when the vector satisfies every stored equation."""
        for coeffs, rhs in self.rows:
            total = sum((vector[col] * v for col, v in coeffs.items()), Fraction(0))
            if total != rhs:
                return False
        return True


class TwistSeries:
    """Solved twist coefficients on the smallest pair of modules.

    ``coefficients[n-1]`` is the h^n coefficient as a two-leg expression
    with rational weights.  ``kernel_dimensions`` counts the gauge
    freedom the linear problem left at each order, and
    ``display_matched`` records, for the orders with a printed form,
    whether that form solves the same system.
    """

    __slots__ = ("order", "coefficients", "kernel_dimensions", "display_matched")

    def __init__(self, order, coefficients, kernel_dimensions, display_matched):
        self.order = order
        self.coefficients = coefficients
        self.kernel_dimensions = kernel_dimensions
        self.display_matched = display_matched

    def expression(self) -> TE:
        out = TE.unit(2)
        hpow = ONE
        for n, coeff in enumerate(self.coefficients, start=1):
            hpow = hpow * HPARAM
            out = out + coeff.scale(hpow)
        return out


def _display_vector(pairs_index, n: int):
    """Coefficient vector of the displayed series at order n."""
    vector = [Fraction(0)] * len(pairs_index)
    for key, coeff in hdiag_twist_expression().terms.items():
        value = coeff.h_coefficients(n)[n]
        if not value.is_zero:
            if key not in pairs_index:
                raise Inconsistency(
                    f"displayed twist term {key!r} lies outside the ansatz"
                )
            vector[pairs_index[key]] = value.as_fraction()
    return vector


@lru_cache(maxsize=None)
def series_twist(order: int) -> TwistSeries:
    """Solve the undressing problem order by order on the pair (1/2, 1/2).

    At each order in h the problem is linear: the commutator of the
    unknown coefficient with each primitive classical coproduct must
    match data built from lower orders, and both counit conditions must
    hold.  The ansatz is every tensor product of words in {H, X} of
    length at most 2n per leg.  The canonical solution sets all free
    variables to zero; when the displayed coefficient solves the same
    system it is preferred, so mismatches stay visible without
    contaminating later orders.

    Orders above ``MAX_SERIES_ORDER`` raise ``ValueError`` at once.
    """
    if order < 1:
        raise ValueError("the series starts at order one")
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"series order {order} exceeds the cap of {MAX_SERIES_ORDER}"
        )
    half = HalfInt(Fraction(1, 2))
    rep = r1_generators(half, "hdiag")
    cls = classical_rep(half)
    # On this module the dressed H and X matrices carry no h at all,
    # which is what keeps the orders of the ansatz separated.
    for name in ("H", "X"):
        for value in rep.matrix(name).entries.values():
            if value.h_degree() != 0:
                raise Inconsistency(
                    f"dressed letter {name} is not h-free on the base module"
                )
    alg = r1_algebra()
    words = inverse_map_words("hdiag", nilpotency=x_nilpotency(half))
    primitives = {}
    data = {}
    for name, word in words.items():
        primitives[name] = graded_primitive(cls.matrix(name), cls.matrix(name))
        dressed = word.coproduct(0, alg.delta).evaluate([rep, rep])
        data[name] = _h_slices(dressed, order)
        if data[name][0] != primitives[name]:
            raise Inconsistency(
                f"dressed coproduct of {name} does not start at the primitive"
            )
    mats, word_class = _word_classes(2 * order, rep)
    chosen = []
    chosen_mats = []
    kernel_dims = []
    display_matched = []
    for n in range(1, order + 1):
        pairs = _ansatz_pairs(n)
        pairs_index = {pair: k for k, pair in enumerate(pairs)}
        rows, krons, column_class = _ansatz_rows(pairs, mats, word_class, primitives)
        rhs = {}
        for offset, name in enumerate(sorted(primitives)):
            block = -data[name][n]
            for k in range(1, n):
                block = block - chosen_mats[k - 1] @ data[name][n - k]
            base = offset * block.dim ** 2
            rhs.update((base + flat, v) for flat, v in _flat(block).items())
        system = _LinearSystem(len(pairs))
        for k, coeffs in enumerate(rows):
            system.add_row(coeffs, rhs.get(k, Fraction(0)))
        solved = system.solve()
        if solved is None:
            raise Inconsistency(
                f"no twist coefficient exists at order {n} within the ansatz"
            )
        solution, rank = solved
        kernel_dims.append(len(pairs) - rank)
        if n <= 2:
            display = _display_vector(pairs_index, n)
            matched = system.residual(display)
            display_matched.append(matched)
            if matched:
                solution = display
        expr = TE.unit(2).scale(Scalar.from_int(0))
        for (left, right), k in pairs_index.items():
            if solution[k]:
                expr = expr + TE.pure((left, right), Scalar.from_fraction(solution[k]))
        chosen.append(expr)
        weights = [Fraction(0)] * len(krons)
        for col, value in enumerate(solution):
            if value:
                weights[column_class[col]] += value
        mat = GradedMatrix.zero(krons[0].parity)
        for kron, weight in zip(krons, weights):
            mat = mat + kron.scale(Scalar.from_fraction(weight))
        chosen_mats.append(mat)
    return TwistSeries(order, chosen, kernel_dims, display_matched)


def hdiag_twist_check(j1, j2, order: int = SERIES_DEPTH) -> VerificationReport:
    """Displayed-series checks for the hdiag twist on a pair of modules.

    Runs the undressing residuals on (j1, j2) and solves the series from
    scratch on (1/2, 1/2) up to the requested order.  Orders with
    printed coefficients must match the solved system.
    """
    j1, j2 = HalfInt(j1), HalfInt(j2)
    # Solving first rejects an oversized order before any other work.
    series = series_twist(order)
    failures = hdiag_drinfeld_residuals(j1, j2)
    for n, matched in enumerate(series.display_matched, start=1):
        if not matched:
            failures.append(
                (f"series-order:{n}", (0, 0), "printed coefficient fails the system")
            )
    return VerificationReport(
        "twist",
        {"j1": j1, "j2": j2, "family": "hdiag", "order": order},
        failures,
    )
