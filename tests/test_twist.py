"""Order-by-order checks for the Cartan-preserving twist series."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from ospq.gmatrix import graded_kron
from ospq.halfint import HalfInt
from ospq.hopf import r1_algebra
from ospq.r1 import cocycle_check, inverse_map_words, r1_generators, x_nilpotency
from ospq.report import series_residuals
from ospq.reps import classical_rep
from ospq.scalar import H, ONE, scalar_from_string, scalar_to_string
from ospq.texpr import TensorExpression as TE
from ospq.twist import (
    MAX_SERIES_ORDER,
    SERIES_DEPTH,
    _ansatz_pairs,
    _ansatz_rows,
    _word_classes,
    hdiag_drinfeld_residuals,
    hdiag_twist_check,
    hdiag_twist_expression,
    series_twist,
)

HALF = HalfInt(Fraction(1, 2))
ONEJ = HalfInt(1)
sc = scalar_from_string


class TestDisplayedSeries:
    PAIRS = ((HALF, HALF), (HALF, ONEJ))
    TRIPLES = (
        (HALF, HALF, HALF),
        (HALF, HALF, ONEJ),
        (HALF, ONEJ, ONEJ),
    )

    def test_series_head_is_the_unit(self):
        g = hdiag_twist_expression()
        assert g.terms[((), ())] == ONE

    def test_series_depth_is_two(self):
        # The printed form stops at h^2, and every order-by-order check
        # in this module expands exactly that far.
        assert SERIES_DEPTH == 2

    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda p: "-".join(str(x) for x in p)
    )
    def test_undressing_residuals_vanish(self, pair):
        assert hdiag_drinfeld_residuals(*pair) == []

    def test_perturbed_series_fails_undressing(self):
        # Adding any stray first-order term must leave a visible
        # residual, otherwise the check has no teeth.
        rep = r1_generators(HALF, "hdiag")
        cls = classical_rep(HALF)
        alg = r1_algebra()
        g = hdiag_twist_expression() + TE.pure((("X",), ("X",)), H * sc("1/3"))
        gmat = g.evaluate([rep, rep])
        iden = rep.identity()
        word = inverse_map_words("hdiag", nilpotency=x_nilpotency(HALF))["h"]
        dressed = word.coproduct(0, alg.delta).evaluate([rep, rep])
        primitive = graded_kron(cls.matrix("h"), iden, b_op_parity=0) + graded_kron(
            iden, cls.matrix("h")
        )
        residuals = series_residuals(
            "undress:h", gmat @ dressed - primitive @ gmat, SERIES_DEPTH
        )
        assert residuals != []

    @pytest.mark.parametrize(
        "triple", TRIPLES, ids=lambda t: "-".join(str(x) for x in t)
    )
    def test_cocycle_identity(self, triple):
        report = cocycle_check(*triple, twist="hdiag")
        assert report.failures == []
        assert report.ok

    def test_pair_report_passes(self):
        report = hdiag_twist_check(HALF, ONEJ)
        assert report.ok
        assert report.parameters["family"] == "hdiag"
        assert report.parameters["order"] == SERIES_DEPTH


class TestSeriesSolver:
    def test_rejects_orders_below_one(self):
        with pytest.raises(ValueError):
            series_twist(0)

    def test_rejects_orders_above_the_cap(self):
        # Raised before any work: order 4 alone has 261,121 columns.
        with pytest.raises(ValueError, match="cap"):
            series_twist(MAX_SERIES_ORDER + 1)
        with pytest.raises(ValueError, match="cap"):
            hdiag_twist_check(HALF, HALF, order=MAX_SERIES_ORDER + 1)

    def test_first_order_reproduces_the_display(self):
        series = series_twist(1)
        assert series.order == 1
        assert series.display_matched == [True]
        expected = TE.pure((("H",), ("X",)), sc("1/2")) + TE.pure(
            (("X",), ("H",)), sc("-1/2")
        )
        assert series.coefficients[0] == expected

    def test_second_order_reproduces_the_display(self):
        series = series_twist(2)
        assert series.display_matched == [True, True]
        plus = sc("1/8")
        minus = sc("-1/8")
        expected = (
            TE.pure((("H", "H"), ("X", "X")), plus)
            + TE.pure((("H", "X"), ("X", "H")), minus)
            + TE.pure((("X", "H"), ("H", "X")), minus)
            + TE.pure((("X", "X"), ("H", "H")), plus)
            + TE.pure((("H",), ("X", "X")), plus)
            + TE.pure((("X", "X"), ("H",)), plus)
        )
        assert series.coefficients[1] == expected

    def test_gauge_freedom_dimensions(self):
        # The solved coefficient is unique only up to the kernel of the
        # linear problem; freezing its dimension pins the ansatz, the
        # equation count and the rank all at once.
        assert series_twist(2).kernel_dimensions == [41, 953]

    def test_third_order_is_pinned(self):
        # Order 3 is the only one whose right-hand side carries both lower
        # solved orders.  The digest is of the coefficient strings in the
        # benchmark's canonical form, as the earlier dense-Fraction solver
        # produced them.
        series = series_twist(3)
        assert series.kernel_dimensions == [41, 953, 16121]
        assert series.display_matched == [True, True]
        canonical = [
            [
                [[list(word) for word in key], scalar_to_string(value)]
                for key, value in sorted(coeff.terms.items())
            ]
            for coeff in series.coefficients
        ]
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f255db12a0def9a0126590a463a3dc380b1ef2128d456e235f57da491844b334"
        )

    def test_expression_assembles_the_printed_series(self):
        assert series_twist(2).expression() == hdiag_twist_expression()


def _dense(gm, dim):
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), value in gm.entries.items():
        out[i][j] = value.as_fraction()
    return out


def _dense_mul(a, b):
    size = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0))
            for j in range(size)
        ]
        for i in range(size)
    ]


def _dense_word(word, tables, dim):
    out = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for letter in word:
        out = _dense_mul(out, tables[letter])
    return out


def _dense_kron(a, b):
    dim = len(a)
    return [
        [a[i // dim][j // dim] * b[i % dim][j % dim] for j in range(dim * dim)]
        for i in range(dim * dim)
    ]


class TestRowAssemblyOracle:
    """The class-shared sparse rows against the dense per-column formula.

    Every column's Kronecker matrix is rebuilt from its two words letter
    by letter, and its coefficient in every commutator row is the dense
    sum over the pair module (computed once per distinct matrix); equal
    rows give the solver an equal system, hence an equal solution.
    """

    def test_rows_match_the_dense_formula(self):
        rep = r1_generators(HALF, "hdiag")
        cls = classical_rep(HALF)
        dim = rep.dim
        pair_dim = dim * dim
        iden = rep.identity()
        tables = {letter: rep.matrix(letter) for letter in "HX"}
        dense_tables = {letter: _dense(m, dim) for letter, m in tables.items()}
        names = sorted(inverse_map_words("hdiag", nilpotency=x_nilpotency(HALF)))
        assert names == ["e", "f", "h"]
        primitives = {
            name: graded_kron(cls.matrix(name), iden, b_op_parity=0)
            + graded_kron(iden, cls.matrix(name))
            for name in names
        }
        dense_primitives = {
            name: _dense(prim, pair_dim) for name, prim in primitives.items()
        }
        mats, word_class = _word_classes(4, rep)
        dense_words = {}
        commutators = {}
        for n in (1, 2):
            legs = [w for m in range(2 * n + 1) for w in product("HX", repeat=m)]
            for word in legs:
                dense_words.setdefault(word, _dense_word(word, dense_tables, dim))
            pairs = _ansatz_pairs(n)
            assert pairs == sorted(
                product(legs, repeat=2),
                key=lambda p: (len(p[0]) + len(p[1]), p[0], p[1]),
            )
            rows, krons, column_class = _ansatz_rows(
                pairs, mats, word_class, primitives
            )
            assert len(rows) == len(names) * pair_dim * pair_dim + 2 * dim * dim
            assert all(value for row in rows for value in row.values())
            for col, (left, right) in enumerate(pairs):
                lmat, rmat = dense_words[left], dense_words[right]
                bmat = _dense_kron(lmat, rmat)
                assert _dense(krons[column_class[col]], pair_dim) == bmat
                key = tuple(map(tuple, bmat))
                if key not in commutators:
                    commutators[key] = [
                        sum(
                            (
                                bmat[i][k] * prim[k][j] - prim[i][k] * bmat[k][j]
                                for k in range(pair_dim)
                            ),
                            Fraction(0),
                        )
                        for prim in (dense_primitives[name] for name in names)
                        for i in range(pair_dim)
                        for j in range(pair_dim)
                    ]
                expected = list(commutators[key])
                for outer, inner in ((left, rmat), (right, lmat)):
                    expected += [
                        Fraction(0) if outer else inner[i][j]
                        for i in range(dim)
                        for j in range(dim)
                    ]
                assert [row.get(col, Fraction(0)) for row in rows] == expected
