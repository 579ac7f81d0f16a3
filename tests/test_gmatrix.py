"""Graded matrix layer: products, Kronecker signs, embeddings, inverses.

The sign conventions here decide the fate of every R-matrix check, so
the tests pin them down on the smallest possible cases worked by hand.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from ospq.errors import CancellationFailure, NonHomogeneous, NotNilpotent
import ospq
from ospq.gmatrix import (
    GradedMatrix,
    block_matrix,
    embed_pair,
    graded_kron,
    graded_primitive,
    inverse,
    swap_conjugate,
    tensor_parity,
)
from ospq.nilfun import nil_exp, nil_log_unit, unit_power, unit_sqrt
from ospq.scalar import ONE, Scalar

from helpers import from_rows


def M(parity, rows):
    return from_rows(parity, rows)


E01 = M((0, 1), [[0, 1], [0, 0]])  # odd single-entry matrix on an (e,o) space
E10 = M((0, 1), [[0, 0], [1, 0]])  # odd
DIAG = M((0, 1), [[1, 0], [0, -1]])  # even


class TestKronSigns:
    def test_even_second_factor_is_sign_free(self):
        got = graded_kron(E01, DIAG)
        assert got.entry(0, 2) == ONE
        assert got.entry(1, 3) == Scalar.from_int(-1)

    def test_odd_second_factor_picks_up_column_parity(self):
        # (a (x) b) with |b| = 1: sign is (-1)^(parity of first-factor column)
        got = graded_kron(DIAG, E01)
        # first-factor column 0 is even: + ; column 1 is odd: the -1 entry
        # of DIAG flips again
        assert got.entry(0, 1) == ONE
        assert got.entry(2, 3) == ONE

    def test_identity_times_odd_carries_signs(self):
        ident = GradedMatrix.identity((0, 1))
        got = graded_kron(ident, E01)
        assert got.entry(0, 1) == ONE  # even first-factor column
        assert got.entry(2, 3) == Scalar.from_int(-1)  # odd column

    def test_mixed_parity_needs_declaration(self):
        mixed = M((0, 1), [[1, 1], [0, 0]])
        with pytest.raises(NonHomogeneous):
            graded_kron(DIAG, mixed)
        graded_kron(DIAG, mixed, b_op_parity=0)  # declared: allowed

    def test_kron_is_associative(self):
        a, b, c = E01, DIAG, E10
        left = graded_kron(graded_kron(a, b), c)
        right = graded_kron(a, graded_kron(b, c))
        assert left == right

    def test_mixed_product_rule_with_signs(self):
        # (a (x) b)(c (x) d) = (-1)^{|b||c|} (ac (x) bd)
        for a in (E01, DIAG):
            for b in (E01, E10, DIAG):
                for c in (E01, E10):
                    for d in (E01, DIAG):
                        lhs = graded_kron(a, b) @ graded_kron(c, d)
                        sign = (-1) ** (
                            b.operator_parity() * c.operator_parity()
                        )
                        rhs = graded_kron(a @ c, b @ d).scale(sign)
                        assert lhs == rhs


class TestBlocksAndPrimitives:
    def test_block_matrix_places_blocks_without_signs(self):
        # Block (a, b) sits at rows a*d.., cols b*d..: the ungraded
        # Kronecker product of the outer unit matrix with the block.
        outer = (0, 1)
        blocks = [[DIAG, E01], [E10, GradedMatrix.zero((0, 1))]]
        got = block_matrix(outer, blocks)
        assert got.parity == tensor_parity((outer, (0, 1)))
        want = GradedMatrix.zero(got.parity)
        for a in range(2):
            for b in range(2):
                unit = GradedMatrix(outer, {(a, b): ONE})
                want = want + graded_kron(unit, blocks[a][b], b_op_parity=0)
        assert got == want
        # E01 in block (0, 1) keeps its sign, though a graded product
        # with the odd block would flip it in the odd outer column.
        assert got.entry(0, 3) == ONE

    def test_primitive_carries_the_odd_second_leg_sign(self):
        got = graded_primitive(DIAG, E01)
        minus = Scalar.from_int(-1)
        # DIAG (x) 1 on the diagonal, 1 (x) E01 above it with the sign of
        # the odd first-leg column.
        assert got.entries == {
            (0, 0): ONE,
            (1, 1): ONE,
            (2, 2): minus,
            (3, 3): minus,
            (0, 1): ONE,
            (2, 3): minus,
        }


class TestSwap:
    def test_graded_flip(self):
        # tau(x (x) z) = (-1)^{|x||z|} z (x) x
        for x in (E01, E10, DIAG):
            for z in (E01, E10, DIAG):
                on_ba = graded_kron(z, x)  # lives on V_b (x) V_a
                got = swap_conjugate(on_ba, (0, 1), (0, 1))
                sign = (-1) ** (x.operator_parity() * z.operator_parity())
                assert got == graded_kron(x, z).scale(sign)

    def test_swap_is_involutive(self):
        m = graded_kron(E01, DIAG)
        twice = swap_conjugate(swap_conjugate(m, (0, 1), (0, 1)), (0, 1), (0, 1))
        assert twice == m


class TestEmbed:
    def test_pair_on_first_legs_matches_kron_with_identity(self):
        pars = [(0, 1), (0, 1), (0, 1, 0)]
        r = graded_kron(E01, E10)
        direct = embed_pair(r, pars, (0, 1))
        via_kron = graded_kron(r, GradedMatrix.identity(pars[2]), b_op_parity=0)
        assert direct == via_kron

    def test_three_leg_sign_rule(self):
        # embedding x on leg 0 and z on leg 2 must reproduce the
        # multi-leg product sign (-1)^{|z| * |middle column|}
        pars = [(0, 1), (0, 1), (0, 1)]
        for x in (E01, DIAG):
            for z in (E10, DIAG):
                r = graded_kron(x, z)
                emb = embed_pair(r, pars, (0, 2))
                # independent dense construction
                expect = {}
                for (i, j), xv in x.entries.items():
                    for (k, l), zv in z.entries.items():
                        for s in range(2):
                            sign = (-1) ** (
                                z.operator_parity() * pars[1][s]
                            )
                            row = i * 4 + s * 2 + k
                            col = j * 4 + s * 2 + l
                            # the pair matrix itself already holds the
                            # kron sign |z| * parity(col j)
                            ksign = (-1) ** (
                                z.operator_parity() * pars[0][j]
                            )
                            expect[(row, col)] = (
                                xv * zv * Scalar.from_int(sign * ksign)
                            )
                for key, val in expect.items():
                    assert emb.entry(*key) == val

    def test_embed_trailing_legs(self):
        # Independent oracle for 1 (x) x (x) z from the action rule:
        # entry ((s,i1,i2),(s,j1,j2)) = x[i1,j1] z[i2,j2]
        #     * (-1)^{|x| p0(s) + |z| (p0(s) + p1(j1))}.
        pars = [(0, 1), (0, 1), (0, 1)]
        for x in (E01, DIAG):
            for z in (E10, DIAG):
                px = x.operator_parity()
                pz = z.operator_parity()
                emb = embed_pair(graded_kron(x, z), pars, (1, 2))
                expect = {}
                for (i1, j1), xv in x.entries.items():
                    for (i2, j2), zv in z.entries.items():
                        for s in range(2):
                            sign = px * pars[0][s] + pz * (
                                pars[0][s] + pars[1][j1]
                            )
                            row = s * 4 + i1 * 2 + i2
                            col = s * 4 + j1 * 2 + j2
                            expect[(row, col)] = (
                                xv * zv * Scalar.from_int((-1) ** sign)
                            )
                assert emb.entries == expect

    def test_embed_four_legs_spread(self):
        # 1 (x) x (x) 1 (x) z: the first factor crosses leg 0; the second
        # crosses legs 0, 1 (the x columns) and 2.
        pars = [(0, 1), (0, 1), (0, 1), (0, 1)]
        for x in (E01, DIAG):
            for z in (E10, DIAG):
                px = x.operator_parity()
                pz = z.operator_parity()
                emb = embed_pair(graded_kron(x, z), pars, (1, 3))
                expect = {}
                for (i1, j1), xv in x.entries.items():
                    for (i3, j3), zv in z.entries.items():
                        for s0 in range(2):
                            for s2 in range(2):
                                sign = px * pars[0][s0] + pz * (
                                    pars[0][s0] + pars[1][j1] + pars[2][s2]
                                )
                                row = s0 * 8 + i1 * 4 + s2 * 2 + i3
                                col = s0 * 8 + j1 * 4 + s2 * 2 + j3
                                expect[(row, col)] = (
                                    xv * zv * Scalar.from_int((-1) ** sign)
                                )
                assert emb.entries == expect


class TestInverse:
    def test_round_trip(self):
        m = M((0, 0, 1), [[1, 2, 0], [0, 1, 5], [1, 0, 1]])
        ident = GradedMatrix.identity((0, 0, 1))
        assert m @ inverse(m) == ident
        assert inverse(m) @ m == ident

    def test_singular_detected(self):
        with pytest.raises(ZeroDivisionError):
            inverse(M((0, 0), [[1, 1], [1, 1]]))


class TestNilpotentCalculus:
    def test_exp_log_inverse_pair(self):
        n = M((0, 0, 0), [[0, 3, 1], [0, 0, 2], [0, 0, 0]])
        ident = GradedMatrix.identity((0, 0, 0))
        assert nil_log_unit(nil_exp(n)) == n
        assert nil_exp(n) @ nil_exp(-n) == ident

    def test_unit_power_and_sqrt(self):
        n = M((0, 0, 0), [[0, 4, 2], [0, 0, -6], [0, 0, 0]])
        u = GradedMatrix.identity((0, 0, 0)) + n
        r = unit_sqrt(u)
        assert r @ r == u
        q = unit_power(u, Fraction(-3, 4))
        assert q @ q @ q @ q @ u @ u @ u == GradedMatrix.identity((0, 0, 0))

    @pytest.mark.parametrize("r", (Fraction(1, 2), Fraction(-1, 2)), ids=str)
    def test_closure_check_rejects_a_corrupted_root(self, monkeypatch, r):
        # Adding E_02 to the root w adds 2 E_02 to w^2, so w^2 misses u,
        # and w^2 u misses the identity.
        n = M((0, 0, 0), [[0, 4, 2], [0, 0, -6], [0, 0, 0]])
        u = GradedMatrix.identity((0, 0, 0)) + n
        corner = M((0, 0, 0), [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        series = ospq.nilfun.nil_series
        monkeypatch.setattr(
            ospq.nilfun, "nil_series", lambda m, coeff_at: series(m, coeff_at) + corner
        )
        with pytest.raises(CancellationFailure, match="closure check"):
            unit_power(u, r)

    def test_not_nilpotent_rejected(self):
        with pytest.raises(NotNilpotent):
            nil_exp(M((0,), [[1]]))


def test_tensor_parity_order():
    assert tensor_parity([(0, 1), (0, 1)]) == (0, 1, 1, 0)
    assert tensor_parity([(0, 1, 0), (0,)]) == (0, 1, 0)


def test_json_round_trip():
    m = M((0, 1, 0), [[1, 0, 0], [0, 0, 0], [0, 5, 0]])
    m2 = GradedMatrix.from_json_dict(m.to_json_dict())
    assert m2 == m
    assert m2.parity == m.parity


# -- matrices and generator tables are immutable once built ------------------

_MUTATORS = {"pop", "update", "setdefault", "clear", "popitem"}
_SHARED = {"entries", "matrices", "words"}


def _shared_writes(source: str):
    """Qualified names of the functions that store into, delete from or
    call a mutating method on some ``.entries``, ``.matrices`` or
    ``.words`` attribute, once per site."""
    hits = []

    def is_shared(node):
        return isinstance(node, ast.Attribute) and node.attr in _SHARED

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        writes = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if writes and (
            is_shared(node)
            or isinstance(node, ast.Subscript) and is_shared(node.value)
        ):
            hits.append(".".join(scope))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and is_shared(node.func.value)
        ):
            hits.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return hits


class TestImmutableByContract:
    """Outside ``gmatrix.py`` a built matrix is never written, and no
    generator table is written after its constructor, save its word memo
    by ``word_matrix``, so caches may hand out shared matrices and tables."""

    def test_detector_sees_every_kind_of_write(self):
        source = (
            "def f(m, n, t):\n"
            "    m.entries[0, 0] = 1\n"
            "    del m.entries[0, 0]\n"
            "    m.entries = {}\n"
            "    m.entries.pop((0, 0))\n"
            "    n.entries.update({})\n"
            "    m.entries[1, 1] += 1\n"
            "    x = dict(m.entries)\n"
            "    x[0] = m.entries.get((0, 0))\n"
            "    t.matrices['Y'] = m\n"
            "    del t.matrices['Y']\n"
            "    t.matrices = {}\n"
            "    t.matrices.setdefault('Y', m)\n"
            "    t.matrices['Y'] += m\n"
            "    y = {**t.matrices}\n"
            "    y['Y'] = t.matrices.get('Y')\n"
            "    t.words[('e',)] = m\n"
            "    t.words.clear()\n"
            "    w = t.words.get(('e',))\n"
        )
        assert _shared_writes(source) == ["f"] * 13

    def test_only_evaluate_fills_its_own_new_matrix(self):
        package = Path(ospq.__file__).parent
        hits = {}
        for path in sorted(package.glob("*.py")):
            if path.name != "gmatrix.py":
                for site in _shared_writes(path.read_text()):
                    hits.setdefault(f"{path.stem}:{site}", 0)
                    hits[f"{path.stem}:{site}"] += 1
        # besides evaluate, a table writes only its own dicts: the
        # constructor sets them, and word_matrix fills the word memo
        assert hits == {
            "texpr:TensorExpression.evaluate": 1,
            "reps:GeneratorTable.__init__": 2,
            "reps:GeneratorTable.word_matrix": 3,
        }
