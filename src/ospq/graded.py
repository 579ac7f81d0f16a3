"""Tensor expressions on the Jordanian tables, decided at h = 1 by the grading.

Give h the twice-weight -2 and each letter the twice-weight of its shift,
its degree (:data:`~ospq.texpr.DEGREES`).  On the Jordanian tables every
entry (i, k) of a letter of degree deg is one p-free monomial c h^e with
2e = wt_i - wt_k - deg, wt_i being twice the weight of basis index i
(:func:`~ospq.reps.weight_twice`).  Products, graded Kronecker products
and sums of such operators stay graded, their degrees adding, and a term
c h^f (w_1 (x) ... (x) w_n) has the degree sum(deg w) - 2f.  So each
entry (I, K) of a sum of terms of one degree d is c h^((wt_I - wt_K - d)/2),
on the basis weights of the tensor product: it is zero exactly when c is,
and c is the entry's value at h = 1.  Terms of different degrees put their
entries on different powers of h, so each degree's terms are evaluated
alone, and their lifts summed.  This is a proof, not a probabilistic
test, and nothing is approximated.

* A table passes its gate when every entry of every letter is such a
  monomial c/k h^e.  It then gives its letters at h = 1 times D, the lcm
  of the k, as an int table (:class:`_IntTable`), kept on the table in
  its ``graded`` memo, as is a refusal.
* An expression passes when every coefficient is a p-free monomial
  c/k h^f.  The terms of each degree are brought to one integer scale
  and evaluated by :meth:`~ospq.texpr.TensorExpression.evaluate` on the
  int tables, and each entry v of the result is lifted to
  (v / scale) h^e.  No expression keeps a memo.

When a gate refuses (the q tables, a perturbed table, p in a coefficient)
the expression is evaluated on ``Scalar``s, as ``expr.evaluate(reps)``
does.  Either way the result is the exact ``Scalar`` matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import NotGraded
from .gmatrix import GradedMatrix, tensor_parity
from .reps import GeneratorTable, rep_dim, weight_twice
from .scalar import Scalar
from .texpr import DEGREES, TensorExpression


def evaluate_all(exprs, reps) -> list:
    """``[expr.evaluate(reps) for expr in exprs]``, each decided at h = 1 by
    its grading when the tables and its coefficients pass their gates.
    Either way each distinct table's word matrices are built once: in its
    int table's memo on the graded route, otherwise in the table's own."""
    if any(expr.nlegs != len(reps) for expr in exprs):
        raise ValueError("need one representation per leg")
    tables = [_IntTable.of(rep) for rep in reps]
    if None in tables:
        return [expr.evaluate(reps) for expr in exprs]
    weights = [0]
    for table in tables:
        weights = [w + x for w in weights for x in table.weights]
    parity = tensor_parity([table.parity for table in tables])
    out = []
    for expr in exprs:
        m = _lifted(expr, tables, weights, parity)
        out.append(expr.evaluate(reps) if m is None else m)
    return out


def _monomial(s: Scalar):
    """(c, k, f) with s = c/k h^f, or None when s has p or more than one
    term in its numerator or its denominator."""
    if len(s.num) != 1 or len(s.den) != 1:
        return None
    ((ep, eh), c), = s.num.items()
    ((dp, dh), k), = s.den.items()
    if ep or dp:
        return None
    return c, k, eh - dh


class _IntTable(GeneratorTable):
    """A table's letters at h = 1 times ``den``, as ``int`` matrices, with
    twice the weight of each basis index."""

    __slots__ = ("den", "weights")

    def identity(self) -> GradedMatrix:
        return GradedMatrix(self.parity, {(i, i): 1 for i in range(self.dim)})

    @classmethod
    def of(cls, rep):
        """The int table of ``rep``, or None when an entry is off the
        grading; kept in the table's ``graded`` memo, a refusal as False."""
        if rep.graded is None:
            rep.graded = cls._gated(rep) or False
        return rep.graded or None

    @classmethod
    def _gated(cls, rep):
        """The int table, or None unless every entry (i, k) of a letter of
        degree deg is a p-free c/k h^e with 2e = wt_i - wt_k - deg."""
        if rep.j is None or rep_dim(rep.j) != rep.dim:
            return None
        weights = [weight_twice(rep.j, k) for k in range(rep.dim)]
        letters = {}
        for name in rep.names():
            deg = DEGREES.get(name, 0)
            cells = letters[name] = {}
            for (i, k), v in rep.matrix(name).entries.items():
                mono = _monomial(v)
                if mono is None or 2 * mono[2] != weights[i] - weights[k] - deg:
                    return None
                cells[i, k] = mono[:2]
        den = lcm(*(k for cells in letters.values() for _, k in cells.values()))
        table = cls(rep.variant, rep.j, rep.parity, {
            name: GradedMatrix(rep.parity, {ik: c * (den // k) for ik, (c, k) in cells.items()})
            for name, cells in letters.items()
        })
        table.den = den
        table.weights = weights
        return table


def _lifted(expr, tables, weights, parity):
    """The matrix of ``expr`` on the int tables, lifted by the grading, or
    None when a coefficient is not a p-free monomial."""
    groups = {}
    for key, coeff in expr.terms.items():
        mono = _monomial(coeff)
        if mono is None:
            return None
        c, k, f = mono
        degree = sum(DEGREES.get(name, 0) for word in key for name in word) - 2 * f
        scale = k * prod(table.den ** len(word) for table, word in zip(tables, key))
        groups.setdefault(degree, []).append((key, c, scale))
    entries = {}
    for degree, terms in groups.items():
        top = lcm(*(scale for _, _, scale in terms))
        ints = TensorExpression(expr.nlegs, {key: c * (top // scale) for key, c, scale in terms})
        for (i, k), v in ints.evaluate(tables).entries.items():
            twice = weights[i] - weights[k] - degree
            if twice % 2:
                raise NotGraded(f"entry ({i}, {k}) of degree {degree} at h^({twice}/2)")
            val = Scalar.monomial(Fraction(v, top), 0, twice // 2)
            cur = entries.get((i, k))
            entries[i, k] = val if cur is None else cur + val
    return GradedMatrix(parity, entries)
