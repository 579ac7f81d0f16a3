"""Formal tensor-product expressions over named generators.

An expression is a finite sum of pure tensors ``c * (w_1 (x) ... (x) w_n)``
where each ``w_k`` is a word (tuple) of generator names.  The Z2-grading
enters through the multiplication rule

    (u_1 (x) ... (x) u_n)(w_1 (x) ... (x) w_n)
        = (-1)^{sum_{k>l} |u_k||w_l|} (u_1 w_1 (x) ... (x) u_n w_n)

with |w| the parity of the word.  Coproduct, antipode and counit act on a
chosen leg through lookup tables supplied by the caller, and `evaluate`
turns the whole expression into a graded matrix given one representation
table per leg (on no legs, where `counit` takes a one-leg expression, a
1x1 matrix).  A table builds and memoizes its own word matrices
(`GeneratorTable.word_matrix`), so `evaluate` asks each leg's table for
its words and keeps no memo of its own.
"""

from __future__ import annotations

from .errors import UnknownGenerator
from .gmatrix import GradedMatrix, graded_kron, kron_into, tensor_parity
from .scalar import ONE, Scalar

# ``graded_kron`` is not used here but stays bound: the benchmark's
# tracer rebinds it in every module that imported it by name, and its
# test pins this module among them.
__all__ = [
    "DEGREES",
    "ODD_LETTERS",
    "TensorExpression",
    "graded_kron",
    "letter_parity",
    "tensor_product",
    "word_parity",
]

ODD_LETTERS = frozenset({"e", "f", "E", "F"})
# Each Jordanian letter's degree: twice the weight of its shift, with h of
# degree -2 (:mod:`ospq.graded`); every letter not listed has degree 0.
DEGREES = {"E": 1, "F": -1, "X": 2, "Y": -2}


def letter_parity(name: str) -> int:
    return 1 if name in ODD_LETTERS else 0


def word_parity(word) -> int:
    par = 0
    for name in word:
        par ^= letter_parity(name)
    return par


class TensorExpression:
    """Sum of scalar-weighted pure tensors of generator words.

    Every operation builds a new expression, and none writes the terms of
    an existing one."""

    __slots__ = ("nlegs", "terms")

    def __init__(self, nlegs, terms=None):
        # Cancelled terms are dropped here and nowhere else: the operations
        # sum into a plain dict and build their result through this.
        self.nlegs = nlegs
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    # -- constructors -----------------------------------------------------

    @classmethod
    def unit(cls, nlegs: int) -> "TensorExpression":
        key = tuple(() for _ in range(nlegs))
        return cls(nlegs, {key: ONE})

    @classmethod
    def letter(cls, name: str, nlegs: int = 1, leg: int = 0) -> "TensorExpression":
        words = [() for _ in range(nlegs)]
        words[leg] = (name,)
        return cls(nlegs, {tuple(words): ONE})

    @classmethod
    def word(cls, names) -> "TensorExpression":
        return cls(1, {(tuple(names),): ONE})

    @classmethod
    def pure(cls, words, coeff: Scalar = ONE) -> "TensorExpression":
        key = tuple(tuple(w) for w in words)
        return cls(len(key), {key: coeff})

    # -- ring structure ----------------------------------------------------

    def _require_same_shape(self, other):
        if self.nlegs != other.nlegs:
            raise ValueError("tensor expressions live on different leg counts")

    def __add__(self, other: "TensorExpression") -> "TensorExpression":
        self._require_same_shape(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc[key] + coeff if key in acc else coeff
        return TensorExpression(self.nlegs, acc)

    def __sub__(self, other: "TensorExpression") -> "TensorExpression":
        return self + other.scale(-ONE)

    def __neg__(self) -> "TensorExpression":
        return self.scale(-ONE)

    def scale(self, scalar: Scalar) -> "TensorExpression":
        if scalar.is_zero:
            return TensorExpression(self.nlegs, {})
        return TensorExpression(
            self.nlegs, {key: coeff * scalar for key, coeff in self.terms.items()}
        )

    def __mul__(self, other: "TensorExpression") -> "TensorExpression":
        self._require_same_shape(other)
        acc = {}
        for ukey, ucoeff in self.terms.items():
            upar = [word_parity(w) for w in ukey]
            for wkey, wcoeff in other.terms.items():
                sign = 0
                for k in range(1, self.nlegs):
                    if upar[k]:
                        for l in range(k):
                            sign ^= upar[k] & word_parity(wkey[l])
                key = tuple(ukey[k] + wkey[k] for k in range(self.nlegs))
                coeff = ucoeff * wcoeff
                if sign:
                    coeff = -coeff
                acc[key] = acc[key] + coeff if key in acc else coeff
        return TensorExpression(self.nlegs, acc)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorExpression):
            return NotImplemented
        return self.nlegs == other.nlegs and self.terms == other.terms

    def __hash__(self):
        raise TypeError("tensor expressions compare by their terms; do not hash")

    def __repr__(self):
        if not self.terms:
            return "TensorExpression(0)"
        bits = []
        for key in sorted(self.terms):
            words = " (x) ".join("".join(w) if w else "1" for w in key)
            bits.append(f"({self.terms[key]})*[{words}]")
        return "TensorExpression(" + " + ".join(bits) + ")"

    # -- Hopf structure maps ------------------------------------------------

    def coproduct(self, leg: int, delta_table) -> "TensorExpression":
        """Apply the coproduct to one leg, yielding an expression on nlegs+1 legs.

        ``delta_table`` maps each generator name to its two-leg image; the
        image of a word is the graded product of the letter images.
        """
        acc = {}
        for key, coeff in self.terms.items():
            img = TensorExpression.unit(2)
            for name in key[leg]:
                try:
                    img = img * delta_table[name]
                except KeyError:
                    raise UnknownGenerator(name) from None
            for (wa, wb), d in img.terms.items():
                words = list(key)
                words[leg : leg + 1] = [wa, wb]
                nk = tuple(words)
                c = coeff * d
                acc[nk] = acc[nk] + c if nk in acc else c
        return TensorExpression(self.nlegs + 1, acc)

    def antipode(self, leg: int, s_table) -> "TensorExpression":
        """Apply the antipode to one leg.

        The antipode is a graded antihomomorphism: on a word g_1...g_k it
        produces (-1)^{sum_{i<j} |g_i||g_j|} S(g_k)...S(g_1), each letter
        image taken from ``s_table`` (a one-leg expression).
        """
        acc = {}
        for key, coeff in self.terms.items():
            word = key[leg]
            sign = 0
            pars = [letter_parity(g) for g in word]
            for i in range(len(word)):
                for j in range(i + 1, len(word)):
                    sign ^= pars[i] & pars[j]
            img = TensorExpression.unit(1)
            for name in reversed(word):
                try:
                    img = img * s_table[name]
                except KeyError:
                    raise UnknownGenerator(name) from None
            for (w,), d in img.terms.items():
                words = list(key)
                words[leg] = w
                nk = tuple(words)
                c = coeff * d
                if sign:
                    c = -c
                acc[nk] = acc[nk] + c if nk in acc else c
        return TensorExpression(self.nlegs, acc)

    def counit(self, leg: int, eps_table) -> "TensorExpression":
        """Apply the counit to one leg, dropping it."""
        acc = {}
        for key, coeff in self.terms.items():
            c = coeff
            for name in key[leg]:
                try:
                    c = c * eps_table[name]
                except KeyError:
                    raise UnknownGenerator(name) from None
                if c.is_zero:
                    break
            nk = tuple(key[:leg] + key[leg + 1 :])
            acc[nk] = acc[nk] + c if nk in acc else c
        return TensorExpression(self.nlegs - 1, acc)

    def mu(self, leg: int) -> "TensorExpression":
        """Multiply legs ``leg`` and ``leg+1`` together (word concatenation)."""
        acc = {}
        for key, coeff in self.terms.items():
            words = list(key)
            merged = words[leg] + words[leg + 1]
            words[leg : leg + 2] = [merged]
            nk = tuple(words)
            acc[nk] = acc[nk] + coeff if nk in acc else coeff
        return TensorExpression(self.nlegs - 1, acc)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, reps) -> GradedMatrix:
        """Evaluate in the given representations, one table per leg.

        Each element of ``reps`` must expose ``word_matrix(word)``, the
        ordered product of the word's letter matrices, and ``parity``, as a
        :class:`~ospq.reps.GeneratorTable` does; the coefficients must
        multiply its entries: ``Scalar`` coefficients on ``Scalar`` tables,
        or ``int`` ones on the ``int`` tables at h = 1 of :mod:`ospq.graded`.
        Legs are combined with the graded Kronecker product, the operator
        parity of each new factor being the parity of its word; on no legs
        the result is the 1x1 even matrix of the coefficient.  The graded
        Kronecker product is linear in its first factor once the second
        factor and its parity are fixed, so the terms are grouped by their
        last-leg word: each group's shorter-leg sum is accumulated first, by
        a module function, and then costs one :func:`~ospq.gmatrix.kron_into`
        into the result's entries.  Every level sums into one entries dict
        and drops its zeros once; no matrix is built but the result.
        """
        if len(reps) != self.nlegs:
            raise ValueError("need one representation per leg")
        parities = [(0,)]
        for rep in reps:
            parities.append(tensor_parity((parities[-1], rep.parity)))
        out = GradedMatrix(parities[-1])
        out.entries = _accumulate(self.terms, reps, parities)
        return out


def _accumulate(terms, reps, parities) -> dict:
    """The nonzero entries of the sum of ``terms`` on the legs ``reps``;
    ``parities[k]`` is the parity vector of the first k legs."""
    if not reps:
        return {(0, 0): coeff for coeff in terms.values()}
    last = len(reps) - 1
    entries = {}
    if last:
        groups = {}
        for key, coeff in terms.items():
            groups.setdefault(key[last], {})[key[:last]] = coeff
        for word, heads in groups.items():
            kron_into(
                entries,
                _accumulate(heads, reps[:last], parities),
                parities[last],
                reps[last].word_matrix(word),
                word_parity(word),
            )
    else:
        get = entries.get
        for (word,), coeff in terms.items():
            for ij, val in reps[0].word_matrix(word).entries.items():
                if coeff is not ONE:
                    val = val * coeff
                cur = get(ij)
                entries[ij] = val if cur is None else cur + val
    return {ij: val for ij, val in entries.items() if val}


def tensor_product(*exprs) -> TensorExpression:
    """Juxtapose expressions into one on the concatenated legs.

    No grading signs enter here: the factors are placed side by side in
    the order given, exactly as writing x (x) y for already-separate
    tensor factors.
    """
    nlegs = sum(e.nlegs for e in exprs)
    out = {}
    stack = [((), ONE)]
    for e in exprs:
        nxt = []
        for prefix, coeff in stack:
            for key, c in e.terms.items():
                nxt.append((prefix + key, coeff * c))
        stack = nxt
    for key, coeff in stack:
        out[key] = out[key] + coeff if key in out else coeff
    return TensorExpression(nlegs, out)
