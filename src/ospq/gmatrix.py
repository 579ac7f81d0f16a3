"""Z2-graded matrices over the exact scalar field.

Basis vectors carry parities (0 even, 1 odd) and matrices are sparse
dicts keyed by (row, col).  The graded tensor product follows

    (a (x) b)(v (x) w) = (-1)^{|b| |v|} (a v) (x) (b w),

so in components the Kronecker product picks up the sign
(-1)^{|b| * parity(first-factor column)}.  Only the parity of the second
operand enters; it is inferred from the matrix when homogeneous and must
be supplied otherwise.

``embed_pair`` places a two-leg operator onto chosen legs of a longer
tensor product.  For an operator sum(x_t (x) z_t) acting on legs a < b,
moving x past the legs left of a and z past the legs between a and b
costs

    (-1)^{|x| * sum(col parities before a) + |z| * sum(col parities strictly between a and b)},

with |x| and |z| read off entrywise from row and column parities.  This
single rule covers every leg placement used by the Yang-Baxter, RLL and
triangularity checks.

``graded_primitive`` builds the primitive coproduct a (x) 1 + 1 (x) b, and
``block_matrix`` lays a table of blocks out on V_outer (x) V_inner without
signs, the form in which the spin-(1/2, j) R-matrices are written.

Outside this module a matrix is never written after it is built (a test
parses the package to pin this), so matrices may be shared and hashed.

Entries are usually :class:`~ospq.scalar.Scalar`, but ``@``, ``+``, ``-``,
``scale``, ``map_entries`` and ``graded_kron`` ask of an entry only this
protocol:

* truthiness, false only for an exact zero: such an entry is dropped,
  and an absent entry is read as an exact zero;
* ``a + b``, ``a - b``, ``-a`` and ``a * b`` between two entries of the
  same type (``scale`` multiplies by its argument).

``identity``, ``graded_primitive``, ``entry``, ``inverse`` and the JSON
form need ``Scalar`` entries.  There are two other entry types.  One is
:class:`~ospq.laurent.Laurent`, the truncated Laurent series in t = p - 1
on which the contraction and the ODE oracle run; it has no ``__bool__``,
so it is always kept.  The other is the plain ``int``, the value at
h = 2^B of an integer polynomial in h on which :mod:`ospq.packed`
evaluates the Hopf suites.
"""

from __future__ import annotations

from .errors import NonHomogeneous
from .scalar import ONE, ZERO, Scalar, scalar_from_string, scalar_to_string


class GradedMatrix:
    __slots__ = ("dim", "parity", "entries")

    def __init__(self, parity, entries=None):
        self.parity = tuple(parity)
        self.dim = len(self.parity)
        self.entries = {}
        if entries:
            for key, val in entries.items():
                if val:
                    self.entries[key] = val

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, parity) -> "GradedMatrix":
        n = len(parity)
        return cls(parity, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, parity) -> "GradedMatrix":
        return cls(parity, {})

    # -- accessors ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries.get((i, j), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def operator_parity(self):
        """0 or 1 when homogeneous (zero matrix counts as even), else None."""
        par = None
        for (i, j) in self.entries:
            this = (self.parity[i] + self.parity[j]) % 2
            if par is None:
                par = this
            elif par != this:
                return None
        return 0 if par is None else par

    # -- ring operations -------------------------------------------------------

    def _same_shape(self, other: "GradedMatrix"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {other.dim}")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._same_shape(other)
        entries = dict(self.entries)
        for key, val in other.entries.items():
            acc = entries.get(key)
            s = val if acc is None else acc + val
            if not s:
                entries.pop(key, None)
            else:
                entries[key] = s
        out = GradedMatrix(self.parity)
        out.entries = entries
        return out

    def __neg__(self) -> "GradedMatrix":
        out = GradedMatrix(self.parity)
        out.entries = {k: -v for k, v in self.entries.items()}
        return out

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def scale(self, c) -> "GradedMatrix":
        if not c:
            return GradedMatrix.zero(self.parity)
        out = GradedMatrix(self.parity)
        out.entries = {k: v * c for k, v in self.entries.items()}
        return out

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._same_shape(other)
        rows_b: dict[int, list] = {}
        for (k, j), v in other.entries.items():
            rows_b.setdefault(k, []).append((j, v))
        acc: dict[tuple, Scalar] = {}
        for (i, k), a in self.entries.items():
            hits = rows_b.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                prod = a * b
                cur = acc.get(key)
                s = prod if cur is None else cur + prod
                if not s:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        out = GradedMatrix(self.parity)
        out.entries = acc
        return out

    def __pow__(self, n: int) -> "GradedMatrix":
        if n < 0:
            return inverse(self) ** (-n)
        out = GradedMatrix.identity(self.parity)
        base = self
        while n:
            if n & 1:
                out = out @ base
            n >>= 1
            if n:
                base = base @ base
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.parity, tuple(sorted(self.entries.items()))))

    def map_entries(self, fn) -> "GradedMatrix":
        out = GradedMatrix(self.parity)
        for k, v in self.entries.items():
            w = fn(v)
            if w:
                out.entries[k] = w
        return out

    def __repr__(self):
        return f"GradedMatrix(dim={self.dim}, nnz={len(self.entries)})"

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "parity": ["odd" if p else "even" for p in self.parity],
            "entries": [
                [scalar_to_string(self.entry(i, j)) for j in range(self.dim)]
                for i in range(self.dim)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedMatrix":
        parity = tuple(1 if p == "odd" else 0 for p in data["parity"])
        entries = {}
        for i, row in enumerate(data["entries"]):
            for j, text in enumerate(row):
                val = scalar_from_string(text)
                if val:
                    entries[(i, j)] = val
        out = cls(parity)
        out.entries = entries
        return out


def graded_kron(a: GradedMatrix, b: GradedMatrix, b_op_parity=None) -> GradedMatrix:
    """Graded Kronecker product on the first-factor-major basis."""
    if b_op_parity is None:
        b_op_parity = b.operator_parity()
        if b_op_parity is None:
            raise NonHomogeneous(
                "second tensor factor has mixed parity and none was declared"
            )
    parity = tuple(
        (pa + pb) % 2 for pa in a.parity for pb in b.parity
    )
    db = b.dim
    out = GradedMatrix(parity)
    entries = {}
    for (i, j), av in a.entries.items():
        sign = -1 if (b_op_parity and a.parity[j]) else 1
        for (k, l), bv in b.entries.items():
            val = av * bv
            if sign < 0:
                val = -val
            entries[(i * db + k, j * db + l)] = val
    out.entries = entries
    return out


def tensor_parity(parities) -> tuple:
    """Parity vector of a tensor product of graded spaces."""
    out = [0]
    for par in parities:
        out = [(x + p) % 2 for x in out for p in par]
    return tuple(out)


def graded_primitive(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The primitive coproduct a (x) 1 + 1 (x) b; b must be homogeneous."""
    one_a, one_b = GradedMatrix.identity(a.parity), GradedMatrix.identity(b.parity)
    return graded_kron(a, one_b, b_op_parity=0) + graded_kron(one_a, b)


def block_matrix(outer_parity, blocks) -> GradedMatrix:
    """The matrix whose (a, b) block is ``blocks[a][b]``, on the space
    V_outer (x) V_inner; every block acts on the same inner space."""
    inner = blocks[0][0].parity
    d = len(inner)
    entries = {
        (a * d + i, b * d + k): val
        for a, row in enumerate(blocks)
        for b, block in enumerate(row)
        for (i, k), val in block.entries.items()
    }
    return GradedMatrix(tensor_parity((outer_parity, inner)), entries)


def embed_pair(r: GradedMatrix, parities, legs) -> GradedMatrix:
    """Embed a two-leg operator onto legs (a, b) of a longer product."""
    a, b = legs
    if not 0 <= a < b < len(parities):
        raise ValueError(f"bad leg pair {legs}")
    dims = [len(par) for par in parities]
    if r.dim != dims[a] * dims[b]:
        raise ValueError("operator dimension does not match the chosen legs")
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    id_legs = [l for l in range(len(dims)) if l not in (a, b)]
    before_a = [l for l in id_legs if l < a]
    between = [l for l in id_legs if a < l < b]
    out = GradedMatrix(tensor_parity(parities))
    entries = {}

    def fill(combo):
        # combo maps identity leg -> basis index
        for (rr, cc), val in r.entries.items():
            ia, ib = divmod(rr, dims[b])
            ja, jb = divmod(cc, dims[b])
            px = (parities[a][ia] + parities[a][ja]) % 2
            pz = (parities[b][ib] + parities[b][jb]) % 2
            # The first-leg factor crosses every spectator before leg a, and
            # the second-leg factor crosses those same spectators plus the
            # ones strictly between a and b; the sign inside the pair itself
            # already sits in the pair matrix.
            sign = 0
            if (px + pz) % 2:
                sign += sum(parities[l][combo[l]] for l in before_a)
            if pz:
                sign += sum(parities[l][combo[l]] for l in between)
            row = ia * strides[a] + ib * strides[b]
            col = ja * strides[a] + jb * strides[b]
            for l in id_legs:
                row += combo[l] * strides[l]
                col += combo[l] * strides[l]
            entries[(row, col)] = -val if sign % 2 else val

    combos = [{}]
    for l in id_legs:
        combos = [{**c, l: i} for c in combos for i in range(dims[l])]
    for combo in combos:
        fill(combo)
    out.entries = entries
    return out


def swap_conjugate(m: GradedMatrix, parity_a, parity_b) -> GradedMatrix:
    """Conjugate by the graded swap: given M acting on V_b (x) V_a, return
    the operator tau(M) on V_a (x) V_b.

    For a homogeneous product this realizes
    tau(x (x) z) = (-1)^{|x| |z|} z (x) x.
    """
    da, db = len(parity_a), len(parity_b)
    if m.dim != da * db:
        raise ValueError("dimension mismatch in swap conjugation")
    parity = tuple((pa + pb) % 2 for pa in parity_a for pb in parity_b)
    out = GradedMatrix(parity)
    entries = {}
    for (r, c), val in m.entries.items():
        mm, nn = divmod(r, da)  # row of M in V_b (x) V_a
        ll, jj = divmod(c, da)
        sign = parity_a[nn] * parity_b[mm] + parity_a[jj] * parity_b[ll]
        row = nn * db + mm
        col = jj * db + ll
        entries[(row, col)] = -val if sign % 2 else val
    out.entries = entries
    return out


def inverse(m: GradedMatrix) -> GradedMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = m.dim
    rows = [dict() for _ in range(n)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    work = []
    for i in range(n):
        row = dict(rows[i])
        row[n + i] = ONE
        work.append(row)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if col in work[r]:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col].reciprocal()
        work[col] = {k: v * scale for k, v in work[col].items()}
        for r in range(n):
            if r == col:
                continue
            factor = work[r].get(col)
            if factor is None:
                continue
            row = work[r]
            del row[col]
            for k, v in work[col].items():
                if k == col:
                    continue
                s = row.get(k, ZERO) - factor * v
                if not s:
                    row.pop(k, None)
                else:
                    row[k] = s
    out = GradedMatrix(m.parity)
    entries = {}
    for i in range(n):
        for k, v in work[i].items():
            if k >= n and v:
                entries[(i, k - n)] = v
    out.entries = entries
    return out
