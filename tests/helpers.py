"""Helpers shared by the test modules."""

import sys

from ospq.errors import PoleAtUnity
from ospq.gmatrix import GradedMatrix, block_matrix
from ospq.halfint import as_half
from ospq.laurent import Laurent
from ospq.reps import q_rep
from ospq.scalar import ONE, P, Scalar


def from_rows(parity, rows) -> GradedMatrix:
    """A matrix from its rows of ``Scalar`` or ``int`` entries."""
    entries = {}
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            if isinstance(val, int):
                val = Scalar.from_int(val)
            if not val.is_zero:
                entries[(i, j)] = val
    return GradedMatrix(parity, entries)


def rq_half_j(j) -> GradedMatrix:
    """Spin (1/2, j) R-matrix in closed block form over the spin-j module.

    For a spin-1/2 first factor the universal R-matrix collapses to this
    3x3 block form in the second-factor generators, so it is an
    independent oracle for ``qrmatrix.universal_Rq``.
    """
    j = as_half(j)
    rep = q_rep(j)
    omega = P**2 - P**-2  # q - q^{-1}
    f = rep.matrix("f")
    big_t, big_tinv = rep.matrix("t"), rep.matrix("tinv")
    half, halfinv = rep.matrix("K"), rep.matrix("Kinv")
    ident = rep.identity()
    zero = GradedMatrix.zero(rep.parity)
    blocks = [
        [
            big_t,
            (half @ f).scale(-omega),
            (f @ f).scale(-(omega * (ONE + P**-2))),
        ],
        [zero, ident, (halfinv @ f).scale(omega * P**-1)],
        [zero, zero, big_tinv],
    ]
    return block_matrix((0, 1, 0), blocks)


def series_limit(x: Laurent) -> Scalar:
    """The value at p = 1 of a truncated series: its t^0 coefficient,
    which it must know, with no nonzero coefficient at a negative power."""
    const = x.coefficient(0)
    if x.val < 0:
        raise PoleAtUnity(f"a pole of order {-x.val} at p = 1 survives")
    return Scalar.from_h_laurent({e: int(c * x.den) for e, c in const.items()}, x.den)


def clear_package_caches():
    """Empty every ``lru_cache`` in the package, so the next call is cold."""
    for name, module in list(sys.modules.items()):
        if name == "ospq" or name.startswith("ospq."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
