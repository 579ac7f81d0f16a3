"""R-matrices of the q-deformed algebra and the graded Yang-Baxter check.

The universal R-matrix acts on a tensor product of two spin modules as

    R = q^{h (x) h} * sum_n  q^{n(n+1)/4} (1-q^-2)^n / [n]+!
                              * (q^{h/2} e)^n (x) (q^{-h/2} f)^n

with the sum terminating once the nilpotent raising operator dies.  The
n-th term moves leg 1 up by n steps and leg 2 down by n, so the terms
have disjoint supports and every entry of R is one product: the Cartan
power, the coefficient, the entries of the two legs' n-th powers and the
graded sign.  Each factor is a factored q-number
(:class:`~ospq.qnumber.QNumber`), so an entry is formed without a
polynomial GCD and written as a ``Scalar`` once.
"""

from __future__ import annotations

from .errors import Inconsistency
from .gmatrix import GradedMatrix, tensor_parity
from .halfint import as_half, spin_cache
from .packed import product_difference
from .qnumber import QNumber
from .reps import (
    factored_plus_factorial,
    q_lowering,
    refuse_oversized,
    rep_dim,
    rep_parity,
    weight_twice,
)
from .scalar import scalar_to_string


@spin_cache
def universal_Rq_factors(j1, j2) -> dict:
    """The entries of the universal R-matrix on the spin (j1, j2) product,
    keyed by (row, col), as factored q-numbers."""
    d1, d2 = rep_dim(j1), rep_dim(j2)
    lower = q_lowering(j2)
    omega = QNumber.p_power(-4) * QNumber.p_minus_one(4)  # 1 - q^{-2}
    # leg 1: the p-exponent of (q^{h/2} e)^n at (k1 - n, k1), k1 >= n;
    # leg 2: (q^{-h/2} f)^n at (k2 + n, k2), k2 < d2 - n
    raise_exp = [0] * d1
    lower_n = [QNumber(1)] * d2
    entries = {}
    for n in range(min(d1, d2)):
        if n:
            for k1 in range(n, d1):
                raise_exp[k1] += weight_twice(j1, k1 - n)
            lower_n = [
                QNumber.p_power(-weight_twice(j2, k2 + n)) * lower[k2 + n - 1] * x
                for k2, x in enumerate(lower_n[: d2 - n])
            ]
        coeff = (
            QNumber.p_power(n * (n + 1) // 2)
            * omega**n
            * factored_plus_factorial(n).reciprocal()
        )
        scaled = [coeff * low for low in lower_n]
        for k1 in range(n, d1):
            t1 = weight_twice(j1, k1 - n)
            sign = -1 if n % 2 and k1 % 2 else 1
            for k2, c in enumerate(scaled):
                t2 = weight_twice(j2, k2 + n)
                key = ((k1 - n) * d2 + k2 + n, k1 * d2 + k2)
                if key in entries:
                    raise Inconsistency("two terms of R_q share an entry")
                entries[key] = QNumber(sign, 2 * t1 * t2 + raise_exp[k1]) * c
    return entries


@spin_cache
def universal_Rq(j1, j2) -> GradedMatrix:
    """Evaluate the universal R-matrix on the spin (j1, j2) tensor product."""
    parity = tensor_parity((rep_parity(j1), rep_parity(j2)))
    return GradedMatrix(parity, {
        key: q.to_scalar() for key, q in universal_Rq_factors(j1, j2).items()
    })


def ybe_check(r12, r13, r23, parities):
    """Residual entries of R12 R13 R23 - R23 R13 R12 on the triple product.

    ``parities`` holds the three leg parity tuples; each pair matrix lives
    on its two legs and is embedded with identity on the third.  An empty
    return value means the graded Yang-Baxter equation holds exactly.
    The equation is decided on packed integers when they prove it
    (:func:`~ospq.packed.product_difference`).
    """
    factors = [(r12, (0, 1)), (r13, (0, 2)), (r23, (1, 2))]
    diff = product_difference(factors, (0, 1, 2), (2, 1, 0), parities)
    return [
        (r, c, scalar_to_string(v))
        for (r, c), v in sorted(diff.entries.items())
    ]


# The largest dimension (4 j1 + 1)(4 j2 + 1)(4 j3 + 1) that ``ybe_check_q``
# accepts, that of (5/2, 5/2, 5/2).  Fresh processes on 2 cores (wall time,
# peak RSS): (2, 2, 2) 0.34 s (36 MB), (5/2, 5/2, 5/2) 1.8 s (98 MB) and
# (1/2, 5, 5), at 1323, 2.1 s (178 MB); the slowest triples inside it,
# (1, 1, 13) and (1/2, 3, 15/2), take 2.0 s (136 MB) and 3.0 s (196 MB).
# Beyond it (1/2, 6, 6), at 1875, takes 6.3 s (443 MB) and (3, 3, 3), at
# 2197, 8.9 s (299 MB): the packed product, not R_q, sets the cost.
MAX_YBE_Q_DIM = 1331


def ybe_check_q(j1, j2, j3):
    """Graded Yang-Baxter residuals for the universal R-matrix at three spins.

    Spins whose product dimension exceeds ``MAX_YBE_Q_DIM`` raise
    ``ValueError`` at once."""
    j1, j2, j3 = as_half(j1), as_half(j2), as_half(j3)
    refuse_oversized((j1, j2, j3), MAX_YBE_Q_DIM)
    parities = (rep_parity(j1), rep_parity(j2), rep_parity(j3))
    return ybe_check(
        universal_Rq(j1, j2),
        universal_Rq(j1, j3),
        universal_Rq(j2, j3),
        parities,
    )
