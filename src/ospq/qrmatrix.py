"""R-matrices of the q-deformed algebra and the graded Yang-Baxter check.

The universal R-matrix acts on a tensor product of two spin modules as

    R = q^{h (x) h} * sum_n  q^{n(n+1)/4} (1-q^-2)^n / [n]+!
                              * (q^{h/2} e)^n (x) (q^{-h/2} f)^n

with the sum terminating once the nilpotent raising operator dies.
"""

from __future__ import annotations

from .gmatrix import GradedMatrix, graded_kron, tensor_parity
from .halfint import HalfInt, as_half, spin_cache
from .packed import product_difference
from .reps import plus_factorial, q_rep, refuse_oversized, rep_parity, weight_twice
from .scalar import ONE, P, p_power, scalar_to_string


@spin_cache
def universal_Rq(j1, j2) -> GradedMatrix:
    """Evaluate the universal R-matrix on the spin (j1, j2) tensor product."""
    rep1, rep2 = q_rep(j1), q_rep(j2)
    raise_half = rep1.matrix("K") @ rep1.matrix("e")
    lower_half = rep2.matrix("Kinv") @ rep2.matrix("f")
    nmax = min(2 * j1.twice, 2 * j2.twice)
    omega = ONE - P**-4  # 1 - q^{-2}

    an = GradedMatrix.identity(rep1.parity)
    bn = GradedMatrix.identity(rep2.parity)
    coeff = ONE
    total = None
    for n in range(nmax + 1):
        if n:
            an = an @ raise_half
            bn = bn @ lower_half
        coeff = (
            p_power(HalfInt.from_twice(n * (n + 1) // 2))
            * omega**n
            / plus_factorial(n)
        )
        term = graded_kron(an, bn, b_op_parity=n % 2).scale(coeff)
        total = term if total is None else total + term

    parity = tensor_parity((rep1.parity, rep2.parity))
    d2 = rep2.dim
    cartan = {}
    for k1 in range(rep1.dim):
        t1 = weight_twice(j1, k1)
        for k2 in range(rep2.dim):
            t2 = weight_twice(j2, k2)
            g = k1 * d2 + k2
            cartan[(g, g)] = p_power(HalfInt(t1 * t2))
    qhh = GradedMatrix(parity, cartan)
    return qhh @ total


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
# accepts, that of (2, 2, 2), which takes 0.45 s on 2 cores.  The slowest
# triple inside it, (1/2, 7/2, 7/2), takes 1.6 s; beyond it (5/2, 5/2, 5/2)
# takes 3.1 s, and (1/2, 5, 5), at 1323, takes 13 s, most of it in R_q(5, 5).
MAX_YBE_Q_DIM = 729


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
