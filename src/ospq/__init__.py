"""Exact symbolic toolkit for deformations of the osp(2|1) superalgebra.

The package constructs the standard q-deformation and the two Jordanian
deformations of osp(2|1) in finite-dimensional representations, carries
out the contraction from the standard to the Jordanian R-matrices, and
machine-checks every algebraic identity involved with exact rational
arithmetic.  No floating point is used anywhere.

The commonly used entry points are re-exported here; each submodule
carries the full story for its corner of the construction.
"""

from .contraction import contract, rll_check, tilde_t
from .gmatrix import GradedMatrix, graded_kron, swap_conjugate
from .halfint import HalfInt
from .hopf import (
    q_algebra,
    r1_algebra,
    r1_hopf_check,
    r1_relations_check,
    r2_algebra,
    r2_hopf_check,
)
from .ode import map_ode_check
from .qrmatrix import universal_Rq, ybe_check, ybe_check_q
from .r1 import (
    antipode_check,
    cocycle_check,
    disentangle_check,
    triangularity_check,
    twist_property_check,
    universal_Rh_r1,
)
from .report import VerificationReport
from .reps import classical_rep, q_rep, r1_generators
from .scalar import Scalar, p_power, scalar_from_string, scalar_to_string
from .twist import hdiag_twist_check, series_twist

__all__ = [
    "GradedMatrix",
    "HalfInt",
    "Scalar",
    "VerificationReport",
    "antipode_check",
    "classical_rep",
    "cocycle_check",
    "contract",
    "disentangle_check",
    "graded_kron",
    "hdiag_twist_check",
    "map_ode_check",
    "p_power",
    "q_algebra",
    "q_rep",
    "r1_algebra",
    "r1_generators",
    "r1_hopf_check",
    "r1_relations_check",
    "r2_algebra",
    "r2_hopf_check",
    "rll_check",
    "scalar_from_string",
    "scalar_to_string",
    "series_twist",
    "swap_conjugate",
    "tilde_t",
    "triangularity_check",
    "twist_property_check",
    "universal_Rh_r1",
    "universal_Rq",
    "ybe_check",
    "ybe_check_q",
]

__version__ = "0.1.0"
