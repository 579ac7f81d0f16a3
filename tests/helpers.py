"""Helpers shared by the test modules."""

from ospq.gmatrix import GradedMatrix
from ospq.scalar import Scalar


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
