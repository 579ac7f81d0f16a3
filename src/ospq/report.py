"""Structured results for the verification suites.

A report names the suite, records the parameters it ran with, and carries
zero or more failures.  Each failure is a triple: the label of the identity
that broke, the matrix entry where it broke, and the exact residual there
as a scalar string.  Wall-clock time is stored but only serialized on
request, so that default output stays byte-for-byte reproducible.
"""

from __future__ import annotations

from .scalar import scalar_to_string


class VerificationReport:
    __slots__ = ("suite", "parameters", "failures", "wall_time")

    def __init__(self, suite, parameters, failures, wall_time=None):
        self.suite = suite
        self.parameters = dict(parameters)
        self.failures = sorted(failures)
        self.wall_time = wall_time

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "status": self.status,
            "failures": [
                [label, [row, col], residual]
                for label, (row, col), residual in self.failures
            ],
        }
        if include_timings and self.wall_time is not None:
            out["wall_time"] = self.wall_time
        return out

    def summary(self) -> str:
        """One line: the suite, the verdict and the parameters, in the order
        the check gave them, so that the lines of several reports of one
        suite tell their checks apart."""
        word = "pass" if self.ok else f"FAIL ({len(self.failures)} residuals)"
        line = f"{self.suite}: {word}"
        if self.parameters:
            line += " for " + ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return line


def matrix_residuals(label: str, diff) -> list:
    """Flatten the nonzero entries of a difference matrix into failures."""
    return [
        (label, (r, c), scalar_to_string(v))
        for (r, c), v in sorted(diff.entries.items())
    ]


def series_residuals(label: str, diff, upto: int) -> list:
    """Failures from the h-expansion of a difference matrix, through h^upto.

    Used by the checks that only claim validity to a finite order in h:
    the entries must be h-polynomial (over an h-free denominator) and
    each surviving Taylor coefficient becomes one failure, labelled with
    its order.
    """
    failures = []
    for (row, col), value in sorted(diff.entries.items()):
        for order, coeff in enumerate(value.h_coefficients(upto)):
            if not coeff.is_zero:
                failures.append(
                    (f"{label}:h^{order}", (row, col), scalar_to_string(coeff))
                )
    return failures
