"""Command-line front end.

Five commands cover the package: ``rep`` and ``rmatrix`` emit generator
and R-matrices, ``contract`` runs the limit construction, ``verify``
dispatches the verification suites, and ``fixtures`` recomputes the
golden matrices shipped with the package and compares them entrywise.

Output is exact.  Matrices serialize with the scalar grammar, row
major; JSON key order is stable, and timings are withheld unless asked
for, so identical invocations produce identical bytes.  Exit codes
separate the three outcomes a caller needs to distinguish: 0 when every
check passed, 1 when some identity failed, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from importlib import resources

from .contraction import (
    contract,
    frt_hopf_check,
    identity_check,
    refuse_oversized_contracted_triple,
    rll_check,
)
from .gmatrix import GradedMatrix
from .halfint import HalfInt
from .hopf import r1_hopf_check, r1_relations_check, r2_hopf_check
from .ode import map_ode_check
from .qrmatrix import universal_Rq, ybe_check, ybe_check_q
from .r1 import (
    MAX_YBE_R1_DIM,
    MAX_YBE_R1_SPIN_DIM,
    SERIES_DEPTH,
    antipode_check,
    cocycle_check,
    disentangle_check,
    triangularity_check,
    twist_property_check,
    universal_Rh_r1,
)
from .report import VerificationReport, matrix_residuals
from .reps import (
    FAMILIES,
    classical_rep,
    q_rep,
    r1_generators,
    r2_generators,
    refuse_oversized,
    rep_parity,
)
from .twist import hdiag_twist_check

#: short names accepted by ``rep --variant``, mapped to the one-spin builders
REP_BUILDERS = {
    "classical": classical_rep,
    "q": q_rep,
    "r2": r2_generators,
    "r1-minimal": lambda j: r1_generators(j, "minimal"),
    "r1-hdiag": lambda j: r1_generators(j, "hdiag"),
}

# The largest module dimension 4 j + 1 that ``rep`` emits, per variant,
# checked before the table is built.  Fresh ``ospq rep`` processes on 2
# cores (JSON to /dev/null; the output grows as the square of the
# dimension):
#   classical: j = 40, 80, 120 took 0.15, 0.39, 0.76 s (28, 64, 123 MB);
#   q: j = 40, 80, 120 took 0.29, 1.33, 4.16 s (37, 102, 214 MB);
#   r2: j = 32, 48, 64 took 0.90, 2.65, 5.91 s (40, 70, 115 MB), half of it
#     the Gauss-Jordan inverse in (T - 1)(T + 1)^-1;
#   r1-minimal: j = 24, 32, 40, 48 took 1.22, 2.60, 4.88, 10.0 s (34 to 91 MB);
#   r1-hdiag: j = 32, 40, 48, 64 took 0.92, 1.66, 2.88, 6.87 s (39 to 110 MB).
# The checks build these tables at smaller spins only.
MAX_REP_DIM = {
    "classical": 321,
    "q": 321,
    "r2": 193,
    "r1-minimal": 129,
    "r1-hdiag": 193,
}

R_KINDS = ("q", "contracted", "r1")

# The largest (4 j1 + 1)(4 j2 + 1) that ``rmatrix`` emits, per kind, and
# for r1 the largest module dimension 4 j + 1 of either spin, checked
# before any table is built; ``contracted`` has the caps of ``contract``.
# Fresh ``ospq rmatrix`` processes on 2 cores (JSON to /dev/null; the
# output grows as the square of the dimension):
#   q: (5, 5), (6, 6), (8, 8) took 0.95, 1.51, 5.43 s (72, 150, 570 MB;
#     (8, 8) not re-run); the slowest pair inside, (5/2, 27/2) at 605, 3.3 s
#     (153 MB); (3, 20), at 1053, 10.7 s (553 MB, not re-run);
#   r1: (4, 4), (5, 5), (6, 6) took 0.22, 0.39, 0.88 s (minimal) and 0.50,
#     1.35, 3.77 s (hdiag).  One large spin costs alone: (1/2, 10), (1/2, 15),
#     (1/2, 20) took 0.28, 1.10, 2.56 s (minimal); inside both caps (2, 10)
#     took 0.58 s (minimal) and 1.00 s (hdiag).
MAX_RMATRIX_DIM = {"q": 625, "r1": 441}
MAX_RMATRIX_SPIN_DIM = {"r1": 41}

FIXTURE_FILES = {
    "contract-9x9": ("contract_half_half.json", "1/2", "1/2"),
    "contract-15x15": ("contract_half_one.json", "1/2", "1"),
}


# -- argument types -----------------------------------------------------------


def _half(text: str) -> HalfInt:
    try:
        value = HalfInt.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a half-integer (write k or k/2)"
        ) from None
    if value.twice < 0:
        raise argparse.ArgumentTypeError("a spin cannot be negative")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("the order must be positive")
    return value


# -- matrix emission ----------------------------------------------------------


def _substituted(matrix: GradedMatrix, h_value) -> GradedMatrix:
    if h_value is None:
        return matrix
    return matrix.map_entries(lambda s: s.substitute_h(h_value))


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_csv(matrix: GradedMatrix) -> None:
    for row in matrix.to_json_dict()["entries"]:
        print(",".join(row))


def _print_pretty(matrix: GradedMatrix) -> None:
    rows = matrix.to_json_dict()["entries"]
    widths = [max(len(row[c]) for row in rows) for c in range(matrix.dim)]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _emit_matrix(matrix: GradedMatrix, fmt: str) -> None:
    if fmt == "json":
        _print_json(matrix.to_json_dict())
    elif fmt == "csv":
        _print_csv(matrix)
    else:
        _print_pretty(matrix)


def _pair_r_matrix(kind: str, family: str, j1, j2) -> GradedMatrix:
    if kind == "q":
        return universal_Rq(j1, j2)
    if kind == "contracted":
        return contract(j1, j2).matrix
    return universal_Rh_r1(j1, j2, family)


# -- fixtures -----------------------------------------------------------------


def load_fixture(filename: str) -> GradedMatrix:
    text = resources.files("ospq").joinpath("fixtures", filename).read_text()
    return GradedMatrix.from_json_dict(json.loads(text))


def fixtures_check() -> VerificationReport:
    """Recompute the shipped golden matrices and compare them exactly.

    Each mismatch is reported at its coordinates.  A shape disagreement
    is reported once at (0, 0) instead of raising, so a corrupted file
    still yields a failing report rather than a crash.
    """
    failures = []
    for name in sorted(FIXTURE_FILES):
        filename, j1, j2 = FIXTURE_FILES[name]
        stored = load_fixture(filename)
        fresh = contract(HalfInt.parse(j1), HalfInt.parse(j2)).matrix
        if stored.dim != fresh.dim or stored.parity != fresh.parity:
            failures.append((name, (0, 0), "shape mismatch"))
            continue
        failures += matrix_residuals(name, fresh - stored)
    return VerificationReport(
        "fixtures", {"count": len(FIXTURE_FILES)}, failures
    )


# -- the verification suite registry ------------------------------------------


class SuiteSpec:
    """One row of the registry: spin arity, default spins, runner, and
    the module-level check functions the runner drives (kept explicit
    so a reflection test can prove full coverage)."""

    __slots__ = ("arity", "default_j", "run", "targets")

    def __init__(self, arity, default_j, run, targets):
        self.arity = arity
        self.default_j = default_j
        self.run = run
        self.targets = targets


def _run_ybe(spins, args):
    j1, j2, j3 = spins
    parameters = {"kind": args.kind, "j1": j1, "j2": j2, "j3": j3}
    if args.kind == "r1":
        parameters["family"] = args.family
    if args.kind == "q":
        residuals = ybe_check_q(j1, j2, j3)
    else:
        if args.kind == "contracted":
            refuse_oversized_contracted_triple(spins)
        else:
            refuse_oversized(spins, MAX_YBE_R1_DIM, MAX_YBE_R1_SPIN_DIM[args.family])
        parities = (rep_parity(j1), rep_parity(j2), rep_parity(j3))
        residuals = ybe_check(
            _pair_r_matrix(args.kind, args.family, j1, j2),
            _pair_r_matrix(args.kind, args.family, j1, j3),
            _pair_r_matrix(args.kind, args.family, j2, j3),
            parities,
        )
    failures = [("R12.R13.R23-R23.R13.R12", (r, c), v) for r, c, v in residuals]
    return [VerificationReport("ybe", parameters, failures)]


def _run_rll(spins, args):
    (j,) = spins
    return [rll_check(j)]


def _run_hopf_r2(spins, args):
    return [r2_hopf_check(*spins)]


def _run_frt_hopf(spins, args):
    return [frt_hopf_check(*spins)]


def _run_identities(spins, args):
    (j,) = spins
    top = args.order if args.order is not None else 3
    return [identity_check(j, n) for n in range(1, top + 1)]


def _run_r1_relations(spins, args):
    (j,) = spins
    return [r1_relations_check(j, args.family)]


def _run_r1_hopf(spins, args):
    return [r1_hopf_check(*spins, family=args.family)]


def _run_triangularity(spins, args):
    return [triangularity_check(*spins, family=args.family)]


def _run_twist(spins, args):
    if args.family == "hdiag":
        order = args.order if args.order is not None else SERIES_DEPTH
        return [hdiag_twist_check(*spins, order=order)]
    return [twist_property_check(*spins)]


def _run_cocycle(spins, args):
    return [cocycle_check(*spins, twist=args.family)]


def _run_antipode(spins, args):
    (j,) = spins
    return [antipode_check(j, args.family)]


def _run_disentangle(spins, args):
    (j,) = spins
    return [disentangle_check(j)]


def _run_ode(spins, args):
    order = args.order if args.order is not None else 12
    return [map_ode_check(args.family, order)]


SUITES = {
    "ybe": SuiteSpec(3, ("1/2", "1/2", "1/2"), _run_ybe, (ybe_check, ybe_check_q)),
    "rll": SuiteSpec(1, ("1/2", "1", "3/2"), _run_rll, (rll_check,)),
    "hopf-r2": SuiteSpec(3, ("1/2", "1/2", "1/2"), _run_hopf_r2, (r2_hopf_check,)),
    "frt-hopf": SuiteSpec(2, ("1/2", "1/2"), _run_frt_hopf, (frt_hopf_check,)),
    "identities": SuiteSpec(1, ("1/2", "1", "3/2"), _run_identities, (identity_check,)),
    "r1-relations": SuiteSpec(
        1, ("1/2", "1", "3/2"), _run_r1_relations, (r1_relations_check,)
    ),
    "r1-hopf": SuiteSpec(3, ("1/2", "1/2", "1/2"), _run_r1_hopf, (r1_hopf_check,)),
    "triangularity": SuiteSpec(
        2, ("1/2", "1/2"), _run_triangularity, (triangularity_check,)
    ),
    "twist": SuiteSpec(
        2, ("1/2", "1/2"), _run_twist, (twist_property_check, hdiag_twist_check)
    ),
    "cocycle": SuiteSpec(3, ("1/2", "1/2", "1/2"), _run_cocycle, (cocycle_check,)),
    "antipode": SuiteSpec(1, ("1/2", "1", "3/2"), _run_antipode, (antipode_check,)),
    "disentangle": SuiteSpec(1, ("1/2", "1", "3/2"), _run_disentangle, (disentangle_check,)),
    "ode": SuiteSpec(0, (), _run_ode, (map_ode_check,)),
}


def _suite_reports(args) -> list:
    spec = SUITES[args.suite]
    spins = list(args.j) if args.j else [HalfInt.parse(s) for s in spec.default_j]
    if spec.arity == 0:
        if spins:
            raise ValueError(f"suite {args.suite!r} takes no spins")
        groups = [()]
    elif spec.arity == 1:
        if not spins:
            raise ValueError(f"suite {args.suite!r} needs at least one spin")
        groups = [(j,) for j in spins]
    else:
        if len(spins) != spec.arity:
            raise ValueError(
                f"suite {args.suite!r} needs exactly {spec.arity} spins"
            )
        groups = [tuple(spins)]
    reports = []
    for group in groups:
        started = time.perf_counter()
        produced = spec.run(group, args)
        elapsed = time.perf_counter() - started
        for report in produced:
            if report.wall_time is None:
                report.wall_time = elapsed / len(produced)
        reports += produced
    return reports


def _emit_reports(reports, args) -> int:
    payload = [r.to_json_dict(include_timings=args.timings) for r in reports]
    if args.format == "json":
        _print_json(payload)
    else:
        for report in reports:
            line = report.summary()
            if args.timings and report.wall_time is not None:
                line += f"  [{report.wall_time:.3f}s]"
            print(line)
            for label, (row, col), residual in report.failures:
                print(f"  {label} @ ({row},{col}): {residual}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return 0 if all(r.ok for r in reports) else 1


# -- commands -----------------------------------------------------------------


def _cmd_rep(args) -> int:
    refuse_oversized((args.j,), MAX_REP_DIM[args.variant])
    rep = REP_BUILDERS[args.variant](args.j)
    matrices = {
        name: _substituted(rep.matrix(name), args.h) for name in sorted(rep.names())
    }
    if args.format == "json":
        _print_json(
            {
                "variant": rep.variant,
                "j": str(args.j),
                "dim": rep.dim,
                "generators": {
                    name: mat.to_json_dict() for name, mat in matrices.items()
                },
            }
        )
    else:
        for name, mat in matrices.items():
            print(name)
            _print_pretty(mat)
            print()
    return 0


def _cmd_rmatrix(args) -> int:
    spins = (args.j1, args.j2)
    refuse_oversized(
        spins, MAX_RMATRIX_DIM.get(args.kind), MAX_RMATRIX_SPIN_DIM.get(args.kind)
    )
    matrix = _substituted(
        _pair_r_matrix(args.kind, args.family, args.j1, args.j2), args.h
    )
    _emit_matrix(matrix, args.format)
    return 0


def _cmd_contract(args) -> int:
    source = "half-j-formula" if args.source == "formula" else "universal"
    result = contract(
        args.j1, args.j2, source=source, log_cancellation=args.log_cancellation
    )
    matrix = _substituted(result.matrix, args.h)
    if args.log_cancellation:
        if args.format == "csv":
            raise ValueError("the cancellation log does not fit the csv format")
        if args.format == "json":
            _print_json(
                {
                    "matrix": matrix.to_json_dict(),
                    "cancellation": [list(row) for row in result.log],
                }
            )
        else:
            _print_pretty(matrix)
            for i, j, order in result.log:
                print(f"entry ({i},{j}): pole order {order} before cancellation")
        return 0
    _emit_matrix(matrix, args.format)
    return 0


def _cmd_verify(args) -> int:
    return _emit_reports(_suite_reports(args), args)


def _cmd_fixtures(args) -> int:
    return _emit_reports([fixtures_check()], args)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospq",
        description="exact matrices and machine checks for the deformed osp(2|1) algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", help="emit the generator matrices of a representation")
    rep.add_argument("--variant", choices=sorted(REP_BUILDERS), required=True)
    rep.add_argument("--j", type=_half, required=True)
    rep.add_argument("--format", choices=("json", "pretty"), default="json")
    rep.add_argument("--h", type=_rational, metavar="RATIONAL", default=None)

    rmx = sub.add_parser("rmatrix", help="emit an R-matrix for a pair of spins")
    rmx.add_argument("--kind", choices=R_KINDS, default="q")
    rmx.add_argument("--family", choices=FAMILIES, default="minimal")
    rmx.add_argument("--j1", type=_half, required=True)
    rmx.add_argument("--j2", type=_half, required=True)
    rmx.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    rmx.add_argument("--h", type=_rational, metavar="RATIONAL", default=None)

    con = sub.add_parser("contract", help="contract the standard R-matrix at p = 1")
    con.add_argument("--j1", type=_half, required=True)
    con.add_argument("--j2", type=_half, required=True)
    con.add_argument("--source", choices=("universal", "formula"), default="universal")
    con.add_argument("--log-cancellation", action="store_true")
    con.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    con.add_argument("--h", type=_rational, metavar="RATIONAL", default=None)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=list(SUITES), required=True)
    ver.add_argument("--j", type=_half, nargs="*", default=None)
    ver.add_argument("--family", choices=FAMILIES, default="minimal")
    ver.add_argument("--kind", choices=R_KINDS, default="contracted")
    ver.add_argument("--order", type=_positive, default=None)
    ver.add_argument("--format", choices=("json", "pretty"), default="pretty")
    ver.add_argument("--report", metavar="PATH", default=None)
    ver.add_argument("--timings", action="store_true")

    fix = sub.add_parser(
        "fixtures", help="recompute the shipped golden matrices and compare"
    )
    fix.add_argument("--format", choices=("json", "pretty"), default="pretty")
    fix.add_argument("--report", metavar="PATH", default=None)
    fix.add_argument("--timings", action="store_true")

    return parser


_COMMANDS = {
    "rep": _cmd_rep,
    "rmatrix": _cmd_rmatrix,
    "contract": _cmd_contract,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"ospq: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"ospq: falsified: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
