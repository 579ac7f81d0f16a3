"""The benchmark's workloads: exact checks of ospq with known answers.

Each workload is a list of checks.  A check runs through ospq's public
API and returns ``(passed, output)``: ``passed`` is the check's own
verdict and ``output`` what it computed, as ospq returned it.  Only
after the check is timed does ``digest`` turn the output into its
canonical JSON form and hash it.  A positive check must pass and a
negative control must fail, and the SHA-256 of every output's canonical
JSON must equal the digest pinned in ``digests.json``.  Either miss
counts as a failed operation.

The pinned digests were taken from the outputs of the unmodified
package, so any change to ospq that alters a single output byte shows
up as a miss here, whatever its effect on speed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

from ospq.contraction import (
    contract,
    identity_check,
    r2_generators,
    rll_check,
    tilde_t_routes,
)
from ospq.gmatrix import GradedMatrix, graded_kron
from ospq.halfint import HalfInt
from ospq.hopf import (
    hopf_suite_failures,
    q_algebra,
    r1_algebra,
    r1_hopf_check,
    r1_relations_check,
    r2_algebra,
    r2_hopf_check,
    relations_residuals,
)
from ospq.nilfun import nil_exp
from ospq.qrmatrix import ybe_check, ybe_check_q
from ospq.r1 import (
    antipode_check,
    antipode_transformer,
    disentangle_check,
    inverse_map_words,
    r1_generators,
    x_nilpotency,
)
from ospq.report import series_residuals
from ospq.reps import GeneratorTable, classical_rep, q_rep, rep_parity
from ospq.scalar import H, Scalar, scalar_to_string
from ospq.texpr import TensorExpression as TE
from ospq.twist import (
    SERIES_DEPTH,
    TwistSeries,
    hdiag_twist_check,
    hdiag_twist_expression,
    series_twist,
)

HALF = HalfInt(Fraction(1, 2))
ONE_J = HalfInt(1)
THREE_HALF = HalfInt(Fraction(3, 2))
TWO_J = HalfInt(2)

FIXTURES = {
    (HALF, HALF): "contract_half_half.json",
    (HALF, ONE_J): "contract_half_one.json",
}


def _name(*spins) -> str:
    return ",".join(str(j) for j in spins)


def _report(report):
    return report.ok, report


def _residuals(found):
    return found == [], found


def _flipped_y(table: GeneratorTable) -> GeneratorTable:
    mats = {name: table.matrix(name) for name in table.names()}
    mats["Y"] = -mats["Y"]
    return GeneratorTable(table.variant, table.j, table.parity, mats)


def _p_free(matrix: GradedMatrix) -> bool:
    # A finished contraction has no p left in any numerator or denominator.
    return all(
        ep == 0
        for value in matrix.entries.values()
        for ep, _ in (*value.num, *value.den)
    )


def _series(series: TwistSeries) -> dict:
    coefficients = [
        [
            [[list(word) for word in key], scalar_to_string(value)]
            for key, value in sorted(coeff.terms.items())
        ]
        for coeff in series.coefficients
    ]
    return {
        "order": series.order,
        "kernel_dimensions": series.kernel_dimensions,
        "display_matched": series.display_matched,
        "coefficients": coefficients,
    }


# -- check bodies -------------------------------------------------------------


def golden(fixtures, j1, j2):
    matrix = contract(j1, j2).matrix
    return matrix == fixtures[FIXTURES[(j1, j2)]], matrix


def contract_rung(fixtures, j1, j2):
    matrix = contract(j1, j2).matrix
    return _p_free(matrix), matrix


def altered_golden(fixtures):
    """Negative control: the 9x9 fixture with one entry changed."""
    stored = fixtures[FIXTURES[(HALF, HALF)]]
    bad = GradedMatrix(stored.parity, dict(stored.entries))
    bad.entries[(0, 0)] = bad.entries[(0, 0)] + H
    matrix = contract(HALF, HALF).matrix
    unequal = {
        key
        for key in set(matrix.entries) | set(bad.entries)
        if matrix.entry(*key) != bad.entry(*key)
    }
    return matrix == bad, unequal


def poisoned_ybe(fixtures):
    """Negative control: one h added to the contracted R must break YBE."""
    r = contract(HALF, HALF).matrix
    poisoned = r + GradedMatrix(r.parity, {(0, 8): H})
    return _residuals(ybe_check(poisoned, r, r, (rep_parity(HALF),) * 3))


def q_hopf(fixtures, *spins):
    reps = [q_rep(j) for j in spins]
    return _residuals(hopf_suite_failures(q_algebra(), reps))


def r2_relations(fixtures, j):
    return _residuals(relations_residuals(r2_algebra(), r2_generators(j)))


def flipped_r2(fixtures):
    """Negative control: negating Y must break the r2 relation list."""
    table = _flipped_y(r2_generators(HALF))
    return _residuals(relations_residuals(r2_algebra(), table))


def flipped_r1(fixtures):
    """Negative control: negating Y must break the r1 relation list."""
    table = _flipped_y(r1_generators(HALF, "minimal"))
    return _residuals(relations_residuals(r1_algebra(), table))


def twist_solve(fixtures, order):
    series = series_twist(order)
    return all(series.display_matched), series


def perturbed_undressing(fixtures):
    """Negative control: a stray first-order twist term must leave residuals."""
    rep = r1_generators(HALF, "hdiag")
    cls = classical_rep(HALF)
    alg = r1_algebra()
    stray = TE.pure((("X",), ("X",)), H * Scalar.from_fraction(Fraction(1, 3)))
    gmat = (hdiag_twist_expression() + stray).evaluate([rep, rep])
    iden = rep.identity()
    word = inverse_map_words("hdiag", nilpotency=x_nilpotency(HALF))["h"]
    dressed = word.coproduct(0, alg.delta).evaluate([rep, rep])
    primitive = graded_kron(cls.matrix("h"), iden, b_op_parity=0) + graded_kron(
        iden, cls.matrix("h")
    )
    found = series_residuals(
        "undress:h", gmat @ dressed - primitive @ gmat, SERIES_DEPTH
    )
    return _residuals(found)


def tilde_routes(fixtures, j):
    routes = tilde_t_routes(j)
    return routes["closed"] == routes["limit"], routes


def flipped_transformer(fixtures):
    """Negative control: the antipode transformer with its exponent negated."""
    rep = r1_generators(ONE_J, "minimal")
    th = rep.matrix("T") @ rep.matrix("H")
    drop = rep.identity() - rep.matrix("Tinv") @ rep.matrix("Tinv")
    wrong = nil_exp((th @ drop).scale(Scalar.from_fraction(Fraction(1, 2))))
    built = antipode_transformer(ONE_J, "minimal")
    return wrong == built, wrong - built


# -- the workloads -------------------------------------------------------------

FULL = ("full",)
BOTH = ("full", "smoke")


class Check:
    """One timed call with a known answer.

    ``expect`` is the verdict the check must reach: True for a positive
    check, False for a negative control.  ``sizes`` names the benchmark
    sizes that run the check: ``full`` for measured runs, ``smoke`` for
    the small size the benchmark's own tests use.
    """

    __slots__ = ("id", "body", "args", "expect", "sizes")

    def __init__(self, id, body, *args, expect=True, sizes=FULL):
        self.id = id
        self.body = body
        self.args = args
        self.expect = expect
        self.sizes = sizes

    def run(self, fixtures):
        return self.body(fixtures, *self.args)


def _spin_ladder():
    checks = [
        Check("golden:1/2,1/2", golden, HALF, HALF, sizes=BOTH),
        Check("golden:1/2,1", golden, HALF, ONE_J),
        Check("control:altered-golden", altered_golden, expect=False, sizes=BOTH),
        Check("control:poisoned-ybe", poisoned_ybe, expect=False, sizes=BOTH),
    ]
    for pair in ((ONE_J, ONE_J), (HALF, THREE_HALF), (ONE_J, THREE_HALF),
                 (THREE_HALF, THREE_HALF)):
        checks.append(Check(f"contract:{_name(*pair)}", contract_rung, *pair))
    for j in (HALF, ONE_J, THREE_HALF, TWO_J):
        checks.append(
            Check(f"rll:{j}", lambda fx, j: _report(rll_check(j)), j,
                  sizes=BOTH if j == HALF else FULL)
        )
    for triple in ((HALF, HALF, HALF), (HALF, HALF, ONE_J), (HALF, ONE_J, ONE_J),
                   (ONE_J, ONE_J, ONE_J)):
        checks.append(
            Check(
                f"ybe-q:{_name(*triple)}",
                lambda fx, *t: _residuals(ybe_check_q(*t)),
                *triple,
                sizes=BOTH if triple == (HALF, HALF, HALF) else FULL,
            )
        )
    return checks


def _hopf_axioms():
    checks = []
    for triple in product((HALF, ONE_J), repeat=3):
        small = BOTH if triple == (HALF, HALF, HALF) else FULL
        name = _name(*triple)
        checks.append(
            Check(f"hopf-r2:{name}", lambda fx, *t: _report(r2_hopf_check(*t)),
                  *triple, sizes=small)
        )
        for family in ("minimal", "hdiag"):
            checks.append(
                Check(
                    f"hopf-r1-{family}:{name}",
                    lambda fx, f, *t: _report(r1_hopf_check(*t, family=f)),
                    family,
                    *triple,
                )
            )
        checks.append(Check(f"hopf-q:{name}", q_hopf, *triple, sizes=small))
    for j in (HALF, ONE_J, THREE_HALF):
        checks.append(Check(f"relations-r2:{j}", r2_relations, j,
                            sizes=BOTH if j == HALF else FULL))
        for family in ("minimal", "hdiag"):
            checks.append(
                Check(
                    f"relations-r1-{family}:{j}",
                    lambda fx, j, f: _report(r1_relations_check(j, f)),
                    j,
                    family,
                )
            )
    checks.append(Check("control:flipped-y-r2", flipped_r2, expect=False, sizes=BOTH))
    checks.append(Check("control:flipped-y-r1", flipped_r1, expect=False, sizes=BOTH))
    return checks


def _series_twist():
    return [
        Check("series-twist:2", twist_solve, 2),
        # series_twist(2) is the workload's top rung and far too slow for
        # the smoke size, which solves the first order only.
        Check("series-twist:1", twist_solve, 1, sizes=("smoke",)),
        Check(
            "hdiag-twist:1/2,1/2",
            lambda fx: _report(hdiag_twist_check(HALF, HALF)),
        ),
        Check(
            "antipode-hdiag:1/2",
            lambda fx: _report(antipode_check(HALF, "hdiag")),
            sizes=BOTH,
        ),
        Check("antipode-hdiag:1", lambda fx: _report(antipode_check(ONE_J, "hdiag"))),
        Check(
            "control:perturbed-undressing",
            perturbed_undressing,
            expect=False,
            sizes=BOTH,
        ),
    ]


def _operator_identities():
    checks = []
    for j in (HALF, ONE_J, THREE_HALF):
        small = BOTH if j == HALF else FULL
        for n in (1, 2, 3):
            checks.append(
                Check(f"identity:{j},{n}", lambda fx, j, n: _report(identity_check(j, n)),
                      j, n, sizes=small if n == 1 else FULL)
            )
        checks.append(Check(f"tilde-routes:{j}", tilde_routes, j, sizes=small))
        checks.append(
            Check(f"antipode-minimal:{j}",
                  lambda fx, j: _report(antipode_check(j, "minimal")), j, sizes=small)
        )
        checks.append(
            Check(f"disentangle:{j}", lambda fx, j: _report(disentangle_check(j)),
                  j, sizes=small)
        )
    checks.append(
        Check("control:flipped-transformer", flipped_transformer, expect=False,
              sizes=BOTH)
    )
    return checks


WORKLOADS = {
    "spin_ladder": _spin_ladder,
    "hopf_axioms": _hopf_axioms,
    "series_twist": _series_twist,
    "operator_identities": _operator_identities,
}


def checks_for(workload: str, size: str, seed: int) -> list:
    """The workload's checks for ``size``, in the order ``seed`` picks.

    The order is the only thing the seed changes; the set of checks,
    their verdicts and their digests are the same for every seed.
    """
    checks = [c for c in WORKLOADS[workload]() if size in c.sizes]
    random.Random(seed).shuffle(checks)
    return checks


def canonical(output):
    """The JSON form of a check's output: what its digest is taken of.

    Matrices and reports give ``to_json_dict()``, which leaves timings
    out; a set of matrix positions gives its sorted list.
    """
    if isinstance(output, TwistSeries):
        return _series(output)
    if hasattr(output, "to_json_dict"):
        return output.to_json_dict()
    if isinstance(output, dict):
        return {key: canonical(value) for key, value in output.items()}
    if isinstance(output, set):
        return sorted(output)
    return output


def digest(output) -> str:
    text = json.dumps(canonical(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
