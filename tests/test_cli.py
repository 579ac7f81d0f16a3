"""End-to-end checks of the command-line front end."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import ospq.cli as cli
from ospq import contraction, hopf, ode, qrmatrix, r1, twist
from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.scalar import H
from ospq.contraction import contract

HALF = HalfInt(Fraction(1, 2))


def forbidden(*args):
    raise AssertionError("work started on an oversized input")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "disentangle", "--j", "1/2")
        assert code == 0
        assert "disentangle: pass" in out

    def test_pretty_lines_name_their_parameters(self, capsys):
        # one line per report, told apart by its spin and order
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--j", "1/2", "1", "--order", "2"
        )
        assert code == 0
        assert out.splitlines() == [
            "identities: pass for j=1/2, n=1",
            "identities: pass for j=1/2, n=2",
            "identities: pass for j=1, n=1",
            "identities: pass for j=1, n=2",
        ]

    def test_malformed_spin_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--variant", "q", "--j", "5/4")
        assert code == 2
        assert "not a half-integer" in err

    def test_wrong_spin_count_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "triangularity", "--j", "1/2"
        )
        assert code == 2
        assert "exactly 2" in err

    def test_spins_on_spinless_suite_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "ode", "--j", "1/2")
        assert code == 2
        assert "takes no spins" in err

    def test_formula_source_needs_spin_half(self, capsys):
        code, _, err = run_cli(
            capsys, "contract", "--j1", "1", "--j2", "1/2", "--source", "formula"
        )
        assert code == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # Corrupt the loaded golden matrix; the comparison must locate
        # the poisoned coordinate and flip the exit code.
        real = cli.load_fixture

        def poisoned(filename):
            matrix = real(filename)
            return matrix + GradedMatrix(matrix.parity, {(0, 1): H})

        monkeypatch.setattr(cli, "load_fixture", poisoned)
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 1
        assert out.splitlines()[0] == "fixtures: FAIL (2 residuals) for count=2"
        assert "(0,1)" in out

    def test_negative_order_exits_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "ode", "--order", "-3"
        )
        assert code == 2

    def test_oversized_series_order_exits_two(self, capsys):
        # Refused before any solving: the order-4 ansatz has 261,121 columns.
        code, out, err = run_cli(
            capsys, "verify", "--suite", "twist", "--family", "hdiag", "--order", "4"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 3" in err

    def test_oversized_contraction_exits_two(self, capsys):
        # Refused before any work: (5, 5) has dimension 441.
        code, out, err = run_cli(capsys, "contract", "--j1", "5", "--j2", "5")
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 169" in err

    def test_oversized_contraction_spin_exits_two(self, capsys, monkeypatch):
        # Refused before any work: j = 8 has module dimension 33, though the
        # pair's 99 is inside the product cap.
        monkeypatch.setattr(contraction, "m_matrix", forbidden)
        code, out, err = run_cli(capsys, "contract", "--j1", "1/2", "--j2", "8")
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 21" in err

    def test_oversized_triangularity_exits_two(self, capsys, monkeypatch):
        # Refused before any work: (1/2, 14) has dimension 171.
        monkeypatch.setattr(r1, "r1_generators", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "triangularity", "--j", "1/2", "14"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 121" in err

    def test_oversized_cocycle_exits_two(self, capsys, monkeypatch):
        # Refused before any work: j = 3 has module dimension 13.
        monkeypatch.setattr(r1, "r1_generators", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "cocycle", "--j", "1/2", "3", "3"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 11" in err

    def test_oversized_antipode_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 7 has module dimension 29.
        for name in ("r1_generators", "antipode_transformer"):
            monkeypatch.setattr(r1, name, forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "antipode", "--family", "hdiag", "--j", "7"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 27" in err

    def test_oversized_disentangle_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 81/2 has module dimension 163.
        monkeypatch.setattr(r1, "classical_rep", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "disentangle", "--j", "81/2"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 161" in err

    def test_oversized_hopf_r2_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 13/2 has module dimension 27.
        monkeypatch.setattr(hopf, "r2_generators", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "hopf-r2", "--j", "1/2", "1/2", "13/2"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 25" in err

    def test_oversized_r1_hopf_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 13/2 has module dimension 27.
        monkeypatch.setattr(hopf, "r1_generators", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "r1-hopf", "--j", "13/2", "1/2", "1/2",
            "--family", "hdiag",
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 25" in err

    def test_oversized_rll_exits_two(self, capsys, monkeypatch):
        # Refused before any work: (1/2, 1/2, 11/2) has dimension 207.
        for name in ("universal_Rq_factors", "m_matrix", "r2_generators"):
            monkeypatch.setattr(contraction, name, forbidden)
        code, out, err = run_cli(capsys, "verify", "--suite", "rll", "--j", "11/2")
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 189" in err

    def test_oversized_frt_hopf_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 65/2 has module dimension
        # 131, and (33/2, 16) the product dimension 67 * 65.
        monkeypatch.setattr(contraction, "r2_generators", forbidden)
        for spins, cap in ((("1/2", "65/2"), 129), (("33/2", "16"), 4225)):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "frt-hopf", "--j", *spins
            )
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err

    def test_oversized_identities_exit_two(self, capsys, monkeypatch):
        # Refused before any work: j = 7/2 has dimension 15.
        for name in ("q_rep", "m_matrix"):
            monkeypatch.setattr(contraction, name, forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "identities", "--j", "7/2", "--order", "1"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 13" in err

    def test_oversized_ybe_q_exits_two(self, capsys, monkeypatch):
        # Refused before any work: (5/2, 5/2, 3) has dimension 1573.
        monkeypatch.setattr(qrmatrix, "universal_Rq", forbidden)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "ybe", "--kind", "q",
            "--j", "5/2", "5/2", "3",
        )
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 1331" in err

    def test_oversized_contracted_ybe_exits_two(self, capsys, monkeypatch):
        # Refused before the first pair is contracted: (1/2, 5) fits the
        # caps of contract, (5, 5) does not; (3, 3, 3) fits each pair but
        # not the triple's cap.
        for name in ("universal_Rq_factors", "m_matrix"):
            monkeypatch.setattr(contraction, name, forbidden)
        for spins, cap in ((("1/2", "5", "5"), 169), (("3", "3", "3"), 1331)):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "ybe", "--kind", "contracted",
                "--j", *spins,
            )
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err

    def test_oversized_r1_relations_exits_two(self, capsys, monkeypatch):
        # Refused before any table is built: j = 57/2 has module dimension 115.
        monkeypatch.setattr(hopf, "r1_generators", forbidden)
        for family in ("minimal", "hdiag"):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "r1-relations", "--j", "57/2",
                "--family", family,
            )
            assert code == 2
            assert out == ""
            assert "exceeds the cap of 113" in err

    def test_oversized_twist_exits_two(self, capsys, monkeypatch):
        # A spin cap per family, checked before any table is built or any
        # series is solved.
        for module in (r1, twist):
            monkeypatch.setattr(module, "r1_generators", forbidden)
            monkeypatch.setattr(module, "classical_rep", forbidden)
        monkeypatch.setattr(twist, "series_twist", forbidden)
        assert r1.MAX_TWIST_SPIN_DIM == {"minimal": 25, "hdiag": 15}
        for family, spins, cap in (
            ("minimal", ("1/2", "13/2"), 25),  # module dimension 27
            ("minimal", ("13/2", "1/2"), 25),
            ("hdiag", ("4", "1/2"), 15),  # 17
            ("hdiag", ("1/2", "4"), 15),
        ):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "twist", "--family", family, "--j", *spins
            )
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err

    def test_oversized_r1_ybe_exits_two(self, capsys, monkeypatch):
        # A cap on the triple and a spin cap per family, checked before any
        # R-matrix is built.
        monkeypatch.setattr(cli, "universal_Rh_r1", forbidden)
        monkeypatch.setattr(r1, "r1_generators", forbidden)
        assert r1.MAX_YBE_R1_DIM == 2197
        assert r1.MAX_YBE_R1_SPIN_DIM == {"minimal": 21, "hdiag": 17}
        for family, spins, cap in (
            ("minimal", ("3", "3", "7/2"), 2197),  # 13 * 13 * 15
            ("hdiag", ("7/2", "3", "3"), 2197),
            ("minimal", ("1/2", "1/2", "11/2"), 21),  # module dimension 23
            ("hdiag", ("9/2", "1/2", "1/2"), 17),  # 19
        ):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "ybe", "--kind", "r1", "--family", family,
                "--j", *spins,
            )
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err

    def test_oversized_ode_order_exits_two(self, capsys, monkeypatch):
        # Refused before any series is expanded.
        for name in ("direct_residuals", "inverse_residuals"):
            monkeypatch.setattr(ode, name, forbidden)
        assert ode.MAX_ODE_ORDER == 150
        for family in ("minimal", "hdiag"):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "ode", "--family", family, "--order", "151"
            )
            assert code == 2
            assert out == ""
            assert "exceeds the cap of 150" in err

    def test_oversized_rep_exits_two(self, capsys, monkeypatch):
        # One cap per variant, checked before the table is built.
        for variant in cli.REP_BUILDERS:
            monkeypatch.setitem(cli.REP_BUILDERS, variant, forbidden)
        assert cli.MAX_REP_DIM == {
            "classical": 321, "q": 321, "r2": 193, "r1-minimal": 129, "r1-hdiag": 193,
        }
        for variant, cap in cli.MAX_REP_DIM.items():
            above = f"{(cap + 1) // 2}/2"  # module dimension cap + 2
            code, out, err = run_cli(capsys, "rep", "--variant", variant, "--j", above)
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err

    def test_oversized_rmatrix_exits_two(self, capsys, monkeypatch):
        # One cap per kind, and one per spin for r1, checked before R is
        # built; contracted pairs meet the caps of contract.
        for name in ("universal_Rq", "universal_Rh_r1"):
            monkeypatch.setattr(cli, name, forbidden)
        for name in ("universal_Rq_factors", "m_matrix"):
            monkeypatch.setattr(contraction, name, forbidden)
        assert cli.MAX_RMATRIX_DIM == {"q": 625, "r1": 441}
        assert cli.MAX_RMATRIX_SPIN_DIM == {"r1": 41}
        for kind, j1, j2, cap in (
            ("q", "6", "13/2", 625),  # 25 * 27
            ("q", "1/2", "52", 625),  # 3 * 209
            ("r1", "5", "11/2", 441),  # 21 * 23
            ("r1", "1/2", "21/2", 41),  # one module of dimension 43
            ("contracted", "3", "7/2", 169),  # 13 * 15
        ):
            code, out, err = run_cli(
                capsys, "rmatrix", "--kind", kind, "--j1", j1, "--j2", j2
            )
            assert code == 2
            assert out == ""
            assert f"exceeds the cap of {cap}" in err


class TestMatrixEmission:
    def test_contract_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "contract", "--j1", "1/2", "--j2", "1/2", "--format", "json"
        )
        assert code == 0
        matrix = GradedMatrix.from_json_dict(json.loads(out))
        assert matrix == contract(HALF, HALF).matrix

    def test_contract_csv_first_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "contract", "--j1", "1/2", "--j2", "1/2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "1,0,h,0,h,0,-h,0,h^2/2"

    def test_contract_formula_source_agrees_with_universal(self, capsys):
        _, via_limit, _ = run_cli(
            capsys, "contract", "--j1", "1/2", "--j2", "1", "--format", "json"
        )
        _, via_blocks, _ = run_cli(
            capsys,
            "contract",
            "--j1",
            "1/2",
            "--j2",
            "1",
            "--source",
            "formula",
            "--format",
            "json",
        )
        assert via_limit == via_blocks

    def test_cancellation_log_reports_pole_orders(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "contract",
            "--j1",
            "1/2",
            "--j2",
            "1/2",
            "--log-cancellation",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"matrix", "cancellation"}
        assert all(order >= 1 for _, _, order in payload["cancellation"])

    def test_cancellation_log_rejects_csv(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "contract",
            "--j1",
            "1/2",
            "--j2",
            "1/2",
            "--log-cancellation",
            "--format",
            "csv",
        )
        assert code == 2

    def test_rep_lists_all_generators(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--variant", "classical", "--j", "1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert sorted(payload["generators"]) == ["b+", "b-", "e", "f", "h"]

    def test_h_substitution_reaches_the_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rmatrix",
            "--kind",
            "r1",
            "--j1",
            "1/2",
            "--j2",
            "1/2",
            "--h",
            "0",
        )
        assert code == 0
        matrix = GradedMatrix.from_json_dict(json.loads(out))
        assert matrix == GradedMatrix.identity(matrix.parity)

    def test_q_r_matrix_emits(self, capsys):
        code, out, _ = run_cli(
            capsys, "rmatrix", "--kind", "q", "--j1", "1/2", "--j2", "1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 9


class TestRepVariants:
    @pytest.mark.parametrize(
        "alias, variant",
        [
            ("classical", "classical"),
            ("q", "q-deformed"),
            ("r2", "jordanian-r2"),
            ("r1-minimal", "jordanian-r1-minimal"),
            ("r1-hdiag", "jordanian-r1-hdiag"),
        ],
    )
    def test_alias_reaches_its_builder(self, capsys, alias, variant):
        code, out, _ = run_cli(
            capsys, "rep", "--variant", alias, "--j", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variant"] == variant
        assert payload["dim"] == 5

    def test_unknown_variant_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "rep", "--variant", "exotic", "--j", "1")
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

    def test_negative_spin_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "rep", "--variant", "classical", "--j=-1/2")
        assert code == 2
        assert out == ""
        assert "cannot be negative" in err


# The exit code and the SHA-256 of stdout of each invocation, run with
# ``--format json``.  A refactor must leave these bytes as they are; a
# change meant to alter an output updates its digest here and says why.
PINNED_BYTES = [
    (
        ("contract", "--j1", "1/2", "--j2", "3/2", "--source", "formula"),
        0,
        "a1875f22c0df90491278cd9f20a479e5890b1764f83d87264b6029a6fe9f7d75",
    ),
    (
        ("contract", "--j1", "1/2", "--j2", "1", "--log-cancellation"),
        0,
        "e6a7fe2e69fbdb2562ae2a9818e3c57c616954544c1bdb372a13a1d647007391",
    ),
    (
        ("verify", "--suite", "identities", "--j", "1/2", "1", "3/2", "--order", "3"),
        0,
        "7a3b0f7e69ad1cabc9670a4fd76b42003d2fa49c3a507b1fef3f42c159a83c8a",
    ),
    (
        ("verify", "--suite", "rll", "--j", "1/2", "1", "3/2"),
        0,
        "27cd4a5ed464dc0f3f33439cfa9a12e35e72ea2c6acbc3216ffebdd161aac410",
    ),
    (
        ("verify", "--suite", "frt-hopf", "--j", "1/2", "1"),
        0,
        "9ffc2fc7738e800c5fde068bd446ad19bd2504058cdb2796b4706d4ab6a9345d",
    ),
    (
        ("rep", "--variant", "classical", "--j", "1"),
        0,
        "1d34ba55e14da5ff1d82a486e63a0a7fa7da4f385cf06fe9cdb79eb1e43e473e",
    ),
    (
        ("rep", "--variant", "q", "--j", "1"),
        0,
        "5e78de949a3bcffbcdaa1c860a27866f35724574ae9185471eb60acf6782efff",
    ),
    (
        ("rep", "--variant", "r2", "--j", "1"),
        0,
        "7815390f0c2c260bd64402ba395f763e62a0c265e9b78de7ff3b6b22af4313eb",
    ),
    (
        ("rep", "--variant", "r1-minimal", "--j", "1"),
        0,
        "29d4938124b71300137bb1cb332900afd1af49623a39f93b4453972ad400492d",
    ),
    (
        ("rep", "--variant", "r1-hdiag", "--j", "1"),
        0,
        "9ddea27a03f67bd30536637c0bd2b9d9d9d75718c9db99d4bf4b2041db4bbae4",
    ),
    (
        ("verify", "--suite", "ode", "--family", "minimal", "--order", "12"),
        0,
        "429f65e8665d84d7f5a58eda75c42e5a28a4799f87daa2f2b0466e3f3057dc37",
    ),
    (
        ("verify", "--suite", "ode", "--family", "hdiag", "--order", "12"),
        0,
        "bfc384cdb5497d1642625130f8e4d3775b042d7dbb36cd6897c9bd8594165579",
    ),
    (
        ("verify", "--suite", "hopf-r2", "--j", "1/2", "1", "1"),
        0,
        "ce9f042b2c73bee920e9dfeb5476124d96cadfe3a59664ce6afad28b2613e8db",
    ),
    (
        ("verify", "--suite", "r1-hopf", "--j", "1", "1/2", "1", "--family", "hdiag"),
        0,
        "d36f71a3e2e5d883796aef1745470985bb957846784e3ff512942d68e755b6c8",
    ),
    (
        ("verify", "--suite", "r1-relations", "--j", "1/2", "1", "3/2"),
        0,
        "4b1f08486c9ac376a44c897a8628ebab8d345041e46d1f2dc05501ccb56360be",
    ),
    (
        ("verify", "--suite", "cocycle", "--family", "hdiag", "--j", "1/2", "1/2", "1"),
        0,
        "14e434339080666c5c37b6266055efe7c597b3dcd5642b86493726d6223f8870",
    ),
    (
        ("verify", "--suite", "cocycle", "--family", "minimal", "--j", "1/2", "1", "1/2"),
        0,
        "c158698b07f99df8779d2cb6ab78ac782262a257b3af26c3116270f9ec9cdaad",
    ),
    (
        ("verify", "--suite", "antipode", "--family", "hdiag", "--j", "1/2", "1"),
        0,
        "4e10f893460782f6411719ae931f58ead84aad30111941f369371b3b5e9203f5",
    ),
    (
        ("verify", "--suite", "antipode", "--family", "minimal", "--j", "1/2", "1", "3/2"),
        0,
        "94dbd7cf39de9b3b2d1fd233d710f1cd441c9a8ee359585432498e1d073c7cac",
    ),
    (
        ("verify", "--suite", "triangularity", "--family", "hdiag", "--j", "1/2", "1"),
        0,
        "12270245ee789858e10ba0eabe071076f3a468cada184af3976bf6eb6f649a94",
    ),
]


class TestPinnedBytes:
    @pytest.mark.parametrize(
        "argv, code, digest",
        PINNED_BYTES,
        ids=[" ".join(argv) for argv, _, _ in PINNED_BYTES],
    )
    def test_stdout_digest_and_exit_code(self, capsys, argv, code, digest):
        got_code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = run_cli(
            capsys, "verify", "--suite", "rll", "--j", "1/2", "--format", "json"
        )
        second = run_cli(
            capsys, "verify", "--suite", "rll", "--j", "1/2", "--format", "json"
        )
        assert first == second

    def test_timings_stay_out_of_default_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "disentangle", "--j", "1/2",
            "--format", "json",
        )
        (payload,) = json.loads(out)
        assert "wall_time" not in payload

    def test_timings_flag_adds_wall_time(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "disentangle", "--j", "1/2",
            "--format", "json", "--timings",
        )
        (payload,) = json.loads(out)
        assert payload["wall_time"] >= 0

    def test_report_file_matches_stdout_payload(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "disentangle",
            "--j",
            "1/2",
            "--format",
            "json",
            "--report",
            str(path),
        )
        assert json.loads(path.read_text()) == json.loads(out)


class TestVerifyDispatch:
    def test_hdiag_twist_route(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "twist",
            "--j",
            "1/2",
            "1/2",
            "--family",
            "hdiag",
            "--format",
            "json",
        )
        assert code == 0
        (payload,) = json.loads(out)
        assert payload["parameters"]["family"] == "hdiag"
        assert payload["parameters"]["order"] == "2"

    def test_minimal_twist_route(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "twist",
            "--j",
            "1/2",
            "1/2",
            "--format",
            "json",
        )
        assert code == 0
        (payload,) = json.loads(out)
        assert "order" not in payload["parameters"]

    def test_ybe_kind_r1_records_family(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "ybe",
            "--kind",
            "r1",
            "--format",
            "json",
        )
        assert code == 0
        (payload,) = json.loads(out)
        assert payload["parameters"]["family"] == "minimal"

    def test_one_spin_suite_fans_out(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "disentangle",
            "--j",
            "1/2",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        assert len(json.loads(out)) == 2


class TestRegistry:
    def test_every_module_check_is_wired(self):
        wired = {cli.fixtures_check}
        for spec in cli.SUITES.values():
            wired.update(spec.targets)
        exposed = set()
        for module in (contraction, qrmatrix, hopf, r1, twist, ode, cli):
            for name in dir(module):
                if name.endswith("_check") and not name.startswith("_"):
                    exposed.add(getattr(module, name))
        missing = {fn.__name__ for fn in exposed - wired}
        assert missing == set()

    def test_parser_offers_every_suite(self, capsys):
        parser = cli.build_parser()
        for suite in cli.SUITES:
            args = parser.parse_args(["verify", "--suite", suite])
            assert args.suite == suite


class TestFixtures:
    def test_full_run_passes(self):
        report = cli.fixtures_check()
        assert report.ok
        assert report.parameters["count"] == 2

    def test_shipped_shapes(self):
        small = cli.load_fixture("contract_half_half.json")
        large = cli.load_fixture("contract_half_one.json")
        assert small.dim == 9
        assert large.dim == 15

    @pytest.mark.parametrize(
        "filename,j2",
        (
            ("contract_half_half.json", HALF),
            ("contract_half_one.json", HalfInt(1)),
        ),
        ids=("9x9", "15x15"),
    )
    def test_h_substitution_commutes_with_contraction(self, filename, j2):
        third = Fraction(1, 3)
        stored = cli.load_fixture(filename).map_entries(
            lambda s: s.substitute_h(third)
        )
        fresh = contract(HALF, j2).matrix.map_entries(
            lambda s: s.substitute_h(third)
        )
        assert stored == fresh


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ospq.cli", "fixtures"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "fixtures: pass" in proc.stdout
