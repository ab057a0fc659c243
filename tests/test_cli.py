import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from polystrata import cli
from polystrata.compositions import delta_lambda_complex
from polystrata.homology import sphere_homology
from polystrata.hyperbolic import BackendDisagreement, hyp_homology
from polystrata.iterated import c_lambda_d_poset
from polystrata.posets import face_poset
from polystrata.strata import stabilization_report


@pytest.fixture
def runner():
    return CliRunner()


class TestHyp:
    def test_text_output(self, runner):
        result = runner.invoke(cli.main, ["hyp", "--lambda", "1,2"])
        assert result.exit_code == 0
        assert "H_2 = Z" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(
            cli.main, ["hyp", "--lambda", "1,2", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["groups"] == [{"degree": 2, "betti": 1, "torsion": []}]

    def test_csv_output(self, runner):
        result = runner.invoke(
            cli.main, ["hyp", "--lambda", "1,2", "--format", "csv"]
        )
        assert result.output.splitlines() == ["degree,betti,torsion", "2,1,"]

    def test_single_backend(self, runner):
        for backend in ("cells", "order-complex", "delta"):
            result = runner.invoke(
                cli.main, ["hyp", "--lambda", "1,2", "--backend", backend]
            )
            assert result.exit_code == 0
            assert "H_2 = Z" in result.output

    def test_invalid_parts_exit_2(self, runner):
        result = runner.invoke(cli.main, ["hyp", "--lambda", "1,x"])
        assert result.exit_code == 2

    def test_backend_disagreement_exit_3(self, runner, monkeypatch):
        def explode(partition, backend):
            raise BackendDisagreement(partition, {})

        monkeypatch.setattr(cli, "hyp_homology", explode)
        result = runner.invoke(cli.main, ["hyp", "--lambda", "1,2"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError(), "internal error: MemoryError: \n"),
            (KeyError("x"), "internal error: KeyError: 'x'\n"),
        ],
    )
    def test_unforeseen_exception_exit_4(self, runner, monkeypatch, error, message):
        # one line and no traceback; exit 1 stays verify's mismatch code
        def explode(partition, backend):
            raise error

        monkeypatch.setattr(cli, "hyp_homology", explode)
        result = runner.invoke(cli.main, ["hyp", "--lambda", "1,2"])
        assert result.exit_code == 4
        assert result.stderr == message and result.stdout == ""

    def test_click_exceptions_pass_through(self, runner, monkeypatch):
        def refuse(partition, backend):
            raise click.BadParameter("no such type")

        monkeypatch.setattr(cli, "hyp_homology", refuse)
        result = runner.invoke(cli.main, ["hyp", "--lambda", "1,2"])
        assert result.exit_code == 2
        assert "Invalid value: no such type" in result.stderr


class TestPol:
    def test_matches_hyp_at_minimal_ambient(self, runner):
        result = runner.invoke(cli.main, ["pol", "--lambda", "3", "--n", "3"])
        assert result.exit_code == 0
        assert "H_1 = Z" in result.output

    def test_bad_parity_exit_2(self, runner):
        result = runner.invoke(cli.main, ["pol", "--lambda", "3", "--n", "4"])
        assert result.exit_code == 2


class TestComplexCommands:
    def test_order_complex(self, runner):
        result = runner.invoke(cli.main, ["order-complex", "--lambda", "1,2"])
        assert result.exit_code == 0
        assert "H_0 = Z" in result.output

    def test_delta(self, runner):
        result = runner.invoke(cli.main, ["delta", "--lambda", "1,2"])
        assert result.exit_code == 0
        assert "H_0 = Z" in result.output

    def test_shift_consistency(self, runner):
        # the two complexes compute the same thing; hyp adds the double shift
        flat = runner.invoke(
            cli.main, ["order-complex", "--lambda", "1,2", "--format", "json"]
        )
        shifted = runner.invoke(
            cli.main, ["hyp", "--lambda", "1,2", "--format", "json"]
        )
        flat_groups = json.loads(flat.output)["groups"]
        shifted_groups = json.loads(shifted.output)["groups"]
        assert [g["degree"] + 2 for g in flat_groups] == [
            g["degree"] for g in shifted_groups
        ]


class TestVerify:
    def test_small_hook_suite(self, runner):
        result = runner.invoke(
            cli.main, ["verify", "hook", "--n", "2..6", "--k", "2..6"]
        )
        assert result.exit_code == 0
        assert "cases passed" in result.output

    def test_d_squared(self, runner):
        result = runner.invoke(
            cli.main, ["verify", "d-squared", "--l", "4", "--n-max", "6"]
        )
        assert result.exit_code == 0

    def test_resonance_free_small(self, runner):
        result = runner.invoke(
            cli.main, ["verify", "resonance-free", "--max-weight", "6"]
        )
        assert result.exit_code == 0

    def test_quotient_small(self, runner):
        result = runner.invoke(
            cli.main, ["verify", "prop-3-7", "--max-weight", "6"]
        )
        assert result.exit_code == 0

    def test_chain_product(self, runner):
        result = runner.invoke(cli.main, ["verify", "prop-3-11"])
        assert result.exit_code == 0

    def test_json_format(self, runner):
        result = runner.invoke(
            cli.main,
            ["verify", "hook", "--n", "2..4", "--k", "2..4", "--format", "json"],
        )
        data = json.loads(result.output)
        assert data["passed"] is True
        assert all(c["match"] for c in data["cases"])

    def test_csv_format_is_usage_error(self, runner):
        # verify reports as text or json only
        result = runner.invoke(
            cli.main, ["verify", "hook", "--n", "2..3", "--format", "csv"]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--format'" in result.stderr
        assert result.stdout == ""

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(cli.main, ["verify", "nope"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["hook", "--n", "5..2"],
            ["hook", "--k", "13..14"],
            ["resonance-free", "--max-weight", "0"],
            ["prop-3-11", "--n", "4..3"],
            # the literal-parity case alone does not make a range
            ["d-squared", "--n-max", "0"],
            ["d-squared", "--l", "-1"],
            # nor do the two fixed exemplars
            ["prop-3-7", "--max-weight", "0"],
        ],
    )
    def test_no_cases_exit_2(self, runner, args):
        result = runner.invoke(cli.main, ["verify", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: no ")

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["hook", "--n", "2..3", "--k", "2..3"]
                + ["--max-weight", "1", "--l", "2"],
                "error: suite hook does not read --l, --max-weight\n",
            ),
            (
                ["paper-table", "--n", "2..3"],
                "error: suite paper-table does not read --n\n",
            ),
        ],
    )
    def test_unread_option_exit_2(self, runner, args, message):
        # an option the suite would drop is refused before any case runs
        result = runner.invoke(cli.main, ["verify", *args])
        assert result.exit_code == 2
        assert result.stderr == message
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, text",
        [
            (["hook", "--n", "a..b"], "a..b"),
            (["hook", "--n", "3.."], "3.."),
            (["hook", "--n", "2..3..4"], "2..3..4"),
            (["hook", "--n", "2..3", "--k", "x"], "x"),
            (["prop-3-11", "--n", ".."], ".."),
        ],
    )
    def test_malformed_range_exit_2(self, runner, args, text):
        result = runner.invoke(cli.main, ["verify", *args])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: cannot parse '%s' as an integer or a range a..b\n" % text
        )
        assert result.stdout == ""


class TestTables:
    def test_table(self, runner):
        result = runner.invoke(cli.main, ["table", "--max-weight", "4"])
        lines = result.output.splitlines()
        # a header, then one row per type of weight 1..4
        assert lines[0].split() == ["lambda", "resonance", "homology", "prediction"]
        assert len(lines) == 1 + 1 + 2 + 3 + 5
        assert not any("MISMATCH" in line for line in lines)

    def test_census(self, runner):
        result = runner.invoke(
            cli.main, ["census", "--max-weight", "6", "--list-identities"]
        )
        lines = result.output.splitlines()
        weights = [line for line in lines if line.startswith("weight")]
        assert len(weights) == 6
        assert "weight  6:  11 types" in weights[-1]
        assert any("1+2 = 3" in line for line in lines)

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--max-weight", "0"],
            ["table", "--max-weight", "-1"],
            ["census", "--max-weight", "0"],
        ],
    )
    def test_no_type_exit_2(self, runner, args):
        # a weight range holding no type is refused, as verify refuses one
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2
        assert result.stderr == "error: no type in the given range\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_stabilization(self, runner, fmt):
        args = ["stabilization", "--lambda", "1,2", "--n-max", "7", "--format", fmt]
        lines = runner.invoke(cli.main, args).output.splitlines()
        if fmt == "csv":
            assert lines[0] == "n,degree,betti,torsion"
            assert {line.split(",")[0] for line in lines[1:]} == {"3", "5", "7"}
        else:
            assert lines[0] == "lambda = (1, 2)"
            assert [line.split(":")[0].strip() for line in lines[1:4]] == [
                "n = 3",
                "n = 5",
                "n = 7",
            ]

    def test_stabilization_of_one_starts_at_three(self, runner):
        # the closure of (1) fills degree 1, so the default n_min skips it;
        # an explicit n_min = 1 is still refused
        default = runner.invoke(cli.main, ["stabilization", "--lambda", "1", "--n-max", "12"])
        explicit = ["stabilization", "--lambda", "1", "--n-min", "3", "--n-max", "12"]
        assert default.exit_code == 0
        assert default.output.splitlines()[1] == "  n = 3: 0"
        assert default.output == runner.invoke(cli.main, explicit).output
        explicit[4] = "1"
        assert runner.invoke(cli.main, explicit).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "x"],
            ["--lambda", "1,2", "--n-min", "4"],
            ["--lambda", "1,2,9", "--n-max", "9"],
        ],
        ids=["parts", "parity", "empty"],
    )
    def test_stabilization_bad_input_exit_2(self, runner, args):
        result = runner.invoke(cli.main, ["stabilization", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ["table", "--max-weight", "7"],
                "86e867fd09f4762be6cd2258b5a8bee868ba07d57603d484b939220b8ae33444",
            ),
            (
                ["table", "--max-weight", "4"],
                "d2e8cae29535b019997d45ebec6c66387cb42add2cb0c12cbebd39ef83d307ca",
            ),
            (
                # taken with the index-level brute force that
                # primitive_identities replaced
                ["census", "--list-identities"],
                "8152a99337c1754511ffb85ac4a854fdd1f516796efe96ed94f4e76e74407c02",
            ),
            (
                ["census"],
                "407a6a47ed8d95b94a375523e0fd4c1d2879ecf024f124cbcec1788b481dccce",
            ),
            (
                ["stabilization", "--lambda", "1,2", "--n-max", "9"],
                "4c545cbc60e3c447b44c5e8faf7645b65749d10031333ab0c2813ecf641d81d9",
            ),
            (
                # ends its lines in LF, like every other output
                ["stabilization", "--lambda", "1,2", "--n-max", "9", "--format", "csv"],
                "d120bf0866644cd6969fec93fc558ebafe68d22e9215dd1fb561e94d7b79e39d",
            ),
            (
                ["stabilization", "--lambda", "3", "--n-max", "7"],
                "bc102bb63e42bb978108133735c25e8b57141cec96266b049e37f026a84ec9f4",
            ),
        ],
    )
    def test_golden_digest(self, runner, args, digest):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


class TestExport:
    def test_clambda_dot(self, runner):
        result = runner.invoke(cli.main, ["export", "clambda", "--lambda", "1,2"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")

    def test_clambda_json(self, runner):
        result = runner.invoke(
            cli.main, ["export", "clambda", "--lambda", "1,2", "--format", "json"]
        )
        data = json.loads(result.output)
        assert set(data) == {"elements", "covers"}

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ["clambda", "--lambda", "1,1,2,3", "--format", "json"],
                "9b8bc394c417110ab284c6739355becd3a1905152a94a00fdfe73fbb09a17c55",
            ),
            (
                ["clambda", "--lambda", "1,1,2,3", "--format", "dot"],
                "b3f2e8bfc4f9b9fc73788a1b881cfec345fa58aa3115b1d7f645514879cd8c15",
            ),
            (
                ["delta", "--lambda", "1,1,2", "--format", "json"],
                "616de082cf31e0734ccc84ee98e583ad0b248a176501a4c41aaf18cb4b2ad1a6",
            ),
            (
                ["delta", "--lambda", "1,1,2", "--format", "dot"],
                "aefc483c1f90443c4b4c6fb13d73c158365bd174cc8a44d8e8f69fabb6533a40",
            ),
            (
                ["closure-poset", "--lambda", "1,2", "--n", "5", "--format", "json"],
                "91c61ffeb739de6c54aa8517cf8161a0a8f01c769fb02da8ea268e6406611699",
            ),
            (
                ["closure-poset", "--lambda", "1,2", "--n", "5", "--format", "dot"],
                "cc5ebfb442706782601d5f5ff2a6f6e38f3479af0bdc3a4c4f118d8b8012b764",
            ),
            (
                ["permutahedron", "--t", "3", "--format", "json"],
                "c595dc16ca39cfd4d699c81a31a1e8baf5274c1db4b9e75a67e5e9ace0afc38a",
            ),
            (
                ["permutahedron", "--t", "3", "--format", "dot"],
                "e56cbc8676043733204435b125a13902364c79f22f5b2ae9d7728d4896481ed3",
            ),
            (
                ["iterated", "--n", "3", "--d", "2", "--format", "json"],
                "653b34fc2db69f2f5107b7a52276bcd4602dd6c87c488eef938ad4a73622bff4",
            ),
            (
                ["iterated", "--n", "3", "--d", "2", "--format", "dot"],
                "ea0e65b5b42f3969174752f60f27a6c4ca4ad6289e0637ae03d16d7e64d05c18",
            ),
            (
                ["delta", "--lambda", "1,1,2,3", "--format", "json"],
                "3579114adb3f9fa030faac324ecf6b03207edc68fe83eca5b2a5bd7021d6b6f8",
            ),
            (
                ["delta", "--lambda", "1,1,2,3", "--format", "dot"],
                "24998ed15f677cc38f4ae4f2e958ffdc876eb2cd79305e37340c009b27b5a0a5",
            ),
            (
                ["permutahedron", "--t", "5", "--format", "json"],
                "54a729af9f4452cfc32a687a291c86ac825d45b07ed273922f278fd158a6b2d1",
            ),
            (
                ["permutahedron", "--t", "5", "--format", "dot"],
                "8107e7260a2d5588912e507d740094190dfe56116fbf0833a59d97fea5d820b9",
            ),
            (
                ["iterated", "--n", "5", "--d", "3", "--format", "json"],
                "ed492179cfbc0e0990b56b7cf20b93d8662c274a7520909bcfa478e79865e0d4",
            ),
            (
                ["iterated", "--n", "5", "--d", "3", "--format", "dot"],
                "8146398724817dc94ad633d1824d299d3e65e7b43bba61a2d7036c369eeaeee7",
            ),
            (
                # the poset-export top rung, C_{lambda,2} of (1,1,2,5,5)
                ["clambda", "--lambda", "1,1,2,5,5", "--d", "2", "--format", "json"],
                "71c7237cb0f23a4ae679fd863bd1a43a3d7e1123f967ff343aafa35b810de519",
            ),
            (
                ["clambda", "--lambda", "1,1,2,5,5", "--d", "2", "--format", "dot"],
                "10bf907b9b6f9c2a4f16419682c2e2eca222c9583acc1ac15ceb57e462971d37",
            ),
            (
                # 1,582 elements
                ["clambda", "--lambda", "1,1,2,3,4,5", "--format", "json"],
                "4f5f20513e81ad80b4332b4f12380c9160d0f6d503440b266937593d96b2d297",
            ),
        ],
    )
    def test_golden_digest(self, runner, args, digest):
        # pinned exports: element order and cover indices must not drift
        result = runner.invoke(cli.main, ["export"] + args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_determinism(self, runner):
        first = runner.invoke(cli.main, ["export", "delta", "--lambda", "1,1,2"])
        second = runner.invoke(cli.main, ["export", "delta", "--lambda", "1,1,2"])
        assert first.output == second.output

    def test_closure_poset(self, runner):
        result = runner.invoke(
            cli.main,
            ["export", "closure-poset", "--lambda", "1,2", "--n", "5"],
        )
        assert result.exit_code == 0
        assert "digraph" in result.output

    def test_permutahedron(self, runner):
        result = runner.invoke(cli.main, ["export", "permutahedron", "--t", "3"])
        assert result.exit_code == 0

    def test_iterated(self, runner):
        result = runner.invoke(
            cli.main, ["export", "iterated", "--n", "3", "--d", "2"]
        )
        assert result.exit_code == 0

    def test_missing_options_exit_2(self, runner):
        # every option an object needs is named, whichever one is missing
        cases = [
            (["clambda", "--d", "2"], "--lambda is required"),
            (["delta", "--format", "json"], "--lambda is required"),
            (["closure-poset", "--lambda", "1,2"], "--lambda and --n are required"),
            (["closure-poset", "--n", "5"], "--lambda and --n are required"),
            (["permutahedron"], "--t is required"),
            (["iterated"], "--n and --d are required"),
            (["iterated", "--d", "2"], "--n and --d are required"),
        ]
        for args, message in cases:
            result = runner.invoke(cli.main, ["export", *args])
            assert result.exit_code == 2
            assert result.stderr == "error: %s\n" % message
            assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["clambda", "--lambda", "1,2", "--n", "7", "--t", "3", "--d", "4"],
                "error: export clambda does not read --n, --t\n",
            ),
            (
                ["permutahedron", "--t", "3", "--lambda", "9,9"],
                "error: export permutahedron does not read --lambda\n",
            ),
            (
                ["delta", "--lambda", "1,2", "--d", "2", "--format", "json"],
                "error: export delta does not read --d\n",
            ),
            (
                ["closure-poset", "--lambda", "1,2", "--n", "5", "--t", "2"],
                "error: export closure-poset does not read --t\n",
            ),
            (
                ["iterated", "--n", "3", "--d", "2", "--lambda", "1"],
                "error: export iterated does not read --lambda\n",
            ),
        ],
    )
    def test_unread_option_exit_2(self, runner, args, message):
        # an option the object would drop is refused before anything is built
        result = runner.invoke(cli.main, ["export", *args])
        assert result.exit_code == 2
        assert result.stderr == message
        assert result.stdout == ""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_clambda_d(self, runner, d):
        # --d exports C_{lambda,d}; without it C_lambda, as pinned above
        poset = c_lambda_d_poset((1, 1, 2), d)
        args = ["export", "clambda", "--lambda", "2,1,1", "--d", str(d)]
        result = runner.invoke(cli.main, args + ["--format", "json"])
        assert result.exit_code == 0 and result.output == poset.to_json() + "\n"
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0 and result.output == poset.to_dot("clambda")
        plain = json.loads(
            runner.invoke(cli.main, args[:4] + ["--format", "json"]).output
        )
        assert len(json.loads(poset.to_json())["covers"]) == len(plain["covers"])

    def test_clambda_d_below_1_exit_2(self, runner):
        result = runner.invoke(
            cli.main, ["export", "clambda", "--lambda", "1,2", "--d", "0"]
        )
        assert result.exit_code == 2
        assert result.stderr == "error: need d >= 1\n"


class TestResultsRenderThemselves:
    """Each printed result renders itself: the CLI prints its bytes as they are
    (``stdout_bytes``: ``output`` folds \r\n into \n)."""

    @pytest.mark.parametrize("partition", [(1,), (1, 2), (1, 1, 2), (1, 2, 2, 3)])
    def test_delta_export(self, runner, partition):
        labeled = delta_lambda_complex(partition)
        args = ["export", "delta", "--lambda", ",".join(map(str, partition[::-1]))]
        result = runner.invoke(cli.main, args + ["--format", "json"])
        assert result.exit_code == 0
        assert result.stdout_bytes == (labeled.to_json() + "\n").encode()
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert result.stdout_bytes == labeled.to_dot("delta").encode()
        assert labeled.to_dot("delta") == face_poset(labeled.complex).to_dot("delta")

    @pytest.mark.parametrize("partition", [(1,), (2,), (1, 2), (1, 1, 2), (3, 3)])
    def test_homology_csv(self, runner, partition):
        args = ["hyp", "--lambda", ",".join(map(str, partition)), "--format", "csv"]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert result.stdout_bytes == (hyp_homology(partition).to_csv() + "\n").encode()

    @pytest.mark.parametrize(
        "partition, n_min, n_max", [((1,), 3, 9), ((2,), 2, 8), ((1, 2), 3, 7), ((3,), 3, 3)]
    )
    def test_stabilization_text(self, runner, partition, n_min, n_max):
        report = stabilization_report(partition, n_min, n_max)
        args = ["stabilization", "--lambda", ",".join(map(str, partition))]
        args += ["--n-min", str(n_min), "--n-max", str(n_max)]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        assert result.stdout_bytes == (report.to_text() + "\n").encode()
        result = runner.invoke(cli.main, args + ["--format", "csv"])
        assert result.exit_code == 0 and result.stdout_bytes == report.to_csv().encode()


def _every_command_and_format():
    """Each command and each of its formats, on a small input."""
    homology = [["hyp", "--lambda", "1,2"], ["pol", "--lambda", "1,2", "--n", "5"]]
    homology += [["order-complex", "--lambda", "1,2"], ["delta", "--lambda", "1,2"]]
    suites = {
        "hook": ["--n", "2..4", "--k", "2..3"],
        "resonance-free": ["--max-weight", "4"],
        "prop-3-7": ["--max-weight", "4"],
        "prop-3-11": ["--n", "2..3"],
        "paper-table": [],
        "d-squared": ["--l", "3", "--n-max", "5"],
    }
    exports = {
        "clambda": ["--lambda", "1,2,3"],
        "delta": ["--lambda", "1,2,3"],
        "closure-poset": ["--lambda", "1,2", "--n", "5"],
        "permutahedron": ["--t", "3"],
        "iterated": ["--n", "3", "--d", "2"],
    }
    stabilization = ["stabilization", "--lambda", "1,2", "--n-max", "7"]
    return [
        *(args + ["--format", f] for args in homology for f in ("text", "json", "csv")),
        *(["verify", s, *a, "--format", f] for s, a in suites.items() for f in ("text", "json")),
        ["table", "--max-weight", "3"],
        ["census", "--max-weight", "6", "--list-identities"],
        *(stabilization + ["--format", f] for f in ("text", "csv")),
        *(["export", o, *a, "--format", f] for o, a in exports.items() for f in ("dot", "json")),
    ]


@pytest.mark.parametrize("args", _every_command_and_format(), ids=" ".join)
def test_output_bytes_end_in_one_lf(runner, args):
    # stdout_bytes, not output: CliRunner.output folds \r\n into \n
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    out = result.stdout_bytes
    assert b"\r" not in out
    assert out.endswith(b"\n") and not out.endswith(b"\n\n")


@pytest.mark.parametrize(
    "args,digest",
    [
        (
            ["pol", "--lambda", "1,1,2", "--n", "8"],
            "ae72b47f8465820e480f0b999b3625bc1066b32a5ea602df81f862055723943f",
        ),
        (
            ["hyp", "--lambda", "1,1,2,2", "--backend", "cells", "--format", "json"],
            "060c9b9fa8e4bef2c45bf27b53d90024f2af41ee14f1ca691571bce794cdbbe5",
        ),
        (
            ["verify", "d-squared", "--l", "5", "--n-max", "9", "--format", "json"],
            "af6a9f34bf734a1af82c86664ef550db684e92ab030dd5a9b811a70e62808779",
        ),
    ],
)
def test_cells_pipeline_golden_digest(runner, args, digest):
    # pinned outputs of the strata cells pipeline
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args,digest",
    [
        (
            ["order-complex", "--lambda", "1,2,3,5", "--format", "json"],
            "798ec417f4d8ba631988a523e47c938c4ddecc4ca8dba7c3a663e2c1b6bdab81",
        ),
        (
            ["delta", "--lambda", "1,2,4,7", "--format", "json"],
            "24887a60d4a6008acf1684b1b131d364b19b724eeaf852a2a6e3440762d14604",
        ),
        (
            ["hyp", "--lambda", "1,1,2,3,4", "--format", "json"],
            "9cb3ec767c3f3a26d2caa497b3cb8e8606dff4d2f23e4729b6d64739ae579b6e",
        ),
        (
            ["verify", "paper-table", "--format", "json"],
            "43033efa053b4703f85c8f0a4a35728d893e9619bfac3d833e12b22519200978",
        ),
        (
            ["order-complex", "--lambda", "1,1,2,3", "--format", "json"],
            "ad3ace351a46d31a248e602de9d433203bc7c15205f0f81e10f4a471986d8440",
        ),
        (
            ["hyp", "--lambda", "1,1,2,3", "--format", "json"],
            "34afe0eb740b41bddaca5673f18d7dd33d9c7697a10718da6086697a9aec8597",
        ),
        (
            ["verify", "prop-3-7", "--format", "json"],
            "41dcd4345d48b1078ff7d08bf2cb90adbbc0768e11462f79c5068f3807f6db0c",
        ),
        (
            ["verify", "prop-3-11", "--format", "json"],
            "c0630f3803d2bc49a3c44a56e150a5fcbf0cb0cc3ced6374b9f2d7e5f1f6fcd1",
        ),
        (
            ["verify", "prop-3-7", "--max-weight", "14", "--format", "json"],
            "d499b2b5958fd6746f6677148f1ac9dcb02cd0fad99f659be38f37414d9c72be",
        ),
        (
            ["verify", "prop-3-11", "--n", "1..7", "--format", "json"],
            "519be2d8337be7a1a814accff5826f3efccd0d53dd203d52acae9c4d16166f4f",
        ),
    ],
)
def test_simplicial_pipeline_golden_digest(runner, args, digest):
    # pinned outputs of the order-complex and partial-sum face pipelines,
    # and of the poset suites (quotients, iterated posets)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


# per case: a module, a statement run in its namespace that makes one of its
# checks fail, and a command that reaches the check
BREAK_CHECK = [
    (
        "polystrata.iterated",
        "check_isomorphism = lambda *a: False",
        ["export", "iterated", "--n", "3", "--d", "2"],
    ),
    (
        "polystrata.posets",
        "Poset._from_below = staticmethod(lambda elements, below: Poset(elements,"
        " [(j, i) for i, d in enumerate(below) for j in _bits(d)]))",
        ["export", "clambda", "--lambda", "1,2,3,4"],
    ),
    (
        "polystrata.homology",
        "SimplicialComplex.euler_characteristic = lambda self: 99",
        ["order-complex", "--lambda", "1,2,3"],
    ),
    (
        "polystrata.strata",
        "_faces = (lambda f: lambda key, n: f(key, n, True))(_faces)",
        ["pol", "--lambda", "1,1", "--n", "4"],
    ),
    (  # a move that keeps the dimension, caught by the closure walk
        "polystrata.strata",
        "_faces = (lambda f: lambda key, n: (lambda p, m, z: (p, m, z + [key]))(*f(key, n)))"
        "(_faces)",
        ["pol", "--lambda", "1,2", "--n", "5"],
    ),
]


@pytest.mark.parametrize(
    "module,statement,args",
    [
        pytest.param(*case, id="%s-args%d" % (case[0], k))
        for k, case in enumerate(BREAK_CHECK)
    ],
)
def test_invariant_failure_exits_3_under_optimize(module, statement, args):
    # python -O drops asserts; a failed invariant check must still exit 3
    code = (
        "import importlib, sys\n"
        "from polystrata import cli\n"
        "exec(%r, vars(importlib.import_module(%r)))\n"
        "sys.argv[1:] = %r\n"
        "cli.main()\n" % (statement, module, args)
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 3, result.stderr
    assert "invariant failure" in result.stderr
