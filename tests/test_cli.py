import hashlib
import json

import pytest
from click.testing import CliRunner

from polystrata import cli
from polystrata.homology import sphere_homology
from polystrata.hyperbolic import BackendDisagreement


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

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(cli.main, ["verify", "nope"])
        assert result.exit_code != 0


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
        assert runner.invoke(cli.main, ["export", "clambda"]).exit_code == 2
        assert runner.invoke(cli.main, ["export", "iterated"]).exit_code == 2
