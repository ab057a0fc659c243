"""Each script in scripts/ runs to completion and prints a table."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    return capsys.readouterr().out.splitlines()


def test_betti_tables(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "betti_tables.py", "--max-weight", "4")
    # a header, then one row per type of weight 1..4
    assert lines[0].split() == ["lambda", "resonance", "homology", "prediction"]
    assert len(lines) == 1 + 1 + 2 + 3 + 5
    assert not any("MISMATCH" in line for line in lines)


def test_resonance_census(monkeypatch, capsys):
    lines = run_script(
        monkeypatch, capsys, "resonance_census.py", "--max-weight", "6", "--list-identities"
    )
    weights = [line for line in lines if line.startswith("weight")]
    assert len(weights) == 6
    assert "weight  6:  11 types" in weights[-1]
    assert any("1+2 = 3" in line for line in lines)


def test_resonance_census_golden(monkeypatch, capsys):
    # the default --max-weight 12; the digest was taken with the index-level
    # brute force that primitive_identities replaced
    lines = run_script(monkeypatch, capsys, "resonance_census.py", "--list-identities")
    assert "weight 12:  77 types,  25 free,  52 resonant" in lines
    stdout = "".join(line + "\n" for line in lines)
    assert (
        hashlib.sha256(stdout.encode()).hexdigest()
        == "8152a99337c1754511ffb85ac4a854fdd1f516796efe96ed94f4e76e74407c02"
    )


@pytest.mark.parametrize("csv", [False, True])
def test_stabilization_table(monkeypatch, capsys, csv):
    args = ["--lambda", "1,2", "--n-max", "7"] + (["--csv"] if csv else [])
    lines = run_script(monkeypatch, capsys, "stabilization_table.py", *args)
    if csv:
        assert lines[0] == "n,degree,betti,torsion"
        assert {line.split(",")[0] for line in lines[1:]} == {"3", "5", "7"}
    else:
        assert lines[0] == "lambda = (1, 2)"
        assert [line.split(":")[0].strip() for line in lines[1:4]] == [
            "n = 3",
            "n = 5",
            "n = 7",
        ]
