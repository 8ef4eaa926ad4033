"""The example scripts exit 0 on the arguments CI runs them with, and
exit 1 when a figure they compare disagrees."""

import dataclasses
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_genus_table_exits_0_on_the_ci_arguments(capsys):
    script = load("genus_table")
    assert script.main(["--max-i", "1", "--max-r", "4", "--max-s", "2"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_oracle_demo_exits_0_on_the_ci_arguments(capsys):
    script = load("oracle_demo")
    assert script.main([]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    stochastic = [line for line in out.splitlines() if "stochastic:" in line]
    assert len(stochastic) == 2
    assert all(" explored, " in line and " systems/s, " in line
               for line in stochastic)


def test_genus_table_exits_1_on_a_closed_form_off_by_one(monkeypatch,
                                                        capsys):
    script = load("genus_table")
    real = script.cube_genus
    monkeypatch.setattr(script, "cube_genus",
                        lambda i, n: real(i, n) + 1)
    argv = ["--families", "cube", "--max-i", "1", "--max-r", "2"]
    assert script.main(argv) == 1
    assert capsys.readouterr().out.count("MISMATCH") == 2


def test_oracle_demo_exits_1_on_a_witness_genus_off_by_one(monkeypatch,
                                                           capsys):
    script = load("oracle_demo")
    real = script.euler_genus
    monkeypatch.setattr(script, "euler_genus", lambda e: dataclasses.replace(
        real(e), genus=real(e).genus + 1))
    assert script.main([]) == 1
    assert capsys.readouterr().out.count("MISMATCH") == 6
