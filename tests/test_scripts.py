"""Smoke runs of the experiment scripts in scripts/ at small sizes.

Each script is loaded from its path and its ``main`` is called in-process
with arguments small enough to finish in seconds.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("convergence_table", ["--scenario", "slice_T2xR_t1.2",
                           "--resolution", "12"]),
    ("integral_scan", ["--scenario", "sphere_R3_homothetic",
                       "--resolutions", "16"]),
    ("radial_sweep", ["--riemannian", "-0.5", "--lorentzian", "-2"]),
])
def test_script_runs_to_a_zero_exit(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
