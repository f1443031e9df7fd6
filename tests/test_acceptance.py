"""Acceptance gate: run the full battery, one test per criterion.

Each test prints the criterion's PASS/FAIL line to the terminal (even under
captured output) so a test run doubles as the acceptance report, then
asserts the verdict with the evidence lines attached to any failure.
"""

import io
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from prodsurf import acceptance
from prodsurf.acceptance import CRITERIA, battery_passed, run_battery

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def battery():
    """The verdicts of one battery run and the progress lines it streamed."""
    progress = io.StringIO()
    verdicts = run_battery(progress=progress)
    return verdicts, progress.getvalue().splitlines()


@pytest.fixture(scope="module")
def verdicts(battery):
    return battery[0]


@pytest.mark.parametrize("index", range(len(CRITERIA)),
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(index, verdicts, capsys):
    v = verdicts[index]
    with capsys.disabled():
        print(flush=True)
        print(v.line(), flush=True)
    assert v.passed, "\n".join([v.line(), *v.details])


def test_battery_passes_as_a_whole(verdicts):
    assert battery_passed(verdicts)
    assert len(verdicts) == len(CRITERIA)
    numbers = [v.number for v in verdicts]
    assert numbers == sorted(numbers)


def test_progress_lines_end_with_the_elapsed_time(battery):
    verdicts, lines = battery
    assert len(lines) == len(verdicts)
    for verdict, line in zip(verdicts, lines):
        head, _, tail = line.rpartition(" (")
        assert head == verdict.line()
        assert re.fullmatch(r"\d+\.\d s\)", tail), line


def test_acceptance_command_is_bytewise_deterministic(tmp_path):
    """Two full acceptance runs must agree byte for byte."""
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "prodsurf.cli", "acceptance",
             "--no-timestamp", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1000


@pytest.mark.parametrize("coarse,passed", [(1.6e-7, True), (1.2e-8, False)],
                         ids=["order-4", "order-0.26"])
def test_product_integral_order_branch_judges_the_refinement(
        monkeypatch, coarse, passed):
    # relative residuals above RELATIVE_FLOOR take the refinement-order
    # branch, which the real graphs (all floored) never reach
    residuals = {64: coarse, 128: 1.0e-8}
    assert min(residuals.values()) > acceptance.RELATIVE_FLOOR
    monkeypatch.setattr(
        acceptance, "product_integral", lambda fields, tol:
        SimpleNamespace(relative_residual=residuals[fields.grid.resolution]))
    verdict = acceptance.criterion_product_integral()
    assert verdict.passed is passed
    orders = [d for d in verdict.details if "refinement order" in d]
    assert len(orders) == len(acceptance.PRODUCT_GRAPH_SCENARIOS)
    order = math.log2(coarse / 1.0e-8)
    assert all(d.endswith(f"refinement order {order:.2f}") for d in orders)
    assert all(d.startswith("ok  " if passed else "BAD ") for d in orders)
    assert not any("floored" in d for d in verdict.details)
