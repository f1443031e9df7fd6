"""Consistency checks of the benchmark itself.

Run from the root of a checkout with::

    python3 -m pytest perfbench/test_bench.py -q

They check that the traced and untraced passes give byte-identical reports,
that the tracer restores every attribute it patches, that the zero-call
predictions of README.md hold, that calibration weights its slices, and
that the metric names agree with BENCHMARK.json.  They take about a minute, most of it in ``balance_laws``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# identity_sweep runs on two cheap scenarios here; the other two in full
IDENTITY_SUBSET = ("graph_S2xR_cos03", "sphere_R3_homothetic")

BYPASSED = ("shape.intrinsic_curvature_oracle.calls",
            "calculus.partial_derivative.calls",
            "calculus.stencil_weights.calls",
            "smallmat.lagrange_derivative_weights.calls")

# layer -> (workloads that must call it, workloads that must not)
PREDICTIONS = {
    **{name: (("identity_sweep",), ("balance_laws", "sign_radial_scan"))
       for name in BYPASSED},
    "graphs.solve_radial.calls": (("sign_radial_scan",),
                                  ("identity_sweep", "balance_laws")),
    "calculus.integrate.calls": (("balance_laws",), ("sign_radial_scan",)),
    "shape.frame_at.calls": (run.WORKLOADS, ()),
}


def _items(workload: str):
    items = workloads.setup(workload, seed=7)
    if workload == "identity_sweep":
        items = [it for it in items if it.key in IDENTITY_SUBSET]
    return items


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_and_untraced(request):
    workload = request.param
    items = _items(workload)
    untraced = workloads.run_pass(workload, items)
    tracer = tracing.Tracer()
    tracer.pass_label = "pass0"
    with tracer:
        traced = workloads.run_pass(workload, items, tracer)
    return workload, untraced, traced, tracer.pass_table("pass0")


def test_traced_and_untraced_reports_are_byte_identical(traced_and_untraced):
    workload, untraced, traced, _ = traced_and_untraced
    assert [label for ok, label in untraced.checks if not ok] == []
    assert [label for ok, label in traced.checks if not ok] == []
    assert traced.report == untraced.report


def test_zero_call_predictions(traced_and_untraced):
    workload, _, _, table = traced_and_untraced
    for name, (used_by, bypassed_by) in PREDICTIONS.items():
        if workload in used_by:
            assert table.get(name, 0) > 0, name
        if workload in bypassed_by:
            assert table.get(name, 0) == 0, name


def test_tracer_restores_every_patched_attribute():
    before = tracing.patch_points()
    with tracing.Tracer():
        during = tracing.patch_points()
    after = tracing.patch_points()
    assert all(d[2] is not b[2] for b, d in zip(before, during))
    assert all(a[2] is b[2] for b, a in zip(before, after))


def test_tracer_restores_attributes_when_a_pass_raises():
    before = tracing.patch_points()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert all(a[2] is b[2] for b, a in zip(before, tracing.patch_points()))


def test_layer_metrics_report_every_per_layer_name():
    tracer = tracing.Tracer()
    values = tracer.layer_metrics("pass0", 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(values) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple(workloads.SETUPS) == run.WORKLOADS


def test_calibration_scales_by_the_time_weighted_slice():
    cal = calibration.Calibrator()
    cal.slice(weight=3.0)
    cal.slice(weight=1.0)
    cal.times = [calibration.CAL_REF_S, 3 * calibration.CAL_REF_S]
    # weighted mean slice = (3 * 1 + 1 * 3) / 4 = 1.5 reference slices
    assert cal.scale(3.0) == pytest.approx(2.0)
    cal.final()
    assert len(cal.times) == 3 and cal.weights[-1] > 0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "sign_radial_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric_from_fresh_workers(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sign_radial_scan",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
