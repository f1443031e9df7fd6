"""The names the benchmark in ``perfbench/`` reads from the package.

The benchmark patches package entry points by name (``perfbench/tracing.py``)
and builds its workloads from the catalog (``perfbench/workloads.py``).  A
rename there would pass every other test here and still break every
benchmark run, so these tests import both modules as they are, without
changing them, and resolve what they use.  One traced pass runs a single
item of each workload, so a changed signature of an entry point the
workloads call fails here too.
"""

import json
import sys
from pathlib import Path

import pytest

from prodsurf.ambient import AmbientSpace

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_every_patch_point_resolves():
    points = tracing.patch_points()
    assert points
    for owner, key, target in points:
        assert callable(target), (owner, key)
    # patched on the class, so it must stay a method in the class namespace
    assert "curvature_operator" in vars(AmbientSpace)


def test_layer_metrics_are_the_declared_per_layer_names():
    assert set(tracing.LAYER_METRICS) == {m["name"] for m in DECLARED["per_layer"]}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_inputs_build(workload):
    items = workloads.setup(workload, seed=0)
    assert items
    assert len({item.key for item in items}) == len(items)


def test_one_traced_item_per_workload_passes_and_counts_its_layers():
    picks = {"identity_sweep": "slice_T2xR_t1.2",
             "balance_laws": "slice_T2xR_t1.2@0128",
             "sign_radial_scan": "example51_lorentzian_K-2#00"}
    items = {workload: next(item for item in workloads.setup(workload, seed=0)
                            if item.key.split(" ")[0] == key)
             for workload, key in picks.items()}
    tracer = tracing.Tracer()
    with tracer:
        tracer.pass_label = "pass"
        for workload, item in items.items():
            result = workloads.run_pass(workload, [item], tracer)
            assert result.checks
            assert all(ok for ok, _ in result.checks), result.checks
    layers = tracer.pass_table("pass")
    # 8 metric samples per node on the 128^2 and 256^2 grids of the flat torus
    assert layers["shape.intrinsic_curvature_oracle.metric_points"] == 655_360
    assert layers["calculus.integrate.terms"] > 0
    assert layers["graphs.solve_radial.nfev"] > 0
