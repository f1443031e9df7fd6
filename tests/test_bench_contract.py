"""The names the benchmark in ``perfbench/`` reads from the package.

The benchmark patches package entry points by name (``perfbench/tracing.py``)
and builds its workloads from the catalog (``perfbench/workloads.py``).  A
rename there would pass every other test here and still break every
benchmark run, so these tests import both modules as they are, without
changing them, and resolve what they use.  They run no workload pass.
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
