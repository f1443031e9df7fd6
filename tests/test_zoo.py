"""The scenario catalog: coverage, determinism, gates, tolerance policy."""

import dataclasses
import math

import numpy as np
import pytest

from prodsurf.calculus import FrameFields
from prodsurf.errors import OverrideOutOfRange, UnknownScenario
from prodsurf.graphs import completeness_criterion
from prodsurf.integral import integral_formula
from prodsurf.identities import run_suite
from prodsurf.zoo import (REDUCED_RESOLUTION_3D, TOLERANCES, instantiate,
                          list_scenarios, scenario_names)

REQUIRED = (
    "slice_S2xR_t0.7",
    "example51_lorentzian_K-2",
    "sphere_R3_homothetic",
    "geodesic_sphere_S3",
)

SMALL = {"resolution": 12}


def test_catalog_size_order_and_required_names():
    names = scenario_names()
    assert len(names) >= 18
    assert names == tuple(s.name for s in list_scenarios())
    assert names == scenario_names()  # stable across calls
    for name in REQUIRED:
        assert name in names


def test_every_scenario_instantiates_at_reduced_resolution():
    for sc in list_scenarios():
        surface, grid, tol = instantiate(sc.name, SMALL)
        assert grid.resolution == 12
        assert tol == TOLERANCES
        if hasattr(surface, "epsilon"):
            assert surface.epsilon in (+1, -1)
        # frames build everywhere the scenario samples
        frame = FrameFields(surface, grid).frame
        assert np.all(np.isfinite(frame.scalar_curvature))


def test_catalog_descriptions_and_expected_notes():
    for sc in list_scenarios():
        assert sc.description
        for key, entry in sc.expected.items():
            assert set(entry) == {"value", "how"}, (sc.name, key)
            assert entry["how"]


@pytest.mark.parametrize("name", [s.name for s in list_scenarios()
                                  if s.expected])
def test_expected_values_are_reproduced(name, zoo):
    sc = next(s for s in list_scenarios() if s.name == name)
    surface, grid, _ = zoo(name, 24)
    ff = FrameFields(surface, grid)
    frame = ff.frame
    got = {
        "theta": frame.theta,
        "shape_operator": frame.shape_operator,
        "scalar_curvature": frame.scalar_curvature,
        "gauss_curvature": 0.5 * frame.scalar_curvature,
        "mean_curvature": frame.mean_curvature,
    }
    for key, entry in sc.expected.items():
        want = entry["value"]
        if isinstance(want, str):
            # formula in the scenario parameters; checked separately below
            assert "rho" in want and "rho" in sc.params
        elif key == "area":
            assert ff.integrate(np.ones(grid.shape)) == pytest.approx(
                want, rel=1e-6)
        elif key == "flux_both_sides":
            rep = integral_formula(surface, grid)
            assert rep.lhs == pytest.approx(want, rel=1e-6)
            assert rep.rhs == pytest.approx(want, rel=1e-6)
        elif key == "sup_du_sq":
            verdict = completeness_criterion(surface, grid)
            assert verdict.sup_du_sq == pytest.approx(want, abs=1e-14)
            assert verdict.sampled_max <= want + 1e-10
        else:
            assert np.max(np.abs(got[key] - want)) < 5e-6, (name, key)


def test_geodesic_sphere_expected_formula_evaluates():
    sc = next(s for s in list_scenarios() if s.name == "geodesic_sphere_S3")
    assert sc.expected["scalar_curvature"]["value"] == "2 / sin(rho)^2"
    rho = sc.params["rho"]
    surface, grid, _ = instantiate(sc.name, {"resolution": 16})
    frame = FrameFields(surface, grid).frame
    want = 2.0 / math.sin(rho) ** 2
    assert np.max(np.abs(frame.scalar_curvature - want)) < 1e-9


def test_three_dimensional_scenarios_default_to_reduced_resolution():
    for name in ("graph_S3xR_coschi02", "graph_S3xR1_coschi02"):
        sc = next(s for s in list_scenarios() if s.name == name)
        assert sc.default_resolution == REDUCED_RESOLUTION_3D
        surface, grid, _ = instantiate(name)
        assert grid.resolution == REDUCED_RESOLUTION_3D


def test_unknown_scenario_is_reported_with_catalog():
    with pytest.raises(UnknownScenario, match="slice_S2xR_t0.7"):
        instantiate("nope")


def test_override_gates():
    with pytest.raises(OverrideOutOfRange, match="resolution"):
        instantiate("slice_S2xR_t0.7", {"resolution": 4})
    with pytest.raises(OverrideOutOfRange, match="resolution"):
        instantiate("slice_S2xR_t0.7", {"resolution": 12.5})
    with pytest.raises(OverrideOutOfRange, match="does not accept"):
        instantiate("slice_S2xR_t0.7", {"speed": 3})
    with pytest.raises(OverrideOutOfRange):
        instantiate("graph_S2xR_cos03", {"amplitude": 0.9})
    with pytest.raises(OverrideOutOfRange, match="tolerance_scale"):
        instantiate("slice_S2xR_t0.7", {"tolerance_scale": 1e-9})


def test_declared_parameter_overrides_take_effect():
    surface, grid, _ = instantiate("slice_S2xR_t0.7",
                                   {"t0": 1.5, "resolution": 12})
    assert float(surface.u(grid.nodes).max()) == 1.5
    surface, _, _ = instantiate("example51_lorentzian_K-2",
                                {"K": -3.0, "resolution": 12})
    assert surface.radial_K == -3.0


def test_radial_scenario_rejects_curvature_outside_existence_range():
    with pytest.raises(OverrideOutOfRange):
        instantiate("example51_lorentzian_K-2", {"K": -0.5})
    with pytest.raises(OverrideOutOfRange):
        instantiate("example51_riemannian_K-0.5", {"K": -1.5})


def test_tolerance_scaling_leaves_order_floors_alone():
    _, _, tol = instantiate("slice_S2xR_t0.7",
                            {"tolerance_scale": 10.0, "resolution": 12})
    assert tol.min_order == TOLERANCES.min_order
    assert tol.min_order_stacked == TOLERANCES.min_order_stacked
    assert tol.residual_floor == TOLERANCES.residual_floor
    assert tol.integral_relative == pytest.approx(1e-5)
    assert tol.einstein_absolute == pytest.approx(1e-4)
    assert tol.radial_match == pytest.approx(1e-5)

    direct = TOLERANCES.scaled(10.0)
    assert direct == tol


def test_scaled_leaves_both_order_floors_unchanged():
    for scale in (1e-6, 0.5, 1e6):
        tol = TOLERANCES.scaled(scale)
        assert tol.min_order == 1.7
        assert tol.min_order_stacked == 1.5


def test_scaled_tolerances_gates_the_scale():
    for scale in (1e7, 1e-7, 0.0, -1.0):
        with pytest.raises(OverrideOutOfRange, match="tolerance_scale"):
            TOLERANCES.scaled(scale)


def test_tolerance_record_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOLERANCES.min_order = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOLERANCES.scaled(2.0).radial_match = 1.0
    assert TOLERANCES.min_order == 1.7


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "sphere_R3_homothetic"])
def test_identity_results_carry_the_record_floors(zoo, name):
    surface, _, _ = zoo(name)
    results = run_suite(surface, 12, refine=0)
    assert len(results) >= 4
    for r in results:
        want = (TOLERANCES.min_order_stacked if r.name == "laplacian_theta"
                else TOLERANCES.min_order)
        assert r.min_order == want, r.name


def test_noncompact_scenarios_are_flagged():
    flags = {s.name: s.compact for s in list_scenarios()}
    assert flags["slice_H2xR_t0.5"] is False
    assert flags["example51_riemannian_K-0.5"] is False
    assert flags["example51_lorentzian_K-2"] is False
    assert flags["hyperboloid_R31_minkowski"] is False
    assert flags["cylinder_S2xR"] is False
    assert flags["slice_S2xR_t0.7"] is True


def test_projective_plane_scenario_has_expected_half_area():
    sc = next(s for s in list_scenarios()
              if s.name == "slice_RP2xR_t0.3")
    assert sc.expected["area"]["value"] == pytest.approx(2 * math.pi)
