"""The scenario catalog: coverage, determinism, gates, tolerance policy."""

import dataclasses
import math

import numpy as np
import pytest
from reference_routes import full_chart, oracle_at

from prodsurf import _smallmat
from prodsurf.ambient import make_ambient
from prodsurf.calculus import FrameFields
from prodsurf.errors import GeometryError, OverrideOutOfRange, UnknownScenario
from prodsurf.graphs import completeness_criterion
from prodsurf.integral import integral_formula
from prodsurf.identities import run_suite
from prodsurf.shape import frame_at
from prodsurf.zoo import (DEFAULT_RESOLUTION, REDUCED_RESOLUTION_3D,
                          TOLERANCES, Scenario, _graph_builder,
                          cosine_profile, instantiate, list_scenarios,
                          scenario_names)

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


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_surface_lives_in_its_declared_ambient(name):
    sc = next(s for s in list_scenarios() if s.name == name)
    surface, grid, _ = instantiate(name, SMALL)
    declared = make_ambient(sc.ambient_key)
    assert surface.name == name
    assert surface.ambient.name == declared.name
    assert surface.ambient.epsilon == declared.epsilon
    assert grid.compact == sc.compact


def test_graph_over_a_quotient_base_must_be_antipodally_even():
    sc = Scenario(name="graph_RP2xR_cos03", ambient_key="RP2xR", kind="graph",
                  builder=_graph_builder(cosine_profile),
                  params={"amplitude": 0.3})
    with pytest.raises(GeometryError, match="graph_RP2xR_cos03.*antipodally"):
        sc.builder(sc, make_ambient(sc.ambient_key), dict(sc.params))


def test_cylinder_default_orientation_is_the_adjugate_normal(zoo):
    # <N, T> is exactly 0.0 on the cylinder, so the product's policy leaves
    # the adjugate normal as it is: G^-1 w normalized, w the covector that
    # annihilates the tangents
    surface, grid, _ = zoo("cylinder_S2xR")
    default = frame_at(surface, grid.nodes)
    assert np.all(default.theta == 0.0)
    x, tx, _ = surface.jet(grid.nodes)
    w = _smallmat.generalized_cross(tx)
    ginv = full_chart(surface.ambient).metric_inverse_at(x)
    raw = np.einsum("...ab,...b->...a", ginv, w)
    length = np.sqrt(np.abs(np.einsum("...a,...a->...", w, raw)))
    adjugate = raw / length[..., None]
    assert np.max(np.abs(adjugate)) > 0.5
    assert np.allclose(default.normal, adjugate, rtol=0.0, atol=1e-15)


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
            rep = integral_formula(ff)
            assert rep.lhs == pytest.approx(want, rel=1e-6)
            assert rep.rhs == pytest.approx(want, rel=1e-6)
        elif key == "sup_du_sq":
            verdict = completeness_criterion(surface, grid)
            assert verdict.sup_du_sq == pytest.approx(want, abs=1e-14)
            assert verdict.sampled_max <= want + 1e-10
        else:
            assert np.max(np.abs(got[key] - want)) < 5e-6, (name, key)
        if (key in ("scalar_curvature", "gauss_curvature")
                and not isinstance(want, str)):
            # the metric-only oracle is a second route to S = 2K; at the
            # step 1e-3 it is off by at most 1.1e-7 at 24 (measured on
            # sphere_R3_homothetic, the worst scenario)
            S = want if key == "scalar_curvature" else 2.0 * want
            oracle = oracle_at(surface, grid.nodes)
            assert np.max(np.abs(oracle - S)) < 1e-6, (name, key, "oracle")


def test_geodesic_sphere_expected_formula_evaluates():
    sc = next(s for s in list_scenarios() if s.name == "geodesic_sphere_S3")
    assert sc.expected["scalar_curvature"]["value"] == "2 / sin(rho)^2"
    rho = sc.params["rho"]
    surface, grid, _ = instantiate(sc.name, {"resolution": 16})
    frame = FrameFields(surface, grid).frame
    want = 2.0 / math.sin(rho) ** 2
    assert np.max(np.abs(frame.scalar_curvature - want)) < 1e-9


def test_three_dimensional_scenarios_default_to_reduced_resolution():
    reduced = ("graph_S3xR_coschi02", "graph_S3xR1_coschi02")
    for name in reduced:
        sc = next(s for s in list_scenarios() if s.name == name)
        assert sc.default_resolution == REDUCED_RESOLUTION_3D
        surface, grid, _ = instantiate(name)
        assert grid.resolution == REDUCED_RESOLUTION_3D
    others = [sc for sc in list_scenarios() if sc.name not in reduced]
    assert len(others) == 20
    for sc in others:
        assert sc.default_resolution == DEFAULT_RESOLUTION, sc.name
        assert instantiate(sc.name)[1].resolution == DEFAULT_RESOLUTION, sc.name


def test_an_uncataloged_scenario_reads_its_own_surface():
    """Compactness and the default resolution come from the scenario's own
    builder; a copy under a name the catalog lacks reads the same values."""
    catalog = {sc.name: sc for sc in list_scenarios()}
    cylinder = dataclasses.replace(catalog["cylinder_S2xR"], name="tube")
    assert cylinder.compact is False
    assert cylinder.default_resolution == DEFAULT_RESOLUTION
    graph = dataclasses.replace(catalog["graph_S3xR_coschi02"], name="wave")
    assert graph.compact is True
    assert graph.default_resolution == REDUCED_RESOLUTION_3D
    with pytest.raises(UnknownScenario):
        instantiate("tube")


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
    assert tol.corollary_residual == TOLERANCES.corollary_residual == 1e-8
    assert tol.completeness_slack == TOLERANCES.completeness_slack == 1e-10
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
    assert len(flags) == 22
    assert flags["slice_H2xR_t0.5"] is False
    assert flags["example51_riemannian_K-0.5"] is False
    assert flags["example51_lorentzian_K-2"] is False
    assert flags["hyperboloid_R31_minkowski"] is False
    assert flags["cylinder_S2xR"] is False
    assert flags["slice_S2xR_t0.7"] is True
    assert {name for name, compact in flags.items() if compact is False} == {
        "slice_H2xR_t0.5", "example51_riemannian_K-0.5",
        "example51_lorentzian_K-2", "hyperboloid_R31_minkowski",
        "cylinder_S2xR"}
    assert sum(compact is True for compact in flags.values()) == 17


def test_projective_plane_scenario_has_expected_half_area():
    sc = next(s for s in list_scenarios()
              if s.name == "slice_RP2xR_t0.3")
    assert sc.expected["area"]["value"] == pytest.approx(2 * math.pi)
