"""Pointwise identity checks: residuals, convergence orders, applicability."""

import dataclasses

import pytest

from prodsurf import calculus
from prodsurf.errors import MissingKillingData, WrongAmbient
from prodsurf.identities import CHECKS, applicable_checks, run_suite

ALL_CHECKS = ("norm_grad_h", "hessian_h", "gauss_scalar", "codazzi",
              "laplacian_theta", "div_T_top")


def test_check_registry_is_complete():
    for name in ALL_CHECKS:
        assert name in CHECKS


@pytest.mark.parametrize("scenario", [
    "graph_S2xR_cos03", "graph_S2xR1_cos02", "graph_T2xR_wave04",
])
def test_product_graph_suite_converges(zoo, scenario):
    surface, _, _ = zoo(scenario)
    results = run_suite(surface, 24, refine=1)
    assert len(results) == 6
    for r in results:
        assert r.passed, (scenario, r)
        if not r.floored:
            assert r.convergence_order >= r.min_order


def test_slice_suite_is_exact_hence_floored(zoo):
    surface, _, _ = zoo("slice_T2xR_t1.2")
    results = run_suite(surface, 16, refine=1)
    for r in results:
        assert r.passed
        assert r.floored
        assert r.max_residual < 1e-10


def test_rounding_limited_checks_pass_via_floor(zoo):
    # On the unit sphere with the position field, Theta is constant, so the
    # stacked FD check measures pure conditioning noise that grows under
    # refinement; the floor carve-out must classify it as satisfied.
    surface, _, _ = zoo("sphere_R3_homothetic")
    (result,) = run_suite(surface, 64, names=("laplacian_theta",))
    assert result.floored
    assert result.passed
    assert result.max_residual < 1e-8


@pytest.mark.parametrize("scenario, resolution", [
    ("graph_S2xR_cos03", 32), ("graph_S3xR_coschi02", 16),
])
def test_gauss_scalar_catches_a_defect_in_the_frame_S(zoo, monkeypatch,
                                                      scenario, resolution):
    # The frame's scalar_curvature is the S that the balance laws and the
    # sign harness consume; in product ambients too, gauss_scalar must see
    # a relative defect of 1e-3 in it.
    surface, _, _ = zoo(scenario)
    (clean,) = run_suite(surface, resolution, names=("gauss_scalar",))
    assert clean.passed, clean
    frame_at = calculus.frame_at

    def defective_frame_at(surface, s):
        fr = frame_at(surface, s)
        return dataclasses.replace(
            fr, scalar_curvature=fr.scalar_curvature * (1.0 + 1.0e-3))

    monkeypatch.setattr(calculus, "frame_at", defective_frame_at)
    (result,) = run_suite(surface, resolution, names=("gauss_scalar",))
    assert not result.passed, result


def test_applicability_filters(zoo):
    product, _, _ = zoo("graph_S2xR_cos03")
    assert applicable_checks(product) == ALL_CHECKS
    space_form, _, _ = zoo("sphere_R3_homothetic")
    names = applicable_checks(space_form)
    assert "norm_grad_h" not in names
    assert "hessian_h" not in names
    assert "gauss_scalar" in names and "div_T_top" in names


def test_product_only_checks_reject_space_forms(zoo):
    surface, grid, _ = zoo("sphere_R3_homothetic", 16)
    from prodsurf.calculus import FrameFields
    ff = FrameFields(surface, grid)
    with pytest.raises(WrongAmbient):
        CHECKS["norm_grad_h"](ff)


def test_three_dimensional_suite_converges(zoo):
    surface, _, _ = zoo("graph_S3xR_coschi02")
    results = run_suite(surface, 12, refine=1)
    assert len(results) == 6
    for r in results:
        assert r.passed, r


def test_refine_zero_gives_single_resolution_results(zoo):
    surface, _, _ = zoo("graph_S2xR_cos03")
    results = run_suite(surface, 16, refine=0)
    for r in results:
        assert r.convergence_order is None
        assert r.coarse_residual is None


def test_codazzi_on_space_form_is_exact(zoo):
    surface, _, _ = zoo("ellipsoid_R3_homothetic")
    results = run_suite(surface, 24, refine=1, names=("codazzi",))
    (r,) = results
    assert r.passed
