"""Pointwise identity checks: residuals, convergence orders, applicability."""

import dataclasses
import gc
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
from reference_routes import run_check

from prodsurf import calculus, identities, zoo as catalog
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import WrongAmbient
from prodsurf.identities import (CHECKS, _attach_order, applicable_checks,
                                 check_codazzi, run_suite)

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
    result = run_check(surface, "laplacian_theta", 64)
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
    clean = run_check(surface, "gauss_scalar", resolution)
    assert clean.passed, clean
    frame_at = calculus.frame_at

    def defective_frame_at(surface, s, keep=None):
        fr = frame_at(surface, s, keep)
        return dataclasses.replace(
            fr, scalar_curvature=fr.scalar_curvature * (1.0 + 1.0e-3))

    monkeypatch.setattr(calculus, "frame_at", defective_frame_at)
    result = run_check(surface, "gauss_scalar", resolution)
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


def test_suite_lets_each_grid_go_before_the_next(zoo, monkeypatch):
    # when a grid's frame is built, no bundle of an earlier grid is alive
    surface, _, _ = zoo("slice_T2xR_t1.2")
    bundles, alive_at_frame = [], []

    class Recorded(FrameFields):
        def __init__(self, surface, grid):
            super().__init__(surface, grid)
            bundles.append(weakref.ref(self))

        @cached_property
        def frame(self):
            gc.collect()
            alive_at_frame.append([ref() is not None for ref in bundles
                                   if ref() is not self])
            return FrameFields.frame.func(self)

    monkeypatch.setattr(identities, "FrameFields", Recorded)
    results = run_suite(surface, 12, refine=1)
    assert len(results) == 6 and all(r.passed for r in results)
    assert alive_at_frame == [[], [False]]


def test_codazzi_on_space_form_is_exact(zoo):
    surface, _, _ = zoo("ellipsoid_R3_homothetic")
    assert run_check(surface, "codazzi", 24).passed


def _codazzi_full_tensor(fields):
    """The full-tensor Codazzi residual ``res[..., i, j, k]``, every pair.

    ``(grad_a A)^l_i`` with both Christoffel terms, lowered for all ``n^3``
    components, against a left side filled on ``i < j`` and mirrored onto
    ``j > i``: the route that ``check_codazzi`` reduces to its curl.
    """
    fr = fields.frame
    ambient = fields.surface.ambient
    n = len(fields.grid.axes)
    gam = fields.christoffels
    A = fr.shape_operator
    up = np.einsum("...lam,...mi->...ali", gam, A)
    down = np.einsum("...mai,...lm->...ali", gam, A)
    covA = fields.partials(A, index_rank=2) + up - down
    lowered = np.einsum("...kl,...jli->...ijk", fr.metric, covA)
    rhs = lowered - np.swapaxes(lowered, -3, -2)
    lhs = np.zeros(rhs.shape)
    GN = np.einsum("...ab,...b->...a", ambient.metric_at(fr.point), fr.normal)
    t = fr.tangent
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                R = ambient.curvature_operator(fr.point, t[..., i, :],
                                               t[..., j, :], t[..., k, :])
                val = np.einsum("...a,...a->...", R, GN)
                lhs[..., i, j, k] = val
                lhs[..., j, i, k] = -val
    return lhs - rhs


COMPACT = [sc.name for sc in catalog.list_scenarios() if sc.compact]


@pytest.mark.parametrize("scenario", COMPACT)
def test_codazzi_curl_matches_the_full_tensor_route(zoo, scenario):
    surface, grid, _ = zoo(scenario)
    pairs = []
    for resolution in (grid.resolution, 2 * grid.resolution):
        fields = FrameFields(surface,
                             QuadratureGrid.build(surface.axes, resolution))
        res = np.abs(_codazzi_full_tensor(fields))
        n = res.shape[-1]
        for i in range(n):
            assert not res[..., i, i, :].any()
            for j in range(i + 1, n):
                assert np.array_equal(res[..., j, i, :], res[..., i, j, :])
        upper = max(res[..., i, j, :].max()
                    for i in range(n) for j in range(i + 1, n))
        assert res.max() == upper
        curl = check_codazzi(fields)
        assert abs(curl.max_residual - upper) <= 1e-15, (resolution, curl)
        pairs.append((curl, dataclasses.replace(curl, max_residual=upper)))
    (coarse, ref_coarse), (fine, ref_fine) = pairs
    ours = _attach_order(coarse, fine, grid.resolution, 2 * grid.resolution)
    ref = _attach_order(ref_coarse, ref_fine, grid.resolution,
                        2 * grid.resolution)
    assert ours.passed == ref.passed and ours.floored == ref.floored
    if ref.convergence_order is not None:
        assert abs(ours.convergence_order - ref.convergence_order) <= 1e-6


def test_codazzi_forms_no_full_tensor_of_grad_A(zoo):
    # One call on graph_S3xR_coschi02 at 32, with the frame and the
    # Christoffel symbols built beforehand, peaks at 6.7x the bytes of the
    # shape operator; the full-tensor route above peaks at 17.1x.
    surface, _, _ = zoo("graph_S3xR_coschi02")
    fields = FrameFields(surface, QuadratureGrid.build(surface.axes, 32))
    fields.christoffels
    tracemalloc.start()
    try:
        check_codazzi(fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * fields.frame.shape_operator.nbytes
