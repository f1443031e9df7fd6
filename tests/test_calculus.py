"""Quadrature, surface fields, and intrinsic differential operators."""

import math

import numpy as np
import pytest

from prodsurf import _smallmat, calculus
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import NonCompactDomain
from prodsurf.zoo import instantiate


def test_grid_rejects_too_coarse_resolution(zoo):
    surface, _, _ = zoo("slice_S2xR_t0.7", 16)
    with pytest.raises(ValueError):
        QuadratureGrid.build(surface.axes, 4)


def test_sphere_area_and_harmonics_integrate_exactly(fields):
    ff = fields("slice_S2xR_t0.7", 24)
    theta = ff.grid.nodes[..., 0]
    phi = ff.grid.nodes[..., 1]
    assert ff.integrate(np.ones(ff.grid.shape)) == pytest.approx(
        4.0 * math.pi, abs=1e-10)
    assert ff.integrate(3.0 * np.cos(theta) ** 2 - 1.0) == pytest.approx(
        0.0, abs=1e-10)
    assert ff.integrate(np.sin(theta) ** 3 * np.cos(3.0 * phi)) == pytest.approx(
        0.0, abs=1e-10)


def test_projective_plane_slice_has_half_area(fields):
    ff = fields("slice_RP2xR_t0.3", 16)
    assert ff.integrate(np.ones(ff.grid.shape)) == pytest.approx(
        2.0 * math.pi, abs=1e-10)


def test_integration_is_bit_reproducible(zoo):
    surface, grid, _ = zoo("torus_R3_homothetic", 24)
    field = np.cos(grid.nodes[..., 0]) + 0.3 * np.sin(2 * grid.nodes[..., 1])
    a = FrameFields(surface, grid).integrate(field)
    b = FrameFields(surface, grid).integrate(field)
    assert a == b  # exact equality: summation order is pinned


def test_non_compact_surface_refuses_to_integrate(fields):
    ff = fields("slice_H2xR_t0.5", 16)
    with pytest.raises(NonCompactDomain):
        ff.integrate(np.ones(ff.grid.shape))


@pytest.mark.parametrize("name", ["slice_S2xR_t0.7", "graph_S3xR_coschi02",
                                  "hyperboloid_R31_minkowski"])
def test_stencil_weights_equal_row_by_row_reference(zoo, name):
    # one Lagrange window per node, built one row at a time
    _, grid, _ = zoo(name, 16)
    for axis, spec in enumerate(grid.axes):
        z_ext = calculus._extended_positions(grid, axis)
        ghost = 0 if spec.kind == "open" else calculus._GHOST_DEPTH
        w = calculus._STENCIL_WIDTH
        idx, wts = calculus._stencil_for_axis(grid, axis)
        for i in range(grid.shape[axis]):
            center = i + ghost
            start = min(max(center - w // 2, 0), len(z_ext) - w)
            window = np.arange(start, start + w)
            row = _smallmat.lagrange_derivative_weights(z_ext[window], z_ext[center])
            row[center - start] -= row.sum()
            assert np.array_equal(idx[i], window)
            assert np.array_equal(wts[i], row)


def _first_harmonic_residuals(name, overrides, n):
    # cos of the first polar angle is a first spherical harmonic on S^n:
    # Lap u = -n u; max |Lap u + n u| at resolutions 16 and 32
    residuals = {}
    for res in (16, 32):
        surface, grid, _ = instantiate(name, {**overrides, "resolution": res})
        u = np.cos(grid.nodes[..., 0])
        lap = FrameFields(surface, grid).laplacian(u)
        residuals[res] = float(np.max(np.abs(lap + n * u)))
    return residuals


def test_laplacian_eigenfunction_on_the_sphere():
    residuals = _first_harmonic_residuals("slice_S2xR_t0.7", {}, 2)
    assert residuals[32] < 2.0e-4
    assert residuals[32] < residuals[16] / 4.0  # at least second order


def test_laplacian_eigenfunction_on_the_three_sphere():
    # the slice of S^3 x R: the zero-amplitude graph over the round 3-sphere
    residuals = _first_harmonic_residuals("graph_S3xR_coschi02",
                                          {"amplitude": 0.0}, 3)
    assert residuals[32] < 2.0e-4
    assert residuals[32] < residuals[16] / 4.0  # at least second order


def test_gradient_of_height_is_tangential_projection(fields):
    ff = fields("graph_S2xR_cos03", 24)
    fr = ff.frame
    grad = ff.gradient(fr.height)       # contravariant surface gradient
    # |grad h|^2 in the induced metric must equal 1 - Theta^2 here
    grad_sq = np.einsum("...i,...ij,...j->...", grad, fr.metric, grad)
    # stencil truncation at this resolution; tight orders are checked in the
    # identity suite
    assert np.max(np.abs(grad_sq - (1.0 - fr.theta ** 2))) < 5e-6


def test_covariant_hessian_is_symmetric(fields):
    ff = fields("graph_T2xR_wave04", 24)
    u = np.sin(ff.grid.nodes[..., 0]) * np.cos(ff.grid.nodes[..., 1])
    hess = ff.covariant_hessian(u)
    assert np.allclose(hess, np.swapaxes(hess, -1, -2), atol=1e-10)


def test_divergence_of_gradient_matches_laplacian(fields):
    ff = fields("slice_T2xR_t1.2", 24)
    u = np.sin(ff.grid.nodes[..., 0]) + np.cos(2.0 * ff.grid.nodes[..., 1])
    lhs = ff.divergence(ff.gradient(u))
    rhs = ff.laplacian(u)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
