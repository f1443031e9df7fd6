"""Hypersurface frames: frozen closed-form geometries and orientation."""

import math

import numpy as np
import pytest

from prodsurf import shape
from prodsurf.ambient import AxisSpec, make_ambient, round_sphere
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import DegenerateFrame, NotSpacelike
from prodsurf.shape import (ORIENTATION_POLICIES, GraphSurface, ParamSurface,
                            default_orientation, frame_at,
                            intrinsic_curvature_oracle)


def test_round_sphere_frame_frozen_values(fields):
    fr = fields("sphere_R3_homothetic", 16).frame
    # outward normal equals the position field: Theta = <N, x> = 1
    assert np.allclose(fr.theta, 1.0, atol=1e-12)
    assert np.allclose(fr.mean_curvature, -1.0, atol=1e-12)
    assert np.allclose(fr.scalar_curvature, 2.0, atol=1e-11)
    assert np.allclose(fr.principal_curvatures, -1.0, atol=1e-12)
    assert fr.normal_sign == 1


def test_hyperboloid_frame_frozen_values(fields):
    fr = fields("hyperboloid_R31_minkowski", 16).frame
    assert np.allclose(fr.theta, -1.0, atol=1e-12)
    assert np.allclose(fr.mean_curvature, 1.0, atol=1e-12)
    assert np.allclose(fr.scalar_curvature, -2.0, atol=1e-11)
    assert fr.normal_sign == -1  # timelike normal
    # induced metric is Riemannian (spacelike surface)
    assert np.all(np.linalg.eigvalsh(fr.metric) > 0.0)


def test_geodesic_sphere_principal_curvatures(zoo):
    surface, grid, _ = zoo("geodesic_sphere_S3", 16)
    fr = FrameFields(surface, grid).frame
    rho = math.pi / 4
    assert np.allclose(fr.scalar_curvature, 2.0 / math.sin(rho) ** 2,
                       atol=1e-10)
    assert np.allclose(np.abs(fr.principal_curvatures),
                       1.0 / math.tan(rho), atol=1e-10)


def test_clifford_torus_is_minimal_flat_and_orthogonal(fields):
    ff = fields("clifford_torus_S3", 24)
    fr = ff.frame
    assert np.max(np.abs(fr.theta)) < 1e-12
    assert np.max(np.abs(fr.mean_curvature)) < 1e-12
    assert np.max(np.abs(fr.scalar_curvature)) < 1e-11
    area = ff.integrate(np.ones(ff.grid.shape))
    assert area == pytest.approx(2.0 * math.pi ** 2, abs=1e-9)


def test_slice_is_totally_geodesic(fields):
    fr = fields("slice_S2xR_t0.7", 16).frame
    assert np.allclose(fr.theta, -1.0, atol=1e-14)
    assert np.max(np.abs(fr.second_form)) == 0.0
    assert np.max(np.abs(fr.shape_operator)) == 0.0
    assert np.allclose(fr.scalar_curvature, 2.0, atol=1e-11)


def test_second_form_is_symmetric_and_height_recorded(fields):
    fr = fields("graph_S2xR_cos03", 16).frame
    assert np.allclose(fr.second_form,
                       np.swapaxes(fr.second_form, -1, -2), atol=1e-13)
    assert fr.height is not None
    assert np.max(fr.height) <= 0.45


def test_default_orientation_policies():
    assert default_orientation(make_ambient("S2xR")) == "theta_nonpositive"
    assert default_orientation(make_ambient("S2xR1")) == "future"
    assert default_orientation(make_ambient("R3_homothetic")) == "adjugate"
    for policy in ("adjugate", "adjugate_neg", "future",
                   "theta_nonpositive", "theta_nonnegative"):
        assert policy in ORIENTATION_POLICIES


def test_opposite_orientation_flips_odd_quantities(zoo):
    surface, grid, _ = zoo("slice_S2xR_t0.7", 16)
    flipped = GraphSurface(name="flipped", base=surface.base,
                           epsilon=surface.epsilon, u=surface.u,
                           du=surface.du, d2u=surface.d2u,
                           orientation="theta_nonnegative")
    fr = frame_at(surface, grid.nodes)
    fr2 = frame_at(flipped, grid.nodes)
    assert np.allclose(fr2.theta, -fr.theta)
    assert np.allclose(fr2.normal, -fr.normal)
    # scalar curvature is even in the normal
    assert np.allclose(fr2.scalar_curvature, fr.scalar_curvature)


def test_degenerate_jet_is_rejected():
    ambient = make_ambient("R3_homothetic")
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))

    def jet(s):
        a = s[..., 0]
        x = np.stack([a, a, np.zeros_like(a)], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = 1.0
        dx[..., 0, 1] = 1.0   # second tangent vanishes: rank 1
        ddx = np.zeros(s.shape[:-1] + (2, 2, 3))
        return x, dx, ddx

    surface = ParamSurface(name="degenerate", ambient=ambient, axes=axes,
                           jet=jet, compact=False)
    grid = QuadratureGrid.build(axes, 12)
    with pytest.raises(DegenerateFrame):
        frame_at(surface, grid.nodes)


def test_lorentzian_graph_must_be_spacelike():
    def u(s):
        return 2.0 * np.cos(s[..., 0])

    def du(s):
        out = np.zeros(s.shape)
        out[..., 0] = -2.0 * np.sin(s[..., 0])
        return out

    def d2u(s):
        out = np.zeros(s.shape + (s.shape[-1],))
        out[..., 0, 0] = -2.0 * np.cos(s[..., 0])
        return out

    g = GraphSurface(name="steep", base=round_sphere(), epsilon=-1,
                     u=u, du=du, d2u=d2u)
    grid = QuadratureGrid.build(g.axes, 16)
    with pytest.raises(NotSpacelike):
        frame_at(g, grid.nodes)


def test_intrinsic_oracle_agrees_with_gauss_equation(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 32)
    fr = frame_at(surface, grid.nodes)
    oracle = intrinsic_curvature_oracle(surface, grid.nodes)
    gauss = 0.5 * fr.scalar_curvature
    assert np.max(np.abs(oracle - gauss)) < 5e-4


@pytest.mark.parametrize("name,samples", [("graph_S2xR_cos03", 25),
                                          ("graph_S3xR_coschi02", 73)])
def test_oracle_samples_each_lattice_point_once(zoo, monkeypatch, name, samples):
    surface, grid, _ = zoo(name, 16)
    calls = []
    make_sampler = shape.induced_metric_sampler

    def counting_sampler(surf):
        sample = make_sampler(surf)

        def counted(s):
            calls.append(s.shape)
            return sample(s)
        return counted

    monkeypatch.setattr(shape, "induced_metric_sampler", counting_sampler)
    points = grid.nodes.reshape(-1, surface.dimension)[:4]
    intrinsic_curvature_oracle(surface, points)
    assert len(calls) == samples


@pytest.mark.parametrize("name", ["graph_S3xR_coschi02", "graph_S3xR1_coschi02"])
def test_intrinsic_oracle_agrees_with_gauss_equation_n3(zoo, name):
    surface, grid, _ = zoo(name, 16)
    fr = frame_at(surface, grid.nodes)
    oracle = intrinsic_curvature_oracle(surface, grid.nodes)
    assert np.max(np.abs(oracle - fr.scalar_curvature)) < 1e-4


@pytest.mark.parametrize("name,order", [("graph_S2xR_cos03", 4),
                                        ("graph_S3xR_coschi02", 8)])
def test_metric_jet_equals_per_derivative_stencils(zoo, name, order):
    # reference: every derivative summed from its own stencil table
    surface, grid, _ = zoo(name, 16)
    s = grid.nodes.reshape(-1, surface.dimension)[::7]
    n = surface.dimension
    h = np.array([1e-2, 2e-2, 3e-2][:n])
    g_at = shape.induced_metric_sampler(surface)

    def g(*offsets):
        off = np.zeros(n)
        for axis, mult in offsets:
            off[axis] += mult * h[axis]
        return g_at(s + off)

    g0, dg, ddg = shape._metric_jet(g_at, s, h, order)
    d1, d2, mixed = (shape._D1_TABLES[order], shape._D2_TABLES[order],
                     shape._D1_TABLES[4])
    assert np.array_equal(g0, g())
    for a in range(n):
        assert np.array_equal(
            dg[..., a, :, :], sum(w * g((a, m)) for m, w in zip(*d1)) / h[a])
        assert np.array_equal(
            ddg[..., a, a, :, :],
            sum(w * g((a, m)) for m, w in zip(*d2)) / h[a] ** 2)
        for b in range(a + 1, n):
            cross = sum(wa * wb * g((a, ma), (b, mb))
                        for ma, wa in zip(*mixed)
                        for mb, wb in zip(*mixed)) / (h[a] * h[b])
            assert np.array_equal(ddg[..., a, b, :, :], cross)
            assert np.array_equal(ddg[..., b, a, :, :], cross)
