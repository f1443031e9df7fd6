"""Hypersurface frames: frozen closed-form geometries and orientation."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
import pytest
from reference_routes import (cartesian_height, fold_params, full_chart,
                              graph_jet, graph_second_form, graph_theta,
                              oracle_at, padded_frame, padded_twin)

from prodsurf import _smallmat, shape
from prodsurf.ambient import AxisSpec, make_ambient, make_product, round_sphere
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import DegenerateFrame, NotSpacelike, WrongAmbient
from prodsurf.graphs import graph_curvature
from prodsurf.integral import BALANCE_FIELDS
from prodsurf.shape import (GraphSurface, ParamSurface, frame_at,
                            intrinsic_curvature_oracle)
from prodsurf.zoo import (_ellipsoid_jet, instantiate, list_scenarios,
                          scenario_names)


def test_round_sphere_frame_frozen_values(fields):
    fr = fields("sphere_R3_homothetic", 16).frame
    # outward normal equals the position field: Theta = <N, x> = 1
    assert np.allclose(fr.theta, 1.0, atol=1e-12)
    assert np.allclose(fr.mean_curvature, -1.0, atol=1e-12)
    assert np.allclose(fr.scalar_curvature, 2.0, atol=1e-11)
    assert np.allclose(fr.shape_operator, -np.eye(2), atol=1e-12)


def test_hyperboloid_frame_frozen_values(fields):
    ff = fields("hyperboloid_R31_minkowski", 16)
    fr = ff.frame
    assert np.allclose(fr.theta, -1.0, atol=1e-12)
    assert np.allclose(fr.mean_curvature, 1.0, atol=1e-12)
    assert np.allclose(fr.scalar_curvature, -2.0, atol=1e-11)
    G = ff.surface.ambient.metric_at(fr.point)
    assert np.allclose(np.einsum("...a,...ab,...b->...", fr.normal, G, fr.normal),
                       -1.0, atol=1e-12)  # timelike normal
    # induced metric is Riemannian (spacelike surface)
    assert np.all(np.linalg.eigvalsh(fr.metric) > 0.0)


def test_geodesic_sphere_principal_curvatures(zoo):
    surface, grid, _ = zoo("geodesic_sphere_S3", 16)
    fr = FrameFields(surface, grid).frame
    rho = math.pi / 4
    assert np.allclose(fr.scalar_curvature, 2.0 / math.sin(rho) ** 2,
                       atol=1e-10)
    # umbilic: A = +-cot(rho) I
    assert np.allclose(np.abs(fr.shape_operator),
                       np.eye(2) / math.tan(rho), atol=1e-10)


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
    assert np.max(fr.point[..., -1]) <= 0.45


@pytest.mark.parametrize("scenario, sign", [
    ("graph_S2xR_cos03", -1.0),         # Riemannian product: <N, T> <= 0
    ("graph_S2xR1_cos02", -1.0),        # Lorentzian: future, <N, T> < 0
    ("sphere_R3_homothetic", 1.0),      # space form: the adjugate normal
])
def test_frames_take_the_orientation_of_their_ambient(fields, scenario, sign):
    # a graph is nowhere vertical, so <N, T> never vanishes on it; the round
    # sphere's adjugate normal is the outward one, <N, T> = <N, x> = 1
    theta = fields(scenario, 16).frame.theta
    assert np.all(np.sign(theta) == sign)


def _reversed_longitude(surface: ParamSurface) -> ParamSurface:
    """The same surface in the chart ``(theta, phi) -> (theta, -phi)``."""
    flip = np.array([1.0, -1.0])

    def jet(s):
        x, dx, ddx = surface.jet(s * flip)
        return x, dx * flip[:, None], ddx * np.outer(flip, flip)[..., None]

    return dataclasses.replace(surface, name="reversed", jet=jet)


def test_opposite_orientation_flips_odd_quantities(zoo):
    # the space form keeps the adjugate normal, which the reversed chart
    # turns around: the sphere's Theta = +1 becomes -1 at the same points
    surface, grid, _ = zoo("sphere_R3_homothetic", 16)
    flipped = _reversed_longitude(surface)
    fr = frame_at(surface, grid.nodes)
    fr2 = frame_at(flipped, grid.nodes * np.array([1.0, -1.0]))
    assert np.array_equal(fr2.point, fr.point)
    assert np.allclose(fr.theta, 1.0) and np.allclose(fr2.theta, -1.0)
    assert np.allclose(fr2.theta, -fr.theta)
    assert np.allclose(fr2.normal, -fr.normal)
    # scalar curvature is even in the normal
    assert np.allclose(fr2.scalar_curvature, fr.scalar_curvature)


def test_graph_needs_a_product_ambient(zoo):
    surface, _, _ = zoo("slice_S2xR_t0.7", 16)
    with pytest.raises(WrongAmbient, match="product"):
        GraphSurface(name="over_R3", ambient=make_ambient("R3_homothetic"),
                     u=surface.u, du=surface.du, d2u=surface.d2u)


def _rank_one_jet(scale: float):
    def jet(s):
        a = s[..., 0]
        x = scale * np.stack([a, a, np.zeros_like(a)], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = scale
        dx[..., 0, 1] = scale   # second tangent vanishes: rank 1
        ddx = np.zeros(s.shape[:-1] + (2, 2, 3))
        return x, dx, ddx
    return jet


def test_degenerate_jet_is_rejected():
    # at unit size and at the size of the tiny sphere below
    ambient = make_ambient("R3_homothetic")
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))

    grid = QuadratureGrid.build(axes, 12)
    for scale in (1.0, 1e-6):
        surface = ParamSurface(name="degenerate", ambient=ambient, axes=axes,
                               jet=_rank_one_jet(scale))
        with pytest.raises(DegenerateFrame):
            frame_at(surface, grid.nodes)


def _steep_lorentzian_graph() -> GraphSurface:
    """u = 2 cos(theta) over S^2 in the Lorentzian S^2 x R: |Du|^2 reaches 4."""
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

    return GraphSurface(name="steep", ambient=make_product(round_sphere(2), -1),
                        u=u, du=du, d2u=d2u)


def test_lorentzian_graph_must_be_spacelike():
    g = _steep_lorentzian_graph()
    grid = QuadratureGrid.build(g.axes, 16)
    with pytest.raises(NotSpacelike):
        frame_at(g, grid.nodes)
    # the closed-form routes share one spacelike gate
    for route in (graph_theta, graph_second_form, graph_curvature):
        with pytest.raises(NotSpacelike, match="reaches"):
            route(g, grid.nodes)


def test_intrinsic_oracle_agrees_with_gauss_equation(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 32)
    fr = frame_at(surface, grid.nodes)
    oracle = oracle_at(surface, grid.nodes)
    assert np.max(np.abs(oracle - fr.scalar_curvature)) < 1e-3


def _grid_step(grid) -> np.ndarray:
    """The oracle's step on a grid: half the closest node spacing."""
    return np.array([0.5 * np.min(np.diff(z)) for z in grid.nodes_1d])


@pytest.mark.parametrize("name,samples", [("graph_S2xR_cos03", 17),
                                          ("graph_S3xR_coschi02", 49),
                                          ("sphere_R3_homothetic", 17),
                                          ("cylinder_S2xR", 17)])
def test_oracle_samples_each_lattice_point_once(zoo, monkeypatch, name, samples):
    surface, grid, _ = zoo(name, 16)
    points = []
    make_sampler = shape.induced_metric_sampler

    def counting_sampler(surf):
        sample = make_sampler(surf)

        def counted(s):
            points.append(s[..., 0].size)
            return sample(s)
        return counted

    monkeypatch.setattr(shape, "induced_metric_sampler", counting_sampler)
    # per point, every stencil offset is a sample of its own
    oracle_at(surface, grid.nodes.reshape(-1, len(surface.axes))[:4])
    assert points == [4] * samples
    # on a periodic last axis each block samples the doubled lattice of its
    # rings once per leading offset and parity; an open one samples per node
    points.clear()
    intrinsic_curvature_oracle(surface, grid)
    nodes, ring = math.prod(grid.shape), grid.shape[-1]
    per_node, size = samples, shape._BLOCK
    if grid.axes[-1].kind == "periodic":
        per_node = {2: 8, 3: 30}[len(surface.axes)]
        size = ring * (shape._BLOCK // ring)
    assert (name == "cylinder_S2xR") == (per_node == samples)
    assert sum(points) == per_node * nodes
    assert len(points) == math.ceil(nodes / size) * per_node


def test_oracle_on_an_open_last_axis_samples_per_point(zoo, monkeypatch):
    # blocks of 100 points split the 32 x 16 cylinder grid mid-row
    surface, grid, _ = zoo("cylinder_S2xR", 16)
    assert grid.axes[-1].kind == "open"
    flat = grid.nodes.reshape(-1, len(surface.axes))
    expected = shape._fd_scalar_curvature(shape.induced_metric_sampler(surface),
                                          flat, _grid_step(grid), ring=None)
    monkeypatch.setattr(shape, "_BLOCK", 100)
    got = intrinsic_curvature_oracle(surface, grid)
    assert got.shape == grid.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("resolution", [16, 32])
@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "torus_R3_homothetic",
                                  "graph_S3xR_coschi02", "graph_T2xR_wave04"])
def test_shared_ring_samples_equal_per_point_samples(zoo, name, resolution):
    # the shared samples sit where the per-point ones do, up to the rounding
    # of the sample coordinates: measured 0, 1.2e-13, 0 and 1.9e-13 at 32
    # (the metrics of the first three do not depend on the ring coordinate);
    # reading the ring one node off moves graph_T2xR_wave04 by 0.03 - 0.06
    surface, grid, _ = zoo(name, resolution)
    shared = intrinsic_curvature_oracle(surface, grid)
    per_point = oracle_at(surface, grid.nodes, step=_grid_step(grid))
    assert np.max(np.abs(shared - per_point)) <= 5e-13


@pytest.mark.parametrize("name", ["graph_T2xR_wave04", "graph_S3xR_coschi02"])
def test_oracle_blocks_whole_rings(zoo, monkeypatch, name):
    # 50-point blocks hold one 32-node ring each, so no block may split one
    surface, grid, _ = zoo(name, 16)
    ring = grid.shape[-1]
    monkeypatch.setattr(shape, "_BLOCK", math.prod(grid.shape))
    one_block = intrinsic_curvature_oracle(surface, grid)
    monkeypatch.setattr(shape, "_BLOCK", 50)
    assert 50 % ring
    g_at = shape.induced_metric_sampler(surface)
    rings = [shape._fd_scalar_curvature(g_at, nodes, _grid_step(grid), ring)
             for nodes in grid.nodes.reshape(-1, ring, len(surface.axes))]
    assert np.concatenate(rings).tobytes() == one_block.tobytes()
    for workers in (1, 2, 3):
        monkeypatch.setattr(shape, "_WORKERS", workers)
        got = intrinsic_curvature_oracle(surface, grid)
        assert got.tobytes() == one_block.tobytes()


def test_oracle_drops_each_ring_sample_after_its_last_reader(zoo, monkeypatch):
    # One call on graph_S3xR_coschi02 at 32, one block at a time, peaks at
    # 9.9x the bytes of one block's dg; keeping all 30 sample batches of a
    # block alive until its jet returns peaks at 15.8x.
    surface, _, _ = zoo("graph_S3xR_coschi02")
    grid = QuadratureGrid.build(surface.axes, 32)
    grid.nodes                          # built before the trace starts
    monkeypatch.setattr(shape, "_WORKERS", 1)
    intrinsic_curvature_oracle(surface, QuadratureGrid.build(surface.axes, 10))
    tracemalloc.start()
    try:
        intrinsic_curvature_oracle(surface, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * shape._BLOCK * 3 ** 3 * 8


def _past_the_edges(surface, grid) -> np.ndarray:
    """Grid nodes, and the nodes moved 1 .. reach oracle steps past each
    polar edge and periodic seam, one axis at a time (reach: the pure-axis
    stencil's, 2 steps for n = 2 and 4 for n = 3)."""
    n = len(surface.axes)
    nodes = grid.nodes.reshape(-1, n)
    steps = [0.5 * np.min(np.diff(z)) for z in grid.nodes_1d]
    reach = 2 if n == 2 else 4
    points = [nodes]
    for a, ax in enumerate(surface.axes):
        if ax.kind == "open":
            continue
        for edge, out in ((ax.lo, -1.0), (ax.hi, 1.0)):
            for k in range(1, reach + 1):
                moved = nodes.copy()
                moved[:, a] = edge + out * k * steps[a]
                points.append(moved)
    return np.concatenate(points)


@pytest.mark.parametrize("name", [n for n in scenario_names()
                                  if n.startswith(("graph_", "slice_"))])
def test_graph_metric_equals_the_jet_contraction(zoo, name):
    # g_M + eps du du against t G t^T of the jet, at the nodes and at the
    # oracle's samples past every edge and seam, where both continue the
    # chart formulas; measured at most 0.92 ulps of max|g|
    # (graph_S2xR_cos03), 0 on every slice
    surface, grid, _ = zoo(name, 16)
    s = _past_the_edges(surface, grid)
    x, tx, _ = graph_jet(surface)(s)
    # two operands at a time, without einsum's path search
    contracted = np.einsum("...ia,...ab,...jb->...ij", tx,
                           full_chart(surface.ambient).metric_at(x), tx,
                           optimize=["einsum_path", (0, 1), (0, 1)])
    g = surface.induced_metric(s)
    ulp = np.finfo(float).eps * np.max(np.abs(contracted))
    assert np.max(np.abs(g - contracted)) <= 2.0 * ulp
    if name.startswith("slice_"):
        assert np.array_equal(g, contracted)


# every catalog scenario with a polar or periodic axis
_WITH_EDGES = [name for name in scenario_names()
               if any(ax.kind != "open" for ax in instantiate(name)[0].axes)]


@pytest.mark.parametrize("make", [
    *[lambda zoo, name=name: zoo(name, 16)[0] for name in _WITH_EDGES],
    lambda zoo: cartesian_height(round_sphere(2), +1),
    lambda zoo: cartesian_height(round_sphere(3), -1)],
    ids=[*_WITH_EDGES, "x1_over_S2xR", "x1_over_S3xR1"])
def test_sampler_past_the_edges_equals_the_unfolded_metric(zoo, make):
    # the oracle samples each surface where its stencils land: past a pole
    # or seam, the continued chart formulas must give the metric the deck
    # maps prescribe, i.e. the folded, sign-conjugated metric (measured
    # within 1.8e-15, on torus_R3_homothetic); the off-diagonal g_ij of the
    # Cartesian heights make the signs matter
    surface = make(zoo)
    grid = QuadratureGrid.build(surface.axes, 16)
    s = _past_the_edges(surface, grid)
    sampled = shape.induced_metric_sampler(surface)(s)
    folded, signs = fold_params(surface.axes, s)
    deck = surface.induced_metric(folded) * signs[:, :, None] * signs[:, None, :]
    if surface.name.startswith("x1_over_"):
        assert np.max(np.abs(sampled[..., 0, -1])) > 0.01
    assert np.allclose(sampled, deck, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "graph_S3xR_coschi02"])
def test_graph_sampler_reads_only_the_first_jet(monkeypatch, name):
    surface, grid, _ = instantiate(name, {"resolution": 16})
    expected = intrinsic_curvature_oracle(surface, grid)

    def forbidden(s):
        raise AssertionError("the metric sampler read more than du")

    for attr in ("u", "d2u", "_frame_jet"):
        monkeypatch.setattr(surface, attr, forbidden)
    assert np.array_equal(intrinsic_curvature_oracle(surface, grid), expected)


@pytest.mark.parametrize("name", ["graph_S3xR_coschi02", "graph_S3xR1_coschi02"])
def test_intrinsic_oracle_agrees_with_gauss_equation_n3(zoo, name):
    surface, grid, _ = zoo(name, 16)
    fr = frame_at(surface, grid.nodes)
    oracle = oracle_at(surface, grid.nodes)
    assert np.max(np.abs(oracle - fr.scalar_curvature)) < 1e-4


@pytest.mark.parametrize("name,order", [("graph_S2xR_cos03", 4),
                                        ("graph_S3xR_coschi02", 8),
                                        ("graph_RP2xR_even025", 4),
                                        ("torus_R3_homothetic", 4)])
def test_metric_jet_equals_per_derivative_stencils(zoo, name, order):
    # reference: every derivative summed from its own stencil table, at grid
    # nodes and at points one step inside each polar edge and periodic seam,
    # whose stencils cross it
    surface, grid, _ = zoo(name, 16)
    n = len(surface.axes)
    h = np.array([1e-2, 2e-2, 3e-2][:n])
    nodes = grid.nodes.reshape(-1, n)
    edges = []
    for a, ax in enumerate(surface.axes):
        for edge in (ax.lo + h[a], ax.hi - h[a]):
            near = nodes[::29].copy()
            near[:, a] = edge
            edges.append(near)
    s = np.concatenate([nodes[::7]] + edges)
    g_at = shape.induced_metric_sampler(surface)
    polar = [a for a, ax in enumerate(surface.axes) if ax.kind == "polar_cos"]
    beyond = s.copy()                   # the farthest stencil offset
    beyond[:, polar] -= 2.0 * h[polar]
    assert not polar or any(np.any(beyond[:, a] < surface.axes[a].lo)
                            for a in polar)

    def g(*offsets):
        off = np.zeros(n)
        for axis, mult in offsets:
            off[axis] += mult * h[axis]
        return g_at(s + off)

    g0, dg, ddg = shape._metric_jet(g_at, s, h, order)
    d1, d2 = shape._D1_TABLES[order], shape._D2_TABLES[order]
    assert np.array_equal(g0, g())
    for a in range(n):
        assert np.array_equal(
            dg[..., a, :, :], sum(w * g((a, m)) for m, w in zip(*d1)) / h[a])
        assert np.array_equal(
            ddg[..., a, a, :, :],
            sum(w * g((a, m)) for m, w in zip(*d2)) / h[a] ** 2)
        for b in range(a + 1, n):
            cross = sum(w * g((a, ma), (b, mb))
                        for (ma, mb), w in zip(*shape._MIXED_TABLE)) / (h[a] * h[b])
            assert np.array_equal(ddg[..., a, b, :, :], cross)
            assert np.array_equal(ddg[..., b, a, :, :], cross)


def _exponents(n: int, degree: int) -> np.ndarray:
    """Exponent vectors of every monomial in n variables of degree <= degree."""
    grid = np.stack(np.meshgrid(*[np.arange(degree + 1)] * n, indexing="ij"),
                    axis=-1).reshape(-1, n)
    return grid[grid.sum(axis=1) <= degree]


@pytest.mark.parametrize("n,order", [(2, 4), (3, 8)])
def test_mixed_stencil_is_exact_on_quintics(n, order):
    # g_ij are random polynomials of total degree 5; d_a d_b of each monomial
    # s^e is e_a e_b s^(e - 1_a - 1_b)
    rng = np.random.default_rng(17)
    E = _exponents(n, 5)
    C = rng.uniform(-1.0, 1.0, size=(n, n, len(E)))

    def poly(s, expo, coef):
        return np.einsum("ijk,...k->...ij", coef,
                         np.prod(s[..., None, :] ** expo, axis=-1))

    s = rng.uniform(-0.8, 0.8, size=(20, n))
    h = np.array([0.1, 0.13, 0.07][:n])
    g0, _, ddg = shape._metric_jet(lambda p: poly(p, E, C), s, h, order)
    for a in range(n):
        for b in range(a + 1, n):
            lower = np.zeros(n, dtype=int)
            lower[[a, b]] = 1
            exact = poly(s, np.maximum(E - lower, 0), C * E[:, a] * E[:, b])
            rounding = 64 * np.finfo(float).eps * np.max(np.abs(g0)) / (h[a] * h[b])
            assert np.max(np.abs(ddg[..., a, b, :, :] - exact)) < rounding


@pytest.mark.parametrize("n,order", [(2, 4), (3, 8)])
def test_mixed_stencil_converges_at_fourth_order(n, order):
    # g_ij = cos(k_ij . s + c_ij), so d_a d_b g_ij = -k_a k_b cos(k_ij . s + c_ij)
    rng = np.random.default_rng(19)
    K = rng.uniform(-2.0, 2.0, size=(n, n, n))
    c = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))

    def g_at(p):
        return np.cos(np.einsum("ija,...a->...ij", K, p) + c)

    s = rng.uniform(-1.0, 1.0, size=(20, n))
    phase = np.einsum("ija,...a->...ij", K, s) + c
    errors = []
    for scale in (0.04, 0.02):
        h = scale * np.array([1.0, 1.3, 0.8][:n])
        _, _, ddg = shape._metric_jet(g_at, s, h, order)
        errors.append(max(
            np.max(np.abs(ddg[..., a, b, :, :]
                          + K[..., a] * K[..., b] * np.cos(phase)))
            for a in range(n) for b in range(a + 1, n)))
    assert math.log2(errors[0] / errors[1]) == pytest.approx(4.0, abs=0.2)


def test_oracle_on_blocks_equals_oracle_on_row_slices(zoo):
    surface, grid, _ = zoo("graph_S3xR_coschi02", 32)
    nodes = grid.nodes
    assert nodes[0].size // 3 < shape._BLOCK < nodes.size // 3 // 4
    whole = intrinsic_curvature_oracle(surface, grid)
    g_at = shape.induced_metric_sampler(surface)
    rows = [shape._fd_scalar_curvature(g_at, row.reshape(-1, 3), _grid_step(grid),
                                       grid.shape[-1]).reshape(row.shape[:-1])
            for row in nodes]
    assert whole.shape == grid.shape
    assert np.array_equal(whole, np.stack(rows))


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "graph_S3xR_coschi02"])
def test_oracle_does_not_depend_on_the_block_size(zoo, monkeypatch, name):
    surface, grid, _ = zoo(name, 16)
    nodes = grid.nodes
    monkeypatch.setattr(shape, "_BLOCK", nodes.size)
    one_block = intrinsic_curvature_oracle(surface, grid)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    assert np.array_equal(intrinsic_curvature_oracle(surface, grid), one_block)


def _full_riemann_scalar(g0, dg, ddg):
    """Reference assembly in any dimension: every d_a Gamma^k_ij, then
    R^d_abc, then S."""
    n = g0.shape[-1]
    ginv = _smallmat.inv(g0)
    Gam = np.zeros_like(dg)
    dginv = -np.einsum("...km,...amn,...nl->...akl", ginv, dg, ginv)
    dGam = np.zeros(g0.shape[:-2] + (n, n, n, n))  # dGam[..., a, k, i, j]
    for i in range(n):
        for j in range(n):
            brk = 0.5 * (dg[..., i, :, j] + dg[..., j, :, i] - dg[..., :, i, j])
            Gam[..., :, i, j] = np.einsum("...kl,...l->...k", ginv, brk)
            dbrk = 0.5 * (ddg[..., :, i, :, j] + ddg[..., :, j, :, i]
                          - ddg[..., :, :, i, j])
            dGam[..., :, :, i, j] = (np.einsum("...akl,...l->...ak", dginv, brk)
                                     + np.einsum("...kl,...al->...ak", ginv, dbrk))
    # R^d_abc = d_b Gam^d_ac - d_a Gam^d_bc + Gam^e_ac Gam^d_be - Gam^e_bc Gam^d_ae
    riem = (np.einsum("...bdac->...dabc", dGam)
            - np.einsum("...adbc->...dabc", dGam)
            + np.einsum("...eac,...dbe->...dabc", Gam, Gam)
            - np.einsum("...ebc,...dae->...dabc", Gam, Gam))
    return np.einsum("...ac,...babc->...", ginv, riem)


_ASSEMBLY_CASES = [("graph_S3xR_coschi02", 8), ("graph_S3xR1_coschi02", 8),
                   ("graph_S2xR_cos03", 4), ("graph_RP2xR_even025", 4),
                   ("torus_R3_homothetic", 4)]


@pytest.mark.parametrize("name,order", _ASSEMBLY_CASES,
                         ids=[name for name, _ in _ASSEMBLY_CASES])
def test_scalar_curvature_assembly_equals_full_riemann_reference(zoo, name, order):
    # the trace assembly reorders the rounding only; measured 1.4e-13,
    # 2.8e-13, 1.2e-14, 3.2e-14 and 5e-16 (relative, in table order)
    surface, grid, _ = zoo(name, 16)
    s = grid.nodes.reshape(-1, len(surface.axes))
    h = _grid_step(grid)
    g_at = shape.induced_metric_sampler(surface)
    reference = _full_riemann_scalar(*shape._metric_jet(g_at, s, h, order))
    assembled = shape._fd_scalar_curvature(g_at, s, h)
    assert np.max(np.abs(assembled - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "graph_S3xR_coschi02"])
def test_blocks_do_not_depend_on_the_worker_count(zoo, monkeypatch, name):
    # 64-point blocks: 9 and 145 blocks, more than the workers and a
    # partial last one; a short switch interval interleaves the threads more
    # often
    surface, grid, _ = zoo(name, 16)
    nodes = grid.nodes
    monkeypatch.setattr(shape, "_BLOCK", 64)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(shape, "_WORKERS", workers)
            runs.append((frame_at(surface, nodes),
                         intrinsic_curvature_oracle(surface, grid)))
    finally:
        sys.setswitchinterval(interval)
    (frame, oracle), rest = runs[0], runs[1:]
    for other_frame, other_oracle in rest:
        assert np.array_equal(other_oracle, oracle)
        for key, value in vars(frame).items():
            other = vars(other_frame)[key]
            if isinstance(value, np.ndarray):
                assert np.array_equal(other, value), key
            else:
                assert other == value, key


def test_one_block_batch_never_starts_the_pool(zoo, monkeypatch):
    surface, grid, _ = zoo("graph_S2xR_cos03", 16)
    nodes = grid.nodes
    monkeypatch.setattr(shape, "_WORKERS", 2)
    monkeypatch.setattr(shape, "_pools", {})
    frame_at(surface, nodes)
    intrinsic_curvature_oracle(surface, grid)
    assert nodes[..., 0].size <= shape._BLOCK and shape._pools == {}
    monkeypatch.setattr(shape, "_BLOCK", 64)
    frame_at(surface, nodes)
    assert list(shape._pools) == [1]


def test_tiny_round_sphere_has_a_frame():
    # the rank tests are relative to the tangent lengths, so a sphere of
    # radius 1e-6 is as regular as the unit sphere
    r = 1e-6
    surface = ParamSurface(name="tiny_sphere", ambient=make_ambient("R3_homothetic"),
                           axes=round_sphere(2).axes, jet=_ellipsoid_jet(r, r, r))
    fr = frame_at(surface, QuadratureGrid.build(surface.axes, 16).nodes)
    assert np.allclose(fr.shape_operator, -np.eye(2) / r, rtol=1e-7, atol=1e-7 / r)
    assert np.allclose(fr.scalar_curvature, 2.0 / r ** 2, rtol=1e-10)
    assert np.allclose(fr.theta, r, rtol=1e-12)


def _bent_product_surface() -> ParamSurface:
    """{theta = pi/2 + 0.2 t^2} in S^2 x R; its <N, T> changes sign at t = 0."""
    axes = (AxisSpec("phi", 0.0, 2.0 * math.pi, "periodic"),
            AxisSpec("t", -1.0, 1.0, "open"))

    def jet(s):
        ph, t = s[..., 0], s[..., 1]
        x = np.stack([0.5 * math.pi + 0.2 * t ** 2, ph, t], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 1] = 1.0
        dx[..., 1, 0] = 0.4 * t
        dx[..., 1, 2] = 1.0
        ddx = np.zeros(s.shape[:-1] + (2, 2, 3))
        ddx[..., 1, 1, 0] = 0.4
        return x, dx, ddx

    return ParamSurface(name="bent_cylinder", ambient=make_ambient("S2xR"),
                        axes=axes, jet=jet)


def test_theta_policy_rejects_a_sign_change_of_theta():
    surface = _bent_product_surface()
    nodes = QuadratureGrid.build(surface.axes, 16).nodes
    with pytest.raises(DegenerateFrame,
                       match="bent_cylinder.*changes sign across the batch"):
        frame_at(surface, nodes)


def test_theta_policy_rejects_a_sign_change_across_blocks(monkeypatch):
    # one sign of <N, T> per block, both signs in the batch, the first
    # disagreeing block being the fifth
    monkeypatch.setattr(shape, "_BLOCK", 64)
    surface = _bent_product_surface()
    s = QuadratureGrid.build(surface.axes, 16).nodes
    for workers in (1, 2, 3):
        monkeypatch.setattr(shape, "_WORKERS", workers)
        with pytest.raises(DegenerateFrame,
                           match="changes sign across the batch"):
            frame_at(surface, np.moveaxis(s, 1, 0))


def test_frame_on_blocks_equals_frame_on_row_slices(zoo):
    surface, grid, _ = zoo("graph_S3xR_coschi02", 32)
    nodes = grid.nodes
    assert nodes[0].size // 3 < shape._BLOCK < nodes.size // 3 // 4
    whole = frame_at(surface, nodes)
    rows = [frame_at(surface, nodes[i:i + 1]) for i in range(len(nodes))]
    for key, value in vars(whole).items():
        if isinstance(value, np.ndarray):
            joined = np.concatenate([vars(r)[key] for r in rows])
            assert np.array_equal(value, joined), key
        else:
            assert all(vars(r)[key] == value for r in rows), key


def test_theta_flip_fixed_by_a_late_block_reaches_earlier_blocks(monkeypatch):
    # theta = pi/2 + p(a) b with p = 0 for a <= 1, parametrized as (b, a):
    # with a slowest in the batch, <N, T> vanishes exactly on the first
    # blocks and the adjugate normal has it positive afterwards, so the
    # product's <N, T> <= 0 must flip the normal of every block, also those
    # evaluated before
    axes = (AxisSpec("b", -0.5, 0.5, "open"), AxisSpec("a", 0.0, 2.0, "open"))

    def jet(s):
        b, a = s[..., 0], s[..., 1]
        q = np.maximum(a - 1.0, 0.0)
        x = np.stack([0.5 * math.pi + q ** 3 * b, a, b], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = q ** 3
        dx[..., 0, 2] = 1.0
        dx[..., 1, 0] = 3.0 * q ** 2 * b
        dx[..., 1, 1] = 1.0
        ddx = np.zeros(s.shape[:-1] + (2, 2, 3))
        ddx[..., 1, 1, 0] = 6.0 * q * b
        ddx[..., 0, 1, 0] = ddx[..., 1, 0, 0] = 3.0 * q ** 2
        return x, dx, ddx

    surface = ParamSurface(name="half_vertical", ambient=make_ambient("S2xR"),
                           axes=axes, jet=jet)
    nodes = np.swapaxes(QuadratureGrid.build(axes, 16).nodes, 0, 1)
    one_block = frame_at(surface, nodes)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    blocked = frame_at(surface, nodes)
    assert np.all(one_block.theta <= 0.0) and np.any(one_block.theta < 0.0)
    assert np.all(one_block.theta[: len(nodes) // 2] == 0.0)
    for key, value in vars(one_block).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, vars(blocked)[key]), key


def _pinched_plane() -> tuple[ParamSurface, np.ndarray]:
    """A plane whose second tangent vanishes at the node (90, 150) of a
    100 x 200 batch, flat index 18150, in the third block."""
    ambient = make_ambient("R3_homothetic")
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))
    s = np.stack(np.meshgrid(np.arange(100.0), np.arange(200.0), indexing="ij"),
                 axis=-1)
    bad = (90, 150)

    def jet(s):
        x = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = 1.0
        dx[..., 1, 1] = np.where((s[..., 0] == bad[0]) & (s[..., 1] == bad[1]),
                                 0.0, 1.0)
        return x, dx, np.zeros(s.shape[:-1] + (2, 2, 3))

    return ParamSurface(name="pinched_plane", ambient=ambient, axes=axes,
                        jet=jet), s


def test_degenerate_point_is_named_by_its_index_in_the_batch():
    surface, s = _pinched_plane()
    assert 2 * shape._BLOCK <= 90 * 200 + 150 < 3 * shape._BLOCK
    with pytest.raises(DegenerateFrame, match=r"pinched_plane.*index \(90, 150\)"):
        frame_at(surface, s)


def _meridian_strip() -> tuple[ParamSurface, np.ndarray]:
    """The strip x = (theta, 0.3, t) of S^2 x R, and three of its points,
    the second on the chart pole theta = 0."""
    axes = (AxisSpec("theta", 0.0, math.pi, "open"),
            AxisSpec("t", -1.0, 1.0, "open"))

    def jet(s):
        x = np.stack([s[..., 0], np.full(s.shape[:-1], 0.3), s[..., 1]], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = 1.0
        dx[..., 1, 2] = 1.0
        return x, dx, np.zeros(s.shape[:-1] + (2, 2, 3))

    return (ParamSurface(name="meridian_strip", ambient=make_ambient("S2xR"),
                         axes=axes, jet=jet),
            np.array([[0.5, 0.1], [0.0, 0.1], [1.0, 0.1]]))


def test_tangent_plane_through_a_chart_pole_is_degenerate():
    # the strip passes the pole theta = 0 of the chart, where G^{-1} is
    # infinite: the normal there is not finite, and the frame must name
    # the point instead of returning NaN
    surface, s = _meridian_strip()
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DegenerateFrame, match=r"meridian_strip.*index \(1,\)"):
            frame_at(surface, s)


def _twice_pinched() -> tuple[ParamSurface, np.ndarray]:
    """A plane with degenerate points at the nodes (1, 30) and (4, 10) of a
    10 x 50 batch, flat indices 80 and 210."""
    ambient = make_ambient("R3_homothetic")
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))
    s = np.stack(np.meshgrid(np.arange(10.0), np.arange(50.0), indexing="ij"),
                 axis=-1)
    bad = {(1, 30), (4, 10)}

    def jet(s):
        x = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = 1.0
        dx[..., 1, 1] = 1.0
        for i, j in bad:
            dx[(s[..., 0] == i) & (s[..., 1] == j), 1, 1] = 0.0
        return x, dx, np.zeros(s.shape[:-1] + (2, 2, 3))

    return ParamSurface(name="twice_pinched", ambient=ambient, axes=axes,
                        jet=jet), s


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_first_failing_block_names_the_degenerate_point(monkeypatch, workers):
    # degenerate points in the second and fourth 64-point blocks; with four
    # workers both blocks can be in flight at once
    surface, s = _twice_pinched()
    monkeypatch.setattr(shape, "_BLOCK", 64)
    monkeypatch.setattr(shape, "_WORKERS", workers)
    with pytest.raises(DegenerateFrame, match=r"index \(1, 30\)"):
        frame_at(surface, s)


@pytest.mark.parametrize("workers, failing, entered", [
    (1, {0, 3}, {0}),
    (2, {3, 4}, {0, 1, 2, 3, 4}),
    (3, {3, 4}, {0, 1, 2, 3, 4, 5, 8, 11}),
])
def test_a_stride_stops_at_its_first_failing_item(monkeypatch, workers,
                                                  failing, entered):
    # item 3 fails slowly off the caller's thread, so with two workers the
    # caller's later failure at item 4 is recorded first; item 3 is raised
    ran, lock = set(), threading.Lock()

    def fn(item):
        with lock:
            ran.add(item)
        if item in failing:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            raise RuntimeError(f"item {item} fails")
        return item

    monkeypatch.setattr(shape, "_WORKERS", workers)
    with pytest.raises(RuntimeError, match=f"^item {min(failing)} fails$"):
        shape._block_map(fn, range(12))
    assert ran == entered


def test_block_map_lets_its_function_go(monkeypatch):
    # a pool work item outlives its task for a moment, and holds the
    # stride it ran; what the mapped function holds must not live on in it
    class Held:
        pass

    def holding(held):
        return lambda item: (held, item)[1]

    class RecordingPool:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            submitted.append(fn)
            return self.pool.submit(fn, *args)

    held, submitted = Held(), []
    alive = weakref.ref(held)
    fn = holding(held)
    del held
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(shape, "_WORKERS", 2)
        monkeypatch.setattr(shape, "_pools", {1: RecordingPool(pool)})
        assert shape._block_map(fn, range(4)) == [0, 1, 2, 3]
    del fn
    assert len(submitted) == 1 and alive() is None


@pytest.mark.parametrize("workers, entered", [
    (1, [0, 64]), (2, [0, 64, 128, 256, 384]), (3, [0, 64, 128, 192, 320]),
])
def test_frame_blocks_stop_at_the_first_failure_of_their_stride(
        monkeypatch, workers, entered):
    # bad points in the blocks at 64 and 192 of eight 64-point blocks
    surface, s = _twice_pinched()
    offsets, lock = [], threading.Lock()
    frame_block = shape._frame_block

    def counted(surface, block, out, batch, offset):
        with lock:
            offsets.append(offset)
        return frame_block(surface, block, out, batch, offset)

    monkeypatch.setattr(shape, "_frame_block", counted)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    monkeypatch.setattr(shape, "_WORKERS", workers)
    with pytest.raises(DegenerateFrame, match=r"index \(1, 30\)"):
        frame_at(surface, s)
    assert sorted(offsets) == entered


@pytest.mark.parametrize("workers", [2, 3])
def test_no_block_outlives_a_failing_batch(monkeypatch, workers):
    # the jet fails in the second and fourth of eight 64-point blocks and
    # is slow off the caller's thread, so pool threads are still in their
    # blocks when the caller has run out of blocks; frame_at must wait for
    # them before it raises
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))
    s = np.stack(np.meshgrid(np.arange(10.0), np.arange(50.0), indexing="ij"),
                 axis=-1)
    bad = ((1, 30), (4, 10))      # flat indices 80 and 210

    def jet(s):
        for i, j in bad:
            if np.any((s[..., 0] == i) & (s[..., 1] == j)):
                raise RuntimeError(f"jet fails at {(i, j)}")
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        x = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
        dx = np.zeros(s.shape[:-1] + (2, 3))
        dx[..., 0, 0] = dx[..., 1, 1] = 1.0
        return x, dx, np.zeros(s.shape[:-1] + (2, 2, 3))

    entered, exited = [], []
    lock = threading.Lock()
    frame_block = shape._frame_block

    def counted(surface, block, out, batch, offset):
        with lock:
            entered.append(offset)
        try:
            return frame_block(surface, block, out, batch, offset)
        finally:
            with lock:
                exited.append(offset)

    surface = ParamSurface(name="failing_plane",
                           ambient=make_ambient("R3_homothetic"), axes=axes,
                           jet=jet)
    monkeypatch.setattr(shape, "_frame_block", counted)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    monkeypatch.setattr(shape, "_WORKERS", workers)
    with pytest.raises(RuntimeError, match=r"jet fails at \(1, 30\)"):
        frame_at(surface, s)
    with lock:
        assert sorted(entered) == sorted(exited)
    assert 64 in entered


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "graph_S2xR1_cos02",
                                  "hyperboloid_R31_minkowski"])
def test_empty_batch_gives_empty_fields(zoo, name):
    surface, _, _ = zoo(name)
    n, d = len(surface.axes), surface.ambient.dim
    fr = frame_at(surface, np.empty((0, n)))
    assert fr.tangent.shape == (0, n, d) and fr.normal.shape == (0, d)
    assert fr.shape_operator.shape == (0, n, n) and fr.theta.shape == (0,)
    for key, value in vars(fr).items():
        if isinstance(value, np.ndarray):
            assert value.size == 0, key


@pytest.mark.parametrize("name", [n for n in scenario_names()
                                  if n.startswith("graph_")])
def test_graph_routes_match_the_frame(zoo, name):
    # independent closed forms: theta = -1 / sqrt(1 + eps |Du|^2) and
    # h(E_i, E_j) = -D^2 u(E_i, E_j) / sqrt(1 + eps |Du|^2) in a g_M-orthonormal
    # frame E, against frame_at's values taken into the same frame
    surface, grid, _ = zoo(name, 16)
    s = grid.nodes
    fr = frame_at(surface, s)
    assert np.allclose(fr.theta, graph_theta(surface, s), rtol=0.0, atol=1e-12)
    E = np.swapaxes(_smallmat.inv(np.linalg.cholesky(surface.base.metric_at(s))),
                    -1, -2)
    framed = np.einsum("...ai,...ab,...bj->...ij", E, fr.second_form, E)
    closed = graph_second_form(surface, s)
    assert np.max(np.abs(closed)) > 0.1
    assert np.allclose(framed, closed, rtol=0.0, atol=1e-11)



# -- frames that keep only some fields ---------------------------------------

# its adjugate normal has <N, T> > 0, so frame_at negates the kept fields
# that are odd in N
NEGATED_SCENARIO = "graph_S2xR_cos03"


@pytest.mark.parametrize("name,resolution",
                         [(n, None) for n in scenario_names()
                          if instantiate(n)[1].compact]
                         + [("graph_S3xR_coschi02", 32)])
def test_kept_fields_are_the_full_frame_fields(zoo, monkeypatch, name,
                                               resolution):
    surface, grid, _ = zoo(name, resolution)
    signs = []
    frame_block = shape._frame_block

    def recorded(*args):
        signs.append(frame_block(*args))
        return signs[-1]

    monkeypatch.setattr(shape, "_frame_block", recorded)
    full = frame_at(surface, grid.nodes)
    lean = frame_at(surface, grid.nodes, BALANCE_FIELDS)
    if name == NEGATED_SCENARIO:
        assert any(positive for _, positive in signs)
    assert full.area_element.tobytes() == np.sqrt(
        _smallmat.det(full.metric)).tobytes()
    for key, value in vars(lean).items():
        if key in BALANCE_FIELDS:
            assert value.shape == vars(full)[key].shape, key
            assert value.tobytes() == vars(full)[key].tobytes(), key
        else:
            assert value is None, key


@pytest.mark.parametrize("name", ["graph_S2xR_cos03", "graph_S3xR_coschi02"])
def test_lean_blocks_do_not_depend_on_the_worker_count(zoo, monkeypatch, name):
    # every worker writes the fields it does not keep into scratch of its
    # own; 64-point blocks, more workers than CPUs and a short switch
    # interval interleave them often
    surface, grid, _ = zoo(name, 16)
    full = frame_at(surface, grid.nodes)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3, 4):
            monkeypatch.setattr(shape, "_WORKERS", workers)
            lean = frame_at(surface, grid.nodes, BALANCE_FIELDS)
            for key in BALANCE_FIELDS:
                assert np.array_equal(getattr(lean, key), getattr(full, key)), key
    finally:
        sys.setswitchinterval(interval)


def test_frame_rejects_an_unknown_field_to_keep(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 16)
    with pytest.raises(ValueError, match="height"):
        frame_at(surface, grid.nodes, ("theta", "height"))


def _rank_one_plane() -> tuple[ParamSurface, np.ndarray]:
    axes = (AxisSpec("a", 0.0, 1.0, "open"), AxisSpec("b", 0.0, 1.0, "open"))
    return (ParamSurface(name="degenerate", ambient=make_ambient("R3_homothetic"),
                         axes=axes, jet=_rank_one_jet(1.0)),
            QuadratureGrid.build(axes, 12).nodes)


def _on_its_grid(make: Callable, transpose: bool = False):
    def build():
        surface = make()
        s = QuadratureGrid.build(surface.axes, 16).nodes
        return surface, np.moveaxis(s, 1, 0) if transpose else s
    return build


# case -> (a builder of the surface and its parameters, the block size or
# None for the default)
_FAILING_FRAMES = {
    "leading_minor": (_rank_one_plane, None),
    "not_spacelike": (_on_its_grid(_steep_lorentzian_graph), None),
    "index_in_third_block": (_pinched_plane, None),
    "non_finite_normal": (_meridian_strip, None),
    "first_failing_block": (_twice_pinched, 64),
    "theta_both_signs": (_on_its_grid(_bent_product_surface), None),
    "theta_both_signs_across_blocks": (
        _on_its_grid(_bent_product_surface, transpose=True), 64),
}


@pytest.mark.parametrize("case", sorted(_FAILING_FRAMES))
def test_lean_frame_raises_what_the_full_frame_raises(monkeypatch, case):
    build, block = _FAILING_FRAMES[case]
    surface, s = build()
    if block is not None:
        monkeypatch.setattr(shape, "_BLOCK", block)
        monkeypatch.setattr(shape, "_WORKERS", 2)
    raised = []
    for keep in (None, BALANCE_FIELDS):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises((DegenerateFrame, NotSpacelike)) as info:
                frame_at(surface, s, keep)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


# -- contractions over the curved block and the line --------------------------

GRAPH_SCENARIOS = [n for n in scenario_names()
                   if n.startswith(("graph_", "slice_", "example51_"))]


@pytest.mark.parametrize("name", scenario_names())
def test_frame_matches_the_padded_chart_frame(zoo, name):
    surface, grid, _ = zoo(name, 12)
    frame = frame_at(surface, grid.nodes)
    for key, value in padded_frame(surface, grid.nodes).items():
        scale = max(1.0, float(np.max(np.abs(value))))
        assert np.max(np.abs(getattr(frame, key) - value)) <= 1e-13 * scale, key


@pytest.mark.parametrize("name", [sc.name for sc in list_scenarios()
                                  if sc.kind == "parametric"] + ["bent_S2xR"]
                         + GRAPH_SCENARIOS)
def test_param_metric_is_the_frame_metric(zoo, name):
    # the oracle's sampler and frame_at contract the tangents one way, so
    # their metrics agree bit for bit, in a space form and on a product;
    # a graph's both form eps du du^T + C
    if name == "bent_S2xR":
        surface = _bent_product_surface()
        s = QuadratureGrid.build(surface.axes, 16).nodes
        s = s[s[..., 1] > 0.0]          # where <N, T> has one sign
    else:
        surface, grid, _ = zoo(name)
        s = grid.nodes
    assert np.array_equal(surface.induced_metric(s), frame_at(surface, s).metric)


# -- a graph's frame from its height's jet -------------------------------------

def _twin_frames_agree(surface, s) -> None:
    """Every field a graph's frame keeps is the bytes of its padded twin's,
    for the full frame and the balance laws' lean one."""
    twin = padded_twin(surface)
    for keep in (None, BALANCE_FIELDS):
        frame, padded = frame_at(surface, s, keep), frame_at(twin, s, keep)
        for key, value in vars(frame).items():
            other = vars(padded)[key]
            if value is None:
                assert other is None, key
            else:
                assert value.shape == other.shape, key
                assert value.tobytes() == other.tobytes(), key


@pytest.mark.parametrize("name", GRAPH_SCENARIOS)
def test_graph_frame_is_its_padded_twins(zoo, monkeypatch, name):
    # the height's jet as it is against the padded tangents (I | du) and
    # second partials of graph_jet, through the general contraction; then
    # in 64-point blocks on two workers
    surface, grid, _ = zoo(name, 16)
    _twin_frames_agree(surface, grid.nodes)
    monkeypatch.setattr(shape, "_BLOCK", 64)
    monkeypatch.setattr(shape, "_WORKERS", 2)
    _twin_frames_agree(surface, grid.nodes)


def _steep_hyperbolic_graph() -> GraphSurface:
    """u = exp(x_1) / 2 over H^2 in the Lorentzian H^2 x R: |Du|^2 =
    (1 + x_1^2) exp(2 x_1) / 4 passes 1 near x_1 = 0.55, inside the chart."""
    def u(s):
        return 0.5 * np.exp(s[..., 0])

    def du(s):
        out = np.zeros(s.shape)
        out[..., 0] = 0.5 * np.exp(s[..., 0])
        return out

    def d2u(s):
        out = np.zeros(s.shape + (s.shape[-1],))
        out[..., 0, 0] = 0.5 * np.exp(s[..., 0])
        return out

    return GraphSurface(name="steep_H2", ambient=make_ambient("H2xR1"),
                        u=u, du=du, d2u=d2u)


@pytest.mark.parametrize("block", [None, 64])
def test_graph_and_twin_raise_the_same_error(monkeypatch, block):
    surface = _steep_hyperbolic_graph()
    s = QuadratureGrid.build(surface.axes, 16).nodes
    if block is not None:
        monkeypatch.setattr(shape, "_BLOCK", block)
        monkeypatch.setattr(shape, "_WORKERS", 2)
    raised = []
    for which in (surface, padded_twin(surface)):
        with pytest.raises(NotSpacelike) as info:
            frame_at(which, s)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    # the first failing point lies past the first rows of the chart
    assert "at index (0," not in raised[0][1]


@pytest.mark.parametrize("name", scenario_names())
def test_ricci_normal_is_the_trace_of_the_curvature_operator(zoo, name):
    # Ric_bar(N, N) = -G^ab <R(e_a, N)N, e_b>, from curvature_operator alone
    surface, grid, _ = zoo(name, 12)
    ambient = surface.ambient
    frame = frame_at(surface, grid.nodes)
    x, N, k = frame.point, frame.normal, ambient.curved
    chart = full_chart(ambient)
    G, Ginv = chart.metric_at(x), chart.metric_inverse_at(x)
    C = ambient.metric_at(x[..., :k])
    ric = np.zeros(x.shape[:-1])
    for a, e in enumerate(np.eye(ambient.dim)):
        R = ambient.curvature_operator(C, np.broadcast_to(e, x.shape), N, N)
        ric -= np.einsum("...b,...cb,...c->...", Ginv[..., a, :],
                         G[..., :k, :], R)
    scale = max(1.0, float(np.max(np.abs(ric))))
    assert np.max(np.abs(frame.ricci_normal - ric)) <= 1e-13 * scale
