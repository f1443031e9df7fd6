"""Quadrature, surface fields, and intrinsic differential operators."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from reference_routes import cartesian_height

from prodsurf import _smallmat, calculus
from prodsurf.ambient import round_sphere, round_three_sphere
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import NonCompactDomain, ParameterOutOfRange
from prodsurf.identities import run_suite
from prodsurf.zoo import instantiate, scenario_names


def test_grid_rejects_too_coarse_resolution(zoo):
    surface, _, _ = zoo("slice_S2xR_t0.7", 16)
    with pytest.raises(ParameterOutOfRange,
                       match=r"resolution 4 .*\(minimum 10\)"):
        QuadratureGrid.build(surface.axes, 4)


_POLAR_SCENARIOS = ("slice_S2xR_t0.7", "slice_RP2xR_t0.3", "graph_S3xR_coschi02")


def _polar_node_counts(grid: QuadratureGrid) -> set[int]:
    return {len(z) for ax, z in zip(grid.axes, grid.nodes_1d)
            if ax.kind == "polar_cos"}


def test_each_gauss_legendre_rule_is_solved_once(zoo, monkeypatch):
    surfaces = [zoo(name, 16)[0] for name in _POLAR_SCENARIOS]
    calls = []

    def counted(m):
        calls.append(m)
        return leggauss(m)

    calculus._gauss_legendre.cache_clear()
    monkeypatch.setattr(calculus, "leggauss", counted)
    counts = set()
    for surface in surfaces:
        for resolution in (16, 24):
            for _ in range(2):
                counts |= _polar_node_counts(
                    QuadratureGrid.build(surface.axes, resolution))
    assert sorted(calls) == sorted(counts) == [17, 25]

    x, w = calculus._gauss_legendre(17)
    assert x.tobytes() + w.tobytes() == b"".join(a.tobytes() for a in leggauss(17))
    for cached in (x, w):
        with pytest.raises(ValueError):
            cached[0] = 0.0
    a, b = (QuadratureGrid.build(surfaces[-1].axes, 16) for _ in range(2))
    for own_a, own_b in zip(a.nodes_1d + a.weights_1d, b.nodes_1d + b.weights_1d):
        assert own_a.tobytes() == own_b.tobytes()
        assert own_a is not own_b and not np.shares_memory(own_a, own_b)
        assert own_a.flags.writeable


@pytest.mark.parametrize("name, resolution", [("graph_S3xR_coschi02", 16),
                                              ("slice_S2xR_t0.7", 20)])
def test_warm_identity_suite_calls_no_lapack(zoo, monkeypatch, name, resolution):
    surface = zoo(name, resolution)[0]
    calculus._gauss_legendre.cache_clear()
    cold = [r.to_dict() for r in run_suite(surface, resolution)]
    calculus._gauss_legendre.cache_clear()
    for res in (resolution, 2 * resolution):
        QuadratureGrid.build(surface.axes, res)

    def refuse(m):
        raise AssertionError(f"leggauss({m}) called with its rule cached")

    monkeypatch.setattr(calculus, "leggauss", refuse)
    assert [r.to_dict() for r in run_suite(surface, resolution)] == cold


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


def _sum_outcome(summer, values: np.ndarray):
    """The bits of the sum, or the exception type it raised."""
    try:
        return struct.pack("<d", summer(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_sums_like_fsum(values) -> None:
    values = np.asarray(values, dtype=float)
    expected = _sum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert _sum_outcome(calculus._exact_sum, values) == expected


def _exact_sum_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261018)
    chunk = calculus._FSUM_CHUNK
    wide = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 301, 4096)
    subnormal = rng.integers(-2 ** 52, 2 ** 52, 4096) * 5e-324

    def spread(size: int) -> np.ndarray:
        return rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))

    return {
        "cancellation": np.array([1e16, 1.0, -1e16]),
        "magnitudes_1e300": wide,
        "magnitudes_1e300_cancelled": np.concatenate([wide, [1e-300], -wide[::-1]]),
        "subnormals": subnormal,
        "subnormals_and_normals": np.concatenate(
            [subnormal, [2.2250738585072014e-308, -5e-324], -subnormal]),
        "tie_to_even": np.array([1.0, 2.0 ** -53]),
        "just_above_the_tie": np.array([1.0, 2.0 ** -53, 2.0 ** -106]),
        "plus_zeros": np.zeros(1000),
        "minus_zeros": np.full(1000, -0.0),
        "size_1": np.array([-3.25]),
        "size_chunk_minus_1": spread(chunk - 1),
        "size_chunk_plus_1": spread(chunk + 1),
        "size_540800": spread(540_800),
        "size_540800_1e300": rng.standard_normal(540_800)
        * 10.0 ** rng.integers(-300, 301, 540_800),
    }


_EXACT_SUM_CASES = _exact_sum_cases()


@pytest.mark.parametrize("case", sorted(_EXACT_SUM_CASES))
def test_exact_sum_is_bit_equal_to_fsum(case):
    _assert_sums_like_fsum(_EXACT_SUM_CASES[case])


@pytest.mark.parametrize("values", [
    [math.inf, 1.0], [-math.inf, 2.5, 1e300], [math.nan, 1.0],
    [math.inf, -math.inf], [1.0, math.nan, math.inf, -math.inf],
    [math.inf, 1e308, 1e308], [1e308, math.inf, 1e308],
    [1e308, 1e308], [-1.7e308, -1.7e308, 1e300],
    [1e308, 1e308, -1e308],
], ids=repr)
def test_exact_sum_of_non_finite_or_overflowing_terms_acts_as_fsum(values):
    """Same result, or the same exception type, as ``math.fsum``; the last
    two overflow although their exact sums are finite or overflow only in
    fsum's partials."""
    _assert_sums_like_fsum(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), max_size=40))
def test_exact_sum_acts_as_fsum_on_any_floats(values):
    _assert_sums_like_fsum(values)


def test_integrate_is_the_exact_sum_of_its_terms(fields):
    ff = fields("graph_S3xR_coschi02", 16)
    f = ff.frame.theta * ff.frame.scalar_curvature
    terms = f * ff.grid.weights * ff.frame.area_element
    assert ff.integrate(f) == ff.surface.quotient_factor * math.fsum(
        terms.ravel().tolist())


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


def _gathered_window_derivative(values, grid, axis, index_rank=0):
    # the contraction partial_derivative replaced: gather the whole
    # (..., m, 5) window, subtract the center value, weight, and reduce
    ext = calculus._extend_values(values, grid, axis, index_rank)
    idx, wts = calculus._stencil_for_axis(grid, axis)
    gathered = np.moveaxis(np.take(ext, idx, axis=axis), axis + 1, -1)
    gathered -= values[..., None]
    wshape = ((1,) * axis + (grid.shape[axis],)
              + (1,) * (gathered.ndim - axis - 2) + (calculus._STENCIL_WIDTH,))
    gathered *= wts.reshape(wshape)
    return np.sum(gathered, axis=-1)


def test_reference_scenarios_cover_every_axis_kind_and_deck_map(zoo):
    axes = [ax for name in scenario_names() for ax in zoo(name)[1].axes]
    assert {ax.kind for ax in axes} == {"periodic", "polar_cos", "open"}
    assert all(any(getattr(ax, map_) for ax in axes)
               for map_ in ("shift", "reverse"))


# every catalog scenario with a polar axis
_WITH_POLES = [name for name in scenario_names()
               if any(ax.kind == "polar_cos" for ax in instantiate(name)[0].axes)]


@pytest.mark.parametrize("make", [
    *[lambda zoo, name=name: zoo(name, 16)[0] for name in _WITH_POLES],
    lambda zoo: cartesian_height(round_sphere(), +1),
    lambda zoo: cartesian_height(round_three_sphere(), -1)],
    ids=[*_WITH_POLES, "x1_over_S2xR", "x1_over_S3xR1"])
def test_polar_ghosts_equal_the_metric_at_their_positions(zoo, make):
    # the ghost layers of a polar axis continue the sampled metric by the
    # deck map, with one Jacobian sign per index; the continued chart
    # formulas, evaluated where the ghosts stand (past the edge on that
    # axis, at the nodes on the others), are the geometry's own value there
    # (measured within 6.7e-16, on ellipsoid_R3_homothetic).  The Cartesian
    # heights' off-diagonal g_ij make the signs matter: without them the
    # ghosts miss by 2.65e-2
    surface = make(zoo)
    grid = QuadratureGrid.build(surface.axes, 16)
    g = surface.induced_metric(grid.nodes)
    polar = [a for a, ax in enumerate(grid.axes) if ax.kind == "polar_cos"]
    assert polar
    for axis in polar:
        coords = list(grid.nodes_1d)
        coords[axis] = calculus._extended_positions(grid, axis)
        ghosts = surface.induced_metric(
            np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1))
        extended = calculus._extend_values(g, grid, axis, index_rank=2)
        assert np.allclose(extended, ghosts, rtol=0.0, atol=1e-14)
        if surface.name.startswith("x1_over_"):
            unsigned = calculus._extend_values(g, grid, axis, index_rank=0)
            assert np.max(np.abs(unsigned - ghosts)) > 1e-2


@pytest.mark.parametrize("name", scenario_names())
def test_partial_derivative_equals_gathered_window_reference(zoo, name):
    # random fields of index rank 0, 1 and 2 at the catalog resolution and
    # twice it, each holding a constant slab of axis-0 rows whose interior
    # must differentiate to exact zeros; compared byte for byte, so signed
    # zeros count
    rng = np.random.default_rng(11)
    base = zoo(name)[1].resolution
    for resolution in (base, 2 * base):
        _, grid, _ = zoo(name, resolution)
        n = len(grid.axes)
        slab = grid.shape[0] // 3
        for rank in (0, 1, 2):
            values = rng.standard_normal(grid.shape + (n,) * rank)
            values[:slab] = 0.75
            for axis in range(n):
                got = calculus.partial_derivative(values, grid, axis, rank)
                ref = _gathered_window_derivative(values, grid, axis, rank)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
                if rank == 0:
                    assert not np.any(got[2:slab - 2])


def test_partial_derivative_peak_allocation_stays_below_the_window(zoo):
    # a gathered 5-wide window alone would be five times the field; the
    # column-by-column contraction holds the extended field, the result and
    # one scratch array
    _, grid, _ = zoo("graph_S2xR_cos03", 64)
    values = np.random.default_rng(5).standard_normal(grid.shape + (2, 2))
    for axis in range(2):
        calculus.partial_derivative(values, grid, axis, 2)   # stencil cache
        tracemalloc.start()
        try:
            calculus.partial_derivative(values, grid, axis, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * values.nbytes


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
