"""Ambient spaces: metrics, connections, curvature fields, Killing data."""

import dataclasses

import numpy as np
import pytest
from reference_routes import (CONFORMAL_KILLING_TOLERANCE, christoffel_fd,
                              curvature_operator_fd, full_chart,
                              sphere_closed_forms, verify_conformal_killing)

from prodsurf.ambient import (ambient_keys, flat_torus, hyperbolic_plane,
                              make_ambient, projective_plane, round_sphere)
from prodsurf.calculus import QuadratureGrid
from prodsurf.errors import ParameterOutOfRange

ALL_KEYS = ("S2xR", "S2xR1", "RP2xR", "RP2xR1", "H2xR", "H2xR1",
            "T2xR", "T2xR1", "S3xR", "S3xR1",
            "R3_homothetic", "R31_minkowski", "S3_hopf")


def test_registry_contains_every_ambient():
    keys = ambient_keys()
    for key in ALL_KEYS:
        assert key in keys


def test_unknown_ambient_key_raises():
    with pytest.raises(ParameterOutOfRange):
        make_ambient("nope")


@pytest.mark.parametrize("base,curv", [
    (lambda: round_sphere(2), 1.0),
    (projective_plane, 1.0),
    (hyperbolic_plane, -1.0),
    (flat_torus, 0.0),
    (lambda: round_sphere(3), 2.0),
], ids=["round_sphere-1.0", "projective_plane-1.0", "hyperbolic_plane--1.0",
        "flat_torus-0.0", "round_sphere3-2.0"])
def test_base_curvature_fields(base, curv):
    assert base().kappa == curv


# closed-form volume densities det g_M of the base charts
BASE_DETS = {
    "S2": lambda x: np.sin(x[..., 0]) ** 2,
    "H2": lambda x: 1.0 / (1.0 + x[..., 0] ** 2 + x[..., 1] ** 2),
    "T2": lambda x: np.ones(x.shape[:-1]),
    "S3": lambda x: np.sin(x[..., 0]) ** 4 * np.sin(x[..., 1]) ** 2,
}


@pytest.mark.parametrize("base", [
    lambda: round_sphere(2), hyperbolic_plane, flat_torus,
    lambda: round_sphere(3),
], ids=["round_sphere", "hyperbolic_plane", "flat_torus", "round_sphere3"])
def test_base_metric_inverse_and_det(base):
    b = base()
    rng = np.random.default_rng(7)
    pts = np.stack([rng.uniform(ax.lo + 0.2, ax.hi - 0.2, size=5)
                    for ax in b.axes], axis=-1)
    g = b.metric_at(pts)
    ginv = b.metric_inverse_at(pts)
    eye = np.broadcast_to(np.eye(b.dim), g.shape)
    assert np.allclose(g @ ginv, eye, atol=1e-12)
    assert np.allclose(np.linalg.det(g), BASE_DETS[b.name](pts), atol=1e-12)


@pytest.mark.parametrize("key", ["S2xR", "H2xR1", "S3xR", "R3_homothetic",
                                 "R31_minkowski", "S3_hopf"])
def test_analytic_christoffels_match_finite_differences(key):
    ambient = full_chart(make_ambient(key))
    rng = np.random.default_rng(11)
    lo = np.array([0.7] * ambient.dim)
    pts = lo + rng.uniform(0.0, 0.4, size=(6, ambient.dim))
    gamma = ambient.christoffel_at(pts)
    gamma_fd = christoffel_fd(ambient.metric_at, pts)
    assert np.max(np.abs(gamma - gamma_fd)) < 5e-7
    # torsion-free connection: symmetric in the lower pair
    assert np.allclose(gamma, np.swapaxes(gamma, -1, -2), atol=1e-13)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_curvature_operator_matches_finite_differences(key):
    # closed-form R(X, Y)Z against -grad_X grad_Y Z + grad_Y grad_X Z built
    # from the full chart's Christoffel symbols, which pins the sign
    # convention; on the curved block here, on a product's line in
    # test_products_have_one_chart_model
    ambient, pts, X, Y, Z = _curvature_sample(key)
    k = ambient.curved
    exact = ambient.curvature_operator(ambient.metric_at(pts[..., :k]), X, Y, Z)
    fd = curvature_operator_fd(ambient, pts, X, Y, Z)
    assert np.max(np.abs(fd[..., :k] - exact)) <= 1e-6 * np.max(np.abs(exact))


def _curvature_sample(key):
    ambient = make_ambient(key)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.6, 1.1, size=(16, ambient.dim))
    X, Y, Z = (rng.uniform(-1.0, 1.0, size=pts.shape) for _ in range(3))
    return ambient, pts, X, Y, Z


@pytest.mark.parametrize("key", [key for key in ALL_KEYS
                                 if make_ambient(key).kind == "product"])
def test_products_have_one_chart_model(key):
    # a product's chart callables are its base's, its curvature operator
    # has the base's components, and the full chart's line part is 0
    ambient, pts, X, Y, Z = _curvature_sample(key)
    for attr in ("metric_at", "metric_inverse_at", "christoffel_at"):
        assert getattr(ambient, attr) is getattr(ambient.base, attr), attr
    k = ambient.curved
    exact = ambient.curvature_operator(ambient.metric_at(pts[..., :k]), X, Y, Z)
    assert exact.shape == pts.shape[:-1] + (k,) and k == ambient.base.dim
    fd = curvature_operator_fd(ambient, pts, X, Y, Z)
    assert np.max(np.abs(fd[..., k:])) <= 1e-6 * np.max(np.abs(exact))


def _ricci_tensor(ambient, pts):
    """``Ric(e_a, e_b) = -G^cd <R(e_c, e_a)e_b, e_d>``, read from
    ``curvature_operator`` alone (the package's sign convention makes it
    minus the trace of ``X -> R(X, e_a)e_b``)."""
    d, k = ambient.dim, ambient.curved
    chart = full_chart(ambient)
    G, Ginv = chart.metric_at(pts), chart.metric_inverse_at(pts)
    C = ambient.metric_at(pts[..., :k])
    E = [np.broadcast_to(e, pts.shape) for e in np.eye(d)]
    ric = np.zeros(pts.shape[:-1] + (d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                R = ambient.curvature_operator(C, E[c], E[a], E[b])
                lowered = np.einsum("...f,...fd->...d", R, G[..., :k, :])
                ric[..., a, b] -= np.einsum("...d,...d->...", Ginv[..., c, :],
                                            lowered)
    return ric


@pytest.mark.parametrize("key", ALL_KEYS)
def test_ricci_form_and_scalar_curvature_are_traces_of_the_curvature(key):
    # the Ricci form is the curvature model's (curved - 1) sectional times
    # the curved block's metric, zero on a product's line, and Sbar is its
    # G^-1 trace
    ambient = make_ambient(key)
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.6, 1.1, size=(16, ambient.dim))
    ric = _ricci_tensor(ambient, pts)
    k, chart = ambient.curved, full_chart(ambient)
    model = np.zeros_like(ric)
    model[..., :k, :k] = ((k - 1) * ambient.sectional
                          * chart.metric_at(pts)[..., :k, :k])
    assert np.allclose(ric, model, rtol=1e-12, atol=1e-12)
    sbar = np.einsum("...ab,...ab->...", chart.metric_inverse_at(pts), ric)
    assert np.allclose(sbar, ambient.scalar_curvature, rtol=1e-12, atol=1e-12)


def test_lorentzian_flat_metric_is_time_first():
    ambient = make_ambient("R31_minkowski")
    g = ambient.metric_at(np.zeros(3))
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0]))
    assert ambient.epsilon == -1


@pytest.mark.parametrize("key,flag", [
    ("T2xR", True), ("T2xR1", True), ("R3_homothetic", True),
    ("R31_minkowski", True), ("S3_hopf", True),
    ("S2xR", False), ("H2xR", False), ("S3xR", False),
])
def test_einstein_flags(key, flag):
    assert make_ambient(key).is_einstein is flag


def test_product_field_is_killing_with_zero_factor():
    ambient = make_ambient("S2xR")
    pts = np.array([[0.8, 1.0, 0.3], [1.4, 2.0, -0.5]])
    T = ambient.killing.field_at(pts)
    assert np.allclose(T, [0.0, 0.0, 1.0])
    assert ambient.killing.conformal_factor == 0.0


def test_homothetic_field_has_unit_factor():
    ambient = make_ambient("R3_homothetic")
    pts = np.array([[0.3, -0.2, 0.9]])
    assert np.allclose(ambient.killing.field_at(pts), pts)
    assert ambient.killing.conformal_factor == 1.0


def test_hopf_field_is_unit_length():
    ambient = make_ambient("S3_hopf")
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0.5, 2.4, size=8),
                    rng.uniform(0.5, 2.4, size=8),
                    rng.uniform(0.0, 6.0, size=8)], axis=-1)
    T = ambient.killing.field_at(pts)
    g = ambient.metric_at(pts)
    norms = np.einsum("...i,...ij,...j->...", T, g, T)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert ambient.killing.conformal_factor == 0.0


def _killing_points(ambient):
    rng = np.random.default_rng(5)
    return np.stack([rng.uniform(0.6, 1.1, size=6)
                     for _ in range(ambient.dim)], axis=-1)


@pytest.mark.parametrize("key", ambient_keys())
def test_distinguished_fields_satisfy_conformal_equation(key):
    ambient = make_ambient(key)
    result = verify_conformal_killing(ambient, _killing_points(ambient))
    assert result.passed, result


def test_conformal_killing_check_defaults_to_its_tolerance():
    pts = np.array([[0.7, 0.9, 1.0]])
    result = verify_conformal_killing(make_ambient("S2xR"), pts)
    assert result.tolerance == CONFORMAL_KILLING_TOLERANCE == 1e-7


def _with_killing(ambient, **changes):
    return dataclasses.replace(
        ambient, killing=dataclasses.replace(ambient.killing, **changes))


def _scaled_field(ambient, scale):
    field_at = ambient.killing.field_at
    return _with_killing(ambient, field_at=lambda x: scale * field_at(x))


def _scaled_chi_component(ambient):
    # the d/dchi part of the Hopf field alone: no longer a Killing field
    field_at = ambient.killing.field_at
    return _with_killing(ambient, field_at=lambda x: field_at(x)
                         * np.array([1.0 + 1e-3, 1.0, 1.0]))


def _scaled_phi(ambient):
    return _with_killing(ambient, conformal_factor=(
        ambient.killing.conformal_factor * (1.0 + 1e-3)))


def _shifted_phi(ambient):
    # phi = 0 is left as it is by a scale
    return _with_killing(ambient, conformal_factor=1e-3)


@pytest.mark.parametrize("key,defect", [
    ("R3_homothetic", lambda a: _scaled_field(a, 1.0 + 1e-3)),
    ("R3_homothetic", _scaled_phi),
    ("S3_hopf", _scaled_chi_component),
    ("S3_hopf", _shifted_phi),
], ids=["R3_homothetic-field", "R3_homothetic-phi",
        "S3_hopf-field", "S3_hopf-phi"])
def test_conformal_killing_check_catches_a_defective_field(key, defect):
    # the check differentiates field_at itself: a field or factor off by
    # 1e-3 leaves a residual of order 1e-3, a clean one stays at rounding
    ambient = make_ambient(key)
    pts = _killing_points(ambient)
    clean = verify_conformal_killing(ambient, pts)
    assert clean.passed and clean.max_residual <= 1e-9, clean
    result = verify_conformal_killing(defect(ambient), pts)
    assert not result.passed and result.max_residual > 1e-4, result


def test_a_scaled_killing_field_is_still_killing():
    # a constant multiple of the Hopf field is Killing too, so the check
    # must not read a uniform scale as a defect
    ambient = make_ambient("S3_hopf")
    result = verify_conformal_killing(_scaled_field(ambient, 1.0 + 1e-3),
                                      _killing_points(ambient))
    assert result.passed and result.max_residual <= 1e-9, result


def test_projective_plane_halves_the_sphere():
    rp2 = projective_plane()
    assert rp2.quotient_factor == 0.5
    s2 = round_sphere(2)
    pts = np.array([[1.1, 0.7], [0.4, 2.2]])
    assert np.allclose(rp2.metric_at(pts), s2.metric_at(pts))


def _pole_points(axes, resolution=16, steps=4):
    """The grid nodes, and the nodes moved 1 to ``steps`` node spacings
    past either pole of each polar axis."""
    nodes = QuadratureGrid.build(axes, resolution).nodes.reshape(-1, len(axes))
    out = [nodes]
    for a, ax in enumerate(axes):
        if ax.kind != "polar_cos":
            continue
        h = ax.period / resolution
        for k in range(1, steps + 1):
            for edge in (ax.lo - k * h, ax.hi + k * h):
                moved = nodes.copy()
                moved[:, a] = edge
                out.append(moved)
    return np.concatenate(out)


@pytest.mark.parametrize("n", [2, 3])
def test_round_sphere_is_the_closed_form_chart(n):
    # one hyperspherical chart serves S^2 and S^3: its axes, deck maps and
    # Ricci factor are the closed forms', and so are its metric and
    # Christoffel symbols bit for bit, at the nodes and past the poles;
    # S^3's inverse is a running product of sin^-2 rather than the
    # reciprocal of the metric, equal to within rounding
    sphere, ref = round_sphere(n), sphere_closed_forms(n)
    assert (sphere.name, sphere.axes, sphere.kappa) == (
        ref["name"], ref["axes"], ref["kappa"])
    pts = _pole_points(sphere.axes)
    for attr in ("metric_at", "metric_inverse_at", "christoffel_at"):
        got, want = getattr(sphere, attr)(pts), ref[attr](pts)
        assert got.shape == want.shape, attr
        if n == 3 and attr == "metric_inverse_at":
            assert np.allclose(got, want, rtol=4 * np.finfo(float).eps,
                               atol=0.0), attr
        else:
            assert np.array_equal(got, want), attr


@pytest.mark.parametrize("n", [1, 4])
def test_round_sphere_takes_dimension_two_or_three(n):
    with pytest.raises(ParameterOutOfRange):
        round_sphere(n)
