"""Independent reference routes that the tests compare the package against.

Each route recomputes a quantity the package has in closed form (or reads
from its frames) by another method: finite differences of the chart data,
contractions over the full chart (``full_chart``, zero-padded on a product)
and a graph's padded jet (``graph_jet``), or the closed forms of a graph.
One runs the package's intrinsic-curvature oracle off its grids, at
scattered points and a free step, and one folds parameters past a chart's
edges back into it by the axes' deck maps (``fold_params``).  None of them
is used by the package itself, so they live with the tests.  So do
``run_check``, which runs one identity check at two resolutions where the
package only runs the whole suite, and ``cartesian_height``, a graph over
S^2 or S^3 whose metric is not diagonal.  This module holds no tests.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from prodsurf import _smallmat, shape
from prodsurf.ambient import AmbientSpace, make_product
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.graphs import (_covariant_hessian, _gate_x0, _spacelike_w,
                             check_curvature_range)
from prodsurf.identities import CHECKS, _attach_order
from prodsurf.reports import CheckResult
from prodsurf.shape import GraphSurface

# Residual allowed in the conformal Killing equation of an ambient's field,
# whose partials are taken by central differences of step 1e-6: about 1e-10
# on the registered ambients.
CONFORMAL_KILLING_TOLERANCE = 1.0e-7


# --------------------------------------------------------------------------
# the full chart, and ambient chart data by finite differences
# --------------------------------------------------------------------------

def full_chart(ambient: AmbientSpace) -> AmbientSpace:
    """``ambient`` with chart callables over all ``dim`` coordinates.

    The package's chart model is the curved block alone (``AmbientSpace``).
    Here a product's base metric, inverse metric and Christoffel symbols
    are zero-padded to ``(..., d, d)`` and ``(..., d, d, d)`` arrays, with
    ``epsilon`` (its own inverse) on the line; a space form's block is its
    whole chart, so it is returned as it is.
    """
    base = ambient.base
    if base is None:
        return ambient
    k, d = base.dim, ambient.dim

    def padded(block_at, line: float, rank: int):
        def at(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (d,) * rank)
            out[(...,) + (slice(k),) * rank] = block_at(x[..., :k])
            out[(...,) + (k,) * rank] = line
            return out
        return at

    return dataclasses.replace(
        ambient,
        metric_at=padded(base.metric_at, ambient.epsilon, 2),
        metric_inverse_at=padded(base.metric_inverse_at, ambient.epsilon, 2),
        christoffel_at=padded(base.christoffel_at, 0.0, 3))


def christoffel_fd(metric_at: Callable[[np.ndarray], np.ndarray],
                   x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Christoffel symbols from central differences of a metric callable.

    A cross-check for the closed-form chart data; accurate to O(step^2) plus
    rounding of order machine-eps / step.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    g = metric_at(x)
    dg = np.zeros(x.shape[:-1] + (d, d, d))   # dg[..., a, i, j] = d_a g_ij
    for a in range(d):
        e = np.zeros(d)
        e[a] = step
        dg[..., a, :, :] = (metric_at(x + e) - metric_at(x - e)) / (2.0 * step)
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    out = np.zeros_like(dg)
    for i in range(d):
        for j in range(d):
            s = 0.5 * (dg[..., i, :, j] + dg[..., j, :, i] - dg[..., :, i, j])
            out[..., :, i, j] = np.einsum("...kl,...l->...k", ginv, s)
    return out


def curvature_operator_fd(ambient: AmbientSpace, x: np.ndarray, X: np.ndarray,
                          Y: np.ndarray, Z: np.ndarray,
                          step: float = 1e-5) -> np.ndarray:
    """``R(X, Y)Z`` for constant chart-component fields, by differencing.

    With constant components the bracket term vanishes and
    ``R(X, Y)Z = -grad_X grad_Y Z + grad_Y grad_X Z``; the inner covariant
    derivatives are formed analytically from the Christoffel symbols and the
    outer ones by central differences, all over the full chart.  Pins the
    sign convention of ``curvature_operator``.
    """
    x = np.asarray(x, dtype=float)
    X = np.broadcast_to(np.asarray(X, dtype=float), x.shape).copy()
    Y = np.broadcast_to(np.asarray(Y, dtype=float), x.shape).copy()
    Z = np.broadcast_to(np.asarray(Z, dtype=float), x.shape).copy()
    d = x.shape[-1]
    christoffel_at = full_chart(ambient).christoffel_at

    def nabla(direction, field_fn, pt):
        # grad_direction field, with field given as a function of the point
        Gam = christoffel_at(pt)
        val = field_fn(pt)
        out = np.einsum("...kbc,...b,...c->...k", Gam, direction, val)
        for b in range(d):
            e = np.zeros(d)
            e[b] = step
            dfield = (field_fn(pt + e) - field_fn(pt - e)) / (2.0 * step)
            out += direction[..., b, None] * dfield
        return out

    grad_y_z = lambda pt: np.einsum("...kbc,...b,...c->...k",
                                    christoffel_at(pt), Y, Z)
    grad_x_z = lambda pt: np.einsum("...kbc,...b,...c->...k",
                                    christoffel_at(pt), X, Z)
    return -nabla(X, grad_y_z, x) + nabla(Y, grad_x_z, x)


def verify_conformal_killing(ambient: AmbientSpace, points: np.ndarray,
                             tolerance: float = CONFORMAL_KILLING_TOLERANCE,
                             step: float = 1e-6) -> CheckResult:
    """Check the conformal Killing equation of the ambient's field at points.

    The chart partials ``J[..., a, b] = d_b T^a`` are central differences of
    ``killing.field_at``, the callable the frames read.  The equation is
    bilinear in the two directions, so it holds for all vector pairs iff the
    symmetrized lowered covariant derivative equals ``2 phi`` times the
    metric componentwise; the check is on components and needs no direction
    sampling.  The connection and metric are the full chart's.
    """
    x = np.asarray(points, dtype=float)
    K = ambient.killing
    d = x.shape[-1]
    T = K.field_at(x)
    J = np.empty(x.shape + (d,))
    for b in range(d):
        e = np.zeros(d)
        e[b] = step
        J[..., :, b] = (K.field_at(x + e) - K.field_at(x - e)) / (2.0 * step)
    chart = full_chart(ambient)
    Gam = chart.christoffel_at(x)
    G = chart.metric_at(x)
    # covariant derivative (a up, b down), then lower the upper index
    covJ = J + np.einsum("...abc,...c->...ab", Gam, T)
    lowered = np.einsum("...ka,...ab->...kb", G, covJ)   # (grad T)_{k;b}
    resid = lowered + np.swapaxes(lowered, -1, -2) - 2.0 * K.conformal_factor * G
    worst = float(np.max(np.abs(resid))) if resid.size else 0.0
    return CheckResult(
        name="conformal_killing",
        scenario=ambient.name,
        resolution=int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1,
        max_residual=worst,
        passed=bool(worst <= tolerance),
        tolerance=tolerance,
    )


# --------------------------------------------------------------------------
# the frame through the full chart
# --------------------------------------------------------------------------

# the frame fields that change sign with the normal
_ODD_IN_N = ("normal", "theta", "second_form", "shape_operator",
             "mean_curvature")


def graph_jet(surface: GraphSurface):
    """The 2-jet ``s -> (x, dx, ddx)`` of a graph as a parametrized surface.

    The tangents are padded to ambient components, ``dx = [I | du]``, and
    the second partials to an ``(..., n, n, n + 1)`` array of zeros but its
    last column, ``d2u``.  ``frame_at`` reads the height's jet itself; a
    ``ParamSurface`` built on this jet is the graph's padded twin.
    """
    n = surface.base.dim

    def jet(s):
        s = np.asarray(s, dtype=float)
        batch = s.shape[:-1]
        x = np.concatenate([s, surface.u(s)[..., None]], axis=-1)
        dx = np.zeros(batch + (n, n + 1))
        for i in range(n):
            dx[..., i, i] = 1.0
        dx[..., :, n] = surface.du(s)
        ddx = np.zeros(batch + (n, n, n + 1))
        ddx[..., :, :, n] = surface.d2u(s)
        return x, dx, ddx

    return jet


def padded_twin(surface: GraphSurface) -> shape.ParamSurface:
    """The graph as a ``ParamSurface`` on its padded jet (``graph_jet``),
    with the graph's name, ambient, axes and compactness."""
    return shape.ParamSurface(name=surface.name, ambient=surface.ambient,
                              axes=surface.axes, jet=graph_jet(surface),
                              compact=surface.compact)


def padded_frame(surface, s: np.ndarray) -> dict[str, np.ndarray]:
    """The ``frame_at`` fields at ``s``, keyed like ``GeometryFrame``
    (``height`` excepted), by contractions over the full chart.

    Every ambient tensor is the ``(..., d, d)`` or ``(..., d, d, d)`` array
    of ``full_chart(ambient)``, zero-padded on a product.  The second
    fundamental form pairs the second partials ``txx_ij + Gamma(t_i, t_j)``
    in ambient components with the lowered normal, and ``Ric_bar(N, N) =
    (curved - 1) sectional <N_b, N_b>`` reads the curved block of the full
    metric.  ``frame_at`` contracts over the curved block and the line
    instead, and reads a graph's height jet as it is, where this route reads
    its padded twin (``padded_twin``).  No point is checked; the normal is
    oriented as ``frame_at`` orients it.
    """
    ambient = full_chart(surface.ambient)
    eps, k, n = ambient.epsilon, ambient.curved, s.shape[-1]
    if isinstance(surface, GraphSurface):
        surface = padded_twin(surface)
    x, tx, txx = surface.jet(np.asarray(s, dtype=float))
    G = ambient.metric_at(x)
    g = np.einsum("...ia,...ab,...jb->...ij", tx, G, tx)
    ginv = np.linalg.inv(g)
    w = _smallmat.generalized_cross(tx)
    Nraw = np.einsum("...ab,...b->...a", ambient.metric_inverse_at(x), w)
    length = np.sqrt(np.abs(np.einsum("...a,...a->...", w, Nraw)))[..., None]
    N, Nlow = Nraw / length, w / length
    GT = np.einsum("...ab,...b->...a", G, ambient.killing.field_at(x))
    sec = txx + np.einsum("...abc,...ib,...jc->...ija",
                          ambient.christoffel_at(x), tx, tx)
    h = np.einsum("...ija,...a->...ij", sec, Nlow)
    A = ginv @ h
    trA = np.einsum("...ii->...", A)
    e2 = 0.5 * (trA ** 2 - np.einsum("...ij,...ji->...", A, A))
    ric = (k - 1) * ambient.sectional * np.einsum(
        "...a,...ab,...b->...", N[..., :k], G[..., :k, :k], N[..., :k])
    fields = dict(
        point=x, tangent=tx, metric=g, metric_inv=ginv,
        area_element=np.sqrt(np.linalg.det(g)), normal=N, second_form=h,
        shape_operator=A, mean_curvature=eps / n * trA,
        scalar_curvature=ambient.scalar_curvature - 2.0 * eps * ric
        + 2.0 * eps * e2,
        ricci_normal=ric, theta=np.einsum("...a,...a->...", N, GT),
        tau=np.einsum("...ij,...jb,...b->...i", ginv, tx, GT))
    if ((ambient.epsilon < 0 or ambient.kind == "product")
            and np.any(fields["theta"] > 0.0)):
        for key in _ODD_IN_N:
            fields[key] = -fields[key]
    return fields


# --------------------------------------------------------------------------
# one identity check, with its convergence order
# --------------------------------------------------------------------------

def run_check(surface, name: str, resolution: int) -> CheckResult:
    """The identity check ``CHECKS[name]`` between ``resolution`` and
    ``2 * resolution``, paired by ``identities._attach_order``: the record
    that ``run_suite(refine=1)`` reports for it.

    Each bundle is a new ``FrameFields``, so its frame comes from
    ``calculus.frame_at`` as it stands when the check runs (a test may
    have wrapped it).
    """
    fine_resolution = 2 * resolution
    coarse, fine = (
        CHECKS[name](FrameFields(surface, QuadratureGrid.build(surface.axes, r)))
        for r in (resolution, fine_resolution))
    return _attach_order(coarse, fine, resolution, fine_resolution)


# --------------------------------------------------------------------------
# parameters folded into the chart
# --------------------------------------------------------------------------

def fold_params(axes, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameters past a chart's edges, folded back into it by the deck maps.

    Periodic axes wrap.  A point past a polar edge reflects through it, and
    the partner axes listed in its ``shift`` and ``reverse`` move as the
    ``AxisSpec`` says; one reflection per axis, ample for stencil-sized
    excursions.  ``signs`` holds the diagonal Jacobian of the fold, the
    sign each coordinate direction picks up: -1 on the reflected axis and
    its ``reverse`` axes, whose directions turn, and +1 on the others (a
    ``shift`` axis only translates).  So a tensor at the unfolded point is
    its folded value times one sign per index.  The whole block is folded,
    one ``np.where`` per edge and partner axis.
    """
    s = np.array(np.asarray(s, dtype=float), copy=True)
    signs = np.ones_like(s)
    for a, ax in enumerate(axes):
        if ax.kind != "polar_cos":
            continue
        for edge, beyond in ((ax.lo, s[..., a] < ax.lo), (ax.hi, s[..., a] > ax.hi)):
            if not np.any(beyond):
                continue
            s[..., a] = np.where(beyond, 2.0 * edge - s[..., a], s[..., a])
            for p in ax.shift:
                s[..., p] = np.where(beyond, s[..., p] + 0.5 * axes[p].period,
                                     s[..., p])
            for r in ax.reverse:
                s[..., r] = np.where(beyond, axes[r].lo + axes[r].hi - s[..., r],
                                     s[..., r])
            flip_vec = np.ones(len(axes))
            flip_vec[[a, *ax.reverse]] = -1.0
            signs = np.where(beyond[..., None], signs * flip_vec, signs)
    for a, ax in enumerate(axes):
        if ax.kind == "periodic":
            s[..., a] = ax.lo + np.mod(s[..., a] - ax.lo, ax.period)
    return s, signs


# --------------------------------------------------------------------------
# the intrinsic-curvature oracle at scattered points
# --------------------------------------------------------------------------

def oracle_at(surface, s: np.ndarray, step: float | np.ndarray = 1e-3
              ) -> np.ndarray:
    """Scalar curvature from metric samples at arbitrary points ``s``.

    The package's oracle runs on a quadrature grid at a step it reads from
    the nodes.  This route runs the same finite-difference assembly
    (``shape._fd_scalar_curvature``) at any points and any ``step`` (a
    scalar or one value per axis), sampling every stencil offset of every
    point on its own: the oracle's route on grids whose last axis is open.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[-1]
    h = np.broadcast_to(np.asarray(step, dtype=float), (n,)).astype(float)
    g_at = shape.induced_metric_sampler(surface)
    return shape._fd_scalar_curvature(g_at, s.reshape(-1, n), h).reshape(
        s.shape[:-1])


# --------------------------------------------------------------------------
# a graph whose metric is not diagonal
# --------------------------------------------------------------------------

def cartesian_height(base, epsilon: int) -> GraphSurface:
    """Graph of 0.3 x_1, a Cartesian coordinate of the unit sphere S^2 or
    S^3: smooth on the sphere, so its chart formulas extend across poles
    and seams, and its metric has off-diagonal terms there."""
    def u(s):
        return 0.3 * np.prod(np.sin(s[..., :-1]), axis=-1) * np.cos(s[..., -1])

    def du(s):
        sines, phi = np.sin(s[..., :-1]), s[..., -1]
        out = np.empty(s.shape)
        for a in range(s.shape[-1] - 1):
            others = np.prod(np.delete(sines, a, axis=-1), axis=-1)
            out[..., a] = 0.3 * others * np.cos(s[..., a]) * np.cos(phi)
        out[..., -1] = -0.3 * np.prod(sines, axis=-1) * np.sin(phi)
        return out

    def d2u(s):
        raise AssertionError("not needed for the metric")

    return GraphSurface(name=f"x1_over_{base.name}",
                        ambient=make_product(base, epsilon), u=u, du=du, d2u=d2u)


# --------------------------------------------------------------------------
# closed-form graph quantities
# --------------------------------------------------------------------------

def graph_theta(graph: GraphSurface, s: np.ndarray) -> np.ndarray:
    """Normal angle function of a graph: ``theta = -1 / sqrt(1 + eps |Du|^2)``.

    Always strictly negative; in the Lorentzian case ``theta <= -1`` and the
    spacelike condition ``|Du|^2 < 1`` is enforced.
    """
    s = np.asarray(s, dtype=float)
    return -1.0 / np.sqrt(_spacelike_w(graph, graph.du(s), s))


def graph_second_form(graph: GraphSurface, s: np.ndarray) -> np.ndarray:
    """Second fundamental form of a graph in an orthonormal base frame.

    Components are ``h(E_i, E_j) = -D^2 u(E_i, E_j) / sqrt(1 + eps |Du|^2)``
    for a ``g_M``-orthonormal frame ``E_i`` (built from the inverse Cholesky
    factor of the base metric), matching the frame route up to the frame
    change.
    """
    s = np.asarray(s, dtype=float)
    du = graph.du(s)
    W = _spacelike_w(graph, du, s)
    hess = _covariant_hessian(graph.base, du, graph.d2u(s), s)
    gM = graph.base.metric_at(s)
    L = np.linalg.cholesky(gM)
    E = np.swapaxes(_smallmat.inv(L), -1, -2)      # columns: orthonormal frame
    framed = np.einsum("...ia,...ab,...bj->...ij", np.swapaxes(E, -1, -2), hess, E)
    return -framed / np.sqrt(W)[..., None, None]


def closed_form_gradient_sq(epsilon: int, K: float, x0) -> np.ndarray:
    """|Du|^2 = f'^2 (x0^2 - 1) of the radial graph, in closed form."""
    check_curvature_range(epsilon, K)
    x0 = _gate_x0(x0)
    return (epsilon * (1.0 + K) * (x0 ** 2 - 1.0)
            / (1.0 - K * (x0 ** 2 - 1.0)))
