"""Ambient spaces: product manifolds M^n x R and constant-curvature spaces.

The package studies oriented hypersurfaces of an (n+1)-dimensional ambient
that is either

* a metric product ``M^n x R`` of a base manifold with a line, with metric
  ``g_M + epsilon dt^2`` (``epsilon = +1`` Riemannian, ``epsilon = -1``
  Lorentzian, in which case spacelike hypersurfaces are the objects of
  interest), or
* a simply connected space of constant sectional curvature ``c`` (Euclidean
  3-space, Minkowski 3-space, the unit 3-sphere).

Every ambient carries a distinguished conformal Killing field ``T`` with
conformal factor ``phi`` (so that symmetrizing the covariant derivative of
``T`` gives ``2 phi`` times the metric).  The products carry the parallel
unit field along the line (``phi = 0``), the flat spaces the homothetic
position field (``phi = 1``), and the round 3-sphere a Hopf circle field
(a genuine Killing field, ``phi = 0``).

Curvature sign conventions used throughout the package::

    R(X, Y)Z = grad_[X,Y] Z - grad_X grad_Y Z + grad_Y grad_X Z

so a space of constant sectional curvature ``c`` has
``R(X, Y)Z = c (<X, Z> Y - <Y, Z> X)`` and the Ricci quadratic form of the
unit round sphere is positive.  In chart components, with
``Gamma^k_ij`` the Christoffel symbols,

    R^d_abc = d_b Gamma^d_ac - d_a Gamma^d_bc
              + Gamma^e_ac Gamma^d_be - Gamma^e_bc Gamma^d_ae

and all of this is verified against finite differences in the test suite.

All chart callables are array-aware: points have shape ``(..., dim)`` and
outputs carry matching batch dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingKillingData, ParameterOutOfRange
from .reports import CheckResult

__all__ = [
    "AxisSpec",
    "BaseManifold",
    "KillingData",
    "AmbientSpace",
    "round_sphere",
    "projective_plane",
    "hyperbolic_plane",
    "flat_torus",
    "round_three_sphere",
    "make_product",
    "make_ambient",
    "ambient_keys",
    "christoffel_fd",
    "curvature_operator_fd",
    "verify_conformal_killing",
]


# --------------------------------------------------------------------------
# chart axes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    """One coordinate axis of a parameter chart, with its boundary behaviour.

    ``kind`` is one of

    * ``"periodic"``   -- the coordinate wraps with period ``hi - lo``;
    * ``"polar_cos"``  -- a colatitude-type axis; quadrature nodes are
      Gauss-Legendre in ``cos`` (linear clustering at the endpoints, which
      keeps pole-adjacent stencils stable); crossing an endpoint re-enters
      the chart;
    * ``"open"``       -- a plain interval, no identification (derivatives
      fall back to one-sided stencils at the two extreme node layers).

    For the polar kinds, walking past an endpoint lands back in the chart at
    reflected coordinates: the axis itself maps ``t -> 2*edge - t``, every
    axis listed in ``shift`` advances by half its period, and every axis in
    ``reverse`` maps ``t -> lo + hi - t``.  ``flip`` lists the axes whose
    coordinate *direction* reverses under this identification (the Jacobian
    of the deck map is the corresponding diagonal sign matrix); tensor
    components pick up one such sign per index, which is exactly what the
    ghost-node machinery in :mod:`prodsurf.calculus` applies.
    """

    name: str
    lo: float
    hi: float
    kind: str
    shift: tuple[int, ...] = ()
    reverse: tuple[int, ...] = ()
    flip: tuple[int, ...] = ()

    @property
    def period(self) -> float:
        return self.hi - self.lo

    @property
    def polar(self) -> bool:
        return self.kind == "polar_cos"


# --------------------------------------------------------------------------
# base manifolds for the product ambients
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseManifold:
    """A base manifold ``M^n`` (n = 2 or 3) presented in a single chart.

    ``curvature_at`` returns the Ricci proportionality factor ``kappa`` with
    ``Ric_M = kappa * g_M`` pointwise: the Gauss curvature for n = 2, the
    Einstein constant (a third of the scalar curvature) for the round
    3-sphere.  The sectional curvature, where constant, is
    ``kappa / (dim - 1)``.
    """

    name: str
    dim: int
    axes: tuple[AxisSpec, ...]
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_inverse_at: Callable[[np.ndarray], np.ndarray]
    metric_det_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    curvature_at: Callable[[np.ndarray], np.ndarray]
    compact: bool
    constant_curvature: bool
    quotient_factor: float = 1.0


def _const_field(value: float):
    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], value)
    return f


def round_sphere() -> BaseManifold:
    """Unit round 2-sphere in colatitude/longitude coordinates (theta, phi)."""

    def metric(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return g

    def metric_inv(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(x[..., 0]) ** -2
        return g

    def metric_det(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0]) ** 2

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        th = x[..., 0]
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        G[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = np.cos(th) / np.sin(th)
        return G

    axes = (
        AxisSpec("theta", 0.0, np.pi, "polar_cos", shift=(1,), flip=(0,)),
        AxisSpec("phi", 0.0, 2.0 * np.pi, "periodic"),
    )
    return BaseManifold("S2", 2, axes, metric, metric_inv, metric_det,
                        christoffel, _const_field(1.0), compact=True,
                        constant_curvature=True)


def projective_plane() -> BaseManifold:
    """Real projective plane as the antipodal quotient of the round sphere.

    The chart and metric are those of the covering sphere; integrals carry a
    factor 1/2, and only antipodally even functions (``u(pi - theta,
    phi + pi) = u(theta, phi)``) descend to the quotient -- graph scenarios
    over this base must respect that symmetry.
    """
    s2 = round_sphere()
    return BaseManifold("RP2", 2, s2.axes, s2.metric_at, s2.metric_inverse_at,
                        s2.metric_det_at, s2.christoffel_at, s2.curvature_at,
                        compact=True, constant_curvature=True,
                        quotient_factor=0.5)


def hyperbolic_plane(box: float = 1.2) -> BaseManifold:
    """Hyperbolic plane as the upper hyperboloid sheet, graph coordinates.

    Points are ``(x1, x2)`` with ``x0 = sqrt(1 + x1^2 + x2^2)`` the height on
    the hyperboloid ``<x, x> = -1`` in Minkowski 3-space.  In these
    coordinates ``g_ij = delta_ij - x_i x_j / x0^2`` and the Christoffel
    symbols collapse to ``Gamma^k_ij = -x_k g_ij``.  ``box`` fixes the
    nominal sampling window ``[-box, box]^2``; the chart itself is global.
    """

    def _x0sq(x):
        return 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2

    def metric(x):
        x = np.asarray(x, dtype=float)
        x0sq = _x0sq(x)
        g = np.zeros(x.shape[:-1] + (2, 2))
        for i in range(2):
            for j in range(2):
                g[..., i, j] = (1.0 if i == j else 0.0) - x[..., i] * x[..., j] / x0sq
        return g

    def metric_inv(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        for i in range(2):
            for j in range(2):
                g[..., i, j] = (1.0 if i == j else 0.0) + x[..., i] * x[..., j]
        return g

    def metric_det(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / _x0sq(x)

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        g = metric(x)
        return -x[..., :, None, None] * g[..., None, :, :]

    axes = (
        AxisSpec("x1", -box, box, "open"),
        AxisSpec("x2", -box, box, "open"),
    )
    return BaseManifold("H2", 2, axes, metric, metric_inv, metric_det,
                        christoffel, _const_field(-1.0), compact=False,
                        constant_curvature=True)


def flat_torus() -> BaseManifold:
    """Flat square 2-torus with side ``2 pi``."""

    def metric(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        return g

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    axes = (
        AxisSpec("s1", 0.0, 2.0 * np.pi, "periodic"),
        AxisSpec("s2", 0.0, 2.0 * np.pi, "periodic"),
    )
    return BaseManifold("T2", 2, axes, metric, metric, _const_field(1.0),
                        christoffel, _const_field(0.0), compact=True,
                        constant_curvature=True)


def round_three_sphere() -> BaseManifold:
    """Unit round 3-sphere in hyperspherical coordinates (chi, theta, phi).

    The metric is ``dchi^2 + sin^2(chi) (dtheta^2 + sin^2(theta) dphi^2)``;
    both chi and theta are colatitude-type axes with pole identifications.
    """

    def metric(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (3, 3))
        schi2 = np.sin(x[..., 0]) ** 2
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = schi2
        g[..., 2, 2] = schi2 * np.sin(x[..., 1]) ** 2
        return g

    def metric_inv(x):
        g = metric(x)
        out = np.zeros_like(g)
        for i in range(3):
            out[..., i, i] = 1.0 / g[..., i, i]
        return out

    def metric_det(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0]) ** 4 * np.sin(x[..., 1]) ** 2

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        chi, th = x[..., 0], x[..., 1]
        G = np.zeros(x.shape[:-1] + (3, 3, 3))
        s_chi, c_chi = np.sin(chi), np.cos(chi)
        s_th, c_th = np.sin(th), np.cos(th)
        G[..., 0, 1, 1] = -s_chi * c_chi
        G[..., 0, 2, 2] = -s_chi * c_chi * s_th ** 2
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = c_chi / s_chi
        G[..., 1, 2, 2] = -s_th * c_th
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = c_chi / s_chi
        G[..., 2, 1, 2] = G[..., 2, 2, 1] = c_th / s_th
        return G

    axes = (
        AxisSpec("chi", 0.0, np.pi, "polar_cos", shift=(2,), reverse=(1,), flip=(0, 1)),
        AxisSpec("theta", 0.0, np.pi, "polar_cos", shift=(2,), flip=(1,)),
        AxisSpec("phi", 0.0, 2.0 * np.pi, "periodic"),
    )
    return BaseManifold("S3", 3, axes, metric, metric_inv, metric_det,
                        christoffel, _const_field(2.0), compact=True,
                        constant_curvature=True)


# --------------------------------------------------------------------------
# conformal Killing data
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KillingData:
    """A conformal Killing field ``T`` of an ambient space.

    ``jacobian_at`` returns the chart partials ``J[..., a, b] = d_b T^a``;
    it is analytic for every built-in field (checks fall back to central
    differences when it is absent).  ``conformal_factor`` is the function
    ``phi`` with ``<grad_V T, W> + <V, grad_W T> = 2 phi <V, W>``; a genuine
    Killing field has ``phi = 0``, the homothetic position field ``phi = 1``.
    """

    name: str
    field_at: Callable[[np.ndarray], np.ndarray]
    conformal_factor: Callable[[np.ndarray], np.ndarray]
    factor_gradient: Callable[[np.ndarray], np.ndarray]
    jacobian_at: Callable[[np.ndarray], np.ndarray] | None = None

    def normal_derivative_of_factor(self, point: np.ndarray,
                                    normal: np.ndarray) -> np.ndarray:
        """Directional derivative of the conformal factor along ``normal``."""
        grad = self.factor_gradient(point)
        return np.einsum("...a,...a->...", np.asarray(normal, dtype=float), grad)


def _zero_vector_field(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape)


# --------------------------------------------------------------------------
# ambient spaces
# --------------------------------------------------------------------------

@dataclass(eq=False)
class AmbientSpace:
    """A product ``M^n x R`` or a constant-curvature space, with chart data.

    ``epsilon`` is the metric sign of the distinguished direction: for
    products it is the coefficient of ``dt^2``; for space forms it is ``-1``
    exactly when the signature is Lorentzian.  Spacelike hypersurfaces have
    unit normals squaring to this sign.
    """

    name: str
    kind: str                      # "product" | "space_form"
    dim: int
    signature: str                 # "riemannian" | "lorentzian"
    epsilon: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_inverse_at: Callable[[np.ndarray], np.ndarray]
    metric_det_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    is_einstein: bool
    base: BaseManifold | None = None
    c: float | None = None
    killing: KillingData | None = None

    # -- inner products -----------------------------------------------------

    def inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        G = self.metric_at(x)
        return np.einsum("...a,...ab,...b->...", np.asarray(u, dtype=float),
                         G, np.asarray(v, dtype=float))

    # -- curvature ----------------------------------------------------------

    def curvature_operator(self, x: np.ndarray, X: np.ndarray,
                           Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """``R(X, Y)Z`` in chart components (see module docstring for signs)."""
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        Z = np.asarray(Z, dtype=float)
        if self.kind == "space_form":
            ip_xz = self.inner(x, X, Z)
            ip_yz = self.inner(x, Y, Z)
            return self.c * (ip_xz[..., None] * Y - ip_yz[..., None] * X)
        nb = self.base.dim
        m = x[..., :nb]
        gM = self.base.metric_at(m)
        kappa = self.base.curvature_at(m)
        c_sec = kappa / (nb - 1)
        Xb, Yb, Zb = X[..., :nb], Y[..., :nb], Z[..., :nb]
        ip_xz = np.einsum("...i,...ij,...j->...", Xb, gM, Zb)
        ip_yz = np.einsum("...i,...ij,...j->...", Yb, gM, Zb)
        out = np.zeros(np.broadcast(X, Y, Z).shape)
        out[..., :nb] = c_sec[..., None] * (ip_xz[..., None] * Yb
                                            - ip_yz[..., None] * Xb)
        return out

    def ricci_quadratic(self, x: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The Ricci form ``Ric(V, V)`` (positive on round spheres)."""
        x = np.asarray(x, dtype=float)
        V = np.asarray(V, dtype=float)
        if self.kind == "space_form":
            return (self.dim - 1) * self.c * self.inner(x, V, V)
        nb = self.base.dim
        m = x[..., :nb]
        gM = self.base.metric_at(m)
        Vb = V[..., :nb]
        ip = np.einsum("...i,...ij,...j->...", Vb, gM, Vb)
        return self.base.curvature_at(m) * ip

    def scalar_curvature(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "space_form":
            return np.full(x.shape[:-1], self.dim * (self.dim - 1) * self.c)
        nb = self.base.dim
        return nb * self.base.curvature_at(x[..., :nb])


# --------------------------------------------------------------------------
# product ambients
# --------------------------------------------------------------------------

def make_product(base: BaseManifold, epsilon: int) -> AmbientSpace:
    """The metric product of ``base`` with a line, ``g_M + epsilon dt^2``.

    The distinguished conformal Killing field is the parallel unit field
    along the line (genuinely Killing: ``phi = 0``).
    """
    if epsilon not in (+1, -1):
        raise ParameterOutOfRange(f"product sign must be +1 or -1, got {epsilon}")
    nb = base.dim
    d = nb + 1

    def metric(x):
        x = np.asarray(x, dtype=float)
        G = np.zeros(x.shape[:-1] + (d, d))
        G[..., :nb, :nb] = base.metric_at(x[..., :nb])
        G[..., nb, nb] = float(epsilon)
        return G

    def metric_inv(x):
        x = np.asarray(x, dtype=float)
        G = np.zeros(x.shape[:-1] + (d, d))
        G[..., :nb, :nb] = base.metric_inverse_at(x[..., :nb])
        G[..., nb, nb] = float(epsilon)   # 1/epsilon == epsilon
        return G

    def metric_det(x):
        x = np.asarray(x, dtype=float)
        return float(epsilon) * base.metric_det_at(x[..., :nb])

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        G = np.zeros(x.shape[:-1] + (d, d, d))
        G[..., :nb, :nb, :nb] = base.christoffel_at(x[..., :nb])
        return G

    def unit_t(x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape)
        T[..., nb] = 1.0
        return T

    def zero_jac(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (d,))

    killing = KillingData(
        name="vertical",
        field_at=unit_t,
        conformal_factor=_const_field(0.0),
        factor_gradient=_zero_vector_field,
        jacobian_at=zero_jac,
    )
    suffix = "xR" if epsilon > 0 else "xR1"
    return AmbientSpace(
        name=base.name + suffix,
        kind="product",
        dim=d,
        signature="riemannian" if epsilon > 0 else "lorentzian",
        epsilon=epsilon,
        metric_at=metric,
        metric_inverse_at=metric_inv,
        metric_det_at=metric_det,
        christoffel_at=christoffel,
        # A metric product with a line is Einstein only when it is Ricci
        # flat, i.e. when the base is flat.
        is_einstein=bool(
            base.constant_curvature
            and base.curvature_at(
                np.array([0.5 * (ax.lo + ax.hi) for ax in base.axes])) == 0.0),
        base=base,
        killing=killing,
    )


# --------------------------------------------------------------------------
# space forms
# --------------------------------------------------------------------------

def _flat_space_form(lorentzian: bool) -> AmbientSpace:
    """Euclidean or Minkowski 3-space with the homothetic position field.

    Minkowski space puts its time axis first.
    """
    d = 3
    eta = np.diag([-1.0, 1.0, 1.0]) if lorentzian else np.eye(3)

    def metric(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(eta, x.shape[:-1] + (d, d)).copy()

    def metric_det(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], -1.0 if lorentzian else 1.0)

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (d, d, d))

    def position(x):
        return np.asarray(x, dtype=float).copy()

    def position_jac(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()

    killing = KillingData(
        name="homothetic_position",
        field_at=position,
        conformal_factor=_const_field(1.0),
        factor_gradient=_zero_vector_field,
        jacobian_at=position_jac,
    )
    return AmbientSpace(
        name="R3_1" if lorentzian else "R3",
        kind="space_form",
        dim=d,
        signature="lorentzian" if lorentzian else "riemannian",
        epsilon=-1 if lorentzian else +1,
        metric_at=metric,
        metric_inverse_at=metric,
        metric_det_at=metric_det,
        christoffel_at=christoffel,
        is_einstein=True,
        c=0.0,
        killing=killing,
    )


def _round_sphere_form() -> AmbientSpace:
    """The unit round 3-sphere with a Hopf Killing field."""
    s3 = round_three_sphere()

    def hopf(x):
        x = np.asarray(x, dtype=float)
        chi, th = x[..., 0], x[..., 1]
        T = np.zeros(x.shape)
        T[..., 0] = np.cos(th)
        T[..., 1] = -np.sin(th) * np.cos(chi) / np.sin(chi)
        T[..., 2] = 1.0
        return T

    def hopf_jac(x):
        x = np.asarray(x, dtype=float)
        chi, th = x[..., 0], x[..., 1]
        J = np.zeros(x.shape + (3,))
        J[..., 0, 1] = -np.sin(th)
        J[..., 1, 0] = np.sin(th) / np.sin(chi) ** 2
        J[..., 1, 1] = -np.cos(th) * np.cos(chi) / np.sin(chi)
        return J

    killing = KillingData(
        name="hopf_circle",
        field_at=hopf,
        conformal_factor=_const_field(0.0),
        factor_gradient=_zero_vector_field,
        jacobian_at=hopf_jac,
    )
    return AmbientSpace(
        name="S3",
        kind="space_form",
        dim=3,
        signature="riemannian",
        epsilon=+1,
        metric_at=s3.metric_at,
        metric_inverse_at=s3.metric_inverse_at,
        metric_det_at=s3.metric_det_at,
        christoffel_at=s3.christoffel_at,
        is_einstein=True,
        c=1.0,
        killing=killing,
    )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_AMBIENT_FACTORIES: dict[str, Callable[[], AmbientSpace]] = {
    "S2xR": lambda: make_product(round_sphere(), +1),
    "S2xR1": lambda: make_product(round_sphere(), -1),
    "RP2xR": lambda: make_product(projective_plane(), +1),
    "RP2xR1": lambda: make_product(projective_plane(), -1),
    "H2xR": lambda: make_product(hyperbolic_plane(), +1),
    "H2xR1": lambda: make_product(hyperbolic_plane(), -1),
    "T2xR": lambda: make_product(flat_torus(), +1),
    "T2xR1": lambda: make_product(flat_torus(), -1),
    "S3xR": lambda: make_product(round_three_sphere(), +1),
    "S3xR1": lambda: make_product(round_three_sphere(), -1),
    "R3_homothetic": lambda: _flat_space_form(lorentzian=False),
    "R31_minkowski": lambda: _flat_space_form(lorentzian=True),
    "S3_hopf": _round_sphere_form,
}


def ambient_keys() -> tuple[str, ...]:
    return tuple(sorted(_AMBIENT_FACTORIES))


def make_ambient(key: str) -> AmbientSpace:
    """Instantiate a registered ambient by name (see ``ambient_keys``)."""
    try:
        factory = _AMBIENT_FACTORIES[key]
    except KeyError:
        raise ParameterOutOfRange(
            f"unknown ambient {key!r}; known: {', '.join(ambient_keys())}"
        ) from None
    return factory()


# --------------------------------------------------------------------------
# finite-difference validators
# --------------------------------------------------------------------------

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
    outer ones by central differences.  Used in tests to pin the sign
    convention of ``curvature_operator``.
    """
    x = np.asarray(x, dtype=float)
    X = np.broadcast_to(np.asarray(X, dtype=float), x.shape).copy()
    Y = np.broadcast_to(np.asarray(Y, dtype=float), x.shape).copy()
    Z = np.broadcast_to(np.asarray(Z, dtype=float), x.shape).copy()
    d = x.shape[-1]

    def nabla(direction, field_fn, pt):
        # grad_direction field, with field given as a function of the point
        Gam = ambient.christoffel_at(pt)
        val = field_fn(pt)
        out = np.einsum("...kbc,...b,...c->...k", Gam, direction, val)
        for b in range(d):
            e = np.zeros(d)
            e[b] = step
            dfield = (field_fn(pt + e) - field_fn(pt - e)) / (2.0 * step)
            out += direction[..., b, None] * dfield
        return out

    grad_y_z = lambda pt: np.einsum("...kbc,...b,...c->...k",
                                    ambient.christoffel_at(pt), Y, Z)
    grad_x_z = lambda pt: np.einsum("...kbc,...b,...c->...k",
                                    ambient.christoffel_at(pt), X, Z)
    return -nabla(X, grad_y_z, x) + nabla(Y, grad_x_z, x)


def verify_conformal_killing(ambient: AmbientSpace, points: np.ndarray,
                             fd_step: float = 1e-6,
                             tolerance: float = 1e-7) -> CheckResult:
    """Check the conformal Killing equation of the ambient's field at points.

    The equation is bilinear in the two directions, so it holds for all
    vector pairs iff the symmetrized lowered covariant derivative equals
    ``2 phi`` times the metric componentwise; the check is on components and
    needs no direction sampling.
    """
    if ambient.killing is None:
        raise MissingKillingData(f"ambient {ambient.name} carries no Killing data")
    x = np.asarray(points, dtype=float)
    d = x.shape[-1]
    K = ambient.killing
    T = K.field_at(x)
    if K.jacobian_at is not None:
        J = K.jacobian_at(x)
    else:
        J = np.zeros(x.shape + (d,))
        for b in range(d):
            e = np.zeros(d)
            e[b] = fd_step
            J[..., :, b] = (K.field_at(x + e) - K.field_at(x - e)) / (2.0 * fd_step)
    Gam = ambient.christoffel_at(x)
    G = ambient.metric_at(x)
    # covariant derivative (a up, b down), then lower the upper index
    covJ = J + np.einsum("...abc,...c->...ab", Gam, T)
    lowered = np.einsum("...ka,...ab->...kb", G, covJ)   # (grad T)_{k;b}
    phi = K.conformal_factor(x)
    resid = lowered + np.swapaxes(lowered, -1, -2) - 2.0 * phi[..., None, None] * G
    worst = float(np.max(np.abs(resid))) if resid.size else 0.0
    return CheckResult(
        name="conformal_killing",
        scenario=ambient.name,
        resolution=int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1,
        max_residual=worst,
        passed=bool(worst <= tolerance),
        tolerance=tolerance,
        note=f"field={K.name}",
    )
