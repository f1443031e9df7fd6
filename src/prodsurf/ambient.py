"""Ambient spaces: product manifolds M^n x R and constant-curvature spaces.

The package studies oriented hypersurfaces of an (n+1)-dimensional ambient
that is either

* a metric product ``M^n x R`` of a base manifold with a line, with metric
  ``g_M + epsilon dt^2`` (``epsilon = +1`` Riemannian, ``epsilon = -1``
  Lorentzian, in which case spacelike hypersurfaces are the objects of
  interest), or
* a simply connected space of constant sectional curvature (Euclidean
  3-space, Minkowski 3-space, the unit 3-sphere).

Every base has constant curvature too, so each ambient's curvature is one
number, ``AmbientSpace.sectional``, read through one model (see there).

Every ambient carries a distinguished conformal Killing field ``T`` with
conformal factor ``phi`` (so that symmetrizing the covariant derivative of
``T`` gives ``2 phi`` times the metric).  The products carry the parallel
unit field along the line (``phi = 0``), the flat spaces the homothetic
position field (``phi = 1``), and the round 3-sphere a Hopf circle field
(a genuine Killing field, ``phi = 0``).  On every ambient ``phi`` is a
constant, so its normal derivative ``dphi/dN`` vanishes and no check
evaluates it.

Curvature sign conventions used throughout the package::

    R(X, Y)Z = grad_[X,Y] Z - grad_X grad_Y Z + grad_Y grad_X Z

so a block of constant sectional curvature ``sectional`` has
``R(X, Y)Z = sectional (<X, Z> Y - <Y, Z> X)`` and the Ricci quadratic
form of the unit round sphere is positive.  In chart components, with
``Gamma^k_ij`` the Christoffel symbols,

    R^d_abc = d_b Gamma^d_ac - d_a Gamma^d_bc
              + Gamma^e_ac Gamma^d_be - Gamma^e_bc Gamma^d_ae

and all of this is verified against finite differences in the test suite.

All chart callables are array-aware: points have shape ``(..., dim)`` (an
ambient's take its curved block's ``(..., curved)``, see ``AmbientSpace``)
and outputs carry matching batch dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange

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
    ``reverse`` maps ``t -> lo + hi - t``.  So the deck map's Jacobian is
    diagonal, with sign -1 on the crossing axis and on the ``reverse`` axes
    and +1 on the rest (a ``shift`` only translates), and tensor components
    pick up one such sign per index; the signs are read from these two
    declarations, never declared on their own.  These deck maps serve the
    grid stencils' ghost nodes alone (:mod:`prodsurf.calculus`), which
    continue sampled arrays across an endpoint; the intrinsic-curvature
    oracle samples a surface's continued chart formulas there instead.
    """

    name: str
    lo: float
    hi: float
    kind: str
    shift: tuple[int, ...] = ()
    reverse: tuple[int, ...] = ()

    @property
    def period(self) -> float:
        return self.hi - self.lo


# --------------------------------------------------------------------------
# base manifolds for the product ambients
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseManifold:
    """A base manifold ``M^n`` (n = 2 or 3) presented in a single chart.

    ``kappa`` is the constant Ricci factor with ``Ric_M = kappa * g_M``:
    the Gauss curvature for n = 2, the Einstein constant (a third of the
    scalar curvature) for the round 3-sphere.  Every base has constant
    sectional curvature ``kappa / (dim - 1)``.  ``metric_at`` returns a new
    array on every call; ``GraphSurface.induced_metric`` adds to it in
    place.
    """

    name: str
    dim: int
    axes: tuple[AxisSpec, ...]
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_inverse_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    kappa: float
    compact: bool
    quotient_factor: float = 1.0


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

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        th = x[..., 0]
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        G[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = np.cos(th) / np.sin(th)
        return G

    axes = (
        AxisSpec("theta", 0.0, np.pi, "polar_cos", shift=(1,)),
        AxisSpec("phi", 0.0, 2.0 * np.pi, "periodic"),
    )
    return BaseManifold("S2", 2, axes, metric, metric_inv, christoffel,
                        1.0, compact=True)


def projective_plane() -> BaseManifold:
    """Real projective plane as the antipodal quotient of the round sphere.

    The chart and metric are those of the covering sphere; integrals carry a
    factor 1/2, and only antipodally even functions (``u(pi - theta,
    phi + pi) = u(theta, phi)``) descend to the quotient -- the catalog
    gates every graph over a quotient base on that symmetry.
    """
    return replace(round_sphere(), name="RP2", quotient_factor=0.5)


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

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        g = metric(x)
        return -x[..., :, None, None] * g[..., None, :, :]

    axes = (
        AxisSpec("x1", -box, box, "open"),
        AxisSpec("x2", -box, box, "open"),
    )
    return BaseManifold("H2", 2, axes, metric, metric_inv, christoffel,
                        -1.0, compact=False)


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
    return BaseManifold("T2", 2, axes, metric, metric, christoffel,
                        0.0, compact=True)


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
        AxisSpec("chi", 0.0, np.pi, "polar_cos", shift=(2,), reverse=(1,)),
        AxisSpec("theta", 0.0, np.pi, "polar_cos", shift=(2,)),
        AxisSpec("phi", 0.0, 2.0 * np.pi, "periodic"),
    )
    return BaseManifold("S3", 3, axes, metric, metric_inv, christoffel,
                        2.0, compact=True)


# --------------------------------------------------------------------------
# conformal Killing data
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KillingData:
    """A conformal Killing field ``T`` of an ambient space.

    ``field_at`` returns the chart components of ``T``, which the frames
    read.  ``conformal_factor`` is the constant ``phi`` with
    ``<grad_V T, W> + <V, grad_W T> = 2 phi <V, W>``; a genuine Killing
    field has ``phi = 0``, the homothetic position field ``phi = 1``.
    """

    field_at: Callable[[np.ndarray], np.ndarray]
    conformal_factor: float


# --------------------------------------------------------------------------
# ambient spaces
# --------------------------------------------------------------------------

@dataclass(eq=False)
class AmbientSpace:
    """A product ``M^n x R`` or a constant-curvature space, with chart data.

    ``epsilon`` is the metric sign of the distinguished direction: for
    products it is the coefficient of ``dt^2``; for space forms it is ``-1``
    exactly when the signature is Lorentzian.  Spacelike hypersurfaces have
    unit normals squaring to this sign.  ``killing`` is the distinguished
    conformal Killing field, which every ambient carries.

    One curvature model serves both kinds.  The first ``curved`` chart
    coordinates (all ``dim`` of a space form, ``base.dim`` of a product)
    form a block of constant sectional curvature ``sectional``; a product's
    line is flat.  With vectors cut to the block and ``< , >`` its metric
    (a product's base metric)

        R(X, Y)Z  = sectional (<X, Z> Y - <Y, Z> X),
        Ric(V, V) = (curved - 1) sectional <V, V>,
        Sbar      = curved (curved - 1) sectional,

    and the ambient is Einstein iff it is a space form or ``sectional == 0``.
    The chart callables are the curved block's too, at ``x[..., :curved]``:
    a product's are its base's, and its line is flat, with metric ``epsilon``.
    """

    name: str
    dim: int
    epsilon: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_inverse_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    killing: KillingData
    sectional: float
    base: BaseManifold | None = None

    @property
    def kind(self) -> str:
        return "space_form" if self.base is None else "product"

    @property
    def curved(self) -> int:
        return (self.base or self).dim

    @property
    def is_einstein(self) -> bool:
        return self.base is None or self.sectional == 0.0

    @property
    def scalar_curvature(self) -> float:
        """The constant ambient scalar curvature ``Sbar``."""
        return self.curved * (self.curved - 1) * self.sectional

    def curvature_operator(self, C: np.ndarray, X: np.ndarray,
                           Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The curved block's ``curved`` components of ``R(X, Y)Z`` (see
        module docstring for signs; a product's line part is 0), with ``C``
        the curved block's metric at the points, as in ``lower``: a caller
        with many vectors per point evaluates the metric once."""
        X, Y, Z = (np.asarray(v, dtype=float)[..., :self.curved]
                   for v in (X, Y, Z))
        ip_xz = np.einsum("...i,...ij,...j->...", X, C, Z)
        ip_yz = np.einsum("...i,...ij,...j->...", Y, C, Z)
        return self.sectional * (ip_xz[..., None] * Y - ip_yz[..., None] * X)

    def lower(self, C: np.ndarray, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``G V = (C V_b, epsilon V_line)`` into ``out``; ``C^-1`` raises."""
        k = self.curved
        np.einsum("...ab,...b->...a", C, V[..., :k], out=out[..., :k])
        np.multiply(self.epsilon, V[..., k:], out=out[..., k:])
        return out


# --------------------------------------------------------------------------
# product ambients
# --------------------------------------------------------------------------

def make_product(base: BaseManifold, epsilon: int) -> AmbientSpace:
    """The metric product of ``base`` with a line, ``g_M + epsilon dt^2``.

    Its chart callables are the base's.  The distinguished conformal Killing
    field is the parallel unit field along the line (genuinely Killing:
    ``phi = 0``).
    """
    if epsilon not in (+1, -1):
        raise ParameterOutOfRange(f"product sign must be +1 or -1, got {epsilon}")
    nb = base.dim

    def unit_t(x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape)
        T[..., nb] = 1.0
        return T

    killing = KillingData(field_at=unit_t, conformal_factor=0.0)
    suffix = "xR" if epsilon > 0 else "xR1"
    return AmbientSpace(
        name=base.name + suffix,
        dim=nb + 1,
        epsilon=epsilon,
        metric_at=base.metric_at,
        metric_inverse_at=base.metric_inverse_at,
        christoffel_at=base.christoffel_at,
        killing=killing,
        sectional=base.kappa / (nb - 1),
        base=base,
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

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (d, d, d))

    def position(x):
        return np.asarray(x, dtype=float).copy()

    killing = KillingData(field_at=position, conformal_factor=1.0)
    return AmbientSpace(
        name="R3_1" if lorentzian else "R3",
        dim=d,
        epsilon=-1 if lorentzian else +1,
        metric_at=metric,
        metric_inverse_at=metric,
        christoffel_at=christoffel,
        killing=killing,
        sectional=0.0,
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

    killing = KillingData(field_at=hopf, conformal_factor=0.0)
    return AmbientSpace(
        name="S3",
        dim=3,
        epsilon=+1,
        metric_at=s3.metric_at,
        metric_inverse_at=s3.metric_inverse_at,
        christoffel_at=s3.christoffel_at,
        killing=killing,
        sectional=1.0,
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
