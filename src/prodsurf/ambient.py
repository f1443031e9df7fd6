"""Ambient spaces: product manifolds M^n x R and constant-curvature spaces.

The package studies oriented hypersurfaces of an (n+1)-dimensional ambient
that is either

* a metric product ``M^n x R`` of a base manifold with a line, with metric
  ``g_M + epsilon dt^2`` (``epsilon = +1`` Riemannian, ``epsilon = -1``
  Lorentzian, in which case spacelike hypersurfaces are the objects of
  interest), or
* a simply connected space of constant sectional curvature (Euclidean
  3-space, Minkowski 3-space, the unit 3-sphere).

Each ambient is one chart of constant curvature, its curved block (the
base ``M^n`` of a product, or the whole space form), plus the flat line of
a product, so its curvature is one number, ``AmbientSpace.sectional``,
read from the chart's ``kappa`` through one model (see there).
One hyperspherical chart, ``round_sphere(n)``, serves the round S^2 (and
its quotient RP^2) and the round S^3, as a base and as a space form, and
one constant diagonal chart serves every flat metric: the flat torus,
Euclidean and Minkowski 3-space.

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
ambient's chart takes its curved block's ``(..., curved)``, see
``AmbientSpace``) and outputs carry matching batch dimensions.
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
      fall back to one-sided stencils at the two extreme node layers); one
      open axis makes the chart non-compact, so nothing is integrated over
      it (``QuadratureGrid.compact``).

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
# charts of constant curvature: the bases, and the space forms' charts
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseManifold:
    """A manifold ``M^n`` (n = 2 or 3) of constant curvature in one chart:
    the base of a product, or a whole space form (``AmbientSpace.chart``).

    The chart axes state its shape: ``dim`` is their number, and the base
    is compact exactly when none of them is ``"open"``, which the grids
    over it read (``QuadratureGrid.compact``).  ``kappa`` is the constant
    Ricci factor with ``Ric_M = kappa * g_M``: the Gauss curvature for
    n = 2, the Einstein constant (a third of the scalar curvature) for
    n = 3.  Its constant sectional curvature is ``kappa / (dim - 1)``.
    ``metric_at`` returns a new array on every call;
    ``GraphSurface.induced_metric`` adds to it in place.
    """

    name: str
    axes: tuple[AxisSpec, ...]
    metric_at: Callable[[np.ndarray], np.ndarray]
    metric_inverse_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    kappa: float
    quotient_factor: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.axes)


def round_sphere(n: int) -> BaseManifold:
    """Unit round n-sphere (n = 2 or 3) in hyperspherical coordinates.

    The colatitudes ``x_0 .. x_(n-2)`` (``theta`` on S^2, ``chi, theta``
    on S^3) come before the longitude ``phi``.  The metric is
    ``diag(1, f_1, ..., f_(n-1))`` with ``f_k = f_(k-1) sin^2 x_(k-1)``, so
    for ``j < k`` the Christoffel symbols are
    ``Gamma^j_kk = -sin x_j cos x_j f_k / f_(j+1)`` and
    ``Gamma^k_jk = cot x_j``.  Crossing a colatitude's pole advances
    ``phi`` by half its period and reverses the later colatitudes.
    """
    if n not in (2, 3):
        raise ParameterOutOfRange(f"round sphere dimension must be 2 or 3, "
                                  f"got {n}")

    def diagonal(x, power):
        # the running product of sin(x_j)**power is f_k**(power / 2)
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (n, n))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = f = np.sin(x[..., 0]) ** power
        for k in range(2, n):
            g[..., k, k] = f = f * np.sin(x[..., k - 1]) ** power
        return g

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        G = np.zeros(x.shape[:-1] + (n, n, n))
        sin = [np.sin(x[..., j]) for j in range(n - 1)]
        for j in range(n - 1):
            cos = np.cos(x[..., j])
            cot = cos / sin[j]
            ratio = -sin[j] * cos          # -sin cos times f_k / f_(j+1)
            for k in range(j + 1, n):
                if k > j + 1:
                    ratio = ratio * sin[k - 1] ** 2
                G[..., j, k, k] = ratio
                G[..., k, j, k] = G[..., k, k, j] = cot
        return G

    polar = tuple(
        AxisSpec(name, 0.0, np.pi, "polar_cos", shift=(n - 1,),
                 reverse=tuple(range(j + 1, n - 1)))
        for j, name in enumerate(("chi", "theta")[3 - n:]))
    axes = polar + (AxisSpec("phi", 0.0, 2.0 * np.pi, "periodic"),)
    return BaseManifold(f"S{n}", axes, lambda x: diagonal(x, 2),
                        lambda x: diagonal(x, -2), christoffel, float(n - 1))


def projective_plane() -> BaseManifold:
    """Real projective plane as the antipodal quotient of the round sphere.

    The chart and metric are those of the covering sphere; integrals carry a
    factor 1/2, and only antipodally even functions (``u(pi - theta,
    phi + pi) = u(theta, phi)``) descend to the quotient -- the catalog
    gates every graph over a quotient base on that symmetry.
    """
    return replace(round_sphere(2), name="RP2", quotient_factor=0.5)


def hyperbolic_plane(box: float = 1.2) -> BaseManifold:
    """Hyperbolic plane as the upper hyperboloid sheet, graph coordinates.

    Points are ``(x1, x2)`` with ``x0 = sqrt(1 + x1^2 + x2^2)`` the height on
    the hyperboloid ``<x, x> = -1`` in Minkowski 3-space.  In these
    coordinates ``g_ij = delta_ij - x_i x_j / x0^2`` and the Christoffel
    symbols collapse to ``Gamma^k_ij = -x_k g_ij``.  ``box`` fixes the
    nominal sampling window ``[-box, box]^2``; the chart itself is global.
    """

    def metric(x):
        x = np.asarray(x, dtype=float)
        x0sq = 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2
        return (np.eye(2)
                - x[..., :, None] * x[..., None, :] / x0sq[..., None, None])

    def metric_inv(x):
        x = np.asarray(x, dtype=float)
        return np.eye(2) + x[..., :, None] * x[..., None, :]

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        g = metric(x)
        return -x[..., :, None, None] * g[..., None, :, :]

    axes = (
        AxisSpec("x1", -box, box, "open"),
        AxisSpec("x2", -box, box, "open"),
    )
    return BaseManifold("H2", axes, metric, metric_inv, christoffel, -1.0)


def _constant_chart(name: str, axes: tuple[AxisSpec, ...],
                    diagonal: tuple[float, ...]) -> BaseManifold:
    """The flat chart ``diag(diagonal)`` over ``axes``; with entries +-1
    the metric is its own inverse."""
    d = len(diagonal)

    def metric(x):
        g = np.zeros(np.shape(x)[:-1] + (d, d))
        for i, v in enumerate(diagonal):
            g[..., i, i] = v
        return g

    def christoffel(x):
        return np.zeros(np.shape(x)[:-1] + (d, d, d))

    return BaseManifold(name, axes, metric, metric, christoffel, 0.0)


def flat_torus() -> BaseManifold:
    """Flat square 2-torus with side ``2 pi``."""
    return _constant_chart("T2", (AxisSpec("s1", 0.0, 2.0 * np.pi, "periodic"),
                                  AxisSpec("s2", 0.0, 2.0 * np.pi, "periodic")),
                           (1.0, 1.0))


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
    """A product ``M^n x R`` or a constant-curvature space: one curved
    chart, plus a flat line when ``product``.

    ``chart`` is the curved block, a ``BaseManifold``: the base of a
    product, the whole chart of a space form.  Its callables take the
    first ``curved = chart.dim`` of the ambient's ``dim`` coordinates; a
    product's line is the last, flat, with metric ``epsilon``.
    ``epsilon`` is the metric sign of the distinguished direction: for
    products it is the coefficient of ``dt^2``; for space forms it is ``-1``
    exactly when the signature is Lorentzian.  Spacelike hypersurfaces have
    unit normals squaring to this sign.  ``killing`` is the distinguished
    conformal Killing field, which every ambient carries.

    One curvature model serves both kinds.  The curved block has constant
    sectional curvature ``sectional = chart.kappa / (curved - 1)``, so with
    vectors cut to the block and ``< , >`` the chart's metric

        R(X, Y)Z  = sectional (<X, Z> Y - <Y, Z> X),
        Ric(V, V) = (curved - 1) sectional <V, V>,
        Sbar      = curved (curved - 1) sectional,

    and the ambient is Einstein iff it is a space form or ``sectional == 0``.
    """

    name: str
    chart: BaseManifold
    epsilon: int
    killing: KillingData
    product: bool

    @property
    def curved(self) -> int:
        return self.chart.dim

    @property
    def dim(self) -> int:
        return self.chart.dim + self.product

    @property
    def sectional(self) -> float:
        return self.chart.kappa / (self.chart.dim - 1)

    @property
    def is_einstein(self) -> bool:
        return not self.product or self.sectional == 0.0

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

    Its chart is ``base``, and its line is the last coordinate.  The
    distinguished conformal Killing field is the parallel unit field along
    the line (genuinely Killing: ``phi = 0``).
    """
    if epsilon not in (+1, -1):
        raise ParameterOutOfRange(f"product sign must be +1 or -1, got {epsilon}")
    nb = base.dim

    def unit_t(x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape)
        T[..., nb] = 1.0
        return T

    suffix = "xR" if epsilon > 0 else "xR1"
    return AmbientSpace(name=base.name + suffix, chart=base, epsilon=epsilon,
                        killing=KillingData(field_at=unit_t, conformal_factor=0.0),
                        product=True)


# --------------------------------------------------------------------------
# space forms
# --------------------------------------------------------------------------

def _flat_space_form(lorentzian: bool) -> AmbientSpace:
    """Euclidean or Minkowski 3-space in Cartesian coordinates, with the
    homothetic position field.

    Minkowski space puts its time axis first.
    """
    names = ("t", "x", "y") if lorentzian else ("x", "y", "z")
    name = "R3_1" if lorentzian else "R3"
    chart = _constant_chart(
        name, tuple(AxisSpec(a, -np.inf, np.inf, "open") for a in names),
        (-1.0 if lorentzian else 1.0, 1.0, 1.0))

    def position(x):
        return np.asarray(x, dtype=float).copy()

    return AmbientSpace(name=name, chart=chart, epsilon=-1 if lorentzian else +1,
                        killing=KillingData(field_at=position, conformal_factor=1.0),
                        product=False)


def _round_sphere_form() -> AmbientSpace:
    """The unit round 3-sphere with a Hopf Killing field."""

    def hopf(x):
        x = np.asarray(x, dtype=float)
        chi, th = x[..., 0], x[..., 1]
        T = np.zeros(x.shape)
        T[..., 0] = np.cos(th)
        T[..., 1] = -np.sin(th) * np.cos(chi) / np.sin(chi)
        T[..., 2] = 1.0
        return T

    return AmbientSpace(name="S3", chart=round_sphere(3), epsilon=+1,
                        killing=KillingData(field_at=hopf, conformal_factor=0.0),
                        product=False)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_AMBIENT_FACTORIES: dict[str, Callable[[], AmbientSpace]] = {
    "S2xR": lambda: make_product(round_sphere(2), +1),
    "S2xR1": lambda: make_product(round_sphere(2), -1),
    "RP2xR": lambda: make_product(projective_plane(), +1),
    "RP2xR1": lambda: make_product(projective_plane(), -1),
    "H2xR": lambda: make_product(hyperbolic_plane(), +1),
    "H2xR1": lambda: make_product(hyperbolic_plane(), -1),
    "T2xR": lambda: make_product(flat_torus(), +1),
    "T2xR1": lambda: make_product(flat_torus(), -1),
    "S3xR": lambda: make_product(round_sphere(3), +1),
    "S3xR1": lambda: make_product(round_sphere(3), -1),
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
