"""Named test scenarios: surface + ambient + grid defaults + tolerances.

Every check in the package (pointwise identities, integral balances, the
graph harness, the radial profiles) runs against surfaces drawn from this
catalog.  Each scenario carries analytic jets through second order -- no
finite differencing enters a scenario definition -- together with a default
resolution and a small map of expected quantities with a note on how each
value is known.  The module also holds the package's one tolerance policy,
:data:`TOLERANCES`, and the graph profiles the acceptance battery shares.

The catalog covers:

* slices of the product ambients (both signatures, compact and not),
* non-constant graphs over the round sphere, the projective plane, the
  flat torus (both signatures) and the round 3-sphere,
* the homothetic-field surfaces in Euclidean 3-space (sphere, ellipsoid,
  torus of revolution) and the unit hyperboloid in Minkowski 3-space,
* geodesic spheres and the Clifford torus in the round 3-sphere,
* the explicit constant-curvature radial graphs over the hyperbolic plane,
* a flat cylinder over a great circle (non-compact, angle function 0).

``instantiate`` resolves a scenario name plus an override map into ready
objects; overrides are limited to the resolution, a tolerance scale, and
the parameters each scenario declares, each gated to its admissible range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .ambient import (AxisSpec, flat_torus, hyperbolic_plane, make_ambient,
                      projective_plane, round_sphere, round_three_sphere)
from .calculus import QuadratureGrid
from .errors import GeometryError, OverrideOutOfRange, UnknownScenario
from .graphs import radial_graph
from .shape import GraphSurface, ParamSurface

__all__ = [
    "Scenario",
    "list_scenarios",
    "scenario_names",
    "instantiate",
    "TOLERANCES",
    "cosine_profile",
    "constant_profile",
]

DEFAULT_RESOLUTION = 64
REDUCED_RESOLUTION_3D = 16   # three-dimensional grids refine 16 -> 32

_GLOBAL_RANGES: dict[str, tuple[float, float]] = {
    "resolution": (10, 512),
    "tolerance_scale": (1.0e-6, 1.0e6),
}


@dataclass(frozen=True)
class Tolerances:
    """The tolerance policy every verdict in the package reads.

    ``min_order`` and ``min_order_stacked`` are convergence-order floors
    (the latter for the third-order stacked stencils of Lap Theta), and
    ``residual_floor`` is the level below which an order estimate measures
    rounding noise; these describe the methods and the arithmetic, so
    ``scaled`` leaves them alone.  The remaining fields are residual
    tolerances of the balance laws and the radial closed-form match, which
    a ``tolerance_scale`` override multiplies.
    """

    min_order: float = 1.7
    min_order_stacked: float = 1.5
    residual_floor: float = 1.0e-8
    integral_relative: float = 1.0e-6
    einstein_absolute: float = 1.0e-5
    radial_match: float = 1.0e-6

    def scaled(self, scale: float) -> Tolerances:
        """This policy with its residual tolerances multiplied by ``scale``.

        The scale is gated to the range of the ``tolerance_scale`` override.
        """
        scale = float(scale)
        lo, hi = _GLOBAL_RANGES["tolerance_scale"]
        if not (lo <= scale <= hi):
            raise OverrideOutOfRange(
                f"tolerance_scale={scale} outside [{lo}, {hi}]")
        return replace(self,
                       integral_relative=self.integral_relative * scale,
                       einstein_absolute=self.einstein_absolute * scale,
                       radial_match=self.radial_match * scale)


TOLERANCES = Tolerances()

_EVENNESS_TOL = 1.0e-12


@dataclass(frozen=True)
class Scenario:
    """One catalog entry; ``builder(params)`` produces the surface."""

    name: str
    ambient_key: str
    kind: str                       # slice | graph | parametric | radial_graph
    builder: Callable[[dict[str, Any]], Any]
    params: dict[str, Any] = field(default_factory=dict)
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    default_resolution: int = DEFAULT_RESOLUTION
    compact: bool = True
    description: str = ""
    expected: dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------
# graph profiles (analytic height functions with their jets)
# --------------------------------------------------------------------------

def constant_profile(t0: float):
    """u = t0, the height of a slice."""
    def u(m):
        m = np.asarray(m, dtype=float)
        return np.full(m.shape[:-1], t0)

    def du(m):
        m = np.asarray(m, dtype=float)
        return np.zeros(m.shape)

    def d2u(m):
        m = np.asarray(m, dtype=float)
        n = m.shape[-1]
        return np.zeros(m.shape[:-1] + (n, n))
    return u, du, d2u


def cosine_profile(a: float):
    """u = a cos(m_0) in any dimension.

    On the colatitude/longitude chart of the sphere this is ``a cos(theta)``,
    on the hyperspherical chart of the 3-sphere ``a cos(chi)``.
    """
    def u(m):
        return a * np.cos(m[..., 0])

    def du(m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape)
        out[..., 0] = -a * np.sin(m[..., 0])
        return out

    def d2u(m):
        m = np.asarray(m, dtype=float)
        out = np.zeros(m.shape + (m.shape[-1],))
        out[..., 0, 0] = -a * np.cos(m[..., 0])
        return out
    return u, du, d2u


def _even_sphere_profile(a: float):
    """u = a cos^2(theta) + (a/4) sin^2(theta) cos(2 phi).

    Antipodally even (``u(pi - theta, phi + pi) = u(theta, phi)``), so it
    descends to the projective plane.
    """
    b = a / 4.0

    def u(m):
        th, ph = m[..., 0], m[..., 1]
        return a * np.cos(th) ** 2 + b * np.sin(th) ** 2 * np.cos(2 * ph)

    def du(m):
        m = np.asarray(m, dtype=float)
        th, ph = m[..., 0], m[..., 1]
        out = np.zeros(m.shape)
        out[..., 0] = np.sin(2 * th) * (b * np.cos(2 * ph) - a)
        out[..., 1] = -2 * b * np.sin(th) ** 2 * np.sin(2 * ph)
        return out

    def d2u(m):
        m = np.asarray(m, dtype=float)
        th, ph = m[..., 0], m[..., 1]
        out = np.zeros(m.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2 * np.cos(2 * th) * (b * np.cos(2 * ph) - a)
        out[..., 0, 1] = out[..., 1, 0] = -2 * b * np.sin(2 * th) * np.sin(2 * ph)
        out[..., 1, 1] = -4 * b * np.sin(th) ** 2 * np.cos(2 * ph)
        return out
    return u, du, d2u


def _torus_wave_profile(a: float):
    """u = a sin(x) cos(y) on the square torus."""
    def u(m):
        return a * np.sin(m[..., 0]) * np.cos(m[..., 1])

    def du(m):
        m = np.asarray(m, dtype=float)
        x, y = m[..., 0], m[..., 1]
        return np.stack([a * np.cos(x) * np.cos(y),
                         -a * np.sin(x) * np.sin(y)], axis=-1)

    def d2u(m):
        m = np.asarray(m, dtype=float)
        x, y = m[..., 0], m[..., 1]
        out = np.empty(m.shape[:-1] + (2, 2))
        out[..., 0, 0] = -a * np.sin(x) * np.cos(y)
        out[..., 0, 1] = out[..., 1, 0] = -a * np.cos(x) * np.sin(y)
        out[..., 1, 1] = -a * np.sin(x) * np.cos(y)
        return out
    return u, du, d2u


def _check_antipodally_even(u: Callable, name: str) -> None:
    """Scenario-construction gate for projective-plane graph heights."""
    rng = np.random.default_rng(20240601)
    th = rng.uniform(0.05, math.pi - 0.05, size=64)
    ph = rng.uniform(0.0, 2 * math.pi, size=64)
    pts = np.stack([th, ph], axis=-1)
    mirrored = np.stack([math.pi - th, ph + math.pi], axis=-1)
    gap = float(np.max(np.abs(u(pts) - u(mirrored))))
    if gap > _EVENNESS_TOL:
        raise GeometryError(
            f"scenario {name!r}: height is not antipodally even "
            f"(max gap {gap:.3e}); it does not descend to the quotient")


# --------------------------------------------------------------------------
# parametric immersions
# --------------------------------------------------------------------------

_SPHERE_AXES = round_sphere().axes
_TWO_PERIODIC = (
    AxisSpec("alpha", 0.0, 2.0 * math.pi, "periodic"),
    AxisSpec("beta", 0.0, 2.0 * math.pi, "periodic"),
)


def _ellipsoid_jet(a: float, b: float, c: float):
    def jet(s):
        s = np.asarray(s, dtype=float)
        th, ph = s[..., 0], s[..., 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        zero = np.zeros_like(th)
        x = np.stack([a * st * cp, b * st * sp, c * ct], axis=-1)
        d_th = np.stack([a * ct * cp, b * ct * sp, -c * st], axis=-1)
        d_ph = np.stack([-a * st * sp, b * st * cp, zero], axis=-1)
        dx = np.stack([d_th, d_ph], axis=-2)
        dd = np.empty(s.shape[:-1] + (2, 2, 3))
        dd[..., 0, 0, :] = -x
        dd[..., 0, 1, :] = np.stack([-a * ct * sp, b * ct * cp, zero], axis=-1)
        dd[..., 1, 0, :] = dd[..., 0, 1, :]
        dd[..., 1, 1, :] = np.stack([-a * st * cp, -b * st * sp, zero], axis=-1)
        return x, dx, dd
    return jet


def _revolution_torus_jet(R: float, r: float):
    def jet(s):
        s = np.asarray(s, dtype=float)
        al, be = s[..., 0], s[..., 1]
        ca, sa = np.cos(al), np.sin(al)
        cb, sb = np.cos(be), np.sin(be)
        zero = np.zeros_like(al)
        ring = R + r * ca
        x = np.stack([ring * cb, ring * sb, r * sa], axis=-1)
        d_al = np.stack([-r * sa * cb, -r * sa * sb, r * ca], axis=-1)
        d_be = np.stack([-ring * sb, ring * cb, zero], axis=-1)
        dx = np.stack([d_al, d_be], axis=-2)
        dd = np.empty(s.shape[:-1] + (2, 2, 3))
        dd[..., 0, 0, :] = np.stack([-r * ca * cb, -r * ca * sb, -r * sa], axis=-1)
        dd[..., 0, 1, :] = np.stack([r * sa * sb, -r * sa * cb, zero], axis=-1)
        dd[..., 1, 0, :] = dd[..., 0, 1, :]
        dd[..., 1, 1, :] = np.stack([-ring * cb, -ring * sb, zero], axis=-1)
        return x, dx, dd
    return jet


def _hyperboloid_jet():
    """Upper unit hyperboloid in Minkowski 3-space (time axis first)."""
    def jet(s):
        s = np.asarray(s, dtype=float)
        m1, m2 = s[..., 0], s[..., 1]
        x0 = np.sqrt(1.0 + m1 ** 2 + m2 ** 2)
        one = np.ones_like(m1)
        zero = np.zeros_like(m1)
        x = np.stack([x0, m1, m2], axis=-1)
        dx = np.stack([np.stack([m1 / x0, one, zero], axis=-1),
                       np.stack([m2 / x0, zero, one], axis=-1)], axis=-2)
        dd = np.zeros(s.shape[:-1] + (2, 2, 3))
        dd[..., 0, 0, 0] = 1.0 / x0 - m1 ** 2 / x0 ** 3
        dd[..., 0, 1, 0] = dd[..., 1, 0, 0] = -m1 * m2 / x0 ** 3
        dd[..., 1, 1, 0] = 1.0 / x0 - m2 ** 2 / x0 ** 3
        return x, dx, dd
    return jet


def _geodesic_sphere_jet(rho: float):
    """Distance sphere about the chart pole of the round 3-sphere."""
    def jet(s):
        s = np.asarray(s, dtype=float)
        th, ph = s[..., 0], s[..., 1]
        one = np.ones_like(th)
        zero = np.zeros_like(th)
        x = np.stack([np.full_like(th, rho), th, ph], axis=-1)
        dx = np.stack([np.stack([zero, one, zero], axis=-1),
                       np.stack([zero, zero, one], axis=-1)], axis=-2)
        dd = np.zeros(s.shape[:-1] + (2, 2, 3))
        return x, dx, dd
    return jet


def _clifford_torus_jet():
    """The square torus |z1| = |z2| = 1/sqrt(2) in hyperspherical chart.

    With ``sigma = sin(alpha)``, ``c = cos(alpha)`` and ``D = 1 + sigma^2``,
    the chart angles are ``chi = arccos(c / sqrt(2))`` and
    ``theta = arccos(sigma / sqrt(D))``, whose derivatives simplify to

        chi'   =  sigma / sqrt(D),      chi''   = c / D^(3/2),
        theta' = -c / D,                theta'' = sigma (D + 2 c^2) / D^2,

    while ``phi = beta``.  Both angles stay inside (0, pi), away from the
    chart poles.
    """
    def jet(s):
        s = np.asarray(s, dtype=float)
        al, be = s[..., 0], s[..., 1]
        sig, c = np.sin(al), np.cos(al)
        D = 1.0 + sig ** 2
        zero = np.zeros_like(al)
        one = np.ones_like(al)
        chi = np.arccos(c / math.sqrt(2.0))
        th = np.arccos(sig / np.sqrt(D))
        x = np.stack([chi, th, be], axis=-1)
        d_al = np.stack([sig / np.sqrt(D), -c / D, zero], axis=-1)
        d_be = np.stack([zero, zero, one], axis=-1)
        dx = np.stack([d_al, d_be], axis=-2)
        dd = np.zeros(s.shape[:-1] + (2, 2, 3))
        dd[..., 0, 0, 0] = c / D ** 1.5
        dd[..., 0, 0, 1] = sig * (D + 2 * c ** 2) / D ** 2
        return x, dx, dd
    return jet


def _cylinder_jet():
    """Flat cylinder over the equator great circle in S^2 x R."""
    def jet(s):
        s = np.asarray(s, dtype=float)
        ph, t = s[..., 0], s[..., 1]
        one = np.ones_like(ph)
        zero = np.zeros_like(ph)
        x = np.stack([np.full_like(ph, 0.5 * math.pi), ph, t], axis=-1)
        dx = np.stack([np.stack([zero, one, zero], axis=-1),
                       np.stack([zero, zero, one], axis=-1)], axis=-2)
        dd = np.zeros(s.shape[:-1] + (2, 2, 3))
        return x, dx, dd
    return jet


# --------------------------------------------------------------------------
# scenario builders
# --------------------------------------------------------------------------

def _graph_builder(base_factory: Callable, epsilon: int, profile: Callable,
                   even_gate: bool = False, param: str = "amplitude"):
    def build(params):
        u, du, d2u = profile(params[param])
        if even_gate:
            _check_antipodally_even(u, params["_name"])
        return GraphSurface(name=params["_name"], base=base_factory(),
                            epsilon=epsilon, u=u, du=du, d2u=d2u)
    return build


def _slice_builder(base_factory: Callable, epsilon: int):
    return _graph_builder(base_factory, epsilon, constant_profile, param="t0")


def _parametric_builder(ambient_key: str, axes, jet_factory: Callable,
                        jet_params: tuple[str, ...], compact: bool = True,
                        orientation: str = ""):
    def build(params):
        jet = jet_factory(*[params[k] for k in jet_params])
        return ParamSurface(name=params["_name"],
                            ambient=make_ambient(ambient_key),
                            axes=axes, jet=jet, compact=compact,
                            orientation=orientation)
    return build


def _radial_builder(epsilon: int):
    def build(params):
        surface = radial_graph(epsilon, params["K"], box=params["box"])
        surface.name = params["_name"]
        return surface
    return build


# --------------------------------------------------------------------------
# the catalog
# --------------------------------------------------------------------------

def _catalog() -> list[Scenario]:
    how_closed = "closed-form geometry"
    entries = [
        # ---- slices ------------------------------------------------------
        Scenario(
            name="slice_S2xR_t0.7", ambient_key="S2xR", kind="slice",
            builder=_slice_builder(round_sphere, +1),
            params={"t0": 0.7}, ranges={"t0": (-5.0, 5.0)},
            description="horizontal slice of the Riemannian sphere product",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "gauss_curvature": {"value": 1.0, "how": how_closed},
                      "scalar_curvature": {"value": 2.0, "how": how_closed},
                      "shape_operator": {"value": 0.0, "how": how_closed}},
        ),
        Scenario(
            name="slice_S2xR1_t0.7", ambient_key="S2xR1", kind="slice",
            builder=_slice_builder(round_sphere, -1),
            params={"t0": 0.7}, ranges={"t0": (-5.0, 5.0)},
            description="spacelike slice of the Lorentzian sphere product",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "gauss_curvature": {"value": 1.0, "how": how_closed}},
        ),
        Scenario(
            name="slice_RP2xR_t0.3", ambient_key="RP2xR", kind="slice",
            builder=_slice_builder(projective_plane, +1),
            params={"t0": 0.3}, ranges={"t0": (-5.0, 5.0)},
            description="slice of the projective-plane product (area 2 pi)",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "area": {"value": 2 * math.pi, "how": how_closed}},
        ),
        Scenario(
            name="slice_T2xR_t1.2", ambient_key="T2xR", kind="slice",
            builder=_slice_builder(flat_torus, +1),
            params={"t0": 1.2}, ranges={"t0": (-5.0, 5.0)},
            description="flat slice of the torus product",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "gauss_curvature": {"value": 0.0, "how": how_closed}},
        ),
        Scenario(
            name="slice_H2xR_t0.5", ambient_key="H2xR", kind="slice",
            builder=_slice_builder(hyperbolic_plane, +1),
            params={"t0": 0.5}, ranges={"t0": (-5.0, 5.0)},
            compact=False,
            description="slice of the hyperbolic product (non-compact, "
                        "pointwise checks only)",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "gauss_curvature": {"value": -1.0, "how": how_closed}},
        ),
        # ---- product graphs, n = 2 ---------------------------------------
        Scenario(
            name="graph_S2xR_cos03", ambient_key="S2xR", kind="graph",
            builder=_graph_builder(round_sphere, +1, cosine_profile),
            params={"amplitude": 0.3}, ranges={"amplitude": (0.0, 0.45)},
            description="axisymmetric graph over the round sphere",
        ),
        Scenario(
            name="graph_S2xR1_cos02", ambient_key="S2xR1", kind="graph",
            builder=_graph_builder(round_sphere, -1, cosine_profile),
            params={"amplitude": 0.2}, ranges={"amplitude": (0.0, 0.45)},
            description="spacelike axisymmetric graph, Lorentzian product",
        ),
        Scenario(
            name="graph_RP2xR_even025", ambient_key="RP2xR", kind="graph",
            builder=_graph_builder(projective_plane, +1,
                                   _even_sphere_profile, even_gate=True),
            params={"amplitude": 0.25}, ranges={"amplitude": (0.0, 0.45)},
            description="antipodally even graph over the projective plane",
        ),
        Scenario(
            name="graph_RP2xR1_even015", ambient_key="RP2xR1", kind="graph",
            builder=_graph_builder(projective_plane, -1,
                                   _even_sphere_profile, even_gate=True),
            params={"amplitude": 0.15}, ranges={"amplitude": (0.0, 0.45)},
            description="spacelike even graph over the projective plane",
        ),
        Scenario(
            name="graph_T2xR_wave04", ambient_key="T2xR", kind="graph",
            builder=_graph_builder(flat_torus, +1, _torus_wave_profile),
            params={"amplitude": 0.4}, ranges={"amplitude": (0.0, 0.9)},
            description="doubly periodic wave over the flat torus",
        ),
        Scenario(
            name="graph_T2xR1_wave04", ambient_key="T2xR1", kind="graph",
            builder=_graph_builder(flat_torus, -1, _torus_wave_profile),
            params={"amplitude": 0.4}, ranges={"amplitude": (0.0, 0.9)},
            description="spacelike wave over the flat torus (flat ambient "
                        "is also Einstein)",
        ),
        # ---- product graphs, n = 3 ---------------------------------------
        Scenario(
            name="graph_S3xR_coschi02", ambient_key="S3xR", kind="graph",
            builder=_graph_builder(round_three_sphere, +1, cosine_profile),
            params={"amplitude": 0.2}, ranges={"amplitude": (0.0, 0.4)},
            default_resolution=REDUCED_RESOLUTION_3D,
            description="three-dimensional graph over the round 3-sphere",
        ),
        Scenario(
            name="graph_S3xR1_coschi02", ambient_key="S3xR1", kind="graph",
            builder=_graph_builder(round_three_sphere, -1, cosine_profile),
            params={"amplitude": 0.2}, ranges={"amplitude": (0.0, 0.4)},
            default_resolution=REDUCED_RESOLUTION_3D,
            description="spacelike three-dimensional graph, Lorentzian",
        ),
        # ---- homothetic field in flat space ------------------------------
        Scenario(
            name="sphere_R3_homothetic", ambient_key="R3_homothetic",
            kind="parametric",
            builder=_parametric_builder("R3_homothetic", _SPHERE_AXES,
                                        _ellipsoid_jet, ("a", "b", "c")),
            params={"a": 1.0, "b": 1.0, "c": 1.0},
            ranges={"a": (0.3, 3.0), "b": (0.3, 3.0), "c": (0.3, 3.0)},
            description="unit sphere with the position (homothetic) field",
            expected={"theta": {"value": 1.0, "how": how_closed},
                      "mean_curvature": {"value": -1.0, "how": how_closed},
                      "scalar_curvature": {"value": 2.0, "how": how_closed},
                      "flux_both_sides": {"value": 8 * math.pi,
                                          "how": how_closed}},
        ),
        Scenario(
            name="ellipsoid_R3_homothetic", ambient_key="R3_homothetic",
            kind="parametric",
            builder=_parametric_builder("R3_homothetic", _SPHERE_AXES,
                                        _ellipsoid_jet, ("a", "b", "c")),
            params={"a": 1.3, "b": 1.0, "c": 0.8},
            ranges={"a": (0.3, 3.0), "b": (0.3, 3.0), "c": (0.3, 3.0)},
            description="triaxial ellipsoid with the position field",
        ),
        Scenario(
            name="torus_R3_homothetic", ambient_key="R3_homothetic",
            kind="parametric",
            builder=_parametric_builder("R3_homothetic", _TWO_PERIODIC,
                                        _revolution_torus_jet, ("R", "r")),
            params={"R": 2.0, "r": 0.5},
            ranges={"R": (1.0, 4.0), "r": (0.05, 0.95)},
            description="torus of revolution with the position field",
        ),
        # ---- Minkowski space ---------------------------------------------
        Scenario(
            name="hyperboloid_R31_minkowski", ambient_key="R31_minkowski",
            kind="parametric",
            builder=_parametric_builder(
                "R31_minkowski",
                (AxisSpec("m1", -1.2, 1.2, "open"),
                 AxisSpec("m2", -1.2, 1.2, "open")),
                _hyperboloid_jet, (), compact=False),
            compact=False,
            description="upper unit hyperboloid (spacelike, non-compact)",
            expected={"theta": {"value": -1.0, "how": how_closed},
                      "mean_curvature": {"value": 1.0, "how": how_closed},
                      "scalar_curvature": {"value": -2.0, "how": how_closed}},
        ),
        # ---- round 3-sphere ------------------------------------------------
        Scenario(
            name="geodesic_sphere_S3", ambient_key="S3_hopf",
            kind="parametric",
            builder=lambda params: ParamSurface(
                name=params["_name"], ambient=make_ambient("S3_hopf"),
                axes=_SPHERE_AXES, jet=_geodesic_sphere_jet(params["rho"])),
            params={"rho": 0.25 * math.pi},
            ranges={"rho": (0.1, 1.47)},
            description="distance sphere about the chart pole, Hopf field",
            expected={"scalar_curvature": {
                "value": "2 / sin(rho)^2", "how": how_closed}},
        ),
        Scenario(
            name="clifford_torus_S3", ambient_key="S3_hopf",
            kind="parametric",
            builder=_parametric_builder("S3_hopf", _TWO_PERIODIC,
                                        _clifford_torus_jet, ()),
            description="minimal square torus; the Hopf field is tangent",
            expected={"theta": {"value": 0.0, "how": how_closed},
                      "scalar_curvature": {"value": 0.0, "how": how_closed},
                      "mean_curvature": {"value": 0.0, "how": how_closed}},
        ),
        # ---- explicit radial graphs over the hyperbolic plane -------------
        Scenario(
            name="example51_riemannian_K-0.5", ambient_key="H2xR",
            kind="radial_graph", builder=_radial_builder(+1),
            params={"K": -0.5, "box": 1.2},
            ranges={"K": (-0.999, -0.001), "box": (0.3, 8.0)},
            compact=False,
            description="explicit constant-curvature radial graph, K = -1/2",
            expected={"gauss_curvature": {"value": -0.5, "how": how_closed},
                      "sup_du_sq": {"value": 1.0, "how": how_closed}},
        ),
        Scenario(
            name="example51_lorentzian_K-2", ambient_key="H2xR1",
            kind="radial_graph", builder=_radial_builder(-1),
            params={"K": -2.0, "box": 1.2},
            ranges={"K": (-100.0, -1.001), "box": (0.3, 8.0)},
            compact=False,
            description="explicit spacelike radial graph, K = -2",
            expected={"gauss_curvature": {"value": -2.0, "how": how_closed},
                      "sup_du_sq": {"value": 0.5, "how": how_closed}},
        ),
        # ---- cylinder over a great circle ---------------------------------
        Scenario(
            name="cylinder_S2xR", ambient_key="S2xR", kind="parametric",
            builder=_parametric_builder(
                "S2xR",
                (AxisSpec("phi", 0.0, 2.0 * math.pi, "periodic"),
                 AxisSpec("t", -1.2, 1.2, "open")),
                _cylinder_jet, (), compact=False, orientation="adjugate"),
            compact=False,
            description="flat cylinder over the equator; angle function 0",
            expected={"theta": {"value": 0.0, "how": how_closed},
                      "gauss_curvature": {"value": 0.0, "how": how_closed}},
        ),
    ]
    return entries


_SCENARIOS: dict[str, Scenario] = {sc.name: sc for sc in _catalog()}


def list_scenarios() -> list[Scenario]:
    """All scenarios in deterministic catalog order."""
    return list(_SCENARIOS.values())


def scenario_names() -> tuple[str, ...]:
    return tuple(_SCENARIOS)


def _gate(name: str, key: str, value, lo, hi):
    if not (lo <= value <= hi):
        raise OverrideOutOfRange(
            f"scenario {name!r}: override {key}={value} outside [{lo}, {hi}]")


def instantiate(name: str, overrides: dict[str, Any] | None = None):
    """Build (surface, grid, tolerances) for a named scenario.

    ``tolerances`` is :data:`TOLERANCES`, scaled by a ``tolerance_scale``
    override when one is given.

    ``overrides`` may set ``resolution``, ``tolerance_scale``, and any
    parameter the scenario declares a range for; values outside the
    declared ranges raise ``OverrideOutOfRange``.
    """
    sc = _SCENARIOS.get(name)
    if sc is None:
        known = ", ".join(scenario_names())
        raise UnknownScenario(f"unknown scenario {name!r}; known: {known}")
    overrides = dict(overrides or {})

    resolution = sc.default_resolution
    if "resolution" in overrides:
        resolution = overrides.pop("resolution")
        lo, hi = _GLOBAL_RANGES["resolution"]
        if resolution != int(resolution):
            raise OverrideOutOfRange(
                f"scenario {name!r}: resolution must be an integer")
        resolution = int(resolution)
        _gate(name, "resolution", resolution, lo, hi)

    tolerances = TOLERANCES.scaled(overrides.pop("tolerance_scale", 1.0))

    params = dict(sc.params)
    for key, value in overrides.items():
        if key not in sc.ranges:
            declared = ", ".join(sorted(sc.ranges)) or "none"
            raise OverrideOutOfRange(
                f"scenario {name!r} does not accept override {key!r} "
                f"(declared: {declared})")
        lo, hi = sc.ranges[key]
        value = float(value)
        _gate(name, key, value, lo, hi)
        params[key] = value
    params["_name"] = name

    surface = sc.builder(params)
    grid = QuadratureGrid.build(surface.axes, resolution)
    return surface, grid, tolerances
