"""Integral balance laws for compact hypersurfaces.

Three global statements are evaluated here, each an exact identity for the
continuum geometry and therefore a stringent end-to-end test of every
ingredient the code computes (normals, shape operators, curvatures, the
conformal factor of the distinguished field, and the quadrature itself).

``integral_formula``
    In any ambient carrying a closed conformal field ``T`` with factor
    ``phi`` (``grad T = phi * Id``), integrating the divergence identities
    for the tangential and normal parts of ``T`` over a closed surface gives

        I [ Theta * (S - S_amb + eps_N * Ric(N, N)) ] dA
            = n * I [ dphi/dN ] dA  -  n (n - 1) eps_N * I [ H phi ] dA

    where ``Theta = <N, T>``, ``S`` is the scalar curvature of the surface,
    ``S_amb`` the ambient scalar curvature at the surface, ``Ric(N, N)``
    the ambient Ricci form on the unit normal, ``H`` the mean curvature and
    ``n`` the surface dimension.

``product_integral``
    Specialisation to metric products (base x line), where the vertical
    field is genuinely Killing (``phi = 0``).  With ``kappa`` the pointwise
    Ricci factor of the base (``Ric_base = kappa * g_base``) the right-hand
    side vanishes and the statement collapses to

        I [ Theta * ( (S - n kappa) + kappa (1 - Theta^2) ) ] dA  =  0.

``einstein_integral``
    Specialisation to Einstein ambients with a genuine Killing field.
    Einstein means ``Ric = (S_amb / (n+1)) * g`` with ``n + 1`` the ambient
    dimension, so ``eps_N * Ric(N, N) = S_amb / (n+1)`` and

        I [ Theta * (S - S_amb + S_amb / (n+1)) ] dA  =  0.

Each evaluation returns an :class:`~prodsurf.reports.IntegralReport`.  The
residual ``lhs - rhs`` is reported both raw and relative to the mass

    normalization = I [ |Theta| * (|S| + |S_amb| + |Ric(N, N)|) ] dA

which measures the size of the cancellation the identity demands; the
relative residual divides by ``max(normalization, 1)`` so surfaces with
tiny mass are judged on an absolute scale rather than passed for free.
"""

from __future__ import annotations

import numpy as np

from .calculus import FrameFields, QuadratureGrid
from .errors import NotEinstein
from .reports import IntegralReport
from .zoo import TOLERANCES

# Pass thresholds come from zoo.TOLERANCES.  The flux and product balances
# are judged relative to the cancellation mass; the Einstein balance is
# judged on the raw integral, to match how it is used downstream (a nonzero
# value rules surfaces out).


def _cancellation_mass(fields: FrameFields) -> float:
    """I |Theta| (|S| + |S_amb| + |Ric(N,N)|) dA, the scale of the balance."""
    fr = fields.frame
    density = np.abs(fr.theta) * (np.abs(fr.scalar_curvature)
                                  + np.abs(fr.ambient_scalar)
                                  + np.abs(fr.ricci_normal))
    return fields.integrate(density)


def _report(formula: str, fields: FrameFields, lhs: float, rhs: float,
            tolerance: float, *, relative_pass: bool) -> IntegralReport:
    residual = lhs - rhs
    normalization = _cancellation_mass(fields)
    relative = abs(residual) / max(normalization, 1.0)
    passed = (relative <= tolerance) if relative_pass \
        else (abs(residual) <= tolerance)
    return IntegralReport(
        formula=formula,
        scenario=fields.surface.name,
        resolution=fields.grid.resolution,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        relative_residual=relative,
        normalization=normalization,
        passed=passed,
        tolerance=tolerance,
    )


def _as_fields(surface, grid) -> FrameFields:
    if isinstance(surface, FrameFields):
        return surface
    if not isinstance(grid, QuadratureGrid):
        grid = QuadratureGrid.build(surface.axes, int(grid))
    return FrameFields(surface, grid)


def integral_formula(surface, grid,
                     tolerance: float = TOLERANCES.integral_relative,
                     ) -> IntegralReport:
    """Balance law for a closed conformal field in a general ambient.

    Parameters
    ----------
    surface : ParamSurface or GraphSurface (or a prebuilt FrameFields)
        Compact hypersurface; its ambient must carry distinguished Killing
        data (``MissingKillingData`` otherwise).
    grid : QuadratureGrid or int
        Quadrature grid, or a resolution from which to build one.
    """
    fields = _as_fields(surface, grid)
    fr = fields.frame
    n = fr.tangent.shape[-2]
    eps_n = fr.normal_sign

    integrand = fr.theta * (fr.scalar_curvature - fr.ambient_scalar
                            + eps_n * fr.ricci_normal)
    lhs = fields.integrate(integrand)

    phi = fields.conformal_factor
    dphi_dn = fields.conformal_factor_normal_derivative
    rhs = (n * fields.integrate(np.broadcast_to(dphi_dn, fr.theta.shape))
           - n * (n - 1) * fields.integrate(eps_n * fr.mean_curvature * phi))
    return _report("integral_formula", fields, lhs, rhs, tolerance,
                   relative_pass=True)


def product_integral(surface, grid,
                     tolerance: float = TOLERANCES.integral_relative,
                     ) -> IntegralReport:
    """Killing specialisation of the balance law in a metric product."""
    fields = _as_fields(surface, grid)
    ambient = fields.surface.ambient
    if ambient.kind != "product":
        raise NotEinstein(
            f"product integral needs a product ambient, got {ambient.name!r}")
    fr = fields.frame
    n = fr.tangent.shape[-2]
    kappa = ambient.base.curvature_at(fr.point[..., :ambient.base.dim])
    integrand = fr.theta * ((fr.scalar_curvature - n * kappa)
                            + kappa * (1.0 - fr.theta ** 2))
    lhs = fields.integrate(integrand)
    return _report("product_integral", fields, lhs, 0.0, tolerance,
                   relative_pass=True)


def einstein_integral(surface, grid,
                      tolerance: float = TOLERANCES.einstein_absolute,
                      ) -> IntegralReport:
    """Killing specialisation of the balance law in an Einstein ambient.

    Raises ``NotEinstein`` unless the ambient is Einstein and its
    distinguished field is genuinely Killing (zero conformal factor).
    """
    fields = _as_fields(surface, grid)
    ambient = fields.surface.ambient
    if not ambient.is_einstein:
        raise NotEinstein(f"ambient {ambient.name!r} is not Einstein")
    phi = fields.conformal_factor
    if np.any(phi != 0.0):
        raise NotEinstein(
            f"distinguished field of {ambient.name!r} is conformal but not "
            "Killing; the Einstein balance needs a genuine Killing field")
    fr = fields.frame
    s_amb = fr.ambient_scalar
    integrand = fr.theta * (fr.scalar_curvature - s_amb + s_amb / ambient.dim)
    lhs = fields.integrate(integrand)
    return _report("einstein_integral", fields, lhs, 0.0, tolerance,
                   relative_pass=False)


def available_formulas(surface, grid) -> list[str]:
    """Names of the balance laws that apply to this surface's ambient."""
    fields = _as_fields(surface, grid)
    ambient = fields.surface.ambient
    names = []
    if ambient.killing is not None:
        names.append("integral_formula")
    if ambient.kind == "product":
        names.append("product_integral")
    if ambient.is_einstein and ambient.killing is not None:
        phi = ambient.killing.conformal_factor(fields.frame.point)
        if not np.any(phi != 0.0):
            names.append("einstein_integral")
    return names


FORMULAS = {
    "integral_formula": integral_formula,
    "product_integral": product_integral,
    "einstein_integral": einstein_integral,
}


def run_formulas(surface, grid,
                 names: list[str] | None = None) -> list[IntegralReport]:
    """Evaluate every applicable balance law (or the named subset).

    Builds the frame bundle once and shares it across formulas.
    """
    fields = _as_fields(surface, grid)
    if names is None:
        names = available_formulas(fields, None)
    return [FORMULAS[name](fields, None) for name in names]
