"""Integral balance laws for compact hypersurfaces.

Three global statements are evaluated here, each an exact identity for the
continuum geometry and therefore a stringent end-to-end test of every
ingredient the code computes (normals, shape operators, curvatures, the
conformal factor of the distinguished field, and the quadrature itself).

``integral_formula``
    In an ambient carrying a conformal field ``T`` with factor ``phi``,
    integrating the divergence identities for the tangential and normal
    parts of ``T`` over a closed surface gives

        I [ Theta * (S - S_amb + eps_N * Ric(N, N)) ] dA
            = n * I [ dphi/dN ] dA  -  n (n - 1) eps_N * I [ H phi ] dA

    where ``Theta = <N, T>``, ``S`` is the scalar curvature of the surface,
    ``S_amb`` the ambient's constant scalar curvature, ``Ric(N, N)``
    the ambient Ricci form on the unit normal, ``H`` the mean curvature and
    ``n`` the surface dimension.  Every ambient carries its distinguished
    field, and its ``phi`` is a constant, so ``dphi/dN = 0`` and only the
    ``H phi`` term is evaluated.

``product_integral``
    Specialisation to metric products (base x line), where the vertical
    field is genuinely Killing (``phi = 0``).  With ``kappa`` the constant
    Ricci factor of the base (``Ric_base = kappa * g_base``) the right-hand
    side vanishes and the statement collapses to

        I [ Theta * ( (S - n kappa) + kappa (1 - Theta^2) ) ] dA  =  0.

``einstein_integral``
    Specialisation to Einstein ambients with a genuine Killing field.
    Einstein means ``Ric = (S_amb / (n+1)) * g`` with ``n + 1`` the ambient
    dimension, so ``eps_N * Ric(N, N) = S_amb / (n+1)`` and

        I [ Theta * (S - S_amb + S_amb / (n+1)) ] dA  =  0.

Each law takes the frame bundle (``FrameFields``) of a compact surface on
its quadrature grid and the tolerance record (``tolerances``, default
:data:`~prodsurf.reports.TOLERANCES`), and judges itself against its own
field of it: the flux and product balances against ``integral_relative``
on the residual relative to the cancellation mass, the Einstein balance
against ``einstein_absolute`` on the raw integral, to match how it is used
downstream (a nonzero value rules surfaces out).  Each returns an
:class:`~prodsurf.reports.IntegralReport`.  The residual ``lhs - rhs`` is
reported both raw and relative to the mass

    normalization = I [ |Theta| * (|S| + |S_amb| + |Ric(N, N)|) ] dA

which measures the size of the cancellation the identity demands; the
relative residual divides by ``max(normalization, 1)`` so surfaces with
tiny mass are judged on an absolute scale rather than passed for free.
The mass is integrated once per frame bundle
(``FrameFields.cancellation_mass``) and shared by every law evaluated on it;
``run_formulas`` builds the one bundle from a surface and a grid.

The laws and the mass read five frame fields, ``BALANCE_FIELDS``: ``Theta``,
``S``, ``Ric(N, N)``, ``H`` and the area element ``dA``; the surface
dimension comes from the grid.  ``run_formulas`` alone states them: its
bundle, built with ``keep=BALANCE_FIELDS``, holds only those, five floats
per point where the full frame holds 64 at n = 3, and every check of the
frame still runs on every point.  A law given any other bundle reads the
same values, since a kept field does not depend on what else is kept.
"""

from __future__ import annotations

from .calculus import FrameFields, QuadratureGrid
from .errors import NotEinstein, WrongAmbient
from .reports import TOLERANCES, IntegralReport, Tolerances

# The frame fields the balance laws and their cancellation mass read.
BALANCE_FIELDS = ("theta", "scalar_curvature", "ricci_normal",
                  "mean_curvature", "area_element")


def _report(formula: str, fields: FrameFields, lhs: float, rhs: float,
            tolerance: float, *, relative_pass: bool) -> IntegralReport:
    residual = lhs - rhs
    normalization = fields.cancellation_mass
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


def integral_formula(fields: FrameFields, tolerances: Tolerances = TOLERANCES
                     ) -> IntegralReport:
    """Balance law for a closed conformal field in a general ambient.

    ``fields`` is the frame bundle of a compact hypersurface on its
    quadrature grid; the law reads ``tolerances.integral_relative``.
    """
    fr = fields.frame
    n = len(fields.grid.axes)
    eps_n = fields.surface.ambient.epsilon

    integrand = fr.theta * (fr.scalar_curvature
                            - fields.surface.ambient.scalar_curvature
                            + eps_n * fr.ricci_normal)
    lhs = fields.integrate(integrand)

    phi = fields.surface.ambient.killing.conformal_factor
    # the sign sits in the integrand: an exact zero sum is +0.0, so a
    # Killing field's right side is 0.0, never -0.0
    rhs = n * (n - 1) * fields.integrate(-eps_n * fr.mean_curvature * phi)
    return _report("integral_formula", fields, lhs, rhs,
                   tolerances.integral_relative, relative_pass=True)


def product_integral(fields: FrameFields, tolerances: Tolerances = TOLERANCES
                     ) -> IntegralReport:
    """Killing specialisation of the balance law in a metric product.

    Raises ``WrongAmbient`` unless the ambient is a product.
    """
    ambient = fields.surface.ambient
    if ambient.kind != "product":
        raise WrongAmbient(
            f"product integral needs a product ambient, got {ambient.name!r}")
    fr = fields.frame
    n = len(fields.grid.axes)
    kappa = ambient.base.kappa
    integrand = fr.theta * ((fr.scalar_curvature - n * kappa)
                            + kappa * (1.0 - fr.theta ** 2))
    lhs = fields.integrate(integrand)
    return _report("product_integral", fields, lhs, 0.0,
                   tolerances.integral_relative, relative_pass=True)


def einstein_integral(fields: FrameFields, tolerances: Tolerances = TOLERANCES
                      ) -> IntegralReport:
    """Killing specialisation of the balance law in an Einstein ambient.

    Raises ``NotEinstein`` unless the ambient is Einstein and its
    distinguished field is genuinely Killing (zero conformal factor).
    """
    ambient = fields.surface.ambient
    if not ambient.is_einstein:
        raise NotEinstein(f"ambient {ambient.name!r} is not Einstein")
    if ambient.killing.conformal_factor != 0.0:
        raise NotEinstein(
            f"distinguished field of {ambient.name!r} is conformal but not "
            "Killing; the Einstein balance needs a genuine Killing field")
    fr = fields.frame
    s_amb = ambient.scalar_curvature
    integrand = fr.theta * (fr.scalar_curvature - s_amb + s_amb / ambient.dim)
    lhs = fields.integrate(integrand)
    return _report("einstein_integral", fields, lhs, 0.0,
                   tolerances.einstein_absolute, relative_pass=False)


def available_formulas(surface) -> list[str]:
    """Names of the balance laws that apply to this surface's ambient."""
    ambient = surface.ambient
    names = ["integral_formula"]
    if ambient.kind == "product":
        names.append("product_integral")
    if ambient.is_einstein and ambient.killing.conformal_factor == 0.0:
        names.append("einstein_integral")
    return names


FORMULAS = {
    "integral_formula": integral_formula,
    "product_integral": product_integral,
    "einstein_integral": einstein_integral,
}


def run_formulas(surface, grid: QuadratureGrid,
                 tolerances: Tolerances = TOLERANCES) -> list[IntegralReport]:
    """Evaluate every applicable balance law on one frame bundle.

    Builds the bundle of ``surface`` on ``grid`` once, keeping only
    ``BALANCE_FIELDS``, and shares it, and its cancellation mass, across
    the laws.
    """
    fields = FrameFields(surface, grid, keep=BALANCE_FIELDS)
    return [FORMULAS[name](fields, tolerances)
            for name in available_formulas(surface)]
