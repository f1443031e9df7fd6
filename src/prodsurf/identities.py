"""Pointwise residual checks for the differential identities of the engine.

Each ``check_*`` function evaluates one identity over a whole grid of frames
and reports the maximum absolute residual.  Every identity involves grid
stencils, so it is judged by its measured convergence order between two
resolutions (see :func:`run_suite`), because its absolute residual is a
property of the grid, not of the geometry.  The order floors come from
:data:`prodsurf.reports.TOLERANCES`.

The checks, with the frame quantities they tie together:

* ``norm_grad_h``      -- |grad h|^2 = eps (1 - Theta^2) in products;
* ``hessian_h``        -- Hess h = Theta <A . , . > and Lap h = eps n H Theta;
* ``gauss_scalar``     -- scalar curvature from metric stencils alone equals
                          the frame's S (Gauss equation, ambient data + A),
                          and in products also its product expansion;
* ``codazzi``          -- <Rbar(X,Y)Z, N> = <(grad_Y A)X - (grad_X A)Y, Z>
                          on pairs i < j, from the curl of grad A, in which
                          the lower-index Christoffel term cancels;
* ``laplacian_theta``  -- the second-order formula for Lap Theta in terms of
                          grad H, S, Ricci and the conformal data;
* ``div_T_top``        -- div(T^top) = n phi + n H Theta.

Every ambient carries its distinguished field ``T``, so the last two checks
apply everywhere.  Its conformal factor ``phi`` is a constant, so the
``dphi/dN`` term of the Theta formula is zero and is not evaluated.

``gauss_scalar`` also checks the product expansion of ``S``, which is
algebraic in the frame data: it is judged on its own, against the absolute
``residual_floor``, on each grid.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import shape
from .calculus import FrameFields, QuadratureGrid, partial_derivative
from .errors import WrongAmbient
from .reports import TOLERANCES, CheckResult
from .shape import intrinsic_curvature_oracle

__all__ = [
    "CHECKS",
    "check_norm_grad_h",
    "check_hessian_h",
    "check_gauss_scalar",
    "check_codazzi",
    "check_laplacian_theta",
    "check_div_T_top",
    "run_suite",
]


def _require_product(fields: FrameFields, check: str) -> None:
    if fields.surface.ambient.kind != "product":
        raise WrongAmbient(f"{check} needs a product ambient, got "
                           f"{fields.surface.ambient.name!r}")


def _max_abs(residual: np.ndarray) -> float:
    """max |residual|, taken in place: the caller hands over its array."""
    return np.abs(residual, out=residual).max()


def _result(name: str, fields: FrameFields, residual: float, *,
            min_order: float = TOLERANCES.min_order) -> CheckResult:
    """A single-resolution result; ``_attach_order`` gives the order verdict."""
    return CheckResult(
        name=name,
        scenario=fields.surface.name,
        resolution=fields.grid.resolution,
        max_residual=float(residual),
        passed=True,
        min_order=min_order,
    )


# --------------------------------------------------------------------------
# the six checks
# --------------------------------------------------------------------------

def check_norm_grad_h(fields: FrameFields) -> CheckResult:
    """|grad h|^2 - eps (1 - Theta^2) on a product-space hypersurface."""
    _require_product(fields, "check_norm_grad_h")
    fr = fields.frame
    eps = fields.surface.ambient.epsilon
    grad = fields.gradient(fr.point[..., -1])
    norm_sq = np.einsum("...i,...ij,...j->...", grad, fr.metric, grad)
    norm_sq -= eps * (1.0 - fr.theta ** 2)
    residual = _max_abs(norm_sq)
    return _result("norm_grad_h", fields, residual)


def check_hessian_h(fields: FrameFields) -> CheckResult:
    """Hess h_ij - Theta h_ij, and the traced form Lap h - eps n H Theta."""
    _require_product(fields, "check_hessian_h")
    fr = fields.frame
    eps = fields.surface.ambient.epsilon
    n = len(fields.grid.axes)
    height = fr.point[..., -1]
    hess = fields.covariant_hessian(height)
    hess -= fr.theta[..., None, None] * fr.second_form
    comp = _max_abs(hess)
    lap = fields.laplacian(height)
    lap -= eps * n * fr.mean_curvature * fr.theta
    traced = _max_abs(lap)
    out = _result("hessian_h", fields, max(comp, traced))
    out.note = f"componentwise {comp:.3e}, traced {traced:.3e}"
    return out


def check_gauss_scalar(fields: FrameFields) -> CheckResult:
    """Scalar curvature: metric-only stencil oracle vs the Gauss equation.

    The oracle's ``S`` on the bundle's grid (its step is half the closest
    node spacing on each axis, and it shares samples along the rings of a
    periodic last axis), in every dimension, is compared with the frame
    pipeline's ``scalar_curvature`` (exact given analytic jets), the ``S``
    that the balance laws and the sign harness consume.  In product ambients
    the product-space expansion ``(n-2) kappa + 2 kappa Theta^2 + 2 eps
    e_2(A)``, with the base's constant Ricci factor ``kappa`` and ``e_2(A) =
    ((tr A)^2 - tr A^2) / 2`` taken from the frame's shape operator, must
    match that ``S`` too.  The expansion has no stencil, so its residual is
    judged on its own against ``residual_floor``, and the result's ``passed``
    carries that verdict; the order verdict of ``max_residual`` is the
    oracle's.
    """
    fr = fields.frame
    surface = fields.surface
    n = len(fields.grid.axes)
    oracle = intrinsic_curvature_oracle(surface, fields.grid)
    oracle -= fr.scalar_curvature
    residual = _max_abs(oracle)
    if surface.ambient.kind != "product":
        return _result("gauss_scalar", fields, residual)
    eps = surface.ambient.epsilon
    kappa = surface.ambient.base.kappa
    A = fr.shape_operator
    trA = np.einsum("...ii->...", A)
    e2 = 0.5 * (trA * trA - np.einsum("...ij,...ji->...", A, A))
    expansion = (n - 2) * kappa + 2.0 * kappa * fr.theta ** 2 + 2.0 * eps * e2
    expansion -= fr.scalar_curvature
    product = _max_abs(expansion)
    out = _result("gauss_scalar", fields, residual)
    out.passed = bool(product <= TOLERANCES.residual_floor)
    out.note = f"oracle {residual:.3e}, product expansion {product:.3e}"
    return out


def check_codazzi(fields: FrameFields) -> CheckResult:
    """<Rbar(d_i, d_j) d_k, N> = g_kl ((grad_j A)^l_i - (grad_i A)^l_j), i < j.

    Swapping ``i`` and ``j`` negates both sides, and ``i = j`` reads 0 = 0.
    The term ``-A^l_m Gamma^m_ai`` of ``(grad_a A)^l_i`` is symmetric in
    ``(a, i)`` (the connection is torsion-free) and cancels in the curl, so
    the curl is taken of ``D[..., a, l, i] = d_a A^l_i + Gamma^l_am A^m_i``.
    """
    fr = fields.frame
    ambient = fields.surface.ambient
    n = len(fields.grid.axes)
    A = fr.shape_operator
    D = fields.partials(A, index_rank=2)
    gam = fields.christoffels  # gam[..., l, a, m] = Gamma^l_am
    # the sum over m as one stacked (l a, m) @ (m, i) product
    gam_A = np.matmul(gam.reshape(gam.shape[:-3] + (n * n, n)), A)
    D += gam_A.reshape(gam.shape).swapaxes(-2, -3)
    del gam_A
    # ambient curvature with tangent legs, paired against N; the curved
    # block's metric is evaluated once, for G N and every R(t_i, t_j)t_k,
    # whose curved block components pair with those of G N
    t = fr.tangent
    kb = ambient.curved
    C = ambient.metric_at(fr.point[..., :kb])
    GN = ambient.lower(C, fr.normal, np.empty_like(fr.normal))[..., :kb]
    residual = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            rhs = np.einsum("...kl,...l->...k", fr.metric,
                            D[..., j, :, i] - D[..., i, :, j])
            for k in range(n):
                R = ambient.curvature_operator(C, t[..., i, :],
                                               t[..., j, :], t[..., k, :])
                lhs = np.einsum("...a,...a->...", R, GN)
                lhs -= rhs[..., k]
                residual = max(residual, _max_abs(lhs))
    return _result("codazzi", fields, residual)


def check_laplacian_theta(fields: FrameFields) -> CheckResult:
    """The drift equation for the angle function.

    Lap Theta = -eps n <grad H, T> + Theta (S - Sbar + eps (Ric(N,N) - n^2 H^2))
                - n eps H phi
    with every right-hand term from analytic frame data and the left side
    from stacked grid stencils on the Theta field.  The constant ``phi``
    has ``dphi/dN = 0``.
    """
    fr = fields.frame
    surface = fields.surface
    eps = surface.ambient.epsilon
    n = len(fields.grid.axes)
    lap_theta = fields.laplacian(fr.theta)
    dH = np.stack(
        [partial_derivative(fr.mean_curvature, fields.grid, a) for a in range(n)],
        axis=-1)
    # <grad H, T> = <grad H, T^top> = dH_i tau^i (lowering cancels the raising)
    pair = np.einsum("...i,...i->...", dH, fr.tau)
    phi = surface.ambient.killing.conformal_factor
    sbar = surface.ambient.scalar_curvature
    rhs = (-eps * n * pair
           + fr.theta * (fr.scalar_curvature - sbar
                         + eps * (fr.ricci_normal - n ** 2 * fr.mean_curvature ** 2))
           - n * eps * fr.mean_curvature * phi)
    lap_theta -= rhs
    residual = _max_abs(lap_theta)
    return _result("laplacian_theta", fields, residual,
                   min_order=TOLERANCES.min_order_stacked)


def check_div_T_top(fields: FrameFields) -> CheckResult:
    """div(T^top) = n phi + n H Theta."""
    fr = fields.frame
    n = len(fields.grid.axes)
    div_tau = fields.divergence(fr.tau)
    div_tau -= n * fields.surface.ambient.killing.conformal_factor
    div_tau -= n * fr.mean_curvature * fr.theta
    residual = _max_abs(div_tau)
    return _result("div_T_top", fields, residual)


CHECKS: dict[str, Callable[[FrameFields], CheckResult]] = {
    "norm_grad_h": check_norm_grad_h,
    "hessian_h": check_hessian_h,
    "gauss_scalar": check_gauss_scalar,
    "codazzi": check_codazzi,
    "laplacian_theta": check_laplacian_theta,
    "div_T_top": check_div_T_top,
}


# --------------------------------------------------------------------------
# convergence measurement
# --------------------------------------------------------------------------

def _attach_order(coarse: CheckResult, fine: CheckResult,
                  resolution: int, fine_resolution: int) -> CheckResult:
    """Merge a coarse/fine pair of check results into a convergence verdict.

    The order is ``log2(coarse / fine)`` for a resolution doubling.  The
    order criterion only makes sense for truncation-limited residuals: when
    an identity already holds far below any truncation scale on both grids
    (constant-field cases where every term vanishes pointwise), the residual
    is rounding noise amplified by chart conditioning, which *grows* under
    refinement.  Such results are flagged ``floored`` and pass on the floor
    criterion instead.  The floor sits well below genuine truncation error
    at these resolutions (>= 1e-5 at the coarse grids in the catalog) and
    well above conditioning noise.  A check that failed on either grid on
    its own (``passed`` false) fails either way.
    """
    fine.coarse_resolution = resolution
    fine.coarse_residual = coarse.max_residual
    both = coarse.passed and fine.passed
    floor = TOLERANCES.residual_floor
    if max(fine.max_residual, coarse.max_residual) <= floor:
        fine.floored = True
        fine.passed = both
        fine.note = (fine.note + "; " if fine.note else "") + \
            "residuals at rounding floor on both grids, order not measurable"
        return fine
    ratio = fine.coarse_residual / fine.max_residual
    steps = math.log2(fine_resolution / resolution)
    fine.convergence_order = math.log2(max(ratio, 1e-300)) / steps
    fine.passed = both and fine.convergence_order >= fine.min_order
    return fine


def applicable_checks(surface) -> tuple[str, ...]:
    """The checks that apply to this surface's ambient, in ``CHECKS`` order."""
    if surface.ambient.kind == "product":
        return tuple(CHECKS)
    return tuple(name for name in CHECKS
                 if name not in ("norm_grad_h", "hessian_h"))


# The check that run_suite hands to the spare block thread: its oracle is
# the largest piece of a grid's work and shares nothing with the others.
_POOLED = "gauss_scalar"


def _run_grid(fields: FrameFields, selected: tuple[str, ...]
              ) -> list[CheckResult]:
    """The ``selected`` checks on one bundle, in ``selected`` order: the
    checks before ``_POOLED``, ``_POOLED`` alone and the checks after it
    are the three items of one ``shape._block_map`` call."""
    fields.frame                    # built here: no pool thread builds it
    at = selected.index(_POOLED)
    groups = (selected[:at], selected[at:at + 1], selected[at + 1:])
    runs = shape._block_map(
        lambda group: [CHECKS[name](fields) for name in group], groups)
    return [result for run in runs for result in run]


def run_suite(surface, resolution: int, refine: int = 1) -> list[CheckResult]:
    """Run every identity check that applies to one surface.

    ``refine = 0`` runs single-resolution checks (no order estimate);
    ``refine >= 1`` measures convergence between ``resolution`` and
    ``2**refine * resolution``.  Product-only checks are skipped
    automatically on other ambients.  The grids run in turn, one frame
    bundle at a time: each grid's bundle is shared across the checks and
    let go before the next grid's frame is built.

    On each grid the frame is built on the caller, and the checks go to
    ``shape._block_map`` in three groups: those before ``gauss_scalar``,
    ``gauss_scalar`` alone (on the spare block thread, if there is one) and
    those after it.  Nothing is still running when the call returns or
    raises, and the error raised is that of the first failing check in
    ``CHECKS`` order.
    """
    selected = applicable_checks(surface)
    resolutions = ((resolution,) if refine <= 0
                   else (resolution, 2 ** refine * resolution))
    runs = []
    for res in resolutions:
        fields = FrameFields(surface, QuadratureGrid.build(surface.axes, res))
        runs.append(_run_grid(fields, selected))
    if refine <= 0:
        return runs[0]
    return [_attach_order(coarse, fine, *resolutions)
            for coarse, fine in zip(*runs)]
