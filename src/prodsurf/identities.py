"""Pointwise residual checks for the differential identities of the engine.

Each ``check_*`` function evaluates one identity over a whole grid of frames
and reports the maximum absolute residual.  Every identity involves grid
stencils, so it is judged by its measured convergence order between two
resolutions (see :func:`run_suite`), because its absolute residual is a
property of the grid, not of the geometry.  The order floors come from
:data:`prodsurf.zoo.TOLERANCES`.

The checks, with the frame quantities they tie together:

* ``norm_grad_h``      -- |grad h|^2 = eps (1 - Theta^2) in products;
* ``hessian_h``        -- Hess h = Theta <A . , . > and Lap h = eps n H Theta;
* ``gauss_scalar``     -- scalar curvature from metric stencils alone equals
                          the frame's S (Gauss equation, ambient data + A),
                          and in products also its product expansion;
* ``codazzi``          -- <Rbar(X,Y)Z, N> = <(grad_Y A)X - (grad_X A)Y, Z>;
* ``laplacian_theta``  -- the second-order formula for Lap Theta in terms of
                          grad H, S, Ricci and the conformal data;
* ``div_T_top``        -- div(T^top) = n phi + n H Theta.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .calculus import FrameFields, QuadratureGrid, partial_derivative
from .errors import WrongAmbient
from .reports import CheckResult
from .shape import intrinsic_curvature_oracle
from .zoo import TOLERANCES

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
    """A single-resolution result; ``_attach_order`` gives the verdict."""
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
    grad = fields.gradient(fr.height).values
    norm_sq = np.einsum("...i,...ij,...j->...", grad, fr.metric, grad)
    norm_sq -= eps * (1.0 - fr.theta ** 2)
    residual = _max_abs(norm_sq)
    return _result("norm_grad_h", fields, residual)


def check_hessian_h(fields: FrameFields) -> CheckResult:
    """Hess h_ij - Theta h_ij, and the traced form Lap h - eps n H Theta."""
    _require_product(fields, "check_hessian_h")
    fr = fields.frame
    eps = fields.surface.ambient.epsilon
    n = fr.dimension
    hess = fields.covariant_hessian(fr.height)
    hess -= fr.theta[..., None, None] * fr.second_form
    comp = _max_abs(hess)
    lap = fields.laplacian(fr.height).values
    lap -= eps * n * fr.mean_curvature * fr.theta
    traced = _max_abs(lap)
    out = _result("hessian_h", fields, max(comp, traced))
    out.note = f"componentwise {comp:.3e}, traced {traced:.3e}"
    return out


def check_gauss_scalar(fields: FrameFields) -> CheckResult:
    """Scalar curvature: metric-only stencil oracle vs the Gauss equation.

    The reference value is the frame pipeline's ``scalar_curvature`` (exact
    given analytic jets), the ``S`` that the balance laws and the sign
    harness consume.  In product ambients the product-space expansion
    ``(n-2) kappa + 2 kappa Theta^2 + 2 eps sum_{i<j} k_i k_j``, with the
    base curvature ``kappa`` sampled pointwise, must match that ``S`` too;
    its residual is folded into the maximum, so the product form of the
    Gauss equation is tested as well.
    """
    fr = fields.frame
    surface = fields.surface
    n = fr.dimension
    grid = fields.grid
    step = np.array([0.5 * np.min(np.diff(z)) if len(z) > 1 else 1e-2
                     for z in grid.nodes_1d])
    oracle = intrinsic_curvature_oracle(surface, grid.nodes, step=step)
    if n == 2:
        oracle *= 2.0
    oracle -= fr.scalar_curvature
    residual = _max_abs(oracle)
    if surface.ambient.kind != "product":
        return _result("gauss_scalar", fields, residual)
    eps = surface.ambient.epsilon
    nb = surface.ambient.base.dim
    kappa = surface.ambient.base.curvature_at(fr.point[..., :nb])
    expansion = ((n - 2) * kappa + 2.0 * kappa * fr.theta ** 2
                 + 2.0 * eps * fr.pair_sum)
    expansion -= fr.scalar_curvature
    product = _max_abs(expansion)
    out = _result("gauss_scalar", fields, max(residual, product))
    out.note = f"oracle {residual:.3e}, product expansion {product:.3e}"
    return out


def check_codazzi(fields: FrameFields) -> CheckResult:
    """<Rbar(d_i, d_j) d_k, N> = <(grad_j A) d_i - (grad_i A) d_j, d_k>."""
    fr = fields.frame
    ambient = fields.surface.ambient
    n = fr.dimension
    covA = fields.covariant_derivative_mixed(fr.shape_operator)  # (..., a, l, i)
    # lowered[..., i, j, k] = <(grad_j A) d_i, d_k> = g_kl (grad_j A)^l_i
    lowered = np.einsum("...kl,...jli->...ijk", fr.metric, covA)
    rhs = lowered - np.swapaxes(lowered, -3, -2)  # <(grad_j A)d_i - (grad_i A)d_j, d_k>
    # ambient curvature with tangent legs, paired against N
    tangent = fr.tangent
    point = fr.point
    lhs = np.zeros(rhs.shape)
    G = ambient.metric_at(point)
    GN = np.einsum("...ab,...b->...a", G, fr.normal)
    for i in range(n):
        for j in range(n):
            if j <= i:
                continue
            for k in range(n):
                R = ambient.curvature_operator(
                    point, tangent[..., i, :], tangent[..., j, :],
                    tangent[..., k, :])
                val = np.einsum("...a,...a->...", R, GN)
                lhs[..., i, j, k] = val
                lhs[..., j, i, k] = -val
    lhs -= rhs
    residual = _max_abs(lhs)
    return _result("codazzi", fields, residual)


def check_laplacian_theta(fields: FrameFields) -> CheckResult:
    """The drift equation for the angle function.

    Lap Theta = -eps n <grad H, T> + Theta (S - Sbar + eps (Ric(N,N) - n^2 H^2))
                - n (eps H phi + dphi/dN)
    with every right-hand term from analytic frame data and the left side
    from stacked grid stencils on the Theta field.
    """
    fr = fields.frame
    surface = fields.surface
    eps = fr.normal_sign
    n = fr.dimension
    lap_theta = fields.laplacian(fr.theta).values
    dH = np.stack(
        [partial_derivative(fr.mean_curvature, fields.grid, a) for a in range(n)],
        axis=-1)
    # <grad H, T> = <grad H, T^top> = dH_i tau^i (lowering cancels the raising)
    pair = np.einsum("...i,...i->...", dH, fr.tau)
    phi = fields.conformal_factor
    dphi_dN = fields.conformal_factor_normal_derivative
    rhs = (-eps * n * pair
           + fr.theta * (fr.scalar_curvature - fr.ambient_scalar
                         + eps * (fr.ricci_normal - n ** 2 * fr.mean_curvature ** 2))
           - n * (eps * fr.mean_curvature * phi + dphi_dN))
    lap_theta -= rhs
    residual = _max_abs(lap_theta)
    return _result("laplacian_theta", fields, residual,
                   min_order=TOLERANCES.min_order_stacked)


def check_div_T_top(fields: FrameFields) -> CheckResult:
    """div(T^top) = n phi + n H Theta."""
    fr = fields.frame
    n = fr.dimension
    phi = fields.conformal_factor
    div_tau = fields.divergence(fr.tau).values
    div_tau -= n * phi
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
    well above conditioning noise.
    """
    fine.coarse_resolution = resolution
    fine.coarse_residual = coarse.max_residual
    floor = TOLERANCES.residual_floor
    if max(fine.max_residual, coarse.max_residual) <= floor:
        fine.floored = True
        fine.passed = True
        fine.note = (fine.note + "; " if fine.note else "") + \
            "residuals at rounding floor on both grids, order not measurable"
        return fine
    ratio = fine.coarse_residual / fine.max_residual
    steps = math.log2(fine_resolution / resolution)
    fine.convergence_order = math.log2(max(ratio, 1e-300)) / steps
    fine.passed = fine.convergence_order >= fine.min_order
    return fine


def applicable_checks(surface, names: tuple[str, ...] | None = None,
                      ) -> tuple[str, ...]:
    """The subset of (the named) checks that applies to this ambient."""
    selected = names or tuple(CHECKS)
    is_product = surface.ambient.kind == "product"
    has_killing = surface.ambient.killing is not None
    out = []
    for name in selected:
        if name in ("norm_grad_h", "hessian_h") and not is_product:
            continue
        if name in ("laplacian_theta", "div_T_top") and not has_killing:
            continue
        out.append(name)
    return tuple(out)


def run_suite(surface, resolution: int, refine: int = 1,
              names: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run the applicable identity checks on one surface.

    ``refine = 0`` runs single-resolution checks (no order estimate);
    ``refine >= 1`` measures convergence between ``resolution`` and
    ``2**refine * resolution``.  Product-only and Killing-only checks are
    skipped automatically on ambients that do not support them.  The frame
    bundle at each resolution is shared across checks.
    """
    selected = applicable_checks(surface, names)
    coarse_fields = FrameFields(
        surface, QuadratureGrid.build(surface.axes, resolution))
    if refine <= 0:
        return [CHECKS[name](coarse_fields) for name in selected]
    fine_resolution = (2 ** refine) * resolution
    fine_fields = FrameFields(
        surface, QuadratureGrid.build(surface.axes, fine_resolution))
    results: list[CheckResult] = []
    for name in selected:
        coarse = CHECKS[name](coarse_fields)
        fine = CHECKS[name](fine_fields)
        results.append(_attach_order(coarse, fine, resolution, fine_resolution))
    return results
