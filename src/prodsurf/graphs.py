"""Graphs over a base surface: curvature equation, radial profiles, harness.

For the graph ``t = u(m)`` of a function over a two-dimensional base ``M``
inside the product ``M x R`` (sign ``epsilon`` on the vertical), the Gaussian
curvature of the graph satisfies

    K = K_M / W  +  epsilon * det(Hess u) / (det g_M * W^2),
    W = 1 + epsilon |Du|^2,

with ``Hess u`` the covariant Hessian on the base and ``|Du|^2`` the base
gradient norm.  Clearing denominators gives the polynomial form

    W^2 K  =  W K_M  +  epsilon * det(Hess u) / det g_M,

whose pointwise residual for a *declared* target curvature is what
``corollary_equation_residual`` reports: entire solutions on the round
sphere force ``u`` constant and ``K = K_M``, so any non-constant ``u``
leaves a visible residual.

Rotationally symmetric graphs over the hyperbolic plane reduce the constant
curvature equation to a one-dimensional ODE in the hyperboloid height
``x0 >= 1``, with ``f = u`` as a function of ``x0``:

    (1 + eps f'^2 (x0^2-1))^2 K
        = -1 - eps f'^2 (x0^2-1) + eps (x0 f' f'' (x0^2-1) + x0^2 f'^2).

Admissible constants are ``-1 < K < 0`` for ``epsilon = +1`` and ``K < -1``
for ``epsilon = -1``; the solution is explicit,

    f(x0) = sqrt(eps (1+K) / (-K)) * log( sqrt(1 - K (x0^2-1))
                                          + sqrt(-K) x0 ),

here normalized so ``f(1) = 0``.  Differentiating (and simplifying; the
forms below were verified symbolically against the logarithm) gives

    f'(x0)  = sqrt(eps (1+K)) * (1 - K (x0^2-1))^(-1/2),
    f''(x0) = sqrt(eps (1+K)) * K x0 * (1 - K (x0^2-1))^(-3/2),

so ``f'(1+) = sqrt(eps (1+K))``, which seeds the numerical integration at
the regular singular point ``x0 = 1``.  The gradient norm of the graph is

    |Du|^2 = f'^2 (x0^2 - 1) = eps (1+K) (x0^2-1) / (1 - K (x0^2-1)),

increasing in ``x0`` with supremum ``eps (1+K)/(-K)`` (equal to ``1 + 1/K``
in the Lorentzian case), which stays below 1 exactly when the completeness
criterion for entire spacelike graphs holds.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .ambient import hyperbolic_plane
from .calculus import FrameFields, QuadratureGrid
from .errors import (NonCompactDomain, NotSpacelike, ParameterOutOfRange,
                     SingularPoint, StepFailure, WrongAmbient)
from .reports import CheckResult, CompletenessVerdict, HarnessReport
from .shape import GraphSurface, covariant_hessian, gradient_sq

__all__ = [
    "closed_form_f",
    "closed_form_f_prime",
    "closed_form_f_double_prime",
    "closed_form_gradient_sq",
    "radial_ode_rhs",
    "StepControl",
    "RadialSolution",
    "solve_radial",
    "graph_curvature",
    "corollary_equation_residual",
    "completeness_criterion",
    "theorem_harness",
]

SELF_CONSISTENCY_TOL = 1.0e-8


# --------------------------------------------------------------------------
# admissible constant-curvature ranges
# --------------------------------------------------------------------------

def check_curvature_range(epsilon: int, K: float) -> None:
    """Gate (epsilon, K) to the ranges where the radial solution exists."""
    if epsilon == +1:
        if not -1.0 < K < 0.0:
            raise ParameterOutOfRange(
                f"epsilon=+1 needs -1 < K < 0, got K={K}")
    elif epsilon == -1:
        if not K < -1.0:
            raise ParameterOutOfRange(
                f"epsilon=-1 needs K < -1, got K={K}")
    else:
        raise ParameterOutOfRange(f"epsilon must be +1 or -1, got {epsilon}")


# --------------------------------------------------------------------------
# the explicit radial solution
# --------------------------------------------------------------------------

def _gate_x0(x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 < 1.0):
        raise ParameterOutOfRange("hyperboloid height x0 must be >= 1")
    return x0


def closed_form_f(epsilon: int, K: float, x0) -> np.ndarray:
    """Explicit rotationally symmetric profile, normalized so f(1) = 0."""
    check_curvature_range(epsilon, K)
    x0 = _gate_x0(x0)
    coeff = math.sqrt(epsilon * (1.0 + K) / (-K))
    raw = np.log(np.sqrt(1.0 - K * (x0 ** 2 - 1.0)) + math.sqrt(-K) * x0)
    at_one = math.log(1.0 + math.sqrt(-K))
    return coeff * (raw - at_one)


def closed_form_f_prime(epsilon: int, K: float, x0) -> np.ndarray:
    """d f / d x0 of the explicit profile."""
    check_curvature_range(epsilon, K)
    x0 = _gate_x0(x0)
    return math.sqrt(epsilon * (1.0 + K)) / np.sqrt(1.0 - K * (x0 ** 2 - 1.0))


def closed_form_f_double_prime(epsilon: int, K: float, x0) -> np.ndarray:
    """d^2 f / d x0^2 of the explicit profile."""
    check_curvature_range(epsilon, K)
    x0 = _gate_x0(x0)
    return (math.sqrt(epsilon * (1.0 + K)) * K * x0
            / (1.0 - K * (x0 ** 2 - 1.0)) ** 1.5)


def closed_form_gradient_sq(epsilon: int, K: float, x0) -> np.ndarray:
    """|Du|^2 = f'^2 (x0^2 - 1) of the radial graph, in closed form."""
    check_curvature_range(epsilon, K)
    x0 = _gate_x0(x0)
    return (epsilon * (1.0 + K) * (x0 ** 2 - 1.0)
            / (1.0 - K * (x0 ** 2 - 1.0)))


def radial_ode_rhs(epsilon: int, K: float, x0: float,
                   f_prime: float) -> float:
    """f'' solved from the rotationally symmetric curvature equation.

    Raises ``SingularPoint`` at or below the cone point ``x0 = 1`` (the
    equation carries a factor ``x0^2 - 1`` on f'') and ``ZeroDivisionError``
    when ``f' = 0`` makes the solved-for coefficient vanish; the latter is
    reported rather than masked because a vanishing f' means the radial
    reduction itself breaks down.
    """
    if x0 <= 1.0:
        raise SingularPoint(
            f"the radial equation is singular at x0 <= 1 (got x0={x0})")
    q = f_prime ** 2 * (x0 ** 2 - 1.0)
    numerator = ((1.0 + epsilon * q) ** 2 * K + 1.0 + epsilon * q
                 - epsilon * x0 ** 2 * f_prime ** 2)
    denominator = epsilon * x0 * f_prime * (x0 ** 2 - 1.0)
    if denominator == 0.0:
        raise ZeroDivisionError(
            "f'' coefficient vanishes (f' = 0); the radial equation cannot "
            "be solved for f'' here")
    return numerator / denominator


# --------------------------------------------------------------------------
# numerical integration of the radial profile
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    """Adaptive step-control settings for the radial integration."""

    rtol: float = 1.0e-10
    atol: float = 1.0e-12
    max_step: float = np.inf


@dataclass
class RadialSolution:
    """Numerically integrated radial profile with its sample table.

    ``samples`` has columns ``(x0, f, f_prime)`` on ``[1 + delta, x0_max]``.
    The Lorentzian spacelike invariant ``f'^2 (x0^2 - 1) < 1`` is checked at
    every sample on construction.
    """

    epsilon: int
    K: float
    delta: float
    x0_max: float
    samples: np.ndarray
    integrator_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon == -1:
            grad_sq = self.gradient_sq()
            if np.any(grad_sq >= 1.0):
                raise NotSpacelike(
                    "integrated Lorentzian profile leaves the spacelike "
                    f"range: max |Du|^2 = {grad_sq.max():.6f}")

    def gradient_sq(self) -> np.ndarray:
        """|Du|^2 = f'^2 (x0^2 - 1) at the sample points."""
        x0, fp = self.samples[:, 0], self.samples[:, 2]
        return fp ** 2 * (x0 ** 2 - 1.0)

    def to_csv(self) -> str:
        """Sample table as CSV text with header ``x0,f,f_prime``."""
        buf = io.StringIO()
        buf.write("x0,f,f_prime\n")
        for x0, f, fp in self.samples:
            buf.write(f"{float(x0)!r},{float(f)!r},{float(fp)!r}\n")
        return buf.getvalue()

    def completeness(self, bound_slack: float = 1.0e-10) -> CompletenessVerdict:
        """Spacelike-bound verdict from this solution's sample table."""
        return _completeness_verdict(
            self.epsilon, self.K, self.gradient_sq(),
            (float(self.samples[0, 0]), float(self.samples[-1, 0])),
            bound_slack)


def solve_radial(epsilon: int, K: float, x0_max: float = 10.0,
                 delta: float = 1.0e-6,
                 step_control: StepControl | None = None,
                 n_samples: int = 2048) -> RadialSolution:
    """Integrate the radial curvature equation from the cone point.

    Starts at ``x0 = 1 + delta`` with ``f = 0`` and ``f'`` seeded from the
    analytic limit ``f'(1+) = sqrt(eps (1+K))``, then advances with an
    adaptive 4th/5th-order Runge-Kutta scheme.  The returned sample table is
    uniform on ``[1 + delta, x0_max]``.  ``integrator_stats`` records the
    accepted step count, right-hand-side evaluations, and an a-posteriori
    error estimate obtained by re-integrating at 100x tighter tolerances.
    """
    check_curvature_range(epsilon, K)
    if delta <= 0.0:
        raise ParameterOutOfRange(f"start offset delta must be > 0, got {delta}")
    if x0_max <= 1.0 + delta:
        raise ParameterOutOfRange(
            f"x0_max must exceed 1 + delta, got {x0_max}")
    ctrl = step_control or StepControl()

    def rhs(t, y):
        return (y[1], radial_ode_rhs(epsilon, K, t, y[1]))

    start = 1.0 + delta
    y0 = (0.0, math.sqrt(epsilon * (1.0 + K)))
    t_eval = np.linspace(start, x0_max, n_samples)

    def integrate(rtol, atol):
        sol = solve_ivp(rhs, (start, x0_max), y0, method="RK45",
                        t_eval=t_eval, rtol=rtol, atol=atol,
                        max_step=ctrl.max_step)
        if not sol.success:
            raise StepFailure(
                f"radial integration stopped at x0={sol.t[-1]:.6f}: "
                f"{sol.message}")
        return sol

    sol = integrate(ctrl.rtol, ctrl.atol)
    refined = integrate(ctrl.rtol * 1e-2, ctrl.atol * 1e-2)
    err = float(np.max(np.abs(sol.y - refined.y)))

    samples = np.column_stack([sol.t, sol.y[0], sol.y[1]])
    stats = {
        "steps": int(sol.t.size),
        "nfev": int(sol.nfev),
        "rtol": ctrl.rtol,
        "atol": ctrl.atol,
        "max_error_estimate": err,
    }
    return RadialSolution(epsilon=epsilon, K=K, delta=delta, x0_max=x0_max,
                          samples=samples, integrator_stats=stats)


def closed_form_match(solution: RadialSolution,
                      tolerance: float = 1.0e-6,
                      anchor: float = 2.0) -> CheckResult:
    """Compare a numeric radial profile against the explicit solution.

    The profile is determined only up to an additive constant, so both the
    numeric and the explicit height are shifted to vanish at the sample point
    nearest ``anchor`` before taking the sup-norm difference over the whole
    table.  The verdict is on the height profile; the slope column carries a
    transient of size ``delta * |K| * f'(1+)`` at the first samples (the
    integration is seeded with the analytic limit slope at the singular cone
    point), so its sup-norm deviation is only recorded in the note.
    """
    x0 = solution.samples[:, 0]
    f_num = solution.samples[:, 1]
    fp_num = solution.samples[:, 2]
    f_exact = closed_form_f(solution.epsilon, solution.K, x0)
    fp_exact = closed_form_f_prime(solution.epsilon, solution.K, x0)
    idx = int(np.argmin(np.abs(x0 - anchor)))
    diff_f = np.abs((f_num - f_num[idx]) - (f_exact - f_exact[idx]))
    residual = float(diff_f.max())
    fp_dev = float(np.abs(fp_num - fp_exact).max())
    return CheckResult(
        name="radial_closed_form_match",
        scenario=f"radial eps={solution.epsilon} K={solution.K}",
        resolution=int(x0.size),
        max_residual=residual,
        passed=residual <= tolerance,
        tolerance=tolerance,
        note=(f"constant matched at x0={float(x0[idx]):.6f}; "
              f"max slope deviation {fp_dev:.3e} (start transient)"),
    )


def radial_graph(epsilon: int, K: float, box: float = 1.2):
    """The explicit radial profile as a graph over the hyperbolic plane.

    Chart coordinates are ``m = (x1, x2)`` with hyperboloid height
    ``x0 = sqrt(1 + |m|^2)``; the graph height is ``u(m) = f(x0)``.
    """
    check_curvature_range(epsilon, K)
    base = hyperbolic_plane(box=box)

    def height(m):
        m = np.asarray(m, dtype=float)
        x0 = np.sqrt(1.0 + m[..., 0] ** 2 + m[..., 1] ** 2)
        return closed_form_f(epsilon, K, x0)

    def grad(m):
        m = np.asarray(m, dtype=float)
        x0 = np.sqrt(1.0 + m[..., 0] ** 2 + m[..., 1] ** 2)
        fp = closed_form_f_prime(epsilon, K, x0)
        return (fp / x0)[..., None] * m

    def hess(m):
        m = np.asarray(m, dtype=float)
        x0 = np.sqrt(1.0 + m[..., 0] ** 2 + m[..., 1] ** 2)
        fp = closed_form_f_prime(epsilon, K, x0)
        fpp = closed_form_f_double_prime(epsilon, K, x0)
        mm = m[..., :, None] * m[..., None, :]
        eye = np.eye(2)
        return (fpp / x0 ** 2 - fp / x0 ** 3)[..., None, None] * mm \
            + (fp / x0)[..., None, None] * eye
    sign = "m" if K < -1 else "p"
    return GraphSurface(
        name=f"radial_eps{epsilon:+d}_K{sign}{abs(K):g}".replace(".", "_"),
        base=base, epsilon=epsilon, u=height, du=grad, d2u=hess, radial_K=K)


# --------------------------------------------------------------------------
# the graph curvature equation on a two-dimensional base
# --------------------------------------------------------------------------

def _graph_equation_pieces(g, m):
    """Common pieces of the graph curvature equation at base points ``m``.

    Returns ``(W, K_M, det_term)`` with ``W = 1 + eps |Du|^2`` and
    ``det_term = det(Hess u) / det g_M``.
    """
    if g.base.dim != 2:
        raise WrongAmbient(
            "the Gaussian curvature equation needs a two-dimensional base, "
            f"got {g.base.name!r} of dimension {g.base.dim}")
    m = np.asarray(m, dtype=float)
    base = g.base
    du = g.du(m)
    hess = covariant_hessian(base, du, g.d2u(m), m)
    W = 1.0 + g.epsilon * gradient_sq(base, du, m)
    if g.epsilon == -1 and np.any(W <= 0.0):
        raise NotSpacelike(
            f"graph {g.name!r} is not spacelike: min(1 - |Du|^2) = "
            f"{W.min():.6f}")
    det_h = (hess[..., 0, 0] * hess[..., 1, 1]
             - hess[..., 0, 1] * hess[..., 1, 0])
    return W, base.curvature_at(m), det_h / base.metric_det_at(m)


def graph_curvature(g, s) -> np.ndarray:
    """Gaussian curvature of a graph via the determinant-quotient equation.

    This route goes directly through the base data and the covariant
    Hessian of the height, never touching normals or shape operators, so it
    is independent of the frame pipeline.
    """
    W, K_M, det_term = _graph_equation_pieces(g, s)
    return K_M / W + g.epsilon * det_term / W ** 2


def corollary_equation_residual(g, K_field, grid: QuadratureGrid,
                                tolerance: float = SELF_CONSISTENCY_TOL,
                                ) -> CheckResult:
    """Pointwise residual of the prescribed-curvature graph equation.

    Evaluates ``W^2 K - (W K_M + eps det(Hess u)/det g_M)`` on the grid for
    a declared target curvature ``K_field`` (scalar, array, or callable on
    base points).  Entire solutions over the round sphere are exactly the
    constants with ``K = K_M``, so the residual doubles as a non-solution
    witness: it vanishes iff the declared pair actually solves the equation.
    """
    if g.base.name not in ("S2", "RP2"):
        raise WrongAmbient(
            "the entire-solution statement lives over the round sphere or "
            f"its projective quotient, got base {g.base.name!r}")
    m = grid.nodes
    W, K_M, det_term = _graph_equation_pieces(g, m)
    if callable(K_field):
        K_target = np.asarray(K_field(m), dtype=float)
    else:
        K_target = np.broadcast_to(np.asarray(K_field, dtype=float), W.shape)
    residual = W ** 2 * K_target - (W * K_M + g.epsilon * det_term)
    max_residual = float(np.max(np.abs(residual)))
    return CheckResult(
        name="corollary_equation",
        scenario=g.name,
        resolution=grid.resolution,
        max_residual=max_residual,
        passed=bool(max_residual <= tolerance),
        tolerance=tolerance,
    )


# --------------------------------------------------------------------------
# completeness criterion and the theorem harness
# --------------------------------------------------------------------------

def _completeness_verdict(epsilon: int, K: float | None, grad_sq: np.ndarray,
                          sample_range: tuple[float, float],
                          bound_slack: float) -> CompletenessVerdict:
    """Judge sampled values of |Du|^2 against the completeness bound.

    For a radial profile (``K`` given) the supremum is the closed form
    ``eps (1+K)/(-K)`` and the samples must stay below it; otherwise the
    sampled maximum stands in for the supremum.
    """
    sampled_max = float(grad_sq.max())
    closed = None if K is None else float(epsilon * (1.0 + K) / (-K))
    sup = sampled_max if closed is None else closed
    return CompletenessVerdict(
        epsilon=epsilon,
        K=K,
        sup_du_sq=sup,
        closed_form_value=closed,
        sampled_max=sampled_max,
        sample_range=sample_range,
        samples=int(grad_sq.size),
        criterion_met=bool(sup < 1.0),
        bound_respected=bool(closed is None or sampled_max <= closed + bound_slack),
    )


def completeness_criterion(g: GraphSurface, grid: QuadratureGrid,
                           bound_slack: float = 1.0e-10,
                           ) -> CompletenessVerdict:
    """Supremum of |Du|^2 over a graph, deciding the completeness bound.

    Judged on the sampled maximum over the grid; the closed-form supremum
    is attached when the graph is a radial profile.  A numerically
    integrated :class:`RadialSolution` has its own ``completeness``.
    """
    m = grid.nodes
    return _completeness_verdict(
        g.epsilon, g.radial_K, gradient_sq(g.base, g.du(m), m),
        (float(m[..., 0].min()), float(m[..., 0].max())), bound_slack)


def theorem_harness(g, grid: QuadratureGrid) -> HarnessReport:
    """Scan a compact graph for the curvature gap the rigidity results force.

    For a non-constant graph over a compact base, the comparison of the
    graph's curvature with the slice value (the base curvature) must attain
    a strict sign somewhere: Riemannian graphs dip below it somewhere
    (``min(K - K_M) < 0``), spacelike Lorentzian graphs exceed it somewhere
    (``max(K - K_M) > 0``).  In dimension three and up the same scan runs
    on scalar curvature.  Constant graphs route to a slice verdict instead.
    """
    if not g.compact:
        raise NonCompactDomain(
            f"the harness needs a compact base, got {g.base.name!r}")
    n = len(g.axes)
    m = grid.nodes
    du = g.du(m)
    fields = FrameFields(g, grid)
    frame = fields.frame
    theta_range = (float(frame.theta.min()), float(frame.theta.max()))
    kappa = g.base.curvature_at(m)

    if float(np.max(np.abs(du))) == 0.0:
        # Slice of the product: totally geodesic, curvature equals the base.
        witness = tuple(float(c) for c in np.reshape(m, (-1, n))[0])
        if n == 2:
            gap = float(np.max(np.abs(graph_curvature(g, m) - kappa)))
        else:
            gap = float(np.max(np.abs(frame.scalar_curvature - n * kappa)))
        return HarnessReport(
            kind="slice",
            scenario=g.name,
            epsilon=g.epsilon,
            dimension=n,
            resolution=grid.resolution,
            gap_min=0.0,
            gap_max=0.0,
            witness_min=witness,
            witness_max=witness,
            expected_sign_ok=True,
            theta_range=theta_range,
            detail={
                "note": "slice: totally geodesic, curvature equals the base",
                "max_theta_sq_deviation": float(
                    np.max(np.abs(frame.theta ** 2 - 1.0))),
                "max_shape_operator": float(
                    np.max(np.abs(frame.shape_operator))),
                "max_curvature_gap": gap,
            },
        )

    if n == 2:
        gap = graph_curvature(g, m) - kappa
        measure = "gauss_curvature"
    else:
        gap = frame.scalar_curvature - n * kappa
        measure = "scalar_curvature"

    flat = np.reshape(gap, (-1,))
    pts = np.reshape(m, (-1, n))
    i_min, i_max = int(np.argmin(flat)), int(np.argmax(flat))
    gap_min, gap_max = float(flat[i_min]), float(flat[i_max])
    if g.epsilon == +1:
        expected = gap_min < 0.0
    else:
        expected = gap_max > 0.0
    return HarnessReport(
        kind="graph",
        scenario=g.name,
        epsilon=g.epsilon,
        dimension=n,
        resolution=grid.resolution,
        gap_min=gap_min,
        gap_max=gap_max,
        witness_min=tuple(float(c) for c in pts[i_min]),
        witness_max=tuple(float(c) for c in pts[i_max]),
        expected_sign_ok=bool(expected),
        theta_range=theta_range,
        detail={"measure": measure},
    )
