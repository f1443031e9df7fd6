"""Graphs over a base surface: curvature equation, radial profiles, harness.

For the graph ``t = u(m)`` of a function over a two-dimensional base ``M``
inside the product ``M x R`` (sign ``epsilon`` on the vertical), the Gaussian
curvature of the graph satisfies

    K = K_M / W  +  epsilon * det(Hess u) / (det g_M * W^2),
    W = 1 + epsilon |Du|^2,

with ``Hess u`` the covariant Hessian on the base and ``|Du|^2`` the base
gradient norm.  Clearing denominators gives the polynomial form

    W^2 K  =  W K_M  +  epsilon * det(Hess u) / det g_M,

whose pointwise residual for a *declared* constant target curvature is what
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

import math
from dataclasses import dataclass, field

import numpy as np

from . import _smallmat
from .ambient import BaseManifold, hyperbolic_plane, make_product
from .calculus import FrameFields, QuadratureGrid
from .errors import (NotSpacelike, ParameterOutOfRange, SingularPoint,
                     StepFailure, WrongAmbient)
from .reports import TOLERANCES, CheckResult, CompletenessVerdict, HarnessReport
from .shape import GraphSurface

__all__ = [
    "closed_form_f",
    "closed_form_f_prime",
    "closed_form_f_double_prime",
    "radial_ode_rhs",
    "RadialSolution",
    "solve_radial",
    "graph_curvature",
    "corollary_equation_residual",
    "completeness_criterion",
    "theorem_harness",
]


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

# Dormand-Prince 5(4) (Dormand & Prince 1980): nodes C, stage weights A, the
# fifth-order weights B, the error weights E (fifth minus fourth order, over
# the six stages and the first-same-as-last seventh), and the quartic dense
# output P of Hairer-Norsett-Wanner, Solving ODEs I, II.6.  The step control
# in _dormand_prince is scipy's RK45, so the two take the same steps.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5            # -1 / (error estimator order + 1)
_RTOL, _ATOL = 1.0e-10, 1.0e-12     # tolerances of the reported pass
_SQRT2 = 2 ** 0.5                   # RMS norm over the two components


def _dormand_prince(rhs, start: float, stop: float, y0: tuple[float, float],
                    rtol: float, atol: float, nodes: np.ndarray
                    ) -> tuple[np.ndarray, int, int]:
    """Integrate ``f' = p, p' = rhs(x0, p)`` from ``start`` to ``stop``.

    Adaptive Dormand-Prince 5(4) on Python floats.  The local error of a
    step is the RMS over (f, p) of ``E`` against ``atol + max(|y|, |y_new|)
    rtol``.  A step is accepted below 1 and the next step scaled by
    ``0.9 err^(-1/5)``, clipped to [0.2, 10] and not grown right after a
    rejection; the first step follows Hairer-Norsett-Wanner II.4.  Steps
    shorter than ``10 ulp(x0)``, a non-finite profile and an overflow in
    ``rhs`` raise :class:`StepFailure`.

    Returns ``(y, steps, nfev)`` with ``y`` of shape ``(2, nodes.size)``
    from each step's quartic dense output at the ``nodes`` it covers (a node
    on a step boundary belongs to the step that ends there).
    """
    t = start
    f, p = y0
    steps = []                      # (t, t_new, f, p, the 7 stage p, 7 q)

    def fail(reason):
        raise StepFailure(f"radial integration stopped at x0={t:.7g}: {reason}")

    try:
        q = rhs(t, p)
        # initial step
        s_f, s_p = atol + abs(f) * rtol, atol + abs(p) * rtol
        d0 = math.sqrt((f / s_f) ** 2 + (p / s_p) ** 2) / _SQRT2
        d1 = math.sqrt((p / s_f) ** 2 + (q / s_p) ** 2) / _SQRT2
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, stop - t)
        p1 = p + h0 * q
        q1 = rhs(t + h0, p1)
        d2 = (math.sqrt(((p1 - p) / s_f) ** 2 + ((q1 - q) / s_p) ** 2)
              / _SQRT2 / h0)
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(100 * h0, h1, stop - t)
        nfev = 2

        while t < stop:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:
                    fail(f"step size {h_abs:.3e} is below 10 ulp of x0 or NaN")
                t_new = min(t + h_abs, stop)
                h = h_abs = t_new - t
                p2 = p + (_A21 * q) * h
                q2 = rhs(t + _C2 * h, p2)
                p3 = p + (_A31 * q + _A32 * q2) * h
                q3 = rhs(t + _C3 * h, p3)
                p4 = p + (_A41 * q + _A42 * q2 + _A43 * q3) * h
                q4 = rhs(t + _C4 * h, p4)
                p5 = p + (_A51 * q + _A52 * q2 + _A53 * q3 + _A54 * q4) * h
                q5 = rhs(t + _C5 * h, p5)
                p6 = p + (_A61 * q + _A62 * q2 + _A63 * q3 + _A64 * q4
                          + _A65 * q5) * h
                q6 = rhs(t + h, p6)
                f_new = f + h * (_B1 * p + _B3 * p3 + _B4 * p4 + _B5 * p5
                                 + _B6 * p6)
                p_new = p + h * (_B1 * q + _B3 * q3 + _B4 * q4 + _B5 * q5
                                 + _B6 * q6)
                q_new = rhs(t + h, p_new)
                nfev += 6
                e_f = (_E1 * p + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6
                       + _E7 * p_new) * h
                e_p = (_E1 * q + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6
                       + _E7 * q_new) * h
                e_f /= atol + max(abs(f), abs(f_new)) * rtol
                e_p /= atol + max(abs(p), abs(p_new)) * rtol
                err = math.sqrt(e_f * e_f + e_p * e_p) / _SQRT2
                if err < 1.0:
                    factor = (_MAX_FACTOR if err == 0.0 else
                              min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected = True
            if not (math.isfinite(f_new) and math.isfinite(p_new)):
                fail(f"the profile went non-finite (f={f_new}, f'={p_new})")
            steps.append((t, t_new, f, p, p, p2, p3, p4, p5, p6, p_new,
                          q, q2, q3, q4, q5, q6, q_new))
            t, f, p, q = t_new, f_new, p_new, q_new
    except OverflowError:
        fail("the right-hand side overflowed")

    table = np.array(steps)
    t_old, t_end, y_old = table[:, 0], table[:, 1], table[:, 2:4]
    h = t_end - t_old
    Q = np.stack([table[:, 4:11] @ _P, table[:, 11:18] @ _P], axis=1)
    k = np.searchsorted(t_end, nodes, side="left")
    x = (nodes - t_old[k]) / h[k]
    powers = np.cumprod(np.broadcast_to(x, (4, x.size)), axis=0)
    y = h[k] * np.einsum("ncj,jn->cn", Q[k], powers) + y_old[k].T
    return y, len(steps), nfev


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
        return "x0,f,f_prime\n" + "".join(
            f"{x0!r},{f!r},{fp!r}\n" for x0, f, fp in self.samples.tolist())

    def completeness(self) -> CompletenessVerdict:
        """Spacelike-bound verdict from this solution's sample table."""
        return _completeness_verdict(
            self.epsilon, self.K, self.gradient_sq(),
            (float(self.samples[0, 0]), float(self.samples[-1, 0])))


def solve_radial(epsilon: int, K: float, x0_max: float = 10.0,
                 delta: float = 1.0e-6, n_samples: int = 2048
                 ) -> RadialSolution:
    """Integrate the radial curvature equation from the cone point.

    Starts at ``x0 = 1 + delta`` with ``f = 0`` and ``f'`` seeded from the
    analytic limit ``f'(1+) = sqrt(eps (1+K))``, then advances with the
    explicit Dormand-Prince 5(4) pair: fifth-order steps, sized by the
    embedded fourth-order error estimate against ``rtol = 1e-10`` and
    ``atol = 1e-12`` (RMS norm, step factor ``0.9 err^(-1/5)`` clipped to
    [0.2, 10]; the step control and tableau of scipy's RK45).  The returned
    sample table is uniform on ``[1 + delta, x0_max]``, read from each
    step's quartic dense-output polynomial.  ``integrator_stats``
    records the accepted step count and the right-hand-side evaluations of
    that pass, and an a-posteriori error estimate: the sup-norm difference
    from a second pass at 100x tighter tolerances.
    """
    check_curvature_range(epsilon, K)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ParameterOutOfRange(
            f"start offset delta must be finite and > 0, got {delta}")
    if not (x0_max > 1.0 + delta and math.isfinite(x0_max)):
        raise ParameterOutOfRange(
            f"x0_max must be finite and exceed 1 + delta, got {x0_max}")
    rhs = radial_ode_rhs            # looked up per solve, so it can be wrapped
    nodes = np.linspace(1.0 + delta, x0_max, n_samples)

    def integrate(rtol, atol):
        return _dormand_prince(
            lambda x0, fp: rhs(epsilon, K, x0, fp), 1.0 + delta,
            float(x0_max), (0.0, math.sqrt(epsilon * (1.0 + K))), rtol, atol,
            nodes)

    y, steps, nfev = integrate(_RTOL, _ATOL)
    refined, _, _ = integrate(_RTOL * 1e-2, _ATOL * 1e-2)
    stats = {
        "steps": steps,
        "nfev": nfev,
        "rtol": _RTOL,
        "atol": _ATOL,
        "max_error_estimate": float(np.max(np.abs(y - refined))),
    }
    samples = np.column_stack([nodes, y[0], y[1]])
    return RadialSolution(epsilon=epsilon, K=K, delta=delta, x0_max=x0_max,
                          samples=samples, integrator_stats=stats)


# Height at which closed_form_match pins the additive constant of a profile.
_MATCH_ANCHOR = 2.0


def closed_form_match(solution: RadialSolution,
                      tolerance: float = TOLERANCES.radial_match
                      ) -> CheckResult:
    """Compare a numeric radial profile against the explicit solution.

    The profile is determined only up to an additive constant, so both the
    numeric and the explicit height are shifted to vanish at the sample point
    nearest ``_MATCH_ANCHOR`` before taking the sup-norm difference over the
    whole table.  The verdict is on the height profile; the slope column carries a
    transient of size ``delta * |K| * f'(1+)`` at the first samples (the
    integration is seeded with the analytic limit slope at the singular cone
    point), so its sup-norm deviation is only recorded in the note.
    """
    x0 = solution.samples[:, 0]
    f_num = solution.samples[:, 1]
    fp_num = solution.samples[:, 2]
    f_exact = closed_form_f(solution.epsilon, solution.K, x0)
    fp_exact = closed_form_f_prime(solution.epsilon, solution.K, x0)
    idx = int(np.argmin(np.abs(x0 - _MATCH_ANCHOR)))
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
        ambient=make_product(base, epsilon), u=height, du=grad, d2u=hess,
        radial_K=K)


# --------------------------------------------------------------------------
# closed-form graph quantities, read by the graph curvature equation and the
# completeness criterion (an independent route to the frame)
# --------------------------------------------------------------------------

def _gradient_sq(base: BaseManifold, du: np.ndarray, s: np.ndarray
                 ) -> np.ndarray:
    """``|Du|^2`` of a function on the base manifold, in the base metric."""
    ginv = base.metric_inverse_at(s)
    return np.einsum("...i,...ij,...j->...", du, ginv, du)


def _spacelike_w(graph: GraphSurface, du: np.ndarray, s: np.ndarray
                 ) -> np.ndarray:
    """``W = 1 + eps |Du|^2`` of a graph, gated to the spacelike range.

    Raises ``NotSpacelike`` where ``W <= 0``, which can only happen in a
    Lorentzian product (``|Du|^2 >= 1``).
    """
    w = _gradient_sq(graph.base, du, s)
    W = 1.0 + graph.epsilon * w
    if np.any(W <= 0.0):
        raise NotSpacelike(
            f"{graph.name}: |Du|^2 reaches {float(np.max(w)):.6f}; "
            "the graph is not spacelike")
    return W


def _covariant_hessian(base: BaseManifold, du: np.ndarray, d2u: np.ndarray,
                       s: np.ndarray) -> np.ndarray:
    """Covariant Hessian ``D^2 u`` of a function on the base manifold."""
    Gam = base.christoffel_at(s)
    return d2u - np.einsum("...kij,...k->...ij", Gam, du)


# --------------------------------------------------------------------------
# the graph curvature equation on a two-dimensional base
# --------------------------------------------------------------------------

def _graph_equation_pieces(g, m):
    """Common pieces of the graph curvature equation at base points ``m``.

    Returns ``(W, K_M, det_term)`` with ``W = 1 + eps |Du|^2``, ``K_M``
    the base's constant curvature and ``det_term = det(Hess u) / det g_M``.
    """
    if g.base.dim != 2:
        raise WrongAmbient(
            "the Gaussian curvature equation needs a two-dimensional base, "
            f"got {g.base.name!r} of dimension {g.base.dim}")
    m = np.asarray(m, dtype=float)
    base = g.base
    du = g.du(m)
    hess = _covariant_hessian(base, du, g.d2u(m), m)
    W = _spacelike_w(g, du, m)
    return (W, base.kappa,
            _smallmat.det(hess) / _smallmat.det(base.metric_at(m)))


def graph_curvature(g, s) -> np.ndarray:
    """Gaussian curvature of a graph via the determinant-quotient equation.

    This route goes directly through the base data and the covariant
    Hessian of the height, never touching normals or shape operators, so it
    is independent of the frame pipeline.
    """
    W, K_M, det_term = _graph_equation_pieces(g, s)
    return K_M / W + g.epsilon * det_term / W ** 2


def corollary_equation_residual(g, K: float, grid: QuadratureGrid
                                ) -> CheckResult:
    """Pointwise residual of the prescribed-curvature graph equation.

    Evaluates ``W^2 K - (W K_M + eps det(Hess u)/det g_M)`` on the grid for
    a declared constant target curvature ``K``, a float.  Entire solutions
    over the round sphere are exactly the constants with ``K = K_M``, so
    the residual doubles as a non-solution witness: it vanishes iff the
    declared pair actually solves the equation.  It is judged against
    ``TOLERANCES.corollary_residual``.
    """
    if g.base.name not in ("S2", "RP2"):
        raise WrongAmbient(
            "the entire-solution statement lives over the round sphere or "
            f"its projective quotient, got base {g.base.name!r}")
    m = grid.nodes
    W, K_M, det_term = _graph_equation_pieces(g, m)
    residual = W ** 2 * float(K) - (W * K_M + g.epsilon * det_term)
    max_residual = float(np.max(np.abs(residual)))
    tolerance = TOLERANCES.corollary_residual
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
                          sample_range: tuple[float, float]
                          ) -> CompletenessVerdict:
    """Judge sampled values of |Du|^2 against the completeness bound.

    For a radial profile (``K`` given) the supremum is the closed form
    ``eps (1+K)/(-K)`` and the samples must stay below it; otherwise the
    sampled maximum stands in for the supremum.  Rounding above the closed
    form is allowed up to ``TOLERANCES.completeness_slack``.
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
        bound_respected=bool(closed is None or sampled_max
                             <= closed + TOLERANCES.completeness_slack),
    )


def completeness_criterion(g: GraphSurface, grid: QuadratureGrid
                           ) -> CompletenessVerdict:
    """Supremum of |Du|^2 over a graph, deciding the completeness bound.

    Judged on the sampled maximum over the grid; the closed-form supremum
    is attached when the graph is a radial profile.  A numerically
    integrated :class:`RadialSolution` has its own ``completeness``.
    """
    m = grid.nodes
    return _completeness_verdict(
        g.epsilon, g.radial_K, _gradient_sq(g.base, g.du(m), m),
        (float(m[..., 0].min()), float(m[..., 0].max())))


def theorem_harness(g, grid: QuadratureGrid) -> HarnessReport:
    """Scan a compact graph for the curvature gap the rigidity results force.

    For a non-constant graph over a compact base, the comparison of the
    graph's curvature with the slice value (the base curvature) must attain
    a strict sign somewhere: Riemannian graphs dip below it somewhere
    (``min(K - K_M) < 0``), spacelike Lorentzian graphs exceed it somewhere
    (``max(K - K_M) > 0``).  In dimension three and up the same scan runs
    on scalar curvature, ``S - n kappa`` with the base's Ricci factor
    ``kappa``.  Constant graphs route to a slice verdict instead, whose
    ``max_curvature_gap`` is the largest ``|gap|``.
    """
    grid.require_compact("the curvature comparison scan")
    n = len(g.axes)
    m = grid.nodes
    du = g.du(m)
    frame = FrameFields(g, grid).frame
    theta_range = (float(frame.theta.min()), float(frame.theta.max()))
    kappa = g.base.kappa
    if n == 2:
        gap = graph_curvature(g, m) - kappa
        measure = "gauss_curvature"
    else:
        gap = frame.scalar_curvature - n * kappa
        measure = "scalar_curvature"

    flat = np.reshape(gap, (-1,))
    pts = np.reshape(m, (-1, n))
    if float(np.max(np.abs(du))) == 0.0:
        # Slice of the product: totally geodesic, curvature equals the base.
        kind, gap_min, gap_max, i_min, i_max = "slice", 0.0, 0.0, 0, 0
        expected = True
        detail = {
            "note": "slice: totally geodesic, curvature equals the base",
            "max_theta_sq_deviation": float(
                np.max(np.abs(frame.theta ** 2 - 1.0))),
            "max_shape_operator": float(np.max(np.abs(frame.shape_operator))),
            "max_curvature_gap": float(np.max(np.abs(gap))),
        }
    else:
        kind = "graph"
        i_min, i_max = int(np.argmin(flat)), int(np.argmax(flat))
        gap_min, gap_max = float(flat[i_min]), float(flat[i_max])
        expected = gap_min < 0.0 if g.epsilon == +1 else gap_max > 0.0
        detail = {"measure": measure}
    return HarnessReport(
        kind=kind,
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
        detail=detail,
    )
