"""Acceptance battery: the package's top-level correctness contract.

Each criterion below is a self-contained verdict over the public modules —
identity convergence across the scenario catalog, vanishing of the integral
balance laws, agreement of numeric radial profiles with the explicit
solutions, curvature-comparison signs on randomized graphs, and bytewise
determinism of the report pipeline.  ``run_battery`` evaluates all of them
and emits one PASS/FAIL line per criterion.

Verdict details carry only deterministic quantities (residuals, orders,
counts); wall-clock timings are reduced to within-budget booleans so that
two runs of the battery serialize to identical bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambient import make_product, round_sphere
from .calculus import FrameFields, QuadratureGrid
from .errors import ParameterOutOfRange
from .graphs import (check_curvature_range, closed_form_match,
                     corollary_equation_residual, graph_curvature,
                     radial_graph, solve_radial, theorem_harness)
from .identities import run_suite
from .integral import einstein_integral, integral_formula, product_integral
from .reports import Report, dump_json, make_envelope
from .shape import GraphSurface
from .zoo import constant_profile, cosine_profile, instantiate, list_scenarios

# -- pinned criterion constants ---------------------------------------------
# Tolerances shared with the rest of the package live in reports.TOLERANCES;
# the constants here belong to one criterion each.

IDENTITY_TIME_BUDGET = 180.0          # seconds for the full identity sweep
SPHERE_FLUX = 8.0 * math.pi           # both sides on the unit round sphere
CURVATURE_REPRODUCTION_TOL = 1.0e-6
RELATIVE_FLOOR = 1.0e-12              # relative residual treated as roundoff
GRADIENT_BOUND = 0.5                  # 1 + 1/K at K = -2
GRADIENT_BOUND_TOL = 1.0e-4
# Largest admissible shortfall of the windowed maximum of |Du|^2 below its
# closed-form supremum: the bound is attained only in the limit x0 -> inf,
# and on [1, 50] the exact shortfall is 0.5/4999 ~ 1.0002e-4.
WINDOW_GAP_LIMIT = 1.01e-4
MIN_THETA_TOL = 1.0e-3
RANDOM_SEED = 20260814
N_RANDOM_GRAPHS = 50
EXACT_TOL = 1.0e-12

REJECTED_PARAMETER_PAIRS = ((1, -1.5), (1, 0.5), (-1, -0.5))
ACCEPTED_PARAMETER_PAIRS = ((1, -0.9), (1, -0.5), (1, -0.1),
                            (-1, -1.1), (-1, -2.0), (-1, -5.0))
PRODUCT_GRAPH_SCENARIOS = (
    "graph_S2xR_cos03", "graph_S2xR1_cos02",
    "graph_RP2xR_even025", "graph_RP2xR1_even015",
    "graph_T2xR_wave04", "graph_T2xR1_wave04",
)
HOMOTHETIC_SCENARIOS = ("sphere_R3_homothetic", "ellipsoid_R3_homothetic",
                        "torus_R3_homothetic")
GEODESIC_SPHERE_RADII = (math.pi / 6, math.pi / 4, math.pi / 3)


@dataclass
class CriterionVerdict(Report):
    """One acceptance criterion with its evidence lines."""

    number: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} criterion {self.number}: {self.title}"


def _verdict(number: int, title: str, checks: list[tuple[bool, str]]
             ) -> CriterionVerdict:
    details = [("ok  " if ok else "BAD ") + text for ok, text in checks]
    return CriterionVerdict(number=number, title=title,
                            passed=all(ok for ok, _ in checks),
                            details=details)


# -- criterion 1: identity suite --------------------------------------------

def criterion_identities() -> CriterionVerdict:
    """Every applicable identity check converges on every compact scenario."""
    checks: list[tuple[bool, str]] = []
    start = time.perf_counter()
    for sc in list_scenarios():
        surface, grid, _ = instantiate(sc.name)
        if not grid.compact:
            continue
        results = run_suite(surface, grid.resolution, refine=1)
        ok = all(r.passed for r in results)
        orders = [r.convergence_order for r in results
                  if r.convergence_order is not None]
        if orders:
            note = f"worst order {min(orders):.2f}"
        else:
            note = "all residuals at rounding floor"
        floored = sum(1 for r in results if r.floored)
        if floored and orders:
            note += f", {floored} floored"
        checks.append((ok, f"{sc.name}: {len(results)} checks "
                           f"({grid.resolution}->{2 * grid.resolution}), {note}"))
    elapsed = time.perf_counter() - start
    checks.append((elapsed <= IDENTITY_TIME_BUDGET,
                   f"sweep within {IDENTITY_TIME_BUDGET:.0f}s budget: "
                   f"{elapsed <= IDENTITY_TIME_BUDGET}"))
    return _verdict(1, "identity suite converges on every compact scenario",
                    checks)


# -- criterion 2: product integral on non-slice graphs ----------------------

def criterion_product_integral() -> CriterionVerdict:
    """The product balance integral vanishes on six non-slice graphs."""
    checks: list[tuple[bool, str]] = []
    for name in PRODUCT_GRAPH_SCENARIOS:
        surface, _, tol = instantiate(name)
        fine, coarse = (product_integral(FrameFields(
            surface, QuadratureGrid.build(surface.axes, resolution)), tol)
            for resolution in (128, 64))
        ok = fine.relative_residual <= tol.integral_relative
        checks.append((ok, f"{name}: relative residual "
                           f"{fine.relative_residual:.3e} at 128"))
        if fine.relative_residual <= RELATIVE_FLOOR:
            checks.append((True, f"{name}: refinement floored "
                                 f"(64: {coarse.relative_residual:.3e}, "
                                 f"128: {fine.relative_residual:.3e})"))
        else:
            order = math.log2(max(coarse.relative_residual
                                  / fine.relative_residual, 1e-300))
            checks.append((order >= tol.min_order_stacked,
                           f"{name}: refinement order {order:.2f}"))
    return _verdict(2, "product integral vanishes on non-slice graphs", checks)


# -- criterion 3: homothety flux balance in flat space -----------------------

def criterion_homothetic_flux() -> CriterionVerdict:
    """Balance of curvature flux against position flux on closed surfaces."""
    checks: list[tuple[bool, str]] = []
    for name in HOMOTHETIC_SCENARIOS:
        surface, grid, tol = instantiate(name)
        rep = integral_formula(FrameFields(surface, grid), tol)
        checks.append((rep.relative_residual <= tol.integral_relative,
                       f"{name}: lhs {rep.lhs:.9f} rhs {rep.rhs:.9f} "
                       f"relative residual {rep.relative_residual:.3e}"))
        if name == "sphere_R3_homothetic":
            dl = abs(rep.lhs - SPHERE_FLUX)
            dr = abs(rep.rhs - SPHERE_FLUX)
            checks.append((max(dl, dr) <= 1.0e-6,
                           f"{name}: both sides equal 8*pi to "
                           f"{max(dl, dr):.3e}"))
    return _verdict(3, "homothety flux balance on closed surfaces", checks)


# -- criterion 4: Einstein balance on geodesic spheres -----------------------

def criterion_einstein_spheres() -> CriterionVerdict:
    """The Einstein balance integral vanishes on round geodesic spheres."""
    checks: list[tuple[bool, str]] = []
    for rho in GEODESIC_SPHERE_RADII:
        surface, grid, tol = instantiate("geodesic_sphere_S3",
                                         {"rho": rho, "resolution": 96})
        fields = FrameFields(surface, grid)
        rep = einstein_integral(fields, tol)
        checks.append((abs(rep.residual) <= tol.einstein_absolute,
                       f"rho={rho:.6f}: balance residual {rep.residual:.3e}"))
        fr = fields.frame
        literal = fields.integrate(fr.theta * (fr.scalar_curvature - 6.0 + 1.5))
        checks.append((abs(literal) <= tol.einstein_absolute,
                       f"rho={rho:.6f}: quarter-weight variant {literal:.3e}"))
        if abs(rho - math.pi / 6) < 1e-12:
            min_theta = float(np.min(np.abs(fr.theta)))
            checks.append((min_theta <= MIN_THETA_TOL,
                           f"rho={rho:.6f}: min |Theta| {min_theta:.3e} "
                           "(the field is tangent somewhere)"))
    return _verdict(4, "Einstein balance on geodesic spheres", checks)


# -- criterion 5: radial profiles and the parameter gate ---------------------

def criterion_radial_profiles() -> CriterionVerdict:
    """Numeric radial profiles reproduce the explicit solutions."""
    checks: list[tuple[bool, str]] = []
    for eps, K in ACCEPTED_PARAMETER_PAIRS:
        sol = solve_radial(eps, K)
        rep = closed_form_match(sol)
        checks.append((rep.passed,
                       f"eps={eps:+d} K={K}: profile deviation "
                       f"{rep.max_residual:.3e}"))
        g = radial_graph(eps, K)
        grid = QuadratureGrid.build(g.axes, 48)
        dev = float(np.max(np.abs(graph_curvature(g, grid.nodes) - K)))
        checks.append((dev <= CURVATURE_REPRODUCTION_TOL,
                       f"eps={eps:+d} K={K}: curvature reproduction "
                       f"deviation {dev:.3e}"))
    for eps, K in REJECTED_PARAMETER_PAIRS:
        try:
            check_curvature_range(eps, K)
            checks.append((False, f"eps={eps:+d} K={K}: gate failed to reject"))
        except ParameterOutOfRange:
            checks.append((True, f"eps={eps:+d} K={K}: rejected"))
    return _verdict(5, "radial profiles match explicit solutions; gate rejects "
                       "invalid parameters", checks)


# -- criterion 6: Lorentzian gradient bound ----------------------------------

def criterion_gradient_bound() -> CriterionVerdict:
    """sup |Du|^2 = 1 + 1/K for the Lorentzian profile, never exceeded."""
    sol = solve_radial(-1, -2.0, x0_max=50.0)
    v = sol.completeness()
    gap = GRADIENT_BOUND - v.sampled_max
    checks = [
        (abs(v.sup_du_sq - GRADIENT_BOUND) <= GRADIENT_BOUND_TOL,
         f"supremum of |Du|^2 is {v.sup_du_sq!r} (bound {GRADIENT_BOUND})"),
        (v.bound_respected,
         f"sampled maximum {v.sampled_max:.10f} never exceeds the bound"),
        (0.0 <= gap <= WINDOW_GAP_LIMIT,
         f"windowed shortfall below the bound {gap:.6e} "
         f"(monotone approach on [1, 50])"),
        (v.criterion_met, "completeness criterion met"),
    ]
    return _verdict(6, "Lorentzian gradient bound attained and respected",
                    checks)


# -- criterion 7: randomized curvature comparison ----------------------------

def criterion_randomized_harness() -> CriterionVerdict:
    """Randomized graphs always show the forced curvature-comparison sign."""
    rng = np.random.default_rng(RANDOM_SEED)
    checks: list[tuple[bool, str]] = []
    grid = QuadratureGrid.build(round_sphere(2).axes, 16)
    for eps, label, want in ((1, "Riemannian", "min(K - 1) < 0"),
                             (-1, "Lorentzian", "max(K - 1) > 0")):
        amplitudes = rng.uniform(0.005, 0.5, size=N_RANDOM_GRAPHS)
        ambient = make_product(round_sphere(2), eps)
        worst = math.inf
        all_ok = True
        for a in amplitudes:
            u, du, d2u = cosine_profile(float(a))
            g = GraphSurface(name=f"random_a{a:.6f}", ambient=ambient,
                             u=u, du=du, d2u=d2u)
            rep = theorem_harness(g, grid)
            margin = -rep.gap_min if eps == 1 else rep.gap_max
            worst = min(worst, margin)
            all_ok = all_ok and rep.expected_sign_ok and rep.kind == "graph"
        checks.append((all_ok,
                       f"{label}: {N_RANDOM_GRAPHS} random graphs all give "
                       f"{want}; smallest margin {worst:.3e}"))
    for eps in (1, -1):
        ambient = make_product(round_sphere(2), eps)
        for value in (0.0, 0.37, -0.2):
            u, du, d2u = constant_profile(value)
            g = GraphSurface(name=f"const_{value}", ambient=ambient,
                             u=u, du=du, d2u=d2u)
            rep = theorem_harness(g, grid)
            d = rep.detail
            ok = (rep.kind == "slice"
                  and d["max_theta_sq_deviation"] <= EXACT_TOL
                  and d["max_shape_operator"] <= EXACT_TOL
                  and d["max_curvature_gap"] <= EXACT_TOL)
            checks.append((ok, f"eps={eps:+d} u={value}: slice verdict, "
                               f"Theta^2 = 1, A = 0, K = 1 to {EXACT_TOL:.0e}"))
    return _verdict(7, "curvature comparison sign on randomized graphs",
                    checks)


# -- criterion 8: constant-graph curvature equation ---------------------------

def criterion_constant_residuals() -> CriterionVerdict:
    """The graph curvature equation residual is exact on constant graphs."""
    u, du, d2u = constant_profile(0.3)
    g = GraphSurface(name="const_03", ambient=make_product(round_sphere(2), 1),
                     u=u, du=du, d2u=d2u)
    grid = QuadratureGrid.build(g.axes, 32)
    at_one = corollary_equation_residual(g, 1.0, grid)
    at_half = corollary_equation_residual(g, 0.5, grid)
    checks = [
        (at_one.max_residual <= EXACT_TOL,
         f"K = 1 residual {at_one.max_residual!r}"),
        (abs(at_half.max_residual - 0.5) <= EXACT_TOL,
         f"K = 0.5 residual {at_half.max_residual!r} (expected 0.5)"),
    ]
    return _verdict(8, "constant-graph curvature equation residuals are exact",
                    checks)


# -- criterion 9: determinism of the report pipeline --------------------------

def _probe_bytes() -> bytes:
    """Serialize a fixed computation from scratch (geometry to JSON)."""
    surface, grid, tol = instantiate("sphere_R3_homothetic",
                                     {"resolution": 32})
    flux = integral_formula(FrameFields(surface, grid), tol)
    sol = solve_radial(-1, -2.0, n_samples=512)
    match = closed_form_match(sol, tolerance=tol.radial_match)
    envelope = make_envelope(
        "determinism-probe", {"resolution": 32, "n_samples": 512},
        [flux, match], flux.passed and match.passed, timestamp=False)
    return (dump_json(envelope) + sol.to_csv()).encode()


def criterion_determinism() -> CriterionVerdict:
    """Independent reruns of the pipeline serialize to identical bytes."""
    first = _probe_bytes()
    second = _probe_bytes()
    checks = [
        (first == second,
         f"two independent runs produced identical bytes ({len(first)})"),
    ]
    return _verdict(9, "reports are byte-identical across reruns", checks)


# -- battery ------------------------------------------------------------------

CRITERIA: tuple[Callable[[], CriterionVerdict], ...] = (
    criterion_identities,
    criterion_product_integral,
    criterion_homothetic_flux,
    criterion_einstein_spheres,
    criterion_radial_profiles,
    criterion_gradient_bound,
    criterion_randomized_harness,
    criterion_constant_residuals,
    criterion_determinism,
)


def run_battery(progress=None) -> list[CriterionVerdict]:
    """Evaluate every acceptance criterion, streaming one line per verdict.

    Each progress line is the verdict's ``line()`` followed by the
    criterion's wall time, e.g. ``PASS criterion 1: ... (11.2 s)``.  The
    time goes to ``progress`` only; the verdicts do not carry it.
    """
    verdicts = []
    for make in CRITERIA:
        start = time.perf_counter()
        verdict = make()
        if progress is not None:
            elapsed = time.perf_counter() - start
            print(f"{verdict.line()} ({elapsed:.1f} s)", file=progress, flush=True)
        verdicts.append(verdict)
    return verdicts


def battery_passed(verdicts: list[CriterionVerdict]) -> bool:
    return all(v.passed for v in verdicts)
