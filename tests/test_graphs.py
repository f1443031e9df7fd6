"""Radial profiles, the graph curvature equation, and the harnesses.

The closed-form expectations were frozen from an independent symbolic
derivation: the explicit profile was differentiated and substituted into the
radial curvature equation exactly, and the values below are 20-digit
evaluations at x0 = 2 (and of the limit slope at x0 = 1).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import closed_form_gradient_sq

from prodsurf.ambient import make_product, round_sphere
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf import graphs
from prodsurf.errors import (NotSpacelike, ParameterOutOfRange, SingularPoint,
                             StepFailure, WrongAmbient)
from prodsurf.graphs import (RadialSolution,
                             check_curvature_range, closed_form_f,
                             closed_form_f_double_prime, closed_form_f_prime,
                             closed_form_match,
                             completeness_criterion,
                             corollary_equation_residual, graph_curvature,
                             radial_graph, radial_ode_rhs, solve_radial,
                             theorem_harness)
from prodsurf.reports import TOLERANCES
from prodsurf.shape import GraphSurface, frame_at

# (epsilon, K) -> (f(2), f'(2), f''(2), f'(1+)); 20-digit symbolic values
FROZEN = {
    (+1, -0.5): (0.56226188815926731726, 0.44721359549995793928,
                 -0.17888543819998317571, 0.70710678118654752440),
    (-1, -2.0): (0.57888613277288538346, 0.37796447300922722721,
                 -0.21597969886241555841, 1.0),
}

riemannian_K = st.floats(min_value=-0.999, max_value=-0.001)
lorentzian_K = st.floats(min_value=-50.0, max_value=-1.001)


@pytest.mark.parametrize("pair,expected", sorted(FROZEN.items()))
def test_closed_forms_match_frozen_symbolic_values(pair, expected):
    eps, K = pair
    f2, fp2, fpp2, fp1 = expected
    assert closed_form_f(eps, K, 2.0) == pytest.approx(f2, abs=1e-14)
    assert closed_form_f_prime(eps, K, 2.0) == pytest.approx(fp2, abs=1e-14)
    assert closed_form_f_double_prime(eps, K, 2.0) == pytest.approx(
        fpp2, abs=1e-14)
    assert closed_form_f_prime(eps, K, 1.0) == pytest.approx(fp1, abs=1e-14)
    assert closed_form_f(eps, K, 1.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, -1]), st.data(),
       st.floats(min_value=1.01, max_value=9.0))
def test_closed_form_solves_the_radial_equation(eps, data, x0):
    K = data.draw(riemannian_K if eps == 1 else lorentzian_K)
    fp = float(closed_form_f_prime(eps, K, x0))
    fpp = float(closed_form_f_double_prime(eps, K, x0))
    assert radial_ode_rhs(eps, K, x0, fp) == pytest.approx(fpp, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, -1]), st.data())
def test_gradient_sq_is_monotone_and_bounded(eps, data):
    K = data.draw(riemannian_K if eps == 1 else lorentzian_K)
    x0 = np.linspace(1.0, 40.0, 300)
    vals = closed_form_gradient_sq(eps, K, x0)
    sup = eps * (1.0 + K) / (-K)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals <= sup + 1e-10)


@pytest.mark.parametrize("eps,K", [(+1, -1.5), (+1, 0.5), (+1, -1.0),
                                   (-1, -0.5), (-1, -1.0), (-1, 0.2)])
def test_parameter_gate_rejects_invalid_ranges(eps, K):
    with pytest.raises(ParameterOutOfRange):
        check_curvature_range(eps, K)
    with pytest.raises(ParameterOutOfRange):
        solve_radial(eps, K)


def test_ode_is_singular_at_the_cone_point():
    with pytest.raises(SingularPoint):
        radial_ode_rhs(1, -0.5, 1.0, 0.7)
    # f' = 0 is a singular point of the equation solved for f''
    for eps, K in ((+1, -0.5), (-1, -2.0)):
        with pytest.raises(SingularPoint, match="f' = 0"):
            radial_ode_rhs(eps, K, 2.0, 0.0)
    with pytest.raises(ParameterOutOfRange):
        closed_form_f(1, -0.5, 0.9)


@pytest.mark.parametrize("eps,K", [(+1, -0.9), (+1, -0.5), (+1, -0.1),
                                   (-1, -1.1), (-1, -2.0), (-1, -5.0)])
def test_numeric_profile_matches_explicit_solution(eps, K):
    sol = solve_radial(eps, K)
    rep = closed_form_match(sol, tolerance=1e-6)
    assert rep.passed, rep
    assert rep.max_residual < 1e-8


def test_match_check_fails_honestly_below_integration_error():
    sol = solve_radial(-1, -2.0)
    rep = closed_form_match(sol, tolerance=1e-12)
    assert not rep.passed
    assert rep.max_residual > 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, -1]), st.data())
def test_numeric_profile_matches_explicit_solution_everywhere(eps, data):
    K = data.draw(riemannian_K if eps == 1 else lorentzian_K)
    assert closed_form_match(solve_radial(eps, K)).max_residual <= 1e-8


def test_integrator_reports_accepted_steps():
    # frozen from scipy's RK45 on the same problem from the same first step:
    # 194 accepted steps, and 1 + 6 (194 + 1 rejected) right-hand-side
    # evaluations
    stats = solve_radial(-1, -2.0).integrator_stats
    assert stats["steps"] == 194
    assert stats["nfev"] == 1171


# max_step is scipy's setting; solve_radial never caps a step
@pytest.mark.parametrize("eps,K,max_step", [
    (-1, -2.0, np.inf), (+1, -0.5, np.inf), (+1, -0.9, np.inf),
    (-1, -1.1, np.inf), (-1, -5.0, np.inf), (+1, -0.1, np.inf)])
def test_stepper_takes_the_steps_of_scipy_rk45(eps, K, max_step):
    integrate = pytest.importorskip("scipy.integrate")
    sol = solve_radial(eps, K)
    start = 1.0 + 1e-6
    nodes = np.linspace(start, 10.0, 2048)
    ref = integrate.solve_ivp(
        lambda t, y: (y[1], radial_ode_rhs(eps, K, t, y[1])), (start, 10.0),
        (0.0, math.sqrt(eps * (1.0 + K))), method="RK45", t_eval=nodes,
        rtol=1e-10, atol=1e-12, max_step=max_step,
        first_step=graphs._FIRST_STEP)
    assert ref.success
    assert sol.integrator_stats["nfev"] == ref.nfev
    assert np.array_equal(sol.samples[:, 0], ref.t)
    assert np.max(np.abs(sol.samples[:, 1:].T - ref.y)) <= 1e-12


@pytest.mark.parametrize("cut", [3.0, 1.0])
def test_non_finite_right_hand_side_stops_the_integration(monkeypatch, cut):
    # past x0 = cut the right-hand side is NaN, so with cut = 1 the first
    # step's error is NaN
    exact = graphs.radial_ode_rhs

    def poisoned(eps, K, x0, fp):
        return math.nan if x0 > cut else exact(eps, K, x0, fp)

    monkeypatch.setattr(graphs, "radial_ode_rhs", poisoned)
    with pytest.raises(StepFailure, match="stopped at x0=") as info:
        solve_radial(-1, -2.0)
    stop = float(str(info.value).split("x0=")[1].split(":")[0])
    assert stop == pytest.approx(cut, abs=1e-5)


@pytest.mark.parametrize("window", [dict(x0_max=math.nan),
                                    dict(delta=math.nan),
                                    dict(x0_max=math.inf),
                                    dict(delta=math.inf)])
def test_non_finite_window_is_rejected(window):
    with pytest.raises(ParameterOutOfRange, match="finite"):
        solve_radial(+1, -0.5, **window)


@pytest.mark.parametrize("window", [dict(x0_max=1e300),
                                    dict(delta=1e300, x0_max=1e301)])
def test_overflow_in_the_right_hand_side_stops_the_integration(window):
    # x0 ** 2 overflows near x0 = 1.3e154, or at once from a start at 1e300
    with pytest.raises(StepFailure, match="overflowed") as info:
        solve_radial(+1, -0.5, **window)
    stop = float(str(info.value).split("x0=")[1].split(":")[0])
    assert 1e150 < stop < 1e302


def test_csv_matches_per_row_float_formatting():
    tiny = np.nextafter(0.0, 1.0)
    samples = np.array([[1.000001, -0.0, 0.0],
                        [tiny, -tiny, 2.2250738585072014e-308 / 3],
                        [1e300, -1e300, 1.7976931348623157e308],
                        [0.1, 1.0 / 3.0, -2.5e-17]])
    sol = RadialSolution(epsilon=+1, K=-0.5, delta=1e-6, x0_max=2.0,
                         samples=samples)
    rows = "".join(f"{float(a)!r},{float(b)!r},{float(c)!r}\n"
                   for a, b, c in samples)
    assert sol.to_csv() == "x0,f,f_prime\n" + rows
    assert "-0.0,0.0" in sol.to_csv() and "5e-324" in sol.to_csv()


def test_csv_table_has_contract_header():
    sol = solve_radial(-1, -2.0, x0_max=2.0)
    lines = sol.to_csv().splitlines()
    assert lines[0] == "x0,f,f_prime"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(1.0 + 1e-6)
    assert first[1] == 0.0
    assert first[2] == pytest.approx(1.0)  # f'(1+) = sqrt(eps (1+K)) = 1


@pytest.mark.parametrize("eps,K", [(+1, -0.5), (-1, -2.0), (-1, -1.1)])
def test_radial_graph_reproduces_its_curvature(eps, K):
    g = radial_graph(eps, K)
    grid = QuadratureGrid.build(g.axes, 32)
    # algebraic route
    assert np.max(np.abs(graph_curvature(g, grid.nodes) - K)) < 1e-12
    # independent frame-pipeline route: S = 2K for a surface
    fr = frame_at(g, grid.nodes)
    assert np.max(np.abs(0.5 * fr.scalar_curvature - K)) < 1e-10


def test_graph_curvature_needs_a_two_dimensional_base(zoo):
    surface, grid, _ = zoo("graph_S3xR_coschi02", 12)
    with pytest.raises(WrongAmbient):
        graph_curvature(surface, grid.nodes)


def test_lorentzian_solution_enforces_spacelike_range():
    with pytest.raises(NotSpacelike):
        # K in (-1, 0) makes eps(1+K) negative for eps=-1 before the gate,
        # so instead exceed the bound by integrating a doctored table
        samples = np.array([[2.0, 0.0, 1.0]])  # |Du|^2 = 3 >= 1
        RadialSolution(epsilon=-1, K=-2.0, delta=1e-6, x0_max=2.0,
                       samples=samples, integrator_stats={})


def _constant_graph(eps, value=0.3):
    def u(s):
        return np.full(s.shape[:-1], value)

    def du(s):
        return np.zeros(s.shape)

    def d2u(s):
        return np.zeros(s.shape + (s.shape[-1],))

    return GraphSurface(name="const", ambient=make_product(round_sphere(2), eps),
                        u=u, du=du, d2u=d2u)


def test_corollary_residual_frozen_values():
    g = _constant_graph(1)
    grid = QuadratureGrid.build(g.axes, 16)
    assert corollary_equation_residual(g, 1.0, grid).max_residual == 0.0
    assert corollary_equation_residual(g, 0.5, grid).max_residual == \
        pytest.approx(0.5, abs=1e-15)


def test_graph_checks_default_to_the_tolerance_record():
    sol = solve_radial(-1, -2.0, x0_max=2.0, n_samples=64)
    assert closed_form_match(sol).tolerance == TOLERANCES.radial_match
    g = _constant_graph(1)
    grid = QuadratureGrid.build(g.axes, 16)
    assert corollary_equation_residual(g, 1.0, grid).tolerance == \
        TOLERANCES.corollary_residual


def test_corollary_restricted_to_spherical_bases(zoo):
    surface, grid, _ = zoo("graph_T2xR_wave04", 16)
    with pytest.raises(WrongAmbient):
        corollary_equation_residual(surface, 0.0, grid)


def test_corollary_gates_on_the_base_curvature_not_its_name(zoo):
    # the hypothesis is a base of positive constant curvature, whatever its
    # name; the hyperbolic plane stays out
    sphere = dataclasses.replace(round_sphere(2), name="sphere")
    g = _constant_graph(1)
    g.ambient = make_product(sphere, 1)
    grid = QuadratureGrid.build(g.axes, 16)
    assert corollary_equation_residual(g, 1.0, grid).max_residual == 0.0
    surface, grid, _ = zoo("slice_H2xR_t0.5", 16)
    with pytest.raises(WrongAmbient):
        corollary_equation_residual(surface, 0.0, grid)


def test_completeness_frozen_window_values():
    sol = solve_radial(-1, -2.0, x0_max=50.0)
    v = sol.completeness()
    assert v.sup_du_sq == 0.5
    assert v.closed_form_value == 0.5
    assert v.sampled_max == pytest.approx(2499.0 / 4999.0, abs=1e-9)
    assert v.criterion_met
    assert v.bound_respected


def test_completeness_on_a_graph_surface(zoo):
    surface, grid, _ = zoo("example51_lorentzian_K-2", 32)
    v = completeness_criterion(surface, grid)
    assert v.K == -2.0
    assert v.closed_form_value == 0.5
    assert v.sampled_max < 0.5
    assert v.bound_respected


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.5),
       st.sampled_from([1, -1]))
def test_harness_sign_is_forced_on_cosine_graphs(amplitude, eps):
    def u(s):
        return amplitude * np.cos(s[..., 0])

    def du(s):
        out = np.zeros(s.shape)
        out[..., 0] = -amplitude * np.sin(s[..., 0])
        return out

    def d2u(s):
        out = np.zeros(s.shape + (s.shape[-1],))
        out[..., 0, 0] = -amplitude * np.cos(s[..., 0])
        return out

    g = GraphSurface(name="h", ambient=make_product(round_sphere(2), eps),
                     u=u, du=du, d2u=d2u)
    rep = theorem_harness(g, QuadratureGrid.build(g.axes, 12))
    assert rep.kind == "graph"
    assert rep.expected_sign_ok
    if eps == 1:
        assert rep.gap_min < 0.0
    else:
        assert rep.gap_max > 0.0


def test_harness_classifies_constant_graphs_as_slices():
    for eps in (1, -1):
        g = _constant_graph(eps, 0.37)
        rep = theorem_harness(g, QuadratureGrid.build(g.axes, 12))
        assert rep.kind == "slice"
        assert rep.detail["max_shape_operator"] == 0.0
        assert rep.detail["max_theta_sq_deviation"] == 0.0
        assert rep.detail["max_curvature_gap"] == 0.0


def test_harness_needs_a_compact_base(zoo):
    surface, grid, _ = zoo("example51_riemannian_K-0.5", 16)
    from prodsurf.errors import NonCompactDomain
    with pytest.raises(NonCompactDomain):
        theorem_harness(surface, grid)
