"""Integral balance laws on compact hypersurfaces."""

import math
import tracemalloc

import numpy as np
import pytest

from prodsurf import calculus, shape
from prodsurf.calculus import FrameFields
from prodsurf.errors import NonCompactDomain, NotEinstein, WrongAmbient
from prodsurf.integral import (available_formulas, einstein_integral,
                               integral_formula, product_integral,
                               run_formulas)


def test_unit_sphere_flux_is_eight_pi(zoo):
    surface, grid, _ = zoo("sphere_R3_homothetic", 32)
    rep = integral_formula(FrameFields(surface, grid))
    assert rep.lhs == pytest.approx(8.0 * math.pi, abs=1e-9)
    assert rep.rhs == pytest.approx(8.0 * math.pi, abs=1e-9)
    assert rep.passed
    assert rep.formula == "integral_formula"


@pytest.mark.parametrize("scenario", ["ellipsoid_R3_homothetic",
                                      "torus_R3_homothetic"])
def test_homothetic_balance_on_non_round_surfaces(zoo, scenario):
    surface, grid, _ = zoo(scenario, 48)
    rep = integral_formula(FrameFields(surface, grid))
    assert rep.relative_residual < 1e-8
    assert rep.passed


@pytest.mark.parametrize("scenario", [
    "graph_S2xR_cos03", "graph_S2xR1_cos02", "graph_RP2xR_even025",
    "graph_T2xR_wave04",
])
def test_product_balance_vanishes_on_graphs(zoo, scenario):
    surface, grid, _ = zoo(scenario, 32)
    rep = product_integral(FrameFields(surface, grid))
    assert rep.relative_residual < 1e-12
    assert rep.rhs == 0.0
    assert rep.passed


def test_general_and_product_forms_agree_on_products(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 32)
    fields = FrameFields(surface, grid)
    general = integral_formula(fields)
    product = product_integral(fields)
    # two independent routes to the same balance: lhs - rhs must agree
    assert general.residual == pytest.approx(product.residual, abs=1e-12)


def test_einstein_balance_on_geodesic_spheres(zoo):
    surface, grid, _ = zoo("geodesic_sphere_S3", 48)
    rep = einstein_integral(FrameFields(surface, grid))
    assert abs(rep.residual) < 1e-10
    assert rep.passed


def test_einstein_balance_on_flat_product_slice(zoo):
    surface, grid, _ = zoo("slice_T2xR_t1.2", 16)
    rep = einstein_integral(FrameFields(surface, grid))
    assert abs(rep.residual) < 1e-12


def test_einstein_rejects_non_einstein_ambients(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 16)
    with pytest.raises(NotEinstein):
        einstein_integral(FrameFields(surface, grid))


def test_einstein_rejects_conformal_non_killing_fields(zoo):
    # flat space is Einstein, but the homothetic field is only conformal
    surface, grid, _ = zoo("sphere_R3_homothetic", 16)
    with pytest.raises(NotEinstein):
        einstein_integral(FrameFields(surface, grid))


def test_product_integral_rejects_space_forms(zoo):
    surface, grid, _ = zoo("sphere_R3_homothetic", 16)
    with pytest.raises(WrongAmbient, match="product ambient"):
        product_integral(FrameFields(surface, grid))


def test_non_compact_scenarios_cannot_be_integrated(zoo):
    surface, grid, _ = zoo("hyperboloid_R31_minkowski", 16)
    with pytest.raises(NonCompactDomain):
        integral_formula(FrameFields(surface, grid))


def test_available_formulas_and_runner(zoo):
    surface, grid, _ = zoo("slice_T2xR_t1.2", 16)
    names = available_formulas(surface)
    assert names == ["integral_formula", "product_integral",
                     "einstein_integral"]
    reports = run_formulas(surface, grid)
    assert [r.formula for r in reports] == names
    assert all(r.passed for r in reports)

    surface, _, _ = zoo("geodesic_sphere_S3", 16)
    assert available_formulas(surface) == ["integral_formula",
                                           "einstein_integral"]


def test_run_formulas_integrates_the_mass_once_per_bundle(zoo, monkeypatch):
    surface, grid, _ = zoo("graph_S2xR_cos03", 32)
    calls = []
    integrate = calculus.integrate

    def counted(*args, **kwargs):
        calls.append(args[0].values.shape)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(calculus, "integrate", counted)
    reports = run_formulas(surface, grid)
    assert [r.formula for r in reports] == ["integral_formula",
                                            "product_integral"]
    # lhs and rhs of the flux law, lhs of the product law, and one mass
    assert len(calls) == 4
    assert reports[0].normalization == reports[1].normalization


# Traced peak of run_formulas on graph_S3xR_coschi02 at 32 (69,696 points,
# two block workers, the pool and its block scratch warmed up): 20.19 MB
# with the frame kept to BALANCE_FIELDS, 52.66-52.86 MB with the full
# frame.  The bound is the midpoint, so a full frame fails it.
LEAN_PEAK_BOUND = 36_400_000


def test_run_formulas_keeps_a_lean_frame(zoo, monkeypatch):
    surface, grid, _ = zoo("graph_S3xR_coschi02", 32)
    monkeypatch.setattr(shape, "_WORKERS", 2)
    first = run_formulas(surface, grid)
    tracemalloc.start()
    try:
        again = run_formulas(surface, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
    assert peak <= LEAN_PEAK_BOUND, peak


def test_report_normalization_and_relative_residual(zoo):
    surface, grid, _ = zoo("graph_S2xR_cos03", 32)
    ff = FrameFields(surface, grid)
    rep = product_integral(ff)
    fr = ff.frame
    mass = ff.integrate(np.abs(fr.theta) * (np.abs(fr.scalar_curvature)
                                            + abs(surface.ambient.scalar_curvature)
                                            + np.abs(fr.ricci_normal)))
    assert rep.normalization == pytest.approx(mass, rel=1e-12)
    assert rep.relative_residual == pytest.approx(
        abs(rep.residual) / max(rep.normalization, 1.0), rel=1e-12)
