"""Fault injection: which checks catch a defect in each frame field.

Every array field of ``GeometryFrame`` is scaled in turn by ``1 + 1e-3``
(through a wrapper around ``calculus.frame_at``, so the package needs no
hook), and the identity suite at 32 -> 64 plus the balance laws at 64 run
on ``graph_S2xR_cos03``.  The set of failing checks must equal the literal
matrix below.  A field that leaves the matrix, or a check that stops
catching its defect, fails this test.

The constants upstream of the frame are scaled the same way:

* the conformal factor ``phi`` of the ambient's field, on
  ``sphere_R3_homothetic``, where ``phi = 1`` (in a product ``phi = 0``,
  and a scale of it changes nothing);
* the curvature constants, on ``graph_S2xR_cos03``: the base's ``kappa``
  (the ambient is rebuilt from the base, so its ``sectional`` follows) and,
  separately, the ambient's ``sectional`` alone;
* the ambient's chart callables, on ``graph_S2xR_cos03``: the base's
  ``metric_at``, ``metric_inverse_at`` and ``christoffel_at`` (the ambient
  is rebuilt from the base, as for ``kappa``) and the Killing field's
  ``field_at``, each scaled alone;
* the two pieces of ``graphs._graph_equation_pieces``, ``K_M`` and
  ``det(Hess u) / det g_M``, judged by the checks that read them: the
  harness sign on the graph, the exact slice verdict of the harness and
  the corollary equation at ``K = 1`` on ``slice_S2xR_t0.7``, and the
  frame's Gauss curvature ``S / 2`` as a second route to
  ``graph_curvature``.  The harness sign of a clearly non-constant graph
  is robust to a relative defect of 1e-3, so it catches neither piece.

The wrapper takes ``keep`` through, so the balance laws see each defect
through their lean bundle; a field that a bundle does not keep is ``None``
there and is left as it is.  The frame has no height field: the height
checks read the product height as ``point[..., -1]``, so a scaled ``point``
fails them beside ``codazzi``.  The area element is read by the balance laws
alone: on ``graph_S2xR_cos03`` a uniform scale of it moves no relative
residual, and on ``sphere_R3_homothetic`` it moves both sides of the flux
law off 8 pi.

In n = 3, ``codazzi`` alone runs on ``graph_S3xR_coschi02`` at 16 -> 32,
with each frame field that its route reads scaled in turn.
"""

import dataclasses

import numpy as np
import pytest
from reference_routes import run_check

from prodsurf import acceptance, calculus, graphs
from prodsurf.acceptance import EXACT_TOL
from prodsurf.ambient import make_product
from prodsurf.calculus import QuadratureGrid
from prodsurf.identities import run_suite
from prodsurf.integral import run_formulas
from prodsurf.reports import TOLERANCES
from prodsurf.shape import GeometryFrame, frame_at

SCENARIO = "graph_S2xR_cos03"
DEFECT = 1.0e-3

# field -> the identity checks and balance laws that fail
CAUGHT = {
    "point": {"codazzi", "norm_grad_h", "hessian_h"},
    "tangent": {"codazzi"},
    "normal": {"codazzi"},
    "shape_operator": {"codazzi", "gauss_scalar"},
    "second_form": {"hessian_h"},
    "tau": {"laplacian_theta", "div_T_top"},
    "mean_curvature": {"hessian_h", "laplacian_theta", "div_T_top"},
    "metric": {"norm_grad_h", "hessian_h", "codazzi", "laplacian_theta",
               "div_T_top"},
    "metric_inv": {"norm_grad_h", "hessian_h", "codazzi", "laplacian_theta",
                   "div_T_top"},
    "ricci_normal": {"laplacian_theta", "integral_formula"},
    "scalar_curvature": {"gauss_scalar", "laplacian_theta",
                         "integral_formula", "product_integral"},
    "theta": {"norm_grad_h", "hessian_h", "gauss_scalar", "laplacian_theta",
              "div_T_top", "product_integral"},
}

# Fields whose uniform relative defect no check sees, and why.
UNCAUGHT = {
    "area_element": "only the balance laws read it, and here they are "
                    "homogeneous (phi = 0): a uniform scale of dA scales "
                    "each side and the cancellation mass alike, so no "
                    "relative residual moves; the flux test below catches "
                    "it where phi = 1",
}

# n = 3: the fields that check_codazzi reads, scaled one at a time on
# CODAZZI_N3_SCENARIO; the caught ones fail codazzi, the others pass it
CODAZZI_N3_SCENARIO = "graph_S3xR_coschi02"
CODAZZI_N3_CAUGHT = {"point", "tangent", "metric", "normal", "shape_operator"}
CODAZZI_N3_UNCAUGHT = {
    "metric_inv": "it reaches codazzi only through Gamma^l_am A^m_i in the "
                  "curl, which vanishes where A is umbilic; on this nearly "
                  "umbilic graph the defect adds about 1.4e-6 at 32, and the "
                  "order reads 1.711 against the 1.7 floor",
}

# a scaled curvature constant of graph_S2xR_cos03 -> the checks that fail
CURVATURE_CAUGHT = {"codazzi", "gauss_scalar", "laplacian_theta",
                    "integral_formula", "product_integral"}

# a scaled chart callable of graph_S2xR_cos03 -> the checks that fail
CHART_CAUGHT = {
    "base.metric_at": {"norm_grad_h", "hessian_h", "codazzi", "gauss_scalar",
                       "laplacian_theta", "div_T_top", "integral_formula",
                       "product_integral"},
    "base.metric_inverse_at": {"norm_grad_h", "hessian_h", "codazzi",
                               "laplacian_theta", "div_T_top",
                               "integral_formula", "product_integral"},
    "base.christoffel_at": {"hessian_h", "codazzi", "gauss_scalar",
                            "laplacian_theta", "div_T_top",
                            "integral_formula", "product_integral"},
    "killing.field_at": {"norm_grad_h", "hessian_h", "gauss_scalar",
                         "product_integral"},
}

# a scaled piece of graphs._graph_equation_pieces -> the checks that fail
GRAPH_EQUATION_CAUGHT = {
    "K_M": {"harness_slice", "corollary_equation", "graph_curvature_route"},
    "det_term": {"graph_curvature_route"},
}


def _failing(surface, n_checks: int = 6, n_laws: int = 2) -> set[str]:
    suite = run_suite(surface, 32, refine=1)
    laws = run_formulas(surface, QuadratureGrid.build(surface.axes, 64))
    assert len(suite) == n_checks and len(laws) == n_laws
    return ({r.name for r in suite if not r.passed}
            | {r.formula for r in laws if not r.passed})


def test_matrix_names_every_array_field_once():
    fields = {f.name for f in dataclasses.fields(GeometryFrame)}
    assert not set(CAUGHT) & set(UNCAUGHT)
    assert set(CAUGHT) | set(UNCAUGHT) == fields
    assert not CODAZZI_N3_CAUGHT & set(CODAZZI_N3_UNCAUGHT)
    assert CODAZZI_N3_CAUGHT | set(CODAZZI_N3_UNCAUGHT) <= fields


def test_clean_frame_fails_no_check(zoo):
    surface, _, _ = zoo(SCENARIO)
    assert _failing(surface) == set()


def _scale_frame_field(monkeypatch, field: str, defect: float = DEFECT
                       ) -> None:
    """Scale ``field`` of every frame the bundles build, where it is kept."""
    frame_at = calculus.frame_at

    def defective_frame_at(surface, s, keep=None):
        fr = frame_at(surface, s, keep)
        value = getattr(fr, field)
        if value is None:
            return fr
        return dataclasses.replace(fr, **{field: value * (1.0 + defect)})

    monkeypatch.setattr(calculus, "frame_at", defective_frame_at)


@pytest.mark.parametrize("field", sorted(CAUGHT) + sorted(UNCAUGHT))
def test_defect_in_one_field_fails_the_named_checks(zoo, monkeypatch, field):
    surface, _, _ = zoo(SCENARIO)
    _scale_frame_field(monkeypatch, field)
    assert _failing(surface) == CAUGHT.get(field, set())


@pytest.mark.parametrize("field", [pytest.param(None, id="clean")]
                         + sorted(CODAZZI_N3_CAUGHT)
                         + sorted(CODAZZI_N3_UNCAUGHT))
def test_n3_codazzi_catches_a_defect_in_the_fields_it_reads(
        zoo, monkeypatch, field):
    surface, _, _ = zoo(CODAZZI_N3_SCENARIO)
    if field is not None:
        _scale_frame_field(monkeypatch, field)
    result = run_check(surface, "codazzi", 16)
    assert result.passed == (field not in CODAZZI_N3_CAUGHT), result


def test_defect_in_the_conformal_factor_fails_the_named_checks(zoo):
    surface, _, _ = zoo("sphere_R3_homothetic")
    killing = surface.ambient.killing
    assert killing.conformal_factor == 1.0
    assert _failing(surface, n_checks=4, n_laws=1) == set()
    ambient = dataclasses.replace(surface.ambient, killing=dataclasses.replace(
        killing, conformal_factor=killing.conformal_factor * (1.0 + DEFECT)))
    defective = dataclasses.replace(surface, ambient=ambient)
    assert _failing(defective, n_checks=4, n_laws=1) == {
        "div_T_top", "laplacian_theta", "integral_formula"}


def test_defect_in_the_area_element_moves_the_flux_off_eight_pi(
        zoo, monkeypatch):
    # where phi = 1 both sides of the flux law are 8 pi on the unit sphere,
    # which criterion 3 and the benchmark hold to 1e-6
    surface, grid, _ = zoo("sphere_R3_homothetic")
    clean = run_formulas(surface, grid)[0]
    assert max(abs(clean.lhs - 8.0 * np.pi), abs(clean.rhs - 8.0 * np.pi)) <= 1e-6
    _scale_frame_field(monkeypatch, "area_element")
    rep = run_formulas(surface, grid)[0]
    assert rep.formula == "integral_formula"
    assert abs(rep.lhs - 8.0 * np.pi) > 1e-6
    assert abs(rep.rhs - 8.0 * np.pi) > 1e-6


def _scaled_kappa(surface):
    base = dataclasses.replace(surface.base, kappa=surface.base.kappa * (1.0 + DEFECT))
    return dataclasses.replace(surface, ambient=make_product(base, surface.epsilon))


def _scaled_sectional(surface):
    defective = dataclasses.replace(surface)
    defective.ambient = dataclasses.replace(
        surface.ambient, sectional=surface.ambient.sectional * (1.0 + DEFECT))
    return defective


@pytest.mark.parametrize("defect", [_scaled_kappa, _scaled_sectional],
                         ids=["base.kappa", "ambient.sectional"])
def test_defect_in_a_curvature_constant_fails_the_named_checks(zoo, defect):
    surface, _, _ = zoo(SCENARIO)
    defective = defect(surface)
    assert defective.ambient.sectional == 1.0 + DEFECT
    assert _failing(defective) == CURVATURE_CAUGHT


def _scaled_callable(surface, row: str | None):
    """``surface`` in a rebuilt ambient, with the chart callable ``row``
    (``"base.<name>"`` or ``"killing.field_at"``) scaled by ``1 + DEFECT``;
    ``None`` rebuilds it clean."""
    base = surface.base
    owner, _, name = (row or "").partition(".")
    if owner == "base":
        scaled = getattr(base, name)
        base = dataclasses.replace(
            base, **{name: lambda x: scaled(x) * (1.0 + DEFECT)})
    ambient = make_product(base, surface.epsilon)
    if owner == "killing":
        field_at = ambient.killing.field_at
        ambient = dataclasses.replace(ambient, killing=dataclasses.replace(
            ambient.killing, field_at=lambda x: field_at(x) * (1.0 + DEFECT)))
    return dataclasses.replace(surface, ambient=ambient)


@pytest.mark.parametrize("row", [None, *sorted(CHART_CAUGHT)],
                         ids=["clean", *sorted(CHART_CAUGHT)])
def test_defect_in_a_chart_callable_fails_the_named_checks(zoo, row):
    surface, _, _ = zoo(SCENARIO)
    assert _failing(_scaled_callable(surface, row)) == CHART_CAUGHT.get(row, set())


def _graph_equation_failing(zoo) -> set[str]:
    graph, _, _ = zoo(SCENARIO)
    flat, _, _ = zoo("slice_S2xR_t0.7")
    grid = QuadratureGrid.build(graph.axes, 16)
    gauss = 0.5 * frame_at(graph, grid.nodes).scalar_curvature
    route = np.max(np.abs(graphs.graph_curvature(graph, grid.nodes) - gauss))
    checks = {
        "harness_sign": graphs.theorem_harness(graph, grid).expected_sign_ok,
        "harness_slice": graphs.theorem_harness(flat, grid).detail[
            "max_curvature_gap"] <= EXACT_TOL,
        "corollary_equation": graphs.corollary_equation_residual(
            flat, 1.0, grid).passed,
        "graph_curvature_route": route <= TOLERANCES.residual_floor,
    }
    return {name for name, ok in checks.items() if not ok}


def test_clean_graph_equation_fails_no_check(zoo):
    assert _graph_equation_failing(zoo) == set()


@pytest.mark.parametrize("piece", sorted(GRAPH_EQUATION_CAUGHT))
def test_defect_in_the_graph_equation_fails_the_named_checks(
        zoo, monkeypatch, piece):
    index = {"K_M": 1, "det_term": 2}[piece]
    pieces = graphs._graph_equation_pieces

    def defective_pieces(g, m):
        out = list(pieces(g, m))
        out[index] = out[index] * (1.0 + DEFECT)
        return tuple(out)

    monkeypatch.setattr(graphs, "_graph_equation_pieces", defective_pieces)
    assert _graph_equation_failing(zoo) == GRAPH_EQUATION_CAUGHT[piece]


def test_a_small_theta_defect_fails_criterion_two_on_its_order(monkeypatch):
    # every catalog graph floors criterion 2's product integral at
    # roundoff; theta * (1 + 1e-8) lifts the relative residual of
    # graph_S2xR_cos03 above RELATIVE_FLOOR yet keeps it far below the
    # tolerance, and alike at 64 and 128, so the refinement order (near 0)
    # fails the criterion, on that line alone
    monkeypatch.setattr(acceptance, "PRODUCT_GRAPH_SCENARIOS", (SCENARIO,))
    _scale_frame_field(monkeypatch, "theta", 1.0e-8)
    verdict = acceptance.criterion_product_integral()
    assert not verdict.passed, verdict.details
    residual, order = verdict.details
    assert residual.startswith(f"ok  {SCENARIO}: relative residual ")
    assert order.startswith(f"BAD {SCENARIO}: refinement order ")
    assert float(residual.split()[-3]) > acceptance.RELATIVE_FLOOR
