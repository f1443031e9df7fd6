"""Fault injection: which checks catch a defect in each frame field.

Every array field of ``GeometryFrame`` is scaled in turn by ``1 + 1e-3``
(through a wrapper around ``calculus.frame_at``, so the package needs no
hook), and the identity suite at 32 -> 64 plus the balance laws at 64 run
on ``graph_S2xR_cos03``.  The set of failing checks must equal the literal
matrix below.  A field that leaves the matrix, or a check that stops
catching its defect, fails this test.

The conformal factor ``phi`` of the ambient's field is not a frame field;
it is scaled the same way on ``sphere_R3_homothetic``, where ``phi = 1``
(in a product ``phi = 0``, and a scale of it changes nothing).
"""

import dataclasses

import pytest

from prodsurf import calculus
from prodsurf.identities import run_suite
from prodsurf.integral import run_formulas
from prodsurf.shape import GeometryFrame

SCENARIO = "graph_S2xR_cos03"
DEFECT = 1.0e-3

# field -> the identity checks and balance laws that fail
CAUGHT = {
    "point": {"codazzi"},
    "tangent": {"codazzi"},
    "normal": {"codazzi"},
    "shape_operator": {"codazzi", "gauss_scalar"},
    "second_form": {"hessian_h"},
    "height": {"norm_grad_h", "hessian_h"},
    "tau": {"laplacian_theta", "div_T_top"},
    "mean_curvature": {"hessian_h", "laplacian_theta", "div_T_top"},
    "metric": {"norm_grad_h", "hessian_h", "codazzi", "laplacian_theta",
               "div_T_top"},
    "metric_inv": {"norm_grad_h", "hessian_h", "codazzi", "laplacian_theta",
                   "div_T_top"},
    "ambient_scalar": {"laplacian_theta", "integral_formula"},
    "ricci_normal": {"laplacian_theta", "integral_formula"},
    "scalar_curvature": {"gauss_scalar", "laplacian_theta",
                         "integral_formula", "product_integral"},
    "theta": {"norm_grad_h", "hessian_h", "gauss_scalar", "laplacian_theta",
              "div_T_top", "product_integral"},
}

# Fields whose uniform relative defect no check sees, and why.
UNCAUGHT: dict[str, str] = {}


def _failing(surface, n_checks: int = 6, n_laws: int = 2) -> set[str]:
    suite = run_suite(surface, 32, refine=1)
    laws = run_formulas(surface, 64)
    assert len(suite) == n_checks and len(laws) == n_laws
    return ({r.name for r in suite if not r.passed}
            | {r.formula for r in laws if not r.passed})


def test_matrix_names_every_array_field_once():
    fields = {f.name for f in dataclasses.fields(GeometryFrame)}
    assert not set(CAUGHT) & set(UNCAUGHT)
    assert set(CAUGHT) | set(UNCAUGHT) == fields


def test_clean_frame_fails_no_check(zoo):
    surface, _, _ = zoo(SCENARIO)
    assert _failing(surface) == set()


@pytest.mark.parametrize("field", sorted(CAUGHT) + sorted(UNCAUGHT))
def test_defect_in_one_field_fails_the_named_checks(zoo, monkeypatch, field):
    surface, _, _ = zoo(SCENARIO)
    frame_at = calculus.frame_at

    def defective_frame_at(surface, s):
        fr = frame_at(surface, s)
        return dataclasses.replace(
            fr, **{field: getattr(fr, field) * (1.0 + DEFECT)})

    monkeypatch.setattr(calculus, "frame_at", defective_frame_at)
    assert _failing(surface) == CAUGHT.get(field, set())


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
