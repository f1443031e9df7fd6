"""Pointwise identity checks: residuals, convergence orders, applicability."""

import dataclasses
import gc
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from reference_routes import full_chart, run_check

from prodsurf import calculus, identities, shape, zoo as catalog
from prodsurf.ambient import ambient_keys, make_ambient
from prodsurf.calculus import FrameFields, QuadratureGrid
from prodsurf.errors import ParameterOutOfRange, WrongAmbient
from prodsurf.identities import (CHECKS, _attach_order, applicable_checks,
                                 check_codazzi, run_suite)
from prodsurf.integral import available_formulas

ALL_CHECKS = ("norm_grad_h", "hessian_h", "gauss_scalar", "codazzi",
              "laplacian_theta", "div_T_top")


def test_check_registry_is_complete():
    for name in ALL_CHECKS:
        assert name in CHECKS


@pytest.mark.parametrize("refine", [0, -1, 1.5])
@pytest.mark.parametrize("scenario", ["slice_T2xR_t1.2", "graph_S2xR_cos03"])
def test_suite_rejects_a_refine_below_one_before_any_grid(zoo, monkeypatch,
                                                          scenario, refine):
    # one grid, or a fractional count of doublings, gives no order to judge
    surface, _, _ = zoo(scenario, 16)
    built = []
    monkeypatch.setattr(QuadratureGrid, "build",
                        lambda *args: built.append(args))
    message = (f"refine must be a positive integer, got {refine}: "
               "one grid gives no order to judge")
    with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(message)}$"):
        run_suite(surface, 16, refine=refine)
    assert built == []


@pytest.mark.parametrize("scenario", [
    "graph_S2xR_cos03", "graph_S2xR1_cos02", "graph_T2xR_wave04",
])
def test_product_graph_suite_converges(zoo, scenario):
    surface, _, _ = zoo(scenario)
    results = run_suite(surface, 24, refine=1)
    assert len(results) == 6
    for r in results:
        assert r.passed, (scenario, r)
        if not r.floored:
            assert r.convergence_order >= r.min_order


def test_slice_suite_is_exact_hence_floored(zoo):
    surface, _, _ = zoo("slice_T2xR_t1.2")
    results = run_suite(surface, 16, refine=1)
    for r in results:
        assert r.passed
        assert r.floored
        assert r.max_residual < 1e-10


def test_rounding_limited_checks_pass_via_floor(zoo):
    # On the unit sphere with the position field, Theta is constant, so the
    # stacked FD check measures pure conditioning noise that grows under
    # refinement; the floor carve-out must classify it as satisfied.
    surface, _, _ = zoo("sphere_R3_homothetic")
    result = run_check(surface, "laplacian_theta", 64)
    assert result.floored
    assert result.passed
    assert result.max_residual < 1e-8


@pytest.mark.parametrize("scenario, resolution", [
    ("graph_S2xR_cos03", 32), ("graph_S3xR_coschi02", 16),
])
def test_gauss_scalar_catches_a_defect_in_the_frame_S(zoo, monkeypatch,
                                                      scenario, resolution):
    # The frame's scalar_curvature is the S that the balance laws and the
    # sign harness consume; in product ambients too, gauss_scalar must see
    # a relative defect of 1e-3 in it.
    surface, _, _ = zoo(scenario)
    clean = run_check(surface, "gauss_scalar", resolution)
    assert clean.passed, clean
    frame_at = calculus.frame_at

    def defective_frame_at(surface, s, keep=None):
        fr = frame_at(surface, s, keep)
        return dataclasses.replace(
            fr, scalar_curvature=fr.scalar_curvature * (1.0 + 1.0e-3))

    monkeypatch.setattr(calculus, "frame_at", defective_frame_at)
    result = run_check(surface, "gauss_scalar", resolution)
    assert not result.passed, result


def test_applicability_filters(zoo):
    product, _, _ = zoo("graph_S2xR_cos03")
    assert applicable_checks(product) == ALL_CHECKS
    space_form, _, _ = zoo("sphere_R3_homothetic")
    names = applicable_checks(space_form)
    assert "norm_grad_h" not in names
    assert "hessian_h" not in names
    assert "gauss_scalar" in names and "div_T_top" in names


SPACE_FORM_CHECKS = ("gauss_scalar", "codazzi", "laplacian_theta", "div_T_top")
PRODUCT_FORMULAS = ("integral_formula", "product_integral")
EINSTEIN_PRODUCT_FORMULAS = PRODUCT_FORMULAS + ("einstein_integral",)

# every registered ambient's checks and balance laws, written out: the
# Einstein law needs a genuine Killing field, so the flat space forms,
# whose field is homothetic (phi = 1), lack it
APPLICABILITY = {
    "H2xR": (ALL_CHECKS, PRODUCT_FORMULAS),
    "H2xR1": (ALL_CHECKS, PRODUCT_FORMULAS),
    "R31_minkowski": (SPACE_FORM_CHECKS, ("integral_formula",)),
    "R3_homothetic": (SPACE_FORM_CHECKS, ("integral_formula",)),
    "RP2xR": (ALL_CHECKS, PRODUCT_FORMULAS),
    "RP2xR1": (ALL_CHECKS, PRODUCT_FORMULAS),
    "S2xR": (ALL_CHECKS, PRODUCT_FORMULAS),
    "S2xR1": (ALL_CHECKS, PRODUCT_FORMULAS),
    "S3_hopf": (SPACE_FORM_CHECKS, ("integral_formula", "einstein_integral")),
    "S3xR": (ALL_CHECKS, PRODUCT_FORMULAS),
    "S3xR1": (ALL_CHECKS, PRODUCT_FORMULAS),
    "T2xR": (ALL_CHECKS, EINSTEIN_PRODUCT_FORMULAS),
    "T2xR1": (ALL_CHECKS, EINSTEIN_PRODUCT_FORMULAS),
}


def test_applicability_table_covers_every_ambient():
    assert tuple(sorted(APPLICABILITY)) == ambient_keys()


@pytest.mark.parametrize("key", sorted(APPLICABILITY))
def test_applicability_reads_the_ambient_alone(key):
    # the verdicts read nothing of a surface but its ambient
    stub = SimpleNamespace(ambient=make_ambient(key))
    checks, formulas = APPLICABILITY[key]
    assert applicable_checks(stub) == checks
    assert tuple(available_formulas(stub)) == formulas


def test_product_only_checks_reject_space_forms(zoo):
    surface, grid, _ = zoo("sphere_R3_homothetic", 16)
    ff = FrameFields(surface, grid)
    with pytest.raises(WrongAmbient):
        CHECKS["norm_grad_h"](ff)


def test_three_dimensional_suite_converges(zoo):
    surface, _, _ = zoo("graph_S3xR_coschi02")
    results = run_suite(surface, 12, refine=1)
    assert len(results) == 6
    for r in results:
        assert r.passed, r


def test_suite_lets_each_grid_go_before_the_next(zoo, monkeypatch):
    # when a grid's frame is built, no bundle of an earlier grid is alive
    surface, _, _ = zoo("slice_T2xR_t1.2")
    bundles, alive_at_frame = [], []

    class Recorded(FrameFields):
        def __init__(self, surface, grid):
            super().__init__(surface, grid)
            bundles.append(weakref.ref(self))

        @cached_property
        def frame(self):
            gc.collect()
            alive_at_frame.append([ref() is not None for ref in bundles
                                   if ref() is not self])
            return FrameFields.frame.func(self)

    monkeypatch.setattr(identities, "FrameFields", Recorded)
    results = run_suite(surface, 12, refine=1)
    assert len(results) == 6 and all(r.passed for r in results)
    assert alive_at_frame == [[], [False]]


@pytest.mark.parametrize("scenario, checks", [
    ("graph_S2xR_cos03", 6), ("torus_R3_homothetic", 4),
])
def test_suite_records_do_not_depend_on_the_worker_count(zoo, monkeypatch,
                                                         scenario, checks):
    # one worker runs every check on the caller, two run gauss_scalar on
    # the spare block thread, three also the checks after it on a second
    surface, grid, _ = zoo(scenario)
    records = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(shape, "_WORKERS", workers)
        results = run_suite(surface, grid.resolution, refine=1)
        records.append([r.to_dict() for r in results])
    assert len(records[0]) == checks
    assert records[1] == records[0] and records[2] == records[0]


class _CheckFailed(Exception):
    pass


@pytest.mark.parametrize("failing, raised", [
    ("codazzi", "gauss_scalar"), ("norm_grad_h", "norm_grad_h"),
    ("hessian_h laplacian_theta", "hessian_h"),
    ("norm_grad_h codazzi div_T_top", "norm_grad_h"),
])
def test_suite_raises_the_first_failure_once_the_pooled_check_is_done(
        zoo, monkeypatch, failing, raised):
    # gauss_scalar comes after norm_grad_h and hessian_h and before the
    # others in CHECKS; one worker runs the checks in turn and stops at the
    # first failure, two or three run gauss_scalar off the main thread and
    # wait for it
    surface, _, _ = zoo("graph_S2xR_cos03")

    def fail_as(name):
        def fail(fields):
            raise _CheckFailed(name)
        return fail

    for name in failing.split():
        monkeypatch.setitem(CHECKS, name, fail_as(name))
    for workers in (1, 2, 3):
        ran_on, finished = [], threading.Event()

        def slow_failing_gauss(fields):
            ran_on.append(threading.current_thread())
            time.sleep(0.3)
            finished.set()
            raise _CheckFailed("gauss_scalar")

        monkeypatch.setattr(shape, "_WORKERS", workers)
        monkeypatch.setitem(CHECKS, "gauss_scalar", slow_failing_gauss)
        with pytest.raises(_CheckFailed, match=f"^{raised}$"):
            run_suite(surface, 12, refine=1)
        if workers == 1:
            assert ran_on == ([threading.main_thread()]
                              if raised == "gauss_scalar" else [])
        else:
            assert finished.is_set() and len(ran_on) == 1
            assert ran_on[0] is not threading.main_thread()


def test_suite_enters_the_block_map_from_the_main_thread_only(zoo, monkeypatch):
    # a pool thread in _block_map would queue a helper behind itself; the
    # recorder raises there instead of waiting
    surface, _, _ = zoo("graph_S3xR_coschi02")
    block_map, entered = shape._block_map, []

    def recorded(fn, starts):
        entered.append(threading.current_thread())
        if entered[-1] is not threading.main_thread():
            raise AssertionError("_block_map entered from a pool thread")
        return block_map(fn, starts)

    monkeypatch.setattr(shape, "_WORKERS", 2)
    monkeypatch.setattr(shape, "_block_map", recorded)
    results = run_suite(surface, 12, refine=1)
    assert len(results) == 6
    assert entered and set(entered) == {threading.main_thread()}


def test_suite_with_two_block_workers_finishes_in_a_fresh_process():
    # a deadlock between the caller and the pool would hang the suite, so
    # the run goes to a child process under a time limit
    code = ("from prodsurf import shape, zoo\n"
            "from prodsurf.identities import run_suite\n"
            "shape._WORKERS = 2\n"
            "surface, _, _ = zoo.instantiate('graph_S3xR_coschi02', "
            "{'resolution': 16})\n"
            "results = run_suite(surface, 16)\n"
            "assert len(results) == 6 and all(r.passed for r in results)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_codazzi_on_space_form_is_exact(zoo):
    surface, _, _ = zoo("ellipsoid_R3_homothetic")
    assert run_check(surface, "codazzi", 24).passed


def _codazzi_full_tensor(fields):
    """The full-tensor Codazzi residual ``res[..., i, j, k]``, every pair.

    ``(grad_a A)^l_i`` with both Christoffel terms, lowered for all ``n^3``
    components, against a left side filled on ``i < j`` and mirrored onto
    ``j > i``: the route that ``check_codazzi`` reduces to its curl.
    """
    fr = fields.frame
    ambient = fields.surface.ambient
    n = len(fields.grid.axes)
    gam = fields.christoffels
    A = fr.shape_operator
    up = np.einsum("...lam,...mi->...ali", gam, A)
    down = np.einsum("...mai,...lm->...ali", gam, A)
    covA = fields.partials(A, index_rank=2) + up - down
    lowered = np.einsum("...kl,...jli->...ijk", fr.metric, covA)
    rhs = lowered - np.swapaxes(lowered, -3, -2)
    lhs = np.zeros(rhs.shape)
    kb = ambient.curved
    GN = np.einsum("...ab,...b->...a", full_chart(ambient).metric_at(fr.point),
                   fr.normal)[..., :kb]
    C = ambient.chart.metric_at(fr.point[..., :kb])
    t = fr.tangent
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                R = ambient.curvature_operator(C, t[..., i, :], t[..., j, :],
                                               t[..., k, :])
                val = np.einsum("...a,...a->...", R, GN)
                lhs[..., i, j, k] = val
                lhs[..., j, i, k] = -val
    return lhs - rhs


COMPACT = [sc.name for sc in catalog.list_scenarios() if sc.compact]


@pytest.mark.parametrize("scenario", COMPACT)
def test_codazzi_curl_matches_the_full_tensor_route(zoo, scenario):
    surface, grid, _ = zoo(scenario)
    pairs = []
    for resolution in (grid.resolution, 2 * grid.resolution):
        fields = FrameFields(surface,
                             QuadratureGrid.build(surface.axes, resolution))
        res = np.abs(_codazzi_full_tensor(fields))
        n = res.shape[-1]
        for i in range(n):
            assert not res[..., i, i, :].any()
            for j in range(i + 1, n):
                assert np.array_equal(res[..., j, i, :], res[..., i, j, :])
        upper = max(res[..., i, j, :].max()
                    for i in range(n) for j in range(i + 1, n))
        assert res.max() == upper
        curl = check_codazzi(fields)
        assert abs(curl.max_residual - upper) <= 1e-15, (resolution, curl)
        pairs.append((curl, dataclasses.replace(curl, max_residual=upper)))
    (coarse, ref_coarse), (fine, ref_fine) = pairs
    ours = _attach_order(coarse, fine, grid.resolution, 2 * grid.resolution)
    ref = _attach_order(ref_coarse, ref_fine, grid.resolution,
                        2 * grid.resolution)
    assert ours.passed == ref.passed and ours.floored == ref.floored
    if ref.convergence_order is not None:
        assert abs(ours.convergence_order - ref.convergence_order) <= 1e-6


def test_codazzi_forms_no_full_tensor_of_grad_A(zoo):
    # One call on graph_S3xR_coschi02 at 32, with the frame and the
    # Christoffel symbols built beforehand, peaks at 6.7x the bytes of the
    # shape operator; the full-tensor route above peaks at 17.1x.
    surface, _, _ = zoo("graph_S3xR_coschi02")
    fields = FrameFields(surface, QuadratureGrid.build(surface.axes, 32))
    fields.christoffels
    tracemalloc.start()
    try:
        check_codazzi(fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * fields.frame.shape_operator.nbytes
