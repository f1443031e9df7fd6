"""The three benchmark workloads: seeded inputs, one closed-loop pass, gates.

Each workload is a list of items built once from the seed (``setup``) and
replayed by ``run_pass``: one caller, the next item issued when the
previous verdict returns.  A pass ends in one timestamp-free report (the
JSON envelope of every verdict, sorted by item key, followed by any CSV
tables), so replays of the same inputs must give the same bytes.

Every item returns its verdict records and a list of ``(ok, label)``
checks: each verdict, plus the benchmark's own correctness gates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from prodsurf import calculus, graphs, identities, integral, reports, zoo

REFERENCE_ORDERS_FILE = Path(__file__).resolve().parent / "reference_orders.json"
ORDER_DRIFT = 0.05              # ROADMAP rule: orders may move by at most this
SPHERE_FLUX = 8.0 * math.pi     # both sides of the homothety balance, unit sphere
SPHERE_FLUX_TOL = 1.0e-6
BALANCE_RESOLUTIONS = {2: (128, 256), 3: (32, 64)}   # by chart dimension
HARNESS_RESOLUTION = 16
GRAPH_DRAWS = {2: 24, 3: 6}     # amplitude draws per graph scenario, by dimension
RADIAL_DRAWS = 12               # (epsilon, K) draws per example51 scenario

Check = tuple[bool, str]


@dataclass
class ItemResult:
    records: list[dict]
    checks: list[Check]
    text: str = ""              # appended to the report after the JSON envelope


@dataclass
class Item:
    key: str                    # sort key in the report, span label in traces
    run: Callable[[], ItemResult]


@dataclass
class PassResult:
    report: bytes
    checks: list[Check] = field(default_factory=list)


def _shuffled(items: list[Item], rng: np.random.Generator) -> list[Item]:
    return [items[i] for i in rng.permutation(len(items))]


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int
                ) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return [float(v) for v in lo + (hi - lo) * u]


def _compact_scenarios():
    return [sc for sc in zoo.list_scenarios() if sc.compact]


# -- identity_sweep ------------------------------------------------------------

def _order_gate(scenario: str, results, reference: dict) -> list[Check]:
    expected = reference.get(scenario, {})
    checks = []
    names = {r.name for r in results}
    if names != set(expected):
        checks.append((False, f"{scenario}: checks {sorted(names)} differ from "
                              f"the reference {sorted(expected)}"))
    for r in results:
        if r.name not in expected:
            continue
        ref = expected[r.name]
        order = r.convergence_order
        if ref is None:
            ok = order is None
        else:
            ok = order is not None and abs(order - ref) <= ORDER_DRIFT
        checks.append((ok, f"{scenario}/{r.name}: order {order} vs "
                           f"reference {ref}"))
    return checks


def _identity_item(name: str, surface, resolution: int, reference: dict) -> Item:
    def run() -> ItemResult:
        results = identities.run_suite(surface, resolution, refine=1)
        checks = [(r.passed, f"{name}/{r.name}: verdict") for r in results]
        checks += _order_gate(name, results, reference)
        return ItemResult([r.to_dict() for r in results], checks)
    return Item(name, run)


def setup_identity_sweep(rng: np.random.Generator) -> list[Item]:
    reference = json.loads(REFERENCE_ORDERS_FILE.read_text())
    items = []
    for sc in _compact_scenarios():
        surface, grid, _ = zoo.instantiate(sc.name)
        items.append(_identity_item(sc.name, surface, grid.resolution, reference))
    return _shuffled(items, rng)


# -- balance_laws ---------------------------------------------------------------

def _balance_item(name: str, surface, grid) -> Item:
    def run() -> ItemResult:
        reps = integral.run_formulas(surface, grid)
        checks = [(r.passed, f"{name}@{grid.resolution}/{r.formula}: verdict")
                  for r in reps]
        if name == "sphere_R3_homothetic":
            flux = [r for r in reps if r.formula == "integral_formula"]
            dev = max((max(abs(r.lhs - SPHERE_FLUX), abs(r.rhs - SPHERE_FLUX))
                       for r in flux), default=math.inf)
            checks.append((dev <= SPHERE_FLUX_TOL,
                           f"{name}@{grid.resolution}: both sides equal 8*pi "
                           f"to {dev:.3e}"))
        return ItemResult([r.to_dict() for r in reps], checks)
    return Item(f"{name}@{grid.resolution:04d}", run)


def setup_balance_laws(rng: np.random.Generator) -> list[Item]:
    items = []
    for sc in _compact_scenarios():
        surface, _, _ = zoo.instantiate(sc.name)
        for resolution in BALANCE_RESOLUTIONS[len(surface.axes)]:
            grid = calculus.QuadratureGrid.build(surface.axes, resolution)
            grid.nodes, grid.weights   # materialize the cached grid arrays
            items.append(_balance_item(sc.name, surface, grid))
    return _shuffled(items, rng)


# -- sign_radial_scan -------------------------------------------------------------

def _harness_item(key: str, surface, grid) -> Item:
    def run() -> ItemResult:
        rep = graphs.theorem_harness(surface, grid)
        return ItemResult([rep.to_dict()], [(rep.expected_sign_ok,
                                             f"{key}: expected curvature sign")])
    return Item(key, run)


def _radial_item(key: str, epsilon: int, K: float) -> Item:
    def run() -> ItemResult:
        solution = graphs.solve_radial(epsilon, K)
        match = graphs.closed_form_match(solution)
        verdict = solution.completeness()
        checks = [(match.passed, f"{key}: closed-form match"),
                  (verdict.bound_respected, f"{key}: gradient bound respected")]
        if epsilon == -1:
            checks.append((verdict.criterion_met,
                           f"{key}: Lorentzian completeness criterion"))
        return ItemResult([match.to_dict(), verdict.to_dict()], checks,
                          text=solution.to_csv())
    return Item(key, run)


def setup_sign_radial_scan(rng: np.random.Generator) -> list[Item]:
    items = []
    for sc in zoo.list_scenarios():
        if sc.kind == "graph":
            surface, _, _ = zoo.instantiate(sc.name)
            lo, hi = sc.ranges["amplitude"]
            draws = _stratified(rng, lo, hi, GRAPH_DRAWS[len(surface.axes)])
            for i, a in enumerate(draws):
                surface, grid, _ = zoo.instantiate(
                    sc.name, {"amplitude": a, "resolution": HARNESS_RESOLUTION})
                grid.nodes                      # materialize the cached nodes
                items.append(_harness_item(f"{sc.name}#{i:02d} amplitude={a!r}",
                                           surface, grid))
        elif sc.kind == "radial_graph":
            surface, _, _ = zoo.instantiate(sc.name)
            lo, hi = sc.ranges["K"]
            for i, K in enumerate(_stratified(rng, lo, hi, RADIAL_DRAWS)):
                items.append(_radial_item(
                    f"{sc.name}#{i:02d} epsilon={surface.epsilon} K={K!r}",
                    surface.epsilon, K))
    return _shuffled(items, rng)


SETUPS = {
    "identity_sweep": setup_identity_sweep,
    "balance_laws": setup_balance_laws,
    "sign_radial_scan": setup_sign_radial_scan,
}


def setup(workload: str, seed: int) -> list[Item]:
    """Build the workload's inputs from the seed."""
    return SETUPS[workload](np.random.default_rng(seed))


def run_pass(workload: str, items: list[Item], tracer=None,
             after_item: Callable[[], None] | None = None) -> PassResult:
    """Run every item once, in order, and serialize the pass report.

    An item that raises counts as one failed check; the pass goes on.
    ``after_item`` is called between items (the run's calibration slices).
    """
    results: list[tuple[str, ItemResult]] = []
    checks: list[Check] = []
    for item in items:
        if tracer is not None:
            tracer.item = item.key
        try:
            res = item.run()
        except Exception as exc:    # a raised error is a failed check, not a crash
            checks.append((False, f"{item.key}: raised {type(exc).__name__}: {exc}"))
            res = ItemResult([{"item": item.key, "error": type(exc).__name__}], [])
        results.append((item.key, res))
        checks += res.checks
        if after_item is not None:
            after_item()
    if tracer is not None:
        tracer.item = None
    results.sort(key=lambda kr: kr[0])
    records = [{"item": key, **rec} for key, res in results for rec in res.records]
    envelope = reports.make_envelope(
        workload, {"items": len(items)}, records,
        all(ok for ok, _ in checks), timestamp=False)
    text = reports.dump_json(envelope) + "".join(res.text for _, res in results)
    return PassResult(text.encode(), checks)
