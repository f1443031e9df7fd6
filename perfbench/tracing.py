"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces the public entry points of each prodsurf module
with thin wrappers, in this process only; ``Tracer.uninstall`` puts every
original object back.  Names bound with ``from ... import`` are patched at
each importing module too (``identities.partial_derivative``,
``calculus.frame_at``, ...), and the dispatch tables ``identities.CHECKS``
and ``integral.FORMULAS`` get wrapped entries.

Each span records its name, start, end, parent span, workload item and
pass.  Spans stay in memory until ``write_spans`` is called once at exit.
Count-only hooks (metric samples, Lagrange weight rows, radial right-hand
sides) add to counters without a span, so the hottest scalar calls do not
pay for a span each.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from prodsurf import (_smallmat, ambient, calculus, graphs, identities,
                      integral, reports, shape, zoo)

SETUP = "setup"          # pass label of spans recorded while building inputs

# name -> unit for every per-layer metric the traced run reports; the keys
# are the `per_layer` names in BENCHMARK.json
LAYER_METRICS: dict[str, str] = {}
for _name, _fields in (
        ("shape.intrinsic_curvature_oracle",
         ("calls", "s", "self_s", "metric_evals", "metric_points")),
        ("calculus.partial_derivative", ("calls", "s", "self_s")),
        ("calculus.stencil_weights", ("calls", "s")),
        ("smallmat.lagrange_derivative_weights", ("calls",)),
        ("ambient.curvature_operator", ("calls", "s")),
        *((f"identities.{check}", ("s",)) for check in identities.CHECKS),
        ("shape.frame_at", ("calls", "s", "self_s", "points")),
        ("calculus.integrate", ("calls", "s", "terms")),
        ("integral.integral_formula", ("s",)),
        ("integral.product_integral", ("s",)),
        ("integral.einstein_integral", ("s",)),
        ("graphs.solve_radial", ("calls", "s", "nfev")),
        ("graphs.closed_form_match", ("s",)),
        ("graphs.theorem_harness", ("calls", "s")),
        ("graphs.graph_curvature", ("s",)),
        ("zoo.instantiate", ("calls", "s")),
        ("reports.dump_json", ("s",))):
    for _field in _fields:
        LAYER_METRICS[f"{_name}.{_field}"] = \
            "s" if _field in ("s", "self_s") else "count"
LAYER_METRICS.update({
    "trace.wall_ref_s": "s",
    "trace.spans": "count",
    "largest_array_bytes_computed": "bytes",
})


def _points(s) -> int:
    """Number of parameter points in a (..., n) array."""
    return int(np.prod(np.shape(s)[:-1], dtype=np.int64))


class Tracer:
    """Records spans and counters around the prodsurf layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, item, pass]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.largest: dict[str, int] = defaultdict(int)
        self.item: str | None = None
        self.pass_label: str = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[(self.pass_label, name)] += amount

    def note_arrays(self, *arrays) -> None:
        """Track the largest array crossing a boundary (bytes from its shape)."""
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                size = arr.size * arr.itemsize
                if size > self.largest[self.pass_label]:
                    self.largest[self.pass_label] = size

    def _span(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, 0.0, 0.0, parent, tracer.item, tracer.pass_label]
            tracer.spans.append(rec)
            tracer._stack.append(sid)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.pass_label, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that count work at a boundary ----------------------------------

    def _after_frame(self, args, frame):
        self.add("shape.frame_at.points", _points(args[1]))
        self.note_arrays(*vars(frame).values())

    def _after_partial(self, args, out):
        self.note_arrays(args[0], out)

    def _after_integrate(self, args, _):
        values = args[0].values
        self.add("calculus.integrate.terms", int(values.size))
        self.note_arrays(values)

    def _wrap_sampler_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(surface):
            sample = factory(surface)

            def counted(s):
                tracer.add("shape.intrinsic_curvature_oracle.metric_evals")
                tracer.add("shape.intrinsic_curvature_oracle.metric_points",
                           _points(s))
                g = sample(s)
                tracer.note_arrays(g)
                return g
            return counted
        return make

    # -- install / uninstall -----------------------------------------------------

    def _targets(self):
        """(owner, key, replacement factory) for every patched entry point."""
        oracle = "shape.intrinsic_curvature_oracle"
        spans = [
            (shape, "intrinsic_curvature_oracle", oracle, None),
            (identities, "intrinsic_curvature_oracle", oracle, None),
            (calculus, "partial_derivative", "calculus.partial_derivative",
             self._after_partial),
            (identities, "partial_derivative", "calculus.partial_derivative",
             self._after_partial),
            (calculus, "_stencil_for_axis", "calculus.stencil_weights", None),
            (ambient.AmbientSpace, "curvature_operator",
             "ambient.curvature_operator", None),
            (shape, "frame_at", "shape.frame_at", self._after_frame),
            (calculus, "frame_at", "shape.frame_at", self._after_frame),
            (calculus, "integrate", "calculus.integrate", self._after_integrate),
            (graphs, "solve_radial", "graphs.solve_radial", None),
            (graphs, "closed_form_match", "graphs.closed_form_match", None),
            (graphs, "theorem_harness", "graphs.theorem_harness", None),
            (graphs, "graph_curvature", "graphs.graph_curvature", None),
            (zoo, "instantiate", "zoo.instantiate", None),
            (reports, "dump_json", "reports.dump_json", None),
        ]
        spans += [(identities.CHECKS, check, f"identities.{check}", None)
                  for check in identities.CHECKS]
        spans += [(owner, formula, f"integral.{formula}", None)
                  for formula in integral.FORMULAS
                  for owner in (integral, integral.FORMULAS)]
        counters = [
            (_smallmat, "lagrange_derivative_weights",
             "smallmat.lagrange_derivative_weights.calls"),
            (graphs, "radial_ode_rhs", "graphs.solve_radial.nfev"),
        ]
        return ([(owner, key, functools.partial(self._span, name=name, after=after))
                 for owner, key, name, after in spans]
                + [(owner, key, functools.partial(self._counter, name=name))
                   for owner, key, name in counters]
                + [(shape, "induced_metric_sampler", self._wrap_sampler_factory)])

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, key, make in self._targets():
            original = _get(owner, key)
            self._patched.append((owner, key, original))
            _set(owner, key, make(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            _set(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction -------------------------------------------------------------

    def pass_table(self, label: str) -> dict[str, float]:
        """Per-layer busy time, self time and counts for one pass label.

        A span nested inside a span of the same name is not counted again,
        so ``s`` is busy time, never double time.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent, _, label_) in enumerate(self.spans):
            if label_ != label:
                continue
            table["trace.spans"] += 1
            if _has_ancestor(self.spans, parent, name):
                continue
            table[f"{name}.calls"] += 1
            table[f"{name}.s"] += end - start
            table[f"{name}.self_s"] += end - start - child_time[sid]
        for (label_, name), value in self.counts.items():
            if label_ == label:
                table[name] += value
        table["largest_array_bytes_computed"] = self.largest[label]
        return table

    def layer_metrics(self, label: str, wall: float) -> dict[str, float]:
        """Every LAYER_METRICS value for the pass ``label`` that took
        ``wall`` seconds at the reference speed; the set-up layer
        (``zoo.instantiate``) is read from set-up."""
        table = self.pass_table(label)
        setup = self.pass_table(SETUP)
        out: dict[str, float] = {}
        for name, unit in LAYER_METRICS.items():
            if name.startswith("zoo.instantiate."):
                value = setup.get(name, 0)
            elif name == "trace.wall_ref_s":
                value = wall
            else:
                value = table.get(name, 0)
            out[name] = float(value) if unit == "s" else int(value)
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, item, label) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "item": item,
                                     "pass": label}) + "\n")


def _has_ancestor(spans, sid, name) -> bool:
    while sid is not None:
        if spans[sid][0] == name:
            return True
        sid = spans[sid][3]
    return False


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def patch_points():
    """(owner, key, current object) for every entry point the tracer patches."""
    return [(owner, key, _get(owner, key))
            for owner, key, _ in Tracer()._targets()]
