"""Plain result records, their JSON serialization, and the tolerance policy.

All CLI output and all acceptance bookkeeping flow through the dataclasses
here, so the on-disk format lives in exactly one place.  Serialization is
deterministic: keys are sorted, floats use Python's shortest round-trip repr
(the ``json`` default), and the timestamp is optional so byte-identical
reruns are possible.  The tolerance record :data:`TOLERANCES` that every
verdict reads lives here too, so that every module can import it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import OverrideOutOfRange

SCHEMA_VERSION = 1
TOLERANCE_SCALE_RANGE = (1.0e-6, 1.0e6)


@dataclass(frozen=True)
class Tolerances:
    """The tolerance policy every verdict in the package reads.

    ``min_order`` and ``min_order_stacked`` are convergence-order floors
    (the latter for the third-order stacked stencils of Lap Theta), and
    ``residual_floor`` is the level below which an order estimate measures
    rounding noise.  ``corollary_residual`` is the rounding-level residual
    of the graph curvature equation on a declared solution, and
    ``completeness_slack`` the rounding allowance of a sampled |Du|^2 above
    its closed-form supremum.  These describe the methods and the
    arithmetic, so ``scaled`` leaves them alone.  The remaining fields are
    residual tolerances of the balance laws and the radial closed-form
    match, which a ``tolerance_scale`` override multiplies.
    """

    min_order: float = 1.7
    min_order_stacked: float = 1.5
    residual_floor: float = 1.0e-8
    corollary_residual: float = 1.0e-8
    completeness_slack: float = 1.0e-10
    integral_relative: float = 1.0e-6
    einstein_absolute: float = 1.0e-5
    radial_match: float = 1.0e-6

    def scaled(self, scale: float) -> Tolerances:
        """This policy with its residual tolerances multiplied by ``scale``.

        The scale is gated to :data:`TOLERANCE_SCALE_RANGE`, the range of
        the ``tolerance_scale`` override.
        """
        scale = float(scale)
        lo, hi = TOLERANCE_SCALE_RANGE
        if not (lo <= scale <= hi):
            raise OverrideOutOfRange(
                f"tolerance_scale={scale} outside [{lo}, {hi}]")
        return replace(self,
                       integral_relative=self.integral_relative * scale,
                       einstein_absolute=self.einstein_absolute * scale,
                       radial_match=self.radial_match * scale)


TOLERANCES = Tolerances()


@dataclass
class Report:
    """Base of the report records: one serializer for all of them."""

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class CheckResult(Report):
    """Outcome of one pointwise identity (or residual) check.

    ``convergence_order`` is the observed order between the two finest
    resolutions, or None when the residual sits at the rounding floor on both
    grids (``floored`` is then True and the order ratio is meaningless).
    """

    name: str
    scenario: str
    resolution: int
    max_residual: float
    passed: bool
    convergence_order: float | None = None
    coarse_resolution: int | None = None
    coarse_residual: float | None = None
    floored: bool = False
    tolerance: float | None = None
    min_order: float | None = None
    note: str = ""


@dataclass
class IntegralReport(Report):
    """Two sides of an integral identity on one compact surface."""

    formula: str
    scenario: str
    resolution: int
    lhs: float
    rhs: float
    residual: float
    relative_residual: float
    normalization: float
    passed: bool
    tolerance: float | None = None


@dataclass
class HarnessReport(Report):
    """Curvature comparison of a graph against the slice value of its base.

    For a genuine graph the report records the signed gap between the scalar
    curvature (Gauss curvature when n = 2) of the graph and of the slices of
    the same product, together with the grid point where the decisive sign
    was attained.  Constant graphs short-circuit to a slice report instead.
    """

    kind: str                      # "graph" | "slice"
    scenario: str
    epsilon: int
    dimension: int                 # hypersurface dimension n
    resolution: int
    gap_min: float
    gap_max: float
    witness_min: tuple[float, ...]
    witness_max: tuple[float, ...]
    expected_sign_ok: bool
    theta_range: tuple[float, float]
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class CompletenessVerdict(Report):
    """Spacelike-bound bookkeeping for the Lorentzian radial graphs.

    ``sup_du_sq`` is the supremum of |Du|^2 over the whole graph, available in
    closed form (the gradient bound is monotone in the radius and converges to
    1 + 1/K).  ``sampled_max`` is the largest value actually attained on the
    sampled window, which must stay below the closed-form bound.
    """

    epsilon: int
    K: float | None
    sup_du_sq: float
    closed_form_value: float | None
    sampled_max: float
    sample_range: tuple[float, float]
    samples: int
    criterion_met: bool
    bound_respected: bool


def make_envelope(command: str, config: dict[str, Any], results: list[Any],
                  passed: bool, timestamp: bool = True) -> dict[str, Any]:
    """Wrap a list of report dataclasses in the common output envelope."""
    body: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": [r.to_dict() if hasattr(r, "to_dict") else r for r in results],
        "passed": bool(passed),
    }
    if timestamp:
        body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return body


def dump_json(obj: dict[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
