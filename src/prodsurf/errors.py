"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
tests (and the CLI) can assert on the precise condition instead of matching
message strings.
"""


class GeometryError(Exception):
    """Base class for all package-specific errors."""


class WrongAmbient(GeometryError):
    """An operation was asked of an ambient space it does not apply to
    (e.g. a height-function identity outside a product ambient)."""


class NotEinstein(GeometryError):
    """The Einstein specialization of the integral formula was requested on
    an ambient whose Ricci tensor is not a multiple of the metric."""


class DegenerateFrame(GeometryError):
    """The tangent vectors failed to span a nondegenerate hypersurface
    (Gram determinant below tolerance, or a null normal direction)."""


class NotSpacelike(GeometryError):
    """A hypersurface of a Lorentzian ambient has a point where the induced
    metric is not positive definite (for graphs: |Du|^2 >= 1)."""


class NonCompactDomain(GeometryError):
    """Surface integration was requested on a grid with an open axis, which
    samples only part of a non-compact surface."""


class SingularPoint(GeometryError):
    """The radial graph ODE was evaluated at or below the coordinate
    singularity x0 = 1."""


class StepFailure(GeometryError):
    """The adaptive ODE integrator failed to reach the requested endpoint."""


class ParameterOutOfRange(GeometryError):
    """A parameter left its validity range: that of the radial solution
    (signature/curvature combinations, the start offset, the window end,
    hyperboloid heights below 1), a product's sign, the ambients the
    registry knows, the smallest grid resolution the stencils take, or the
    axis kinds a grid knows.  A scenario override outside its declared
    range is an ``OverrideOutOfRange`` instead."""


class UnknownScenario(GeometryError):
    """A scenario name is not in the catalog."""


class OverrideOutOfRange(GeometryError):
    """A scenario override has an invalid value."""
