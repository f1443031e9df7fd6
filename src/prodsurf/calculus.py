"""Structured-grid calculus on parametrized hypersurfaces.

Provides quadrature grids over the parameter charts (Gauss-Legendre in the
cosine of polar angles, trapezoid on periodic angles, midpoint on open
intervals), first-derivative stencils that continue fields across chart
poles via the deck transformations declared on each :class:`AxisSpec`, and
the surface operators built from them.  The operators (gradient,
divergence, Laplace-Beltrami and covariant Hessians with respect to the
induced metric) are methods of :class:`FrameFields` that take and return
plain arrays on the grid.

Each Gauss-Legendre rule is solved once per node count and process
(``_gauss_legendre``).  numpy's ``leggauss`` solves a dense ``m x m``
eigenproblem through the threaded BLAS, which costs more than the rest of a
grid's build, and the BLAS worker thread goes on using a CPU after it
returns: the CPU that the frame blocks and the pooled oracle run on.  The
cached arrays are read-only, and every grid forms its own nodes and
weights from them.

All higher operators are compositions of the first-derivative stencil, so
one resolution knob controls every discretization error.  Stencils are
five-point Lagrange rules on the actual (generally non-uniform) node
positions; near chart poles the inverse metric amplifies truncation error
by powers of the pole distance, and the wide stencil keeps the composed
operators convergent there.  ``partial_derivative`` contracts the stencil
one column at a time, without gathering a ``(..., m, 5)`` window: with
``v_c`` the center value it adds ``(v_k - v_c) w_k`` into the result for
``k = 0 ... 4``, left to right.  That order is the contract that keeps its
results bit-identical.

``integrate`` sums the terms of an integral exactly and rounds once:
integer mantissas are summed per binary exponent by ``np.bincount`` in
pieces small enough that no partial sum rounds, the pieces are folded into
one Python int, and one correctly rounded division gives the float.  The
result is the correctly rounded sum, which is what ``math.fsum`` returns,
so it equals ``fsum`` bit for bit without listing the terms.

The bundle holds no Killing-field data of its own.  Every ambient carries
its distinguished field ``T``: ``<N, T>`` and the tangential part of ``T``
are frame fields, and the conformal factor ``phi`` is a constant read from
``ambient.killing``, so ``dphi/dN = 0``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _smallmat
from .ambient import AxisSpec
from .errors import NonCompactDomain, ParameterOutOfRange
from .shape import frame_at

__all__ = [
    "QuadratureGrid",
    "SurfaceField",
    "partial_derivative",
    "integrate",
    "FrameFields",
]

_STENCIL_WIDTH = 5          # Lagrange window per derivative
_GHOST_DEPTH = 2            # layers continued across a polar endpoint
# Terms summed per pass of the exact summation in `integrate`.  Each term's
# 53-bit integer mantissa is split into a 27-bit high and a 26-bit low half,
# and each half is summed per binary exponent by np.bincount in float64;
# with at most 2**16 terms per pass every partial sum is an integer below
# 2**43, so the pass is exact.  The chunk also bounds its temporaries.
_FSUM_CHUNK = 65536
_MANTISSA_BITS = 53
_LOW_BITS = 26
_EXPONENT_MIN = -1073       # np.frexp exponent of the smallest subnormal
# Each exponent bin is split into _LANES lane bins, term i going to lane
# i % _LANES: the terms of a real integrand fall in a few exponents, and
# bincount's adds into one bin wait on each other.  The lanes of a bin are
# added after the pass, exactly (each lane sum is an integer below 2**43).
_LANES = 4
_LANE_OF = np.arange(_FSUM_CHUNK, dtype=np.intc) % _LANES


# --------------------------------------------------------------------------
# quadrature grids
# --------------------------------------------------------------------------

@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(m)``, solved once per node count and process, read-only."""
    x, w = leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _axis_rule(axis: AxisSpec, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for one axis; weights integrate d(coordinate)."""
    if axis.kind == "periodic":
        m = 2 * resolution
        nodes = axis.lo + axis.period * np.arange(m) / m
        weights = np.full(m, axis.period / m)
        return nodes, weights
    if axis.kind == "polar_cos":
        m = resolution + 1 if resolution % 2 == 0 else resolution
        x, w = _gauss_legendre(m)
        c_lo, c_hi = math.cos(axis.hi), math.cos(axis.lo)
        half = 0.5 * (c_hi - c_lo)
        mid = 0.5 * (c_hi + c_lo)
        cos_nodes = mid + half * x
        nodes = np.arccos(cos_nodes)[::-1].copy()          # ascending angle
        # d(angle) = -dc / sin(angle); the reversal absorbs the sign
        weights = (half * w / np.sin(np.arccos(cos_nodes)))[::-1].copy()
        return nodes, weights
    if axis.kind == "open":
        m = resolution
        step = axis.period / m
        nodes = axis.lo + step * (np.arange(m) + 0.5)
        weights = np.full(m, step)
        return nodes, weights
    raise ValueError(f"unknown axis kind {axis.kind!r}")


@dataclass(eq=False)
class QuadratureGrid:
    """Tensor-product nodes and weights over a parameter chart.

    ``resolution`` sets the per-axis density: a polar axis gets an odd
    number of Gauss-Legendre-in-cosine nodes (>= resolution, so the equator
    is always a node), a periodic axis ``2 * resolution`` uniform nodes and
    an open axis ``resolution`` midpoints.  Weights integrate the plain
    coordinate volume; the surface measure enters through the area-element
    field of the frames.  The Gauss-Legendre rule of a node count is
    cached for the process (its eigensolve is the costly part of a build),
    but ``nodes_1d`` and ``weights_1d`` are the grid's own arrays, and the
    stencils in ``_cache`` belong to this grid alone.
    """

    axes: tuple[AxisSpec, ...]
    resolution: int
    nodes_1d: tuple[np.ndarray, ...]
    weights_1d: tuple[np.ndarray, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, axes: tuple[AxisSpec, ...], resolution: int) -> "QuadratureGrid":
        if resolution < 2 * _STENCIL_WIDTH:
            raise ParameterOutOfRange(
                f"resolution {resolution} is too coarse for the stencils "
                f"(minimum {2 * _STENCIL_WIDTH})")
        rules = [_axis_rule(ax, resolution) for ax in axes]
        return cls(axes=tuple(axes), resolution=resolution,
                   nodes_1d=tuple(r[0] for r in rules),
                   weights_1d=tuple(r[1] for r in rules))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(z) for z in self.nodes_1d)

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.nodes_1d, indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def weights(self) -> np.ndarray:
        out = np.ones(())
        for w in self.weights_1d:
            out = np.multiply.outer(out, w)
        return out


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SurfaceField:
    """Scalar values sampled on the nodes of a grid, the integrand of
    :func:`integrate`."""

    values: np.ndarray
    grid: QuadratureGrid

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} does not match "
                             f"grid {self.grid.shape}")


def _deck_transform(values: np.ndarray, axes: tuple[AxisSpec, ...],
                    crossing: int, index_rank: int) -> np.ndarray:
    """Continue grid data across the endpoint of a polar axis.

    Applies the deck map declared on ``axes[crossing]``: half-period rolls
    on the ``shift`` axes, order reversal on the ``reverse`` axes, and one
    Jacobian sign per coordinate index.  The map reverses the direction of
    the crossing axis and of every ``reverse`` axis and translates the rest,
    so those axes, and no others, take the sign -1.
    """
    axis = axes[crossing]
    out = values
    for k in axis.shift:
        m = values.shape[k]
        if m % 2:
            raise ValueError("half-period shift needs an even node count")
        out = np.roll(out, m // 2, axis=k)
    for k in axis.reverse:
        out = np.flip(out, axis=k)
    if index_rank:
        n = len(axes)
        sign = np.ones(n)
        sign[[crossing, *axis.reverse]] = -1.0
        for r in range(index_rank):
            shape = (1,) * (out.ndim - index_rank + r) + (n,) + (1,) * (index_rank - 1 - r)
            out = out * sign.reshape(shape)
    return out


def _extended_positions(grid: QuadratureGrid, axis: int) -> np.ndarray:
    z = grid.nodes_1d[axis]
    spec = grid.axes[axis]
    d = _GHOST_DEPTH
    if spec.kind == "open":
        return z
    if spec.kind == "periodic":
        return np.concatenate([z[-d:] - spec.period, z, z[:d] + spec.period])
    lo_ghost = (2.0 * spec.lo - z[:d])[::-1]
    hi_ghost = (2.0 * spec.hi - z[-d:])[::-1]
    return np.concatenate([lo_ghost, z, hi_ghost])


def _extend_values(values: np.ndarray, grid: QuadratureGrid, axis: int,
                   index_rank: int) -> np.ndarray:
    spec = grid.axes[axis]
    d = _GHOST_DEPTH
    if spec.kind == "open":
        return values
    head = (slice(None),) * axis
    lo_slab = values[head + (slice(None, d),)]
    hi_slab = values[head + (slice(-d, None),)]
    if spec.kind == "periodic":
        return np.concatenate([hi_slab, values, lo_slab], axis=axis)
    lo_ghost = np.flip(_deck_transform(lo_slab, grid.axes, axis, index_rank), axis=axis)
    hi_ghost = np.flip(_deck_transform(hi_slab, grid.axes, axis, index_rank), axis=axis)
    return np.concatenate([lo_ghost, values, hi_ghost], axis=axis)


def _stencil_for_axis(grid: QuadratureGrid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Window indices (m, w) into the extended axis and derivative weights."""
    key = ("stencil", axis)
    if key in grid._cache:
        return grid._cache[key]
    z_ext = _extended_positions(grid, axis)
    m = grid.shape[axis]
    w = _STENCIL_WIDTH
    ghost = 0 if grid.axes[axis].kind == "open" else _GHOST_DEPTH
    center = np.arange(m) + ghost
    start = np.clip(center - w // 2, 0, len(z_ext) - w)
    idx = start[:, None] + np.arange(w)
    wts = _smallmat.lagrange_derivative_weights(z_ext[idx], z_ext[center])
    # force an exact zero row sum so constant fields differentiate to 0
    wts[np.arange(m), center - start] -= wts.sum(axis=1)
    grid._cache[key] = (idx, wts)
    return idx, wts


def partial_derivative(values: np.ndarray, grid: QuadratureGrid, axis: int,
                       index_rank: int = 0) -> np.ndarray:
    """Coordinate partial d(values)/d(param_axis) at every grid node.

    ``index_rank`` trailing axes of ``values`` are surface-coordinate
    indices and acquire deck-map Jacobian signs when the stencil crosses a
    chart pole.

    The result is ``sum_k (v_k - v_c) w_k`` over the stencil columns, the
    terms added left to right, ``k = 0 ... 4`` (the order is part of the
    contract).  With the exact zero-sum weights this is algebraically the
    plain contraction, and constant fields come out as exact zeros.  Each
    term is formed in one reused scratch array: column ``k`` is a shifted
    view of the extended array on periodic and polar axes (windows
    ``center - 2 ... center + 2``), and a gather on open axes, whose
    windows are clipped at the ends.
    """
    values = np.asarray(values, dtype=float)
    ext = _extend_values(values, grid, axis, index_rank)
    idx, wts = _stencil_for_axis(grid, axis)
    m = grid.shape[axis]
    wshape = (1,) * axis + (m,) + (1,) * (values.ndim - axis - 1)
    clipped = grid.axes[axis].kind == "open"
    lead = (slice(None),) * axis
    out = np.empty_like(values)
    term = np.empty_like(values)
    for k in range(_STENCIL_WIDTH):
        acc = out if k == 0 else term
        if clipped:
            np.take(ext, idx[:, k], axis=axis, out=acc)
            acc -= values
        else:
            np.subtract(ext[lead + (slice(k, k + m),)], values, out=acc)
        acc *= wts[:, k].reshape(wshape)
        if k:
            out += term
    return out


def _fsum(flat: np.ndarray) -> float:
    """``math.fsum`` of a flat array, listed ``_FSUM_CHUNK`` values at a time."""
    return math.fsum(itertools.chain.from_iterable(
        flat[start:start + _FSUM_CHUNK].tolist()
        for start in range(0, flat.size, _FSUM_CHUNK)))


def _exact_sum(flat: np.ndarray) -> float:
    """The sum of a flat float64 array, bit-identical to ``math.fsum``.

    Every finite term is ``M * 2**(e - 53)`` with an integer mantissa
    ``|M| < 2**53`` (``np.frexp``).  Per ``_FSUM_CHUNK`` terms, the low
    ``_LOW_BITS`` bits of ``M`` and the rest are summed per exponent, in
    ``_LANES`` lanes each, by ``np.bincount`` without rounding (see
    ``_FSUM_CHUNK``); the lanes of each exponent are added, and the sums are
    folded into one Python int, the exact total in units of
    ``2**(_EXPONENT_MIN - 53)``.  It is rounded once, by int / int true
    division, which CPython rounds correctly (half to even, subnormals
    included), as ``math.fsum`` rounds its exact sum; an exact zero gives
    ``0.0`` in both.  Where ``fsum`` does something else, the terms go to
    ``fsum`` itself: on a non-finite term (its inf, nan and ``ValueError``
    rules), and when the terms are large enough that its partial sums
    could overflow, where it raises ``OverflowError``.
    """
    total = 0
    top = 0         # largest exponent bin of any term
    for start in range(0, flat.size, _FSUM_CHUNK):
        chunk = flat[start:start + _FSUM_CHUNK]
        if not np.isfinite(chunk).all():
            return _fsum(flat)
        fraction, exponent = np.frexp(chunk)
        mantissa = np.ldexp(fraction, _MANTISSA_BITS).astype(np.int64)
        exponent -= _EXPONENT_MIN
        last = int(exponent.max())
        top = max(top, last)
        exponent *= _LANES
        exponent += _LANE_OF[:chunk.size]
        high, low = (np.bincount(exponent, weights=part.astype(float),
                                 minlength=_LANES * (last + 1))
                     .reshape(-1, _LANES).sum(axis=1)
                     for part in (mantissa >> _LOW_BITS,
                                  mantissa & ((1 << _LOW_BITS) - 1)))
        bins = np.flatnonzero((high != 0.0) | (low != 0.0))
        for k, hi, lo in zip(bins.tolist(), high[bins].tolist(), low[bins].tolist()):
            total += ((int(hi) << _LOW_BITS) + int(lo)) << k
    # every term is below 2**(top + _EXPONENT_MIN), their absolute sum below
    # flat.size times that and fsum's partials below three times the sum:
    # under this bound neither fsum nor the division below can overflow
    if top + _EXPONENT_MIN + flat.size.bit_length() + 2 > 1023:
        return _fsum(flat)
    return total / (1 << (_MANTISSA_BITS - _EXPONENT_MIN))


def integrate(f: SurfaceField, area_element: np.ndarray, *,
              quotient_factor: float, compact: bool) -> float:
    """Integral over the surface: sum of f * weight * area element.

    The terms are summed exactly and rounded once (``_exact_sum``), so the
    result equals ``math.fsum`` of the terms bit for bit, and is
    bit-reproducible across runs and worker counts.  The sum is vectorized
    over ``_FSUM_CHUNK`` terms at a time, so no Python list of the grid's
    terms is built.
    """
    if not compact:
        raise NonCompactDomain("surface integral requested on a non-compact scenario")
    contrib = f.values * f.grid.weights
    contrib *= area_element
    return quotient_factor * _exact_sum(contrib.ravel(order="C"))


# --------------------------------------------------------------------------
# per-surface field bundle
# --------------------------------------------------------------------------

class FrameFields:
    """Frames and derived fields of one surface sampled on one grid.

    Everything downstream (identity residuals, integral formulas, the
    theorem harness) consumes this bundle; heavy members are computed once
    and cached.  ``keep`` is passed to ``frame_at``: the frame holds only
    the fields it names (every field by default).  The identity suite and
    the theorem harness keep the full frame; ``integral.run_formulas``
    keeps only what the balance laws integrate,
    ``integral.BALANCE_FIELDS``.  ``integrate`` reads the frame's
    ``area_element``, and ``cancellation_mass`` its ``theta``,
    ``scalar_curvature`` and ``ricci_normal``.
    """

    def __init__(self, surface, grid: QuadratureGrid,
                 keep: Collection[str] | None = None):
        self.surface = surface
        self.grid = grid
        self.keep = keep

    @cached_property
    def frame(self):
        return frame_at(self.surface, self.grid.nodes, self.keep)

    @cached_property
    def cancellation_mass(self) -> float:
        """I |Theta| (|S| + |S_amb| + |Ric(N,N)|) dA, the scale every
        balance law of :mod:`prodsurf.integral` is judged against."""
        fr = self.frame
        sbar = abs(self.surface.ambient.scalar_curvature)
        return self.integrate(np.abs(fr.theta) * (np.abs(fr.scalar_curvature)
                                                  + sbar
                                                  + np.abs(fr.ricci_normal)))

    # -- induced-metric differential structure ------------------------------

    @cached_property
    def christoffels(self) -> np.ndarray:
        """Surface Christoffel symbols Gamma^k_ij of the induced metric,
        from the metric partials ``dg[..., a, i, j] = d_a g_ij`` by grid
        stencils, which are not kept."""
        dg = self.partials(self.frame.metric, index_rank=2)
        ginv = self.frame.metric_inv
        n = len(self.grid.axes)
        out = np.zeros(self.grid.shape + (n, n, n))
        for i in range(n):
            for j in range(n):
                brk = 0.5 * (dg[..., i, :, j] + dg[..., j, :, i] - dg[..., :, i, j])
                out[..., :, i, j] = np.einsum("...kl,...l->...k", ginv, brk)
        return out

    # -- surface operators (arrays in, arrays out) ---------------------------

    def partials(self, values: np.ndarray, index_rank: int = 0) -> np.ndarray:
        """d_a of a field, stacked on a new axis before the field's indices."""
        n = len(self.grid.axes)
        return np.stack([partial_derivative(values, self.grid, a, index_rank)
                         for a in range(n)], axis=-1 - index_rank)

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Gradient of a scalar field: (grad f)^i = g^ij d_j f."""
        return np.einsum("...ij,...j->...i", self.frame.metric_inv, self.partials(f))

    def divergence(self, X: np.ndarray) -> np.ndarray:
        """Divergence of a tangent field: div X = d_i X^i + Gamma^i_ik X^k.

        The covariant form is used rather than the density form
        ``(1/sqrt g) d_i(sqrt g X^i)``: the flux ``sqrt(g) X^i`` is a vector
        density, and densities acquire a ``|det J|`` factor under the polar
        deck maps that the tensor ghost machinery deliberately does not apply.
        """
        acc = np.einsum("...iik->...k", self.christoffels)
        acc = np.einsum("...k,...k->...", acc, X)
        for a in range(len(self.grid.axes)):
            acc = acc + partial_derivative(X, self.grid, a, index_rank=1)[..., a]
        return acc

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami of a scalar: div(grad f), by nested stencils."""
        return self.divergence(self.gradient(f))

    def covariant_hessian(self, f: np.ndarray) -> np.ndarray:
        """Hess f_ij = d_i d_j f - Gamma^k_ij d_k f (induced connection)."""
        df = self.partials(f)
        ddf = self.partials(df, index_rank=1)
        ddf = 0.5 * (ddf + np.swapaxes(ddf, -1, -2))
        return ddf - np.einsum("...kij,...k->...ij", self.christoffels, df)

    def integrate(self, f: np.ndarray) -> float:
        return integrate(SurfaceField(np.asarray(f, dtype=float), self.grid),
                         self.frame.area_element,
                         quotient_factor=self.surface.quotient_factor,
                         compact=self.surface.compact)
