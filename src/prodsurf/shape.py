"""Hypersurface immersions and their pointwise geometric frames.

A hypersurface is handed to the package as a parametrized immersion with an
analytic 2-jet: ``jet(s) -> (x, dx, ddx)`` where ``s`` has shape ``(..., n)``,
``x`` shape ``(..., d)`` (d = n + 1 ambient chart coordinates), ``dx`` shape
``(..., n, d)`` (rows are the coordinate tangent vectors) and ``ddx`` shape
``(..., n, n, d)`` (coordinate second partials, symmetric in the first two
slots).  A graph ``t = u(m)`` over the base of a product (``GraphSurface``)
is handed over as its height's jet ``(u, du, d2u)``, which its frames read
as it is: no tangents or second partials are padded to ambient components.
A surface's chart axes (``axes``) are the one statement of its shape: ``n``
is their number, and the surface is compact exactly when none of them is
``"open"``, which a grid over them reads (``QuadratureGrid.compact``).

``frame_at`` turns the jet into the full pointwise dictionary of the
hypersurface: induced metric, unit normal (oriented by the ambient alone:
``<N, T> <= 0`` in a product, ``< 0`` in a Lorentzian ambient, the
adjugate normal as it is in a Riemannian space form), second fundamental
form ``h_ij = <sec_ij, N>``, shape operator ``A = g^{-1} h`` (so that
``A = -grad N`` as an endomorphism), mean curvature ``H = (eps_N / n)
tr A``, and the scalar curvature from the contracted Gauss equation

    S = Sbar - 2 eps_N Ric_bar(N, N) + 2 eps_N e_2(A),
    e_2(A) = ((tr A)^2 - tr A^2) / 2,

with ``eps_N = <N, N>`` (+1 in Riemannian ambients, -1 for spacelike
hypersurfaces of Lorentzian ones; the ambient's ``epsilon``) and ``Sbar``
the ambient's constant ``scalar_curvature``, which the frame does not store.

``frame_at`` allocates its outputs once, at the full batch shape, for the
fields its caller keeps (``keep``, every field by default), and splits the
flattened batch into contiguous blocks of ``_BLOCK`` points.  Each block
writes its fields straight into its rows of the outputs, so no block result
is copied and the working set does not grow with the grid.  A field the
caller does not keep is written into block scratch instead: one buffer per
field and thread (``_scratch``), allocated once and sliced to the block's
rows, so a frame that keeps a few scalars holds a few scalars per point.
Every check runs on every point whatever is kept.  The area element
``sqrt(det g)`` is a frame field, the root of the last leading minor of
``g`` that the block's rank test forms.  A product's height is no field of
its own: its readers take the view ``point[..., -1]``.  Blocks are
independent and run concurrently, up to ``_WORKERS`` at a time, through
``_block_map``.
Inside a block the ambient is its one chart model (``AmbientSpace``): the
curved block, whose callables take the first ``k = ambient.curved``
coordinates (metric ``C``), and the flat line (the other ``d - k``, one on
a product: metric ``eps``, no Christoffel symbols).  With ``v = (v_b,
v_l)`` split so, ``g = t_b C t_b^T + eps t_l t_l^T`` (``_induced_metric``,
which ``ParamSurface.induced_metric`` shares), the adjugate
normal is ``(C^-1 w_b, eps w_l)``, ``G T = (C T_b, eps T_l)``, ``h_ij =
txx_ij . GN + t_i^b (Gamma^a_bc (GN)_a) t_j^c`` over the block's
``Gamma``, through the lowered unit normal ``GN`` (the normalized adjugate
covector), and ``Ric_bar(N, N) = (k - 1) sectional N_b . (GN)_b``; the two
``t M t^T`` run one batch-wide product per term (``_add_sandwich``).  Each
surface contracts its own jet (``_frame_jet``, ``_jet_term``); every
check is written once, in ``_frame_block``.  A graph's tangents are ``(e_i, du_i)``: its
``t_b`` is the identity, ``g = C + eps du du^T`` (``_add_line``, which its
``induced_metric`` shares), its adjugate covector is ``w = (-1)^n (-du,
1)`` and ``h_ij = d2u_ij (GN)_line + Gamma^a_ij (GN)_a``.  Every
block writes the adjugate-oriented frame; the orientation is chosen once
for the whole batch, after all blocks, by negating the kept fields that are
odd in ``N``.  An error names its point by its index in the full batch, and
the first failing block's error is raised, so the result depends neither on
the block size nor on the number of workers.

The module also hosts the *independent* intrinsic-curvature oracle: the
scalar curvature ``S`` (``2K`` when n = 2), by one route in every dimension,
direct finite differencing of the induced metric.  The oracle never touches
normals or second fundamental forms, so agreement with the frame values is a
genuine two-route check of the Gauss equation.  It samples the surface's
own ``induced_metric`` (``induced_metric_sampler``) at the stencil points
as they land, past a polar edge or periodic seam too: there the chart
formulas, continued, give the metric the identification prescribes, so
no parameter is folded back into the chart and no component changes sign.
Each surface contracts its metric as its frame blocks do; a
``GraphSurface`` reads its height's first partials only, ``g = g_M + eps du
(x) du``.  The metric derivatives come from one pass over a stencil
lattice around the nodes of a quadrature grid (``_metric_jet``), whose
rings share their samples along a periodic last axis (see
``intrinsic_curvature_oracle``).  The oracle runs the flattened nodes in
blocks of ``_BLOCK`` points (whole rings), in order, on the calling thread;
a ring depends on no other, so the result does not depend on the block
size.  It never enters ``_block_map``, so it may run on a pool thread: the
identity suite runs the whole oracle check on the spare block thread
beside its stencil checks (``identities.run_suite``).
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Sequence

import numpy as np

from . import _smallmat
from .ambient import AmbientSpace, AxisSpec
from .errors import DegenerateFrame, NotSpacelike, WrongAmbient

if TYPE_CHECKING:                   # calculus imports this module
    from .calculus import QuadratureGrid

__all__ = [
    "ParamSurface",
    "GraphSurface",
    "GeometryFrame",
    "frame_at",
    "induced_metric_sampler",
    "intrinsic_curvature_oracle",
]

# Relative tolerance of the rank tests: a leading minor of g must exceed it
# times the product of the squared Euclidean lengths of its tangent vectors,
# and |w G^{-1} w| for the normal covector w must exceed it times |w|^2.
_DEGENERACY_TOL = 1e-14

# Points per block of frame_at and of the intrinsic-curvature oracle.  It
# bounds every intermediate array; 4096, 8192 and 16384 points timed about
# the same.
_BLOCK = 8192

# Threads that run the blocks of one batch: one per CPU this process may
# run on, capped so that the block temporaries held at once stay bounded.
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(eq=False)
class ParamSurface:
    """A parametrized hypersurface with an analytic 2-jet.

    The oracle samples ``induced_metric`` at parameters up to its reach past
    the chart's polar edges and periodic seams, and takes the continuation
    of the jet's chart formulas there for the metric that the axes'
    identifications prescribe: the formulas must be those of a surface
    smooth across the edges and seams.
    """

    name: str
    ambient: AmbientSpace
    axes: tuple[AxisSpec, ...]
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

    # a parametrized surface is never a quotient: its integrals are not scaled
    quotient_factor = 1.0

    def induced_metric(self, s: np.ndarray) -> np.ndarray:
        """Induced metric ``g_ij = <t_i, t_j>`` at chart parameters ``s``,
        contracted as ``frame_at`` contracts it (``_induced_metric``)."""
        x, tx, _ = self.jet(s)
        n, k = tx.shape[-2], self.ambient.curved
        return _induced_metric(self.ambient, self.ambient.metric_at(x[..., :k]),
                               tx, np.empty(tx.shape[:-1] + (n,)))

    def _frame_jet(self, s: np.ndarray, out: dict[str, np.ndarray]):
        """The surface's part of a frame block (``_frame_block``): write the
        block's ``point``, ``tangent`` and ``metric`` into ``out``, and
        return the curved block's metric ``C``, the normal covector ``w``,
        the tangents' curved block ``t_b`` and the second-order data that
        ``_jet_term`` pairs with ``GN``."""
        x, tx, txx = self.jet(s)
        out["point"][...] = x
        out["tangent"][...] = tx
        x, tx = out["point"], out["tangent"]
        k = self.ambient.curved
        C = self.ambient.metric_at(x[..., :k])
        _induced_metric(self.ambient, C, tx, out["metric"])
        return C, _smallmat.generalized_cross(tx), tx[..., :k], txx

    @staticmethod
    def _jet_term(txx: np.ndarray, GN: np.ndarray, out: np.ndarray
                  ) -> np.ndarray:
        """``h_ij = txx_ij . GN``, the second partials' term of ``h``."""
        return np.einsum("...ija,...a->...ij", txx, GN, out=out)


@dataclass(eq=False)
class GraphSurface:
    """The graph ``t = u(m)`` of a function over the base of a product.

    ``ambient`` is the product ``M x R`` (``make_product``); the base ``M``
    and the line's sign ``epsilon`` are read from it.  ``u``, ``du`` and
    ``d2u`` are array-aware callables returning the height, its chart
    partials ``(..., n)`` and its coordinate second partials ``(..., n, n)``.
    ``d2u`` holds plain partial derivatives; covariant corrections happen
    downstream.  In a Lorentzian product the graph is checked to be
    spacelike (``|Du|^2 < 1``) wherever frames are computed.

    Its tangents are ``(e_i, du_i)``, so its frame blocks read the height's
    jet as it is, with no tangents or second partials padded to ``n + 1``
    components.

    As for ``ParamSurface``, the oracle samples ``induced_metric`` up to its
    reach past the base chart's polar edges and periodic seams, where the
    continued ``du`` and base metric must give the metric the
    identifications prescribe.  The chart formula of a height smooth across
    them does; ``u = a theta cos(phi)`` over S^2, not smooth at theta = pi,
    does not.
    """

    name: str
    ambient: AmbientSpace
    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    d2u: Callable[[np.ndarray], np.ndarray]
    radial_K: float | None = None   # K of a graphs.radial_graph profile

    def __post_init__(self):
        if self.ambient.base is None:
            raise WrongAmbient(f"graph {self.name!r} needs a product ambient, "
                               f"got {self.ambient.name!r}")
        self.base = self.ambient.base
        self.epsilon = self.ambient.epsilon
        self.axes = self.base.axes
        self.quotient_factor = self.base.quotient_factor

    def induced_metric(self, s: np.ndarray) -> np.ndarray:
        """Induced metric ``g = g_M + eps du du^T`` at chart parameters
        ``s``, contracted as ``frame_at`` contracts it (``_add_line``)."""
        s = np.asarray(s, dtype=float)
        return self._add_line(self.base.metric_at(s), self.du(s))

    def _add_line(self, g: np.ndarray, du: np.ndarray) -> np.ndarray:
        """``g += eps du du^T`` in place, on the base metric ``g``: one
        batch-wide product per pair ``i <= j``, where a broadcast outer
        product runs its inner loop over ``n`` elements."""
        n = du.shape[-1]
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            term = self.epsilon * (du[..., i] * du[..., j])
            g[..., i, j] += term
            if j != i:
                g[..., j, i] += term
        return g

    def _frame_jet(self, s: np.ndarray, out: dict[str, np.ndarray]):
        """``ParamSurface._frame_jet`` from the height's jet: the point
        ``(s, u)``, the tangents ``(e_i, du_i)`` (``t_b`` is the identity,
        returned as ``None``), ``g = C + eps du du^T`` and ``w = (-1)^n (-du,
        1)``, the alternation of the tangents that
        ``_smallmat.generalized_cross`` forms; ``d2u`` for ``_jet_term``."""
        n = self.base.dim
        x, tx = out["point"], out["tangent"]
        x[..., :n] = s
        x[..., n] = self.u(s)
        du = self.du(s)
        tx.fill(0.0)                # a broadcast np.eye ran 3 times slower
        for i in range(n):
            tx[..., i, i] = 1.0
        tx[..., n] = du
        C = self.base.metric_at(x[..., :n])
        out["metric"][...] = C
        self._add_line(out["metric"], du)
        w = np.empty_like(x)
        np.multiply((-1) ** (n + 1), du, out=w[..., :n])
        w[..., n] = (-1) ** n
        return C, w, None, self.d2u(s)

    @staticmethod
    def _jet_term(d2u: np.ndarray, GN: np.ndarray, out: np.ndarray
                  ) -> np.ndarray:
        """``h_ij = d2u_ij (GN)_line``, the second partials' term of ``h``."""
        return np.multiply(d2u, GN[..., -1, None, None], out=out)


@dataclass(eq=False)
class GeometryFrame:
    """Pointwise geometric data of a hypersurface (batched arrays).

    A field that ``frame_at`` was not asked to keep is ``None``.  In a
    product the height is the last component of ``point``; the height
    checks read that view, ``point[..., -1]``.
    """

    point: np.ndarray
    tangent: np.ndarray            # (..., n, d) coordinate tangent vectors
    metric: np.ndarray             # induced metric g_ij
    metric_inv: np.ndarray
    area_element: np.ndarray       # sqrt(det g)
    normal: np.ndarray             # unit normal, oriented by the ambient
    second_form: np.ndarray        # h_ij = <sec_ij, N>
    shape_operator: np.ndarray     # A^i_j = g^{ik} h_kj
    mean_curvature: np.ndarray     # H = (eps_N / n) tr A
    scalar_curvature: np.ndarray   # S from the contracted Gauss equation
    ricci_normal: np.ndarray       # Ric_bar(N, N)
    theta: np.ndarray              # <N, T>
    tau: np.ndarray                # tangential part of T in surface coords


_pools: dict[int, ThreadPoolExecutor] = {}     # thread count -> pool
_pools_lock = threading.Lock()


def _block_map(fn: Callable[[object], object], items: Sequence) -> list:
    """``fn(item)`` for every item, returned in item order: the block
    starts of ``frame_at`` or the check groups of ``identities.run_suite``.

    With ``k = min(_WORKERS, len(items))``, the caller's thread runs the
    items ``0, k, 2k, ...`` and each of ``k - 1`` pool threads one other
    such stride; with one item or one worker no pool is used.  Every
    thread that allocates block temporaries keeps memory of its own, so the
    caller works rather than waits and the strides are fixed: on two CPUs
    an idle caller beside ``_WORKERS`` pool threads raised the benchmark's
    ``identity_sweep`` peak RSS by 9 %, and one queue that every thread
    drew from raised ``sign_radial_scan``'s by 5 %.  A stride stops at its
    first failing item.  Every stride has finished before the call returns
    or raises, and then ``fn`` is let go, so a pool work item, which
    outlives its task for a moment, keeps none of the caller's data alive.
    The first failing item's exception, in item order, is raised (an item
    a stride skips comes after that stride's failure).

    A pool thread must never enter it: with two workers the pool has one
    thread, which would wait on a helper queued behind itself.  So
    ``run_suite`` builds each frame before it hands its checks here, and
    the oracle runs its blocks in turn on the thread that calls it.
    """
    results: list = [None] * len(items)
    errors: dict[int, Exception] = {}
    stride = max(1, min(_WORKERS, len(items)))

    def run(first: int) -> None:
        for i in range(first, len(items), stride):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                return

    with _pools_lock:
        if stride > 1 and _WORKERS - 1 not in _pools:
            _pools[_WORKERS - 1] = ThreadPoolExecutor(
                _WORKERS - 1, thread_name_prefix="prodsurf-block")
    helpers = [_pools[_WORKERS - 1].submit(run, first)
               for first in range(1, stride)]
    try:
        run(0)
    finally:
        wait(helpers)
    del fn
    if errors:
        raise errors[min(errors)]
    return results


def frame_at(surface, s: np.ndarray, keep: Collection[str] | None = None
             ) -> GeometryFrame:
    """Evaluate the geometric frame of ``surface`` at parameters ``s``.

    ``s`` may carry arbitrary batch dimensions.  ``keep`` names the fields
    to return (``GeometryFrame`` field names); every field by default.  The
    kept fields are allocated once, at the full batch shape; the others are
    ``None``.  The batch runs in blocks as the module docstring says; a
    batch smaller than one block is a single block on the caller's thread,
    and a kept field is the same whatever else is kept.

    Every check runs on every point, whatever is kept.  Raises
    ``NotSpacelike`` when a Lorentzian-ambient surface fails the spacelike
    test and ``DegenerateFrame`` when the tangent map loses rank or the
    normal direction becomes null.  In a product or a Lorentzian ambient,
    which orient the normal by ``<N, T>``, ``DegenerateFrame`` is raised
    when the adjugate normal's ``<N, T>`` takes both strict signs, and where
    it is positive somewhere the kept fields odd in ``N`` are negated in
    place.  An unknown name in ``keep`` raises ``ValueError``.
    """
    s = np.asarray(s, dtype=float)
    batch = s.shape[:-1]
    flat = s.reshape(-1, s.shape[-1])
    total, n = flat.shape
    size = _BLOCK
    starts = range(0, max(total, 1), size)
    shapes = _frame_shapes(n, surface.ambient.dim)
    unknown = set(keep or ()) - shapes.keys()
    if unknown:
        raise ValueError(f"frame_at cannot keep {sorted(unknown)}")
    out = {key: np.empty((total,) + shape) for key, shape in shapes.items()
           if keep is None or key in keep}

    def block(start: int) -> tuple[bool, bool]:
        rows = slice(start, start + size)
        count = min(size, total - start)
        fields = {key: out[key][rows] if key in out
                  else _scratch_rows(key, count, shape)
                  for key, shape in shapes.items()}
        return _frame_block(surface, flat[rows], fields, batch, start)

    signs = _block_map(block, starts)
    ambient = surface.ambient
    if ambient.epsilon < 0 or ambient.kind == "product":
        negative = any(neg for neg, _ in signs)
        positive = any(pos for _, pos in signs)
        if negative and positive:
            raise DegenerateFrame(
                f"{surface.name}: <N, T> changes sign across the batch, so "
                "no normal keeps it of one sign")
        if positive:
            for key in _ODD_IN_N:
                if key in out:
                    np.negative(out[key], out=out[key])

    return GeometryFrame(**{
        key: out[key].reshape(batch + shape) if key in out else None
        for key, shape in shapes.items()})


# The frame_at outputs that change sign with the normal.
_ODD_IN_N = ("normal", "theta", "second_form", "shape_operator",
             "mean_curvature")


def _frame_shapes(n: int, d: int) -> dict[str, tuple[int, ...]]:
    """Per-point shapes of the ``frame_at`` outputs, keyed like
    ``GeometryFrame``."""
    return dict(point=(d,), tangent=(n, d), metric=(n, n), metric_inv=(n, n),
                area_element=(), normal=(d,), second_form=(n, n),
                shape_operator=(n, n), mean_curvature=(), scalar_curvature=(),
                ricci_normal=(), theta=(), tau=(n,))


# Block scratch for the fields a frame_at caller does not keep: one flat
# buffer per field and thread, allocated for a full block and reused by
# every later block of that thread (a larger per-point shape reallocates).
# A prototype that allocated it per block ran the balance laws up to 19 %
# slower.
_scratch = threading.local()


def _scratch_rows(key: str, rows: int, shape: tuple[int, ...]) -> np.ndarray:
    """``rows`` rows of this thread's scratch for the field ``key``."""
    size = rows * math.prod(shape)
    buffer = getattr(_scratch, key, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(_BLOCK * math.prod(shape))
        setattr(_scratch, key, buffer)
    return buffer[:size].reshape((rows,) + shape)


def _add_sandwich(t: np.ndarray | None, M: np.ndarray, out: np.ndarray
                  ) -> None:
    """``out += t M t^T`` for symmetric ``out`` and ``M``, one batch-wide
    product per term, where a batched matmul pays a call per tiny matrix.
    ``t`` is ``None`` for the identity (a graph's tangents): ``out += M``."""
    if t is None:
        out += M
        return
    n, k = t.shape[-2:]
    tM = [[sum(t[..., i, a] * M[..., a, b] for a in range(k)) for b in range(k)]
          for i in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        out[..., i, j] += sum(tM[i][b] * t[..., j, b] for b in range(k))
        out[..., j, i] = out[..., i, j]


def _induced_metric(ambient: AmbientSpace, C: np.ndarray, t: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """``g = eps t_l t_l^T + t_b C t_b^T`` into ``out``, with the tangents
    ``t`` cut to the curved block (``t_b``, metric ``C``) and the line."""
    k = ambient.curved
    np.einsum("...ia,...ja->...ij", ambient.epsilon * t[..., k:], t[..., k:],
              out=out)
    _add_sandwich(t[..., :k], C, out)
    return out


def _frame_block(surface, s: np.ndarray, out: dict[str, np.ndarray],
                 batch: tuple[int, ...], offset: int) -> tuple[bool, bool]:
    """Write the frame fields of the block ``s`` (shape ``(m, n)``) into ``out``.

    ``out`` holds, for every ``frame_at`` output keyed like
    ``GeometryFrame``, the block's rows of it or of its scratch; each is
    written in place.  ``offset`` is the block's first row in the flattened
    ``batch``; error messages report points by their index in ``batch``.
    The surface contracts its own jet (``_frame_jet``, ``_jet_term``); the
    rest, every check included, is written here once for every surface.
    The normal is the adjugate one; the block returns whether its ``<N, T>``
    is negative and whether it is positive anywhere, from which ``frame_at``
    orients the whole batch.
    """
    ambient = surface.ambient
    eps = ambient.epsilon
    n = s.shape[-1]
    C, w, tb, second = surface._frame_jet(s, out)
    x, tx, g = out["point"], out["tangent"], out["metric"]
    kb = ambient.curved                 # the curved block; the rest is line
    xb = x[..., :kb]

    def where(bad: np.ndarray) -> tuple[int, ...]:
        return tuple(int(i) for i in
                     np.unravel_index(offset + int(np.argmax(bad)), batch))

    # positive definiteness via leading principal minors, each measured
    # against the product of the squared Euclidean lengths of its tangents;
    # the last minor is det g, whose root is the area element
    scale = np.cumprod(np.einsum("...ia,...ia->...i", tx, tx), axis=-1)
    for k in range(n):
        minor = _smallmat.det(g[..., :k + 1, :k + 1])
        bad = ~(minor > _DEGENERACY_TOL * scale[..., k])
        if np.any(bad):
            at = where(bad)
            what = (f"(leading minor {k + 1} is {float(minor[bad][0]):.3e} "
                    f"at index {at})")
            if ambient.epsilon < 0:
                raise NotSpacelike(
                    f"{surface.name}: induced metric not positive definite {what}")
            raise DegenerateFrame(
                f"{surface.name}: tangent vectors degenerate {what}")
    ginv = _smallmat.inv(g, out=out["metric_inv"])
    np.sqrt(minor, out=out["area_element"])

    # metric-adjugate normal: covector w annihilating the tangents; it is
    # the lowered form G Nraw of the normal vector Nraw = G^{-1} w
    Nraw = ambient.lower(ambient.metric_inverse_at(xb), w, out["normal"])
    nsq = np.einsum("...a,...a->...", w, Nraw)
    # a normal through a chart pole meets an infinite G^{-1}: nsq is not finite
    bad = ~(np.isfinite(nsq)
            & (np.abs(nsq) > _DEGENERACY_TOL * np.einsum("...a,...a->...", w, w)))
    if np.any(bad):
        raise DegenerateFrame(f"{surface.name}: null, vanishing or non-finite "
                              f"normal direction at index {where(bad)}")
    bad = np.sign(nsq) != eps
    if np.any(bad):
        what = (f"normal has <N, N> of sign {int(np.sign(nsq[bad][0]))} at "
                f"index {where(bad)}, expected {eps} for this ambient")
        if eps < 0:
            raise NotSpacelike(f"{surface.name}: {what}")
        raise DegenerateFrame(f"{surface.name}: {what}")
    length = np.sqrt(np.abs(nsq))[..., None]
    N = np.divide(Nraw, length, out=out["normal"])

    GT = ambient.lower(C, ambient.killing.field_at(x), np.empty_like(x))
    theta = np.einsum("...a,...a->...", N, GT, out=out["theta"])

    # a Lorentzian ambient asks for <N, T> < 0 at every point, so <N, T> = 0
    # fails whichever way frame_at turns the normal
    if eps < 0 and np.any(theta == 0.0):
        raise DegenerateFrame(
            f"{surface.name}: normal orthogonal to the time orientation")
    Nlow = w * (1.0 / length)       # G N

    np.einsum("...ij,...j->...i", ginv, np.einsum("...jb,...b->...j", tx, GT),
              out=out["tau"])

    # h_ij = <txx_ij + Gam(t_i, t_j), N>, contracted through the lowered
    # normal; the second partials are let go before the block's Christoffel
    # symbols, its largest temporary, are formed
    h = surface._jet_term(second, Nlow, out["second_form"])
    del second
    GamN = np.einsum("...abc,...a->...bc", ambient.christoffel_at(xb),
                     Nlow[..., :kb])
    _add_sandwich(tb, GamN, h)
    A = np.matmul(ginv, h, out=out["shape_operator"])
    trA = np.einsum("...ii->...", A)
    trA2 = np.einsum("...ij,...ji->...", A, A)
    e2 = 0.5 * (trA * trA - trA2)

    np.multiply(eps / n, trA, out=out["mean_curvature"])
    ricNN = np.einsum("...a,...a->...", N[..., :kb], Nlow[..., :kb],
                      out=out["ricci_normal"])
    ricNN *= (kb - 1) * ambient.sectional
    out["scalar_curvature"][...] = (ambient.scalar_curvature
                                    - 2.0 * eps * ricNN + 2.0 * eps * e2)
    return bool(np.any(theta < 0.0)), bool(np.any(theta > 0.0))


# --------------------------------------------------------------------------
# the intrinsic-curvature oracle
# --------------------------------------------------------------------------

def induced_metric_sampler(surface) -> Callable[[np.ndarray], np.ndarray]:
    """The oracle's metric sampler: ``surface.induced_metric`` itself.

    It is sampled at the stencil points as they land, up to the oracle's
    reach past the chart's polar edges and periodic seams, where the
    continued chart formulas give the metric the identifications prescribe
    (the contract of ``ParamSurface`` and ``GraphSurface``).  The function
    only names the sampler, so that the benchmark's tracer
    (``perfbench/tracing.py``) and the tests can wrap it.
    """
    return surface.induced_metric


# High-order centered stencils, selectable by accuracy order, and the order
# the oracle's pure-axis derivatives take in each dimension.  Near chart
# poles 1/sin^2 factors in the inverse metric amplify truncation error by
# powers of the distance to the pole: second-order stencils stall under grid
# refinement, and at a double pole (two polar axes meeting, amplification
# ~ m^8 at resolution m) even fourth order grows like m.  Eighth-order
# stencils keep the pure-axis truncation decaying ~ m^-11, which beats the
# amplification everywhere on the grids used here, so n = 3 takes them.  At
# n = 2 they drive the rows next to a pole into rounding, which enters
# through 1/h^2 and grows under refinement (orders -3.99 on
# sphere_R3_homothetic, -4.36 on geodesic_sphere_S3): n = 2 takes order 4.
_PURE_ORDER = {2: 4, 3: 8}
_D1_TABLES = {
    4: ((-2, -1, 1, 2),
        (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
    8: ((-4, -3, -2, -1, 1, 2, 3, 4),
        (1.0 / 280.0, -4.0 / 105.0, 1.0 / 5.0, -4.0 / 5.0,
         4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)),
}
_D2_TABLES = {
    4: ((-2, -1, 0, 1, 2),
        (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)),
    8: ((-4, -3, -2, -1, 0, 1, 2, 3, 4),
        (-1.0 / 560.0, 8.0 / 315.0, -1.0 / 5.0, 8.0 / 5.0, -205.0 / 72.0,
         8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)),
}
# Mixed second derivative d_a d_b on the two diagonals of the (a, b) plane,
# offsets (i, j) in steps (h_a, h_b): fourth order, exact on polynomials of
# total degree <= 5, and no farther than the pure-axis fourth-order stencils
# (two steps per axis), so it reaches no farther past a chart edge than they.
_MIXED_TABLE = (
    ((1, 1), (1, -1), (-1, 1), (-1, -1), (2, 2), (2, -2), (-2, 2), (-2, -2)),
    (16.0 / 48.0, -16.0 / 48.0, -16.0 / 48.0, 16.0 / 48.0,
     -1.0 / 48.0, 1.0 / 48.0, 1.0 / 48.0, -1.0 / 48.0),
)


def _metric_jet(g_at: Callable, s: np.ndarray, h: np.ndarray, pure_order: int,
                ring: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metric and its first and second partials from one pass of samples.

    Returns ``(g, dg, ddg)`` with ``dg[..., a, i, j] = d_a g_ij`` and
    ``ddg[..., a, b, i, j] = d_a d_b g_ij``.  Pure-axis derivatives use the
    centered stencils of order ``pure_order``; mixed second derivatives use
    the fourth-order 8-point diagonal stencil ``_MIXED_TABLE``.  Each
    distinct sample is evaluated once, as one batch ``g_at(s + key * h)``
    at the points as they land, past a chart edge too (the shifted batch
    is the sample's one copy of the parameters), read by every stencil
    offset that lands on it, and dropped after its last reader; only the
    centre batch is kept (it is ``g``).

    ``ring`` is ``None`` or the length ``L`` of the rings the rows of ``s``
    form: consecutive runs of ``L`` points that go once around the periodic
    last chart axis at the spacing ``2 h[-1]``, the other coordinates fixed
    along each run.  Without rings every offset is its own batch:
    ``1 + n * pure_order + 8 * n (n - 1) / 2`` samples per point, 17 for
    n = 2 at order 4 and 49 for n = 3 at order 8.  On rings an offset
    ``o`` reads the batch keyed by its leading offsets and the parity ``p``
    of ``o[-1]``, rolled by ``shift = (o[-1] - p) / 2`` nodes along the
    ring (two slices, no copy): on the periodic axis ``s_j + o[-1] h[-1]``
    is ``s_(j + shift) + p h[-1]``, up to the rounding of the coordinates.
    That is 8 samples per point for n = 2 and 30 for n = 3.

    Each derivative is summed from zero, in table order, in a contiguous
    ``(..., n, n)`` accumulator, each term formed in one reused product
    buffer; the sum is then divided by the step straight into its slot of
    ``dg`` or ``ddg`` (a mixed one is copied to its transposed slot too).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[-1]
    length = ring or 1
    lattice = (-1, length, n, n)

    def along(*steps: tuple[int, int]) -> tuple[int, ...]:
        off = [0] * n
        for axis, mult in steps:
            off[axis] += mult
        return tuple(off)

    def locate(off: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The batch an offset reads and its shift along the ring."""
        if ring is None:
            return off, 0
        parity = off[-1] % 2
        return off[:-1] + (parity,), (off[-1] - parity) // 2

    pure_steps, pure_w2 = _D2_TABLES[pure_order]
    pure = [[along((a, m)) for m in pure_steps] for a in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    mixed = [[along((a, ma), (b, mb)) for ma, mb in _MIXED_TABLE[0]]
             for a, b in pairs]
    centre = along()
    readers = collections.Counter(locate(off)[0]
                                  for row in pure + mixed for off in row)
    readers[centre] += 1                  # the returned g holds it too
    g = g_at(s + np.multiply(centre, h))
    batches = {centre: g.reshape(lattice)}
    dg = np.empty(g.shape[:-2] + (n, n, n))
    ddg = np.empty(g.shape[:-2] + (n, n, n, n))
    d1 = dict(zip(*_D1_TABLES[pure_order]))
    first = np.empty_like(g)        # contiguous accumulators, one block each
    second = np.empty_like(g)
    term = np.empty_like(g)         # the weighted sample being added
    term_lattice = term.reshape(lattice)

    def add(off: tuple[int, ...], terms: list[tuple[float, np.ndarray]]
            ) -> None:
        """Add the sample at ``off``, times each ``w``, into its ``acc``."""
        key, shift = locate(off)
        if key not in batches:
            batches[key] = g_at(s + np.multiply(key, h)).reshape(lattice)
        batch = batches[key]
        k = shift % length
        for w, acc in terms:
            np.multiply(w, batch[:, k:], out=term_lattice[:, :length - k])
            if k:
                np.multiply(w, batch[:, :k], out=term_lattice[:, length - k:])
            acc += term
        readers[key] -= 1
        if not readers[key]:
            del batches[key]

    for a in range(n):
        first.fill(0.0)
        second.fill(0.0)
        # the second-derivative offsets contain the first-derivative ones
        for off, m, w2 in zip(pure[a], pure_steps, pure_w2):
            terms = [(w2, second)]
            if m in d1:
                terms.append((d1[m], first))
            add(off, terms)
        np.divide(first, h[a], out=dg[..., a, :, :])
        np.divide(second, h[a] ** 2, out=ddg[..., a, a, :, :])
    for (a, b), row in zip(pairs, mixed):
        second.fill(0.0)
        for off, w in zip(row, _MIXED_TABLE[1]):
            add(off, [(w, second)])
        np.divide(second, h[a] * h[b], out=ddg[..., a, b, :, :])
        ddg[..., b, a, :, :] = ddg[..., a, b, :, :]
    return g, dg, ddg


def _fd_scalar_curvature(g_at: Callable, s: np.ndarray, h: np.ndarray,
                         ring: int | None = None) -> np.ndarray:
    """Scalar curvature of an n-dim metric by direct finite differencing.

    The metric and its partials come from one pass of :func:`_metric_jet`
    at the pure-axis order ``_PURE_ORDER[n]``, sharing its samples along
    the rings of ``s`` when ``ring`` gives their length.  With the curvature
    sign convention of :mod:`prodsurf.ambient`,

        S = g^ac (d_b Gam^b_ac - d_a Gam^b_bc + Gam^e_ac Gam^b_be
                  - Gam^e_bc Gam^b_ae),

    which is ``2K`` when n = 2.  It is assembled from the traces it needs
    in closed form, without the derivatives of every Christoffel symbol or
    the Riemann tensor: ``Gam^b_bc = g^bl d_c g_bl / 2`` and
    ``d_b Gam^b_ac = d_b g^bl [l, ac] + g^bl d_b [l, ac]`` with the
    Christoffel symbols of the first kind ``[l, ac]``.  The index ranges
    are tiny, so each tensor is a dict of contiguous batch arrays, one per
    index tuple, and each contraction a sum of elementwise products.
    """
    n = s.shape[-1]
    g0, dg, ddg = _metric_jet(g_at, s, h, _PURE_ORDER[n], ring)
    ginv = _smallmat.inv(g0)
    r = range(n)
    pairs = list(itertools.product(r, repeat=2))
    triples = list(itertools.product(r, repeat=3))
    gi = {(i, j): ginv[..., i, j].copy() for i, j in pairs}
    d = {(a, i, j): dg[..., a, i, j].copy() for a, i, j in triples}
    # M[a, i, j] = (g^-1 d_a g)^i_j, so that d_a g^-1 = -M_a g^-1
    M = {(a, i, j): sum(gi[i, k] * d[a, k, j] for k in r) for a, i, j in triples}
    # first kind [l, ac] = (d_a g_lc + d_c g_la - d_l g_ac) / 2
    first = {(l, a, c): 0.5 * (d[a, l, c] + d[c, l, a] - d[l, a, c])
             for l, a, c in triples}
    Gam = {(k, a, c): sum(gi[k, l] * first[l, a, c] for l in r)
           for k, a, c in triples}
    # Gam^b_bc, g^ac [l, ac] and d_b g^bl
    trace_gam = [0.5 * sum(M[c, b, b] for b in r) for c in r]
    first_g = [sum(first[l, a, c] * gi[a, c] for a, c in pairs) for l in r]
    div_ginv = [-sum(M[b, b, m] * gi[m, l] for b, m in pairs) for l in r]
    # g^ac g^bl (d_b d_a g_lc - d_b d_l g_ac): the second partials of
    # g^ac g^bl d_b [l, ac] and of g^ac d_a Gam^b_bc, in one sum
    ddg_g = sum(gi[b, l] * sum((ddg[..., b, a, l, c] - ddg[..., b, l, a, c])
                               * gi[a, c] for a, c in pairs)
                for b, l in pairs)
    MM = sum(gi[a, c] * sum(M[a, i, j] * M[c, j, i] for i, j in pairs)
             for a, c in pairs)                             # g^ac tr(M_a M_c)
    return (sum(div_ginv[l] * first_g[l] for l in r) + ddg_g + 0.5 * MM
            + sum(gi[e, l] * first_g[l] * trace_gam[e] for e, l in pairs)
            - sum(Gam[b, a, e] * gi[a, c] * Gam[e, b, c]
                  for b, a in pairs for e, c in pairs))


def intrinsic_curvature_oracle(surface, grid: QuadratureGrid) -> np.ndarray:
    """Scalar curvature ``S`` (``2K`` when n = 2) from metric samples alone,
    on the nodes of ``grid``, of shape ``grid.shape``, with ``n`` the number
    of the grid's axes.

    One route in every supported dimension, :func:`_fd_scalar_curvature`,
    at the step of half the closest node spacing on each axis.  Its
    stencils reach up to two steps (n = 2) or four (n = 3) past a polar
    edge or periodic seam, where ``surface.induced_metric`` is sampled as
    it is: the continued chart formulas give the metric there, with no
    fold into the chart.  On a periodic last chart axis the nodes sit at
    twice that step, so the jet shares its samples along each ring of
    ``grid.shape[-1]`` nodes: 8 per node for n = 2 and 30 for n = 3,
    against 17 and 49 on an open one.  The sampler is built once; the
    flattened nodes are evaluated in contiguous blocks of ``_BLOCK`` points
    (whole rings, at least one), in order on the calling thread, each
    writing its own slice of one output, so the samples held at a time do
    not grow with the grid.  A ring depends on no other,
    so the result does not depend on the block size.  The oracle never
    enters ``_block_map``, which ``frame_at`` and ``identities.run_suite``
    share, so it may run on a pool thread: ``run_suite`` runs it on one.
    """
    n = len(grid.axes)
    if n not in _PURE_ORDER:
        raise ValueError(f"oracle supports n = 2 or 3, got {n}")
    h = np.array([0.5 * np.min(np.diff(z)) for z in grid.nodes_1d])
    g_at = induced_metric_sampler(surface)
    ring = grid.shape[-1] if grid.axes[-1].kind == "periodic" else None
    flat = grid.nodes.reshape(-1, n)
    out = np.empty(flat.shape[0])
    length = ring or 1
    size = length * max(1, _BLOCK // length)
    for start in range(0, flat.shape[0], size):
        rows = slice(start, start + size)
        out[rows] = _fd_scalar_curvature(g_at, flat[rows], h, ring)
    return out.reshape(grid.shape)
