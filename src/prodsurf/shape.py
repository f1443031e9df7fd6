"""Hypersurface immersions and their pointwise geometric frames.

A hypersurface is handed to the package as a parametrized immersion with an
analytic 2-jet: ``jet(s) -> (x, dx, ddx)`` where ``s`` has shape ``(..., n)``,
``x`` shape ``(..., d)`` (d = n + 1 ambient chart coordinates), ``dx`` shape
``(..., n, d)`` (rows are the coordinate tangent vectors) and ``ddx`` shape
``(..., n, n, d)`` (coordinate second partials, symmetric in the first two
slots).  Graphs over a base manifold get their jet assembled from the height
function and its derivatives.

``frame_at`` turns the jet into the full pointwise dictionary of the
hypersurface: induced metric, unit normal (with a deterministic orientation
policy), second fundamental form ``h_ij = <sec_ij, N>``, shape operator
``A = g^{-1} h`` (so that ``A = -grad N`` as an endomorphism), principal
curvatures, mean curvature ``H = (eps_N / n) tr A``, and the scalar
curvature from the contracted Gauss equation

    S = Sbar - 2 eps_N Ric_bar(N, N) + 2 eps_N sum_{i<j} k_i k_j

with ``eps_N = <N, N>`` (+1 in Riemannian ambients, -1 for spacelike
hypersurfaces of Lorentzian ones).

``frame_at`` splits the flattened batch into contiguous blocks of
``_BLOCK`` points and writes each block into outputs of the full batch
shape, so its working set does not grow with the grid.  Blocks are
independent and run concurrently: ``_block_map`` evaluates up to
``_WORKERS`` of them at a time (the CPU-affinity count, capped at
``_MAX_WORKERS``) on the caller's thread and a thread pool, numpy releasing
the interpreter lock in their array work, and hands the results back in
block order.  Inside a block the contractions run two operands at a time,
and ``h_ij`` is contracted through the lowered unit normal ``G N`` (the
normalized adjugate covector) as
``txx_ij . GN + t_i^b (Gamma^a_bc (GN)_a) t_j^c``, without forming the
second partials ``sec_ij`` in ambient components.  Checks over the whole
batch stay batch wide: the blocks are reconciled in order, so the
orientation flip and the index of a degenerate point refer to the full
batch, and the result depends neither on the block size nor on the number
of workers.

The module also hosts the *independent* intrinsic-curvature oracle: Gauss
curvature by the Brioschi formula (n = 2) and the scalar curvature by direct
finite differencing of the induced metric (n = 3).  The oracle never touches
normals or second fundamental forms, so agreement with the frame values is a
genuine two-route check of the Gauss equation.  Its metric derivatives come
from a single pass over a stencil lattice around the evaluation points:
each lattice point is sampled once, added with its weights to every
derivative that uses it, and dropped.  Mixed second derivatives use the
8-point diagonal stencil ``_MIXED_TABLE``, so one pass takes 17 metric
samples for n = 2 and 49 for n = 3.  Like ``frame_at``, the oracle runs
the flattened batch in blocks of ``_BLOCK`` points through ``_block_map``;
it is pointwise, so the result depends neither on the block size nor on
the number of workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _smallmat
from .ambient import AmbientSpace, AxisSpec, BaseManifold, make_product
from .errors import DegenerateFrame, NotSpacelike

__all__ = [
    "ParamSurface",
    "GraphSurface",
    "GeometryFrame",
    "frame_at",
    "graph_theta",
    "graph_second_form",
    "normalize_params",
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

# Blocks of one batch in flight at a time: one per CPU this process may run
# on, capped so that the block temporaries held at once stay bounded.
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# Contraction path for three-operand einsums: two operands at a time,
# without einsum's path search.  The unoptimized default loops over every
# index at once.
_PAIRWISE = ["einsum_path", (0, 1), (0, 1)]

ORIENTATION_POLICIES = (
    "adjugate", "adjugate_neg", "future", "theta_nonpositive", "theta_nonnegative",
)


def default_orientation(ambient: AmbientSpace) -> str:
    """Orientation policy used when a surface does not pin one explicitly."""
    if ambient.signature == "lorentzian":
        return "future"
    if ambient.kind == "product":
        return "theta_nonpositive"
    return "adjugate"


@dataclass(eq=False)
class ParamSurface:
    """A parametrized hypersurface with an analytic 2-jet."""

    name: str
    ambient: AmbientSpace
    axes: tuple[AxisSpec, ...]
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    compact: bool = True
    quotient_factor: float = 1.0
    orientation: str = ""

    def __post_init__(self):
        if not self.orientation:
            self.orientation = default_orientation(self.ambient)
        if self.orientation not in ORIENTATION_POLICIES:
            raise ValueError(f"unknown orientation policy {self.orientation!r}")

    @property
    def dimension(self) -> int:
        return len(self.axes)


@dataclass(eq=False)
class GraphSurface:
    """The graph ``t = u(m)`` of a function over the base of a product.

    ``u``, ``du`` and ``d2u`` are array-aware callables returning the height,
    its chart partials ``(..., n)`` and its coordinate second partials
    ``(..., n, n)``.  ``d2u`` holds plain partial derivatives; covariant
    corrections happen downstream.  In a Lorentzian product the graph is
    checked to be spacelike (``|Du|^2 < 1``) wherever frames are computed.
    """

    name: str
    base: BaseManifold
    epsilon: int
    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    d2u: Callable[[np.ndarray], np.ndarray]
    orientation: str = ""
    radial_K: float | None = None   # K of a graphs.radial_graph profile

    def __post_init__(self):
        self.ambient = make_product(self.base, self.epsilon)
        self.axes = self.base.axes
        self.compact = self.base.compact
        self.quotient_factor = self.base.quotient_factor
        if not self.orientation:
            self.orientation = default_orientation(self.ambient)
        if self.orientation not in ORIENTATION_POLICIES:
            raise ValueError(f"unknown orientation policy {self.orientation!r}")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def jet(self, s: np.ndarray):
        s = np.asarray(s, dtype=float)
        n = self.base.dim
        batch = s.shape[:-1]
        x = np.concatenate([s, self.u(s)[..., None]], axis=-1)
        dx = np.zeros(batch + (n, n + 1))
        for i in range(n):
            dx[..., i, i] = 1.0
        dx[..., :, n] = self.du(s)
        ddx = np.zeros(batch + (n, n, n + 1))
        ddx[..., :, :, n] = self.d2u(s)
        return x, dx, ddx


@dataclass(eq=False)
class GeometryFrame:
    """Pointwise geometric data of a hypersurface (batched arrays)."""

    params: np.ndarray
    point: np.ndarray
    tangent: np.ndarray            # (..., n, d) coordinate tangent vectors
    metric: np.ndarray             # induced metric g_ij
    metric_inv: np.ndarray
    metric_det: np.ndarray
    normal: np.ndarray             # unit normal, oriented per policy
    normal_sign: int               # eps_N = <N, N>
    second_form: np.ndarray        # h_ij = <sec_ij, N>
    shape_operator: np.ndarray     # A^i_j = g^{ik} h_kj
    principal_curvatures: np.ndarray   # ascending, (..., n)
    mean_curvature: np.ndarray     # H = (eps_N / n) tr A
    pair_sum: np.ndarray           # sum_{i<j} k_i k_j
    scalar_curvature: np.ndarray   # S from the contracted Gauss equation
    ambient_scalar: np.ndarray     # Sbar at the point
    ricci_normal: np.ndarray       # Ric_bar(N, N)
    theta: np.ndarray | None       # <N, T> when Killing data exists
    tau: np.ndarray | None         # tangential part of T in surface coords
    height: np.ndarray | None      # product height coordinate of the point

    @property
    def dimension(self) -> int:
        return self.tangent.shape[-2]

    @property
    def gauss_curvature(self) -> np.ndarray:
        """Intrinsic Gauss curvature K = S / 2 (surfaces only)."""
        if self.dimension != 2:
            raise ValueError("gauss_curvature is defined for n = 2 only")
        return 0.5 * self.scalar_curvature


_pools: dict[int, ThreadPoolExecutor] = {}     # thread count -> pool
_pools_lock = threading.Lock()


def _pool(threads: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(
                threads, thread_name_prefix="prodsurf-block")
        return _pools[threads]


def _block_map(fn: Callable[[int], object], starts: Sequence[int]) -> Iterator:
    """``fn(start)`` for every block start, yielded in block order.

    Up to ``_WORKERS`` blocks run at a time: the caller's thread takes the
    first block of each group and a pool of ``_WORKERS - 1`` threads the
    others.  Every block of a group has finished before the first result of
    the group is yielded, so no block outlives a consumer that stops early.
    An exception is raised at the position of its block; those of later
    blocks in the same group are dropped.  A lone block runs inline, and the
    pool is created by the first batch of several blocks.
    """
    workers = _WORKERS
    if workers == 1 or len(starts) <= 1:
        for start in starts:
            yield fn(start)
        return
    pool = _pool(workers - 1)
    for first in range(0, len(starts), workers):
        group = starts[first:first + workers]
        futures = [pool.submit(fn, start) for start in group[1:]]
        try:
            head = fn(group[0])
        finally:
            wait(futures)
        yield head
        for future in futures:
            yield future.result()


def _uniform_sign(arr: np.ndarray, what: str) -> int:
    pos = bool(np.all(arr > 0.0))
    neg = bool(np.all(arr < 0.0))
    if pos:
        return +1
    if neg:
        return -1
    raise DegenerateFrame(f"{what} changes sign across the batch")


def frame_at(surface, s: np.ndarray) -> GeometryFrame:
    """Evaluate the full geometric frame of ``surface`` at parameters ``s``.

    ``s`` may carry arbitrary batch dimensions.  The flattened batch is
    evaluated in contiguous blocks of ``_BLOCK`` points, up to ``_WORKERS``
    blocks at a time (see ``_block_map``), each written into outputs of the
    full batch shape, so no intermediate grows with the batch; a batch
    smaller than one block is a single block on the caller's thread.  The
    blocks carry no state between them and are reconciled in block order,
    so the result depends neither on the block size nor on the number of
    workers.

    Raises ``NotSpacelike`` when a Lorentzian-ambient surface fails the
    spacelike test and ``DegenerateFrame`` when the tangent map loses rank
    or the normal direction becomes null, naming the first offending point
    by its index in the full batch; of several failing blocks, the first
    one's error is raised.  The orientation policies that read ``<N, T>``
    pick one flip for the whole batch and raise ``DegenerateFrame`` when the
    adjugate normal's ``<N, T>`` takes both strict signs, within a block or
    across blocks.
    """
    s = np.asarray(s, dtype=float)
    batch = s.shape[:-1]
    flat = s.reshape(-1, s.shape[-1])
    total = flat.shape[0]
    size = _BLOCK
    starts = range(0, max(total, 1), size)
    out: dict[str, np.ndarray | None] = {}

    def block(start: int, flip: int | None = None) -> tuple[dict, int | None]:
        return _frame_block(surface, flat[start:start + size], batch, start, flip)

    def store(start: int, fields: dict) -> None:
        for key, value in fields.items():
            if key not in out:
                out[key] = None if value is None else \
                    np.empty((total,) + value.shape[1:], dtype=value.dtype)
            if value is not None:
                out[key][start:start + size] = value

    flip = None
    undecided = []  # blocks whose <N, T> left the flip open; they used +1
    for start, (fields, chosen) in zip(starts, _block_map(block, starts)):
        store(start, fields)
        if chosen is None:
            undecided.append(start)
        elif flip is None:
            flip = chosen
        elif chosen != flip:
            raise _theta_sign_change(surface)
    if flip == -1 and undecided:
        for start, (fields, _) in zip(
                undecided, _block_map(lambda start: block(start, flip), undecided)):
            store(start, fields)

    return GeometryFrame(
        params=s, normal_sign=surface.ambient.epsilon,
        **{key: None if value is None else value.reshape(batch + value.shape[1:])
           for key, value in out.items()})


def _theta_sign_change(surface) -> DegenerateFrame:
    return DegenerateFrame(
        f"{surface.name}: <N, T> changes sign across the batch, so "
        f"orientation {surface.orientation!r} has no consistent normal")


def _frame_block(surface, s: np.ndarray, batch: tuple[int, ...], offset: int,
                 flip: int | None = None) -> tuple[dict, int | None]:
    """Frame fields of the block ``s`` (shape ``(m, n)``) of a flat batch.

    ``offset`` is the block's first row in the flattened ``batch``; error
    messages report points by their index in ``batch``.  Returns the fields
    keyed like ``GeometryFrame`` and the orientation flip the block chose,
    which is ``None`` when a ``<N, T>`` policy met ``<N, T> = 0`` on the
    whole block.  Such a block is oriented by ``flip`` when given, and by
    the adjugate normal otherwise.
    """
    ambient = surface.ambient
    n = s.shape[-1]
    x, tx, txx = surface.jet(s)
    G = ambient.metric_at(x)

    def where(bad: np.ndarray) -> tuple[int, ...]:
        return tuple(int(i) for i in
                     np.unravel_index(offset + int(np.argmax(bad)), batch))

    g = np.einsum("...ia,...ab,...jb->...ij", tx, G, tx, optimize=_PAIRWISE)
    # positive definiteness via leading principal minors, each measured
    # against the product of the squared Euclidean lengths of its tangents
    scale = np.cumprod(np.einsum("...ia,...ia->...i", tx, tx), axis=-1)
    for k in range(n):
        minor = g[..., 0, 0] if k == 0 else _smallmat.det(g[..., :k + 1, :k + 1])
        bad = ~(minor > _DEGENERACY_TOL * scale[..., k])
        if np.any(bad):
            at = where(bad)
            what = (f"(leading minor {k + 1} is {float(minor[bad][0]):.3e} "
                    f"at index {at})")
            if ambient.signature == "lorentzian":
                raise NotSpacelike(
                    f"{surface.name}: induced metric not positive definite {what}")
            raise DegenerateFrame(
                f"{surface.name}: tangent vectors degenerate {what}")
    detg = minor
    ginv = _smallmat.inv(g)

    # metric-adjugate normal: covector w annihilating the tangents; it is
    # the lowered form G Nraw of the normal vector Nraw = G^{-1} w
    w = _smallmat.generalized_cross(
        tx, np.sqrt(np.abs(ambient.metric_det_at(x))))
    Nraw = np.einsum("...ab,...b->...a", ambient.metric_inverse_at(x), w)
    nsq = np.einsum("...a,...a->...", w, Nraw)
    bad = ~(np.abs(nsq) > _DEGENERACY_TOL * np.einsum("...a,...a->...", w, w))
    if np.any(bad):
        raise DegenerateFrame(f"{surface.name}: null or vanishing normal "
                              f"direction at index {where(bad)}")
    eps = _uniform_sign(nsq, f"{surface.name}: <N, N>")
    if eps != ambient.epsilon:
        raise NotSpacelike(
            f"{surface.name}: normal has <N, N> = {eps}, expected "
            f"{ambient.epsilon} for this ambient")
    length = np.sqrt(np.abs(nsq))[..., None]
    N = Nraw / length

    killing = ambient.killing
    T = killing.field_at(x) if killing is not None else None
    GT = None if T is None else np.einsum("...ab,...b->...a", G, T)
    th_raw = None if T is None else np.einsum("...a,...a->...", N, GT)

    # orientation policy
    policy = surface.orientation
    if policy in ("adjugate", "adjugate_neg"):
        chosen = +1 if policy == "adjugate" else -1
    else:
        if T is None:
            raise DegenerateFrame(
                f"{surface.name}: orientation {policy!r} needs Killing data")
        if policy == "future" and np.any(th_raw == 0.0):
            raise DegenerateFrame(
                f"{surface.name}: normal orthogonal to the time orientation")
        # sign <N, T> must take; "future" asks for it strictly
        want = +1.0 if policy == "theta_nonnegative" else -1.0
        keep = bool(np.any(want * th_raw > 0.0))
        turn = bool(np.any(want * th_raw < 0.0))
        if keep and turn:
            raise _theta_sign_change(surface)
        chosen = -1 if turn else (+1 if keep else None)
    sign = chosen or flip or +1
    if sign < 0:
        N = -N
    Nlow = w * (sign / length)      # G N

    theta = tau = None
    if T is not None:
        theta = th_raw if sign > 0 else -th_raw
        tau = np.einsum("...ij,...j->...i", ginv,
                        np.einsum("...jb,...b->...j", tx, GT))

    # h_ij = <txx_ij + Gam(t_i, t_j), N>, contracted through the lowered normal
    GamN = np.einsum("...abc,...a->...bc", ambient.christoffel_at(x), Nlow)
    h = (np.einsum("...ija,...a->...ij", txx, Nlow)
         + np.einsum("...ib,...bc,...jc->...ij", tx, GamN, tx,
                     optimize=_PAIRWISE))
    A = ginv @ h
    trA = np.einsum("...ii->...", A)
    trA2 = np.einsum("...ij,...ji->...", A, A)
    e2 = 0.5 * (trA * trA - trA2)

    # principal curvatures from the symmetric pencil (h, g)
    if n == 2:
        # A is conjugate to a symmetric matrix, so its spectrum is real; the
        # discriminant tr^2 - 4 det is taken as (A00 - A11)^2 + 4 A01 A10,
        # which does not cancel at umbilic points
        trace = A[..., 0, 0] + A[..., 1, 1]
        split = A[..., 0, 0] - A[..., 1, 1]
        disc = np.sqrt(np.maximum(split * split
                                  + 4.0 * A[..., 0, 1] * A[..., 1, 0], 0.0))
        kap = np.stack([0.5 * (trace - disc), 0.5 * (trace + disc)], axis=-1)
    else:
        Linv = _smallmat.inv(np.linalg.cholesky(g))
        kap = np.linalg.eigvalsh(np.einsum("...ik,...kl,...jl->...ij",
                                           Linv, h, Linv, optimize=_PAIRWISE))

    Sbar = ambient.scalar_curvature(x)
    ricNN = ambient.ricci_quadratic(x, N)
    return dict(
        point=x,
        tangent=tx,
        metric=g,
        metric_inv=ginv,
        metric_det=detg,
        normal=N,
        second_form=h,
        shape_operator=A,
        principal_curvatures=kap,
        mean_curvature=(eps / n) * trA,
        pair_sum=e2,
        scalar_curvature=Sbar - 2.0 * eps * ricNN + 2.0 * eps * e2,
        ambient_scalar=Sbar,
        ricci_normal=ricNN,
        theta=theta,
        tau=tau,
        height=x[..., -1] if ambient.kind == "product" else None,
    ), chosen


# --------------------------------------------------------------------------
# closed-form graph quantities (an independent route to the frame, used
# in tests and by the graph curvature equation of prodsurf.graphs)
# --------------------------------------------------------------------------

def gradient_sq(base: BaseManifold, du: np.ndarray, s: np.ndarray
                ) -> np.ndarray:
    """``|Du|^2`` of a function on the base manifold, in the base metric."""
    ginv = base.metric_inverse_at(s)
    return np.einsum("...i,...ij,...j->...", du, ginv, du)


def graph_theta(graph: GraphSurface, s: np.ndarray) -> np.ndarray:
    """Normal angle function of a graph: ``theta = -1 / sqrt(1 + eps |Du|^2)``.

    Always strictly negative; in the Lorentzian case ``theta <= -1`` and the
    spacelike condition ``|Du|^2 < 1`` is enforced.
    """
    s = np.asarray(s, dtype=float)
    w = gradient_sq(graph.base, graph.du(s), s)
    arg = 1.0 + graph.epsilon * w
    if np.any(arg <= 0.0):
        raise NotSpacelike(
            f"{graph.name}: |Du|^2 reaches {float(np.max(w)):.6f}; "
            "the graph is not spacelike")
    return -1.0 / np.sqrt(arg)


def covariant_hessian(base: BaseManifold, du: np.ndarray, d2u: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """Covariant Hessian ``D^2 u`` of a function on the base manifold."""
    Gam = base.christoffel_at(s)
    return d2u - np.einsum("...kij,...k->...ij", Gam, du)


def graph_second_form(graph: GraphSurface, s: np.ndarray) -> np.ndarray:
    """Second fundamental form of a graph in an orthonormal base frame.

    Components are ``h(E_i, E_j) = -D^2 u(E_i, E_j) / sqrt(1 + eps |Du|^2)``
    for a ``g_M``-orthonormal frame ``E_i`` (built from the inverse Cholesky
    factor of the base metric), matching the frame route up to the frame
    change.
    """
    s = np.asarray(s, dtype=float)
    du = graph.du(s)
    arg = 1.0 + graph.epsilon * gradient_sq(graph.base, du, s)
    if np.any(arg <= 0.0):
        raise NotSpacelike(f"{graph.name}: graph is not spacelike")
    hess = covariant_hessian(graph.base, du, graph.d2u(s), s)
    gM = graph.base.metric_at(s)
    L = np.linalg.cholesky(gM)
    E = np.swapaxes(_smallmat.inv(L), -1, -2)      # columns: orthonormal frame
    framed = np.einsum("...ia,...ab,...bj->...ij", np.swapaxes(E, -1, -2), hess, E)
    return -framed / np.sqrt(arg)[..., None, None]


# --------------------------------------------------------------------------
# parameter folding and the intrinsic-curvature oracle
# --------------------------------------------------------------------------

def normalize_params(axes: tuple[AxisSpec, ...], s: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Fold parameters back into the chart and track direction signs.

    Periodic axes wrap; polar axes reflect through their endpoints, applying
    the partner shifts/reversals recorded on the axis.  The returned ``signs``
    array holds the diagonal Jacobian of the folding map, i.e. the sign each
    coordinate direction picks up; tensor components at the unfolded point
    equal the folded values times one sign per index.  Only single
    reflections are handled (ample for stencil-sized excursions).
    """
    s = np.array(np.asarray(s, dtype=float), copy=True)
    signs = np.ones_like(s)
    for a, ax in enumerate(axes):
        if not ax.polar:
            continue
        for edge, beyond in ((ax.lo, s[..., a] < ax.lo), (ax.hi, s[..., a] > ax.hi)):
            if not np.any(beyond):
                continue
            s[..., a] = np.where(beyond, 2.0 * edge - s[..., a], s[..., a])
            for p in ax.shift:
                s[..., p] = np.where(beyond, s[..., p] + 0.5 * axes[p].period,
                                     s[..., p])
            for r in ax.reverse:
                s[..., r] = np.where(beyond, axes[r].lo + axes[r].hi - s[..., r],
                                     s[..., r])
            flip_vec = np.ones(len(axes))
            flip_vec[list(ax.flip)] = -1.0
            signs = np.where(beyond[..., None], signs * flip_vec, signs)
    for a, ax in enumerate(axes):
        if ax.kind == "periodic":
            s[..., a] = ax.lo + np.mod(s[..., a] - ax.lo, ax.period)
    return s, signs


def induced_metric_sampler(surface) -> Callable[[np.ndarray], np.ndarray]:
    """Induced metric as a function of (possibly out-of-chart) parameters.

    Folding plus sign conjugation make the sampled components smooth across
    poles and periodic seams, which is what lets centered stencils run right
    up to (and beyond) the chart boundary.
    """
    def sample(s: np.ndarray) -> np.ndarray:
        s_in, signs = normalize_params(surface.axes, s)
        x, tx, _ = surface.jet(s_in)
        G = surface.ambient.metric_at(x)
        g = np.einsum("...ia,...ab,...jb->...ij", tx, G, tx,
                      optimize=_PAIRWISE)
        return g * signs[..., :, None] * signs[..., None, :]
    return sample


# High-order centered stencils, selectable by accuracy order.  Near chart
# poles 1/sin^2 factors in the inverse metric amplify truncation error by
# powers of the distance to the pole: second-order stencils stall under grid
# refinement, and at a double pole (two polar axes meeting, amplification
# ~ m^8 at resolution m) even fourth order grows like m.  Eighth-order
# stencils keep the pure-axis truncation decaying ~ m^-11, which beats the
# amplification everywhere on the grids used here.
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
# (two steps per axis), so pole and seam folding see the same excursions.
_MIXED_TABLE = (
    ((1, 1), (1, -1), (-1, 1), (-1, -1), (2, 2), (2, -2), (-2, 2), (-2, -2)),
    (16.0 / 48.0, -16.0 / 48.0, -16.0 / 48.0, 16.0 / 48.0,
     -1.0 / 48.0, 1.0 / 48.0, 1.0 / 48.0, -1.0 / 48.0),
)


def _metric_jet(g_at: Callable, s: np.ndarray, h: np.ndarray, pure_order: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metric and its first and second partials from one pass of samples.

    Returns ``(g, dg, ddg)`` with ``dg[..., a, i, j] = d_a g_ij`` and
    ``ddg[..., a, b, i, j] = d_a d_b g_ij``.  Pure-axis derivatives use the
    centered stencils of order ``pure_order``; mixed second derivatives use
    the fourth-order 8-point diagonal stencil ``_MIXED_TABLE``.  Every
    lattice point is sampled once and added, with its weight, to each
    derivative that uses it; only the centre sample is kept (it is ``g``).
    With the tables above that is ``1 + n * pure_order + 8 * n (n - 1) / 2``
    samples: 17 for n = 2 at order 4, 49 for n = 3 at order 8.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[-1]

    def sample(*offsets: tuple[int, int]) -> np.ndarray:
        off = np.zeros(n)
        for axis, mult in offsets:
            off[axis] += mult * h[axis]
        return g_at(s + off)

    g = sample()
    dg = np.zeros(g.shape[:-2] + (n, n, n))
    ddg = np.zeros(g.shape[:-2] + (n, n, n, n))
    d1 = dict(zip(*_D1_TABLES[pure_order]))
    for a in range(n):
        # the second-derivative offsets contain the first-derivative ones
        for m, w2 in zip(*_D2_TABLES[pure_order]):
            gm = g if m == 0 else sample((a, m))
            if m in d1:
                dg[..., a, :, :] += d1[m] * gm
            ddg[..., a, a, :, :] += w2 * gm
        dg[..., a, :, :] /= h[a]
        ddg[..., a, a, :, :] /= h[a] ** 2
    for a in range(n):
        for b in range(a + 1, n):
            cross = ddg[..., a, b, :, :]
            for (ma, mb), w in zip(*_MIXED_TABLE):
                cross += w * sample((a, ma), (b, mb))
            cross /= h[a] * h[b]
            ddg[..., b, a, :, :] = cross
    return g, dg, ddg


def _brioschi(g_at: Callable, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gauss curvature of a 2d metric by the Brioschi determinant formula."""
    g00, dg, ddg = _metric_jet(g_at, s, h, pure_order=4)
    du, dv = dg[..., 0, :, :], dg[..., 1, :, :]
    E, F, Gc = g00[..., 0, 0], g00[..., 0, 1], g00[..., 1, 1]
    E_u, F_u, G_u = du[..., 0, 0], du[..., 0, 1], du[..., 1, 1]
    E_v, F_v, G_v = dv[..., 0, 0], dv[..., 0, 1], dv[..., 1, 1]
    E_vv = ddg[..., 1, 1, 0, 0]
    G_uu = ddg[..., 0, 0, 1, 1]
    F_uv = ddg[..., 0, 1, 0, 1]

    batch = E.shape
    M1 = np.zeros(batch + (3, 3))
    M1[..., 0, 0] = -0.5 * E_vv + F_uv - 0.5 * G_uu
    M1[..., 0, 1] = 0.5 * E_u
    M1[..., 0, 2] = F_u - 0.5 * E_v
    M1[..., 1, 0] = F_v - 0.5 * G_u
    M1[..., 1, 1] = E
    M1[..., 1, 2] = F
    M1[..., 2, 0] = 0.5 * G_v
    M1[..., 2, 1] = F
    M1[..., 2, 2] = Gc
    M2 = np.zeros(batch + (3, 3))
    M2[..., 0, 1] = M2[..., 1, 0] = 0.5 * E_v
    M2[..., 0, 2] = M2[..., 2, 0] = 0.5 * G_u
    M2[..., 1, 1] = E
    M2[..., 1, 2] = M2[..., 2, 1] = F
    M2[..., 2, 2] = Gc
    denom = (E * Gc - F * F) ** 2
    return (_smallmat.det(M1) - _smallmat.det(M2)) / denom


def _fd_scalar_curvature(g_at: Callable, s: np.ndarray, h: np.ndarray
                         ) -> np.ndarray:
    """Scalar curvature of an n-dim metric by direct finite differencing.

    Pure-axis metric derivatives come from eighth-order centered stencils
    (needed where two polar axes meet, see the stencil tables above); mixed
    second derivatives, whose amplified truncation error stays benign, use
    the cheaper fourth-order 8-point diagonal stencil ``_MIXED_TABLE``.
    All of them are read from one pass of :func:`_metric_jet`, which
    samples each lattice point once: 1 centre + 8 per axis + 8 per axis
    pair, 49 samples for n = 3.  With the curvature sign convention of
    :mod:`prodsurf.ambient`,

        S = g^ac (d_b Gam^b_ac - d_a Gam^b_bc + Gam^e_ac Gam^b_be
                  - Gam^e_bc Gam^b_ae),

    assembled from the traces it needs in closed form, without the
    derivatives of every Christoffel symbol or the Riemann tensor:
    ``Gam^b_bc = g^bl d_c g_bl / 2`` and
    ``d_b Gam^b_ac = d_b g^bl [l, ac] + g^bl d_b [l, ac]`` with the
    Christoffel symbols of the first kind ``[l, ac]``.
    """
    g0, dg, ddg = _metric_jet(g_at, s, h, pure_order=8)
    ginv = _smallmat.inv(g0)
    # M[..., a, :, :] = g^-1 d_a g, so that d_a g^-1 = -M[..., a, :, :] g^-1
    M = ginv[..., None, :, :] @ dg
    # first kind [l, ac] = (d_a g_lc + d_c g_la - d_l g_ac) / 2, in [..., l, a, c]
    lowered = np.swapaxes(dg, -3, -2)
    first = 0.5 * (lowered + np.swapaxes(lowered, -1, -2) - dg)
    Gam = np.einsum("...kl,...lac->...kac", ginv, first)
    trace_gam = 0.5 * np.einsum("...cbb->...c", M)              # Gam^b_bc
    first_g = np.einsum("...lac,...ac->...l", first, ginv)      # g^ac [l, ac]
    div_ginv = -np.einsum("...bbn,...nl->...l", M, ginv)        # d_b g^bl
    # g^ac g^bl (d_b d_a g_lc - d_b d_l g_ac): the second partials of
    # g^ac g^bl d_b [l, ac] and of g^ac d_a Gam^b_bc, in one sum
    ddg_g = (np.einsum("...balc,...ac->...bl", ddg, ginv)
             - np.einsum("...blac,...ac->...bl", ddg, ginv))
    MM = np.einsum("...aij,...cji->...ac", M, M)    # tr(M_a M_c)
    return (np.einsum("...l,...l->...", div_ginv, first_g)
            + np.einsum("...bl,...bl->...", ddg_g, ginv)
            + 0.5 * np.einsum("...ac,...ac->...", MM, ginv)
            + np.einsum("...el,...l,...e->...", ginv, first_g, trace_gam,
                        optimize=_PAIRWISE)
            - np.einsum("...bae,...ac,...ebc->...", Gam, ginv, Gam,
                        optimize=_PAIRWISE))


def intrinsic_curvature_oracle(surface, s: np.ndarray,
                               step: float | np.ndarray = 1e-3) -> np.ndarray:
    """Intrinsic curvature from metric samples alone.

    Returns the Gauss curvature for n = 2 (Brioschi formula, 17 metric
    samples per point) and the scalar curvature for n = 3 (49 samples per
    point).  ``step`` is the finite-difference step, a scalar or one value
    per parameter axis.  The sampler is built once; the flattened batch is
    then evaluated in contiguous blocks of ``_BLOCK`` points, up to
    ``_WORKERS`` blocks at a time (see ``_block_map``), each block writing
    its own slice of one output, so the metric samples held at a time do not
    grow with the batch.  The oracle is pointwise, so the result depends
    neither on the block size nor on the number of workers.
    """
    s = np.asarray(s, dtype=float)
    n = surface.dimension
    if n not in (2, 3):
        raise ValueError(f"oracle supports n = 2 or 3, got {n}")
    curvature = _brioschi if n == 2 else _fd_scalar_curvature
    h = np.broadcast_to(np.asarray(step, dtype=float), (n,)).astype(float)
    g_at = induced_metric_sampler(surface)
    flat = s.reshape(-1, s.shape[-1])
    out = np.empty(flat.shape[0])
    size = _BLOCK

    def block(start: int) -> None:
        rows = slice(start, start + size)
        out[rows] = curvature(g_at, flat[rows], h)

    for _ in _block_map(block, range(0, flat.shape[0], size)):
        pass
    return out.reshape(s.shape[:-1])
