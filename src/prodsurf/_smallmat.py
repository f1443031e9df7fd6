"""Batched helpers for the tiny (2x2 .. 4x4) matrices this package lives on.

Everything here accepts arrays with arbitrary leading batch dimensions and a
trailing matrix block, and is written with explicit cofactor formulas rather
than ``np.linalg`` calls: the matrices are small, the batches are large, and
the closed forms are both faster and easier to audit.
"""

from __future__ import annotations

import numpy as np


def det(m: np.ndarray) -> np.ndarray:
    """Determinant of a batch of k x k matrices (k = 1, 2 or 3)."""
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, 0]
    if k == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if k == 3:
        return (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    raise ValueError(f"det: unsupported block size {k}")


def inv(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a batch of k x k matrices (k = 1, 2 or 3) via adjugates.

    The quotient is written into ``out`` when it is given.
    """
    k = m.shape[-1]
    if k == 3:
        return _inv3(m, out)
    d = det(m)
    adj = np.empty_like(m)
    if k == 1:
        adj[..., 0, 0] = 1.0
    elif k == 2:
        adj[..., 0, 0] = m[..., 1, 1]
        adj[..., 0, 1] = -m[..., 0, 1]
        adj[..., 1, 0] = -m[..., 1, 0]
        adj[..., 1, 1] = m[..., 0, 0]
    else:
        raise ValueError(f"inv: unsupported block size {k}")
    return np.divide(adj, d[..., None, None], out=out)


def _inv3(m: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """3 x 3 inverse from contiguous component planes ``p[a, b] = m[..., a, b]``.

    Each minor is a 2 x 2 determinant in :func:`det`'s product order, and
    the first column's three are the minors of :func:`det`'s expansion, so
    the determinant is :func:`det`'s bit for bit.  Each cofactor is divided
    straight into its slot of ``out``; one with ``i + j`` odd divides by
    ``-det``, which rounds as negating the minor first does.
    """
    p = np.moveaxis(m, (-2, -1), (0, 1)).copy()
    if out is None:
        out = np.empty(m.shape)

    def minor(i: int, j: int) -> np.ndarray:
        r0, r1 = (a for a in range(3) if a != j)
        c0, c1 = (a for a in range(3) if a != i)
        return p[r0, c0] * p[r1, c1] - p[r0, c1] * p[r1, c0]

    first = [minor(i, 0) for i in range(3)]
    d = p[0, 0] * first[0] - p[0, 1] * first[1] + p[0, 2] * first[2]
    signed = (d, -d)
    for i in range(3):
        for j in range(3):
            cof = first[i] if j == 0 else minor(i, j)
            np.divide(cof, signed[(i + j) % 2], out=out[..., i, j])
    return out


def generalized_cross(tangents: np.ndarray) -> np.ndarray:
    """Raw-index normal covector of a batch of tangent frames.

    ``tangents`` has shape (..., n, d) with d = n + 1; the result w has shape
    (..., d) with components ``w_a = eps_{a b1 .. bn} t1^{b1} .. tn^{bn}``
    (the Levi-Civita alternation of the tangent rows).  w annihilates every
    tangent row, so for any metric G the vector ``G^{-1} w`` is a (possibly
    non-unit) normal vector.  Graphs form their covector themselves; the
    d = 4 branch stays because a ``ParamSurface`` may have n = 3, and the
    padded twins of the n = 3 graphs in ``tests/reference_routes.py`` are
    the reference route for their frames.
    """
    n, d = tangents.shape[-2:]
    if d != n + 1:
        raise ValueError("generalized_cross needs one more column than rows")
    if d == 3:
        w = np.cross(tangents[..., 0, :], tangents[..., 1, :])
    elif d == 4:
        w = np.empty(tangents.shape[:-2] + (4,), dtype=tangents.dtype)
        for a in range(4):
            cols = [c for c in range(4) if c != a]
            w[..., a] = ((-1) ** a) * det(tangents[..., :, cols])
    else:
        raise ValueError(f"generalized_cross: unsupported ambient dimension {d}")
    return w


def lagrange_derivative_weights(xs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """First-derivative weights of Lagrange interpolation through ``xs`` at ``x0``.

    ``xs`` has shape (..., k); the result w has shape (..., k) with
    ``f'(x0) ~= sum_j w_j f(xs_j)`` exact for polynomials of degree < k.
    """
    xs = np.asarray(xs, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    k = xs.shape[-1]
    w = np.zeros_like(xs)
    for j in range(k):
        # L_j'(x0) = sum_{m != j} prod_{l != j,m} (x0 - x_l) / prod_{l != j} (x_j - x_l)
        denom = np.ones_like(x0)
        for l in range(k):
            if l != j:
                denom = denom * (xs[..., j] - xs[..., l])
        num = np.zeros_like(x0)
        for m in range(k):
            if m == j:
                continue
            term = np.ones_like(x0)
            for l in range(k):
                if l != j and l != m:
                    term = term * (x0 - xs[..., l])
            num = num + term
        w[..., j] = num / denom
    return w
