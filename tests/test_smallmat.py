"""Batched small-matrix helpers: Lagrange derivative weights, determinants,
inverses and the generalized cross product."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsurf._smallmat import (det, generalized_cross, inv,
                                lagrange_derivative_weights)


@st.composite
def stencils(draw):
    """(xs, x0): rows of k distinct ascending nodes and one point per row.

    Nodes are at least 0.2 apart inside [-4, 4]; ``x0`` is a node of its
    row (as in the grid stencils) or any point of the row's span.
    """
    k = draw(st.integers(min_value=2, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=5))
    gap = st.floats(min_value=0.2, max_value=1.0)
    xs = np.empty((rows, k))
    x0 = np.empty(rows)
    for r in range(rows):
        start = draw(st.floats(min_value=-4.0, max_value=-1.0))
        xs[r] = start + np.cumsum([0.0] + [draw(gap) for _ in range(k - 1)])
        if draw(st.booleans()):
            x0[r] = xs[r, draw(st.integers(min_value=0, max_value=k - 1))]
        else:
            x0[r] = draw(st.floats(min_value=xs[r, 0], max_value=xs[r, -1]))
    return xs, x0


@settings(max_examples=80, deadline=None)
@given(stencils())
def test_batched_weights_equal_row_by_row(stencil):
    xs, x0 = stencil
    batched = lagrange_derivative_weights(xs, x0)
    assert batched.shape == xs.shape
    for r in range(len(xs)):
        assert np.array_equal(batched[r], lagrange_derivative_weights(xs[r], x0[r]))


@settings(max_examples=80, deadline=None)
@given(stencils(), st.data())
def test_weights_differentiate_polynomials_below_degree_k_exactly(stencil, data):
    xs, x0 = stencil
    k = xs.shape[-1]
    coeffs = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=k, max_size=k)))
    p = np.polynomial.Polynomial(coeffs)       # degree k - 1
    w = lagrange_derivative_weights(xs, x0)
    terms = w * p(xs)
    exact = p.deriv()(x0)
    scale = np.abs(terms).sum(axis=-1) + np.abs(exact)
    assert np.all(np.abs(terms.sum(axis=-1) - exact) <= 1e-9 * np.maximum(scale, 1.0))


# Closed forms against LAPACK on well-conditioned batches: rounding of
# either route stays within a few hundred ulps of the natural scale.
RTOL = 256 * np.finfo(float).eps


@st.composite
def dominant_batches(draw, k):
    """Batches of strictly diagonally dominant k x k matrices, scaled by 10^e.

    Off-diagonal entries lie in [-1, 1] and the diagonal has magnitude in
    [k, k + 1], so the condition number stays below 4k + 2 at every scale.
    """
    rows = draw(st.integers(min_value=1, max_value=6))
    entries = st.floats(min_value=-1.0, max_value=1.0)
    m = np.array(draw(st.lists(entries, min_size=rows * k * k,
                               max_size=rows * k * k))).reshape(rows, k, k)
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                  min_size=rows * k, max_size=rows * k)))
    m[:, np.arange(k), np.arange(k)] = sign.reshape(rows, k) * (
        k + np.abs(m[:, np.arange(k), np.arange(k)]))
    return m * 10.0 ** draw(st.integers(min_value=-6, max_value=6))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(dominant_batches))
def test_det_and_inv_match_linalg(m):
    # Hadamard's bound, the product of the row norms, scales the determinant
    hadamard = np.prod(np.linalg.norm(m, axis=-1), axis=-1)
    assert np.all(np.abs(det(m) - np.linalg.det(m)) <= RTOL * hadamard)
    ref = np.linalg.inv(m)
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(inv(m) - ref) <= RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=4).flatmap(
    lambda d: dominant_batches(d)))
def test_generalized_cross_is_the_bordered_determinant(square):
    # w_a = det([e_a; t_1; ..; t_n]): border the tangents with e_a
    tangents = square[:, 1:, :]
    d = square.shape[-1]
    w = generalized_cross(tangents)
    bordered = np.repeat(square[:, None, :, :], d, axis=1)
    bordered[:, :, 0, :] = np.eye(d)
    ref = np.linalg.det(bordered)
    hadamard = np.prod(np.linalg.norm(tangents, axis=-1), axis=-1)
    assert np.all(np.abs(w - ref) <= RTOL * hadamard[:, None])


def _adjugate_inverse(m):
    # the route inv took before its 3 x 3 planes: every signed cofactor
    # into one adjugate array, then one broadcast division by det
    k = m.shape[-1]
    adj = np.empty_like(m)
    for i in range(k):
        for j in range(k):
            r = [a for a in range(k) if a != j]
            c = [a for a in range(k) if a != i]
            minor = det(m[..., r, :][..., c]) if k > 1 else 1.0
            adj[..., i, j] = ((-1) ** (i + j)) * minor
    return np.divide(adj, det(m)[..., None, None])


def _assert_inverse_bytes(m):
    ref = _adjugate_inverse(m)
    assert inv(m).tobytes() == ref.tobytes()
    out = np.full(m.shape, np.nan)
    assert inv(m, out=out) is out
    assert out.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(dominant_batches))
def test_inv_keeps_the_adjugate_bytes(m):
    _assert_inverse_bytes(m)
    _assert_inverse_bytes(np.swapaxes(m, -2, -1))      # strided input


def test_inv_keeps_the_adjugate_bytes_on_signed_zeros_and_singular_blocks():
    # cancelling cofactors give signed zeros, whose sign the division keeps
    m = np.tile(np.eye(3), (4, 1, 1))
    m[1, 0, 1] = -0.0
    m[2, 1, 2] = m[2, 2, 1] = 1.0
    m[3] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in (1, 2, 3):
            _assert_inverse_bytes(np.ascontiguousarray(m[..., :k, :k]))
        _assert_inverse_bytes(m[0])                      # one unbatched block
