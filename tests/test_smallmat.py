"""Batched small-matrix helpers: Lagrange derivative weights."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsurf._smallmat import lagrange_derivative_weights


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
