"""Collar-relative cochains: the coboundary and the per-degree caches."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetop.cochains import RelativeComplex
from coarsetop.metric import FiniteMetricSpace
from coarsetop.rips import build_rips

from oracles import dense_rank_gf2, relative_coboundary_by_definition


@st.composite
def relative_cases(draw):
    """(complex, interior mask): a random graph, vertex mask and interior mask on at most 10 points."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    X = FiniteMetricSpace.from_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    V = X.mask(v for v in range(n) if rng.random() < 0.8)
    interior = X.mask(v for v in range(n) if rng.random() < 0.6)
    return build_rips(X, V, draw(st.integers(1, 2)), draw(st.integers(1, 3))), interior


@settings(max_examples=60, deadline=None)
@given(relative_cases())
def test_delta_is_the_relative_coboundary_by_definition(case):
    K, interior = case
    R = RelativeComplex(K, interior)
    for k in range(K.cap):
        d = R.delta(k)
        assert (d.rows, d.cols) == (R.n_rel(k + 1), R.n_rel(k))
        assert d.columns == relative_coboundary_by_definition(K, interior.ids, k)


@settings(max_examples=40, deadline=None)
@given(relative_cases())
def test_cohomology_dim_reads_the_cached_bases(case):
    K, interior = case
    R = RelativeComplex(K, interior)
    for k in range(K.cap + 1):
        basis = R.cocycle_basis(k)
        assert R.cocycle_basis(k) is basis
        if k == K.cap:
            assert basis == [1 << t for t in range(R.n_rel(k))]
        assert all(R.is_cocycle(k, z) for z in basis)
        zdim = R.n_rel(k) - (dense_rank_gf2(R.delta(k).to_rows()) if k < K.cap else 0)
        bdim = dense_rank_gf2(R.delta(k - 1).to_rows()) if k else 0
        assert len(basis) == zdim
        assert R.cohomology_dim(k) == zdim - bdim
