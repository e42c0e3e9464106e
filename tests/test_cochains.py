"""Collar-relative cochains: the coboundary and the per-degree caches."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetop.cochains import RelativeComplex
from coarsetop.groups import FreeAbelian, build_ball
from coarsetop.metric import SubsetMask
from coarsetop.rips import build_rips

from oracles import dense_rank_gf2, from_graph, relative_coboundary_by_definition, to_rows


@st.composite
def relative_cases(draw):
    """(complex, interior mask): a random graph, vertex mask and interior mask on at most 10 points."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    X = from_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    V = SubsetMask(X.n, (v for v in range(n) if rng.random() < 0.8))
    interior = SubsetMask(X.n, (v for v in range(n) if rng.random() < 0.6))
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
        zdim = R.n_rel(k) - (dense_rank_gf2(to_rows(R.delta(k))) if k < K.cap else 0)
        bdim = dense_rank_gf2(to_rows(R.delta(k - 1))) if k else 0
        assert len(basis) == zdim
        assert R.cohomology_dim(k) == zdim - bdim


def test_degree_minus_one_is_the_zero_group():
    # C^{-1}_rel = 0: delta^{-1} is the n_rel(0) x 0 matrix and im delta^{-1} = 0,
    # so a degree-0 cochain is its only representative: kept when the mask
    # holds its support, else None
    X = build_ball(FreeAbelian(2), 4).space
    R = RelativeComplex(build_rips(X, X.full_mask(), 2, 2), X.interior_mask(2))
    d = R.delta(-1)
    assert (d.rows, d.cols, d.columns) == (R.n_rel(0), 0, [])
    assert R.coboundary_space(0).dim == 0
    allowed = X.mask_where(lambda g: g[0] >= 0)
    inside = sum(1 << t for t in R.simplex_positions_within(0, allowed))
    full = (1 << R.n_rel(0)) - 1
    assert 0 < inside < full
    for vec in (0, inside, inside & -inside, full, random.Random(0).getrandbits(R.n_rel(0))):
        assert R.representative_within(0, vec, allowed) == (vec if vec & ~inside == 0 else None)
