"""Coarse boundaries, complementary components, relative ends, extraction."""

import pytest

from coarsetop.fixtures import lattice_region
from coarsetop.groups import FreeAbelian, FreeGroup, Lamplighter, amalgam_z2_z_z2, build_ball, subgroup_trace
from coarsetop.metric import FiniteMetricSpace, SubsetMask, neighborhood
from coarsetop.rips import build_rips
from coarsetop.separation import (
    almost_invariant_extract,
    coarse_boundary,
    coarse_n_separation,
    complement_components,
    invariant_components,
    is_coarse_complementary,
    shallow_bound_check,
    simplex_dichotomy_check,
    stabilizer_trace,
)

from oracles import flood_fill_components, nbhd_containment_check, partition_ok


def first_non_a(word):
    for x in word:
        if abs(x) != 1:
            return x
    return 0


def test_coarse_boundary_line(z_ball_12):
    X = z_ball_12.space
    pos = X.mask_where(lambda g: g[0] >= 1)
    b = coarse_boundary(X, pos, 1)
    assert sorted(X.labels[i] for i in b.ids) == [(0,)]
    evens = X.mask_where(lambda g: g[0] % 2 == 0)
    b2 = coarse_boundary(X, evens, 1)
    assert b2 == X.mask_where(lambda g: g[0] % 2 == 1)


def test_coarse_boundary_halfplane(z2_ball_10):
    X = z2_ball_10.space
    upper = X.mask_where(lambda p: p[1] >= 1)
    b = coarse_boundary(X, upper, 2)
    assert b == X.mask_where(lambda p: p[1] in (-1, 0))


def test_is_coarse_complementary_examples(z_ball_12, z2_ball_10):
    Xl = z_ball_12.space
    origin = Xl.mask_where(lambda g: g[0] == 0)
    pos = Xl.mask_where(lambda g: g[0] >= 1)
    evens = Xl.mask_where(lambda g: g[0] % 2 == 0)
    assert is_coarse_complementary(Xl, neighborhood(Xl, origin, 0), pos, 1)
    assert not is_coarse_complementary(Xl, neighborhood(Xl, origin, 0), evens, 1)
    Xp = z2_ball_10.space
    axis = Xp.mask_where(lambda p: p[1] == 0)
    upper = Xp.mask_where(lambda p: p[1] >= 1)
    assert is_coarse_complementary(Xp, neighborhood(Xp, axis, 0), upper, 1)


def test_components_axis_in_plane(z2_ball_12):
    X = z2_ball_12.space
    axis = X.mask_where(lambda p: p[1] == 0)
    cs = complement_components(X, axis, 1, 2)
    assert len(cs.deep_components()) == 2
    assert partition_ok(cs)
    # brute-force flood fill cross-check
    off = (X.full_mask() - neighborhood(X, axis, 2)).sorted_ids()
    adj = X.adjacency_at_scale(1)
    assert len(flood_fill_components(off, lambda v: adj[v])) == len(cs.components)


def test_components_point_in_plane(z2_ball_12):
    X = z2_ball_12.space
    pt = SubsetMask(X.n, [0])
    cs = complement_components(X, pt, 1, 0)
    assert len(cs.deep_components()) == 1


def test_components_f2_axis_growing(f2_ball_6):
    X = f2_ball_6.space
    axis = subgroup_trace(f2_ball_6, {"cyclic": "a"})
    cs = complement_components(X, axis, 1, 0, collar=1)
    deep = cs.deep_components()
    assert len(deep) >= 3
    smaller = build_ball(FreeGroup(2), 4)
    ax_small = subgroup_trace(smaller, {"cyclic": "a"})
    cs_small = complement_components(smaller.space, ax_small, 1, 0, collar=1)
    assert len(cs.deep_components()) > len(cs_small.deep_components())


def test_deep_labels_monotone_across_windows():
    # a component labeled deep never becomes shallow at a larger window
    for R1, R2 in ((8, 10), (10, 12)):
        b1 = build_ball(FreeAbelian(2), R1)
        b2 = build_ball(FreeAbelian(2), R2)
        a1 = b1.space.mask_where(lambda p: p[1] == 0)
        a2 = b2.space.mask_where(lambda p: p[1] == 0)
        c1 = complement_components(b1.space, a1, 1, 1)
        c2 = complement_components(b2.space, a2, 1, 1)
        for comp in c1.deep_components():
            seed = b1.elements[min(comp.mask.ids)]
            target = next(
                c for c in c2.components if b2.index[seed] in c.mask.ids
            )
            assert target.deep


def test_nbhd_containment_of_components(z2_ball_12):
    X = z2_ball_12.space
    axis = X.mask_where(lambda p: p[1] == 0)
    cs = complement_components(X, axis, 1, 1)
    for comp in cs.components:
        assert nbhd_containment_check(X, axis, comp.mask, 1, 1, [1, 2, 3])


def test_simplex_dichotomy(z2_ball_10):
    X = z2_ball_10.space
    axis = X.mask_where(lambda p: p[1] == 0)
    upper = X.mask_where(lambda p: p[1] >= 1)
    nA = neighborhood(X, axis, 1)
    K = build_rips(X, X.full_mask(), 2, 2)
    assert simplex_dichotomy_check(K, nA, upper)


def test_separation_report_trends():
    comps = []
    for R in (8, 10, 12):
        ball = build_ball(FreeAbelian(2), R)
        axis = ball.space.mask_where(lambda p: p[1] == 0)
        comps.append(complement_components(ball.space, axis, 1, 0))
    rep = coarse_n_separation(comps)
    assert [w.n_deep for w in rep.windows] == [2, 2, 2]
    assert rep.verdict == "stable"
    # e <= e~ holds when invariant counts supplied
    rep2 = coarse_n_separation(comps, [2, 2, 2])
    assert all(w.e_lower <= w.e_tilde_lower for w in rep2.windows)


def test_invariant_components_plane(z2_ball_12):
    ball = z2_ball_12
    axis = subgroup_trace(ball, {"cyclic": (1, 0)})
    cs = complement_components(ball.space, axis, 1, 0)
    verdicts, e = invariant_components(ball, [(1, 0)], cs)
    assert all(v == "invariant" for v in verdicts)
    assert e == 2


def test_invariant_components_tree(f2_ball_6):
    ball = f2_ball_6
    axis = subgroup_trace(ball, {"cyclic": "a"})
    cs = complement_components(ball.space, axis, 1, 0, collar=1)
    verdicts, e = invariant_components(ball, [(1,)], cs)
    assert "not" in verdicts  # single subtrees shift along the axis
    assert e == 2  # the two letter-sides are the H-invariant unions


def test_amalgam_edge_axis_four_separates():
    # the shared axis of two planes glued along a line leaves four deep
    # invariant components (one per free-part letter side), so the edge
    # subgroup coarsely 4-separates the amalgam
    from coarsetop.groups import amalgam_z2_z_z2

    model = amalgam_z2_z_z2()
    ball = build_ball(model, 6, max_vertices=500_000)
    yaxis = subgroup_trace(ball, {"cyclic": "y"})
    cs = complement_components(ball.space, yaxis, 1, 0, collar=1)
    assert len(cs.deep_components()) == 4
    gens = dict(model.generators())
    verdicts, e = invariant_components(ball, [gens["y"]], cs)
    assert all(v == "invariant" for v in verdicts)
    assert e == 4


def test_stabilizer_trace_plane(z2_ball_10):
    ball = z2_ball_10
    axis = subgroup_trace(ball, {"cyclic": (1, 0)})
    upper = ball.space.mask_where(lambda p: p[1] >= 1)
    trace, rep = stabilizer_trace(ball, axis, upper, 0)
    assert trace == axis
    assert rep["hausdorff_to_H"] == 0


def test_stabilizer_trace_tree(f2_ball_6):
    ball = f2_ball_6
    axis = subgroup_trace(ball, {"cyclic": "a"})
    bsub = ball.space.mask_where(lambda g: bool(g) and g[0] == 2)
    trace, rep = stabilizer_trace(ball, axis, bsub, 0)
    # only elements near the identity (plus window-edge vacuities) survive
    assert not rep["close_to_H"]
    assert ball.index[()] in trace.ids
    inv_union = ball.space.mask_where(lambda g: first_non_a(g) == 2)
    trace2, rep2 = stabilizer_trace(ball, axis, inv_union, 0)
    assert trace2 == axis
    assert rep2["hausdorff_to_H"] == 0


def test_almost_invariant_plane(z2_ball_10):
    ball = z2_ball_10
    axis = subgroup_trace(ball, {"cyclic": (1, 0)})
    upper = ball.space.mask_where(lambda p: p[1] >= 1)
    xhat, rep = almost_invariant_extract(ball, axis, upper, 0)
    assert xhat == ball.space.mask_where(lambda p: p[1] >= 0)
    assert rep["verdict"] == "ok"


def test_almost_invariant_tree(f2_ball_6):
    ball = f2_ball_6
    axis = subgroup_trace(ball, {"cyclic": "a"})
    bsub = ball.space.mask_where(lambda g: bool(g) and g[0] == 2)
    xhat, rep = almost_invariant_extract(ball, axis, bsub, 0)
    assert rep["verdict"] == "ok"
    assert (xhat - axis) == bsub  # agrees with C outside N_0(H)


def test_almost_invariant_shallow_rejected(z2_ball_10):
    ball = z2_ball_10
    axis = subgroup_trace(ball, {"cyclic": (1, 0)})
    shallow = ball.space.mask_where(lambda p: p[1] == 1)
    xhat, rep = almost_invariant_extract(ball, axis, shallow, 0)
    assert rep["verdict"] == "not-proper"


def test_shallow_bound_no_shallow(z2_ball_12, f2_ball_6):
    axis = z2_ball_12.space.mask_where(lambda p: p[1] == 0)
    out = shallow_bound_check(z2_ball_12.space, axis, 1, 2, range(0, 8))
    assert out["R"] == 2 and out["shallow_components"] == 0
    a_axis = subgroup_trace(f2_ball_6, {"cyclic": "a"})
    out2 = shallow_bound_check(f2_ball_6.space, a_axis, 1, 0, range(0, 8), collar=4)
    assert out2["shallow_components"] >= 0  # collar choice may flag rim subtrees


def test_shallow_bound_pocket_fixture():
    # half-plane wall with a slit pocket of depth 3 next to W
    pts = []
    for x in range(-10, 11):
        for y in range(0, 8):
            pts.append((x, y))
    # wall at y in 1..4 except a one-column slit at x=0 of depth 3 (y=1..3)
    region = [
        p
        for p in pts
        if p[1] == 0
        or p[1] >= 5
        or (p[0] == 0 and 1 <= p[1] <= 3)
    ]
    X = lattice_region(region, 10)
    W = X.mask_where(lambda p: p[1] == 0)
    out = shallow_bound_check(X, W, 1, 0, range(0, 8))
    assert out["shallow_components"] == 1
    assert out["R"] == 3


def test_w_neighbourhoods_on_a_word_metric_ball_compute_no_rows():
    # N_A(W) and the depth tests of a lamplighter ball read one bounded field
    # each, by translating B_{A+collar}(e), so no distance row is computed
    ball = build_ball(Lamplighter(), 7)
    X = ball.space
    W = subgroup_trace(ball, {"cyclic": "t"})
    assert len(neighborhood(X, W, 2)) > len(W)
    cs = complement_components(X, W, 1, 1, collar=2)
    assert cs.deep_components() and cs.shallow_components()
    _, rep = almost_invariant_extract(ball, W, cs.deep_components()[0].mask, 1)
    assert rep["window_radius"] == 7
    assert not X._row_cache


@pytest.mark.parametrize(
    "family,R,spec",
    [(Lamplighter(), 7, {"cyclic": "t"}), (amalgam_z2_z_z2(), 5, {"factor": 1})],
    ids=["lamplighter-t", "amalgam-axis"],
)
def test_deep_and_shallow_labels_match_the_full_field(family, R, spec, monkeypatch):
    # labels by definition: N_A(W) = {d(x, W) <= A}; deep = touches the collar
    # and some point lies farther than A + collar from W
    ball = build_ball(family, R)
    X = ball.space
    W = subgroup_trace(ball, spec)
    full = [min(X.dist(x, w) for w in W.ids) for x in range(X.n)]
    extracted = []
    for r, A, collar in ((1, 0, 2), (1, 1, 2), (2, 1, 1), (1, 2, 0), (1, 1, R)):
        cs = complement_components(X, W, r, A, collar=collar)
        assert cs.nA == SubsetMask(X.n, (x for x in range(X.n) if full[x] <= A))
        assert partition_ok(cs)
        for c in cs.components:
            touches = any(X.radial[u] > R - collar for u in c.mask.ids)
            assert c.touches_collar == touches
            assert c.deep == (touches and max(full[u] for u in c.mask.ids) > A + collar)
        depth = shallow_bound_check(X, W, r, A, range(2 * R + 1), collar=collar)
        shallow = [u for c in cs.shallow_components() for u in c.mask.ids]
        assert depth.get("max_depth", A) == max((full[u] for u in shallow), default=A)
        C = (cs.deep_components() or cs.components)[0].mask
        extracted.append((C, A, almost_invariant_extract(ball, W, C, A)))
    # the extraction's N_A(H) and depth test (iii) also agree with full fields
    unbounded = FiniteMetricSpace.dist_to_set
    monkeypatch.setattr(FiniteMetricSpace, "dist_to_set", lambda self, ids, limit=None: unbounded(self, ids))
    for C, A, result in extracted:
        assert almost_invariant_extract(ball, W, C, A) == result
