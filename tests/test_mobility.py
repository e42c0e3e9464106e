"""Mobility sets, stabilizer traces, the coarse n-manifold detector."""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TableSpace, class_is_zero_afresh, compacted_representative_within, table_transport, x_piece

from coarsetop import gf2
from coarsetop import mobility as mobility_mod
from coarsetop.cli import run_scenario
from coarsetop.cochains import RelativeComplex
from coarsetop.errors import CollarViolationError
from coarsetop.essential import connecting_map, mv_assemble
from coarsetop.fixtures import crossing_cochain, grid_fixture
from coarsetop.groups import BallModel, FreeAbelian, FreeGroup, Lamplighter, build_ball
from coarsetop.metric import SubsetMask, hausdorff_distance

from coarsetop.mobility import (
    Cocycle,
    coarse_manifold_detector,
    local_representability,
    mobility_set,
    mobset_replay,
    stab_mob_comparison,
    stab_trace,
    _collar_safe_centers,
    transport_cocycle,
)
from coarsetop.rips import build_rips


@pytest.fixture(scope="module")
def z_setup(z_ball_12):
    X = z_ball_12.space
    K = build_rips(X, X.full_mask(), 1, 2)
    R = RelativeComplex(K, X.interior_mask(2))
    a0 = Cocycle(R, 1, R.cochain_from_edge_predicate(crossing_cochain(X, 0, 0)))
    return z_ball_12, R, a0


@pytest.fixture(scope="module")
def f2_setup(f2_ball_6):
    ball = f2_ball_6
    X = ball.space
    K = build_rips(X, X.full_mask(), 1, 2)
    R = RelativeComplex(K, X.interior_mask(1))
    edge = tuple(sorted((ball.index[()], ball.index[(1,)])))
    vec = 1 << R.rel_pos[1][K.index[1][edge]]
    return ball, R, Cocycle(R, 1, vec)


@pytest.fixture(scope="module")
def z2_setup(z2_ball_10):
    ball = z2_ball_10
    X = ball.space
    K = build_rips(X, X.full_mask(), 2, 3)
    R = RelativeComplex(K, X.interior_mask(2))
    vec = R.cochain_from_cup_product(crossing_cochain(X, 0, 0), crossing_cochain(X, 1, 0))
    return ball, R, Cocycle(R, 2, vec)


def test_z_crossing_local_representability(z_setup):
    ball, R, a0 = z_setup
    a0.validate()
    assert not a0.is_zero_class()
    g5 = ball.index[(5,)]
    w = local_representability(R, a0, g5, 1)
    assert w is not None
    w.validate()
    assert w.support.issubset(R.K.space.mask_where(lambda p: 4 <= p[0] <= 6))
    # witness is cohomologous to the input through a relative coboundary
    assert R.class_is_zero(1, w.vec ^ a0.vec) is not None


def test_collar_violation(z_setup):
    ball, R, a0 = z_setup
    edge_center = ball.index[(10,)]
    with pytest.raises(CollarViolationError):
        local_representability(R, a0, edge_center, 1)


def test_zero_class_feasible_with_zero_witness(z_setup):
    ball, R, _ = z_setup
    zero = Cocycle(R, 1, 0)
    w = local_representability(R, zero, ball.index[(0,)], 1)
    assert w is not None and w.vec == 0


def test_mobility_monotone_in_D(z2_setup):
    ball, R, a0 = z2_setup
    centers = SubsetMask(ball.space.n, (ball.index[p] for p in [(0, 0), (1, 0), (2, 1), (0, -2)]))
    res2 = mobility_set(R, a0, 2)
    res3 = mobility_set(R, a0, 3)
    assert (res2.feasible_centers & centers).issubset(res3.feasible_centers)


def test_witness_soundness_replayed(z2_setup):
    ball, R, a0 = z2_setup
    res = mobility_set(R, a0, 3)
    assert len(res.feasible_centers) > 0
    for g, w in sorted(res.witnesses.items())[:10]:
        w.validate()
        assert R.class_is_zero(a0.k, w.vec ^ a0.vec) is not None
        ballmask = SubsetMask(
            R.K.space.n, (v for v in range(R.K.space.n) if R.K.space.dist(g, v) <= res.D)
        )
        assert w.support.issubset(ballmask)
        assert R.support_diameter(w.k, w.vec) <= 2 * res.D


def test_f2_cut_infeasible_far_away(f2_setup):
    ball, R, a0 = f2_setup
    b3 = ball.index[(2, 2, 2)]
    assert local_representability(R, a0, b3, 2, collar=1) is None


def test_f2_mob_stays_near_edge(f2_setup):
    ball, R, a0 = f2_setup
    res = mobility_set(R, a0, 2, collar=1)
    edge_nbhd = SubsetMask(
        ball.space.n,
        (v for v in range(ball.space.n) if min(ball.space.dist(v, ball.index[()]), ball.space.dist(v, ball.index[(1,)])) <= 3),
    )
    assert res.mob_mask.issubset(edge_nbhd)


def test_stab_trace_z_translations(z_setup):
    ball, R, a0 = z_setup
    trace, undet = stab_trace(ball, R, a0)
    labels = {ball.elements[i][0] for i in trace.ids}
    # every translation keeping the moved support interior stabilizes the
    # class; the crossing edge {g, g+1} leans right, so the window edge is
    # asymmetric by one
    assert labels >= set(range(-10, 11))
    assert not undet or all(abs(ball.elements[i][0]) >= 11 for i in undet)


def test_stab_trace_f2_near_identity(f2_setup):
    ball, R, a0 = f2_setup
    res = stab_mob_comparison(ball, R, a0, mobility_set(R, a0, 2, collar=1))
    assert len(res.stab_orbit) <= 4
    assert res.stab_mob_hausdorff is not None and res.stab_mob_hausdorff <= 3
    rep = mobset_replay(ball, res)
    assert rep["valid"] and rep["orbit_inside_mob"]
    assert res.stab_mob_hausdorff <= max(rep["R_star"], 0) or rep["bound_holds"]


def test_right_action_support_identity(z_setup):
    # supp(alpha . g^{-1}) = g supp(alpha) where the action is defined
    ball, R, a0 = z_setup
    for g in ((3,), (-5,)):
        moved = transport_cocycle(ball, R, a0, g)
        assert moved is not None
        assert moved.support == SubsetMask(ball.space.n, (ball.act_left(g, v) for v in a0.support.ids))


def test_right_action_mobility_translates(f2_setup):
    # for a class with bounded mobility the mobility set translates with it
    ball, R, a0 = f2_setup
    g = (1,)  # multiply by a: cut edge (e, a) moves to (a, a^2)
    moved = transport_cocycle(ball, R, a0, g)
    assert moved is not None
    res_base = mobility_set(R, a0, 2, collar=1)
    res_moved = mobility_set(R, moved, 2, collar=1)
    table = ball.action_table(g)
    translated = {table[v] for v in res_base.mob_mask.ids if table[v] is not None}
    assert set(res_moved.mob_mask.ids) == translated


def test_detector_z(z_setup):
    _, R, a0 = z_setup
    det = coarse_manifold_detector(R, 1, a0, [1])
    assert det.verdict == "true"


def test_detector_z2(z2_setup):
    _, R, a0 = z2_setup
    det = coarse_manifold_detector(R, 2, a0, [3])
    assert det.verdict == "true"


@pytest.mark.parametrize(
    "pattern, verdict",
    [([True, True, True], "true"), ([False, False, False], "false"),
     ([False, True, True], "true"), ([True, True, False], "inconclusive")],
)
def test_detector_verdict_reads_the_covered_trend(z_setup, monkeypatch, pattern, verdict):
    # each D covers the window or not as the mobility set says: the verdict
    # is "true" when the last D covers, "false" when none does, else
    # inconclusive
    _, R, a0 = z_setup
    X = R.K.space
    covers = dict(zip([1, 2, 3], pattern))

    def fixed_mobility(R, alpha0, D, collar=2):
        mask = X.full_mask() if covers[D] else SubsetMask.empty(X.n)
        return mobility_mod.MobilityResult(D, mask, mask)

    monkeypatch.setattr(mobility_mod, "mobility_set", fixed_mobility)
    det = coarse_manifold_detector(R, 1, a0, [1, 2, 3])
    assert det.covered == pattern and det.verdict == verdict


def test_z2_fundamental_feasible_everywhere(z2_setup):
    _, R, a0 = z2_setup
    centers = _collar_safe_centers(R, 3, 2)
    res = mobility_set(R, a0, 3)
    assert res.feasible_centers.ids == set(centers)


def test_detector_f2_false(f2_setup):
    _, R, a0 = f2_setup
    det = coarse_manifold_detector(R, 1, a0, [1, 2], collar=1)
    assert det.verdict == "false"
    assert det.covered == [False, False]


def test_mv_class_agrees_with_cup_class(line_in_plane_8):
    # the delta~ image of the point class and the direct cup-product
    # fundamental class agree up to a relative coboundary, and produce the
    # same mobility verdicts
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3, x_piece=x_piece(X, 2, 3))
    RX = base.pieces.X
    sigma = base.pieces.W.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    omega = connecting_map(base.pieces, 1, sigma)
    cup = RX.cochain_from_cup_product(crossing_cochain(X, 0, 0), crossing_cochain(X, 1, 0))
    assert RX.is_cocycle(2, cup)
    assert RX.class_is_zero(2, cup ^ omega) is not None
    a_mv = Cocycle(RX, 2, omega)
    a_cup = Cocycle(RX, 2, cup)
    r1 = mobility_set(RX, a_mv, 3)
    r2 = mobility_set(RX, a_cup, 3)
    assert r1.feasible_centers == r2.feasible_centers


# -- cocycle queries: masked rows, cached coboundary space, support-only transport -----


@functools.lru_cache(maxsize=None)
def _small_complex(family, radius):
    """Scale-2 relative complex up to triangles on a small window, collar 1."""
    X = build_ball(FreeAbelian(2), radius).space if family == "Z^2" else grid_fixture(family, radius).space
    K = build_rips(X, X.full_mask(), 2, 2)
    return RelativeComplex(K, X.interior_mask(1))


@st.composite
def cochain_queries(draw):
    """(complex, k, vec, mask): vec a coboundary, a random cochain or their sum."""
    R = _small_complex(*draw(st.sampled_from([("Z^2", 4), ("Z^2", 5), ("line_in_plane", 4), ("line_in_plane", 5)])))
    X = R.K.space
    k = draw(st.integers(0, R.K.cap))
    vec = 0
    if k > 0 and draw(st.booleans()):
        vec = R.coboundary(k - 1, draw(st.integers(0, (1 << R.n_rel(k - 1)) - 1)))
    if draw(st.booleans()):
        vec ^= draw(st.integers(0, (1 << R.n_rel(k)) - 1))
    if draw(st.booleans()):
        center = draw(st.integers(0, X.n - 1))
        D = draw(st.integers(0, 4))
        ids = [v for v, d in enumerate(X.dist_row(center)) if 0 <= d <= D]
    else:
        bits = draw(st.integers(0, (1 << X.n) - 1))
        ids = [v for v in range(X.n) if (bits >> v) & 1]
    return R, k, vec, SubsetMask(X.n, ids)


def test_class_is_zero_is_the_fresh_solve():
    # at k = 0, for vec = 0, for a coboundary, and for vecs off the
    # coboundaries: a random one and a coboundary with its first bit flipped
    R = _small_complex("Z^2", 4)
    rng = random.Random(5)
    infeasible = 0
    for k in range(R.K.cap + 1):
        vecs = [0, rng.getrandbits(R.n_rel(k)) | 1]
        if k:
            cob = R.coboundary(k - 1, rng.getrandbits(R.n_rel(k - 1)))
            vecs += [cob, cob ^ 1]
        for vec in vecs:
            got = R.class_is_zero(k, vec)
            assert got == class_is_zero_afresh(R, k, vec), (k, vec)
            infeasible += got is None
    assert R.class_is_zero(0, 0) == 0 and infeasible >= 1 + R.K.cap


@settings(max_examples=80, deadline=None)
@given(cochain_queries())
def test_masked_solve_and_coboundary_test_match_references(query):
    R, k, vec, allowed = query
    # the first-vertex index finds exactly the simplices a scan finds
    scan = [t for t, j in enumerate(R.rel[k]) if allowed.ids.issuperset(R.K.simplices[k][j])]
    assert R.simplex_positions_within(k, allowed) == scan
    # the cached echelon answers exactly what the witnessed solve answers,
    # and that solve gives the witness of a fresh elimination of delta^{k-1}
    assert R.is_coboundary(k, vec) == (R.class_is_zero(k, vec) is not None)
    assert R.class_is_zero(k, vec) == class_is_zero_afresh(R, k, vec)
    if k == 0:
        return
    # masking rows returns the very cochain the row-compacting solve returned
    got = R.representative_within(k, vec, allowed)
    assert got == compacted_representative_within(R, k, vec, allowed)
    if got is not None:
        assert R.is_coboundary(k, got ^ vec)
        inside = set(R.simplex_positions_within(k, allowed))
        assert all(t in inside for t in range(R.n_rel(k)) if (got >> t) & 1)


class _NoTableBall(BallModel):
    def action_table(self, g):
        raise AssertionError("whole-ball action table built")


def test_transport_reads_only_the_support():
    ball = build_ball(FreeAbelian(2), 6)
    X = ball.space
    K = build_rips(X, X.full_mask(), 2, 3)
    R = RelativeComplex(K, X.interior_mask(2))
    vec = R.cochain_from_cup_product(crossing_cochain(X, 0, 0), crossing_cochain(X, 1, 0))
    a0 = Cocycle(R, 2, vec)
    lean = _NoTableBall(*(getattr(ball, f.name) for f in dataclasses.fields(ball)))

    members, undetermined = [], []
    for gid, g in enumerate(ball.elements):
        expected = table_transport(ball, R, 2, vec, g)
        moved = transport_cocycle(lean, R, a0, g)
        assert (moved.vec if moved is not None else None) == expected
        if expected is None:
            undetermined.append(gid)
        elif R.class_is_zero(2, expected ^ vec) is not None:
            members.append(gid)
    trace, undet = stab_trace(lean, R, a0)
    assert sorted(trace.ids) == members and undet == undetermined
    assert members and undetermined

    res = stab_mob_comparison(lean, R, a0, mobility_set(R, a0, 2))
    orbit = set()
    for gid in members:
        table = ball.action_table(ball.elements[gid])
        moved = [table[v] for v in a0.support.ids]
        if None not in moved:
            orbit.update(moved)
    assert res.stab_orbit.ids == orbit
    assert res.stab_mob_hausdorff == hausdorff_distance(X, res.stab_orbit, res.mob_mask)

    # a witness lies in a ball of radius D, so its support diameter is at most 2D
    w = next(iter(res.witnesses.values()))
    assert R.support_diameter(w.k, w.vec) <= 2 * res.D


# -- centres decided on the ball: one tracked echelon, ball-sized masks, one Mob per D --


def _edge_cut_f2_5():
    ball = build_ball(FreeGroup(2), 5)
    X = ball.space
    K = build_rips(X, X.full_mask(), 1, 2)
    R = RelativeComplex(K, X.interior_mask(1))
    edge = tuple(sorted((ball.index[()], ball.index[(1,)])))
    return R, Cocycle(R, 1, 1 << R.rel_pos[1][K.index[1][edge]]), 1


def _crossing_line_in_plane_8():
    X = grid_fixture("line_in_plane", 8).space
    K = build_rips(X, X.full_mask(), 1, 2)
    R = RelativeComplex(K, X.interior_mask(2))
    return R, Cocycle(R, 1, R.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))), 2


def _row_ball(R, g, D):
    row = R.K.space.dist_row(g)
    return SubsetMask(R.K.space.n, (v for v in R.K.vertex_mask.ids if 0 <= row[v] <= D))


@pytest.mark.parametrize("setup", [_edge_cut_f2_5, _crossing_line_in_plane_8], ids=["f2-edge-cut", "line-crossing"])
def test_mobility_solves_on_the_one_coboundary_echelon(monkeypatch, setup):
    # no centre runs a solve of its own: every witness comes from the echelon
    # of delta^0, whose columns are inserted once for all centres and both D,
    # and each witness is the reference's
    R, a0, collar = setup()
    solves, inserts = [], []
    insert = gf2.GF2Subspace.insert
    monkeypatch.setattr(gf2, "solve_columns", lambda *a, **kw: solves.append(a))
    monkeypatch.setattr(gf2, "ColumnSolve", lambda *a, **kw: solves.append(a))
    monkeypatch.setattr(gf2.GF2Subspace, "insert", lambda self, v: inserts.append(v) or insert(self, v))
    results = [mobility_set(R, a0, D, collar=collar) for D in (1, 2)]
    monkeypatch.undo()
    assert solves == [] and inserts == R.delta(0).columns
    feasible = 0
    for D, res in zip((1, 2), results):
        centers = _collar_safe_centers(R, D, collar)
        assert len(res.feasible_centers) < len(centers)
        feasible += len(res.feasible_centers)
        for g in centers:
            expected = compacted_representative_within(R, 1, a0.vec, _row_ball(R, g, D))
            got = res.witnesses.get(g)
            assert (None if got is None else got.vec) == expected
    # the crossing class of a line through the plane window is carried by no ball
    assert feasible > 0 or setup is _crossing_line_in_plane_8


def test_run_mobility_solves_one_mobility_set_per_D(monkeypatch):
    seen = []
    real = mobility_mod.mobility_set
    monkeypatch.setattr(mobility_mod, "mobility_set", lambda R, a0, D, **kw: seen.append(D) or real(R, a0, D, **kw))
    scenario = {
        "schema": 1,
        "space": {"kind": "group", "family": "F_2", "radius": 5},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "analyses": [{"analysis": "mobility", "class": "edge-cut", "D_schedule": [1, 2], "collar": 1}],
    }
    report, code = run_scenario(scenario)
    entry = report["results"][0]
    assert code == 0 and entry["status"] == "ok" and entry["mob_size"] > 0
    assert seen == [1, 2]


def _table_z2_4():
    # Z^2 at radius 4 as an explicit distance table, with the collar data kept
    X = build_ball(FreeAbelian(2), 4).space
    return TableSpace(
        [list(X.dist_row(v)) for v in range(X.n)], radial=X.radial, window_radius=X.window_radius,
        basepoint=X.basepoint,
    )


@pytest.mark.parametrize(
    "space",
    [
        lambda: grid_fixture("line_in_plane", 5).space,
        lambda: build_ball(Lamplighter(), 4).space,
        _table_z2_4,
    ],
    ids=["graph", "word-metric-ball", "table"],
)
def test_ball_from_scale_adjacency_matches_distance_rows(space):
    X = space()
    drop = set(range(0, X.n, 7)) - {X.basepoint}  # a vertex mask short of the space
    K = build_rips(X, SubsetMask(X.n, (v for v in range(X.n) if v not in drop)), 1, 2)
    R = RelativeComplex(K, X.interior_mask(1))
    near = next(t for t, j in enumerate(R.rel[1]) if X.basepoint in K.simplices[1][j])
    collar_ids = X.collar_mask(1).ids
    outcomes = set()
    for vec in (sum(1 << t for t in range(0, R.n_rel(1), 5)), 1 << near):
        a0 = Cocycle(R, 1, vec)
        for D in (0, 1, 2):
            for g in range(X.n):
                ball = _row_ball(R, g, D)
                if ball.ids & collar_ids:
                    with pytest.raises(CollarViolationError):
                        local_representability(R, a0, g, D, collar=1)
                    outcomes.add("collar")
                    continue
                w = local_representability(R, a0, g, D, collar=1)
                assert (None if w is None else w.vec) == R.representative_within(1, vec, ball)
                assert w is None or w.support.issubset(ball)
                outcomes.add(w is not None)
    assert outcomes == {"collar", True, False}
