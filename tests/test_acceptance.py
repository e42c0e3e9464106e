"""Acceptance criteria, one test per criterion.

Every criterion is exact (integer counts, set identities, GF(2)
identities); no tolerances apply anywhere. Each test prints one line
``ACCEPT <n> PASS <summary>`` on success so the suite doubles as a
checklist when run with ``pytest -s tests/test_acceptance.py``.
"""

import json
import random

import coarsetop.gf2 as gf2
from coarsetop.cli import run_scenario
from coarsetop.cochains import RelativeComplex
from coarsetop.essential import (
    almost_essential_probe,
    connecting_entry,
    localized_boundary_support,
    mv_assemble,
    two_sided_representability,
)
from coarsetop.fixtures import crossing_cochain, grid_fixture
from coarsetop.groups import FreeAbelian, FreeGroup, build_ball, subgroup_trace
from coarsetop.homology import (
    WindowSchedule,
    coarse_cohomology_dim_estimate,
    ends_estimate,
    uniform_acyclicity_probe,
)
from coarsetop.metric import SubsetMask, neighborhood
from coarsetop.mobility import (
    Cocycle,
    coarse_manifold_detector,
    mobility_set,
    mobset_replay,
    stab_mob_comparison,
)
from coarsetop.rips import build_rips
from coarsetop.separation import complement_components

from oracles import TableSpace, dense_rank_gf2, dense_solve_gf2, flood_fill_components, gated_probe, x_piece


def _sched(R, S_values, i=1, j=1, collar=2):
    return [
        WindowSchedule(S=s, i=i, S_out=max(0, s - j), j=j, R=R, collar=collar)
        for s in S_values
    ]


def test_accept_1_ends_formula(z_ball_24, z2_ball_16, f2_ball_6):
    """ends = dim H^1 proxy + 1, exactly, on Z / Z^2 / F_2."""
    ez = ends_estimate(z_ball_24.space, _sched(24, (4, 6, 8)))
    dz = coarse_cohomology_dim_estimate(z_ball_24.space, 1, _sched(24, (4, 6, 8)))
    assert ez.verdict == 2 and dz.verdict == 1 and ez.verdict == dz.verdict + 1
    e2 = ends_estimate(z2_ball_16.space, _sched(16, (3, 4, 5)))
    d2 = coarse_cohomology_dim_estimate(z2_ball_16.space, 1, _sched(16, (3, 4, 5)))
    assert e2.verdict == 1 and d2.verdict == 0 and e2.verdict == d2.verdict + 1
    ef = ends_estimate(f2_ball_6.space, _sched(6, (1, 2, 3), collar=1))
    df = coarse_cohomology_dim_estimate(f2_ball_6.space, 1, _sched(6, (1, 2, 3), collar=1))
    assert ef.verdict == "growing" and df.verdict == "growing"
    print("\nACCEPT 1 PASS ends/dim: Z 2/1, Z^2 1/0, F_2 growing/growing")


def test_accept_2_coarse_separation(f2_ball_6):
    """Deep component counts, cross-checked by flood fill on independently
    rebuilt adjacency (lattice steps from labels, generator products from
    normal forms)."""
    for R in (8, 10, 12):
        ball = build_ball(FreeAbelian(2), R)
        axis = subgroup_trace(ball, {"cyclic": (1, 0)})
        cs = complement_components(ball.space, axis, 1, 0)
        assert len(cs.deep_components()) == 2
        off = (ball.space.full_mask() - cs.nA).sorted_ids()
        adj = {
            i: [
                ball.index[q]
                for q in [(p[0] + 1, p[1]), (p[0] - 1, p[1]), (p[0], p[1] + 1), (p[0], p[1] - 1)]
                if q in ball.index
            ]
            for i, p in enumerate(ball.elements)
        }
        oracle = flood_fill_components(off, lambda v: adj[v])
        assert len(oracle) == len(cs.components)
        assert sorted(map(sorted, oracle)) == sorted(
            sorted(c.mask.ids) for c in cs.components
        )
    counts = []
    for R in (4, 5, 6):
        ball = build_ball(FreeGroup(2), R)
        model = ball.model
        axis = subgroup_trace(ball, {"cyclic": "a"})
        cs = complement_components(ball.space, axis, 1, 0, collar=1)
        counts.append(len(cs.deep_components()))
        off = (ball.space.full_mask() - cs.nA).sorted_ids()
        steps = [(1,), (-1,), (2,), (-2,)]
        adj = {
            i: [
                ball.index[model.mul(g, s)]
                for s in steps
                if model.mul(g, s) in ball.index
            ]
            for i, g in enumerate(ball.elements)
        }
        assert len(flood_fill_components(off, lambda v: adj[v])) == len(cs.components)
    assert counts[-1] >= 3 and counts[0] < counts[1] < counts[2]
    z2 = build_ball(FreeAbelian(2), 12)
    pt = SubsetMask(z2.space.n, [0])
    assert len(complement_components(z2.space, pt, 1, 0).deep_components()) == 1
    print("ACCEPT 2 PASS separation: Z^2/axis 2, F_2/<a> growing >= 3, Z^2/point 1")


def test_accept_3_figure_classification(fig1_12, fig2_12):
    """fig1 bottom essential / top non-essential; fig2 likewise, at R=12, S=4, scales (1,2).

    The three-page book at R=10, scales (1,1), has all three pages essential:
    the paper's hypothesis of three essential components of W.
    """
    book = grid_fixture("three_page_book", 10)
    fixtures = {fix.name: fix for fix in (fig1_12, fig2_12, book)}
    results = {}
    for fix, scheds in ((fig1_12, _sched(12, (3, 4, 5), i=1, j=2)), (fig2_12, _sched(12, (3, 4, 5), i=1, j=2)),
                        (book, _sched(10, (3, 4, 5), i=1, j=1))):
        for name in fix.components:
            v = gated_probe(
                fix.space,
                fix.w,
                fix.components[name],
                fix.analysis_dim,
                scheds,
                name,
                probe=1,  # inner radius 4
            )
            results[(fix.name, name)] = v
    assert results[("fig1_halfplane_flap", "bottom")].verdict == "essential"
    assert results[("fig1_halfplane_flap", "top")].verdict == "non-essential"
    assert results[("fig2_plane_fin", "bottom")].verdict == "essential"
    assert results[("fig2_plane_fin", "top")].verdict == "non-essential"
    for name in ("fin", "north", "south"):
        assert results[("three_page_book", name)].verdict == "essential"
    # witness replay: every death/survival fate re-verified by a direct
    # GF(2) membership computation on the recorded complexes
    from coarsetop.essential import paired_target_schedule
    from coarsetop.homology import annulus_mask, schedule_two_scale

    for (fixname, name), v in results.items():
        fix = fixtures[fixname]
        n = fix.analysis_dim
        sched = v.schedule
        w_img = schedule_two_scale(fix.space, n - 1, sched, within=fix.w)
        scale, excise = paired_target_schedule(sched)
        tmask = annulus_mask(fix.space, excise, None, within=(fix.components[name] | fix.w))
        target = build_rips(fix.space, tmask, scale, n)
        for z, wit in zip(w_img.classes, v.witnesses):
            pushed = 0
            for j in gf2.bits(z):
                pushed |= 1 << target.index[n - 1][w_img.inner.simplices[n - 1][j]]
            feasible = gf2.ColumnSolve(pushed, track=False).feed(target.iter_banded_columns(n, target.uncone(n)))
            assert (feasible is None) == wit["survives_in_target"]
    print("ACCEPT 3 PASS figures: fig1 bottom/top, fig2 bottom/top, three book pages classified and replayed")


def test_accept_4_almost_essential():
    """fig1 bottom B=1 constant; fig1 top fails at every window; half-planes constant."""
    for R in (8, 10, 12):
        fix = grid_fixture("fig1_halfplane_flap", R)
        rb = almost_essential_probe(fix.space, fix.w, fix.components["bottom"], 0, range(0, 7))
        rt = almost_essential_probe(fix.space, fix.w, fix.components["top"], 0, range(0, 7))
        assert rb.verdict == "B=1"
        assert rt.verdict == "fails-at-window"
        half = grid_fixture("line_in_plane", R)
        rh = almost_essential_probe(half.space, half.w, half.components["upper"], 0, range(0, 7))
        assert rh.verdict == "B=1"
    print("ACCEPT 4 PASS almost-essential: bottom B=1 constant, top fails at every window")


def test_accept_5_mv_connecting_map(line_in_plane_8):
    """delta~ of the point class: nonzero, localized, exact at computed spots."""
    fix = line_in_plane_8
    X = fix.space
    rep = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3, x_piece=x_piece(X, 2, 3))
    RW = rep.pieces.W
    sigma = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    c = connecting_entry(rep.pieces, 1, sigma)
    assert rep.dichotomy
    assert all(rep.ses_ok.values())
    assert c["nonzero_in_proxy"]
    out = localized_boundary_support(rep.pieces, 1, c["output"], RW.support_vertices(1, sigma))
    assert out["within_bound"]
    assert all(rep.exactness.values())
    # on the three-page book, cut off the fin, the middle spot at H^2
    # compares nonzero groups: H^2 of X, A, B, W is 2, 0, 1, 0
    book = grid_fixture("three_page_book", 6)
    pages = mv_assemble(book.space, book.w, book.components["fin"], r=2, A=1, cap=4, x_piece=x_piece(book.space, 2, 4))
    P = pages.pieces
    assert [R.cohomology_dim(2) for R in (P.X, P.A, P.B, P.W)] == [2, 0, 1, 0]
    assert pages.dichotomy and all(pages.ses_ok.values())
    assert "middle-H2" in pages.exactness and all(pages.exactness.values())
    print(
        "ACCEPT 5 PASS mv: delta~ nonzero, support radius "
        f"{out['achieved_radius']} <= {out['bound']}, exactness {sorted(rep.exactness)}; "
        f"book exactness {sorted(pages.exactness)}"
    )


def test_accept_6_noncrossing(f2_ball_6):
    """Classes representable in two side regions of F_2 verify zero, exactly."""
    ball = f2_ball_6
    X = ball.space
    W = subgroup_trace(ball, {"cyclic": "a"})
    C1 = X.mask_where(lambda g: bool(g) and g[0] == 2)
    C2 = X.mask_where(lambda g: bool(g) and g[0] == -2)
    C3 = X.full_mask() - C1 - C2 - W
    cs = complement_components(X, W, 1, 0, collar=1)
    deep_union = set()
    for c in cs.deep_components():
        deep_union |= c.mask.ids
    # the three masks are disjoint unions of components, all containing deep parts
    for C in (C1, C2, C3):
        assert C.ids & deep_union
    assert not (C1.ids & C2.ids) and not (C1.ids & C3.ids) and not (C2.ids & C3.ids)
    K = build_rips(X, X.full_mask(), 2, 3)
    R = RelativeComplex(K, X.interior_mask(1))
    s0 = 2
    allowed = C1 - neighborhood(X, W, s0)
    pos = R.simplex_positions_within(2, allowed)
    delta2 = R.delta(2)
    sub = gf2.GF2Matrix(delta2.rows, len(pos), [delta2.columns[t] for t in pos])
    both = 0
    for m in gf2.kernel_basis(sub)[:10]:
        vec = 0
        for b in gf2.bits(m):
            vec |= 1 << pos[b]
        out = two_sided_representability(R, W, C1, C2, 2, vec, s=s0)
        if out["verdict"] == "both":
            both += 1
            assert out["class_zero_verified"]
            assert R.coboundary(1, 0) == 0  # sanity on degree bookkeeping
    assert both > 0
    print(f"ACCEPT 6 PASS noncrossing: {both} two-sided classes all verified zero")


def test_accept_7_mobility(z_ball_12, z2_ball_10, f2_ball_6):
    """Manifold detector true on Z and Z^2, false on F_2; mobset bound replayed."""
    X = z_ball_12.space
    K = build_rips(X, X.full_mask(), 1, 2)
    R = RelativeComplex(K, X.interior_mask(2))
    a0 = Cocycle(R, 1, R.cochain_from_edge_predicate(crossing_cochain(X, 0, 0)))
    det_z = coarse_manifold_detector(R, 1, a0, [1])
    assert det_z.verdict == "true"

    X2 = z2_ball_10.space
    K2 = build_rips(X2, X2.full_mask(), 2, 3)
    R2 = RelativeComplex(K2, X2.interior_mask(2))
    fund = Cocycle(
        R2, 2, R2.cochain_from_cup_product(crossing_cochain(X2, 0, 0), crossing_cochain(X2, 1, 0))
    )
    det_z2 = coarse_manifold_detector(R2, 2, fund, [3])
    assert det_z2.verdict == "true"

    ball = f2_ball_6
    Xf = ball.space
    Kf = build_rips(Xf, Xf.full_mask(), 1, 2)
    Rf = RelativeComplex(Kf, Xf.interior_mask(1))
    edge = tuple(sorted((ball.index[()], ball.index[(1,)])))
    cut = Cocycle(Rf, 1, 1 << Rf.rel_pos[1][Kf.index[1][edge]])
    det_f = coarse_manifold_detector(Rf, 1, cut, [1, 2], collar=1)
    assert det_f.verdict == "false"
    res = stab_mob_comparison(ball, Rf, cut, mobility_set(Rf, cut, 2, collar=1))
    rep = mobset_replay(ball, res)
    assert rep["valid"] and rep["orbit_inside_mob"]
    assert res.stab_mob_hausdorff is not None
    assert rep["bound_holds"]  # d_Haus <= replayed R*, both inclusions exact
    print(
        "ACCEPT 7 PASS mobility: Z true (D=1), Z^2 true (D=3), F_2 false; "
        f"F_2 dH={res.stab_mob_hausdorff} within replayed bound"
    )


def test_accept_8_almost_invariant(z2_ball_10, f2_ball_6):
    """Extraction on (Z^2, axis, upper) and (F_2, <a>, b-side): all three identities."""
    from coarsetop.separation import almost_invariant_extract

    z2 = z2_ball_10
    axis = subgroup_trace(z2, {"cyclic": (1, 0)})
    upper = z2.space.mask_where(lambda p: p[1] >= 1)
    xhat, rep = almost_invariant_extract(z2, axis, upper, 0)
    assert rep["right_invariant_where_defined"]
    assert rep["agrees_with_C_off_NA"]
    assert rep["proper"]
    assert xhat == z2.space.mask_where(lambda p: p[1] >= 0)

    f2 = f2_ball_6
    a_axis = subgroup_trace(f2, {"cyclic": "a"})
    bsub = f2.space.mask_where(lambda g: bool(g) and g[0] == 2)
    xhat2, rep2 = almost_invariant_extract(f2, a_axis, bsub, 0)
    assert rep2["verdict"] == "ok"
    assert (xhat2 - a_axis) == bsub
    print("ACCEPT 8 PASS almost-invariant: X^H = X^, agrees off N_A(H), both sides deep")


def test_accept_9_linear_algebra_oracle():
    """200 random sparse systems up to 200x200 vs dense elimination, bit for bit."""
    rng = random.Random(20240817)
    for trial in range(200):
        rows = rng.randint(1, 200)
        cols = rng.randint(1, 200)
        density = rng.choice([0.02, 0.05, 0.15])
        entries = [
            [1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)
        ]
        A = gf2.GF2Matrix.from_rows(entries)
        assert gf2.rank(A) == dense_rank_gf2(entries)
        b = gf2.vector_from_indices(i for i in range(rows) if rng.random() < 0.1)
        x = gf2.solve(A, b)
        dense = dense_solve_gf2(entries, [(b >> i) & 1 for i in range(rows)])
        assert (x is None) == (dense is None)
        if x is not None:
            assert A.matvec(x) == b
        ker = gf2.kernel_basis(A)
        assert len(ker) == cols - dense_rank_gf2(entries)
        for v in ker[:5]:
            assert A.matvec(v) == 0
    print("ACCEPT 9 PASS gf2: 200 random systems agree with dense elimination")


def test_accept_10_acyclicity(z2_ball_16):
    """Z^2: lambda(1)=2, mu(1,r)=r for k=1, r<=5; the two-point space fails at k=0."""
    centers = [z2_ball_16.index[p] for p in [(0, 0), (1, 0), (-1, 2)]]
    prof = uniform_acyclicity_probe(
        z2_ball_16.space, 1, centers, [1], [1, 2, 3, 4, 5], 3, 9
    )
    assert not prof.failures()
    bounds = prof.uniform_bounds()
    assert bounds[(1, 1)]["lambda"] == 2
    assert all(mu == r for r, mu in bounds[(1, 1)]["mu"].items())
    X = TableSpace(
        [[0, 10], [10, 0]], labels=[0, 10], radial=[0, 10], window_radius=10, basepoint=0
    )
    prof2 = uniform_acyclicity_probe(X, 0, [0], [1], [10], 5, 12)
    assert prof2.failures()
    print("ACCEPT 10 PASS acyclicity: Z^2 lambda(1)=2 mu(1,r)=r; two-point space fails")


def test_accept_11_determinism(tmp_path):
    """Identical scenario -> byte-identical machine-readable report."""
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 10},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "analyses": [
            {"analysis": "separate", "r": 1, "A": 0},
            {"analysis": "ends", "schedules": {"auto": {"scales": [1, 1], "count": 3}}},
            {"analysis": "mv", "r": 2, "A": 1, "cap": 3, "component": "0"},
        ],
    }
    r1, c1 = run_scenario(scen, seed=0)
    r2, c2 = run_scenario(scen, seed=0)
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    assert b1 == b2 and c1 == c2 == 0
    r3, _ = run_scenario(scen, seed=99)
    assert json.dumps(r3, sort_keys=True).encode() == b1
    print("ACCEPT 11 PASS determinism: byte-identical reports across runs/seeds")
