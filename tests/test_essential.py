"""Essential probes, the MV assembly, connecting map, representability."""

import pytest

import coarsetop.gf2 as gf2
from coarsetop.errors import CoarseTopError
from coarsetop.essential import (
    _push_cycle,
    almost_essential_probe,
    connecting_map,
    essential_probe,
    localized_boundary_support,
    mv_assemble,
    paired_target_schedule,
    two_sided_representability,
)
from coarsetop.fixtures import crossing_cochain, grid_fixture
from coarsetop.groups import subgroup_trace
from coarsetop.homology import WindowSchedule, annulus_mask, schedule_two_scale
from coarsetop.metric import neighborhood
from coarsetop.rips import build_rips
from coarsetop.cochains import RelativeComplex


def fig_schedules(R=12):
    return [WindowSchedule(S=s, i=1, S_out=s - 2, j=2, R=R, collar=2) for s in (3, 4, 5)]


def test_almost_essential_fig1(fig1_12):
    fix = fig1_12
    rb = almost_essential_probe(fix.space, fix.w, fix.components["bottom"], 0, range(0, 9))
    rt = almost_essential_probe(fix.space, fix.w, fix.components["top"], 0, range(0, 9))
    assert rb.verdict == "B=1"
    assert rt.verdict == "fails-at-window"


def test_almost_essential_constant_across_windows():
    values = []
    top_needs = []
    for R in (8, 10, 12):
        fix = grid_fixture("fig1_halfplane_flap", R)
        rep = almost_essential_probe(fix.space, fix.w, fix.components["bottom"], 0, range(0, 7))
        values.append(rep.B)
        top = almost_essential_probe(fix.space, fix.w, fix.components["top"], 0, range(0, 7))
        assert top.verdict == "fails-at-window"
        # with an unbounded grid the top's B grows linearly in the window
        wide = almost_essential_probe(fix.space, fix.w, fix.components["top"], 0, range(0, 3 * R))
        top_needs.append(wide.B)
    assert values == [1, 1, 1]
    assert top_needs[0] < top_needs[1] < top_needs[2]
    # the full half-planes behave the same way
    half_values = []
    for R in (8, 10, 12):
        fix = grid_fixture("line_in_plane", R)
        rep = almost_essential_probe(fix.space, fix.w, fix.components["upper"], 0, range(0, 7))
        half_values.append(rep.B)
    assert half_values == [1, 1, 1]


def test_essential_fig1(fig1_12):
    fix = fig1_12
    vb = essential_probe(fix.space, fix.w, fix.components["bottom"], 1, fig_schedules(), "bottom")
    vt = essential_probe(fix.space, fix.w, fix.components["top"], 1, fig_schedules(), "top")
    assert vb.verdict == "essential"
    assert vt.verdict == "non-essential"
    assert all(not w["survives_in_target"] for w in vb.witnesses)
    assert any(w["survives_in_target"] for w in vt.witnesses)


@pytest.mark.parametrize(
    "max_witness_columns, path",
    [(60_000, "full"), (2_000, "N_10(supp)"), (1_000, "full/feasibility-only")],
    ids=["full-witness", "local-witness", "feasibility-only"],
)
def test_essential_fill_paths_agree(max_witness_columns, path):
    # on fig1 at R=10 with this schedule the bottom target has 2,670 edges,
    # 1,544 of them within N_10 of the cycle, so the cap picks the path of
    # the bottom probe; every path must give the same verdicts
    fix = grid_fixture("fig1_halfplane_flap", 10)
    sched = WindowSchedule(S=4, i=2, S_out=2, j=2, R=10, collar=2)
    w_img = schedule_two_scale(fix.space, 0, sched, within=fix.w)
    scale, excise = paired_target_schedule(sched)
    for name, verdict in (("bottom", "essential"), ("top", "non-essential")):
        C = fix.components[name]
        v = essential_probe(
            fix.space, fix.w, C, 1, [sched], name,
            skip_pd_check=True, max_witness_columns=max_witness_columns,
        )
        assert v.verdict == verdict
        # the probe's target complex and pushed cycles, rebuilt to check the fills
        target = build_rips(fix.space, annulus_mask(fix.space, excise, None, within=C | fix.w), scale, 1)
        assert len(v.witnesses) == len(w_img.classes) > 0
        for cls, w in zip(w_img.classes, v.witnesses):
            if w["fill"] is not None:
                z = _push_cycle(w_img.inner, target, 0, cls.representative)
                assert target.boundary_of_chain(1, w["fill"]) == z
        if name == "bottom":
            assert [w["fill_locality"] for w in v.witnesses] == [path] * len(v.witnesses)
            assert all(w["fill"] for w in v.witnesses) == (path != "full/feasibility-only")


def test_essential_resumes_after_failed_local_solve():
    # on fig1 at R=10 the bottom target has 1,042 edges and the two points of
    # the pushed class lie more than 2ρ apart, so the local solve over the
    # 310 edges within N_6 of them fails; the probe then resumes that solve
    # on the other 732 edges and must reach the verdict of the full solve
    fix = grid_fixture("fig1_halfplane_flap", 10)
    C = fix.components["bottom"]
    capped = essential_probe(fix.space, fix.w, C, 1, fig_schedules(10), "bottom", max_witness_columns=500)
    default = essential_probe(fix.space, fix.w, C, 1, fig_schedules(10), "bottom")
    assert capped.verdict == default.verdict == "essential"
    assert len(capped.witnesses) > 0
    assert [w["fill_locality"] for w in capped.witnesses] == ["full/feasibility-only"] * len(capped.witnesses)
    assert [w["fill_locality"] for w in default.witnesses] == ["full"] * len(default.witnesses)


@pytest.mark.parametrize(
    "component, schedule, max_witness_columns",
    [("bottom", None, 500), ("bottom", None, 200), ("top", None, 500), ("bottom", (4, 2, 2, 2), 2_000)],
    ids=["resume", "untracked", "top-resume", "local-witness"],
)
def test_death_or_survival_matches_unskipped_solve(component, schedule, max_witness_columns):
    # fig1 R=10: with a 500-column budget the local phase fails and resumes;
    # 200 is below the local count, so every column is fed untracked; the
    # (4, 2, 2, 2) schedule fills locally with a witness. Skipping coned
    # columns must leave each verdict, fill and locality, and the echelon
    # form after every feed, as they are when every column is fed.
    from unittest import mock

    from coarsetop.rips import RipsComplex
    from oracles import every_column

    fix = grid_fixture("fig1_halfplane_flap", 10)
    scheds = fig_schedules(10) if schedule is None else [WindowSchedule(*schedule, R=10, collar=2)]
    fed = []

    class RecordingSolve(gf2.ColumnSolve):
        def feed(self, columns):
            columns = list(columns)
            fed.append((self, columns))
            return super().feed(columns)

    def run():
        fed.clear()
        with mock.patch.object(gf2, "ColumnSolve", RecordingSolve):
            v = essential_probe(
                fix.space, fix.w, fix.components[component], 1, scheds, component,
                skip_pd_check=True, max_witness_columns=max_witness_columns,
            )
        # the probe feeds banded (bits, lo) columns; replay them as plain ints
        echelons, pivots = {}, []
        for solve, columns in fed:
            space = echelons.setdefault(id(solve), gf2.GF2Subspace(0))
            for c, lo in columns:
                space.insert(c << lo)
            pivots.append(dict(space.pivots))
        return (v.verdict, v.witnesses, pivots), sum(len(c) for _, c in fed)

    got, fed_kept = run()
    with mock.patch.object(RipsComplex, "uncone", every_column):
        expected, fed_all = run()
    assert got == expected
    assert fed_kept < fed_all


@pytest.mark.parametrize("max_witness_columns", [60_000, 500], ids=["full", "local-then-resume"])
def test_essential_echelon_is_stored_banded(max_witness_columns):
    # A memory gate by counters, not timing, on fig1 R=10's small solves.
    # Every pivot a solve stores is shifted down to its lowest set bit, so
    # the bits stored are bounded by the pivots' spans, taken from a plain
    # replay of the fed columns; plain ints would store every row from 0 to
    # the pivot, more than twice as many bits here.
    from unittest import mock

    fix = grid_fixture("fig1_halfplane_flap", 10)
    pulled = {}  # solve -> the columns it pulled, over all its feeds

    class RecordingSolve(gf2.ColumnSolve):
        def feed(self, columns):
            seen = pulled.setdefault(self, [])
            return super().feed(seen.append(c) or c for c in columns)

    with mock.patch.object(gf2, "ColumnSolve", RecordingSolve):
        for name in ("bottom", "top"):
            essential_probe(
                fix.space, fix.w, fix.components[name], 1, fig_schedules(10), name,
                skip_pd_check=True, max_witness_columns=max_witness_columns,
            )
    assert len(pulled) == 2
    for solve, columns in pulled.items():
        replay = gf2.GF2Subspace(0)
        for c, lo in columns:
            replay.insert(c << lo)
        space = solve.space
        assert isinstance(space, gf2.BandedEchelon) and space.pivots.keys() == replay.pivots.keys()
        assert all(u & 1 for u in space.pivots.values())
        if space.combos is not None:
            assert all(m & 1 for m, _ in space.combos.values())
        max_span = max(p - gf2.lowbit(q) for p, q in replay.pivots.items())
        stored = sum(u.bit_length() for u in space.pivots.values())
        assert stored <= (max_span + 1) * len(space.pivots)
        assert 2 * stored <= sum(q.bit_length() for q in replay.pivots.values())


def test_essential_monotone_under_enlargement(fig1_12):
    # bottom is essential; any complementary component containing it is
    # essential or inconclusive, never non-essential
    fix = fig1_12
    bigger = fix.components["bottom"] | fix.components["top"]
    v = essential_probe(fix.space, fix.w, bigger, 1, fig_schedules(), "both")
    assert v.verdict in ("essential", "inconclusive")


def test_essential_component_is_deep(fig1_12):
    # window-scale half of essentialbasicprops (1)
    from coarsetop.separation import complement_components

    fix = fig1_12
    cs = complement_components(fix.space, fix.w, 1, 0)
    vb = essential_probe(fix.space, fix.w, fix.components["bottom"], 1, fig_schedules(), "bottom")
    assert vb.verdict == "essential"
    deep_masks = [c.mask for c in cs.deep_components()]
    assert any(fix.components["bottom"] == m for m in deep_masks)


def test_plane_in_space_half_spaces_essential():
    # the motivating example: a plane separating 3-space into two
    # half-spaces, each of which kills the plane's circle class at infinity
    fix = grid_fixture("plane_in_space", 9)
    scheds = [WindowSchedule(S=s, i=1, S_out=s - 2, j=2, R=9, collar=2) for s in (3, 4, 5)]
    for name in ("upper", "lower"):
        v = essential_probe(
            fix.space, fix.w, fix.components[name], 2, scheds, name, probe_schedule=scheds[1]
        )
        assert v.verdict == "essential"


def test_amalgam_edge_axis_components_all_essential():
    # two planes glued along a line: the shared axis leaves four deep
    # components and every one is essential, which is the full separation
    # picture for a group that splits over that line
    from coarsetop.groups import amalgam_z2_z_z2, build_ball
    from coarsetop.separation import complement_components

    model = amalgam_z2_z_z2()
    ball = build_ball(model, 6, max_vertices=500_000)
    yaxis = subgroup_trace(ball, {"cyclic": "y"})
    cs = complement_components(ball.space, yaxis, 1, 0, collar=1)
    deep = cs.deep_components()
    assert len(deep) == 4
    scheds = [
        WindowSchedule(S=s, i=1, S_out=max(0, s - 1), j=1, R=6, collar=1) for s in (1, 2, 3)
    ]
    for t, comp in enumerate(deep):
        v = essential_probe(ball.space, yaxis, comp.mask, 1, scheds, str(t))
        assert v.verdict == "essential"


def test_essential_inconclusive_when_pd_fails(f2_ball_6):
    # W = <a> in F2 is a line, but the ambient tree kills nothing; the
    # precondition gate must fire before any verdict
    ball = f2_ball_6
    axis = subgroup_trace(ball, {"cyclic": "a"})
    bsub = ball.space.mask_where(lambda g: bool(g) and g[0] == 2)
    scheds = [WindowSchedule(S=s, i=1, S_out=s - 1, j=1, R=6, collar=1) for s in (1, 2, 3)]
    v = essential_probe(ball.space, axis, bsub, 1, scheds, "b-side")
    assert v.verdict in ("inconclusive", "non-essential")
    if v.verdict == "inconclusive":
        assert v.reason


def test_mv_ses_and_exactness(line_in_plane_8):
    fix = line_in_plane_8
    rep = mv_assemble(fix.space, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    assert rep.dichotomy
    assert all(rep.ses_ok.values())
    assert all(rep.exactness.values())


def test_mv_requires_complementary(line_in_plane_8):
    fix = line_in_plane_8
    X = fix.space
    evens = X.mask_where(lambda p: (p[0] + p[1]) % 2 == 0)
    with pytest.raises(CoarseTopError):
        mv_assemble(X, fix.w, evens, r=2, A=1, cap=2)


def test_mv_connecting_map_nonzero(line_in_plane_8):
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    RW = base.pieces.W
    sigma = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    rep = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3, w_classes=[(1, sigma)])
    c = rep.connecting[0]
    assert c["nonzero_in_proxy"]
    # localized support within the schedule-derived radius
    out = localized_boundary_support(rep.pieces, 1, c["output"], RW.support_vertices(1, sigma))
    assert out["within_bound"]
    assert out["achieved_radius"] <= 2


def test_mv_builds_extension_matrices_once_per_degree(line_in_plane_8, monkeypatch):
    import coarsetop.essential as essential

    fix = line_in_plane_8
    X = fix.space
    built = []
    extension = essential.extension_matrix

    def counting_extension(src, dst, deg):
        built.append((id(src), id(dst), deg))
        return extension(src, dst, deg)

    monkeypatch.setattr(essential, "extension_matrix", counting_extension)
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    sigma = base.pieces.W.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    built.clear()
    rep = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3, w_classes=[(1, sigma)])
    degrees = {0, 1}  # the W-exactness checks in degrees 0 and 1, the class in degree 1
    assert len(built) == len(set(built)) <= 2 * len(degrees)
    assert all(rep.exactness.values()) and rep.connecting[0]["nonzero_in_proxy"]
    for deg in degrees:  # further snakes reuse the matrices
        connecting_map(rep.pieces, deg, 0)
    assert len(built) <= 2 * len(degrees)
    monkeypatch.undo()
    ext_wa, ext_ax = rep.pieces.extensions(1)
    P = rep.pieces
    assert ext_wa == extension(P.W, P.A, 1) and ext_ax == extension(P.A, P.X, 2)


def test_mv_degenerate_full_component(line_in_plane_8):
    # C1 = X gives B = N_A(W); the connecting map vanishes on all classes
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, X.full_mask(), r=2, A=1, cap=3)
    RW = base.pieces.W
    sigma = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    rep = mv_assemble(X, fix.w, X.full_mask(), r=2, A=1, cap=3, w_classes=[(1, sigma)])
    c = rep.connecting[0]
    assert not c["nonzero_in_proxy"]


def test_mv_naturality_under_translation(line_in_plane_8):
    # the snake commutes with a lattice translation of the input class
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    RW, RX = base.pieces.W, base.pieces.X
    s0 = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    s5 = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 5))
    w0 = connecting_map(base.pieces, 1, s0)
    w5 = connecting_map(base.pieces, 1, s5)
    label = {i: p for i, p in enumerate(X.labels)}
    index = {p: i for i, p in enumerate(X.labels)}

    def translate_supported(vec, dx):
        out = 0
        for t in gf2.bits(vec):
            s = RX.K.simplices[2][RX.rel[2][t]]
            moved = tuple(sorted(index.get((label[v][0] + dx, label[v][1]), -1) for v in s))
            if -1 in moved:
                return None
            j = RX.K.index[2].get(moved)
            if j is None:
                return None
            tt = RX.rel_pos[2].get(j)
            if tt is None:
                return None
            out |= 1 << tt
        return out

    moved = translate_supported(w0, 5)
    assert moved is not None
    assert moved == w5


def test_exactness_checker_detects_breakage(line_in_plane_8, monkeypatch):
    # sabotage the connecting map: with delta~ = 0 the crossing class sits
    # in its kernel but not in the image of p*, so the w-spot must fail
    import coarsetop.essential as essential_mod

    fix = line_in_plane_8
    X = fix.space
    rep = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    assert rep.exactness["w-H1"] is True
    monkeypatch.setattr(essential_mod, "connecting_map", lambda pieces, deg, sigma: 0)
    from coarsetop.essential import _exact_at_w

    assert _exact_at_w(rep.pieces, 1) is False


def test_span_comparator_detects_difference(line_in_plane_8):
    from coarsetop.essential import _span_equal

    assert _span_equal([0b01], [0b10], 2) is False
    assert _span_equal([0b01, 0b10], [0b11, 0b01], 2) is True


def test_exactness_helper_detects_a_missed_kernel_class():
    # g keeps coordinate 0 and the target is {0}, so the kernel side is span(e1)
    from coarsetop.essential import _exact_at

    cocycles, g, target = [0b01, 0b10], (lambda z: z & 1), gf2.GF2Subspace(1)
    assert _exact_at([], cocycles, g, target, [], 2) is False
    assert _exact_at([0b01], cocycles, g, target, [], 2) is False
    assert _exact_at([0b11], cocycles, g, target, [], 2) is False
    assert _exact_at([0b10], cocycles, g, target, [], 2) is True
    assert _exact_at([], cocycles, g, target, [0b10], 2) is True  # a coboundary fills the class


def test_mv_eliminates_each_cocycle_basis_once(line_in_plane_8, monkeypatch):
    # four pieces' cocycle bases in degrees 0 and 1, plus one kernel per exactness spot
    fix = line_in_plane_8
    seen = []
    kernel_basis = gf2.kernel_basis

    def counting_kernel_basis(A):
        seen.append(A)
        return kernel_basis(A)

    monkeypatch.setattr(gf2, "kernel_basis", counting_kernel_basis)
    rep = mv_assemble(fix.space, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    assert len(rep.exactness) == 4 and all(rep.exactness.values())
    assert len(seen) <= 12
    P = rep.pieces
    for piece in (P.X, P.A, P.B, P.W):
        for k in range(3):
            assert sum(A is piece.delta(k) for A in seen) <= 1


def test_two_sided_fundamental_class(line_in_plane_8):
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    RW, RX = base.pieces.W, base.pieces.X
    sigma = RW.cochain_from_edge_predicate(crossing_cochain(X, 0, 0))
    omega = connecting_map(base.pieces, 1, sigma)
    out = two_sided_representability(
        RX, fix.w, fix.components["upper"], fix.components["lower"], 2, omega, s=2
    )
    assert out["verdict"] == "both"
    # witnesses really are side-supported cocycles in the same class
    for key, side in (("witness_a", fix.components["upper"]), ("witness_b", fix.components["lower"])):
        w = out[key]
        assert RX.is_cocycle(2, w)
        allowed = side - neighborhood(X, fix.w, 2)
        assert RX.support_vertices(2, w).issubset(allowed)
        assert RX.class_is_zero(2, w ^ omega) is not None


def test_two_sided_coboundary_is_zero(line_in_plane_8):
    fix = line_in_plane_8
    X = fix.space
    base = mv_assemble(X, fix.w, fix.components["upper"], r=2, A=1, cap=3)
    RX = base.pieces.X
    beta = 1 << (RX.n_rel(1) // 2)
    cb = RX.coboundary(1, beta)
    out = two_sided_representability(
        RX, fix.w, fix.components["upper"], fix.components["lower"], 2, cb, s=2
    )
    assert out["verdict"] == "both"
    assert out["class_zero_verified"]


def test_noncrossing_f2(f2_ball_6):
    # three disjoint deep components off <a>; degree-2 classes representable
    # in two of the side regions are zero, by explicit coboundary solve
    ball = f2_ball_6
    X = ball.space
    W = subgroup_trace(ball, {"cyclic": "a"})
    C1 = X.mask_where(lambda g: bool(g) and g[0] == 2)
    C2 = X.mask_where(lambda g: bool(g) and g[0] == -2)
    C3 = X.full_mask() - C1 - C2 - W
    assert len(C1) and len(C2) and len(C3)
    K = build_rips(X, X.full_mask(), 2, 3)
    R = RelativeComplex(K, X.interior_mask(1))
    s0 = 2
    allowed = C1 - neighborhood(X, W, s0)
    pos = R.simplex_positions_within(2, allowed)
    delta2 = R.delta(2)
    sub = gf2.GF2Matrix(delta2.rows, len(pos), [delta2.columns[t] for t in pos])
    checked = 0
    for m in gf2.kernel_basis(sub)[:8]:
        vec = 0
        for b in gf2.bits(m):
            vec |= 1 << pos[b]
        out = two_sided_representability(R, W, C1, C2, 2, vec, s=s0)
        if out["verdict"] == "both":
            assert out["class_zero_verified"]
            checked += 1
    assert checked > 0
