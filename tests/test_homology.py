"""Reduced homology, two-scale images, ends, acyclicity, PD signature."""

import pytest

from coarsetop.errors import WindowTooSmallError
from coarsetop.fixtures import grid_fixture
from coarsetop.groups import FreeAbelian, FreeGroup, build_ball
from coarsetop.homology import (
    WindowSchedule,
    annulus_mask,
    class_survives,
    coarse_cohomology_dim_estimate,
    default_schedules,
    ends_estimate,
    pd_signature_check,
    reduced_homology,
    schedule_inclusions,
    schedule_two_scale,
    two_scale_image,
    two_scale_image_along,
    uniform_acyclicity_probe,
)
from coarsetop.metric import SubsetMask
from coarsetop.rips import build_rips

from oracles import (
    TableSpace,
    acyclicity_per_radius,
    bfs_distances,
    flood_fill_components,
    from_graph,
    reduced_homology_by_extension,
    to_rows,
    two_scale_image_by_extension,
)


def zsched(R, S_values, i=1, j=1, collar=2):
    return [WindowSchedule(S=s, i=i, S_out=max(0, s - j), j=j, R=R, collar=collar) for s in S_values]


def random_graph_complex(seed, n=10, r=2, cap=3):
    import random as _random

    rng = _random.Random(seed)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    edges += [(i, i + 1) for i in range(n - 1)]
    X = from_graph(n, edges)
    return build_rips(X, X.full_mask(), r, cap)


def test_reduced_homology_matches_dense_oracle():
    # dim H~_k = dim ker d_k - rank d_{k+1}, recomputed with dense textbook
    # elimination on the dense boundary matrices
    from oracles import dense_rank_gf2

    for seed in range(12):
        K = random_graph_complex(seed)
        for k in range(3):
            if K.n_simplices(k) == 0:
                continue
            rank, reps = reduced_homology(K, k)
            dk = to_rows(K.boundary(k))
            dk1 = to_rows(K.boundary(k + 1)) if K.n_simplices(k + 1) else None
            ker_dim = K.n_simplices(k) - dense_rank_gf2(dk)
            im_dim = dense_rank_gf2(dk1) if dk1 else 0
            assert rank == ker_dim - im_dim
            assert len(reps) == rank


def test_euler_characteristic_consistency():
    # alternating simplex counts equal alternating homology dimensions of
    # the truncated complex (H_0 = H~_0 + 1 on a nonempty complex; the top
    # homology of the truncation is the full cycle space there)
    import coarsetop.gf2 as gf2

    for seed in (3, 7, 21):
        K = random_graph_complex(seed, n=9, r=1, cap=3)
        chi_counts = sum((-1) ** k * K.n_simplices(k) for k in range(4))
        h = [reduced_homology(K, k)[0] for k in range(3)]
        top_cycles = len(gf2.kernel_basis(K.boundary(3)))
        chi_hom = (h[0] + 1) - h[1] + h[2] - top_cycles
        assert chi_counts == chi_hom


def test_circle_has_one_loop():
    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)]
    X = from_graph(n, edges)
    K = build_rips(X, X.full_mask(), 1, 2)
    assert reduced_homology(K, 0)[0] == 0
    assert reduced_homology(K, 1)[0] == 1


def test_reduced_h0_connected(z_ball_12):
    X = z_ball_12.space
    K = build_rips(X, X.full_mask(), 1, 1)
    rank, _ = reduced_homology(K, 0)
    assert rank == 0


def test_reduced_h0_two_components():
    X = TableSpace([[0, 9], [9, 0]])
    K = build_rips(X, X.full_mask(), 1, 1)
    rank, reps = reduced_homology(K, 0)
    assert rank == 1
    assert K.boundary_of_chain(0, reps[0]) == 0


def test_annulus_circle_class(z2_ball_12):
    X = z2_ball_12.space
    ann = X.mask_where(lambda p: 3 < abs(p[0]) + abs(p[1]) <= 9)
    K = build_rips(X, ann, 2, 2)
    rank, reps = reduced_homology(K, 1)
    assert rank == 1
    z = reps[0]
    assert K.boundary_of_chain(1, z) == 0


def test_two_scale_identity_is_full_rank(z2_ball_12):
    X = z2_ball_12.space
    ann = X.mask_where(lambda p: 3 < abs(p[0]) + abs(p[1]) <= 9)
    K = build_rips(X, ann, 2, 2)
    img = two_scale_image(K, K, 1)
    rank, _ = reduced_homology(K, 1)
    assert img.rank == rank


@pytest.mark.parametrize(
    "space, R, scales",
    [
        (lambda: build_ball(FreeAbelian(2), 8).space, 8, [(1, 1), (1, 2)]),
        (lambda: build_ball(FreeGroup(2), 5).space, 5, [(1, 1)]),
        (lambda: grid_fixture("fig1_halfplane_flap", 6).space, 6, [(1, 1), (1, 2)]),
        (lambda: grid_fixture("fig2_plane_fin", 4).space, 4, [(1, 1)]),
    ],
    ids=["Z^2", "F_2", "fig1", "fig2"],
)
def test_boundary_space_reads_match_extending_it_in_place(space, R, scales):
    # the ranks and representatives that reduced_homology and two_scale_image
    # read modulo RipsComplex.boundary_space, against a fresh boundary span
    # extended in place by the cycles or their images
    X = space()
    for i, j in scales:
        schedules = [WindowSchedule(S=S, i=i, S_out=S - j, j=j, R=R, collar=1) for S in range(j, R - 1 - i)]
        for f in schedule_inclusions(X, schedules, 2):
            for k in (0, 1):
                img = two_scale_image_along(f, k)
                assert (img.rank, img.classes) == two_scale_image_by_extension(f.source, f.target, k), (i, j, k)
                for K in (f.source, f.target):
                    assert reduced_homology(K, k) == reduced_homology_by_extension(K, k), (i, j, k)


def test_two_scale_two_points_die_in_connected_window(z_ball_12):
    X = z_ball_12.space
    two = SubsetMask(X.n, [z_ball_12.index[(-6,)], z_ball_12.index[(6,)]])
    inner = build_rips(X, two, 1, 1)
    outer = build_rips(X, X.full_mask(), 1, 1)
    img = two_scale_image(inner, outer, 0)
    assert img.rank == 0


def test_two_scale_annulus_vs_ball(z2_ball_12):
    # circle class dies in the full ball, survives in a larger annulus
    X = z2_ball_12.space
    inner = build_rips(X, X.mask_where(lambda p: 4 < abs(p[0]) + abs(p[1]) <= 8), 1, 2)
    full = build_rips(X, X.full_mask(), 2, 2)
    bigger_ann = build_rips(X, X.mask_where(lambda p: 2 < abs(p[0]) + abs(p[1])), 2, 2)
    img_dead = two_scale_image(inner, full, 1)
    img_live = two_scale_image(inner, bigger_ann, 1)
    assert img_dead.rank == 0
    assert img_live.rank == 1
    assert class_survives(img_live, img_live.classes[0])


def test_two_scale_rank_antitone_in_outer_growth(z2_ball_12):
    X = z2_ball_12.space
    inner = build_rips(X, X.mask_where(lambda p: 4 < abs(p[0]) + abs(p[1]) <= 8), 1, 2)
    ranks = []
    for lo in (3, 2, 0):
        outer = build_rips(X, X.mask_where(lambda p: lo < abs(p[0]) + abs(p[1])), 2, 2)
        ranks.append(two_scale_image(inner, outer, 1).rank)
    assert ranks[0] >= ranks[1] >= ranks[2]
    # and antitone in the outer scale at a fixed region
    region = X.mask_where(lambda p: 3 < abs(p[0]) + abs(p[1]))
    by_scale = [
        two_scale_image(inner, build_rips(X, region, j, 2), 1).rank for j in (2, 3, 4)
    ]
    assert by_scale[0] >= by_scale[1] >= by_scale[2]


def test_ends_z(z_ball_24):
    rep = ends_estimate(z_ball_24.space, zsched(24, (4, 6, 8)))
    assert rep.deep_counts == [2, 2, 2]
    assert rep.verdict == 2


def test_ends_z2(z2_ball_16):
    rep = ends_estimate(z2_ball_16.space, zsched(16, (3, 4, 5)))
    assert rep.verdict == 1


def test_ends_f2_growing(f2_ball_6):
    rep = ends_estimate(f2_ball_6.space, zsched(6, (1, 2, 3), collar=1))
    assert rep.deep_counts == [12, 36, 108]
    assert rep.verdict == "growing"


def test_ends_components_match_flood_fill(z_ball_24):
    # the annulus of Z splits into its two ends at every scale below the gap;
    # the oracle's scale-s neighbours come from its own BFS over the Cayley graph
    X = z_ball_24.space
    mask = annulus_mask(X, 6)
    for scale in (1, 2, 3):
        near = [
            [w for w, d in bfs_distances(X._adj, v).items() if 0 < d <= scale] for v in range(X.n)
        ]
        oracle = flood_fill_components(mask.sorted_ids(), near.__getitem__)
        assert X.components(mask, scale) == [sorted(c) for c in oracle]
        assert len(oracle) == 2


def test_dim_estimates_match_ends(z_ball_24, z2_ball_16):
    d1 = coarse_cohomology_dim_estimate(z_ball_24.space, 1, zsched(24, (4, 6, 8)))
    assert d1.verdict == 1
    d2 = coarse_cohomology_dim_estimate(z2_ball_16.space, 1, zsched(16, (3, 4, 5)))
    assert d2.verdict == 0


def test_dim_estimate_z2_degree_2(z2_ball_16):
    scheds = [WindowSchedule(S=s, i=2, S_out=2, j=2, R=16, collar=2) for s in (4, 5, 6)]
    rep = coarse_cohomology_dim_estimate(z2_ball_16.space, 2, scheds)
    assert rep.ranks == [1, 1, 1]
    assert rep.verdict == 1


def test_dim_estimate_rejects_degree_zero(z_ball_12):
    with pytest.raises(ValueError):
        coarse_cohomology_dim_estimate(z_ball_12.space, 0, zsched(12, (3, 4, 5)))


def test_schedule_validation():
    with pytest.raises(WindowTooSmallError):
        WindowSchedule(S=3, i=1, S_out=3, j=2, R=16, collar=2).validate()  # S_out + j > S
    with pytest.raises(WindowTooSmallError):
        WindowSchedule(S=10, i=1, S_out=8, j=1, R=12, collar=2).validate()  # R - collar <= S + i
    scheds = default_schedules(16)
    assert len(scheds) >= 3
    for s in scheds:
        s.validate()


def test_default_schedules_too_small():
    with pytest.raises(WindowTooSmallError):
        default_schedules(4)


def test_every_survivor_has_verified_representative(z2_ball_16):
    sched = WindowSchedule(S=4, i=2, S_out=2, j=2, R=16, collar=2)
    img = schedule_two_scale(z2_ball_16.space, 1, sched)
    assert img.rank == len(img.classes)
    for z in img.classes:
        assert class_survives(img, z)


def test_acyclicity_z_line(z_ball_24):
    prof = uniform_acyclicity_probe(z_ball_24.space, 0, [0], [1], [1, 3, 5], 3, 8)
    for e in prof.entries:
        assert not e.failed
        assert (e.lam, e.mu) == (1, e.r)  # intervals are connected already


def test_acyclicity_z2(z2_ball_16):
    prof = uniform_acyclicity_probe(z2_ball_16.space, 1, [0], [1], [1, 2, 3, 4, 5], 3, 8)
    bounds = prof.uniform_bounds()
    assert not prof.failures()
    assert bounds[(1, 1)]["lambda"] == 2
    assert all(mu == r for r, mu in bounds[(1, 1)]["mu"].items())


def capped_tube(ring=8, levels=5):
    """The grid C_ring x P_levels coned off at its last ring; a ring-0 cycle at scale 2 dies only past the cone."""
    apex = levels * ring
    edges = [(apex, apex - ring + p) for p in range(ring)]
    for base in range(0, apex, ring):
        edges += [(base + p, base + (p + 1) % ring) for p in range(ring)]
        edges += [(base + p, base + ring + p) for p in range(ring) if base + ring < apex]
    return from_graph(apex + 1, edges)


@pytest.mark.parametrize(
    "space, args",
    [
        ("z_ball_12", (0, [0, 3], [0, 1], [1, 3, 5, 8], 2, 6)),
        ("z2_ball_10", (1, [0, 0, 5], [1, 2, 1], [1, 2, 2, 3, 8], 3, 6)),
        ("f2_ball_6", (1, [0, 2], [0, 1], [0, 1, 2, 9], 3, 4)),
        ("line_in_plane_8", (1, [40, 40], [1, 0], [2, 1, 7], 2, 5)),
        ("capped_tube", (1, [0, 0], [2, 1], [3, 4, 5, 6, 12], 3, 9)),
    ],
    ids=["Z", "Z^2", "F_2", "line_in_plane", "capped_tube"],
)
def test_acyclicity_walk_matches_per_radius_search(request, space, args):
    # one (lambda, mu) walk per (x, k, i) finds every r's first hit; with
    # duplicate centres, i and r, i = 0 and r > mu_max among the inputs, and
    # on the tube hits at mu > r, some of them shared by several r
    X = capped_tube() if space == "capped_tube" else request.getfixturevalue(space).space
    prof = uniform_acyclicity_probe(X, *args)
    got = [(e.center, e.k, e.i, e.r, e.lam, e.mu, e.failed) for e in prof.entries]
    assert got == acyclicity_per_radius(X, *args)
    assert any(e.failed for e in prof.entries) and any(not e.failed for e in prof.entries)
    if space == "capped_tube":
        assert (0, 1, 1, 4, 2, 6, False) in got and (0, 1, 1, 5, 2, 6, False) in got


def counting_builds(monkeypatch) -> list:
    """(mask ids, scale, cap) of every complex that ``homology`` builds from here on."""
    import coarsetop.homology as homology

    built = []
    build_rips = homology.build_rips

    def counting(X, V, r, m, **kwargs):
        built.append((V.ids, r, m))
        return build_rips(X, V, r, m, **kwargs)

    monkeypatch.setattr(homology, "build_rips", counting)
    return built


def test_acyclicity_builds_each_complex_once(monkeypatch, z2_ball_10):
    built = counting_builds(monkeypatch)
    prof = uniform_acyclicity_probe(z2_ball_10.space, 1, [0, 0], [1, 1], [1, 2, 2, 3], 3, 6)
    assert len(prof.entries) == 2 * 2 * 2 * 4
    assert len(built) == len(set(built))


def test_acyclicity_two_point_failure():
    X = TableSpace(
        [[0, 10], [10, 0]], labels=[0, 10], radial=[0, 10], window_radius=10, basepoint=0
    )
    prof = uniform_acyclicity_probe(X, 0, [0], [1], [10], 5, 12)
    assert prof.failures()
    assert all(e.lam >= e.i if e.lam else True for e in prof.entries)


def test_pd_signature_z_z2_f2(z_ball_24, z2_ball_16, f2_ball_6):
    assert pd_signature_check(z_ball_24.space, 1, zsched(24, (4, 6, 8))).passed
    rep2 = pd_signature_check(
        z2_ball_16.space, 2, [WindowSchedule(S=s, i=2, S_out=2, j=2, R=16, collar=2) for s in (4, 5, 6)]
    )
    assert rep2.passed
    assert rep2.degree_verdicts == {1: 0, 2: 1}
    repf = pd_signature_check(f2_ball_6.space, 1, zsched(6, (1, 2, 3), collar=1))
    assert not repf.passed
    assert repf.degree_verdicts[1] == "growing"


def test_pd_gate_builds_each_schedule_once(monkeypatch, z2_ball_16):
    # the gate builds each schedule's inner and outer complex once, to
    # dimension n, and reads every degree off them; the ranks, verdicts and
    # degree-n classes are those of one build per degree
    import coarsetop.homology as homology

    X = z2_ball_16.space
    scheds = [WindowSchedule(S=s, i=2, S_out=2, j=2, R=16, collar=2) for s in (4, 5, 6)]
    per_degree = [coarse_cohomology_dim_estimate(X, k, scheds) for k in (1, 2)]
    built = []
    build_rips = homology.build_rips

    def counting(X, V, r, m, **kwargs):
        built.append(m)
        return build_rips(X, V, r, m, **kwargs)

    monkeypatch.setattr(homology, "build_rips", counting)
    rep = pd_signature_check(X, 2, scheds)
    assert len(built) == 2 * len(scheds) and set(built) == {2}  # one build per degree made 12
    assert rep.degree_verdicts == {k: d.verdict for k, d in zip((1, 2), per_degree)}
    assert [img.rank for img in rep.images] == per_degree[1].ranks
    assert [img.classes for img in rep.images] == [img.classes for img in per_degree[1].images]


def test_pd_gate_fails_in_degree_order(z2_ball_16):
    # under a cap of 4,000 the first schedule fits to dimension 1 (2,364 and
    # 3,428 simplices) but not to dimension 2 (5,492 inner); every window
    # check runs before any build, so the second schedule's own failure
    # comes before the first schedule's build meets the cap
    sched = WindowSchedule(S=4, i=2, S_out=2, j=2, R=16, collar=2)
    bad = WindowSchedule(S=3, i=1, S_out=3, j=2, R=16, collar=2)  # S_out + j > S
    with pytest.raises(WindowTooSmallError):
        pd_signature_check(z2_ball_16.space, 2, [sched, bad], max_simplices=4000)


def test_pd_gate_checks_every_window_before_building(monkeypatch, z2_ball_16):
    built = counting_builds(monkeypatch)
    sched = WindowSchedule(S=4, i=2, S_out=2, j=2, R=16, collar=2)
    bad = WindowSchedule(S=3, i=1, S_out=3, j=2, R=16, collar=2)  # S_out + j > S
    with pytest.raises(WindowTooSmallError):
        pd_signature_check(z2_ball_16.space, 2, [sched, bad])
    assert built == []  # the shared build and then the per-degree fallback made 4
