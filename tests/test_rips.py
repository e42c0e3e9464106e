"""Rips complexes, boundary matrices, cycle filling, chain maps."""

import random

import pytest

import coarsetop.gf2 as gf2
from coarsetop.errors import ComplexTooLargeError, NotACycleError, NotASubcomplexError
from coarsetop.groups import FreeAbelian, build_ball
from coarsetop.metric import SubsetMask
from coarsetop.rips import build_rips, fill_cycle, inclusion_chain_map, induced_chain_map

from oracles import (
    TableSpace,
    banded_columns_by_definition,
    brute_force_simplices,
    chain_from_simplices,
    echelon_entries,
    from_graph,
    line,
    reference_feeds,
    two_feeds,
    unpacked,
    within_by_definition,
)


def triangle_space():
    table = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    return TableSpace(table)


def test_three_point_triangle():
    X = triangle_space()
    K = build_rips(X, X.full_mask(), 1, 2)
    assert [K.n_simplices(k) for k in range(3)] == [3, 3, 1]


def test_line_path_graph():
    X = line(0, 4)
    K = build_rips(X, X.full_mask(), 1, 1)
    assert K.n_simplices(0) == 5
    assert K.n_simplices(1) == 4


def test_no_l1_triangles_at_scale_1(z2_ball_10):
    K = build_rips(z2_ball_10.space, z2_ball_10.space.full_mask(), 1, 2)
    assert K.n_simplices(2) == 0


def test_simplices_match_brute_force(z2_ball_10):
    X = z2_ball_10.space
    sub = X.mask_where(lambda p: abs(p[0]) <= 2 and abs(p[1]) <= 2)
    K = build_rips(X, sub, 2, 2)
    oracle = brute_force_simplices(sub.sorted_ids(), X.dist, 2, 2)
    for k in range(3):
        assert list(K.simplices[k]) == sorted(oracle[k])


def test_simplex_views_invert_each_other(z2_ball_10):
    # index[k] finds exactly the tuples simplices[k] lists, at their positions
    X = z2_ball_10.space
    K = build_rips(X, X.mask_where(lambda p: abs(p[0]) <= 3 and abs(p[1]) <= 3), 2, 3)
    for k in range(K.cap + 1):
        listed = list(K.simplices[k])
        assert len(K.index[k]) == len(K.simplices[k]) == len(listed) == K.n_simplices(k)
        assert [K.index[k][s] for s in listed] == list(range(len(listed)))
        assert [K.simplices[k][j] for j in range(len(listed))] == listed
    edge = K.simplices[1][0]
    assert K.index[1].get(edge[:1]) is None and K.index[1].get(edge[::-1]) is None
    with pytest.raises(KeyError):
        K.index[0][(X.n,)]


def test_boundary_squares_to_zero(z2_ball_10, f2_ball_6):
    for space, r, m in ((z2_ball_10.space, 2, 3), (f2_ball_6.space, 2, 2)):
        K = build_rips(space, space.full_mask(), r, m)
        for k in range(2, m + 1):
            assert not any(K.boundary(k - 1).matmul(K.boundary(k)).columns)
        # augmentation: eps boundary_1 = 0
        assert not any(K.boundary(0).matmul(K.boundary(1)).columns)


def test_complex_too_large():
    # Z^2 R=8 at scale 2 has 145 vertices, 738 edges and 1,158 triangles; the
    # counts name every whole dimension and the simplices of the one that
    # passed the cap, up to the first one beyond it (they reach the report)
    ball = build_ball(FreeAbelian(2), 8)
    for cap, counts in ((100, {0: 145}), (200, {0: 145, 1: 56}), (1000, {0: 145, 1: 738, 2: 118})):
        with pytest.raises(ComplexTooLargeError) as err:
            build_rips(ball.space, ball.space.full_mask(), 2, 2, max_simplices=cap)
        assert err.value.counts == counts and err.value.cap == cap


def test_fill_cycle_unit_square(z2_ball_10):
    X = z2_ball_10.space
    ball = z2_ball_10
    ids = [ball.index[p] for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    K1 = build_rips(X, X.full_mask(), 1, 2)
    square = chain_from_simplices(
        K1, 1, [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[3]), (ids[0], ids[3])]
    )
    assert fill_cycle(K1, 1, square) is None  # no 2-simplices at scale 1
    K2 = build_rips(X, X.full_mask(), 2, 2)
    square2 = chain_from_simplices(
        K2, 1, [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[3]), (ids[0], ids[3])]
    )
    w = fill_cycle(K2, 2 - 1, square2)
    assert w is not None
    assert K2.boundary_of_chain(2, w) == square2


def test_fill_cycle_soundness_random_boundaries(f2_ball_6):
    X = f2_ball_6.space
    K = build_rips(X, X.full_mask(), 2, 2)
    rng = random.Random(17)
    for _ in range(10):
        sigma = 0
        for _ in range(4):
            sigma ^= 1 << rng.randrange(K.n_simplices(2))
        z = K.boundary_of_chain(2, sigma)
        w = fill_cycle(K, 1, z)
        assert w is not None
        assert K.boundary_of_chain(2, w) == z


def test_fill_zero_cycle_path(z_ball_12):
    X = z_ball_12.space
    K = build_rips(X, X.full_mask(), 1, 1)
    a, b = z_ball_12.index[(-4,)], z_ball_12.index[(7,)]
    z = chain_from_simplices(K, 0, [(a,), (b,)])
    w = fill_cycle(K, 0, z)
    assert w is not None and K.boundary_of_chain(1, w) == z
    # odd augmentation rejected
    with pytest.raises(NotACycleError):
        fill_cycle(K, 0, 1 << 0)


def test_fill_monotone_in_locality_and_scale(z2_ball_10):
    # fillable at (r, locality) stays fillable at larger scale and larger
    # locality, re-solved from scratch
    X = z2_ball_10.space
    ball = z2_ball_10
    ids = [ball.index[p] for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    edges = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[3]), (ids[0], ids[3])]
    center = ids[0]
    K2 = build_rips(X, X.full_mask(), 2, 2)
    sq2 = chain_from_simplices(K2, 1, edges)
    small = fill_cycle(K2, 1, sq2, locality=(center, 2))
    large = fill_cycle(K2, 1, sq2, locality=(center, 5))
    assert small is not None and large is not None
    assert K2.boundary_of_chain(2, small) == sq2
    # only the simplices inside N_radius(center) enter: the local fill lies
    # there, and N_1 misses the corner (1, 1), so nothing fills inside it
    near = {v for v, d in enumerate(X.dist_row(center)) if 0 <= d <= 2}
    assert all(near.issuperset(K2.simplices[2][t]) for t in gf2.bits(small))
    assert fill_cycle(K2, 1, sq2, locality=(center, 1)) is None
    K3 = build_rips(X, X.full_mask(), 3, 2)
    sq3 = chain_from_simplices(K3, 1, edges)
    again = fill_cycle(K3, 1, sq3, locality=(center, 2))
    assert again is not None and K3.boundary_of_chain(2, again) == sq3


def test_inclusion_chain_map_identity(z2_ball_10):
    X = z2_ball_10.space
    K = build_rips(X, X.full_mask(), 1, 1)
    cm = inclusion_chain_map(K, K)
    cm.validate()
    for k in range(2):
        n = K.n_simplices(k)
        assert cm.mats[k] == gf2.GF2Matrix(n, n, [1 << i for i in range(n)])


def test_inclusion_scale_and_window(z2_ball_10):
    X = z2_ball_10.space
    inner_mask = X.mask_where(lambda p: abs(p[0]) + abs(p[1]) <= 4)
    K = build_rips(X, inner_mask, 1, 1)
    L = build_rips(X, X.full_mask(), 2, 1)
    cm = inclusion_chain_map(K, L)
    cm.validate()
    # injective on simplices
    cols = cm.mats[1].columns
    assert len(set(cols)) == len(cols)
    with pytest.raises(NotASubcomplexError):
        inclusion_chain_map(L, K)


def test_induced_chain_map_identity_is_inclusion(z2_ball_10):
    X = z2_ball_10.space
    K = build_rips(X, X.full_mask(), 1, 1)
    cm = induced_chain_map({v: v for v in range(X.n)}, K, X, [1, 1])
    cm.validate()
    assert cm.mats == inclusion_chain_map(K, cm.target).mats


def test_induced_chain_map_doubling(z_ball_12):
    zline = build_ball(FreeAbelian(1), 5)
    big = z_ball_12
    K = build_rips(zline.space, zline.space.full_mask(), 1, 1)
    f = {i: big.index[(2 * g[0],)] for i, g in enumerate(zline.elements)}
    cm = induced_chain_map(f, K, big.space, [1, 1])
    cm.validate()
    # every edge maps to the 2-step path between the doubled endpoints
    for j, (u, v) in enumerate(K.simplices[1]):
        img = cm.mats[1].columns[j]
        assert gf2.popcount(img) == 2


def test_axis_inclusion_induced_map(z2_ball_10):
    X = z2_ball_10.space
    axis_pts = [i for i, g in enumerate(z2_ball_10.elements) if g[1] == 0]
    zline = build_ball(FreeAbelian(1), 10)
    K = build_rips(zline.space, zline.space.full_mask(), 1, 1)
    f = {i: z2_ball_10.index[(g[0], 0)] for i, g in enumerate(zline.elements)}
    cm = induced_chain_map(f, K, X, [1, 1])
    cm.validate()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 10), st.integers(1, 3))
def test_boundary_squared_zero_random_graphs(seed, n, r):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    edges += [(i, i + 1) for i in range(n - 1)]
    X = from_graph(n, edges)
    K = build_rips(X, X.full_mask(), r, 3)
    for k in range(1, 4):
        if K.n_simplices(k):
            assert not any(K.boundary(k - 1).matmul(K.boundary(k)).columns)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_fill_soundness_random_graphs(seed):
    rng = random.Random(seed)
    n = 9
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45]
    edges += [(i, i + 1) for i in range(n - 1)]
    X = from_graph(n, edges)
    K = build_rips(X, X.full_mask(), 2, 2)
    if not K.n_simplices(2):
        return
    sigma = 1 << rng.randrange(K.n_simplices(2))
    z = K.boundary_of_chain(2, sigma)
    w = fill_cycle(K, 1, z)
    assert w is not None
    assert K.boundary_of_chain(2, w) == z


def test_induced_map_schedule_exhausted(z_ball_12):
    # doubling into the even sublattice only: boundary images are two points
    # at distance 2 with no connecting chain at scale 1 anywhere
    from coarsetop.errors import ScheduleExhaustedError
    from coarsetop.groups import build_ball

    zline = build_ball(FreeAbelian(1), 4)
    big = z_ball_12
    K = build_rips(zline.space, zline.space.full_mask(), 1, 1)
    evens = big.space.mask_where(lambda g: g[0] % 2 == 0)
    f = {i: big.index[(2 * g[0],)] for i, g in enumerate(zline.elements)}
    with pytest.raises(ScheduleExhaustedError):
        induced_chain_map(f, K, big.space, [1, 1], target_mask=evens)


# -- the cone rule: coned boundary columns are skipped exactly ----------------------

import functools
from unittest import mock

from coarsetop.homology import class_survives, reduced_homology, two_scale_image
from coarsetop.rips import RipsComplex

from oracles import every_column


@functools.lru_cache(maxsize=None)
def _grid(dim, R):
    return build_ball(FreeAbelian(dim), R).space


@st.composite
def cone_cases(draw):
    """(complex, column dimension d, apex, rng): small Z^2/Z^3 regions and random graphs."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["Z2", "Z3", "graph"]))
    if kind == "graph":
        n = draw(st.integers(6, 10))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
        X = from_graph(n, edges + [(i, i + 1) for i in range(n - 1)])
    else:
        X = _grid(2, 4) if kind == "Z2" else _grid(3, 2)
    region = SubsetMask(X.n, (v for v in range(X.n) if v == 0 or rng.random() < 0.85))
    d = draw(st.integers(1, 3))
    K = build_rips(X, region, draw(st.integers(1, 3)), d)
    keep = draw(st.sampled_from([0.3, 0.6, 1.0]))
    apex = SubsetMask(X.n, (v for v in range(X.n) if rng.random() < keep))  # may leave the region
    return K, d, apex, rng


def _two_phase_order(K, d, apex):
    """Local columns inside the apex, then the rest: the essential probe's feed."""
    local = list(K.simplices_within(d, apex))
    inside = set(local)
    rest = [j for j in range(K.n_simplices(d)) if j not in inside]
    return local, rest, list(K.uncone(d, local, apex)), list(K.uncone(d, rest))


@settings(max_examples=60, deadline=None)
@given(cone_cases())
def test_coned_columns_lie_in_the_span_fed_before_them(case):
    K, d, apex, _ = case
    local, rest, kept_local, kept_rest = _two_phase_order(K, d, apex)
    assert kept_local == sorted(kept_local) and set(kept_local) <= set(local)
    assert kept_rest == sorted(kept_rest) and set(kept_rest) <= set(rest)
    kept = set(kept_local) | set(kept_rest)
    cols = list(K.iter_boundary_columns(d))
    space = gf2.GF2Subspace()
    for j in local + rest:
        if j in kept:
            space.insert(cols[j])
        else:
            assert space.contains(cols[j]), K.simplices[d][j]


@settings(max_examples=60, deadline=None)
@given(cone_cases(), st.sampled_from(["boundary", "random", "mixed"]))
def test_solve_over_kept_columns_matches_all_columns(case, kind):
    K, d, apex, rng = case
    rows = K.n_simplices(d - 1)
    b = 0
    if kind != "random" and K.n_simplices(d):
        b = K.boundary_of_chain(d, rng.getrandbits(K.n_simplices(d)))
    if kind != "boundary" and rows:
        b ^= 1 << rng.randrange(rows)
    cols = list(K.iter_banded_columns(d))
    local, rest, kept_local, kept_rest = _two_phase_order(K, d, apex)
    solves = []
    for phases in ((local, rest), (kept_local, kept_rest)):
        solve = gf2.ColumnSolve(b, track=True)
        x = solve.feed(cols[j] for j in phases[0])
        fill = None if x is None else gf2.vector_from_indices(phases[0][t] for t in gf2.bits(x))
        solve.drop_witness()
        feasible = solve.feed(cols[j] for j in phases[1]) is not None
        solves.append((fill, feasible, {p: v for p, (v, _) in echelon_entries(solve.space).items()}))
    assert solves[0] == solves[1]


@settings(max_examples=80, deadline=None)
@given(cone_cases(), st.sampled_from(["sparse", "dense", "boundary"]), st.booleans(), st.booleans())
def test_packed_columns_solve_as_their_plain_ints(case, kind, track, drop):
    # the builder's packed columns fed to a ColumnSolve in the essential
    # probe's two phases (inside the apex, then the rest), with or without
    # tracking and with or without dropping the witness between, against
    # the same columns as plain ints read by the plain reference: the same
    # answers, stopping row, columns pulled, residue, built pivots and
    # combination masks
    K, d, apex, rng = case
    rows, n = K.n_simplices(d - 1), K.n_simplices(d)
    b = 0
    if kind == "boundary" and n:
        b = K.boundary_of_chain(d, rng.getrandbits(n))
    elif kind == "dense":
        b = rng.getrandbits(rows)
    elif rows:
        b = 1 << rng.randrange(rows)
    local, rest = _two_phase_order(K, d, apex)[:2]
    packed = list(K.iter_banded_columns(d))
    plain = list(K.iter_boundary_columns(d))
    assert plain == [unpacked(c, lo) for c, lo in packed]
    order = local + rest
    got, got_out = two_feeds(b, [packed[j] for j in order], len(local), track, drop)
    want_out, want_rest, want_entries = reference_feeds(b, [plain[j] for j in order], len(local), track, drop)
    assert got_out == want_out
    assert got.rest << got.off == want_rest
    assert echelon_entries(got.space) == want_entries


@settings(max_examples=30, deadline=None)
@given(cone_cases(), st.integers(0, 3))
def test_fills_and_images_match_the_unskipped_computation(case, radius):
    K, d, apex, rng = case
    k = d - 1
    X = K.space
    inner = build_rips(X, SubsetMask(X.n, (v for v in K.vertex_mask.ids if v in apex.ids)), max(1, K.scale - 1), d)
    zs = [K.boundary_of_chain(d, rng.getrandbits(K.n_simplices(d))) for _ in range(2)]
    center = rng.choice(K.vertices)

    def compute():
        fills = [fill_cycle(K, k, z) for z in zs] + [fill_cycle(K, k, z, (center, radius)) for z in zs]
        if k == 0:
            return fills
        image = two_scale_image(inner, K, k)
        reps = list(image.classes)
        survives = [class_survives(image, z) for z in gf2.kernel_basis(inner.boundary(k))[:4]]
        return fills, image.rank, reps, survives, reduced_homology(K, k)

    with mock.patch.object(RipsComplex, "uncone", every_column):
        expected = compute()
    assert compute() == expected


def test_uncone_skips_most_grid_columns():
    X = _grid(2, 4)
    K = build_rips(X, X.full_mask(), 3, 2)
    assert len(list(K.uncone(2))) < 0.8 * K.n_simplices(2)
    assert len(list(K.uncone(1))) == X.n - 1  # the edges kept are exactly a spanning tree
    assert list(K.uncone(2, [])) == [] and list(K.uncone(0)) == list(range(X.n))


# -- clique growth, face lookups and the lazy cone test against their definitions ----

from itertools import combinations, islice, zip_longest

from oracles import uncone_by_definition


@st.composite
def small_spaces(draw):
    """(space, vertex mask, r, m): a random graph or distance table on at most 12 points."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        X = from_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3])
    else:
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                table[a][b] = table[b][a] = rng.randint(1, 5)
        X = TableSpace(table)
    V = SubsetMask(X.n, (v for v in range(n) if rng.random() < 0.8))
    return X, V, draw(st.integers(0, 3)), draw(st.integers(0, 3))


def capped_counts(levels, cap):
    """``ComplexTooLargeError.counts`` by definition, or None when every simplex fits.

    Dimensions are made whole and in order. The vertices are all made
    before the first check; in a higher dimension the count stops at the
    first simplex beyond the cap.
    """
    counts, made = {}, 0
    for k, size in enumerate(levels):
        if made + size > cap:
            counts[k] = size if k == 0 else cap - made + 1
            return counts
        counts[k] = size
        made += size
    return None


@settings(max_examples=40, deadline=None)
@given(small_spaces())
def test_build_rips_matches_brute_force_at_every_cap(case):
    X, V, r, m = case
    K = build_rips(X, V, r, m)
    oracle = brute_force_simplices(V.sorted_ids(), X.dist, r, m)
    for k in range(m + 1):
        assert list(K.simplices[k]) == oracle[k] == sorted(oracle[k])
    levels = [len(oracle[k]) for k in range(m + 1)]
    for cap in range(1, sum(levels) + 2):
        want = capped_counts(levels, cap)
        if want is None:
            capped = build_rips(X, V, r, m, max_simplices=cap)
            assert [list(capped.simplices[k]) for k in range(m + 1)] == [oracle[k] for k in range(m + 1)]
            continue
        with pytest.raises(ComplexTooLargeError) as err:
            build_rips(X, V, r, m, max_simplices=cap)
        assert err.value.counts == want


@settings(max_examples=40, deadline=None)
@given(small_spaces(), st.randoms(use_true_random=False))
def test_simplex_tree_matches_the_clique_oracle(case, rng):
    # every read of the simplex tree against brute-force cliques: order,
    # lookups (absent and unsorted tuples give None), banded columns whose lo
    # is the prefix index, the cone test, masked walks, and the cap counts
    # just below, at and just above each dimension's running total
    X, V, r, m = case
    K = build_rips(X, V, r, m)
    oracle = brute_force_simplices(V.sorted_ids(), X.dist, r, m)
    mask = SubsetMask(X.n, (v for v in range(X.n) if rng.random() < 0.6))
    for k in range(m + 1):
        assert list(K.simplices[k]) == oracle[k] and len(K.simplices[k]) == len(oracle[k])
        assert [K.simplices[k][j] for j in range(len(oracle[k]))] == oracle[k]
        assert [K.index[k].get(s) for s in oracle[k]] == list(range(len(oracle[k])))
        present = set(oracle[k])
        assert all(K.index[k].get(c) is None for c in combinations(range(X.n), k + 1) if c not in present)
        assert all(K.index[k].get(s[::-1]) is None for s in oracle[k] if k)
        assert K.index[k].get(tuple(range(k + 2))) is None
        assert list(K.simplices_within(k, mask)) == within_by_definition(oracle, k, mask.ids)
        assert list(K.uncone(k)) == uncone_by_definition(K, k)
        assert list(K.uncone(k, K.simplices_within(k, mask), mask)) == uncone_by_definition(
            K, k, within_by_definition(oracle, k, mask.ids), mask
        )
        if k:
            banded = banded_columns_by_definition(oracle, k)
            assert list(K.iter_banded_columns(k)) == banded
            assert [lo for _, lo in banded] == list(K.parent[k]) == [oracle[k - 1].index(s[:-1]) for s in oracle[k]]
    levels = [len(oracle[k]) for k in range(m + 1)]
    for k in range(m + 1):
        for cap in {sum(levels[: k + 1]) + d for d in (-1, 0, 1)} - {-1}:
            want = capped_counts(levels, cap)
            if want is None:
                assert build_rips(X, V, r, m, max_simplices=cap).n_simplices(m) == levels[m]
                continue
            with pytest.raises(ComplexTooLargeError) as err:
                build_rips(X, V, r, m, max_simplices=cap)
            assert err.value.counts == want


@settings(max_examples=40, deadline=None)
@given(small_spaces(), st.randoms(use_true_random=False))
def test_boundary_columns_drop_one_vertex(case, rng):
    X, V, r, _ = case
    K = build_rips(X, V, r, 3)
    for k in range(1, 4):
        position = {s: i for i, s in enumerate(K.simplices[k - 1])}
        want = [sum(1 << position[s[:d] + s[d + 1:]] for d in range(k + 1)) for s in K.simplices[k]]
        assert list(K.iter_boundary_columns(k)) == want
        among = rng.sample(range(len(want)), rng.randint(0, len(want)))
        assert list(K.iter_boundary_columns(k, among)) == [want[j] for j in among]


@settings(max_examples=40, deadline=None)
@given(small_spaces(), st.randoms(use_true_random=False))
def test_banded_columns_shift_to_the_boundary_columns(case, rng):
    # (packed, lo): lo is the row of s[:-1], the column's lowest row; packed
    # holds the other facets' rows less lo, 32 bits each, descending from
    # the lowest field; unpacked, they are the columns iter_boundary_columns
    # streams
    X, V, r, _ = case
    K = build_rips(X, V, r, 3)
    for k in range(4):
        banded = list(K.iter_banded_columns(k))
        assert [unpacked(c, lo) for c, lo in banded] == list(K.iter_boundary_columns(k))
        for c, lo in banded:
            fields = [(c >> (32 * i)) & 0xFFFFFFFF for i in range(k + 1)]
            assert fields[k] == 0 and all(a > b for a, b in zip(fields[:k], fields[1:k] + [0]))
        if k:
            assert [lo for _, lo in banded] == [K.index[k - 1][s[:-1]] for s in K.simplices[k]]
        among = rng.sample(range(len(banded)), rng.randint(0, len(banded)))
        assert list(K.iter_banded_columns(k, among)) == [banded[j] for j in among]


@settings(max_examples=40, deadline=None)
@given(cone_cases(), st.integers(0, 40))
def test_lazy_uncone_matches_the_eager_definition(case, stop):
    K, d, apex, rng = case
    assert list(K.uncone(d)) == uncone_by_definition(K, d)
    local, rest = _two_phase_order(K, d, apex)[:2]
    want_local = uncone_by_definition(K, d, local, apex)
    want_rest = uncone_by_definition(K, d, rest)
    # two streams on one complex, pulled alternately, one index at a time
    pulled = list(zip_longest(K.uncone(d, iter(local), apex), K.uncone(d, iter(rest))))
    assert [a for a, _ in pulled if a is not None] == want_local
    assert [b for _, b in pulled if b is not None] == want_rest
    # a stream left early yields a prefix; one out of index order still tests every index
    assert list(islice(K.uncone(d), stop)) == uncone_by_definition(K, d)[:stop]
    shuffled = rng.sample(range(K.n_simplices(d)), K.n_simplices(d))
    assert list(K.uncone(d, shuffled, apex)) == uncone_by_definition(K, d, shuffled, apex)


# -- storage: a simplex costs a few bytes of int arrays ------------------------------

import tracemalloc

from coarsetop.fixtures import grid_fixture, lattice_region


def test_build_rips_keeps_a_few_bytes_per_simplex():
    # traced around build_rips on fig2_plane_fin R=6 at scale 2, cap 2
    # (72,275 simplices): the complex keeps about 12 bytes per simplex, where
    # a tuple per simplex kept over 60. The build's transient peak is about
    # 14: the forward-neighbour sets live only ahead of the sweep, where one
    # set per vertex for the whole build peaked at 41, and tuples over 90
    X = grid_fixture("fig2_plane_fin", 6).space
    X.adjacency_at_scale(2)  # the metric's cache, not the complex's
    tracemalloc.start()
    try:
        K = build_rips(X, X.full_mask(), 2, 2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sum(K.n_simplices(k) for k in range(3))
    assert n == 72_275
    assert kept / n <= 16
    assert peak / n <= 20


def _bytes_per_pivot(track):
    """Traced bytes a pivot of a solve over fig2_plane_fin R=6's kept triangle columns at scale 2.

    17,253 columns, 17,247 pivots; the right-hand side is one edge, which
    no boundary reaches, so every column is fed.
    """
    X = grid_fixture("fig2_plane_fin", 6).space
    K = build_rips(X, X.full_mask(), 2, 2)
    kept = list(K.uncone(2))
    tracemalloc.start()
    try:
        solve = gf2.ColumnSolve(1, track=track)
        assert solve.feed(K.iter_banded_columns(2, kept)) is None
        stored, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pivots = len(echelon_entries(solve.space))
    assert pivots == 17_247
    return stored / pivots


def test_packed_echelon_keeps_a_few_bytes_per_pivot():
    # the columns that enter unreduced sit in int arrays indexed by pivot
    # row: about 10 bytes a pivot, where a dict entry of the packed int
    # took 102 and banded pivots 275
    assert _bytes_per_pivot(track=False) <= 32


def test_tracked_packed_echelon_keeps_a_few_bytes_per_pivot():
    # with combination masks a stored column adds its inserted number to
    # one more int array: about 15 bytes a pivot, where a dict entry with a
    # (1, n) combination tuple took 218
    assert _bytes_per_pivot(track=True) <= 40


def test_scale_adjacency_keeps_about_four_bytes_a_neighbour():
    # fig2_plane_fin R=6 at scale 2: 38,314 neighbour entries over 1,911
    # points. One array of neighbours plus per-point offsets keeps about
    # 4.4 bytes an entry, offsets and the arrays' spare room included,
    # where a list of ints per point kept 11.4
    X = grid_fixture("fig2_plane_fin", 6).space
    tracemalloc.start()
    try:
        adj = X.adjacency_at_scale(2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(len(adj[x]) for x in range(X.n))
    assert entries == 38_314
    assert kept / entries <= 4.5


def test_simplices_within_peaks_near_its_result():
    # the triangles of fig2_plane_fin R=6 at scale 2 with every vertex at
    # z >= 0: each level grows in an array('i'), so the traced peak is the
    # result, the level before it and the arrays' spare room, about 1.4
    # times the result; lists of ints peaked at about 14 times. The
    # constant covers the sorted vertex ids of the mask
    X = grid_fixture("fig2_plane_fin", 6).space
    K = build_rips(X, X.full_mask(), 2, 2)
    mask = X.mask_where(lambda p: p[2] >= 0)
    tracemalloc.start()
    try:
        within = K.simplices_within(2, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(within) == 20_282
    assert peak <= 1.5 * within.itemsize * len(within) + 64 * 1024


def test_lattice_region_peaks_near_what_it_keeps():
    # fig2_plane_fin R=6 from its 1,911 sorted points: rows written
    # directly through a box index peak about 1.16 times what the space
    # keeps; an edge list, appended rows and an index dict peaked at 2.07
    points = grid_fixture("fig2_plane_fin", 6).space.labels
    tracemalloc.start()
    try:
        X = lattice_region(points, 6)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.n == 1_911
    assert peak <= 1.25 * kept
