"""Finite metric spaces: neighborhoods, Hausdorff distance, masks."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetop.errors import EmptySubsetError
from coarsetop.fixtures import grid_fixture, lattice_region
from coarsetop.groups import FreeAbelian, Lamplighter, WordMetricBall, build_ball
from coarsetop.metric import (
    FiniteMetricSpace,
    SubsetMask,
    hausdorff_distance,
    neighborhood,
)

from oracles import TableSpace, bfs_distances, flood_fill_components, from_graph, lattice_region_by_edges, line


def line_space(lo=-10, hi=10):
    return line(lo, hi)


def random_graph_space(rng, n, p=0.25):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    # spanning path keeps it connected
    edges += [(i, i + 1) for i in range(n - 1)]
    return from_graph(n, edges, basepoint=0, window_radius=n)


def test_neighborhood_on_line():
    X = line_space()
    S = X.mask_where(lambda v: v == 0)
    out = neighborhood(X, S, 3)
    assert sorted(X.labels[i] for i in out.ids) == list(range(-3, 4))


def test_scale_adjacency_rejects_negative_scale():
    # the BFS stops at distance r, which a negative r never reaches
    X = line_space()
    adj = X.adjacency_at_scale(0)
    assert [list(adj[x]) for x in range(X.n)] == [[] for _ in range(X.n)]
    with pytest.raises(ValueError):
        X.adjacency_at_scale(-1)


def test_a_space_has_exactly_one_backing():
    # a graph, or a subclass that computes its rows; neither, or both, is refused
    with pytest.raises(ValueError):
        FiniteMetricSpace(3)
    with pytest.raises(ValueError):
        TableSpace([[0, 1], [1, 0]], adjacency=[[1], [0]])


def test_table_space_keeps_the_table_semantics():
    # radial comes from the basepoint's row, and dist_to_set scans the rows
    # of S through the base class's _near without storing them
    table = [[0, 2, 5, 7], [2, 0, 3, 5], [5, 3, 0, 2], [7, 5, 2, 0]]
    X = TableSpace(table, basepoint=1)
    assert X.radial == [2, 0, 3, 5]
    assert X._adj is None and type(X)._near is FiniteMetricSpace._near
    cached = set(X._row_cache)
    assert X.dist_to_set([0, 3]) == [0, 2, 2, 0]
    assert X.dist_to_set([0, 3], 2) == [0, 2, 2, 0]
    assert X.dist_to_set([2], 2) == [math.inf, math.inf, 0, 2]
    assert set(X._row_cache) == cached
    assert [list(X.dist_row(x)) for x in range(4)] == table


def test_adjacency_lists_already_normal_are_kept_as_handed_over():
    # sorted, without duplicates and without the point itself: kept as the
    # very list; unsorted, duplicated, self-looped or not a list: normalised
    handed = [[1, 2], [2, 0], [0, 1, 1, 3], [2, 3, 4], (3,)]
    X = FiniteMetricSpace(5, adjacency=handed)
    adj = X.adjacency_at_scale(1)
    assert adj == [[1, 2], [0, 2], [0, 1, 3], [2, 4], [3]]
    assert adj[0] is handed[0]
    assert all(adj[x] is not handed[x] for x in range(1, 5))
    assert handed == [[1, 2], [2, 0], [0, 1, 1, 3], [2, 3, 4], (3,)]
    assert [X.dist(0, y) for y in range(5)] == [0, 1, 1, 2, 3]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_region_rows_match_the_edge_list_build(d):
    # rows written in lexicographic step order are the sorted rows of the
    # induced subgraph, on regions with holes and in any order
    rng = random.Random(d)
    box = list(itertools.product(range(-2, 3), repeat=d))
    for _ in range(5):
        region = rng.sample(box, rng.randrange(1, len(box) + 1))
        X, ref = lattice_region(region), lattice_region_by_edges(region)
        assert X.labels == ref.labels
        assert X.adjacency_at_scale(1) == ref.adjacency_at_scale(1)
        assert X.basepoint == (ref.labels.index((0,) * d) if (0,) * d in region else None)


def test_neighborhood_r0_is_identity():
    X = line_space()
    S = SubsetMask(X.n, [3, 7, 11])
    assert neighborhood(X, S, 0) == S


def test_neighborhood_on_lattice_axis(z2_ball_16):
    X = z2_ball_16.space
    axis = X.mask_where(lambda p: p[1] == 0)
    out = neighborhood(X, axis, 2)
    assert out == X.mask_where(lambda p: abs(p[1]) <= 2)


def test_neighborhood_empty_errors():
    X = line_space()
    with pytest.raises(EmptySubsetError):
        neighborhood(X, SubsetMask.empty(X.n), 1)


def test_neighborhood_monotone_and_composition():
    X = line_space()
    S = SubsetMask(X.n, [2, 5])
    n1 = neighborhood(X, S, 1)
    n2 = neighborhood(X, S, 3)
    assert n1.issubset(n2)
    # composition equals the sum on graph-metric models
    assert neighborhood(X, neighborhood(X, S, 1), 2) == neighborhood(X, S, 3)


def test_hausdorff_basic():
    X = line_space()
    A = X.mask_where(lambda v: v % 2 == 0)
    B = X.full_mask()
    assert hausdorff_distance(X, A, A) == 0
    assert hausdorff_distance(X, A, B) == 1
    single = hausdorff_distance(X, X.mask_where(lambda v: v == 0), X.mask_where(lambda v: v == 5))
    assert single == 5


def test_hausdorff_evens_in_plane(z2_ball_10):
    X = z2_ball_10.space
    A = X.mask_where(lambda p: p[1] == 0)
    B = X.mask_where(lambda p: p[1] == 0 and p[0] % 2 == 0)
    assert hausdorff_distance(X, A, B) == 1


def test_hausdorff_pseudometric_properties():
    rng = random.Random(42)
    X = random_graph_space(rng, 14)
    masks = []
    for _ in range(4):
        ids = [i for i in range(X.n) if rng.random() < 0.4] or [0]
        masks.append(SubsetMask(X.n, ids))
    for A, B in itertools.permutations(masks, 2):
        assert hausdorff_distance(X, A, B) == hausdorff_distance(X, B, A)
    for A, B, C in itertools.permutations(masks, 3):
        assert hausdorff_distance(X, A, C) <= hausdorff_distance(X, A, B) + hausdorff_distance(X, B, C)


def test_triangle_inequality_exhaustive_on_window():
    rng = random.Random(3)
    X = random_graph_space(rng, 12)
    for x in range(X.n):
        row_x = X.dist_row(x)
        for y in range(X.n):
            row_y = X.dist_row(y)
            for z in range(X.n):
                assert row_x[y] <= row_x[z] + row_y[z]


def test_distance_matches_bfs_oracle():
    rng = random.Random(11)
    n = 15
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
    edges += [(i, i + 1) for i in range(n - 1)]
    X = from_graph(n, edges)
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for s in range(n):
        oracle = bfs_distances(adj, s)
        for t in range(n):
            assert X.dist(s, t) == oracle[t]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 999))
def test_mask_algebra_hypothesis(n, seed):
    rng = random.Random(seed)
    a = SubsetMask(n, (i for i in range(n) if rng.random() < 0.5))
    b = SubsetMask(n, (i for i in range(n) if rng.random() < 0.5))
    assert (a | b) == (b | a)
    assert (a & b).issubset(a)
    assert (a ^ b) == ((a | b) - (a & b))
    assert (~(~a)) == a


def _table_space():
    # l_inf on a 7 x 7 patch of Z^2: an integer metric with no unit-step graph
    pts = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    table = [[max(abs(a - c), abs(b - d)) for c, d in pts] for a, b in pts]
    return TableSpace(table, radial=[max(map(abs, p)) for p in pts], window_radius=3)


# one space of each backing: graph (a fixture and a convex ball), table, word metric
BACKINGS = pytest.mark.parametrize(
    "make",
    [
        lambda: grid_fixture("fig1_halfplane_flap", 5).space,
        lambda: build_ball(FreeAbelian(2), 5).space,
        _table_space,
        lambda: build_ball(Lamplighter(), 5).space,
    ],
    ids=["grid-fixture", "convex-ball", "table", "lamplighter"],
)


def _dense_rows(X):
    """Every distance by its definition, without the package's traversal or rows."""
    if isinstance(X, WordMetricBall):
        m = X.model
        return [[m.length(m.mul(m.inv(g), h)) for h in X.elements] for g in X.elements]
    if isinstance(X, TableSpace):
        return [list(row) for row in X._table]
    return [[bfs_distances(X._adj, s).get(t, math.inf) for t in range(X.n)] for s in range(X.n)]


@BACKINGS
def test_components_match_an_independent_flood_fill(make):
    # same sets, ordered by smallest id, on random masks at scales 1-3
    X = make()
    dense = _dense_rows(X)
    rng = random.Random(11)
    for scale in (1, 2, 3):
        near = [[w for w in range(X.n) if w != v and dense[v][w] <= scale] for v in range(X.n)]
        for density in (0.2, 0.5, 0.8):
            mask = SubsetMask(X.n, (x for x in range(X.n) if rng.random() < density))
            oracle = flood_fill_components(mask.sorted_ids(), near.__getitem__)
            assert X.components(mask, scale) == [sorted(c) for c in oracle], (scale, density)


@BACKINGS
def test_bounded_field_is_the_full_field_cut_at_the_limit(make):
    # d(x, S) from the rows by definition; every entry above the limit reads inf
    X = make()
    R = X.window_radius
    rng = random.Random(5)
    sets = [[X.basepoint or 0], [X.n - 1], rng.sample(range(X.n), 4), rng.sample(range(X.n), X.n // 3)]
    for S in sets:
        full = [min(X.dist(x, s) for s in S) for x in range(X.n)]
        assert X.dist_to_set(S) == full
        for limit in (0, 1, R // 2, R - 1, R, R + 1, 2 * R + 1):
            expected = [d if d <= limit else math.inf for d in full]
            assert X.dist_to_set(S, limit) == expected, (S, limit)
    with pytest.raises(ValueError):
        X.dist_to_set(sets[0], -1)
