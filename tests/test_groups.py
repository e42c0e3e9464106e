"""Group models: normal forms, balls, traces, commensurability, fixtures."""

import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsetop.cli import main
from coarsetop.errors import BadSubgroupSpecError, WindowTooLargeError
from coarsetop.fixtures import grid_fixture, list_fixtures
from coarsetop.groups import (
    FreeAbelian,
    FreeGroup,
    Lamplighter,
    amalgam_z2_z_z2,
    build_ball,
    commensurability_probe,
    invert_table,
    restrict_ball,
    subgroup_trace,
)
from oracles import (
    amalgam_mul_reference,
    bfs_distances,
    cyclic_trace_by_powers,
    factor_trace_by_predicate,
    sublattice_trace_by_predicate,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


def _steps(model):
    """The generators and their inverses, each once."""
    gens = [g for _, g in model.generators()]
    return gens + [model.inv(g) for g in gens if model.inv(g) != g]


def _assert_moves_are_products(ball):
    """Each move table entry of the ball is the id of x·s, or outside it."""
    model, n, k = ball.model, len(ball.elements), len(ball.steps)
    assert k == len(_steps(model)) and all(s in ball.steps for s in _steps(model))
    for x, g in enumerate(ball.elements):
        for j, s in enumerate(ball.steps):
            t = ball.moves[x * k + j]
            assert (ball.ids[t] if 0 <= t < n else None) == ball.index.get(model.mul(g, s)), (x, s)


def test_ball_sizes_trivial():
    assert len(build_ball(FreeAbelian(1), 3).elements) == 7
    assert len(build_ball(FreeGroup(2), 2).elements) == 17
    assert len(build_ball(FreeAbelian(2), 2).elements) == 13


def test_free_ball_formula():
    for k in (2, 3):
        for R in (1, 2, 3):
            ball = build_ball(FreeGroup(k), R)
            assert len(ball.elements) == 1 + 2 * k * ((2 * k - 1) ** R - 1) // (2 * k - 2)


def test_free_sphere_sizes():
    ball = build_ball(FreeGroup(2), 5)
    model = ball.model
    for r in range(1, 6):
        sphere = sum(1 for g in ball.elements if model.length(g) == r)
        assert sphere == 2 * 2 * (2 * 2 - 1) ** (r - 1)


def test_amalgam_size_estimate_is_exact():
    # the vertex cap compares the exact ball size: R = 8's 26,225 points fit under 30,000
    model = amalgam_z2_z_z2()
    for R in range(1, 8):
        assert model.ball_size_estimate(R) == len(build_ball(model, R).elements)
    assert len(build_ball(model, 8, max_vertices=30_000).elements) == model.ball_size_estimate(8) == 26_225


def test_window_cap():
    with pytest.raises(WindowTooLargeError):
        build_ball(FreeGroup(2), 10, max_vertices=100)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 2).filter(lambda x: x != 0), max_size=8),
       st.lists(st.integers(-2, 2).filter(lambda x: x != 0), max_size=8))
def test_free_group_normal_form_roundtrip(w1, w2):
    F = FreeGroup(2)
    g = F.mul(F.identity(), tuple()) if not w1 else _reduce_word(F, w1)
    h = _reduce_word(F, w2)
    # nf(g h) = nf(nf(g) nf(h)); inverse cancels
    assert F.mul(g, F.inv(g)) == F.identity()
    assert F.mul(F.mul(g, h), F.inv(h)) == g


def _reduce_word(F, letters):
    out = F.identity()
    for x in letters:
        out = F.mul(out, (x,))
    return out


def test_normal_form_product_matches_bfs_labels(f2_ball_6):
    # normal-form products agree with walking the Cayley graph: starting at
    # g and following h's letters through generator moves lands on the
    # element whose normal form is mul(g, h)
    ball = f2_ball_6
    model = ball.model
    step_tables = {}
    for _, gen in model.generators():
        step_tables[gen] = [ball.act_right(x, gen) for x in range(len(ball.elements))]
        inv = model.inv(gen)
        step_tables[inv] = [ball.act_right(x, inv) for x in range(len(ball.elements))]
    rng = random.Random(100)
    checked = 0
    while checked < 1000:
        g = ball.elements[rng.randrange(len(ball.elements))]
        h = ball.elements[rng.randrange(len(ball.elements))]
        gh = model.mul(g, h)
        if model.length(gh) > ball.radius:
            continue
        walker = ball.index[g]
        for letter in h:
            step = (letter,) if letter > 0 else model.inv((-letter,))
            walker = step_tables[step][walker]
            if walker is None:
                break
        if walker is not None:
            assert ball.elements[walker] == gh
            checked += 1
        else:
            # the walk left the window mid-word; the product itself must
            # still be resolvable through its normal form
            assert gh in ball.index
            checked += 1


def test_word_length_equals_bfs_distance_from_identity(f2_ball_6):
    ball = f2_ball_6
    adj = {i: set(a) for i, a in enumerate(ball.cayley_adjacency)}
    dist = bfs_distances(adj, ball.index[ball.model.identity()])
    for i, g in enumerate(ball.elements):
        assert dist[i] == ball.model.length(g)


def test_word_metric_lamplighter_vs_bfs():
    # the explicit length formula agrees with BFS in a generous ball
    ball = build_ball(Lamplighter(), 5)
    adj = {i: set(a) for i, a in enumerate(ball.cayley_adjacency)}
    dist = bfs_distances(adj, ball.index[ball.model.identity()])
    for i, g in enumerate(ball.elements):
        assert dist[i] == ball.model.length(g)


def test_partial_action_isometry(z2_ball_10):
    ball = z2_ball_10
    rng = random.Random(7)
    gids = rng.sample(range(len(ball.elements)), 5)
    for gid in gids:
        g = ball.elements[gid]
        table = ball.action_table(g)
        for _ in range(50):
            x, y = rng.randrange(ball.space.n), rng.randrange(ball.space.n)
            ix, iy = table[x], table[y]
            if ix is not None and iy is not None:
                assert ball.space.dist(ix, iy) == ball.space.dist(x, y)


@pytest.mark.parametrize(
    "model,R",
    [(FreeAbelian(2), 6), (FreeAbelian(3), 4), (FreeGroup(2), 4), (amalgam_z2_z_z2(), 4), (Lamplighter(), 5)],
    ids=["Z2-6", "Z3-4", "F2-4", "amalgam-4", "lamplighter-5"],
)
def test_action_tables_are_exact(model, R):
    # read off the move table or formed as products where g·p leaves the
    # window, every table is the product definition: on the full ball and on
    # every cut, for generator steps and for words of up to 2R + 2 letters,
    # whose images leave the window and come back. So are the inverted
    # tables and the right steps read off the moves
    big = build_ball(model, R)
    steps = _steps(model)
    rng, words = random.Random(R), []
    for _ in range(12):
        g = model.identity()
        for _ in range(rng.randint(1, 2 * R + 2)):
            g = model.mul(g, rng.choice(steps))
        words.append(g)
    balls = [restrict_ball(big, r) for r in range(1, R + 1)] if model.convex_balls else [big]
    for ball in balls:
        n = len(ball.elements)
        for g in steps + words:
            table = ball.action_table(g)
            assert table == [ball.act_left(g, x) for x in range(n)], (ball.radius, g)
            assert invert_table(table) == ball.action_table(model.inv(g)), (ball.radius, g)
        for s in steps:
            right = [ball.index.get(model.mul(g, s)) for g in ball.elements]
            assert [ball.act_right(x, s) for x in range(n)] == right, (ball.radius, s)


def test_amalgam_model_basics():
    model = amalgam_z2_z_z2()
    gens = dict(model.generators())
    x, y, z = gens["x"], gens["y"], gens["z"]
    # y is central: xy = yx and zy = yz
    assert model.mul(x, y) == model.mul(y, x)
    assert model.mul(z, y) == model.mul(y, z)
    # x and z do not commute
    assert model.mul(x, z) != model.mul(z, x)
    ball = build_ball(model, 3)
    assert ball.index[model.identity()] == 0
    assert all(model.length(g) <= 3 for g in ball.elements)


def test_amalgam_mul_matches_reference():
    model = amalgam_z2_z_z2()
    ball = build_ball(model, 3)
    e = model.identity()
    for g in ball.elements:
        assert model.mul(model.inv(g), g) == e
        for h in ball.elements:
            assert model.mul(g, h) == amalgam_mul_reference(g, h)


def test_amalgam_length_is_cayley_distance():
    # the convexity claim: word length agrees with BFS inside the ball
    ball = build_ball(amalgam_z2_z_z2(), 5)
    dist = bfs_distances(ball.cayley_adjacency, 0)
    assert [dist[i] for i in range(len(ball.elements))] == [ball.model.length(g) for g in ball.elements]


@pytest.mark.parametrize(
    "model,R,radii",
    [
        (FreeAbelian(2), 16, range(8, 16)),
        (amalgam_z2_z_z2(), 7, (5, 6)),
        (FreeGroup(2), 6, (3, 4, 5)),
        (FreeAbelian(3), 8, (4, 6)),
    ],
    ids=["Z2-16", "amalgam-7", "F2-6", "Z3-8"],
)
def test_restricted_ball_equals_built_ball(model, R, radii):
    big = build_ball(model, R)
    assert restrict_ball(big, R) is big
    rng = random.Random(R)
    for r in radii:
        cut, fresh = restrict_ball(big, r), build_ball(model, r)
        assert cut.radius == r and cut.space.window_radius == r
        assert cut.elements == fresh.elements
        assert cut.index == fresh.index
        assert cut.cayley_adjacency == fresh.cayley_adjacency
        assert cut.space.radial == fresh.space.radial
        for scale in (1, 3):
            a, b = cut.space.adjacency_at_scale(scale), fresh.space.adjacency_at_scale(scale)
            assert [list(a[x]) for x in range(fresh.space.n)] == [list(b[x]) for x in range(fresh.space.n)]
        # the cut shares the big ball's move table; its tables are the fresh ball's
        for g in _steps(model) + rng.sample(big.elements, 5):
            assert cut.action_table(g) == fresh.action_table(g), (r, g)


def test_restriction_needs_a_convex_family():
    with pytest.raises(ValueError):
        restrict_ball(build_ball(Lamplighter(), 4), 3)
    with pytest.raises(ValueError):
        restrict_ball(build_ball(FreeGroup(2), 3), 4)


def test_lamplighter_ball_growth():
    ball = build_ball(Lamplighter(), 4)
    model = ball.model
    s, t = dict(model.generators())["s"], dict(model.generators())["t"]
    assert model.mul(s, s) == model.identity()
    assert model.length(model.mul(t, s)) == 2


@pytest.mark.parametrize(
    "model,R",
    [(Lamplighter(), 5), (Lamplighter(), 6), (FreeAbelian(2), 4), (FreeGroup(2), 3), (amalgam_z2_z_z2(), 3)],
    ids=["lamplighter-R5", "lamplighter-R6", "Z2-R4", "F2-R3", "amalgam-R3"],
)
def test_word_metric_ball_matches_dense_definition(model, R):
    # rows are |g_x^-1 h|; on the lamplighter, whose balls are not convex,
    # scale neighbourhoods come from translating B_r(e) for r <= R and from
    # scanning rows beyond R. radial is the BFS layer, which is word length
    ball = build_ball(model, R)
    space, n = ball.space, len(ball.elements)
    assert space.radial == [model.length(g) for g in ball.elements]
    dense = [[model.length(model.mul(model.inv(g), h)) for h in ball.elements] for g in ball.elements]
    for r in range(2 * R + 2):
        expected = [[y for y in range(n) if y != x and dense[x][y] <= r] for x in range(n)]
        adj = space.adjacency_at_scale(r)
        assert [list(adj[x]) for x in range(n)] == expected, f"scale {r}"
    # fields beyond the radius scan rows: unbounded and cut above R
    rng = random.Random(R)
    for S in ([0], [n - 1], rng.sample(range(n), 5)):
        full = [min(dense[s][x] for s in S) for x in range(n)]
        assert space.dist_to_set(S) == full
        for limit in (R + 1, 2 * R - 1):
            assert space.dist_to_set(S, limit) == [d if d <= limit else math.inf for d in full]
    assert not space._row_cache  # no scale or field left rows behind
    for x in range(n):
        assert list(space.dist_row(x)) == dense[x]
    # scale 1 is the Cayley graph: the points at distance exactly 1
    adj = space.adjacency_at_scale(1)
    for x in range(n):
        assert set(adj[x]) == {y for y, d in enumerate(space.dist_row(x)) if d == 1}


def test_word_metric_ball_length_calls_linear():
    class CountingLamplighter(Lamplighter):
        calls = 0

        def length(self, g):
            CountingLamplighter.calls += 1
            return super().length(g)

    ball = build_ball(CountingLamplighter(), 8)
    assert CountingLamplighter.calls <= 8 * len(ball.elements)


@pytest.mark.parametrize(
    "family,args,R",
    [(amalgam_z2_z_z2, (), 5), (Lamplighter, (), 4), (FreeGroup, (2,), 4), (FreeAbelian, (2,), 6)],
    ids=["amalgam-5", "lamplighter-4", "F2-4", "Z2-6"],
)
def test_build_ball_forms_each_product_once(family, args, R):
    # at most one mul per element and step: the BFS's products are reused
    # for the Cayley adjacency, and the last layer, whose moves are
    # transposed, forms none; ids, moves and adjacency are those of their definitions
    class Counting(family):
        calls = 0

        def mul(self, g, h):
            Counting.calls += 1
            return super().mul(g, h)

    model = Counting(*args)
    ball = build_ball(model, R)
    steps = [g for _, g in model.generators()]
    steps += [model.inv(g) for g in steps if model.inv(g) != g]
    n = len(ball.elements)
    assert Counting.calls == (n - ball.space.radial.count(R)) * len(steps)
    _assert_moves_are_products(ball)
    key = lambda g: (model.length(g), model.sortkey(g))  # noqa: E731
    assert ball.elements == sorted(ball.elements, key=key) and len(ball.index) == n
    assert all(ball.index[g] == i for i, g in enumerate(ball.elements))
    for i, g in enumerate(ball.elements):
        near = {ball.index.get(model.mul(g, s)) for s in steps} - {None, i}
        assert ball.cayley_adjacency[i] == sorted(near)


@pytest.mark.parametrize(
    "model,R",
    [(FreeAbelian(2), 4), (FreeAbelian(3), 3), (FreeGroup(2), 3), (amalgam_z2_z_z2(), 3), (Lamplighter(), 4)],
    ids=["Z2-4", "Z3-3", "F2-3", "amalgam-3", "lamplighter-4"],
)
def test_bipartite_families_have_no_edge_inside_a_layer(model, R):
    # what makes the last layer's transposed moves exact: in B_{R+1} no two
    # elements of one word length differ by a step, checked pair by pair
    steps = _steps(model)
    layers = {}
    for g in build_ball(model, R + 1).elements:
        layers.setdefault(model.length(g), []).append(g)
    assert sorted(layers) == list(range(R + 2))
    for layer in layers.values():
        for g in layer:
            g_inv = model.inv(g)
            assert not any(model.mul(g_inv, h) in steps for h in layer), g


@pytest.mark.parametrize(
    "family,args,R",
    [(amalgam_z2_z_z2, (), 5), (Lamplighter, (), 5), (FreeGroup, (2,), 4), (FreeAbelian, (3,), 4)],
    ids=["amalgam-5", "lamplighter-5", "F2-4", "Z3-4"],
)
def test_generator_action_tables_form_no_product(family, args, R):
    # |g·p| <= |p| + 1 <= r for a step g, so each row is read off the move table
    class Counting(family):
        calls = 0

        def mul(self, g, h):
            Counting.calls += 1
            return super().mul(g, h)

    model = Counting(*args)
    big = build_ball(model, R)
    balls = [big, restrict_ball(big, R - 2)] if model.convex_balls else [big]
    Counting.calls = 0
    for ball in balls:
        for g in _steps(model):
            assert None not in ball.action_table(g)[: ball.space.radial.index(ball.radius)]
    assert Counting.calls == 0


@pytest.mark.parametrize(
    "scenario,family,products",
    [("amalgam_R7", amalgam_z2_z_z2, 56_936), ("lamplighter_R10", Lamplighter, 2_803)],
    ids=["amalgam_R7", "lamplighter_R10"],
)
def test_group_ball_scenarios_form_a_fixed_number_of_products(tmp_path, monkeypatch, scenario, family, products):
    # a work counter on the benchmark's group-ball scenarios: the BFS's
    # products below the last layer, the almost-invariant extract's g·h and
    # a few trace steps; no action table by a generator, no right step and
    # no scale-1 row forms one
    calls = 0
    mul = family.mul

    def counting(self, g, h):
        nonlocal calls
        calls += 1
        return mul(self, g, h)

    monkeypatch.setattr(family, "mul", counting)
    assert main(["run", str(SCENARIOS / "group-balls" / f"{scenario}.json"), "--out", str(tmp_path)]) == 0
    assert calls == products


def test_subgroup_traces(z2_ball_10, f2_ball_6):
    z2 = z2_ball_10
    axis = subgroup_trace(z2, {"cyclic": (1, 0)})
    assert sorted(z2.elements[i] for i in axis.ids) == [(k, 0) for k in range(-10, 11)]
    even = subgroup_trace(z2, {"cyclic": (2, 0)})
    assert sorted(z2.elements[i] for i in even.ids) == [(2 * k, 0) for k in range(-5, 6)]
    sub = subgroup_trace(z2, {"sublattice": {"k": 2, "coords": [0]}})
    assert even == sub
    f2 = f2_ball_6
    a_axis = subgroup_trace(f2, {"cyclic": "a"})
    assert len(a_axis) == 13
    assert all(all(x == 1 for x in f2.elements[i]) or all(x == -1 for x in f2.elements[i]) for i in a_axis.ids)


@pytest.mark.parametrize(
    "model, R, words",
    [
        (FreeAbelian(1), 8, ["a", "a^2", "a^-3"]),
        (FreeAbelian(2), 6, ["a", "b^2", "a b", "a^2 b^-1"]),
        (FreeGroup(2), 5, ["a", "b^-2", "a b", "a b a^-1"]),
        (amalgam_z2_z_z2(), 5, ["x", "y", "z", "x y", "y^2 z"]),
        (Lamplighter(), 6, ["t", "s", "t s", "s t^2"]),
    ],
    ids=["Z", "Z^2", "F_2", "amalgam", "lamplighter"],
)
def test_cyclic_trace_is_the_power_walk(model, R, words):
    # the generators BFS over one element reaches exactly the powers that a
    # walk each way from the identity visits, at every radius, the torsion
    # lamp s (s^2 = e) included
    for r in range(1, R + 1):
        ball = build_ball(model, r)
        for word in words:
            expected = cyclic_trace_by_powers(ball, model.parse_word(word))
            assert subgroup_trace(ball, {"cyclic": word}) == expected, (r, word)


def test_subgroup_trace_factor():
    model = amalgam_z2_z_z2()
    ball = build_ball(model, 3)
    free = subgroup_trace(ball, {"factor": 0})
    assert free == subgroup_trace(ball, {"generators": ["x", "z"]})
    assert sorted(ball.elements[i] for i in free.ids) == sorted(g for g in ball.elements if g[1] == (0,))
    axis = subgroup_trace(ball, {"factor": 1})
    assert axis == subgroup_trace(ball, {"cyclic": "y"})
    assert sorted(ball.elements[i] for i in axis.ids) == [((), (k,)) for k in range(-3, 4)]
    with pytest.raises(BadSubgroupSpecError):
        subgroup_trace(ball, {"factor": 2})


def test_factor_and_sublattice_bfs_match_the_membership_rules():
    # 506 specs: on Z^1 and Z^2 at R = 1..7 and Z^3 at R = 1..5, k = 1, 2, 3
    # with coords absent, each subset of the axes and each nonempty subset
    # listed twice; and the amalgam's two factors at R = 1..7
    specs = 0
    for n, R_max in ((1, 7), (2, 7), (3, 5)):
        subsets = [list(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)]
        coord_lists = [None, *subsets, *(c + c for c in subsets if c)]
        for R in range(1, R_max + 1):
            ball = build_ball(FreeAbelian(n), R)
            for k in (1, 2, 3):
                for coords in coord_lists:
                    value = {"k": k} if coords is None else {"k": k, "coords": coords}
                    expected = sublattice_trace_by_predicate(ball, k, range(n) if coords is None else coords)
                    assert subgroup_trace(ball, {"sublattice": value}) == expected, (n, R, value)
                    specs += 1
    for R in range(1, 8):
        ball = build_ball(amalgam_z2_z_z2(), R)
        for value in (0, 1):
            assert subgroup_trace(ball, {"factor": value}) == factor_trace_by_predicate(ball, value), (R, value)
            specs += 1
    assert specs == 506


def test_factor_and_sublattice_validation_messages(z2_ball_10):
    amalgam = build_ball(amalgam_z2_z_z2(), 2)
    expects = 'sublattice expects {"k": integer >= 1, "coords": [axes below 2]}, got '
    cases = [
        (z2_ball_10, {"factor": 0}, "factor spec requires the amalgam model"),
        (amalgam, {"factor": 2}, "factor index must be 0 or 1, got 2"),
        (amalgam, {"factor": True}, "factor index must be 0 or 1, got True"),
        (amalgam, {"factor": "x"}, "factor index must be 0 or 1, got 'x'"),
        (amalgam, {"sublattice": {"k": 1}}, "sublattice spec requires a free abelian model"),
        (z2_ball_10, {"sublattice": 3}, expects + "3"),
        (z2_ball_10, {"sublattice": {"k": 0}}, expects + "{'k': 0}"),
        (z2_ball_10, {"sublattice": {"k": 2, "coords": [2]}}, expects + "{'k': 2, 'coords': [2]}"),
        (z2_ball_10, {"sublattice": {"n": 2}}, expects + "{'n': 2}"),
        (z2_ball_10, {"sublattice": {"coords": "01"}}, expects + "{'coords': '01'}"),
        (z2_ball_10, {"sublattice": {"k": 1.0}}, expects + "{'k': 1.0}"),
    ]
    for ball, spec, message in cases:
        with pytest.raises(BadSubgroupSpecError) as err:
            subgroup_trace(ball, spec)
        assert str(err.value) == "bad-subgroup-spec: " + message, spec


def test_subgroup_trace_closed_under_own_generators(z2_ball_10):
    ball = z2_ball_10
    trace = subgroup_trace(ball, {"cyclic": (2, 0)})
    table = ball.action_table((2, 0))
    for i in trace.ids:
        img = table[i]
        if img is not None:
            assert img in trace.ids


def test_bad_subgroup_specs(z2_ball_10):
    with pytest.raises(BadSubgroupSpecError):
        subgroup_trace(z2_ball_10, {"nonsense": 1})
    with pytest.raises(BadSubgroupSpecError):
        subgroup_trace(z2_ball_10, {"factor": 0})
    with pytest.raises(BadSubgroupSpecError):
        subgroup_trace(z2_ball_10, {"cyclic": (0, 0)})
    for word in ("a^x", "a^", "a^--1"):  # each once a ValueError from int()
        with pytest.raises(BadSubgroupSpecError):
            subgroup_trace(z2_ball_10, {"cyclic": word})
    # values of the wrong kind: once a TypeError, an AttributeError, a
    # ZeroDivisionError, the trivial subgroup, and "ab" read as ["a", "b"]
    for spec in (
        {"cyclic": 5}, {"cyclic": [1]}, {"cyclic": [0, 0]}, {"cyclic": [1, "x"]}, {"sublattice": 3},
        {"sublattice": {"k": 0}}, {"sublattice": {"k": 2, "coords": [2]}}, {"sublattice": {"n": 2}},
        {"generators": "ab"}, {"generators": ["a", 5]},
    ):
        with pytest.raises(BadSubgroupSpecError):
            subgroup_trace(z2_ball_10, spec)
    amalgam = build_ball(amalgam_z2_z_z2(), 2)
    for value in ("x", 2, True, None):
        with pytest.raises(BadSubgroupSpecError):
            subgroup_trace(amalgam, {"factor": value})
    # a Z^n element may be given as a JSON vector
    assert subgroup_trace(z2_ball_10, {"cyclic": [1, 0]}) == subgroup_trace(z2_ball_10, {"cyclic": "a"})
    assert subgroup_trace(z2_ball_10, {"generators": [[0, 2]]}) == subgroup_trace(z2_ball_10, {"cyclic": "b^2"})


def test_commensurability_probe_bounded_and_growing():
    m = FreeAbelian(2)
    r1 = commensurability_probe(m, {"cyclic": (1, 0)}, {"cyclic": (2, 0)}, [4, 5, 6, 7, 8, 9, 10])
    assert all(d == 1 for d in r1.distances)
    assert r1.verdict == "bounded"
    r2 = commensurability_probe(m, {"cyclic": (1, 0)}, {"cyclic": (0, 1)}, [4, 5, 6, 7, 8, 9, 10])
    assert r2.distances == [4, 5, 6, 7, 8, 9, 10]
    assert r2.verdict == "growing"
    rf = commensurability_probe(FreeGroup(2), {"cyclic": "a"}, {"cyclic": "a^2"}, [3, 4, 5, 6])
    assert all(d == 1 for d in rf.distances)
    assert rf.verdict == "bounded"


def test_commensurability_probe_builds_one_convex_ball(monkeypatch):
    import coarsetop.groups as groups

    radii = []
    build_ball = groups.build_ball

    def counting_build_ball(model, radius, **kwargs):
        radii.append(radius)
        return build_ball(model, radius, **kwargs)

    monkeypatch.setattr(groups, "build_ball", counting_build_ball)
    rep = commensurability_probe(FreeGroup(2), {"cyclic": "a"}, {"cyclic": "a^2"}, [5, 3, 4, 6])
    assert radii == [6]  # the smaller windows are its prefixes
    assert rep.radii == [3, 4, 5, 6] and rep.distances == [1, 1, 1, 1]
    radii.clear()
    commensurability_probe(Lamplighter(), {"cyclic": "t"}, {"cyclic": "t^2"}, [3, 4])
    assert radii == [3, 4]


def test_fixture_catalog():
    names = list_fixtures()
    assert set(names) == {
        "fig1_halfplane_flap",
        "fig2_plane_fin",
        "line_in_plane",
        "plane_in_space",
        "three_page_book",
    }


def test_three_page_book_geometry():
    fix = grid_fixture("three_page_book", 4)
    X = fix.space
    # the 9 x 9 plane and the 9 x 4 fin, clipped from the 9^3 box
    assert X.n == 81 + 36 and sorted(X.labels[i] for i in fix.w.ids) == [(x, 0, 0) for x in range(-4, 5)]
    pages = [fix.components[name] for name in ("fin", "north", "south")]
    assert sum(map(len, pages)) + len(fix.w) == X.n
    assert all(X.labels[i][1] == 0 for i in pages[0].ids)


def test_fig1_geometry(fig1_12):
    fix = fig1_12
    X = fix.space
    # 2R+1 axis points inside the window at radius 8 clip
    fix8 = grid_fixture("fig1_halfplane_flap", 8)
    assert len(fix8.w) == 17
    # the top mask excludes all (x, y) with x < 0, y > 0 (not even in the space)
    assert all(not (p[0] < 0 and p[1] > 0) for p in (X.labels[i] for i in range(X.n)))
    assert all(X.labels[i][0] >= 0 and X.labels[i][1] > 0 for i in fix.components["top"].ids)
    assert all(X.labels[i][1] < 0 for i in fix.components["bottom"].ids)


def test_fig2_fin_profile(fig2_12):
    fix = fig2_12
    X = fix.space
    col = sorted(
        X.labels[i][2]
        for i in range(X.n)
        if X.labels[i][0] == 5 and X.labels[i][1] == 0 and X.labels[i][2] >= 1
    )
    assert col == [1, 2, 3, 4, 5]


def test_unknown_fixture():
    from coarsetop.errors import UnknownFixtureError

    with pytest.raises(UnknownFixtureError):
        grid_fixture("nope", 5)


def test_ball_second_metric_available(z2_ball_10):
    ind = z2_ball_10.induced_space()
    # induced path metric within a convex ball agrees with the word metric
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(ind.n), rng.randrange(ind.n)
        assert ind.dist(a, b) == z2_ball_10.space.dist(a, b)
