"""Finite ball models of finitely generated groups.

Only families whose word problem is solved by a canonical normal form are
supported: free abelian, free, the amalgam of two copies of Z^2 over a
common Z factor, and the lamplighter group.
Each model multiplies and inverts normal forms and reports exact word
length, so the global word metric on a ball is computed from normal forms
rather than from paths inside the window.

For families whose balls are convex in the Cayley graph (``convex_balls``)
the word metric agrees with the induced path metric of the ball subgraph
and BFS backs all distance queries. Other balls, the lamplighter's, are a
:class:`WordMetricBall`: the word metric is left-invariant, so a distance
row is |g^-1 h| over the ball, computed when first asked for, and the
points within r of a set S are the translates s B_r(e), which it hands to
the one neighbourhood hook of :mod:`metric` (``_near``) while r is at most
the radius; its scale-1 rows are the Cayley graph's. No distance table is
built. Both metrics are exposed on the ball.

A ball keeps its BFS's move table, the multiplier table of the generator
steps (Epstein et al., *Word Processing in Groups*, 1992), and its action
tables and right steps read ids from it instead of forming and hashing
normal forms. Every family's relators have even length, so each step
changes word length by exactly one and no two elements of one BFS layer
are adjacent. The in-ball moves of the last layer then all lead one layer
down, and the BFS fills them by transposing the moves of the layer below
instead of forming their products.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .errors import MAX_VERTICES, BadSubgroupSpecError, WindowTooLargeError
from .metric import FiniteMetricSpace, SubsetMask


class GroupModel:
    """Base class; subclasses provide normal forms and word length.

    Every relator of a family must have even length: then no step joins two
    elements of one word length, which ``build_ball``'s last layer relies on.
    """

    convex_balls: bool = False

    def identity(self):
        raise NotImplementedError

    def generators(self) -> list[tuple[str, object]]:
        """(name, normal form) pairs for the standard generating set."""
        raise NotImplementedError

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def length(self, g) -> int:
        raise NotImplementedError

    def sortkey(self, g):
        """Total order on normal forms used for deterministic ids."""
        return repr(g)

    def ball_size_estimate(self, radius: int) -> Optional[int]:
        return None

    def parse_word(self, text: str):
        """Normal form of a word like "a b^-1 a^2" in the generator names."""
        gens = dict(self.generators())
        out = self.identity()
        for token in text.split():
            if "^" in token:
                name, p = token.split("^", 1)
                if not p.removeprefix("-").isdecimal():
                    raise BadSubgroupSpecError(f"bad power {p!r} in word {text!r}")
                power = int(p)
            else:
                name, power = token, 1
            if name not in gens:
                raise BadSubgroupSpecError(f"unknown generator {name!r} in word {text!r}")
            step = gens[name] if power > 0 else self.inv(gens[name])
            for _ in range(abs(power)):
                out = self.mul(out, step)
        return out


class FreeAbelian(GroupModel):
    """Z^n with the standard basis; normal forms are integer tuples."""

    convex_balls = True

    def __init__(self, n: int):
        self.n = n

    def identity(self):
        return (0,) * self.n

    def generators(self):
        names = ["a", "b", "c", "d", "e"][: self.n] if self.n <= 5 else [f"e{i}" for i in range(self.n)]
        out = []
        for i, name in enumerate(names):
            v = [0] * self.n
            v[i] = 1
            out.append((name, tuple(v)))
        return out

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def length(self, g):
        return sum(abs(a) for a in g)

    def sortkey(self, g):
        return g

    def ball_size_estimate(self, radius):
        # exact L1 ball count via Vandermonde-type sum
        return sum(2**k * comb(self.n, k) * comb(radius, k) for k in range(min(self.n, radius) + 1))


class FreeGroup(GroupModel):
    """F_k with a free basis; normal forms are tuples of nonzero signed letters."""

    convex_balls = True

    def __init__(self, k: int):
        self.k = k

    def identity(self):
        return ()

    def generators(self):
        names = ["a", "b", "c", "d", "e"][: self.k] if self.k <= 5 else [f"x{i}" for i in range(self.k)]
        return [(name, (i + 1,)) for i, name in enumerate(names)]

    def mul(self, g, h):
        g = list(g)
        for x in h:
            if g and g[-1] == -x:
                g.pop()
            else:
                g.append(x)
        return tuple(g)

    def inv(self, g):
        return tuple(-x for x in reversed(g))

    def length(self, g):
        return len(g)

    def sortkey(self, g):
        return (len(g), g)

    def ball_size_estimate(self, radius):
        k = self.k
        if k == 1:
            return 2 * radius + 1
        return 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)


class Amalgam(GroupModel):
    """The amalgam Z^2 *_Z Z^2 of two planes glued along a common axis.

    With presentation <x, y | [x,y]> *_{y=y} <z, y | [z,y]> the shared
    generator y is central, so coset-representative normal forms reduce to
    pairs (free word in x,z; power of y), and the word length over the
    generators {x, y, z} splits as the sum of the two parts. Factor 0 is
    the free part <x, z>, factor 1 the axis <y>.
    """

    convex_balls = True

    def identity(self):
        return ((), (0,))

    def generators(self):
        return [("x", ((1,), (0,))), ("z", ((2,), (0,))), ("y", ((), (1,)))]

    def mul(self, g, h):
        u, (a,) = g
        v, (b,) = h
        if not u or not v or u[-1] != -v[0]:  # nothing cancels: every y-step, most BFS steps
            return (u + v, (a + b,))
        n, m = len(u), 1  # m letters of u's tail cancel against v's head
        top = min(n, len(v))
        while m < top and u[n - 1 - m] == -v[m]:
            m += 1
        return (u[: n - m] + v[m:], (a + b,))

    def inv(self, g):
        u, (a,) = g
        return (tuple(-x for x in reversed(u)), (-a,))

    def length(self, g):
        return len(g[0]) + abs(g[1][0])

    def sortkey(self, g):
        return ((len(g[0]), g[0]), g[1])

    def ball_size_estimate(self, radius):
        # exact: s(L) free words of length L (s(0) = 1, s(L) = 4·3^(L-1)), each with 2(R - L) + 1 powers of y
        return sum((4 * 3 ** (L - 1) if L else 1) * (2 * (radius - L) + 1) for L in range(radius + 1))


amalgam_z2_z_z2 = Amalgam  # the family name scenarios use


class Lamplighter(GroupModel):
    """Z_2 wr Z with generators t (move) and s (toggle at the cursor).

    Normal forms are (frozenset of lit positions, cursor). Word length is
    |lit| plus the shortest walk from 0 visiting every lit position and
    ending at the cursor.
    """

    convex_balls = False

    def identity(self):
        return (frozenset(), 0)

    def generators(self):
        return [("t", (frozenset(), 1)), ("s", (frozenset([0]), 0))]

    def mul(self, g, h):
        s1, c1 = g
        s2, c2 = h
        return (s1 ^ frozenset(p + c1 for p in s2), c1 + c2)

    def inv(self, g):
        s, c = g
        return (frozenset(p - c for p in s), -c)

    def length(self, g):
        s, c = g
        if not s:
            return abs(c)
        lo = min(min(s), 0, c)
        hi = max(max(s), 0, c)
        left_first = (0 - lo) + (hi - lo) + abs(hi - c)
        right_first = (hi - 0) + (hi - lo) + abs(c - lo)
        return len(s) + min(left_first, right_first)

    def sortkey(self, g):
        s, c = g
        return (c, tuple(sorted(s)))


class WordMetricBall(FiniteMetricSpace):
    """A group ball with the global word metric, for balls that are not convex.

    ``elements`` are normal forms in (word length, sort key) order with the
    identity first, and ``index`` inverts them. The scale-1 rows are the
    Cayley adjacency, taken as handed over: |x^-1 y| = 1 exactly when
    y = x·s for a step s, so they cost no product.
    """

    def __init__(
        self, model: GroupModel, elements: list, index: dict, radial: list, radius: int, cayley_adjacency: list
    ):
        self.model = model
        self.elements = elements
        self.index = index
        super().__init__(
            len(elements), labels=elements, radial=radial, window_radius=radius, basepoint=0
        )
        self._scale_adj_cache[1] = cayley_adjacency

    def _compute_row(self, x: int) -> array:
        mul, length = self.model.mul, self.model.length
        g_inv = self.model.inv(self.elements[x])
        return array("i", [length(mul(g_inv, h)) for h in self.elements])

    def _near(self, ids: list[int], r: float) -> dict[int, int]:
        # d(x, S) <= r exactly when x = s·b with |b| <= r, and B_r(e) lies in
        # the window while r <= radius; beyond it rows are scanned. Elements
        # ascend in word length, so the first b to reach x is the nearest.
        if r > self.window_radius:
            return super()._near(ids, r)
        mul, get, elements, radial = self.model.mul, self.index.get, self.elements, self.radial
        sources = [elements[s] for s in ids]
        near: dict[int, int] = {}
        for b in range(bisect_right(radial, r)):
            h = elements[b]
            for g in sources:
                i = get(mul(g, h))
                if i is not None and i not in near:
                    near[i] = radial[b]
        return near


@dataclass
class BallModel:
    """All elements of word length <= radius, with both metrics and a partial action.

    The last four fields are the BFS's, shared by every ball cut out of
    this one. The BFS numbers elements as it first forms them, layer by
    layer, so B_r holds exactly the discovery numbers below |B_r|.
    """

    model: GroupModel
    radius: int
    elements: list
    index: dict
    space: FiniteMetricSpace
    cayley_adjacency: list[list[int]]
    moves: array  # per id x, k entries: the discovery number of x·s per step s, -1 outside the built ball
    ids: list  # discovery number -> id; a list, whose int objects the rows and tables share
    origin: array  # per id x > 0: the position p·k + s in moves of the move that first reached x, |p| = |x| - 1
    steps: list  # the k generator steps, in the order of each element's moves

    def act_left(self, g, x: int) -> Optional[int]:
        """Id of g * elements[x], or None when the product leaves the window."""
        return self.index.get(self.model.mul(g, self.elements[x]))

    def act_right(self, x: int, g) -> Optional[int]:
        """Id of elements[x] * g, or None outside the window; a step g is read off the move table."""
        if g in self.steps:
            t = self.moves[x * len(self.steps) + self.steps.index(g)]
            return self.ids[t] if 0 <= t < len(self.elements) else None
        return self.index.get(self.model.mul(self.elements[x], g))

    def action_table(self, g) -> list[Optional[int]]:
        """``[act_left(g, x) for x in ids]``, read off the move table where it can be.

        Filled in id order by a recurrence over ``origin``: if x = p·s with p
        one layer shorter, then g·x = (g·p)·s, whose discovery number the
        table holds in row g·p. Only where g·p leaves the window is g·x formed
        as a product (``act_left``), so the table is exact for any g. A
        generator step keeps |g·p| <= |p| + 1 <= radius and forms no product.
        """
        n, moves, ids, origin, k = len(self.elements), self.moves, self.ids, self.origin, len(self.steps)
        table = [self.index.get(g)]
        append = table.append
        for x, pos in enumerate(origin[1:n], 1):
            p = pos // k
            gp = table[p]
            if gp is None:
                append(self.act_left(g, x))
            else:
                t = moves[pos + (gp - p) * k]  # pos = p·k + s, so this is (g·p)·s
                append(ids[t] if 0 <= t < n else None)
        return table

    def induced_space(self) -> FiniteMetricSpace:
        """The ball with the path metric of its own Cayley subgraph."""
        return FiniteMetricSpace(
            len(self.elements),
            adjacency=self.cayley_adjacency,
            labels=self.space.labels,
            radial=self.space.radial,
            window_radius=self.radius,
            basepoint=self.index[self.model.identity()],
        )


def build_ball(model: GroupModel, radius: int, max_vertices: int = MAX_VERTICES) -> BallModel:
    """Enumerate the word-metric ball by BFS over generator moves.

    Element ids are assigned in (word length, normal-form sort key) order,
    so identical inputs always produce identical spaces. Each product g·s
    is formed at most once: the BFS records the ones it forms, by discovery
    number, and the ball keeps that move table, with the move that first
    reached each element, for its action tables. The last layer R
    discovers nothing, and its moves are not formed but transposed: the
    relators have even length, so x·s in the ball has length R - 1, x·s = p
    exactly when p·s^-1 = x for p in layer R - 1, and each such move of p
    sets x's entry for s; every other entry of x is outside.
    Layer i holds the elements of word length i, since every prefix of a
    geodesic word lies in the ball, so the layers give ``radial`` and no
    product needs a length test: layer i forms lengths <= i + 1 <= radius.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    est = model.ball_size_estimate(radius)
    if est is not None and est > max_vertices:
        raise WindowTooLargeError(est, max_vertices)
    gens = [g for _, g in model.generators()]
    steps = []
    for g in gens:
        steps.append(g)
        inv = model.inv(g)
        if inv != g:
            steps.append(inv)
    mul = model.mul
    found = {model.identity(): 0}  # element -> discovery number
    reached = array("i", [-1])  # discovery number -> position in moves of the move that found it
    layers = [[model.identity()]]
    moves = array("i")
    for _ in range(radius):
        frontier = []
        for g in layers[-1]:  # the layers before come in id order, so g's moves land at its id
            for s in steps:
                h = mul(g, s)
                t = found.get(h)
                if t is None:
                    t = found[h] = len(found)
                    reached.append(len(moves))
                    frontier.append(h)
                    if t >= max_vertices:
                        raise WindowTooLargeError(t + 1, max_vertices)
                moves.append(t)
        layers.append(sorted(frontier, key=model.sortkey))
    elements = [g for layer in layers for g in layer]
    index = {g: i for i, g in enumerate(elements)}
    ids = [index[g] for g in found]  # found iterates in discovery order
    n, k = len(elements), len(steps)
    inner = n - len(layers[-1])  # |B_{R-1}|, also the first discovery number of layer R
    back = [steps.index(model.inv(s)) for s in steps]
    moves.extend(array("i", [-1]) * (len(layers[-1]) * k))
    for p, g in enumerate(layers[-2], inner - len(layers[-2])):
        d = found[g]
        for s in range(k):
            t = moves[p * k + s]
            if t >= inner:
                moves[ids[t] * k + back[s]] = d
    origin = array("i", bytes(4 * n))
    for t, x in enumerate(ids):
        origin[x] = reached[t]
    # the steps are distinct and none is the identity, so a row has no repeat and not its own point
    adj = [sorted([ids[t] for t in moves[i * k:(i + 1) * k] if t >= 0]) for i in range(n)]
    radial = [d for d, layer in enumerate(layers) for _ in layer]
    if model.convex_balls:
        space = FiniteMetricSpace(
            n, adjacency=adj, labels=elements, radial=radial, window_radius=radius, basepoint=0
        )
        adj = space.adjacency_at_scale(1)  # the space's own lists, shared
    else:
        space = WordMetricBall(model, elements, index, radial, radius, adj)
    return BallModel(model, radius, elements, index, space, adj, moves, ids, origin, steps)


def invert_table(table: list) -> list[Optional[int]]:
    """g^-1's action table from g's: g^-1·z = x exactly when g·x = z and both lie in the window."""
    inverse = [None] * len(table)
    for x, z in enumerate(table):
        if z is not None:
            inverse[z] = x
    return inverse


def restrict_ball(ball: BallModel, r: int) -> BallModel:
    """B_r cut out of a larger ball of a family with convex balls.

    Ids are in (word length, sort key) order, so B_r is the prefix of the
    elements up to length r, and each Cayley adjacency list is cut at its
    size; the result equals ``build_ball(ball.model, r)``. The BFS
    discovered B_r before anything longer, so the move table, ``ids``,
    ``origin`` and the steps are shared uncut: a discovery number >= |B_r|
    is outside.
    """
    if not ball.model.convex_balls or not 1 <= r <= ball.radius:
        raise ValueError(f"cannot restrict a radius-{ball.radius} ball to radius {r}")
    if r == ball.radius:
        return ball
    radial = ball.space.radial
    n = bisect_right(radial, r)
    elements = ball.elements[:n]
    index = {g: i for i, g in enumerate(elements)}
    adj = [a[: bisect_left(a, n)] for a in ball.cayley_adjacency[:n]]
    space = FiniteMetricSpace(n, adjacency=adj, labels=elements, radial=radial[:n], window_radius=r, basepoint=0)
    adj = space.adjacency_at_scale(1)  # the space's own lists, shared
    return BallModel(ball.model, r, elements, index, space, adj, ball.moves, ball.ids, ball.origin, ball.steps)


# -- subgroup traces ----------------------------------------------------------------


def _element(model: GroupModel, value, kind: str):
    """A subgroup spec's element: a word in the generator names, a normal form (a tuple), or a Z^n vector."""
    if isinstance(value, str):
        return model.parse_word(value)
    if isinstance(value, tuple):
        return value
    if isinstance(model, FreeAbelian) and isinstance(value, list) and len(value) == model.n:
        if all(type(a) is int for a in value):
            return tuple(value)
    raise BadSubgroupSpecError(f"{kind} expects a word or a normal form, got {value!r}")


def subgroup_trace(ball: BallModel, spec) -> SubsetMask:
    """Mask of ball elements lying in the specified subgroup.

    Spec forms:
      {"cyclic": word-or-nf}            one generator (a Z^n element may be a list)
      {"factor": i}                     the free part <x, z> (0) or the axis <y> (1) of the amalgam
      {"sublattice": {"k": 2, "coords": [0]}}   k Z^m inside Z^n, generated by k e_j (k >= 1, axes below n)
      {"generators": [words-or-nfs]}    the listed generators
    Any other value raises BadSubgroupSpecError. Every kind becomes a list
    of generators for one in-window BFS, stepping by each g and g^-1: it
    reaches g's powers up to the first outside the window, and on the
    convex amalgam and Z^n balls every element of a factor or sublattice.
    """
    model = ball.model
    if not isinstance(spec, dict) or len(spec) != 1:
        raise BadSubgroupSpecError(f"spec must be a single-key dict, got {spec!r}")
    kind, value = next(iter(spec.items()))
    if kind == "factor":
        if not isinstance(model, Amalgam):
            raise BadSubgroupSpecError("factor spec requires the amalgam model")
        if type(value) is not int or value not in (0, 1):
            raise BadSubgroupSpecError(f"factor index must be 0 or 1, got {value!r}")
        gens = [g for name, g in model.generators() if (name == "y") == (value == 1)]
    elif kind == "sublattice":
        if not isinstance(model, FreeAbelian):
            raise BadSubgroupSpecError("sublattice spec requires a free abelian model")
        known = isinstance(value, dict) and value.keys() <= {"k", "coords"}
        k, coords = (value.get("k", 1), value.get("coords", list(range(model.n)))) if known else (0, None)
        if (
            type(k) is not int or k < 1 or not isinstance(coords, list)
            or not all(type(j) is int and 0 <= j < model.n for j in coords)
        ):
            raise BadSubgroupSpecError(
                f'sublattice expects {{"k": integer >= 1, "coords": [axes below {model.n}]}}, got {value!r}'
            )
        gens = [tuple(k * (i == j) for i in range(model.n)) for j in coords]
    elif kind == "cyclic":
        gens = [_element(model, value, kind)]
        if gens[0] == model.identity():
            raise BadSubgroupSpecError("cyclic generator is the identity")
    elif kind == "generators":
        if not isinstance(value, list):
            raise BadSubgroupSpecError(f"generators expects a list of words or normal forms, got {value!r}")
        gens = [_element(model, w, kind) for w in value]
    else:
        raise BadSubgroupSpecError(f"unknown spec kind {kind!r}")
    steps = [s for g in gens for s in (g, model.inv(g))]
    seen = {ball.index[model.identity()]}
    frontier = [model.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in steps:
                h = model.mul(g, s)
                i = ball.index.get(h)
                if i is not None and i not in seen:
                    seen.add(i)
                    nxt.append(h)
        frontier = nxt
    return SubsetMask(len(ball.elements), seen)


@dataclass
class CommensurabilityReport:
    """Windowed Hausdorff distances between two subgroup traces, per radius."""

    radii: list[int]
    distances: list[float]
    verdict: str  # "bounded" | "growing" | "inconclusive"


def commensurability_probe(
    model: GroupModel, H_spec, K_spec, radii: Sequence[int], max_vertices: int = MAX_VERTICES
) -> CommensurabilityReport:
    """Per-radius Hausdorff distance between the traces of H and K.

    "bounded" requires the distance to be constant over the last three
    radii; a strictly increasing tail reads "growing"; anything else is
    inconclusive.
    """
    from .metric import hausdorff_distance

    radii = sorted(radii)
    distances = []
    # convex families cut every smaller window out of the largest ball
    top = build_ball(model, radii[-1], max_vertices=max_vertices) if radii and model.convex_balls else None
    for R in radii:
        ball = restrict_ball(top, R) if top else build_ball(model, R, max_vertices=max_vertices)
        H = subgroup_trace(ball, H_spec)
        K = subgroup_trace(ball, K_spec)
        distances.append(hausdorff_distance(ball.space, H, K))
    verdict = trend_verdict(distances, "bounded")
    return CommensurabilityReport(list(radii), distances, verdict)


def trend_verdict(values: Sequence, bounded: object) -> object:
    """Three-valued trend over a monotone schedule family, as a report prints it.

    ``bounded`` when the last three entries are identical (each caller names
    its word: "bounded", "stable", or the stable value itself); "growing"
    when they strictly increase; otherwise "inconclusive". The tool never
    certifies asymptotics, it reports the windowed trend.
    """
    if len(values) < 3:
        return "inconclusive"
    a, b, c = values[-3], values[-2], values[-1]
    if a == b == c:
        return bounded
    if a < b < c:
        return "growing"
    return "inconclusive"


__all__ = [
    "GroupModel",
    "FreeAbelian",
    "FreeGroup",
    "Amalgam",
    "Lamplighter",
    "amalgam_z2_z_z2",
    "WordMetricBall",
    "BallModel",
    "build_ball",
    "invert_table",
    "restrict_ball",
    "subgroup_trace",
    "CommensurabilityReport",
    "commensurability_probe",
    "trend_verdict",
]
