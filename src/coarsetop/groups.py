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
scale-r neighbourhood of g is the translate g B_r(e). No distance table is
built. Both metrics are exposed on the ball.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb, inf
from typing import Optional, Sequence

from .errors import MAX_VERTICES, BadSubgroupSpecError, WindowTooLargeError
from .metric import FiniteMetricSpace, SubsetMask


class GroupModel:
    """Base class; subclasses provide normal forms and word length."""

    family: str = "abstract"
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
        self.family = f"Z^{n}"

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
        self.family = f"F_{k}"

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

    family = "Z2*_Z*Z2"
    convex_balls = True
    _free = FreeGroup(2)

    def identity(self):
        return ((), (0,))

    def generators(self):
        return [("x", ((1,), (0,))), ("z", ((2,), (0,))), ("y", ((), (1,)))]

    def mul(self, g, h):
        u, (a,) = g
        v, (b,) = h
        n, m = len(u), 0  # m letters of u's tail cancel against v's head
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
        # crude upper bound: the free ball times the axis segment
        return self._free.ball_size_estimate(radius) * (2 * radius + 1)


amalgam_z2_z_z2 = Amalgam  # the family name scenarios use


class Lamplighter(GroupModel):
    """Z_2 wr Z with generators t (move) and s (toggle at the cursor).

    Normal forms are (frozenset of lit positions, cursor). Word length is
    |lit| plus the shortest walk from 0 visiting every lit position and
    ending at the cursor.
    """

    family = "lamplighter"
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
    identity first, and ``index`` inverts them.
    """

    def __init__(self, model: GroupModel, elements: list, index: dict, radial: list, radius: int):
        self.model = model
        self.elements = elements
        self.index = index
        super().__init__(
            len(elements), labels=elements, radial=radial, window_radius=radius, basepoint=0
        )

    def _compute_row(self, x: int) -> array:
        mul, length = self.model.mul, self.model.length
        g_inv = self.model.inv(self.elements[x])
        return array("i", [length(mul(g_inv, h)) for h in self.elements])

    def _neighbours_at_scale(self, r: int) -> list[list[int]]:
        # N_r(g) = g B_r(e) holds inside the window only while B_r(e) does,
        # that is for r <= radius; beyond it the rows are scanned.
        if r > self.window_radius:
            return super()._neighbours_at_scale(r)
        mul, get = self.model.mul, self.index.get
        prefix = self.elements[1 : bisect_right(self.radial, r)]
        out = []
        for g in self.elements:
            ids = [get(mul(g, b)) for b in prefix]
            out.append(sorted(i for i in ids if i is not None))
        return out

    def _field(self, ids: list[int], limit: Optional[int]) -> list[float]:
        # d(x, S) <= limit exactly when x = s·b with |b| <= limit, and B_limit(e)
        # lies in the window while limit <= radius; beyond it rows are read.
        if limit is None or limit > self.window_radius:
            return super()._field(ids, limit)
        mul, get, elements, radial = self.model.mul, self.index.get, self.elements, self.radial
        prefix = range(bisect_right(radial, limit))
        out = [inf] * self.n
        for s in ids:
            g = elements[s]
            for b in prefix:
                i = get(mul(g, elements[b]))
                if i is not None and radial[b] < out[i]:
                    out[i] = radial[b]
        return out


@dataclass
class BallModel:
    """All elements of word length <= radius, with both metrics and a partial action."""

    model: GroupModel
    radius: int
    elements: list
    index: dict
    space: FiniteMetricSpace
    cayley_adjacency: list[list[int]]

    def act_left(self, g, x: int) -> Optional[int]:
        """Id of g * elements[x], or None when the product leaves the window."""
        return self.index.get(self.model.mul(g, self.elements[x]))

    def act_right(self, x: int, g) -> Optional[int]:
        return self.index.get(self.model.mul(self.elements[x], g))

    def action_table(self, g) -> list[Optional[int]]:
        return [self.act_left(g, x) for x in range(len(self.elements))]

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
    is formed once: the BFS records the ones it forms, by discovery number,
    and only the last layer's are formed afterwards for the adjacency.
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
    mul, length = model.mul, model.length
    found = {model.identity(): 0}  # element -> discovery number
    layers = [[model.identity()]]
    moves = array("l")  # per element in id order: discovery number of g·s per step, -1 outside the ball
    for _ in range(radius):
        frontier = []
        for g in layers[-1]:  # the layers before come in id order, so g's moves land at its id
            for s in steps:
                h = mul(g, s)
                t = found.get(h)
                if t is None and length(h) <= radius:
                    t = found[h] = len(found)
                    frontier.append(h)
                    if t >= max_vertices:
                        raise WindowTooLargeError(t + 1, max_vertices)
                moves.append(-1 if t is None else t)
        layers.append(sorted(frontier, key=model.sortkey))
    for g in layers[-1]:
        moves.extend(found.get(mul(g, s), -1) for s in steps)
    elements = [g for layer in layers for g in layer]
    index = {g: i for i, g in enumerate(elements)}
    ids = [0] * len(elements)  # discovery number -> id
    for g, t in found.items():
        ids[t] = index[g]
    n, k = len(elements), len(steps)
    adj = [sorted({ids[t] for t in moves[i * k:(i + 1) * k] if t >= 0} - {i}) for i in range(n)]
    radial = [length(g) for g in elements]
    if model.convex_balls:
        space = FiniteMetricSpace(
            n, adjacency=adj, labels=elements, radial=radial, window_radius=radius, basepoint=0
        )
    else:
        space = WordMetricBall(model, elements, index, radial, radius)
    return BallModel(model, radius, elements, index, space, adj)


def restrict_ball(ball: BallModel, r: int) -> BallModel:
    """B_r cut out of a larger ball of a family with convex balls.

    Ids are in (word length, sort key) order, so B_r is the prefix of the
    elements up to length r, and each Cayley adjacency list is cut at its
    size; the result equals ``build_ball(ball.model, r)``.
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
    return BallModel(ball.model, r, elements, index, space, adj)


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
      {"cyclic": word-or-nf}            powers of one element (a Z^n element may be a list)
      {"factor": i}                     the free part (0) or the axis (1) of the amalgam
      {"sublattice": {"k": 2, "coords": [0]}}   k Z^m inside Z^n (k >= 1, axes below n)
      {"generators": [words-or-nfs]}    in-window BFS over the listed generators
    Any other value raises BadSubgroupSpecError.
    """
    model = ball.model
    if not isinstance(spec, dict) or len(spec) != 1:
        raise BadSubgroupSpecError(f"spec must be a single-key dict, got {spec!r}")
    kind, value = next(iter(spec.items()))
    if kind == "cyclic":
        g = _element(model, value, kind)
        if g == model.identity():
            raise BadSubgroupSpecError("cyclic generator is the identity")
        ids = set()
        for step in (g, model.inv(g)):
            cur = model.identity()
            visited = set()
            while cur not in visited:
                visited.add(cur)
                i = ball.index.get(cur)
                if i is None:
                    break
                ids.add(i)
                cur = model.mul(cur, step)
        return SubsetMask(len(ball.elements), ids)
    if kind == "factor":
        if not isinstance(model, Amalgam):
            raise BadSubgroupSpecError("factor spec requires the amalgam model")
        if type(value) is not int or value not in (0, 1):
            raise BadSubgroupSpecError(f"factor index must be 0 or 1, got {value!r}")
        j, e = 1 - value, model.identity()  # the other part is trivial on the factor
        return SubsetMask(len(ball.elements), (t for t, g in enumerate(ball.elements) if g[j] == e[j]))
    if kind == "sublattice":
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
        coords = set(coords)
        def member(g):
            return all(
                (g[j] % k == 0) if j in coords else (g[j] == 0) for j in range(model.n)
            )
        return SubsetMask(len(ball.elements), (t for t, g in enumerate(ball.elements) if member(g)))
    if kind == "generators":
        if not isinstance(value, list):
            raise BadSubgroupSpecError(f"generators expects a list of words or normal forms, got {value!r}")
        gens = [_element(model, w, kind) for w in value]
        steps = []
        for g in gens:
            steps.append(g)
            steps.append(model.inv(g))
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
    raise BadSubgroupSpecError(f"unknown spec kind {kind!r}")


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
    verdict = trend_verdict(distances)
    return CommensurabilityReport(list(radii), distances, verdict)


def trend_verdict(values: Sequence) -> str:
    """Three-valued trend over a monotone schedule family.

    "bounded" = identical value at the last three entries; "growing" =
    strictly increasing over the last three; otherwise "inconclusive".
    The tool never certifies asymptotics, it reports the windowed trend.
    """
    if len(values) < 3:
        return "inconclusive"
    a, b, c = values[-3], values[-2], values[-1]
    if a == b == c:
        return "bounded"
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
    "restrict_ball",
    "subgroup_trace",
    "CommensurabilityReport",
    "commensurability_probe",
    "trend_verdict",
]
