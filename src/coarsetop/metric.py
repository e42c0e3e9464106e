"""Finite metric spaces, subset masks and neighborhoods.

Every analysis in the package runs over a :class:`FiniteMetricSpace`: a
finite window with integer point ids and an integer-valued distance. A
space has one of two backings: a unit-step graph, handed over as
adjacency lists, or a subclass that computes each row itself by
overriding ``_compute_row``. Group balls that are not convex in their
Cayley graph do so (``groups.WordMetricBall``), and so do the tests'
explicit distance tables.

Every distance and connectivity query rests on one traversal and one hook.
``flood`` is the one breadth-first search: hop counts from a set of
sources, cut at a depth and optionally kept inside a set. ``_near(S, r)``
maps each point within r of S to d(x, S); graph spaces flood, other spaces
scan rows, and a subclass may answer it faster. ``dist_to_set``,
``adjacency_at_scale``, graph rows and ``components`` derive from these
two and are never overridden. This class alone validates scales and
limits and caches rows and scale adjacencies; only ``dist_row`` stores a
row, and a subclass may only seed the scale-1 entry.

A scale adjacency is read one way at every scale: ``adj[x]`` gives the sorted
ids at distance in (0, r] from x. A graph space's scale 1 is its own
adjacency lists, ``_adj``, one Python list per point, because every flood
over the graph reads them: the same flood over array rows ran 2.5 to 3.3
times slower on the fig2 R=10 and amalgam R=7 graphs; ``groups.WordMetricBall``
seeds its scale 1 with its Cayley graph's lists. Every other scale is
computed once and stored flat as :class:`FlatRows`, one ``array('i')`` of
all rows end to end plus per-point offsets. On fig2 R=10 at scale 2 that
is 4.4 bytes a neighbour, offsets included, where a list per point took
11.2.

``dist_to_set(S, limit)`` is the one distance-to-a-set query. With a limit
r, every point at distance more than r from S reads inf and every other
point its exact distance, so ``d[x] <= r`` tests x in N_r(S) exactly; a
graph flood stops at depth r. Callers that compare with one fixed radius
pass it; callers that need distances themselves (Hausdorff distances,
spreads, shallow depths) pass no limit.

Values are immutable after construction; the per-source distance cache is
an idempotent fill and safe to share between threads.
"""

from __future__ import annotations

import math
from array import array
from operator import lt
from typing import Callable, Container, Iterable, Optional, Sequence

from .errors import EmptySubsetError

UNREACHABLE = -1  # sentinel inside distance rows; surfaces as math.inf


class SubsetMask:
    """An immutable subset of the point ids of a parent space."""

    __slots__ = ("parent_size", "ids")

    def __init__(self, parent_size: int, ids: Iterable[int]):
        self.parent_size = parent_size
        self.ids = frozenset(ids)
        if self.ids and (min(self.ids) < 0 or max(self.ids) >= parent_size):
            raise ValueError("mask ids outside parent range")

    @classmethod
    def full(cls, parent_size: int) -> "SubsetMask":
        return cls(parent_size, range(parent_size))

    @classmethod
    def empty(cls, parent_size: int) -> "SubsetMask":
        return cls(parent_size, ())

    def sorted_ids(self) -> list[int]:
        return sorted(self.ids)

    def _check(self, other: "SubsetMask") -> None:
        if self.parent_size != other.parent_size:
            raise ValueError("masks over different parents")

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.parent_size, self.ids & other.ids)

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.parent_size, self.ids | other.ids)

    def __xor__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.parent_size, self.ids ^ other.ids)

    def __sub__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.parent_size, self.ids - other.ids)

    def __invert__(self) -> "SubsetMask":
        return SubsetMask(self.parent_size, set(range(self.parent_size)) - self.ids)

    def __contains__(self, i: int) -> bool:
        return i in self.ids

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.sorted_ids())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetMask)
            and self.parent_size == other.parent_size
            and self.ids == other.ids
        )

    def __hash__(self) -> int:
        return hash((self.parent_size, self.ids))

    def issubset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.ids <= other.ids

    def __repr__(self) -> str:
        return f"SubsetMask({len(self.ids)}/{self.parent_size})"


class FlatRows:
    """Sorted rows of ints stored end to end: row x is ``points[offsets[x]:offsets[x + 1]]``."""

    __slots__ = ("points", "offsets")

    def __init__(self, points: array, offsets: array):
        self.points, self.offsets = points, offsets

    def __getitem__(self, x: int) -> array:
        return self.points[self.offsets[x] : self.offsets[x + 1]]  # past the end raises IndexError


class FiniteMetricSpace:
    """Finite point set with a symmetric integer distance.

    ``labels`` carry per-point annotations (lattice coordinates, group
    normal forms); ``radial`` is the distance from the window's basepoint in
    the defining model and drives collar logic; ``window_radius`` is the
    radius the window was constructed at. An adjacency list handed over
    sorted, without duplicates and without its own point is kept as the
    space's own, not copied, and so are ``labels`` and ``radial`` handed
    over as lists, so the caller must not change them afterwards.
    """

    def __init__(
        self,
        n: int,
        adjacency: Optional[Sequence[Sequence[int]]] = None,
        labels: Optional[Sequence] = None,
        radial: Optional[Sequence[int]] = None,
        window_radius: Optional[int] = None,
        basepoint: Optional[int] = None,
    ):
        computed = type(self)._compute_row is not FiniteMetricSpace._compute_row
        if (adjacency is not None) == computed:
            raise ValueError("exactly one of adjacency or a row computation must back the space")
        self.n = n
        # the one copy of the graph: sorted, without duplicates or the point
        # itself; a list handed over in that form is kept, not copied
        self._adj = None if adjacency is None else [
            a if type(a) is list and x not in a and all(map(lt, a, a[1:])) else sorted(set(a).difference((x,)))
            for x, a in enumerate(adjacency)
        ]
        self.labels = labels if labels is None or type(labels) is list else list(labels)
        self.window_radius = window_radius
        self.basepoint = basepoint
        self._row_cache: dict[int, array] = {}
        self._scale_adj_cache: dict[int, Sequence[Sequence[int]]] = {}
        if radial is not None:
            self.radial = radial if type(radial) is list else list(radial)
        elif basepoint is not None:
            self.radial = [d if d != UNREACHABLE else 10**9 for d in self.dist_row(basepoint)]
        else:
            self.radial = None

    # -- distances -------------------------------------------------------------

    def dist_row(self, x: int) -> array:
        row = self._row_cache.get(x)
        if row is None:
            row = self._row_cache[x] = self._compute_row(x)
        return row

    def _compute_row(self, x: int) -> array:
        """Distances from x, uncached; a graph space floods, a subclass overrides this to back the space."""
        row = array("i", [UNREACHABLE]) * self.n
        for y, d in flood(self._adj, [x]).items():
            row[y] = d
        return row

    def _near(self, ids: list[int], r: float) -> dict[int, int]:
        """{x: d(x, S)} for the points within r of S; subclasses may override.

        Without a graph the rows of S are scanned. A row is read from the
        cache when it is there and is never stored, so ``dist_row`` alone
        grows the cache.
        """
        if self._adj is not None:
            return flood(self._adj, ids, r)
        near: dict[int, int] = {}
        for s in ids:
            row = self._row_cache.get(s)
            if row is None:
                row = self._compute_row(s)
            for x, d in enumerate(row):
                if 0 <= d <= r and d < near.get(x, d + 1):
                    near[x] = d
        return near

    def dist(self, x: int, y: int) -> float:
        d = self.dist_row(x)[y]
        return math.inf if d == UNREACHABLE else d

    def dist_to_set(self, ids: Iterable[int], limit: Optional[int] = None) -> list[float]:
        """d(x, S) for every x; with a limit, every d(x, S) > limit reads inf."""
        ids = sorted(set(ids))
        if not ids:
            raise EmptySubsetError()
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        out = [math.inf] * self.n
        for x, d in self._near(ids, math.inf if limit is None else limit).items():
            out[x] = d
        return out

    def adjacency_at_scale(self, r: int) -> Sequence[Sequence[int]]:
        """For each point x, ``[x]`` gives the sorted points at distance in (0, r]; cached, read only.

        At r = 1 a graph space returns its own adjacency lists, not a copy;
        every other scale is :class:`FlatRows`.
        """
        if r < 0:
            raise ValueError("scale must be >= 0")
        cached = self._scale_adj_cache.get(r)
        if cached is None:
            if self._adj is not None and r == 1:
                cached = self._adj
            else:
                points, offsets = array("i"), array("i", [0])
                for x in range(self.n):
                    near = self._near([x], r)
                    near.pop(x)
                    points.extend(sorted(near))
                    offsets.append(len(points))
                cached = FlatRows(points, offsets)
            self._scale_adj_cache[r] = cached
        return cached

    def components(self, mask: SubsetMask, scale: int) -> list[list[int]]:
        """Connected components of the scale-adjacency graph on a mask.

        One flood fill from each unvisited id in ascending order, so
        components come ordered by their smallest id; each is sorted.
        """
        adj = self.adjacency_at_scale(scale)
        seen: set[int] = set()
        out = []
        for v in mask.sorted_ids():
            if v not in seen:
                comp = flood(adj, [v], within=mask.ids)
                seen.update(comp)
                out.append(sorted(comp))
        return out

    # -- masks and set operations ------------------------------------------------

    def full_mask(self) -> SubsetMask:
        return SubsetMask.full(self.n)

    def mask_where(self, pred: Callable) -> SubsetMask:
        """Mask of points whose label satisfies pred."""
        if self.labels is None:
            raise ValueError("space has no labels")
        return SubsetMask(self.n, (i for i, lab in enumerate(self.labels) if pred(lab)))

    def collar_mask(self, width: int) -> SubsetMask:
        """Outermost shell of the window; these points never decide verdicts."""
        if self.radial is None or self.window_radius is None:
            return SubsetMask.empty(self.n)
        cut = self.window_radius - width
        return SubsetMask(self.n, (i for i in range(self.n) if self.radial[i] > cut))

    def interior_mask(self, width: int) -> SubsetMask:
        return ~self.collar_mask(width)


# -- module-level operations ------------------------------------------------------


def flood(
    adj: Sequence[Sequence[int]],
    sources: Iterable[int],
    depth: Optional[float] = None,
    within: Optional[Container[int]] = None,
) -> dict[int, int]:
    """Breadth-first hop counts from the sources over adj, cut at depth.

    Points farther than depth are not reached; with ``within``, only points
    of that set are entered. Every traversal of a space's points runs here.
    """
    found = dict.fromkeys(sources, 0)
    frontier = list(found)
    d = 0
    while frontier and d != depth:
        d += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w not in found and (within is None or w in within):
                    found[w] = d
                    reached.append(w)
        frontier = reached
    return found


def neighborhood(X: FiniteMetricSpace, S: SubsetMask, r: int) -> SubsetMask:
    """{ x : d(x, S) <= r }; monotone in both r and S."""
    if len(S) == 0:
        raise EmptySubsetError()
    if r < 0:
        raise ValueError("r must be >= 0")
    d = X.dist_to_set(S.ids, r)
    return SubsetMask(X.n, (x for x in range(X.n) if d[x] <= r))


def hausdorff_distance(X: FiniteMetricSpace, A: SubsetMask, B: SubsetMask) -> float:
    """inf { r : A <= N_r(B) and B <= N_r(A) } within the window."""
    if len(A) == 0 or len(B) == 0:
        raise EmptySubsetError()
    dB = X.dist_to_set(B.ids)
    dA = X.dist_to_set(A.ids)
    return max(
        max(dB[a] for a in A.ids),
        max(dA[b] for b in B.ids),
    )


__all__ = [
    "UNREACHABLE",
    "SubsetMask",
    "FlatRows",
    "FiniteMetricSpace",
    "flood",
    "neighborhood",
    "hausdorff_distance",
]
