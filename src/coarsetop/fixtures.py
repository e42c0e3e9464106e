"""Grid fixtures: induced lattice subgraphs with a named separating set W.

Fixtures are clipped to the box window max(|coords|) <= radius; the radial
coordinate is the Chebyshev norm, so the collar is the outermost shell of
the box. The metric is the path metric of the induced subgraph on the
region (unit steps between region points), which is what makes the flap of
fig1 reachable only through the right half of the line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import MAX_VERTICES, UnknownFixtureError, WindowTooLargeError
from .metric import FiniteMetricSpace, SubsetMask


@dataclass
class Fixture:
    name: str
    space: FiniteMetricSpace
    w: SubsetMask
    components: dict[str, SubsetMask]
    analysis_dim: int  # n for which W is a coarse PD_n candidate


def lattice_region(points: list[tuple], window_radius: Optional[int] = None) -> FiniteMetricSpace:
    """Induced subgraph of Z^d on the given points (unit L1 steps)."""
    points = sorted(points)
    index = {p: i for i, p in enumerate(points)}
    d = len(points[0])
    edges = []
    for p, i in index.items():
        for axis in range(d):
            q = tuple(c + (1 if k == axis else 0) for k, c in enumerate(p))
            j = index.get(q)
            if j is not None:
                edges.append((i, j))
    radial = [max(abs(c) for c in p) for p in points]
    return FiniteMetricSpace.from_graph(
        len(points),
        edges,
        labels=points,
        radial=radial,
        window_radius=window_radius if window_radius is not None else max(radial),
        basepoint=index.get(tuple([0] * d)),
    )


def _box(radius: int, dim: int, max_vertices: int):
    """The lattice points of the box window, refused before enumeration above the cap."""
    size = (2 * radius + 1) ** dim
    if size > max_vertices:
        raise WindowTooLargeError(size, max_vertices)
    rng = range(-radius, radius + 1)
    return itertools.product(*[rng] * dim)


_FIXTURES: dict[str, tuple[str, int]] = {
    "fig1_halfplane_flap": ("half-plane with a quadrant flap glued along half the line", 1),
    "fig2_plane_fin": ("plane with a half-space below and a cone-complement fin above", 2),
    "line_in_plane": ("the x-axis inside the full plane window", 1),
    "plane_in_space": ("the z=0 plane inside the full 3-space window", 2),
    "three_page_book": ("three half-planes of Z^3 glued along the x-axis: the z=0 plane and the fin y=0, z>0", 1),
}


def list_fixtures() -> dict[str, str]:
    return {name: desc for name, (desc, _) in sorted(_FIXTURES.items())}


def grid_fixture(name: str, radius: int, max_vertices: int = MAX_VERTICES) -> Fixture:
    """Build a named fixture clipped to the box window of the given radius.

    The box's (2 radius + 1)^d points are checked against ``max_vertices``
    before any is enumerated, as a group ball's size estimate is.
    """
    if name == "fig1_halfplane_flap":
        region = [p for p in _box(radius, 2, max_vertices) if p[1] <= 0 or p[0] >= 0]
        space = lattice_region(region, radius)
        w = space.mask_where(lambda p: p[1] == 0)
        comps = {
            "bottom": space.mask_where(lambda p: p[1] < 0),
            "top": space.mask_where(lambda p: p[0] >= 0 and p[1] > 0),
        }
        return Fixture(name, space, w, comps, 1)
    if name == "fig2_plane_fin":
        region = [
            p
            for p in _box(radius, 3, max_vertices)
            if p[2] == 0 or p[2] <= -1 or (1 <= p[2] <= max(abs(p[0]), abs(p[1])))
        ]
        space = lattice_region(region, radius)
        w = space.mask_where(lambda p: p[2] == 0)
        comps = {
            "bottom": space.mask_where(lambda p: p[2] < 0),
            "top": space.mask_where(lambda p: p[2] >= 1),
        }
        return Fixture(name, space, w, comps, 2)
    if name == "line_in_plane":
        space = lattice_region(list(_box(radius, 2, max_vertices)), radius)
        w = space.mask_where(lambda p: p[1] == 0)
        comps = {
            "upper": space.mask_where(lambda p: p[1] > 0),
            "lower": space.mask_where(lambda p: p[1] < 0),
        }
        return Fixture(name, space, w, comps, 1)
    if name == "plane_in_space":
        space = lattice_region(list(_box(radius, 3, max_vertices)), radius)
        w = space.mask_where(lambda p: p[2] == 0)
        comps = {
            "upper": space.mask_where(lambda p: p[2] > 0),
            "lower": space.mask_where(lambda p: p[2] < 0),
        }
        return Fixture(name, space, w, comps, 2)
    if name == "three_page_book":
        region = [p for p in _box(radius, 3, max_vertices) if p[2] == 0 or (p[1] == 0 and p[2] > 0)]
        space = lattice_region(region, radius)
        w = space.mask_where(lambda p: p[1] == 0 and p[2] == 0)
        comps = {
            "fin": space.mask_where(lambda p: p[2] > 0),
            "north": space.mask_where(lambda p: p[1] > 0),
            "south": space.mask_where(lambda p: p[1] < 0),
        }
        return Fixture(name, space, w, comps, 1)
    raise UnknownFixtureError(name, _FIXTURES)


def crossing_cochain(space: FiniteMetricSpace, axis: int, threshold_below: int) -> Callable:
    """Edge predicate: does {u, v} cross the dual hyperplane coord=threshold+1/2.

    Returns a function on (vertex id, vertex id) usable to build degree-1
    cocycles on any Rips complex over this space; the crossing count of a
    triangle's three sides is always even, so the coboundary vanishes.
    """
    labels = space.labels

    def cross(u: int, v: int) -> int:
        a, b = labels[u][axis], labels[v][axis]
        return 1 if (a <= threshold_below < b) or (b <= threshold_below < a) else 0

    return cross


__all__ = ["Fixture", "lattice_region", "grid_fixture", "list_fixtures", "crossing_cochain"]
