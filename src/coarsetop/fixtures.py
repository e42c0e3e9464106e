"""Grid fixtures: induced lattice subgraphs with a named separating set W.

Fixtures are clipped to the box window max(|coords|) <= radius; the radial
coordinate is the Chebyshev norm, so the collar is the outermost shell of
the box. The metric is the path metric of the induced subgraph on the
region (unit steps between region points), which is what makes the flap of
fig1 reachable only through the right half of the line.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import mul, sub
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
    """Induced subgraph of Z^d on the given points (unit L1 steps); ids follow their sorted order.

    ``_lattice_rows`` writes each point's sorted row, which the space keeps
    as its own adjacency list. On fig2_plane_fin R=10 the build's traced
    peak is about 1.16 times what the space keeps; an edge list, a dict and
    a sort per point made it about 3 times.
    """
    points = sorted(points)
    radial = [max(map(abs, p)) for p in points]
    origin = (0,) * len(points[0])
    base = bisect_left(points, origin)
    return FiniteMetricSpace(
        len(points),
        adjacency=_lattice_rows(points),
        labels=points,
        radial=radial,
        window_radius=window_radius if window_radius is not None else max(radial),
        basepoint=base if base < len(points) and points[base] == origin else None,
    )


def _lattice_rows(points: list[tuple]) -> list[list[int]]:
    """The sorted neighbour rows of sorted lattice points, one cell lookup per axis step.

    The index is one ``array('i')`` over the cells of the points' bounding
    box, padded by a cell on every side: each point's id, -1 elsewhere.
    Cells are numbered in row-major order, which is lexicographic order, so
    a step along axis k moves by that axis's stride and the neighbours
    p - e_0 < ... < p - e_{d-1} < p + e_{d-1} < ... < p + e_0 come in id
    order. Ids are read from one shared list, so each is one int object
    however many rows hold it. The box costs 4 bytes a cell; a fixture's
    region fills most of its box, which is checked against the vertex cap
    before any point is made. The index is freed on return, before the
    space copies labels and radii.
    """
    d = len(points[0])
    lo = [min(p[k] for p in points) - 1 for k in range(d)]
    strides = [1] * d
    for k in range(d - 1, 0, -1):
        strides[k - 1] = strides[k] * (max(p[k] for p in points) - lo[k] + 2)
    cells = array("i", [-1]) * (strides[0] * (max(p[0] for p in points) - lo[0] + 2))
    where = array("i", (sum(map(mul, map(sub, p, lo), strides)) for p in points))
    for i, x in enumerate(where):
        cells[x] = i
    ids = list(range(len(points)))
    steps = [-s for s in strides] + strides[::-1]
    adj = []
    for x in where:
        row = [ids[j] for s in steps if (j := cells[x + s]) >= 0]
        adj.append(row[:])  # exactly sized; a grown list keeps spare slots
    return adj


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
