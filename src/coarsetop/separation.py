"""Coarse boundaries, complementary components, relative ends, stabilizers.

A coarse complementary component of W at parameters (r, A) is a set C with
boundary_r(C \\ N_A(W)) inside N_A(W); equivalently a union of components
of the r-adjacency graph off N_A(W). "Deep" properly means not contained
in any neighborhood of W, an asymptotic statement; its finite surrogate
here is reaching the collar while escaping N_{A+collar}(W). Every verdict
names the window it was computed on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import CoarseTopError, EmptySubsetError
from .groups import BallModel, invert_table, trend_verdict
from .metric import FiniteMetricSpace, SubsetMask, hausdorff_distance, neighborhood


def coarse_boundary(X: FiniteMetricSpace, C: SubsetMask, r: int) -> SubsetMask:
    """{ x not in C : d(x, C) <= r }."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if len(C) == 0:
        return SubsetMask.empty(X.n)
    d = X.dist_to_set(C.ids, r)
    return SubsetMask(X.n, (x for x in range(X.n) if x not in C.ids and d[x] <= r))


def is_coarse_complementary(X: FiniteMetricSpace, nA: SubsetMask, C: SubsetMask, r: int) -> bool:
    """Literal containment check boundary_r(C \\ N_A(W)) inside N_A(W), given N_A(W) as ``nA``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    core = C - nA
    if len(core) == 0:
        return True  # vacuously complementary
    bdry = coarse_boundary(X, core, r)
    return bdry.issubset(nA)


@dataclass
class CoarseComponent:
    mask: SubsetMask
    touches_collar: bool
    deep: bool


@dataclass
class CoarseComponentSet:
    """Components of the r-adjacency graph off N_A(W), with depth labels."""

    space: FiniteMetricSpace
    nA: SubsetMask
    components: list[CoarseComponent]

    def deep_components(self) -> list[CoarseComponent]:
        return [c for c in self.components if c.deep]

    def shallow_components(self) -> list[CoarseComponent]:
        return [c for c in self.components if not c.deep]


def complement_components(
    X: FiniteMetricSpace,
    W: SubsetMask,
    r: int,
    A: int,
    collar: int = 2,
) -> CoarseComponentSet:
    """Components of P_r(X) \\ P_r(N_A(W)), by flood fill, ordered by smallest id.

    deep = touches the collar and is not contained in N_{A+collar}(W) for
    the largest collar-safe test radius; the labels are monotone under
    window growth. N_A(W) and the depth test read one field cut at A + collar.
    """
    if len(W) == 0:
        raise EmptySubsetError("W must be nonempty")
    nA, depth = _separation(X, W, A, collar)
    comps = [CoarseComponent(SubsetMask(X.n, comp), *depth(comp)) for comp in X.components(~nA, r)]
    return CoarseComponentSet(X, nA, comps)


def _separation(
    X: FiniteMetricSpace, W: SubsetMask, A: int, collar: int
) -> tuple[SubsetMask, Callable[[Iterable[int]], tuple[bool, bool]]]:
    """N_A(W), and the depth of a set of points off it: (touches the collar, deep).

    It touches the collar when a point reaches past R - collar (never without
    a window radius and a radial function), and is deep when it touches and
    a point also escapes N_{A+collar}(W). Both read one field cut at A + collar.
    """
    if A < 0:
        raise ValueError("A must be >= 0")
    d = X.dist_to_set(W.ids, A + collar)
    rad, R = X.radial, X.window_radius
    cut = R - collar if R is not None and rad is not None else None

    def depth(points: Iterable[int]) -> tuple[bool, bool]:
        touches = cut is not None and any(rad[u] > cut for u in points)
        return touches, touches and any(d[u] > A + collar for u in points)

    return SubsetMask(X.n, (x for x in range(X.n) if d[x] <= A)), depth


# -- separation reports --------------------------------------------------------------


@dataclass
class WindowSeparation:
    window_radius: int
    n_deep: int
    e_tilde_lower: int
    e_lower: Optional[int]


@dataclass
class SeparationReport:
    windows: list[WindowSeparation]
    verdict: str  # "stable" | "growing" | "inconclusive"


def coarse_n_separation(
    window_components: Sequence[CoarseComponentSet],
    invariant_counts: Optional[Sequence[Optional[int]]] = None,
) -> SeparationReport:
    """Count deep, pairwise coarse-disjoint components per window.

    Irreducible components are pairwise disjoint, hence automatically coarse
    disjoint, so the count is the number of deep components. The e-side
    lower bound counts H-invariant unions when an action is supplied.
    """
    rows = []
    for t, cs in enumerate(window_components):
        n_deep = len(cs.deep_components())
        e_low = invariant_counts[t] if invariant_counts is not None else None
        if e_low is not None and e_low > n_deep:
            raise CoarseTopError("e-exceeds-etilde", "invariant count exceeded deep count")
        rows.append(
            WindowSeparation(cs.space.window_radius or -1, n_deep, n_deep, e_low)
        )
    return SeparationReport(rows, trend_verdict([r.n_deep for r in rows], "stable"))


# -- group actions on components ------------------------------------------------------


def invariant_components(
    ball: BallModel,
    generators: Sequence,
    components: CoarseComponentSet,
) -> tuple[list[str], Optional[int]]:
    """Per-component action verdicts and the H-invariant (e-side) count.

    Verdicts are "invariant", "not", or "undetermined-at-window" when the
    partial action never lands inside the window. The e-side count groups
    components into orbits of the partial action; each deep orbit union is
    an H-invariant complementary set. Each generator's table is built
    once and g^-1's is its inverse partial permutation (``invert_table``).
    """
    tables = []
    for g in generators:
        table = ball.action_table(g)
        tables += [table, invert_table(table)]
    verdicts = []
    n = len(components.components)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    comp_of = {}
    for t, c in enumerate(components.components):
        for v in c.mask.ids:
            comp_of[v] = t
    for t, c in enumerate(components.components):
        any_defined = False
        stays = True
        for table in tables:
            for v in c.mask.ids:
                img = table[v]
                if img is None:
                    continue
                any_defined = True
                other = comp_of.get(img)
                if other is None:
                    # lands in N_A(W); ignore for invariance of the off part
                    continue
                if other != t:
                    stays = False
                    union(t, other)
        if not any_defined:
            verdicts.append("undetermined-at-window")
        elif stays:
            verdicts.append("invariant")
        else:
            verdicts.append("not")
    deep_orbit_roots = set()
    saw_undetermined = False
    for t, c in enumerate(components.components):
        if c.deep:
            if verdicts[t] == "undetermined-at-window":
                saw_undetermined = True
            deep_orbit_roots.add(find(t))
    e_count: Optional[int] = None if saw_undetermined else len(deep_orbit_roots)
    return verdicts, e_count


def stabilizer_trace(
    ball: BallModel,
    H: SubsetMask,
    C: SubsetMask,
    A: int,
) -> tuple[SubsetMask, dict]:
    """{ h in H∩window : h(C \\ N_A(H)) = C \\ N_A(H) where defined }.

    The report compares the trace to H within the window: the trace of the
    true stabilizer need not generate it, so only the windowed Hausdorff
    distance is stated.
    """
    X = ball.space
    nA = neighborhood(X, H, A)
    core = (C - nA).ids
    trace = []
    for h_id in H.sorted_ids():
        h = ball.elements[h_id]
        table = ball.action_table(h)
        inv_table = invert_table(table)
        ok = True
        for v in core:
            for tb in (table, inv_table):
                img = tb[v]
                if img is not None and img not in core and img not in nA.ids:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            trace.append(h_id)
    trace_mask = SubsetMask(X.n, trace)
    if trace:
        dist = hausdorff_distance(X, trace_mask, H)
    else:
        dist = math.inf
    report = {
        "trace_size": len(trace),
        "H_size": len(H),
        "hausdorff_to_H": dist,
        "close_to_H": dist <= A + ball.radius ** 0.5 if dist != math.inf else False,
        "window_radius": ball.radius,
    }
    return trace_mask, report


def almost_invariant_extract(
    ball: BallModel,
    H: SubsetMask,
    C: SubsetMask,
    A: int,
) -> tuple[SubsetMask, dict]:
    """X^ = { g : gH∩window inside C ∪ N_A(H) }, with the three checks replayed.

    Verifies (i) right H-invariance where defined, (ii) agreement with C
    outside N_A(H), (iii) depth of both X^ and its complement. The collar
    is 2, that of the components its runner reads C from.
    """
    X = ball.space
    model = ball.model
    collar = 2
    nA, depth = _separation(X, H, A, collar)  # N_A(H) and the depth test (iii)
    h_elems = [ball.elements[i] for i in H.sorted_ids()]
    allowed = C.ids | nA.ids
    mul, get = model.mul, ball.index.get
    members = []
    for g_id, g in enumerate(ball.elements):
        # a member has a defined coset element and none outside C ∪ N_A(H)
        defined = False
        for h in h_elems:
            i = get(mul(g, h))
            if i is None:
                continue
            if i not in allowed:
                break
            defined = True
        else:
            if defined:
                members.append(g_id)
    xhat = SubsetMask(X.n, members)

    # (i) right multiplication by H generators preserves X^ where defined;
    # the trace's shortest nontrivial elements act as generators
    right_ok = True
    interior = X.interior_mask(collar)
    nontrivial = sorted(
        (h for h in h_elems if h != model.identity()), key=model.length
    )
    gens = nontrivial[:2] if nontrivial else []
    for h in gens:
        for g_id in members:
            img = ball.act_right(g_id, h)
            if img is None:
                continue
            if g_id in interior.ids and img in interior.ids and img not in xhat.ids:
                right_ok = False
    # (ii) agreement with C outside N_A(H)
    agree = (xhat ^ C) - nA
    agree_ok = len(agree & interior) == 0
    # (iii) both sides deep
    proper = depth((xhat - nA).ids)[1] and depth((~xhat - nA).ids)[1]
    report = {
        "right_invariant_where_defined": right_ok,
        "agrees_with_C_off_NA": agree_ok,
        "proper": proper,
        "verdict": "ok" if (right_ok and agree_ok and proper) else "not-proper",
        "window_radius": ball.radius,
    }
    return xhat, report


def shallow_bound_check(
    X: FiniteMetricSpace,
    W: SubsetMask,
    r: int,
    A: int,
    R_grid: Sequence[int],
    collar: int = 2,
) -> dict:
    """Smallest R in the grid with every shallow component inside N_R(W)."""
    cs = complement_components(X, W, r, A, collar=collar)
    shallow = cs.shallow_components()
    if not shallow:
        return {"R": A, "shallow_components": 0, "note": "no shallow components exist"}
    dW = X.dist_to_set(W.ids)
    worst = max(dW[u] for c in shallow for u in c.mask.ids)
    for R in sorted(R_grid):
        if worst <= R:
            return {"R": R, "shallow_components": len(shallow), "max_depth": worst}
    return {"R": None, "shallow_components": len(shallow), "max_depth": worst,
            "note": "exceeds-window"}


# -- the MV dichotomy gate -------------------------------------------------------------


def simplex_dichotomy_check(K, W_A: SubsetMask, C: SubsetMask) -> bool:
    """Every simplex lies in N_A(W) ∪ C or in N_A(W) ∪ (X \\ C), literally.

    Counted per dimension by inclusion-exclusion over the simplices inside
    each side and inside both.
    """
    other = (K.space.full_mask() - C) | W_A
    first = C | W_A
    return all(
        len(K.simplices_within(k, first)) + len(K.simplices_within(k, other))
        - len(K.simplices_within(k, first & other)) == K.n_simplices(k)
        for k in range(K.cap + 1)
    )


__all__ = [
    "coarse_boundary",
    "is_coarse_complementary",
    "CoarseComponent",
    "CoarseComponentSet",
    "complement_components",
    "WindowSeparation",
    "SeparationReport",
    "coarse_n_separation",
    "invariant_components",
    "stabilizer_trace",
    "almost_invariant_extract",
    "shallow_bound_check",
    "simplex_dichotomy_check",
]
