"""Rips complexes with GF(2) boundary matrices, inclusions and cycle filling.

Simplices are canonical sorted id-tuples; GF(2) coefficients remove all
orientation bookkeeping. Chains in dimension k are int bitsets over the
dimension-k simplex list.

Cliques are grown one dimension at a time from the simplex list below.
The children of s are s + (w,) for the forward neighbours w > s[-1] of its
last vertex that are forward neighbours of every other vertex of s too.
Parents come in lexicographic order and children in ascending w, so each
list comes out sorted and ids and matrices are deterministic. The
candidates follow from s and the forward-neighbour sets alone, so nothing
is kept per simplex besides the simplex itself: a per-simplex candidate
list would hold as many live containers as there are simplices, and the
cyclic garbage collector would traverse them all on every full collection.

The dimension cap defaults to n+1 for an analysis in dimension n, since no
operation here needs higher simplices. fill_cycle solves the sparse GF(2)
system by column reduction, optionally restricted to simplices inside a
locality ball; feasibility-only solves stream columns and skip witness
bookkeeping, which is what makes window-global membership tests affordable
on the 3d fixtures.

Every elimination over ∂ columns (fills, boundary spans, two-scale images)
feeds only the columns :meth:`RipsComplex.uncone` keeps. A simplex
s = (s0 < s1 < ...) is coned over an apex set P when some v in P with
v < s0 lies within the scale of every vertex of s. Then ∂(v∗s) = s + v∗∂s,
so ∂s = Σ_f ∂(v∗f) over the facets f of s; every v∗f is a simplex of the
same complex and lexicographically smaller than s. Fed in index order from
simplices with all vertices in P, a coned column is therefore in the span
of the columns fed before it: skipping it creates or moves no pivot, so
ranks, residues, stopping columns, greedy-independent columns and hence
witnesses are exactly those of the unskipped elimination. On the fig1/fig2
targets two thirds to four fifths of the columns are coned.

Boundary columns are built in one place, :meth:`RipsComplex.iter_banded_columns`,
as banded pairs (bits, lo) standing for bits << lo, lo being the column's
lowest row. A column spans only the rows between its facets, so the pair
costs that span, not the top row. The membership solves (fills and the
essential probe) feed the pairs to ``gf2.ColumnSolve``, whose echelon then
stays banded; ``iter_boundary_columns`` and ``boundary`` shift them to
plain ints for the GF2Matrix callers, and ``RelativeComplex.delta``
transposes the relative ones into the coboundary δ.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from . import gf2
from .errors import MAX_SIMPLICES, ComplexTooLargeError, NotACycleError, NotAChainMapError, NotASubcomplexError, ScheduleExhaustedError
from .gf2 import GF2Matrix
from .metric import FiniteMetricSpace, SubsetMask


class SimplexIndex:
    """simplex -> position, per dimension; each dimension's dict is built on first read.

    Indexed like the list of dicts it stands for. Most analyses read the
    faces of one or two dimensions only, so the others are never built.
    """

    __slots__ = ("levels", "dicts")

    def __init__(self, levels: list[list[tuple[int, ...]]]):
        self.levels = levels
        self.dicts: list[Optional[dict[tuple[int, ...], int]]] = [None] * len(levels)

    def __getitem__(self, k: int) -> dict[tuple[int, ...], int]:
        d = self.dicts[k]
        if d is None:
            d = self.dicts[k] = {s: i for i, s in enumerate(self.levels[k])}
        return d


class RipsComplex:
    """P_r on a vertex mask of a space, up to dimension cap m."""

    def __init__(self, space: FiniteMetricSpace, vertex_mask: SubsetMask, scale: int, cap: int,
                 simplices: list[list[tuple[int, ...]]]):
        self.space = space
        self.vertex_mask = vertex_mask
        self.scale = scale
        self.cap = cap
        self.simplices = simplices  # per dim, sorted lists of sorted id tuples
        self.index = SimplexIndex(simplices)
        self._boundary_cache: dict[int, GF2Matrix] = {}

    # -- basic counts ---------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.cap else 0

    @property
    def vertices(self) -> list[int]:
        return [s[0] for s in self.simplices[0]]

    # -- boundary matrices ----------------------------------------------------

    def boundary(self, k: int) -> GF2Matrix:
        """∂_k : C_k -> C_{k-1}; ∂_0 is the augmentation row (all ones)."""
        mat = self._boundary_cache.get(k)
        if mat is not None:
            return mat
        if k == 0:
            mat = GF2Matrix(1, self.n_simplices(0), [1] * self.n_simplices(0))
        else:
            mat = GF2Matrix(
                self.n_simplices(k - 1),
                self.n_simplices(k),
                list(self.iter_boundary_columns(k)),
            )
        self._boundary_cache[k] = mat
        return mat

    def iter_banded_columns(
        self, k: int, among: Optional[Iterable[int]] = None
    ) -> Iterator[tuple[int, int]]:
        """Columns of ∂_k, streamed as banded pairs (bits, lo): the column is bits << lo.

        ``among`` restricts the stream to those k-simplex indices, in order.
        lo is the row of s[:-1], the facet without the last vertex, which is
        the lexicographically smallest facet and so the column's lowest row;
        bit 0 of bits is always set. This is the one place boundary columns
        are built from face lookups.
        """
        simp = self.simplices[k]
        chosen = simp if among is None else map(simp.__getitem__, among)
        if k == 0:
            for _ in chosen:
                yield 1, 0
            return
        faces = self.index[k - 1]
        for s in chosen:
            facets = combinations(s, k)  # s[:-1] comes first
            lo = faces[next(facets)]
            col = 1
            for face in facets:
                col |= 1 << (faces[face] - lo)
            yield col, lo

    def iter_boundary_columns(self, k: int, among: Optional[Iterable[int]] = None) -> Iterator[int]:
        """Columns of ∂_k as plain ints, streamed (memory-light form for large complexes)."""
        return (col << lo for col, lo in self.iter_banded_columns(k, among))

    def boundary_of_chain(self, k: int, chain: int) -> int:
        """∂_k applied to a chain bitset (k >= 1); k = 0 gives the augmentation."""
        if k == 0:
            return gf2.popcount(chain) & 1
        out = 0
        for col in self.iter_boundary_columns(k, gf2.bits(chain)):
            out ^= col
        return out

    def chain_from_simplices(self, k: int, simplex_list: Iterable[Sequence[int]]) -> int:
        out = 0
        idx = self.index[k]
        for s in simplex_list:
            out ^= 1 << idx[tuple(sorted(s))]
        return out

    def chain_support_vertices(self, k: int, chain: int) -> SubsetMask:
        verts: set[int] = set()
        for j in gf2.bits(chain):
            verts.update(self.simplices[k][j])
        return SubsetMask(self.space.n, verts)

    def simplices_within(self, k: int, allowed: SubsetMask) -> list[int]:
        """Indices of k-simplices all of whose vertices lie in the mask."""
        return [j for j, s in enumerate(self.simplices[k]) if allowed.ids.issuperset(s)]

    def uncone(
        self, k: int, among: Optional[Iterable[int]] = None, apex: Optional[SubsetMask] = None
    ) -> Iterator[int]:
        """The indices in ``among`` (every k-simplex when None) of the columns not coned, in order.

        s is coned when some vertex v < s[0] of the apex set (the vertex
        mask when None) lies within the scale of every vertex of s; then ∂s
        is the sum of the columns of the smaller simplices v∗f (see the
        module docstring). Skipping is exact, with the pivots of feeding
        every index, when each simplex of ``among`` lies in the apex and
        every simplex in the apex that precedes it in index order is fed
        before it, in an earlier feed or earlier in ``among``. Vertices
        (k = 0) are all kept.

        The indices are yielded as they are tested, so a solve that stops
        early stops the cone test with it. The apex vertices below x within
        the scale are memoized only while x is not below the first vertex
        of the current simplex: ``among`` ascends, so a vertex below it is
        never asked for again, and the memo stays a band of the mask.
        """
        chosen = range(self.n_simplices(k)) if among is None else among
        if self.scale == 0 or k == 0:
            yield from chosen
            return
        ids = self.vertex_mask.ids if apex is None else apex.ids & self.vertex_mask.ids
        adj = self.space.adjacency_at_scale(self.scale)
        below: dict[int, frozenset[int]] = {}  # x -> apex vertices below x within the scale
        memoized: list[int] = []  # heap of the keys of ``below``

        def lower(x: int) -> frozenset[int]:
            got = below.get(x)
            if got is None:
                row = adj[x]
                got = below[x] = ids.intersection(row[: bisect_left(row, x)])
                heappush(memoized, x)
            return got

        simp = self.simplices[k]
        prefix, common = None, None
        for j in chosen:
            s = simp[j]
            if s[:-1] != prefix:  # simplices sharing all but their last vertex come in a run
                prefix = s[:-1]
                while memoized and memoized[0] < s[0]:
                    del below[heappop(memoized)]
                common = lower(s[0])
                for x in prefix[1:]:
                    if not common:
                        break
                    common = common & lower(x)
            if not common or common.isdisjoint(lower(s[-1])):
                yield j


def build_rips(
    X: FiniteMetricSpace,
    V: SubsetMask,
    r: int,
    m: int,
    max_simplices: int = MAX_SIMPLICES,
) -> RipsComplex:
    """All simplices of P_r(V) up to dimension m.

    A tuple spans a simplex iff its pairwise distances are <= r; cliques are
    grown over the r-adjacency graph in sorted order (see the module
    docstring). More than ``max_simplices`` simplices raise
    ComplexTooLargeError, checked once per parent; its counts give every
    whole dimension, and for the one that passed the cap the simplices up
    to the first beyond it.
    """
    if r < 0 or m < 0:
        raise ValueError("scale and cap must be >= 0")
    verts = V.sorted_ids()
    vset = V.ids
    adj = X.adjacency_at_scale(r) if r > 0 else [[] for _ in range(X.n)]
    fwd = {v: [u for u in adj[v] if u in vset and u > v] for v in verts}
    fwd_sets = {v: set(nb) for v, nb in fwd.items()}
    counts = {0: len(verts)}
    simplices: list[list[tuple[int, ...]]] = [[(v,) for v in verts]]
    if len(verts) > max_simplices:
        raise ComplexTooLargeError(counts, max_simplices)
    room = max_simplices - len(verts)
    for k in range(1, m + 1):
        out = []
        for s in simplices[-1]:
            cand = fwd[s[-1]]
            for x in s[:-1]:
                fx = fwd_sets[x]
                cand = [w for w in cand if w in fx]
            out.extend([s + (w,) for w in cand])
            if len(out) > room:
                counts[k] = room + 1  # the simplices made when the cap was first passed
                raise ComplexTooLargeError(counts, max_simplices)
        counts[k] = len(out)
        room -= len(out)
        simplices.append(out)
    return RipsComplex(X, V, r, m, simplices)


# -- chain maps ---------------------------------------------------------------


@dataclass
class ChainMap:
    """Per-dimension GF(2) matrices from source chains to target chains."""

    source: RipsComplex
    target: RipsComplex
    mats: list[GF2Matrix]
    vertex_map: dict[int, int]  # space id -> space id
    displacement: list[int] = field(default_factory=list)

    def apply(self, k: int, chain: int) -> int:
        return self.mats[k].matvec(chain)

    def validate(self) -> None:
        """Chain-map identity f∂ = ∂f in every dimension present, plus augmentation."""
        for k in range(1, len(self.mats)):
            lhs = self.mats[k - 1].matmul(self.source.boundary(k))
            rhs = self.target.boundary(k).matmul(self.mats[k])
            if lhs != rhs:
                raise NotAChainMapError(f"failure at dimension {k}")
        # augmentation: epsilon f_0 = epsilon
        f0 = self.mats[0]
        for j in range(f0.cols):
            if gf2.popcount(f0.columns[j]) % 2 != 1:
                raise NotAChainMapError("dimension-0 map is not augmentation preserving")


def inclusion_chain_map(K: RipsComplex, L: RipsComplex) -> ChainMap:
    """Simplex-identity map of a subcomplex; displacement 0."""
    if not K.vertex_mask.issubset(L.vertex_mask):
        raise NotASubcomplexError("vertex mask not contained in target's")
    if K.scale > L.scale or K.cap > L.cap:
        raise NotASubcomplexError("scale or cap exceeds target's")
    mats = []
    for k in range(K.cap + 1):
        cols = []
        for s in K.simplices[k]:
            t = L.index[k].get(s)
            if t is None:
                raise NotASubcomplexError(f"simplex {s} missing from target")
            cols.append(1 << t)
        mats.append(GF2Matrix(L.n_simplices(k), K.n_simplices(k), cols))
    return ChainMap(K, L, mats, {v: v for v in K.vertices}, [0] * (K.cap + 1))


def fill_cycle(
    L: RipsComplex,
    k: int,
    z: int,
    locality: Optional[tuple[int, int]] = None,
    want_witness: bool = True,
) -> Optional[int]:
    """A (k+1)-chain w with ∂w = z, or None ("no-fill").

    z must be a reduced k-cycle (augmentation included for k = 0). With a
    locality (center id, radius), only (k+1)-simplices whose vertices lie in
    N_radius(center) enter the solve.
    """
    if k + 1 > L.cap:
        raise ValueError("complex cap too low to fill at this dimension")
    if L.boundary_of_chain(k, z) != 0:
        raise NotACycleError()
    if locality is None:
        return fill_on_columns(L, k, z, None, want_witness)
    center, radius = locality
    row = L.space.dist_row(center)
    allowed = SubsetMask(L.space.n, (v for v in L.vertex_mask.ids if 0 <= row[v] <= radius))
    return fill_on_columns(L, k, z, allowed, want_witness)


def fill_on_columns(
    L: RipsComplex,
    k: int,
    z: int,
    allowed: Optional[SubsetMask],
    want_witness: bool = True,
) -> Optional[int]:
    """Solve ∂w = z using only the (k+1)-simplices inside ``allowed`` (all when None).

    Coned columns are skipped with ``allowed`` as the apex set: each is the
    sum of columns of simplices v∗f inside ``allowed`` fed before it, so the
    pivots and the fill are those of the solve over every simplex inside.
    The columns are fed banded, so the solve's echelon is stored banded.
    Returns the fill as a chain over all (k+1)-simplices, 0 for a feasible
    feasibility-only solve, or None when z is no boundary of those columns.
    """
    among = None if allowed is None else L.simplices_within(k + 1, allowed)
    cols_idx = list(L.uncone(k + 1, among, allowed))
    x = gf2.solve_columns(L.iter_banded_columns(k + 1, cols_idx), z, want_witness=want_witness)
    if x is None or not want_witness:
        return x
    return gf2.vector_from_indices(cols_idx[b] for b in gf2.bits(x))


def induced_chain_map(
    f: dict[int, int],
    K: RipsComplex,
    Y: FiniteMetricSpace,
    schedule: Sequence[int],
    target_mask: Optional[SubsetMask] = None,
) -> ChainMap:
    """Chain map induced by a point map, built by local cycle filling.

    Dimension 0 is vertex relabeling; each higher simplex maps to a filling
    of its boundary's image, searched inside growing locality balls at the
    scheduled target scale for that dimension. The final target complex is
    built at the last scheduled scale, into which lower-scale fills include
    simplex-for-simplex.
    """
    if list(schedule) != sorted(schedule):
        raise ValueError("scale schedule must be non-decreasing")
    if len(schedule) < K.cap + 1:
        raise ValueError("schedule must name a scale per dimension")
    mask = target_mask if target_mask is not None else Y.full_mask()
    for v in K.vertices:
        if f[v] not in mask.ids:
            raise ValueError(f"vertex {v} maps outside the target window")
    targets = {r: build_rips(Y, mask, r, K.cap) for r in sorted(set(schedule))}
    final = targets[schedule[K.cap]]
    mats: list[GF2Matrix] = []
    disp: list[int] = []
    # dimension 0: relabel
    cols0 = [1 << final.index[0][(f[s[0]],)] for s in K.simplices[0]]
    mats.append(GF2Matrix(final.n_simplices(0), K.n_simplices(0), cols0))
    disp.append(0)
    prev_disp = 0
    for k in range(1, K.cap + 1):
        r_k = schedule[k]
        tgt = targets[r_k]
        cols = []
        worst = 0
        for s in K.simplices[k]:
            # boundary image, expressed in the scale-r_k target complex
            bnd = 0
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                img = mats[k - 1].columns[K.index[k - 1][face]]
                for t in gf2.bits(img):
                    bnd ^= 1 << tgt.index[k - 1][final.simplices[k - 1][t]]
            center = f[s[0]]
            # when the image vertex set itself spans a target simplex, the
            # simplicial value is the canonical fill (displacement 0 for
            # inclusions and relabelings)
            image = tuple(sorted({f[v] for v in s}))
            w = None
            if len(image) < len(s):
                if bnd == 0:
                    w = 0
            else:
                t = tgt.index[k].get(image)
                if t is not None and tgt.boundary_of_chain(k, 1 << t) == bnd:
                    w = 1 << t
            base_radius = (k + 1) * r_k + prev_disp + K.scale + 1
            radius = base_radius
            window = Y.window_radius or 10**9
            while w is None:
                w = fill_cycle(tgt, k - 1, bnd, locality=(center, radius))
                if w is not None:
                    break
                if radius > 2 * window:
                    w = fill_cycle(tgt, k - 1, bnd, locality=None)
                    if w is None:
                        raise ScheduleExhaustedError(s)
                    break
                radius *= 2
            col = 0
            rows = [Y.dist_row(f[v]) for v in s]
            for t in gf2.bits(w):
                tup = tgt.simplices[k][t]
                col |= 1 << final.index[k][tup]
                worst = max(worst, max(min(rw[v] for rw in rows) for v in tup))
            cols.append(col)
        mats.append(GF2Matrix(final.n_simplices(k), K.n_simplices(k), cols))
        disp.append(worst)
        prev_disp = worst
    cm = ChainMap(K, final, mats, dict(f), disp)
    cm.validate()
    return cm


__all__ = [
    "RipsComplex",
    "build_rips",
    "ChainMap",
    "inclusion_chain_map",
    "fill_cycle",
    "fill_on_columns",
    "induced_chain_map",
]
