"""Rips complexes with GF(2) boundary matrices, inclusions and cycle filling.

Simplices are sorted id-tuples; GF(2) coefficients remove all orientation
bookkeeping. Chains in dimension k are int bitsets over the dimension-k
simplex list.

A complex is stored as a simplex tree of flat int arrays (Boissonnat and
Maria), not as tuples. Dimension k keeps, per k-simplex s in lexicographic
order, its last vertex ``last[k][j]`` and the index ``parent[k][j]`` of its
prefix s[:-1]; the children of a (k-1)-simplex p are the k-simplices
``start[k][p]:start[k][p+1]``, ascending in their last vertex. The vertices
hang off a root, node 0 of dimension -1. Each array item is 4 bytes, so a
simplex costs at most 12 bytes: its last vertex, its parent and its own
child offset, which the top dimension does not need. On fig2_plane_fin
R=6 at scale 2 that is 9.4 bytes a simplex, where a tuple per simplex in a
list plus a face dict took about 70. A face is found without being
stored, as in Ripser: a chain of bisections, one per vertex, each inside
the child range of the prefix found so far. Cold callers read
``simplices[k]`` (index -> tuple) and ``index[k]`` (tuple -> index,
``.get`` giving None when absent), read-only views that build and look up
tuples on demand.

Cliques are grown one dimension at a time, as in the simplex tree's
expansion. The children of s = p + (a,) are s + (w,) for the later
siblings p + (w,) of s with w a forward neighbour of a; for a vertex they
are its forward neighbours. Parents come in lexicographic order and
children in ascending w, so each dimension comes out sorted and ids and
matrices are deterministic.

The dimension cap defaults to n+1 for an analysis in dimension n, since no
operation here needs higher simplices. fill_cycle solves the sparse GF(2)
system by column reduction, optionally restricted to simplices inside a
locality ball; the essential probe's feasibility-only solves stream columns
and skip witness bookkeeping (``gf2.ColumnSolve``), which is what makes
window-global membership tests affordable on the 3d fixtures.

Every elimination over ∂ columns (fills, and the one boundary span
:meth:`RipsComplex.boundary_space`) feeds only the columns
:meth:`RipsComplex.uncone` keeps. A simplex s = (s0 < s1 < ...) is coned
over an apex set P when some v in P with v < s0 lies within the scale of
every vertex of s. Then ∂(v∗s) = s + v∗∂s, so ∂s = Σ_f ∂(v∗f) over the
facets f of s; every v∗f is a simplex of the same complex and
lexicographically smaller than s. Fed in index order from simplices with
all vertices in P, a coned column is therefore in the span of the columns
fed before it: skipping it creates or moves no pivot, so ranks, residues,
stopping columns, greedy-independent columns and hence witnesses are
exactly those of the unskipped elimination. On the fig1/fig2 targets two
thirds to four fifths of the columns are coned.

Boundary columns are built in one place, :meth:`RipsComplex.iter_banded_columns`,
as packed pairs (packed, lo): lo is the column's lowest row, the parent
index, since s[:-1] is the lexicographically smallest facet, and packed
holds the row offset above lo of each other facet in a 32-bit field, the
top facet in the lowest field (array('i') keeps every index below 2^31).
A column costs a few machine words, not the span of its rows. The
membership solves (fills and the essential probe) feed the pairs to
``gf2.ColumnSolve``, whose echelon keeps the columns that enter unreduced
in this form; ``iter_boundary_columns`` and ``boundary`` build plain ints
from them for the GF2Matrix callers, and ``RelativeComplex.delta`` reads
the facet rows from the fields to transpose the relative ones into the
coboundary δ.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import sub
from typing import Iterable, Iterator, Optional, Sequence

from . import gf2
from .errors import MAX_SIMPLICES, ComplexTooLargeError, NotACycleError, NotAChainMapError, NotASubcomplexError, ScheduleExhaustedError
from .gf2 import GF2Matrix
from .metric import FiniteMetricSpace, SubsetMask


class SimplexView:
    """The k-simplices as sorted vertex tuples, in index order; read only, built on demand."""

    __slots__ = ("last", "parent", "k")

    def __init__(self, last: list[array], parent: list[array], k: int):
        self.last, self.parent, self.k = last, parent, k

    def __len__(self) -> int:
        return len(self.last[self.k])

    def __getitem__(self, j: int) -> tuple[int, ...]:
        out = [0] * (self.k + 1)
        for e in range(self.k, -1, -1):
            out[e] = self.last[e][j]
            j = self.parent[e][j]
        return tuple(out)  # an index past the end raises IndexError, which ends iteration


class PositionView:
    """Sorted vertex tuple -> index among the k-simplices; read only, a bisection per vertex."""

    __slots__ = ("last", "start", "k")

    def __init__(self, last: list[array], start: list[array], k: int):
        self.last, self.start, self.k = last, start, k

    def __len__(self) -> int:
        return len(self.last[self.k])

    def get(self, s: Sequence[int]) -> Optional[int]:
        """The index of s, or None when s is no k-simplex (unsorted tuples are none)."""
        if len(s) != self.k + 1:
            return None
        j = 0
        for last, start, v in zip(self.last, self.start, s):
            lo, hi = start[j], start[j + 1]
            j = bisect_left(last, v, lo, hi)
            if j == hi or last[j] != v:
                return None
        return j

    def __getitem__(self, s: Sequence[int]) -> int:
        j = self.get(s)
        if j is None:
            raise KeyError(s)
        return j


class RipsComplex:
    """P_r on a vertex mask of a space, up to dimension cap m, as a simplex tree."""

    def __init__(self, space: FiniteMetricSpace, vertex_mask: SubsetMask, scale: int, cap: int,
                 last: list[array], parent: list[array], start: list[array]):
        self.space = space
        self.vertex_mask = vertex_mask
        self.scale = scale
        self.cap = cap
        self.last = last  # per dim: each simplex's last vertex, in index order
        self.parent = parent  # per dim: each simplex's prefix index (the root, 0, for a vertex)
        self.start = start  # per dim: children of node p are start[k][p]:start[k][p + 1]
        self.simplices = [SimplexView(last, parent, k) for k in range(cap + 1)]
        self.index = [PositionView(last, start, k) for k in range(cap + 1)]
        self._cycle_cache: dict[int, list[int]] = {}

    # -- basic counts ---------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.last[k]) if 0 <= k <= self.cap else 0

    @property
    def vertices(self) -> list[int]:
        return list(self.last[0])

    # -- boundary matrices ----------------------------------------------------

    def boundary(self, k: int) -> GF2Matrix:
        """∂_k : C_k -> C_{k-1}; ∂_0 is the augmentation row (all ones)."""
        if k == 0:
            return GF2Matrix(1, self.n_simplices(0), [1] * self.n_simplices(0))
        return GF2Matrix(self.n_simplices(k - 1), self.n_simplices(k), list(self.iter_boundary_columns(k)))

    def boundary_space(self, k: int) -> gf2.GF2Subspace:
        """im ∂_{k+1}, eliminated over the columns ``uncone`` keeps; built afresh on each call."""
        return gf2.span_of(self.iter_boundary_columns(k + 1, self.uncone(k + 1)))

    def cycle_basis(self, k: int) -> list[int]:
        """A basis of ker ∂_k (reduced: ∂_0 is the augmentation), eliminated once per degree; read only."""
        basis = self._cycle_cache.get(k)
        if basis is None:
            basis = self._cycle_cache[k] = gf2.kernel_basis(self.boundary(k))
        return basis

    def iter_banded_columns(
        self, k: int, among: Optional[Iterable[int]] = None
    ) -> Iterator[tuple[int, int]]:
        """Columns of ∂_k, streamed as packed pairs (packed, lo) (see the module docstring).

        ``among`` restricts the stream to those k-simplex indices, in order.
        lo is the parent, the row of s[:-1], which is the column's lowest
        row; packed holds the other k facets' rows less lo, 32 bits each,
        top facet first (a vertex's column is (0, 0), the augmentation
        row). This is the one place boundary columns are built from face
        lookups. The other facets of s are the children w = s[-1] of the
        facets of s[:-1], each found by a bisection inside a child range,
        in descending row order. Those ranges are found once per run of
        siblings from the facets of the grandparent, which are looked up
        once per run of the parent's siblings.
        """
        chosen = range(self.n_simplices(k)) if among is None else among
        if k == 0:
            for _ in chosen:
                yield 0, 0
            return
        last_k, parent_k = self.last[k], self.parent[k]
        last_f, parent_f, start_f = self.last[k - 1], self.parent[k - 1], self.start[k - 1]
        last_g, start_g = self.last[k - 2], self.start[k - 2]  # unused for edges: the root has no facets
        p_cur = q_cur = -1
        for j in chosen:
            p = parent_k[j]
            if p != p_cur:
                p_cur, q, w = p, parent_f[p], last_f[p]
                if q != q_cur:
                    q_cur, grand = q, self._facets(k - 2, q)
                ranges = []
                for g in grand:
                    f = bisect_left(last_g, w, start_g[g], start_g[g + 1])
                    ranges.append((start_f[f], start_f[f + 1], gf2.FIELD * len(ranges)))
                ranges.append((start_f[q], start_f[q + 1], gf2.FIELD * len(ranges)))
            w = last_k[j]
            packed = 0
            for lo, hi, shift in ranges:
                packed |= (bisect_left(last_f, w, lo, hi) - p) << shift
            yield packed, p

    def _facets(self, e: int, a: int) -> list[int]:
        """The facets of e-simplex a, s[:-1] last; a vertex's is the root, 0, and the root has none."""
        if e < 0:
            return []
        q, w, last, start = self.parent[e][a], self.last[e][a], self.last[e - 1], self.start[e - 1]
        out = [bisect_left(last, w, start[g], start[g + 1]) for g in self._facets(e - 1, q)]
        out.append(q)
        return out

    def iter_boundary_columns(self, k: int, among: Optional[Iterable[int]] = None) -> Iterator[int]:
        """Columns of ∂_k as plain ints, streamed (memory-light form for large complexes)."""
        unpack = gf2.unpack
        return (unpack(packed) << lo for packed, lo in self.iter_banded_columns(k, among))

    def boundary_of_chain(self, k: int, chain: int) -> int:
        """∂_k applied to a chain bitset (k >= 1); k = 0 gives the augmentation."""
        if k == 0:
            return gf2.popcount(chain) & 1
        out = 0
        for col in self.iter_boundary_columns(k, gf2.bits(chain)):
            out ^= col
        return out

    def chain_support_vertices(self, k: int, chain: int) -> SubsetMask:
        verts: set[int] = set()
        for j in gf2.bits(chain):
            verts.update(self.simplices[k][j])
        return SubsetMask(self.space.n, verts)

    def simplices_within(self, k: int, allowed: SubsetMask) -> array:
        """Indices of k-simplices all of whose vertices lie in the mask, ascending.

        Walks down from the mask's vertices and keeps a child when its last
        vertex is in the mask, so only the mask's subtrees are read. Each
        level grows in an ``array('i')`` straight from the walk, never in a
        list of ints. On a fig2 R=10 target that keeps 44,087 of 140,326
        triangles (a 0.18 MB result), the call's traced peak is 0.26 MB;
        with lists it was 2.48 MB.
        """
        ids, last0 = allowed.ids, self.last[0]
        nodes = array("i", (bisect_left(last0, v) for v in sorted(ids & self.vertex_mask.ids)))
        for e in range(1, k + 1):
            last, start = self.last[e], self.start[e]
            nodes = array("i", (c for p in nodes for c in range(start[p], start[p + 1]) if last[c] in ids))
        return nodes

    def positions_in(self, L: "RipsComplex", top: int) -> list[array]:
        """Per dimension 0..top (at most L's cap), L's index of each simplex here, -1 where L lacks it.

        Walked level by level: a simplex's last vertex is bisected among the
        children of its parent's position in L.
        """
        out, pos = [], array("i", [0])  # the roots correspond
        for e in range(top + 1):
            last_l, start_l, here = L.last[e], L.start[e], array("i")
            for p, v in zip(self.parent[e], self.last[e]):
                q = pos[p]
                if q >= 0:
                    lo, hi = start_l[q], start_l[q + 1]
                    q = bisect_left(last_l, v, lo, hi)
                    if q == hi or last_l[q] != v:
                        q = -1
                here.append(q)
            out.append(here)
            pos = here
        return out

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

        last_k, parent_k, last_f, parent_f = self.last[k], self.parent[k], self.last[k - 1], self.parent[k - 1]
        grand = self.simplices[k - 2] if k > 1 else None
        p_cur = q_cur = -1
        base = None  # the apex vertices common to s[:-2], None for no constraint
        for j in chosen:
            p = parent_k[j]
            if p != p_cur:  # simplices sharing all but their last vertex come in a run
                p_cur, q, x = p, parent_f[p], last_f[p]
                if grand is None or q != q_cur:  # and their prefixes in longer runs
                    q_cur, prefix = q, (x,) if grand is None else grand[q]
                    while memoized and memoized[0] < prefix[0]:
                        del below[heappop(memoized)]
                    if grand is not None:
                        base = lower(prefix[0])
                        for y in prefix[1:]:
                            if not base:
                                break
                            base = base & lower(y)
                common = lower(x) if base is None else base and base & lower(x)
            if not common or common.isdisjoint(lower(last_k[j])):
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

    The siblings' filter of a dimension k >= 2 tests the forward neighbours
    of a parent's last vertex a as a set. Parents come in lexicographic
    order and end above their first vertex, so the set is made when the
    first parent ending at a comes and dropped once the sweep's first
    vertex reaches a: the sets alive are those of a band of the vertex
    order ahead of the sweep, not one per vertex.
    """
    if r < 0 or m < 0:
        raise ValueError("scale and cap must be >= 0")
    verts = V.sorted_ids()
    vset = V.ids
    adj = X.adjacency_at_scale(r) if r > 0 else [[] for _ in range(X.n)]
    counts = {0: len(verts)}
    last, parent, start = [array("i", verts)], [array("i", bytes(4 * len(verts)))], [array("i", (0, len(verts)))]
    if len(verts) > max_simplices:
        raise ComplexTooLargeError(counts, max_simplices)
    room = max_simplices - len(verts)
    for k in range(1, m + 1):
        last_p, parent_p, start_p = last[-1], parent[-1], start[-1]
        kids, first = array("i"), array("i", [0])
        if k > 1:
            ends = start[1][1:]  # per vertex, the end of the parents that start at it
            for e in range(2, k):
                ends = [start[e][x] for x in ends]
            edges, edge_start = last[1], start[1]
            fwd: list[Optional[set[int]]] = [None] * X.n  # a -> its forward neighbours, while a parent may end at a
            i, end = -1, 0
        for p, a in enumerate(last_p):
            if k == 1:
                row = adj[a]
                kids.extend(filter(vset.__contains__, row[bisect_right(row, a):]))
            else:
                while p == end:  # the parents from here on start at verts[i] or above, so none ends at it
                    i += 1
                    end = ends[i]
                    fwd[verts[i]] = None
                nb = fwd[a]
                if nb is None:
                    j = bisect_left(verts, a)
                    nb = fwd[a] = set(edges[edge_start[j] : edge_start[j + 1]])
                kids.extend(filter(nb.__contains__, last_p[p + 1 : start_p[parent_p[p] + 1]]))
            first.append(len(kids))
            if len(kids) > room:
                counts[k] = room + 1  # the simplices made when the cap was first passed
                raise ComplexTooLargeError(counts, max_simplices)
        counts[k] = len(kids)
        room -= len(kids)
        last.append(kids)
        parent.append(array("i", chain.from_iterable(map(repeat, range(len(last_p)), map(sub, first[1:], first)))))
        start.append(first)
    return RipsComplex(X, V, r, m, last, parent, start)


# -- chain maps ---------------------------------------------------------------


@dataclass
class ChainMap:
    """Per-dimension GF(2) matrices from source chains to target chains."""

    source: RipsComplex
    target: RipsComplex
    mats: list[GF2Matrix]

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
    """Simplex-identity map of a subcomplex."""
    if not K.vertex_mask.issubset(L.vertex_mask):
        raise NotASubcomplexError("vertex mask not contained in target's")
    if K.scale > L.scale or K.cap > L.cap:
        raise NotASubcomplexError("scale or cap exceeds target's")
    mats = []
    for k, pos in enumerate(K.positions_in(L, K.cap)):
        if -1 in pos:
            raise NotASubcomplexError(f"simplex {K.simplices[k][pos.index(-1)]} missing from target")
        mats.append(GF2Matrix(L.n_simplices(k), K.n_simplices(k), [1 << t for t in pos]))
    return ChainMap(K, L, mats)


def fill_cycle(
    L: RipsComplex,
    k: int,
    z: int,
    locality: Optional[tuple[int, int]] = None,
) -> Optional[int]:
    """A (k+1)-chain w with ∂w = z, or None ("no-fill").

    z must be a reduced k-cycle (augmentation included for k = 0). With a
    locality (center id, radius), only the (k+1)-simplices inside
    N_radius(center) enter the solve. Coned columns are skipped with that
    ball (the vertex mask without a locality) as the apex set: each is the
    sum of columns of simplices v∗f inside it fed before it, so the pivots
    and the fill are those of the solve over every simplex inside. The
    columns are fed packed, so the solve's echelon is stored banded.
    Returns the fill as a chain over all (k+1)-simplices, or None when z is
    no boundary of those columns.
    """
    if k + 1 > L.cap:
        raise ValueError("complex cap too low to fill at this dimension")
    if L.boundary_of_chain(k, z) != 0:
        raise NotACycleError()
    allowed = among = None
    if locality is not None:
        center, radius = locality
        row = L.space.dist_row(center)
        allowed = SubsetMask(L.space.n, (v for v in L.vertex_mask.ids if 0 <= row[v] <= radius))
        among = L.simplices_within(k + 1, allowed)
    cols_idx = list(L.uncone(k + 1, among, allowed))
    x = gf2.solve_columns(L.iter_banded_columns(k + 1, cols_idx), z)
    if x is None:
        return None
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
    # dimension 0: relabel
    cols0 = [1 << final.index[0][(f[s[0]],)] for s in K.simplices[0]]
    mats.append(GF2Matrix(final.n_simplices(0), K.n_simplices(0), cols0))
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
            # simplicial value is the canonical fill (always so for
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
        prev_disp = worst
    cm = ChainMap(K, final, mats)
    cm.validate()
    return cm


__all__ = [
    "RipsComplex",
    "build_rips",
    "ChainMap",
    "inclusion_chain_map",
    "fill_cycle",
    "induced_chain_map",
]
