"""Cochain complexes rel the collar: the compact-support proxy.

At a finite window every cochain has finite support, so compact support
alone is vacuous. The working surrogate quotients away the collar: the
degree-k group keeps only simplices with at least one interior vertex, and
the coboundary is the full one followed by restriction. For a box window
this is cohomology rel the boundary shell, which is what restores the
fundamental classes (H^2 of a plane window, the crossing class of a line
window) that plain cohomology of a contractible window would lose.

Cochains are int bitsets over the local index of relative simplices.

Each degree k is factored once per complex and cached: δ^k, the transpose
of the relative boundary streamed from :meth:`RipsComplex.iter_banded_columns`
(no faces are enumerated here: facet rows are read from the packed
columns); the tracked echelon of the coboundaries im δ^{k-1}, which also
answers every solve against them (the masked ones of
:meth:`RelativeComplex.representative_within`, the unmasked one of
:meth:`RelativeComplex.class_is_zero`); and a cocycle basis of ker δ^k.
Every caller shares these objects, so they are read only.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Optional

from . import gf2
from .gf2 import GF2Matrix
from .metric import SubsetMask
from .rips import RipsComplex


class RelativeComplex:
    """A Rips complex with the collar quotient structure."""

    def __init__(self, K: RipsComplex, interior: SubsetMask):
        self.K = K
        # relative = at least one interior vertex: the parent is relative or the last vertex is interior
        self.rel: list[array] = []
        self.rel_pos: list[dict[int, int]] = []
        ids = interior.ids
        flags = bytearray(1)  # the root, not relative
        for k in range(K.cap + 1):
            flags = bytearray(flags[p] or v in ids for p, v in zip(K.parent[k], K.last[k]))
            keep = array("i", compress(range(len(flags)), flags))
            self.rel.append(keep)
            self.rel_pos.append({j: t for t, j in enumerate(keep)})
        self._delta_cache: dict[int, GF2Matrix] = {}
        self._image_cache: dict[int, gf2.GF2Subspace] = {}
        self._cocycle_cache: dict[int, list[int]] = {}
        self._positions: dict[RelativeComplex, list[array]] = {}  # ambient -> this complex's simplex positions in it

    def n_rel(self, k: int) -> int:
        return len(self.rel[k]) if 0 <= k <= self.K.cap else 0

    def delta(self, k: int) -> GF2Matrix:
        """delta^k : C^k_rel -> C^{k+1}_rel (rows = relative (k+1)-simplices).

        The transpose of the relative ∂_{k+1}, read column by column from
        :meth:`RipsComplex.iter_banded_columns`: each facet row is lo or lo
        plus one 32-bit field of the packed column, with no bit loop.
        Facets outside the relative list drop out. C^{-1}_rel is 0, so
        delta^{-1} is the n_rel(0) x 0 matrix.
        """
        mat = self._delta_cache.get(k)
        if mat is not None:
            return mat
        cols = [0] * self.n_rel(k)
        pos_k = self.rel_pos[k] if k >= 0 else {}
        field, mask = gf2.FIELD, gf2.FIELD_MASK
        for t_hi, (packed, lo) in enumerate(self.K.iter_banded_columns(k + 1, self.rel[k + 1])):
            row = 1 << t_hi
            t_lo = pos_k.get(lo)
            if t_lo is not None:
                cols[t_lo] |= row
            while packed:  # the other k + 1 facets
                t_lo = pos_k.get(lo + (packed & mask))
                if t_lo is not None:
                    cols[t_lo] |= row
                packed >>= field
        mat = self._delta_cache[k] = GF2Matrix(self.n_rel(k + 1), self.n_rel(k), cols)
        return mat

    def coboundary(self, k: int, vec: int) -> int:
        return self.delta(k).matvec(vec)

    def is_cocycle(self, k: int, vec: int) -> bool:
        if k >= self.K.cap:
            return True  # no higher simplices to test against in this window
        return self.coboundary(k, vec) == 0

    def support_vertices(self, k: int, vec: int) -> SubsetMask:
        verts: set[int] = set()
        for t in gf2.bits(vec):
            verts.update(self.K.simplices[k][self.rel[k][t]])
        return SubsetMask(self.K.space.n, verts)

    def support_diameter(self, k: int, vec: int) -> float:
        verts = self.support_vertices(k, vec).sorted_ids()
        if len(verts) <= 1:
            return 0
        worst = 0
        for v in verts:
            row = self.K.space.dist_row(v)
            for u in verts:
                d = row[u]
                if d >= 0:
                    worst = max(worst, d)
        return worst

    def cochain_from_edge_predicate(self, pred) -> int:
        """Degree-1 cochain from a predicate on vertex pairs (crossing cocycles)."""
        out = 0
        edges = self.K.simplices[1]
        for t, j in enumerate(self.rel[1]):
            u, v = edges[j]
            if pred(u, v):
                out |= 1 << t
        return out

    def cochain_from_cup_product(self, pred_a, pred_b) -> int:
        """Degree-2 cochain a∪b from two edge predicates, Alexander-Whitney style.

        (a∪b)(v0,v1,v2) = a(v0,v1) b(v1,v2) on the id-sorted vertex tuple;
        for edge predicates that are themselves cocycles the result is a
        cocycle.
        """
        out = 0
        triangles = self.K.simplices[2]
        for t, j in enumerate(self.rel[2]):
            v0, v1, v2 = triangles[j]
            if pred_a(v0, v1) and pred_b(v1, v2):
                out |= 1 << t
        return out

    def simplex_positions_within(self, k: int, allowed: SubsetMask) -> list[int]:
        """Positions of the relative k-simplices with every vertex in the mask, ascending.

        Read off :meth:`RipsComplex.simplices_within`, so the cost follows
        the mask's subtrees, not the whole complex.
        """
        pos = self.rel_pos[k]
        return [pos[j] for j in self.K.simplices_within(k, allowed) if j in pos]

    def representative_within(self, k: int, vec: int, allowed: SubsetMask) -> Optional[int]:
        """vec + delta tau supported on relative k-simplices inside the mask, or None.

        Support containment is simplex-level: the result may be nonzero only
        on the simplices B inside ``allowed``. tau solves
        (delta tau)(t) = vec(t) on every relative k-simplex t outside B.
        Masking zeroes the rows in B in place instead of renumbering the
        others; the kept rows stay in order, so every top-bit pivot lands on
        the same row and tau is the solution a compacted system would give.
        The solve runs on the tracked echelon of im delta^{k-1}, cached per
        degree, and re-reduces only the pivots the mask touches
        (:meth:`gf2.GF2Subspace.solve_masked`); None means infeasible.
        """
        tau = self.coboundary_space(k).solve_masked(vec, self.simplex_positions_within(k, allowed))
        return None if tau is None else vec ^ self.delta(k - 1).matvec(tau)

    def cocycle_basis(self, k: int) -> list[int]:
        """A basis of ker delta^k, eliminated once per degree; read only.

        At k >= cap every cochain counts as a cocycle, as in :meth:`is_cocycle`.
        """
        basis = self._cocycle_cache.get(k)
        if basis is None:
            basis = self._cocycle_cache[k] = (
                gf2.kernel_basis(self.delta(k)) if k < self.K.cap else [1 << t for t in range(self.n_rel(k))]
            )
        return basis

    def coboundary_space(self, k: int) -> gf2.GF2Subspace:
        """im delta^{k-1} inside degree k, echelonised once per degree; read only.

        The echelon is tracked, its columns inserted in index order, so it
        also answers the solves of :meth:`representative_within` and
        :meth:`class_is_zero`.
        """
        space = self._image_cache.get(k)
        if space is None:
            space = self._image_cache[k] = gf2.image_basis(self.delta(k - 1))
        return space

    def is_coboundary(self, k: int, vec: int) -> bool:
        """Whether vec is a relative coboundary, decided without a witness.

        One reduction against im delta^{k-1}, echelonised once per degree; it
        agrees with ``class_is_zero(k, vec) is not None``.
        """
        return self.coboundary_space(k).contains(vec)

    def class_is_zero(self, k: int, vec: int) -> Optional[int]:
        """A relative cochain beta with delta beta = vec, or None: the unmasked solve on im delta^{k-1}."""
        return self.coboundary_space(k).solve_masked(vec, ())

    def cohomology_dim(self, k: int) -> int:
        return len(self.cocycle_basis(k)) - self.coboundary_space(k).dim


def restriction_matrix(src: RelativeComplex, dst: RelativeComplex, k: int) -> GF2Matrix:
    """C^k_rel(src) -> C^k_rel(dst) restricting along a subcomplex inclusion.

    dst's Rips complex must be a subcomplex of src's (same space ids); a
    dst simplex absent from src's relative list restricts from zero. dst's
    simplex positions in src are walked once per pair and kept on dst.
    """
    cols = [0] * src.n_rel(k)
    in_src = dst._positions.get(src)
    if in_src is None:
        in_src = dst._positions[src] = dst.K.positions_in(src.K, dst.K.cap)
    in_src = in_src[k]
    for t_dst, j_dst in enumerate(dst.rel[k]):
        j_src = in_src[j_dst]
        if j_src < 0:
            raise ValueError("destination simplex missing from source complex")
        t_src = src.rel_pos[k].get(j_src)
        if t_src is not None:
            cols[t_src] |= 1 << t_dst
    return GF2Matrix(dst.n_rel(k), src.n_rel(k), cols)


def extension_matrix(sub: RelativeComplex, amb: RelativeComplex, k: int) -> GF2Matrix:
    """C^k_rel(sub) -> C^k_rel(amb) extending by zero."""
    return restriction_matrix(amb, sub, k).transpose()


__all__ = ["RelativeComplex", "restriction_matrix", "extension_matrix"]
