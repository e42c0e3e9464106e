"""Cochain complexes rel the collar: the compact-support proxy.

At a finite window every cochain has finite support, so compact support
alone is vacuous. The working surrogate quotients away the collar: the
degree-k group keeps only simplices with at least one interior vertex, and
the coboundary is the full one followed by restriction. For a box window
this is cohomology rel the boundary shell, which is what restores the
fundamental classes (H^2 of a plane window, the crossing class of a line
window) that plain cohomology of a contractible window would lose.

Cochains are int bitsets over the local index of relative simplices.
"""

from __future__ import annotations

from typing import Optional

from . import gf2
from .gf2 import GF2Matrix
from .metric import SubsetMask
from .rips import RipsComplex


class RelativeComplex:
    """A Rips complex with the collar quotient structure."""

    def __init__(self, K: RipsComplex, interior: SubsetMask):
        self.K = K
        self.interior = interior
        # relative = at least one interior vertex
        self.rel: list[list[int]] = []
        self.rel_pos: list[dict[int, int]] = []
        ids = interior.ids
        for k in range(K.cap + 1):
            keep = [j for j, s in enumerate(K.simplices[k]) if any(v in ids for v in s)]
            self.rel.append(keep)
            self.rel_pos.append({j: t for t, j in enumerate(keep)})
        self._delta_cache: dict[int, GF2Matrix] = {}
        self._image_cache: dict[int, gf2.GF2Subspace] = {}
        self._by_first: dict[int, dict[int, list[int]]] = {}  # degree -> first vertex -> positions
        self._residues: dict[int, dict[int, int]] = {}  # degree -> position t -> residue of e_t

    def n_rel(self, k: int) -> int:
        return len(self.rel[k]) if 0 <= k <= self.K.cap else 0

    def delta(self, k: int) -> GF2Matrix:
        """delta^k : C^k_rel -> C^{k+1}_rel (rows = relative (k+1)-simplices)."""
        mat = self._delta_cache.get(k)
        if mat is not None:
            return mat
        n_hi = self.n_rel(k + 1)
        cols = [0] * self.n_rel(k)
        pos_k, faces = self.rel_pos[k], self.K.index[k]
        for t_hi, j_hi in enumerate(self.rel[k + 1]):
            s = self.K.simplices[k + 1][j_hi]
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                j_lo = faces.get(face)
                if j_lo is None:
                    continue
                t_lo = pos_k.get(j_lo)
                if t_lo is not None:
                    cols[t_lo] |= 1 << t_hi
        mat = GF2Matrix(n_hi, self.n_rel(k), cols)
        self._delta_cache[k] = mat
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
        for t, j in enumerate(self.rel[1]):
            u, v = self.K.simplices[1][j]
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
        for t, j in enumerate(self.rel[2]):
            v0, v1, v2 = self.K.simplices[2][j]
            if pred_a(v0, v1) and pred_b(v1, v2):
                out |= 1 << t
        return out

    def simplex_positions_within(self, k: int, allowed: SubsetMask) -> list[int]:
        """Positions of the relative k-simplices with every vertex in the mask, ascending.

        Simplices are looked up by their first vertex, indexed once per
        degree, so the cost follows the mask's stars, not the whole complex.
        """
        by_first = self._by_first.get(k)
        if by_first is None:
            by_first = self._by_first[k] = {}
            for t, j in enumerate(self.rel[k]):
                by_first.setdefault(self.K.simplices[k][j][0], []).append(t)
        ids, simplices, rel = allowed.ids, self.K.simplices[k], self.rel[k]
        return sorted(t for v in ids for t in by_first.get(v, ()) if ids.issuperset(simplices[rel[t]]))

    def representative_within(self, k: int, vec: int, allowed: SubsetMask) -> Optional[int]:
        """vec + delta tau supported on relative k-simplices inside the mask, or None.

        Support containment is simplex-level: the result may be nonzero only
        on the simplices B inside ``allowed``. Feasibility is decided first, on
        residues: reduction r against the echelon of im delta^{k-1} (cached per
        degree) is linear with kernel exactly im delta, so vec lies in
        im delta + C_B if and only if r(vec) lies in the span of
        {r(e_t) : t in B}. That system has |B| columns; each r(e_t) is reduced
        once per complex, since neighbouring balls share most simplices. The
        answer is exact, so an infeasible mask costs no full solve.

        A feasible mask gets the witnessed solve: tau solves
        (delta tau)(t) = vec(t) on every relative k-simplex t outside B.
        Masking zeroes the rows in B in place instead of renumbering the
        others; the kept rows stay in order, so every top-bit pivot lands on
        the same row and tau is the solution a compacted system would give.
        """
        inside = self.simplex_positions_within(k, allowed)
        reduce, residues = self.coboundary_space(k).reduce, self._residues.setdefault(k, {})
        residues.update({t: reduce(1 << t) for t in inside if t not in residues})
        if gf2.ColumnSolve(reduce(vec), track=False).feed(residues[t] for t in inside) is None:
            return None
        outside = gf2.vector_from_indices(inside) ^ ((1 << self.n_rel(k)) - 1)
        delta = self.delta(k - 1)
        tau = gf2.solve_columns((c & outside for c in delta.columns), vec & outside)
        return vec ^ delta.matvec(tau)

    def cocycle_basis(self, k: int) -> list[int]:
        return gf2.kernel_basis(self.delta(k))

    def coboundary_space(self, k: int) -> gf2.GF2Subspace:
        """im delta^{k-1} inside degree k, echelonised once per degree; read only."""
        space = self._image_cache.get(k)
        if space is None:
            space = gf2.image_basis(self.delta(k - 1)) if k else gf2.GF2Subspace(self.n_rel(0))
            self._image_cache[k] = space
        return space

    def is_coboundary(self, k: int, vec: int) -> bool:
        """Whether vec is a relative coboundary, decided without a witness.

        One reduction against im delta^{k-1}, echelonised once per degree; it
        agrees with ``class_is_zero(k, vec) is not None``, which solves afresh.
        """
        return self.coboundary_space(k).contains(vec)

    def class_is_zero(self, k: int, vec: int) -> Optional[int]:
        """A relative cochain beta with delta beta = vec, or None."""
        if k == 0:
            return 0 if vec == 0 else None
        return gf2.solve(self.delta(k - 1), vec)

    def cohomology_dim(self, k: int) -> int:
        zdim = self.n_rel(k) - gf2.rank(self.delta(k)) if k < self.K.cap else self.n_rel(k)
        bdim = 0 if k == 0 else gf2.rank(self.delta(k - 1))
        return zdim - bdim


def restriction_matrix(src: RelativeComplex, dst: RelativeComplex, k: int) -> GF2Matrix:
    """C^k_rel(src) -> C^k_rel(dst) restricting along a subcomplex inclusion.

    dst's Rips complex must be a subcomplex of src's (same space ids); a
    dst simplex absent from src's relative list restricts from zero.
    """
    cols = [0] * src.n_rel(k)
    src_index = src.K.index[k]
    for t_dst, j_dst in enumerate(dst.rel[k]):
        s = dst.K.simplices[k][j_dst]
        j_src = src_index.get(s)
        if j_src is None:
            raise ValueError("destination simplex missing from source complex")
        t_src = src.rel_pos[k].get(j_src)
        if t_src is not None:
            cols[t_src] |= 1 << t_dst
    return GF2Matrix(dst.n_rel(k), src.n_rel(k), cols)


def extension_matrix(sub: RelativeComplex, amb: RelativeComplex, k: int) -> GF2Matrix:
    """C^k_rel(sub) -> C^k_rel(amb) extending by zero."""
    return restriction_matrix(amb, sub, k).transpose()


__all__ = ["RelativeComplex", "restriction_matrix", "extension_matrix"]
