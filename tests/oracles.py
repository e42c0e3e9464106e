"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own machinery: dense numpy
elimination for GF(2), plain flood fill for components, brute-force
simplex enumeration for Rips complexes.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np


def dense_rank_gf2(rows: list[list[int]]) -> int:
    """Textbook Gaussian elimination over GF(2) on a dense numpy array."""
    A = np.array(rows, dtype=np.uint8) % 2
    if A.size == 0:
        return 0
    n, m = A.shape
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        for i in range(n):
            if i != r and A[i, c]:
                A[i, :] ^= A[r, :]
        r += 1
        if r == n:
            break
    return r


def dense_solve_gf2(rows: list[list[int]], rhs: list[int]):
    """Any solution of A x = b over GF(2), or None."""
    A = np.array(rows, dtype=np.uint8) % 2
    b = np.array(rhs, dtype=np.uint8) % 2
    n, m = A.shape
    Ab = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    r = 0
    pivot_cols = []
    for c in range(m):
        piv = None
        for i in range(r, n):
            if Ab[i, c]:
                piv = i
                break
        if piv is None:
            continue
        Ab[[r, piv]] = Ab[[piv, r]]
        for i in range(n):
            if i != r and Ab[i, c]:
                Ab[i, :] ^= Ab[r, :]
        pivot_cols.append(c)
        r += 1
    for i in range(r, n):
        if Ab[i, m]:
            return None
    x = np.zeros(m, dtype=np.uint8)
    for i, c in enumerate(pivot_cols):
        x[c] = Ab[i, m]
    return x.tolist()


def dense_kernel_dim_gf2(rows: list[list[int]]) -> int:
    A = np.array(rows, dtype=np.uint8)
    return (A.shape[1] if A.size else 0) - dense_rank_gf2(rows)


def flood_fill_components(vertices, neighbors):
    """Components of a graph given by a neighbor function; list of frozensets."""
    vertices = list(vertices)
    vset = set(vertices)
    seen = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        seen.add(v)
        dq = deque([v])
        while dq:
            u = dq.popleft()
            for w in neighbors(u):
                if w in vset and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    dq.append(w)
        comps.append(frozenset(comp))
    return comps


def brute_force_simplices(points, dist, r, max_dim):
    """All Rips simplices up to max_dim by exhaustive subset enumeration."""
    points = sorted(points)
    out = {k: [] for k in range(max_dim + 1)}
    for k in range(max_dim + 1):
        for combo in itertools.combinations(points, k + 1):
            if all(dist(a, b) <= r for a, b in itertools.combinations(combo, 2)):
                out[k].append(tuple(combo))
    return out


def bfs_distances(adj, source):
    dist = {source: 0}
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def amalgam_mul_reference(g, h):
    """Product in Z^2 *_Z Z^2 by free reduction of the concatenated words and an integer sum."""
    word = []
    for x in g[0] + h[0]:
        if word and word[-1] == -x:
            word.pop()
        else:
            word.append(x)
    return (tuple(word), (g[1][0] + h[1][0],))


def compacted_representative_within(R, k, vec, allowed):
    """The restricted coboundary solve with outside rows renumbered bit by bit.

    Unlike the oracles above this one reuses the package's solve on purpose:
    it is the reference for ``RelativeComplex.representative_within``, which
    masks the rows instead of renumbering them and must return the very
    same cochain, not merely some representative. The simplices inside the
    mask come from a scan of every relative simplex, not from the package's
    first-vertex index.
    """
    from coarsetop import gf2

    inside = {t for t, j in enumerate(R.rel[k]) if allowed.ids.issuperset(R.K.simplices[k][j])}
    row_pos = {t: i for i, t in enumerate(t for t in range(R.n_rel(k)) if t not in inside)}

    def outside_part(v):
        out = 0
        for t in gf2.bits(v):
            i = row_pos.get(t)
            if i is not None:
                out |= 1 << i
        return out

    delta = R.delta(k - 1)
    tau = gf2.solve_columns([outside_part(c) for c in delta.columns], outside_part(vec))
    return None if tau is None else vec ^ delta.matvec(tau)


def table_transport(ball, R, k, vec, g):
    """alpha . g^{-1} read off the whole-ball action table, or None."""
    table = ball.action_table(g)
    out = 0
    for t in range(R.n_rel(k)):
        if not (vec >> t) & 1:
            continue
        imgs = [table[v] for v in R.K.simplices[k][R.rel[k][t]]]
        if None in imgs:
            return None
        j = R.K.index[k].get(tuple(sorted(imgs)))
        tpos = None if j is None else R.rel_pos[k].get(j)
        if tpos is None:
            return None
        out |= 1 << tpos
    return out if R.is_cocycle(k, out) else None


def uncone_by_definition(K, k, among=None, apex=None):
    """The indices in ``among`` (all when None) whose k-simplex is not coned, from distances alone.

    s is coned when some vertex v < s[0] of the apex set (the vertex mask
    when None) inside the vertex mask lies within the scale of every vertex
    of s. Vertices, and every simplex at scale 0, are kept.
    """
    chosen = list(range(K.n_simplices(k)) if among is None else among)
    if k == 0 or K.scale == 0:
        return chosen
    apex_ids = K.vertex_mask.ids if apex is None else apex.ids & K.vertex_mask.ids
    kept = []
    for j in chosen:
        s = K.simplices[k][j]
        if not any(v < s[0] and all(K.space.dist(v, x) <= K.scale for x in s) for v in apex_ids):
            kept.append(j)
    return kept


def every_column(K, k, among=None, apex=None):
    """Stand-in for ``RipsComplex.uncone`` that keeps every column: the unskipped solve."""
    return list(range(K.n_simplices(k))) if among is None else list(among)


def relative_coboundary_by_definition(K, interior_ids, k):
    """Columns of the relative coboundary δ^k, read off vertex sets alone.

    A simplex is relative when one of its vertices is interior; rows and
    columns follow the complex's simplex order. Each relative k-simplex
    maps to the relative (k+1)-simplices containing it.
    """
    lo, hi = ([s for s in K.simplices[d] if interior_ids & set(s)] for d in (k, k + 1))
    return [sum(1 << b for b, up in enumerate(hi) if set(face) <= set(up)) for face in lo]
