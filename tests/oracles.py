"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own machinery: dense numpy
elimination for GF(2), plain flood fill for components, brute-force
simplex enumeration for Rips complexes.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque

import numpy as np

from coarsetop.metric import FiniteMetricSpace


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


def tracked_full_solve(columns, b):
    """The plain reference solve of A x = b over plain int columns: x, or None.

    A tracked ``GF2Subspace`` insert of every column, then of b. When b is
    dependent, its combination less its own bit is the unique solution over
    the columns that enter independent in order: the witness every solve of
    the package returns, whether it stops early or masks rows.
    """
    from coarsetop import gf2

    space = gf2.GF2Subspace(track=True)
    for c in columns:
        space.insert(c)
    m = space.insert(b)
    return None if m is None else m ^ (1 << len(columns))


def reference_feeds(b, columns, split, track, drop):
    """What ``two_feeds`` gives for the plain int columns, read off the plain reference.

    Returns ((first answer, second answer, stopping row, columns pulled),
    residue, echelon entries). The solve pulls columns until b lies in
    their span. Its echelon is the plain one of the columns pulled, with
    masks while it tracks, and its residue is b reduced against that
    echelon, top bit first, down to the first row without a pivot, which
    is the stopping row (-1 once b is reached).
    """
    from coarsetop import gf2

    space = gf2.GF2Subspace(track=track and not drop)
    pulled = 0
    while pulled < len(columns) and not space.contains(b):
        space.insert(columns[pulled])
        pulled += 1
    rest = b
    while rest and rest.bit_length() - 1 in space.pivots:
        rest ^= space.pivots[rest.bit_length() - 1]

    def answer(x, witnessed):
        return x if x is None or witnessed else 0

    first = answer(tracked_full_solve(columns[:split], b), track)
    second = answer(tracked_full_solve(columns, b), track and not drop)
    return (first, second, rest.bit_length() - 1, pulled), rest, echelon_entries(space)


def compacted_representative_within(R, k, vec, allowed):
    """The restricted coboundary solve with outside rows renumbered bit by bit.

    Unlike the oracles above this one reuses the package's elimination on
    purpose, through the plain reference solve (:func:`tracked_full_solve`):
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
    tau = tracked_full_solve([outside_part(c) for c in delta.columns], outside_part(vec))
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


def pack_offsets(offsets):
    """A packed column from its facet offsets above lo: 32-bit fields, the largest in the lowest."""
    return sum(o << (32 * i) for i, o in enumerate(sorted(offsets, reverse=True)))


def unpacked(packed, lo):
    """The plain int of a packed column (packed, lo), read field by field."""
    col = 1 << lo
    while packed:
        packed, offset = divmod(packed, 1 << 32)
        col |= 1 << (lo + offset)
    return col


def stored_pivots(space):
    """A banded echelon's pivots as it stores them: (row -> packed column, row -> reduced pair).

    A column that entered unreduced sits at its top row p of flat arrays:
    its lo (negative where p holds no such column), and each further facet
    offset in the array of its field (0 for none); field 0 is p - lo. A
    reduced pivot is a band shifted down to its lowest set bit, paired with
    its combination mask (bits, off), or None when untracked.
    """
    packed = {}
    for p, lo in enumerate(space.lows):
        if lo >= 0:
            fields = [p - lo] + [f[p] for f in space.offsets]
            packed[p] = sum(o << (32 * i) for i, o in enumerate(fields))
    combos = space.combos
    reduced = {p: (u, None if combos is None else combos[p]) for p, u in space.reduced.items()}
    return packed, reduced


def echelon_entries(space):
    """Pivot row -> (basis vector as a plain int, combination mask or None), from either echelon.

    The mask is a plain int over the inserted column numbers, None when the
    echelon keeps none. A banded echelon's stored column has the mask of
    its own column number alone, while it keeps the numbers.
    """
    from coarsetop import gf2

    if isinstance(space, gf2.GF2Subspace):
        combos = space.combos
        return {p: (v, None if combos is None else combos[p]) for p, v in space.pivots.items()}
    packed, reduced = stored_pivots(space)
    numbers = space.numbers
    out = {p: (unpacked(c, space.lows[p]), None if numbers is None else 1 << numbers[p]) for p, c in packed.items()}
    for p, (u, m) in reduced.items():
        out[p] = (u << (p + 1 - u.bit_length()), None if m is None else m[0] << m[1])
    return out


def two_feeds(b, columns, split, track, drop):
    """A ColumnSolve fed the packed columns[:split], optionally dropping its witness, then the rest.

    Returns the solve and (first answer, second answer, stopping row, columns pulled).
    """
    from coarsetop import gf2

    solve = gf2.ColumnSolve(b, track=track)
    pulled = []

    def stream(part):
        for c in part:
            pulled.append(c)
            yield c

    first = solve.feed(stream(columns[:split]))
    if drop:
        solve.drop_witness()
    second = solve.feed(stream(columns[split:]))
    return solve, (first, second, solve.row, len(pulled))


def banded_columns_by_definition(levels, k):
    """(packed, lo) per k-simplex of sorted tuple lists: lo is the row of s[:-1], packed the other facets' rows less lo."""
    row = {s: i for i, s in enumerate(levels[k - 1])}
    out = []
    for s in levels[k]:
        lo = row[s[:-1]]
        out.append((pack_offsets(row[s[:d] + s[d + 1:]] - lo for d in range(k)), lo))
    return out


def within_by_definition(levels, k, ids):
    """Positions of the k-simplices of sorted tuple lists whose vertices all lie in ids."""
    return [j for j, s in enumerate(levels[k]) if ids.issuperset(s)]


# -- test-only helpers over the package's own objects ---------------------------------


def gated_probe(X, W, C, n, schedules, name="C", probe=-1, **kwargs):
    """The essential probe of C as ``coarsetop run`` makes it.

    W passes the PD gate over the schedules, and the probe at
    ``schedules[probe]`` pushes the image that the gate produced there. A W
    that fails the gate reads inconclusive with the gate's reason.
    """
    from coarsetop.essential import EssentialVerdict, essential_probe, pd_precondition

    reason, images = pd_precondition(X, W, n, schedules)
    if reason:
        return EssentialVerdict(name, "inconclusive", None, reason=reason)
    sched = schedules[probe]
    return essential_probe(X, W, C, n, sched, images[sched], name, **kwargs)


def x_piece(X, r, cap):
    """``mv_assemble``'s X piece as ``coarsetop run`` builds it: P_r(X) to dimension cap, rel the collar 2."""
    from coarsetop.cochains import RelativeComplex
    from coarsetop.rips import build_rips

    return lambda: RelativeComplex(build_rips(X, X.full_mask(), r, cap), X.interior_mask(2))


def acyclicity_per_radius(X, k_max, centers, i_values, r_values, lambda_max, mu_max):
    """``uniform_acyclicity_probe``'s entries as (x, k, i, r, lambda, mu, failed), one search per listed r.

    Each (x, k, i, r) builds its own P_i(N_r(x)) and walks lambda ascending,
    then mu ascending from r, building P_lambda(N_mu(x)) afresh until the
    two-scale image is zero.
    """
    from coarsetop.homology import two_scale_image
    from coarsetop.metric import SubsetMask
    from coarsetop.rips import build_rips

    entries = []
    for x in sorted(centers):
        row = X.dist_row(x)
        for k in range(k_max + 1):
            for i in sorted(i_values):
                for r in sorted(r_values):
                    inner_mask = SubsetMask(X.n, (v for v in range(X.n) if 0 <= row[v] <= r))
                    inner = build_rips(X, inner_mask, i, k + 1)
                    found = None
                    for lam in range(max(i, 1), lambda_max + 1):
                        for mu in range(r, mu_max + 1):
                            outer_mask = SubsetMask(X.n, (v for v in range(X.n) if 0 <= row[v] <= mu))
                            if two_scale_image(inner, build_rips(X, outer_mask, lam, k + 1), k).rank == 0:
                                found = (lam, mu)
                                break
                        if found:
                            break
                    entries.append((x, k, i, r, *(found or (None, None)), found is None))
    return entries


def to_rows(M):
    """A GF2Matrix as a dense list of 0/1 rows."""
    return [[(M.columns[j] >> i) & 1 for j in range(M.cols)] for i in range(M.rows)]


def chain_from_simplices(K, k, simplex_list):
    """The k-chain of a Rips complex that sums the given simplices, each a vertex list in any order."""
    out = 0
    for s in simplex_list:
        out ^= 1 << K.index[k][tuple(sorted(s))]
    return out


def from_graph(n, edges, **kw):
    """The space on ids 0..n-1 with the path metric of an undirected edge list; kw go to the space."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return FiniteMetricSpace(n, adjacency=adj, **kw)


class TableSpace(FiniteMetricSpace):
    """A space backed by an explicit distance table, built the way ``groups.WordMetricBall`` is.

    The rows are the table's, stored as arrays before the space is set up,
    so ``radial`` may be derived from a basepoint; ``dist_to_set`` scans
    rows through the base class's ``_near``. kw go to the space.
    """

    def __init__(self, table, **kw):
        self._table = [array("i", row) for row in table]
        super().__init__(len(table), **kw)

    def _compute_row(self, x):
        return self._table[x]


def lattice_region_by_edges(points):
    """The induced subgraph of Z^d on the points, ids in sorted order, from an edge list of unit steps.

    The build ``fixtures.lattice_region`` once made before it wrote each
    point's row directly.
    """
    points = sorted(points)
    index = {p: i for i, p in enumerate(points)}
    edges = []
    for p, i in index.items():
        for axis in range(len(p)):
            j = index.get(tuple(c + (k == axis) for k, c in enumerate(p)))
            if j is not None:
                edges.append((i, j))
    return from_graph(len(points), edges, labels=points)


def line(lo, hi):
    """The integer segment [lo, hi] with the path metric; labels are the integers, 0 the basepoint."""
    pts = list(range(lo, hi + 1))
    edges = [(i, i + 1) for i in range(len(pts) - 1)]
    base = -lo if lo <= 0 <= hi else None
    return from_graph(len(pts), edges, labels=pts, window_radius=max(abs(lo), abs(hi)), basepoint=base)


def partition_ok(cs):
    """The component masks of a CoarseComponentSet partition X \\ N_A(W) exactly."""
    seen = set()
    for c in cs.components:
        if seen & c.mask.ids:
            return False
        seen |= c.mask.ids
    return seen == (cs.space.full_mask() - cs.nA).ids


def nbhd_containment_check(X, W, C, r, A, R_values):
    """N_R(C) inside C ∪ N_{A+R}(W) for every tested R."""
    from coarsetop.metric import neighborhood

    for R in R_values:
        if not neighborhood(X, C, R).issubset(C | neighborhood(X, W, A + R)):
            return False
    return True


def cyclic_trace_by_powers(ball, g):
    """The ball ids of g's powers, walked each way from the identity to the first outside the window.

    The walk ``subgroup_trace`` once took for a cyclic spec; a repeat (g of
    finite order) also ends it.
    """
    from coarsetop.metric import SubsetMask

    model, ids = ball.model, set()
    for step in (g, model.inv(g)):
        cur, visited = model.identity(), set()
        while cur not in visited:
            visited.add(cur)
            i = ball.index.get(cur)
            if i is None:
                break
            ids.add(i)
            cur = model.mul(cur, step)
    return SubsetMask(len(ball.elements), ids)


def push_by_tuples(src, dst, k, chain):
    """A k-chain of src reindexed into dst by looking each simplex's tuple up in dst.

    The reindex ``essential._push_cycle`` once did, with its error for a
    simplex that dst lacks.
    """
    from coarsetop import gf2
    from coarsetop.errors import CoarseTopError

    out = 0
    for j in gf2.bits(chain):
        s = src.simplices[k][j]
        t = dst.index[k].get(s)
        if t is None:
            raise CoarseTopError("not-a-subcomplex", f"simplex {s} missing from target complex")
        out |= 1 << t
    return out


def class_is_zero_afresh(R, k, vec):
    """beta with delta beta = vec by a fresh elimination of delta^{k-1}, or None; 0 or None at k = 0.

    What ``RelativeComplex.class_is_zero`` once computed on every call.
    """
    from coarsetop import gf2

    if k == 0:
        return 0 if vec == 0 else None
    return gf2.solve(R.delta(k - 1), vec)


def quotient_image_rank_by_extension(images, boundary_columns):
    """(rank, positions) of the images modulo the span of the columns, extending that span in place.

    What ``gf2.quotient_image_rank`` computed before it took the boundary
    space read only.
    """
    from coarsetop import gf2

    space = gf2.span_of(boundary_columns)
    reps = [t for t, img in enumerate(images) if space.extend(img)]
    return len(reps), reps


def reduced_homology_by_extension(K, k):
    """(dim, representatives) of reduced H_k(K): a fresh kernel basis of ∂_k, extending im ∂_{k+1} in place."""
    from coarsetop import gf2

    cycles = gf2.kernel_basis(K.boundary(k))
    space = gf2.span_of(K.iter_boundary_columns(k + 1, K.uncone(k + 1)))
    reps = [z for z in cycles if space.extend(z)]
    return len(reps), reps


def two_scale_image_by_extension(inner, outer, k):
    """(rank, representative inner cycles) of H~_k(inner) -> H~_k(outer), as ``two_scale_image`` once found them."""
    from coarsetop import gf2
    from coarsetop.rips import inclusion_chain_map

    f = inclusion_chain_map(inner, outer)
    cycles = gf2.kernel_basis(inner.boundary(k))
    columns = outer.iter_boundary_columns(k + 1, outer.uncone(k + 1))
    rank, positions = quotient_image_rank_by_extension([f.apply(k, z) for z in cycles], columns)
    return rank, [cycles[t] for t in positions]


def factor_trace_by_predicate(ball, value):
    """The ball ids of the amalgam factor ``value``: those whose other part is trivial.

    The membership rule ``subgroup_trace`` once applied to a factor spec.
    """
    from coarsetop.metric import SubsetMask

    j, e = 1 - value, ball.model.identity()
    return SubsetMask(len(ball.elements), (t for t, g in enumerate(ball.elements) if g[j] == e[j]))


def sublattice_trace_by_predicate(ball, k, coords):
    """The ball ids in k Z^coords: every listed axis divisible by k, every other axis 0.

    The membership rule ``subgroup_trace`` once applied to a sublattice spec.
    """
    from coarsetop.metric import SubsetMask

    n, coords = ball.model.n, set(coords)

    def member(g):
        return all((g[j] % k == 0) if j in coords else (g[j] == 0) for j in range(n))

    return SubsetMask(len(ball.elements), (t for t, g in enumerate(ball.elements) if member(g)))
