"""Essential-component probes and the finite-scale Mayer-Vietoris assembly.

Essentiality is decided through homology at infinity: a complementary
component C of W is probed by pushing the surviving classes of reduced
H_{n-1} of W-annuli into annuli of C ∪ W at a coarser paired schedule and
asking whether they die there. Death of every surviving class reads
"essential", a surviving image reads "non-essential", and a probe with no
class to push is inconclusive. The paired schedule doubles the Rips scale
and halves the excision radius.

The Mayer-Vietoris assembly works on collar-relative cochain complexes of
the pieces N_A(W), N_A(W) ∪ C, N_A(W) ∪ (X\\C) and X at one Rips scale,
verifies the short exact sequence columnwise (the simplex dichotomy is the
gate), computes the connecting map by the extend/coboundary/extend snake,
and checks exactness at the reachable spots as subspace identities. Both
spots, H^k(A) ⊕ H^k(B) and H^k(W), go through one routine that compares
the image with the preimage of the next term's coboundaries; it reads the
pieces' cached cocycle bases and coboundary echelons, so each degree of
each piece is eliminated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf2
from .cochains import RelativeComplex, extension_matrix, restriction_matrix
from .errors import MAX_SIMPLICES, CoarseTopError, NotACycleError, WindowTooSmallError
from .gf2 import GF2Matrix
from .homology import (
    TwoScaleImage,
    WindowSchedule,
    annulus_mask,
    pd_signature_check,
    schedule_two_scale,
)
from .metric import FiniteMetricSpace, SubsetMask, neighborhood
from .rips import RipsComplex, build_rips, fill_cycle
from .separation import is_coarse_complementary, simplex_dichotomy_check


# -- almost essential ---------------------------------------------------------------


@dataclass
class AlmostEssentialReport:
    A: int
    B: Optional[int]  # smallest working B, None when none in the grid works
    tested: list[int]
    verdict: str  # "B=<n>" | "fails-at-window"
    window_radius: int


def almost_essential_probe(
    X: FiniteMetricSpace,
    W: SubsetMask,
    C: SubsetMask,
    A: int,
    B_grid: Sequence[int],
    collar: int = 2,
) -> AlmostEssentialReport:
    """Smallest B in the grid with W (off the collar) inside N_B(C \\ N_A(W))."""
    if not is_coarse_complementary(X, W, C, 1, A):
        raise CoarseTopError("not-complementary", "C is not (1, A)-complementary to W")
    nA = neighborhood(X, W, A)
    core = C - nA
    interior = X.interior_mask(collar)
    targets = (W & interior).sorted_ids()
    if not targets or len(core) == 0:
        return AlmostEssentialReport(A, None, list(B_grid), "fails-at-window", X.window_radius or -1)
    d = X.dist_to_set(core.ids, max([0, *B_grid]))  # a need beyond every B reads inf
    need = max(d[w] for w in targets)
    for B in sorted(B_grid):
        if need <= B:
            return AlmostEssentialReport(A, B, list(B_grid), f"B={B}", X.window_radius or -1)
    return AlmostEssentialReport(A, None, list(B_grid), "fails-at-window", X.window_radius or -1)


# -- essential probe ----------------------------------------------------------------


@dataclass
class EssentialVerdict:
    component: str
    verdict: str  # "essential" | "non-essential" | "inconclusive"
    schedule: Optional[WindowSchedule]
    reason: str = ""
    witnesses: list[dict] = field(default_factory=list)


def paired_target_schedule(sched: WindowSchedule) -> tuple[int, int]:
    """(scale, excision) for the C ∪ W annulus paired with a W-side schedule.

    Doubles the Rips scale and halves the excision radius, mirroring the
    acyclicity escalation of a component union.
    """
    scale = max(2 * sched.i, sched.j)
    excise = max(sched.S_out, sched.S // 2, scale)
    return scale, excise


def pd_precondition(
    X: FiniteMetricSpace, W: SubsetMask, n: int, schedules: Sequence[WindowSchedule],
    max_simplices: int = MAX_SIMPLICES,
) -> tuple[str, dict[WindowSchedule, TwoScaleImage]]:
    """Why W fails the PD signature check in dimension n ("" when it passes).

    When it passes, the check's own two-scale images of H~_{n-1}(W-annuli)
    come with it, per schedule: they are the images a probe pushes.
    """
    try:
        pd = pd_signature_check(X, n, schedules, within=W, max_simplices=max_simplices)
    except WindowTooSmallError as err:
        return str(err), {}
    if not pd.passed:
        return f"W fails the PD signature check at n={n}: {pd.degree_verdicts}", {}
    return "", dict(zip(schedules, pd.images))


def essential_probe(
    X: FiniteMetricSpace,
    W: SubsetMask,
    C: SubsetMask,
    n: int,
    schedules: Sequence[WindowSchedule],
    component_name: str = "C",
    skip_pd_check: bool = False,
    max_witness_columns: int = 60_000,
    probe_schedule: Optional[WindowSchedule] = None,
    w_image: Optional[TwoScaleImage] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> EssentialVerdict:
    """Probe one complementary component for essentiality in dimension n.

    The schedule family drives the PD precondition on W (see
    :func:`pd_precondition`); the class push happens at ``probe_schedule``
    (default: the last of the family). A caller probing several components
    of one W checks it once, passes ``skip_pd_check``, and hands over the
    check's image at the probe schedule as ``w_image``. Every complex it
    builds is capped at ``max_simplices``.
    """
    sched = probe_schedule if probe_schedule is not None else schedules[-1]
    if not skip_pd_check:
        reason, images = pd_precondition(X, W, n, schedules, max_simplices)
        if reason:
            return EssentialVerdict(component_name, "inconclusive", None, reason=reason)
        w_image = images.get(sched)
    try:
        sched.validate()
        w_img = w_image if w_image is not None else schedule_two_scale(
            X, n - 1, sched, within=W, max_simplices=max_simplices
        )
    except WindowTooSmallError as err:
        return EssentialVerdict(component_name, "inconclusive", None, reason=str(err))
    if w_img.rank == 0:
        return EssentialVerdict(
            component_name, "inconclusive", sched, reason="no surviving W-class to push"
        )
    scale, excise = paired_target_schedule(sched)
    target_mask = annulus_mask(X, excise, None, within=(C | W))
    if len(target_mask) == 0:
        return EssentialVerdict(component_name, "inconclusive", sched, reason="empty target annulus")
    target = build_rips(X, target_mask, scale, n, max_simplices=max_simplices)
    witnesses = []
    any_survives = False
    for cls in w_img.classes:
        chain = _push_cycle(w_img.inner, target, n - 1, cls.representative)
        fate = _death_or_survival(target, n - 1, chain, max_witness_columns)
        witnesses.append(
            {
                "class_dim": n - 1,
                "survives_in_target": fate["survives"],
                "fill": fate.get("fill"),
                "fill_locality": fate.get("locality"),
            }
        )
        if fate["survives"]:
            any_survives = True
    verdict = "non-essential" if any_survives else "essential"
    return EssentialVerdict(component_name, verdict, sched, witnesses=witnesses)


def _push_cycle(src: RipsComplex, dst: RipsComplex, k: int, chain: int) -> int:
    """Reindex a chain of src into dst; src must be a subcomplex of dst."""
    out = 0
    for j in gf2.bits(chain):
        s = src.simplices[k][j]
        t = dst.index[k].get(s)
        if t is None:
            raise CoarseTopError("not-a-subcomplex", f"simplex {s} missing from target complex")
        out |= 1 << t
    return out


def _death_or_survival(target: RipsComplex, k: int, z: int, max_witness_columns: int) -> dict:
    """Decide z ∈ im ∂_{k+1}(target); extract a fill chain when affordable.

    Small systems run witnessed directly. Large ones start one streaming
    solve on the columns near the cycle support, witnessed for a compact
    fill when they are few enough; if they cannot fill z, the same solve
    drops its combinations and resumes on the remaining columns, so no
    column is eliminated twice. The verdict always comes from an exact
    membership computation.

    Neither phase feeds coned columns (:meth:`RipsComplex.uncone`). The
    local phase takes N_rho(supp) as the apex set, so each skipped local
    column is a sum of local columns fed before it. The resume phase takes
    the whole vertex mask: the cone simplices v∗f of a skipped column lie
    either inside N_rho(supp), fed by the local phase, or at smaller indices
    among the remaining columns. The pivots, the stopping column and the
    fill are those of the unskipped solve. The path choice reads the
    unskipped column counts, so the reported locality does not move. The
    resume phase streams the cone test, which stops where the solve stops.
    Both phases feed banded columns, so the echelon, the residue and the
    combination masks are stored by their spans (see :mod:`coarsetop.gf2`).
    """
    ncols = target.n_simplices(k + 1)
    if ncols <= max_witness_columns:
        fill = fill_cycle(target, k, z, want_witness=True)
        return {"survives": fill is None, "fill": fill, "locality": "full"}
    if target.boundary_of_chain(k, z) != 0:
        raise NotACycleError()
    supp = target.chain_support_vertices(k, z)
    rho = 2 * target.scale + 2
    d = target.space.dist_to_set(supp.ids, rho)
    local_vertices = SubsetMask(
        target.space.n, (v for v in target.vertex_mask.ids if d[v] <= rho)
    )
    local_cols = target.simplices_within(k + 1, local_vertices)
    witnessed = len(local_cols) <= max_witness_columns
    solve = gf2.ColumnSolve(z, track=witnessed)
    rest = None
    if witnessed:
        kept = list(target.uncone(k + 1, local_cols, local_vertices))
        x = solve.feed(target.iter_banded_columns(k + 1, kept))
        if x is not None:
            fill = gf2.vector_from_indices(kept[b] for b in gf2.bits(x))
            return {"survives": False, "fill": fill, "locality": f"N_{rho}(supp)"}
        solve.drop_witness()
        skip = set(local_cols)
        rest = (j for j in range(ncols) if j not in skip)
    feasible = solve.feed(target.iter_banded_columns(k + 1, target.uncone(k + 1, rest)))
    return {"survives": feasible is None, "fill": None, "locality": "full/feasibility-only"}


# -- Mayer-Vietoris assembly -----------------------------------------------------------


@dataclass
class MVPieces:
    X: RelativeComplex
    A: RelativeComplex  # N_A(W) ∪ C1
    B: RelativeComplex  # N_A(W) ∪ C2
    W: RelativeComplex  # N_A(W)
    q: dict[int, GF2Matrix] = field(default_factory=dict, repr=False)  # C^k(X) -> C^k(A) ⊕ C^k(B)
    p: dict[int, GF2Matrix] = field(default_factory=dict, repr=False)  # C^k(A) ⊕ C^k(B) -> C^k(W)
    e_mats: dict[int, tuple[GF2Matrix, GF2Matrix]] = field(default_factory=dict, repr=False)

    # C^k(A) ⊕ C^k(B) is encoded as a | (b << A.n_rel(k)); only add_degree and direct_sum write it.

    def add_degree(self, k: int) -> tuple[GF2Matrix, GF2Matrix]:
        """q and p in degree k, from the four restriction matrices."""
        n = self.A.n_rel(k)
        qa, qb = restriction_matrix(self.X, self.A, k), restriction_matrix(self.X, self.B, k)
        pa, pb = restriction_matrix(self.A, self.W, k), restriction_matrix(self.B, self.W, k)
        q_cols = [a | (b << n) for a, b in zip(qa.columns, qb.columns)]
        q = self.q[k] = GF2Matrix(qa.rows + qb.rows, qa.cols, q_cols)
        p = self.p[k] = GF2Matrix(pa.rows, pa.cols + pb.cols, pa.columns + pb.columns)
        return q, p

    def direct_sum(self, k: int, a_vecs: Sequence[int], b_vecs: Sequence[int]) -> list[int]:
        """The vectors of both sides as elements of C^k(A) ⊕ C^k(B)."""
        n = self.A.n_rel(k)
        return [*a_vecs, *(v << n for v in b_vecs)]

    def extensions(self, deg: int) -> tuple[GF2Matrix, GF2Matrix]:
        """Extensions by zero W->A in degree deg and A->X in deg + 1, built once per degree."""
        pair = self.e_mats.get(deg)
        if pair is None:
            pair = self.e_mats[deg] = (
                extension_matrix(self.W, self.A, deg),
                extension_matrix(self.A, self.X, deg + 1),
            )
        return pair


@dataclass
class MVReport:
    r: int
    A: int
    collar: int
    dichotomy: bool
    ses_ok: dict[int, bool]
    connecting: list[dict]
    exactness: dict[str, bool]
    pieces: MVPieces = field(repr=False, default=None)


def mv_assemble(
    X: FiniteMetricSpace,
    W: SubsetMask,
    C1: SubsetMask,
    r: int,
    A: int,
    cap: int,
    w_classes: Sequence[tuple[int, int]] = (),
    collar: int = 2,
    check_exactness_upto: Optional[int] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> MVReport:
    """Assemble the three-piece short exact sequence and the connecting map.

    ``w_classes`` lists (degree, cochain bitset over the W piece's relative
    simplices); each must be a relative cocycle. The report carries, per
    class, the snake representative on X, its support, and whether it is
    nonzero in the collar-relative cohomology proxy.
    """
    if not is_coarse_complementary(X, W, C1, r, A):
        raise CoarseTopError("not-complementary", "C1 is not (r, A)-complementary to W")
    nA = neighborhood(X, W, A)
    C2 = (X.full_mask() - C1) | nA
    C1p = C1 | nA
    interior = X.interior_mask(collar)
    KX = build_rips(X, X.full_mask(), r, cap, max_simplices=max_simplices)
    dichotomy = simplex_dichotomy_check(KX, nA, C1)
    if not dichotomy:
        raise CoarseTopError("dichotomy-failed", "a simplex straddles both sides; raise A")
    KA = build_rips(X, C1p, r, cap, max_simplices=max_simplices)
    KB = build_rips(X, C2, r, cap, max_simplices=max_simplices)
    KW = build_rips(X, nA, r, cap, max_simplices=max_simplices)
    RX = RelativeComplex(KX, interior)
    RA = RelativeComplex(KA, interior & C1p)
    RB = RelativeComplex(KB, interior & C2)
    RW = RelativeComplex(KW, interior & nA)
    pieces = MVPieces(RX, RA, RB, RW)
    ses_ok = {}
    for k in range(cap + 1):
        q, p = pieces.add_degree(k)
        # columnwise short exactness:
        #  q injective, p surjective, p∘q = 0, rank q + rank p = middle dim
        rank_q, rank_p = gf2.rank_of_columns(q.columns), gf2.rank_of_columns(p.columns)
        pq_zero = not any(map(p.matvec, q.columns))
        ses_ok[k] = bool(rank_q == q.cols and rank_p == p.rows and pq_zero and rank_q + rank_p == p.cols)
    connecting = [connecting_entry(pieces, deg, sigma) for deg, sigma in w_classes]
    exactness = {}
    upto = check_exactness_upto if check_exactness_upto is not None else cap - 1
    for k in range(0, max(0, upto)):
        exactness[f"middle-H{k}"] = _exact_at_middle(pieces, k)
        exactness[f"w-H{k}"] = _exact_at_w(pieces, k)
    return MVReport(r, A, collar, dichotomy, ses_ok, connecting, exactness, pieces)


def connecting_entry(pieces: MVPieces, deg: int, sigma: int) -> dict:
    """The connecting map on one W-class: snake output, support, and nonzero test.

    sigma is a cochain over the W piece's relative simplices and must be a
    relative cocycle of degree ``deg``.
    """
    RX = pieces.X
    if not pieces.W.is_cocycle(deg, sigma):
        raise CoarseTopError("not-a-cocycle", "supplied W-class is not a relative cocycle")
    omega = connecting_map(pieces, deg, sigma)
    return {
        "degree": deg,
        "input": sigma,
        "output": omega,
        "nonzero_in_proxy": not RX.is_coboundary(deg + 1, omega),
        "support": RX.support_vertices(deg + 1, omega),
    }


def connecting_map(pieces: MVPieces, deg: int, sigma: int) -> int:
    """Snake: extend by zero to the C1 piece, take delta, extend by zero to X."""
    RA, RX = pieces.A, pieces.X
    ext_wa, ext_ax = pieces.extensions(deg)
    eta = RA.coboundary(deg, ext_wa.matvec(sigma))
    omega = ext_ax.matvec(eta)
    if not RX.is_cocycle(deg + 1, omega):
        raise CoarseTopError("snake-failed", "connecting-map output is not a relative cocycle")
    return omega


def _span_equal(span_a: list[int], span_b: list[int], ambient: int) -> bool:
    sa = gf2.span_of(span_a, ambient)
    sb = gf2.span_of(span_b, ambient)
    if sa.dim != sb.dim:
        return False
    return all(sb.contains(v) for v in span_a)


def _exact_at(image, cocycles, g, target: gf2.GF2Subspace, bounds, ambient: int) -> bool:
    """span(image) + B = {z in span(cocycles) : g(z) in target} + B, with B = span(bounds).

    g must be linear. The kernel side comes from one elimination: the
    combinations of the cocycles whose g-images reduce to 0 against target.
    """
    reduced = [target.reduce(g(z)) for z in cocycles]
    combos = gf2.kernel_basis(GF2Matrix(target.ambient, len(reduced), reduced))
    as_matrix = GF2Matrix(ambient, len(cocycles), cocycles)
    kernel = [as_matrix.matvec(m) for m in combos]
    return _span_equal([*image, *bounds], [*kernel, *bounds], ambient)


def _exact_at_middle(pieces: MVPieces, k: int) -> bool:
    """im q* = ker p* at H^k(A) ⊕ H^k(B)."""
    RX, RA, RB = pieces.X, pieces.A, pieces.B
    bounds = pieces.direct_sum(k, RA.delta(k - 1).columns, RB.delta(k - 1).columns) if k else []
    return _exact_at(
        [pieces.q[k].matvec(z) for z in RX.cocycle_basis(k)],
        pieces.direct_sum(k, RA.cocycle_basis(k), RB.cocycle_basis(k)),
        pieces.p[k].matvec,
        pieces.W.coboundary_space(k),
        bounds,
        RA.n_rel(k) + RB.n_rel(k),
    )


def _exact_at_w(pieces: MVPieces, k: int) -> bool:
    """im p* = ker delta~ at H^k(W)."""
    RA, RB, RW = pieces.A, pieces.B, pieces.W
    mid = pieces.direct_sum(k, RA.cocycle_basis(k), RB.cocycle_basis(k))
    return _exact_at(
        [pieces.p[k].matvec(z) for z in mid],
        RW.cocycle_basis(k),
        lambda z: connecting_map(pieces, k, z),
        pieces.X.coboundary_space(k + 1),
        RW.delta(k - 1).columns if k else [],
        RW.n_rel(k),
    )


def localized_boundary_support(
    pieces: MVPieces,
    deg: int,
    omega: int,
    input_support: SubsetMask,
) -> dict:
    """Support of the snake representative, with the schedule-derived radius check.

    ``omega`` is the connecting-map output delta~[sigma] of a degree-``deg``
    W-class sigma supported on ``input_support``. The snake (extend,
    coboundary, extend) moves support by at most one simplex diameter, so
    omega must live within R = (deg + 2) * r of the input support. The
    achieved radius is reported exactly.
    """
    RX = pieces.X
    supp = RX.support_vertices(deg + 1, omega)
    r = RX.K.scale
    bound = (deg + 2) * r
    if len(supp) == 0:
        return {"omega": omega, "support": supp, "achieved_radius": 0, "bound": bound, "within_bound": True}
    d = RX.K.space.dist_to_set(input_support.ids)
    achieved = max(d[v] for v in supp.ids)
    return {
        "omega": omega,
        "support": supp,
        "achieved_radius": achieved,
        "bound": bound,
        "within_bound": achieved <= bound,
    }


# -- two-sided representability --------------------------------------------------------


def side_representability(
    RX: RelativeComplex,
    W: SubsetMask,
    side: SubsetMask,
    deg: int,
    omega: int,
    s: int,
) -> Optional[int]:
    """A cocycle omega + delta tau supported in side \\ N_s(W), or None.

    Support containment is simplex-level: values may be nonzero only on
    relative simplices with every vertex in the side region.
    """
    if deg < 1:
        raise ValueError("degree must be >= 1")
    allowed = side - neighborhood(RX.K.space, W, s)
    return RX.representative_within(deg, omega, allowed)


def two_sided_representability(
    RX: RelativeComplex,
    W: SubsetMask,
    side_a: SubsetMask,
    side_b: SubsetMask,
    deg: int,
    omega: int,
    s: int,
) -> dict:
    """Representability of [omega] in each side region beyond N_s(W).

    When both sides succeed the class must vanish; the zero verdict is
    verified by an explicit coboundary solve, never inferred.
    """
    if not RX.is_cocycle(deg, omega):
        raise CoarseTopError("not-a-cocycle", "omega is not a relative cocycle")
    wa = side_representability(RX, W, side_a, deg, omega, s)
    wb = side_representability(RX, W, side_b, deg, omega, s)
    out = {
        "representable_a": wa is not None,
        "representable_b": wb is not None,
        "witness_a": wa,
        "witness_b": wb,
    }
    if wa is not None and wb is not None:
        out["verdict"] = "both"
        tau = RX.class_is_zero(deg, omega)
        out["class_zero_verified"] = tau is not None
        out["zero_witness"] = tau
    elif wa is not None:
        out["verdict"] = "representable-in-a"
    elif wb is not None:
        out["verdict"] = "representable-in-b"
    else:
        out["verdict"] = "neither"
    return out


__all__ = [
    "AlmostEssentialReport",
    "almost_essential_probe",
    "EssentialVerdict",
    "essential_probe",
    "pd_precondition",
    "paired_target_schedule",
    "MVPieces",
    "MVReport",
    "mv_assemble",
    "connecting_entry",
    "connecting_map",
    "localized_boundary_support",
    "side_representability",
    "two_sided_representability",
]
