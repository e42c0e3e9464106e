"""Finite-scale stand-ins for the coarse invariants.

Coarse cohomology dimensions are computed only through topology at
infinity: the rank of the inclusion-induced map on reduced homology of
complement annuli, between an inner (smaller region, finer scale) and an
outer (larger region, coarser scale) Rips complex. Classes of the inner
complex that are artifacts of the finite window die in the outer one;
whatever survives is the two-scale image, the computational stand-in for a
coarse cohomology class one degree up.

Boundary spans stream only the ∂ columns that :meth:`RipsComplex.uncone`
keeps; the skipped ones are sums of earlier columns, so every echelon form,
rank and representative is the one the whole boundary matrix gives.

Verdicts over a schedule family are three-valued: a value is "stable" when
the last three schedules agree, "growing" when they strictly increase, and
"inconclusive" otherwise. Degree-0 coarse cohomology is 0 by definition
and never computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf2
from .errors import MAX_SIMPLICES, NotAChainMapError, WindowTooSmallError
from .groups import trend_verdict
from .metric import FiniteMetricSpace, SubsetMask
from .rips import ChainMap, RipsComplex, build_rips, inclusion_chain_map


@dataclass(frozen=True)
class WindowSchedule:
    """Nested excision radii and Rips scales for one two-scale computation.

    inner complex: region {S < radial <= R - collar} at scale i
    outer complex: region {S_out < radial}          at scale j >= i
    """

    S: int
    i: int
    S_out: int
    j: int
    R: int
    collar: int

    def validate(self) -> None:
        if not (0 <= self.S_out <= self.S):
            raise WindowTooSmallError("need 0 <= S_out <= S")
        if not (self.i <= self.j):
            raise WindowTooSmallError("need i <= j")
        if self.S_out + self.j > self.S:
            raise WindowTooSmallError("need S_out + j <= S so outer fills stay off the excised ball")
        if self.R - self.collar <= self.S + self.i:
            raise WindowTooSmallError("need R - collar > S + i; window too small for this excision")


def default_schedules(R: int, collar: int = 2, scales: tuple[int, int] = (1, 1), count: int = 3) -> list[WindowSchedule]:
    """A monotone family of schedules inside a window of radius R."""
    i, j = scales
    out = []
    S0 = max(j + 1, (R - collar) // 4)
    for t in range(count):
        S = S0 + t
        if R - collar <= S + i:
            break
        out.append(WindowSchedule(S=S, i=i, S_out=max(0, S - j), j=j, R=R, collar=collar))
    if len(out) < 3:
        raise WindowTooSmallError(f"cannot fit three schedules in window radius {R}")
    return out


@dataclass
class TwoScaleClass:
    """A homology class at the inner scale with its fate at the outer scale."""

    k: int
    representative: int  # cycle bitset over inner k-simplices
    schedule: Optional[WindowSchedule]  # set by schedule_two_scale
    survives: bool


@dataclass
class TwoScaleImage:
    inner: RipsComplex
    outer: RipsComplex
    inclusion: ChainMap
    k: int
    rank: int
    classes: list[TwoScaleClass]


def reduced_homology(K: RipsComplex, k: int) -> tuple[int, list[int]]:
    """dim of reduced H_k with representative cycles.

    Reduced homology augments the complex with the all-ones row, so k = 0
    counts components minus one like every other dimension.
    """
    if k + 1 > K.cap:
        raise ValueError("dimension cap too low: need k+1 simplices for boundaries")
    cycles = gf2.kernel_basis(K.boundary(k))
    space = gf2.span_of(K.iter_boundary_columns(k + 1, K.uncone(k + 1)), K.n_simplices(k))
    reps = [z for z in cycles if space.extend(z)]
    return len(reps), reps


def two_scale_image(inner: RipsComplex, outer: RipsComplex, k: int) -> TwoScaleImage:
    """Rank and representatives of H~_k(inner) -> H~_k(outer) under inclusion."""
    f = inclusion_chain_map(inner, outer)
    return two_scale_image_along(f, k)


def two_scale_image_along(f: ChainMap, k: int) -> TwoScaleImage:
    inner, outer = f.source, f.target
    if k + 1 > inner.cap or k + 1 > outer.cap:
        raise ValueError("dimension caps too low for this k")
    cycles = gf2.kernel_basis(inner.boundary(k))
    images = [f.apply(k, z) for z in cycles]
    for img, z in zip(images, cycles):
        if outer.boundary_of_chain(k, img) != 0:
            raise NotAChainMapError("image of a cycle is not a cycle")
    rank, rep_positions = gf2.quotient_image_rank(
        cycles, images, outer.iter_boundary_columns(k + 1, outer.uncone(k + 1)), outer.n_simplices(k)
    )
    classes = [TwoScaleClass(k, cycles[t], None, True) for t in rep_positions]
    return TwoScaleImage(inner, outer, f, k, rank, classes)


def class_survives(image: TwoScaleImage, z_inner: int) -> bool:
    """Direct membership test: is the image of this inner cycle a boundary outside."""
    img = image.inclusion.apply(image.k, z_inner)
    outer, k = image.outer, image.k
    space = gf2.span_of(outer.iter_boundary_columns(k + 1, outer.uncone(k + 1)), outer.n_simplices(k))
    return not space.contains(img)


# -- annulus machinery -----------------------------------------------------------


def _radial(X: FiniteMetricSpace) -> Sequence[int]:
    if X.radial is None:
        raise WindowTooSmallError("space has no radial coordinate (no basepoint)")
    return X.radial


def annulus_mask(X: FiniteMetricSpace, lo: int, hi: Optional[int] = None, within: Optional[SubsetMask] = None) -> SubsetMask:
    """{ lo < radial <= hi } intersected with an optional subspace mask."""
    rad = _radial(X)
    hi_eff = hi if hi is not None else 10**9
    ids = (x for x in range(X.n) if lo < rad[x] <= hi_eff)
    m = SubsetMask(X.n, ids)
    return m & within if within is not None else m


def schedule_two_scale(
    X: FiniteMetricSpace,
    k: int,
    sched: WindowSchedule,
    within: Optional[SubsetMask] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> TwoScaleImage:
    """The two-scale image of H~_k between the schedule's complement annuli, built under the cap."""
    sched.validate()
    inner_mask = annulus_mask(X, sched.S, sched.R - sched.collar, within)
    outer_mask = annulus_mask(X, sched.S_out, None, within)
    if len(inner_mask) == 0 or len(outer_mask) == 0:
        raise WindowTooSmallError("empty annulus at this schedule")
    inner = build_rips(X, inner_mask, sched.i, k + 1, max_simplices=max_simplices)
    outer = build_rips(X, outer_mask, sched.j, k + 1, max_simplices=max_simplices)
    out = two_scale_image(inner, outer, k)
    for c in out.classes:
        c.schedule = sched
    return out


@dataclass
class EndsReport:
    schedules: list[WindowSchedule]
    deep_counts: list[int]
    verdict: object  # int | "growing" | "inconclusive"


def ends_estimate(X: FiniteMetricSpace, schedules: Sequence[WindowSchedule]) -> EndsReport:
    """Deep components of ball complements, per schedule, with a trend verdict.

    A component is counted when it reaches beyond the collar; the count
    stabilizing over the last three schedules reads as the number of ends.
    """
    rad = _radial(X)
    counts = []
    for sched in schedules:
        sched.validate()
        mask = annulus_mask(X, sched.S)
        if len(mask) == 0:
            raise WindowTooSmallError("empty complement at this schedule")
        comps = X.components(mask, sched.i)
        cut = sched.R - sched.collar
        deep = [c for c in comps if any(rad[v] > cut for v in c)]
        counts.append(len(deep))
    return EndsReport(list(schedules), counts, _trend_value(counts))


def _trend_value(values: Sequence[int]) -> object:
    """The last value when the trend is bounded, else "growing" or "inconclusive"."""
    t = trend_verdict(values)
    return values[-1] if t == "bounded" else t


@dataclass
class DimEstimateReport:
    k: int
    schedules: list[WindowSchedule]
    ranks: list[int]
    verdict: object  # int | "growing" | "inconclusive"
    images: list[TwoScaleImage] = field(default_factory=list, repr=False)


def coarse_cohomology_dim_estimate(
    X: FiniteMetricSpace,
    k: int,
    schedules: Sequence[WindowSchedule],
    within: Optional[SubsetMask] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> DimEstimateReport:
    """dim H^k proxy via surviving H~_{k-1} of complement annuli.

    k = 0 is 0 by definition and rejected here; k >= 1 computes the
    two-scale image rank of reduced H_{k-1} per schedule.
    """
    if k < 1:
        raise ValueError("degree 0 coarse cohomology is 0 by definition; require k >= 1")
    ranks = []
    images = []
    for sched in schedules:
        img = schedule_two_scale(X, k - 1, sched, within=within, max_simplices=max_simplices)
        ranks.append(img.rank)
        images.append(img)
    return DimEstimateReport(k, list(schedules), ranks, _trend_value(ranks), images)


# -- uniform acyclicity ------------------------------------------------------------


@dataclass
class AcyclicityEntry:
    center: int
    k: int
    i: int
    r: int
    lam: Optional[int]  # smallest lambda found, or None on failure
    mu: Optional[int]
    failed: bool


@dataclass
class AcyclicityProfile:
    entries: list[AcyclicityEntry]
    lambda_max: int
    mu_max: int

    def failures(self) -> list[AcyclicityEntry]:
        return [e for e in self.entries if e.failed]

    def uniform_bounds(self) -> dict[tuple[int, int], dict]:
        """Per (k, i): the uniform lambda and per-r mu supported by the entries.

        The acyclicity functions are uniform over centers and radii, so the
        reportable lambda(i) is the max over entries and mu(i, r) the max
        over entries at each r; failures make the pair unreportable.
        """
        out: dict[tuple[int, int], dict] = {}
        for e in self.entries:
            key = (e.k, e.i)
            slot = out.setdefault(key, {"lambda": 0, "mu": {}, "failed": False})
            if e.failed:
                slot["failed"] = True
                continue
            slot["lambda"] = max(slot["lambda"], e.lam)
            slot["mu"][e.r] = max(slot["mu"].get(e.r, 0), e.mu)
        return out


def uniform_acyclicity_probe(
    X: FiniteMetricSpace,
    k_max: int,
    centers: Sequence[int],
    i_values: Sequence[int],
    r_values: Sequence[int],
    lambda_max: int,
    mu_max: int,
    max_simplices: int = MAX_SIMPLICES,
) -> AcyclicityProfile:
    """Smallest (lambda, mu) killing H~_k(P_i(N_r(x))) in P_lambda(N_mu(x)).

    The search runs lambda ascending then mu ascending; both zero-image
    regions are upward closed, so the first hit is lexicographically
    minimal. Entries with no hit inside the bounds are recorded as
    failures rather than extrapolated.
    """
    entries = []
    for x in sorted(centers):
        row = X.dist_row(x)
        for k in range(k_max + 1):
            for i in sorted(i_values):
                for r in sorted(r_values):
                    inner_mask = SubsetMask(X.n, (v for v in range(X.n) if 0 <= row[v] <= r))
                    inner = build_rips(X, inner_mask, i, k + 1, max_simplices=max_simplices)
                    found = None
                    for lam in range(max(i, 1), lambda_max + 1):
                        for mu in range(r, mu_max + 1):
                            outer_mask = SubsetMask(
                                X.n, (v for v in range(X.n) if 0 <= row[v] <= mu)
                            )
                            outer = build_rips(X, outer_mask, lam, k + 1, max_simplices=max_simplices)
                            if two_scale_image(inner, outer, k).rank == 0:
                                found = (lam, mu)
                                break
                        if found:
                            break
                    entries.append(
                        AcyclicityEntry(x, k, i, r, *(found or (None, None)), failed=found is None)
                    )
    return AcyclicityProfile(entries, lambda_max, mu_max)


# -- PD signature -------------------------------------------------------------------


@dataclass
class PDSignatureReport:
    n: int
    degree_verdicts: dict[int, object]
    passed: bool
    images: list[TwoScaleImage] = field(default_factory=list, repr=False)  # degree n, per schedule


def pd_signature_check(
    X: FiniteMetricSpace,
    n: int,
    schedules: Sequence[WindowSchedule],
    within: Optional[SubsetMask] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> PDSignatureReport:
    """Check the coarse cohomology proxy pattern (0, ..., 0, 1) in degrees 1..n."""
    verdicts: dict[int, object] = {}
    ok = True
    images: list[TwoScaleImage] = []
    for k in range(1, n + 1):
        rep = coarse_cohomology_dim_estimate(X, k, schedules, within=within, max_simplices=max_simplices)
        verdicts[k] = rep.verdict
        images = rep.images
        expected = 1 if k == n else 0
        if rep.verdict != expected:
            ok = False
    return PDSignatureReport(n, verdicts, ok, images)


__all__ = [
    "WindowSchedule",
    "default_schedules",
    "TwoScaleClass",
    "TwoScaleImage",
    "reduced_homology",
    "two_scale_image",
    "two_scale_image_along",
    "class_survives",
    "annulus_mask",
    "schedule_two_scale",
    "EndsReport",
    "ends_estimate",
    "DimEstimateReport",
    "coarse_cohomology_dim_estimate",
    "AcyclicityEntry",
    "AcyclicityProfile",
    "uniform_acyclicity_probe",
    "PDSignatureReport",
    "pd_signature_check",
]
