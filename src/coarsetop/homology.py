"""Finite-scale stand-ins for the coarse invariants.

Coarse cohomology dimensions are computed only through topology at
infinity: the rank of the inclusion-induced map on reduced homology of
complement annuli, between an inner (smaller region, finer scale) and an
outer (larger region, coarser scale) Rips complex. Classes of the inner
complex that are artifacts of the finite window die in the outer one;
whatever survives is the two-scale image, the computational stand-in for a
coarse cohomology class one degree up.

Every boundary span is :meth:`RipsComplex.boundary_space`, which streams
only the ∂ columns that :meth:`RipsComplex.uncone` keeps; the skipped ones
are sums of earlier columns, so every echelon form, rank and representative
is the one the whole boundary matrix gives.

Verdicts over a schedule family are three-valued: a value is "stable" when
the last three schedules agree, "growing" when they strictly increase, and
"inconclusive" otherwise. Degree-0 coarse cohomology is 0 by definition
and never computed.
"""

from __future__ import annotations

import itertools
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
class TwoScaleImage:
    inner: RipsComplex
    outer: RipsComplex
    inclusion: ChainMap
    k: int
    rank: int
    classes: list[int]  # inner k-cycles whose images form a basis of the image


def reduced_homology(K: RipsComplex, k: int) -> tuple[int, list[int]]:
    """dim of reduced H_k with representative cycles.

    Reduced homology augments the complex with the all-ones row, so k = 0
    counts components minus one like every other dimension.
    """
    if k + 1 > K.cap:
        raise ValueError("dimension cap too low: need k+1 simplices for boundaries")
    cycles = K.cycle_basis(k)
    rank, positions = gf2.quotient_image_rank(cycles, K.boundary_space(k))
    return rank, [cycles[t] for t in positions]


def two_scale_image(inner: RipsComplex, outer: RipsComplex, k: int) -> TwoScaleImage:
    """Rank and representatives of H~_k(inner) -> H~_k(outer) under inclusion."""
    f = inclusion_chain_map(inner, outer)
    return two_scale_image_along(f, k)


def two_scale_image_along(f: ChainMap, k: int) -> TwoScaleImage:
    inner, outer = f.source, f.target
    if k + 1 > inner.cap or k + 1 > outer.cap:
        raise ValueError("dimension caps too low for this k")
    cycles = inner.cycle_basis(k)
    images = [f.apply(k, z) for z in cycles]
    for img, z in zip(images, cycles):
        if outer.boundary_of_chain(k, img) != 0:
            raise NotAChainMapError("image of a cycle is not a cycle")
    rank, rep_positions = gf2.quotient_image_rank(images, outer.boundary_space(k))
    return TwoScaleImage(inner, outer, f, k, rank, [cycles[t] for t in rep_positions])


def class_survives(image: TwoScaleImage, z_inner: int) -> bool:
    """Direct membership test: is the image of this inner cycle a boundary outside."""
    img = image.inclusion.apply(image.k, z_inner)
    return not image.outer.boundary_space(image.k).contains(img)


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


def schedule_inclusions(
    X: FiniteMetricSpace,
    schedules: Sequence[WindowSchedule],
    cap: int,
    within: Optional[SubsetMask] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> list[ChainMap]:
    """Per schedule, the inclusion of its inner complement annulus into its outer one, both built to dimension cap.

    Every schedule's window checks run before any complex is built, so a
    window failure comes before any ``complex-too-large``.
    """
    annuli = []
    for sched in schedules:
        sched.validate()
        inner_mask = annulus_mask(X, sched.S, sched.R - sched.collar, within)
        outer_mask = annulus_mask(X, sched.S_out, None, within)
        if len(inner_mask) == 0 or len(outer_mask) == 0:
            raise WindowTooSmallError("empty annulus at this schedule")
        annuli.append((sched, inner_mask, outer_mask))
    return [
        inclusion_chain_map(
            build_rips(X, inner_mask, sched.i, cap, max_simplices=max_simplices),
            build_rips(X, outer_mask, sched.j, cap, max_simplices=max_simplices),
        )
        for sched, inner_mask, outer_mask in annuli
    ]


def schedule_two_scale(
    X: FiniteMetricSpace,
    k: int,
    sched: WindowSchedule,
    within: Optional[SubsetMask] = None,
    max_simplices: int = MAX_SIMPLICES,
) -> TwoScaleImage:
    """The two-scale image of H~_k between the schedule's complement annuli, built under the cap."""
    (f,) = schedule_inclusions(X, [sched], k + 1, within, max_simplices)
    return two_scale_image_along(f, k)


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
    return EndsReport(list(schedules), counts, trend_verdict(counts, counts[-1] if counts else None))


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
    return _dim_estimate(k, schedules, schedule_inclusions(X, schedules, k, within, max_simplices))


def _dim_estimate(k: int, schedules: Sequence[WindowSchedule], inclusions: Sequence[ChainMap]) -> DimEstimateReport:
    """The degree-k estimate read off the schedules' inclusions, built to dimension k or higher."""
    images = [two_scale_image_along(f, k - 1) for f in inclusions]
    ranks = [img.rank for img in images]
    return DimEstimateReport(k, list(schedules), ranks, trend_verdict(ranks, ranks[-1] if ranks else None), images)


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
    failures rather than extrapolated, one per listed (x, k, i, r).

    One walk per (x, k, i) serves every r: each P_lambda(N_mu(x)) is built
    once, from mu = the smallest r without a hit, and tested against every
    such r <= mu.
    """
    found: dict[tuple[int, int, int, int], tuple[int, int]] = {}  # (x, k, i, r): the first hit
    for x in sorted(set(centers)):
        row = X.dist_row(x)
        for k, i in itertools.product(range(k_max + 1), sorted(set(i_values))):
            inner = {r: _ball_complex(X, row, r, i, k + 1, max_simplices) for r in sorted(set(r_values))}
            pending = list(inner)
            for lam in range(max(i, 1), lambda_max + 1):
                mu = -1
                while pending and (mu := max(mu + 1, pending[0])) <= mu_max:
                    same = lam == i and mu in inner  # P_i(N_mu(x)) is the inner complex at r = mu
                    outer = inner[mu] if same else _ball_complex(X, row, mu, lam, k + 1, max_simplices)
                    for r in pending:
                        if r <= mu and two_scale_image(inner[r], outer, k).rank == 0:
                            found[x, k, i, r] = (lam, mu)
                    pending = [r for r in pending if (x, k, i, r) not in found]
    keys = itertools.product(sorted(centers), range(k_max + 1), sorted(i_values), sorted(r_values))
    return AcyclicityProfile([AcyclicityEntry(*key, *found.get(key, (None, None)), key not in found) for key in keys])


def _ball_complex(
    X: FiniteMetricSpace, row: Sequence[int], radius: int, scale: int, cap: int, max_simplices: int
) -> RipsComplex:
    """P_scale(N_radius(x)) built to dimension cap, where ``row`` is x's distance row."""
    mask = SubsetMask(X.n, (v for v in range(X.n) if 0 <= row[v] <= radius))
    return build_rips(X, mask, scale, cap, max_simplices=max_simplices)


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
    """Check the coarse cohomology proxy pattern (0, ..., 0, 1) in degrees 1..n.

    Each schedule's inner and outer complexes are built once, to dimension
    n, and every degree reads its image off them.
    """
    inclusions = schedule_inclusions(X, schedules, n, within, max_simplices)
    reports = [_dim_estimate(k, schedules, inclusions) for k in range(1, n + 1)]
    verdicts = {rep.k: rep.verdict for rep in reports}
    passed = all(verdict == (1 if k == n else 0) for k, verdict in verdicts.items())
    return PDSignatureReport(n, verdicts, passed, reports[-1].images if reports else [])


__all__ = [
    "WindowSchedule",
    "default_schedules",
    "TwoScaleImage",
    "reduced_homology",
    "two_scale_image",
    "two_scale_image_along",
    "class_survives",
    "annulus_mask",
    "schedule_inclusions",
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
