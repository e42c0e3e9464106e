"""Mobility sets at finite scale.

A class is carried around the window by solving, per center g, for a
representative cocycle supported inside N_D(g): witness = alpha0 + delta
beta with beta ranging over collar-relative cochains. The mobility set is
the union of witness supports over feasible centers; center-feasibility
relaxes the diameter-D definition by at most a factor of two, which the
Hausdorff comparisons absorb.

A center is decided on its ball, by one masked solve on the tracked
echelon of im delta that the complex factors once per degree (see
``RelativeComplex.representative_within``): only the pivots on the ball's
simplices are re-reduced, and the witness, or None, is the one a fresh
solve over the masked coboundary columns would give. The detector hands
its last mobility set to the stab comparison, so no center is solved twice
at one D.

Stabilizers are computed as traces: g enters when the transported cocycle
alpha0 . g^{-1} is defined in-window and cohomologous to alpha0 via a
relative coboundary. No claim about the infinite stabilizer is emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf2
from .cochains import RelativeComplex
from .errors import CoarseTopError, CollarViolationError
from .groups import BallModel
from .metric import SubsetMask, hausdorff_distance


@dataclass
class Cocycle:
    """A GF(2) cochain with collar-relative cocycle condition and support."""

    complex: RelativeComplex
    k: int
    vec: int
    support: SubsetMask = field(init=False)

    def __post_init__(self):
        self.support = self.complex.support_vertices(self.k, self.vec)

    def validate(self) -> None:
        if not self.complex.is_cocycle(self.k, self.vec):
            raise CoarseTopError("not-a-cocycle", "coboundary is nonzero on a relative simplex")
        if self.support != self.complex.support_vertices(self.k, self.vec):
            raise CoarseTopError("bad-support", "stored support mask is stale")

    def is_zero_class(self) -> bool:
        return self.complex.is_coboundary(self.k, self.vec)

    def export_simplex_values(self) -> list[tuple[int, ...]]:
        """Supporting simplices as sorted vertex tuples (value 1 over GF(2))."""
        R = self.complex
        return [
            R.K.simplices[self.k][R.rel[self.k][t]] for t in gf2.bits(self.vec)
        ]


def local_representability(
    R: RelativeComplex,
    alpha0: Cocycle,
    g: int,
    D: int,
    collar: int = 2,
) -> Optional[Cocycle]:
    """A witness cocycle representing [alpha0] with support in N_D(g), or None.

    The witness support lies in a ball of radius D, hence has diameter at
    most 2D. Centers whose ball leaks into the collar are rejected. The ball
    is read off the space's cached scale-D adjacency and tested against the
    collar point by point, so a center costs on the order of its ball.
    """
    X = R.K.space
    ball_ids = R.K.vertex_mask.ids & {g, *X.adjacency_at_scale(D)[g]}
    if X.radial is not None and X.window_radius is not None and any(
        X.radial[v] > X.window_radius - collar for v in ball_ids
    ):
        raise CollarViolationError(f"N_{D}({g}) touches the collar")
    witness_vec = R.representative_within(alpha0.k, alpha0.vec, SubsetMask(X.n, ball_ids))
    if witness_vec is None:
        return None
    return Cocycle(R, alpha0.k, witness_vec)


@dataclass
class MobilityResult:
    """The mobility set at D; :func:`stab_mob_comparison` fills in the stab fields in place."""

    D: int
    feasible_centers: SubsetMask
    mob_mask: SubsetMask
    witnesses: dict[int, Cocycle] = field(repr=False, default_factory=dict)
    stab_orbit: Optional[SubsetMask] = field(init=False, default=None)
    stab_mob_hausdorff: Optional[float] = field(init=False, default=None)


def mobility_set(
    R: RelativeComplex,
    alpha0: Cocycle,
    D: int,
    collar: int = 2,
) -> MobilityResult:
    """Union of witness supports over the collar-safe feasible centers: the Mob approximation."""
    X = R.K.space
    feasible = []
    witnesses: dict[int, Cocycle] = {}
    mob: set[int] = set()
    for g in _collar_safe_centers(R, D, collar):
        w = local_representability(R, alpha0, g, D, collar=collar)
        if w is not None:
            feasible.append(g)
            witnesses[g] = w
            mob.update(w.support.ids)
    return MobilityResult(D, SubsetMask(X.n, feasible), SubsetMask(X.n, mob), witnesses)


def _collar_safe_centers(R: RelativeComplex, D: int, collar: int) -> list[int]:
    X = R.K.space
    if X.radial is None or X.window_radius is None:
        return sorted(R.K.vertex_mask.ids)
    cut = X.window_radius - collar - D
    return [v for v in R.K.vertex_mask.sorted_ids() if X.radial[v] <= cut]


# -- class transport under the partial action -----------------------------------------


def transport_cocycle(
    ball: BallModel, R: RelativeComplex, alpha: Cocycle, g
) -> Optional[Cocycle]:
    """alpha . g^{-1}, with support g . supp(alpha); None when it escapes the window.

    Defined only when every support simplex translates inside the window
    and the result still satisfies the relative cocycle condition. Only
    the support vertices are translated, each once.
    """
    images = {v: ball.act_left(g, v) for v in alpha.support.ids}
    out = 0
    for t in gf2.bits(alpha.vec):
        imgs = [images[v] for v in R.K.simplices[alpha.k][R.rel[alpha.k][t]]]
        if None in imgs:
            return None
        tgt = tuple(sorted(imgs))
        j = R.K.index[alpha.k].get(tgt)
        if j is None:
            return None
        tpos = R.rel_pos[alpha.k].get(j)
        if tpos is None:
            return None
        out |= 1 << tpos
    if not R.is_cocycle(alpha.k, out):
        return None
    return Cocycle(R, alpha.k, out)


def stab_trace(ball: BallModel, R: RelativeComplex, alpha0: Cocycle) -> tuple[SubsetMask, list[int]]:
    """{ g : alpha0 . g^{-1} defined and cohomologous to alpha0 }, plus undetermined ids."""
    X = ball.space
    members = []
    undetermined = []
    for gid in range(len(ball.elements)):
        g = ball.elements[gid]
        moved = transport_cocycle(ball, R, alpha0, g)
        if moved is None:
            undetermined.append(gid)
            continue
        if R.is_coboundary(alpha0.k, moved.vec ^ alpha0.vec):
            members.append(gid)
    return SubsetMask(X.n, members), undetermined


def stab_mob_comparison(
    ball: BallModel, R: RelativeComplex, alpha0: Cocycle, res: MobilityResult
) -> MobilityResult:
    """Hausdorff comparison of the stab-trace orbit of supp(alpha0) with Mob.

    ``res`` is the mobility set of alpha0 at one D (the detector's last),
    completed in place with the orbit and the distance.
    """
    trace, _ = stab_trace(ball, R, alpha0)
    orbit: set[int] = set()
    for gid in trace.ids:
        g = ball.elements[gid]
        moved = [ball.act_left(g, v) for v in alpha0.support.ids]
        if None not in moved:
            orbit.update(moved)
    res.stab_orbit = SubsetMask(ball.space.n, orbit)
    if orbit and len(res.mob_mask):
        res.stab_mob_hausdorff = hausdorff_distance(ball.space, res.stab_orbit, res.mob_mask)
    else:
        res.stab_mob_hausdorff = math.inf
    return res


def mobset_replay(ball: BallModel, result: MobilityResult) -> dict:
    """Replay the two inclusions behind the stab/mob comparison at this window.

    R* is the largest spread of any found witness beyond the stab-trace
    orbit; the orbit-side inclusion is checked directly. The comparison
    Hausdorff distance is bounded by R* whenever both inclusions hold.
    """
    X = ball.space
    orbit = result.stab_orbit
    if orbit is None or len(orbit) == 0:
        return {"valid": False, "reason": "empty stab orbit"}
    d_orbit = X.dist_to_set(orbit.ids)
    r_star = 0.0
    for g, w in result.witnesses.items():
        for x in w.support.ids:
            r_star = max(r_star, d_orbit[x])
    orbit_in_mob = orbit.issubset(result.mob_mask)
    bound_holds = (
        result.stab_mob_hausdorff is not None and result.stab_mob_hausdorff <= r_star
        if orbit_in_mob
        else None
    )
    return {
        "valid": True,
        "R_star": r_star,
        "orbit_inside_mob": orbit_in_mob,
        "hausdorff": result.stab_mob_hausdorff,
        "bound_holds": bound_holds,
    }


@dataclass
class ManifoldDetectorReport:
    n: int
    covered: list[bool]
    verdict: str  # "true" | "false" | "inconclusive"
    result: Optional[MobilityResult] = field(default=None, repr=False)  # Mob at the last D


def coarse_manifold_detector(
    R: RelativeComplex,
    n: int,
    alpha0: Cocycle,
    D_schedule: Sequence[int],
    collar: int = 2,
) -> ManifoldDetectorReport:
    """True at D when the window off the collar lies in N_D(Mob([alpha0], D)).

    Requires a nonzero degree-n proxy class to probe; the verdict trend is
    reported across the D schedule, which must be nonempty.
    """
    if alpha0.k != n:
        raise ValueError("class degree must equal n")
    if alpha0.is_zero_class():
        raise CoarseTopError("zero-class", "detector needs a nonzero proxy class")
    X = R.K.space
    interior = X.interior_mask(collar) & R.K.vertex_mask
    covered = []
    for D in D_schedule:
        res = mobility_set(R, alpha0, D, collar=collar)
        # a feasible center lies within D of its witness support, so the
        # union below sits inside N_D of the true mobility set; testing
        # against it keeps the verdict monotone in D at the window edge
        probe = res.mob_mask | res.feasible_centers
        if len(probe) == 0:
            covered.append(False)
            continue
        d = X.dist_to_set(probe.ids, D)
        covered.append(all(d[v] <= D for v in interior.ids))
    verdict = "true" if covered[-1] else "inconclusive" if any(covered) else "false"
    return ManifoldDetectorReport(n, covered, verdict, res)


__all__ = [
    "Cocycle",
    "local_representability",
    "MobilityResult",
    "mobility_set",
    "transport_cocycle",
    "stab_trace",
    "stab_mob_comparison",
    "mobset_replay",
    "ManifoldDetectorReport",
    "coarse_manifold_detector",
]
