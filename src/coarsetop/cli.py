"""Scenario-driven command line front end.

Scenarios are JSON (schema 1): a space (group family + radius, or fixture
name + window), a W, and a list of analyses with parameter blocks. Each
analysis writes one entry in the machine-readable report; a human-readable
text report is rendered from the same data. Identical scenario files
produce byte-identical reports: all iteration orders are fixed by id sort
and the seed only affects sampling order, never verdicts.

Exit codes: 0 all verdicts reached, 2 some analysis inconclusive,
1 an error (parse failure, or an analysis aborted by caps).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import fixtures as fixtures_mod
from .cochains import RelativeComplex
from .errors import CoarseTopError
from .essential import (
    EssentialVerdict,
    almost_essential_probe,
    connecting_entry,
    essential_probe,
    localized_boundary_support,
    mv_assemble,
    pd_precondition,
)
from .fixtures import crossing_cochain, grid_fixture
from .groups import (
    FreeAbelian,
    FreeGroup,
    Lamplighter,
    amalgam_z2_z_z2,
    build_ball,
    restrict_ball,
    subgroup_trace,
)
from .homology import (
    WindowSchedule,
    default_schedules,
    ends_estimate,
    pd_signature_check,
    uniform_acyclicity_probe,
)
from .metric import SubsetMask
from .mobility import Cocycle, coarse_manifold_detector, stab_mob_comparison
from .rips import build_rips
from .separation import (
    complement_components,
    coarse_n_separation,
    almost_invariant_extract,
    invariant_components,
)

SCHEMA_VERSION = 1


def raise_on_bad(cond: bool, message: str) -> None:
    if not cond:
        raise CoarseTopError("scenario-invalid", message)


class ScenarioContext:
    """Space, W and component masks resolved once per scenario."""

    def __init__(self, scenario: dict, seed: int = 0):
        caps = scenario.get("caps", {})
        self.max_vertices = int(caps.get("max_vertices", 200_000))
        self.max_simplices = int(caps.get("max_simplices", 5_000_000))
        self.seed = seed
        self.w_spec = scenario.get("w")
        spec = scenario["space"]
        self.ball = None
        self.fixture = None
        if spec["kind"] == "group":
            model = parse_family(spec["family"])
            self.ball = build_ball(model, spec["radius"], max_vertices=self.max_vertices)
            self.space = self.ball.space
        else:
            self.fixture = grid_fixture(spec["name"], spec["radius"])
            self.space = self.fixture.space
        self.w = self._resolve_w(scenario.get("w"))
        self._deep: dict[tuple[int, int, int], list] = {}  # (r, A, collar) -> deep components

    def _resolve_w(self, wspec):
        if wspec is None:
            return self.fixture.w if self.fixture else None
        kind = wspec["kind"]
        if kind == "fixture-w":
            raise_on_bad(self.fixture is not None, "fixture-w requires a fixture space")
            return self.fixture.w
        if kind == "subgroup":
            raise_on_bad(self.ball is not None, "subgroup W requires a group space")
            return subgroup_trace(self.ball, wspec["spec"])
        return SubsetMask(self.space.n, [self.space.basepoint or 0])  # "point"

    def component(self, name, r: int = 1, A: int = 0, collar: int = 2) -> SubsetMask:
        raise_on_bad(
            r >= 1 and A >= 0 and collar >= 0,
            f"component lookup needs r >= 1, A >= 0, collar >= 0; got r={r}, A={A}, collar={collar}",
        )
        if self.fixture and isinstance(name, str) and name in self.fixture.components:
            return self.fixture.components[name]
        raise_on_bad(str(name).isdecimal(), f"unknown component {name!r}")
        key = (r, A, collar)
        if key not in self._deep:
            self._deep[key] = complement_components(self.space, self.w, r, A, collar=collar).deep_components()
        deep = self._deep[key]
        idx = int(name)
        raise_on_bad(0 <= idx < len(deep), f"component index {idx} out of range ({len(deep)} deep)")
        return deep[idx].mask

    def schedules(self, block) -> list[WindowSchedule]:
        R = self.space.window_radius
        if block is None or block == "auto":
            return default_schedules(R)
        if isinstance(block, dict) and "auto" in block:
            auto = block["auto"]
            return default_schedules(
                R,
                collar=int(auto.get("collar", 2)),
                scales=tuple(auto.get("scales", (1, 1))),
                count=int(auto.get("count", 3)),
            )
        out = []
        for row in block:
            S, i, S_out, j, collar = (int(v) for v in row)
            out.append(WindowSchedule(S=S, i=i, S_out=S_out, j=j, R=R, collar=collar))
        return out


def parse_family(name: str):
    name = name.strip()
    if name == "Z":
        return FreeAbelian(1)
    if name == "lamplighter":
        return Lamplighter()
    if name in ("amalgam", "amalgam_z2_z_z2"):
        return amalgam_z2_z_z2()
    for prefix, model in (("Z^", FreeAbelian), ("F_", FreeGroup), ("free:", FreeGroup)):
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            return model(int(name[len(prefix):]))
    raise CoarseTopError("scenario-invalid", f"unknown group family {name!r}")


def crossing(ctx: ScenarioContext, axis: int):
    """The crossing class of a coordinate axis, for spaces labelled by integer coordinates."""
    label = ctx.space.labels[0]
    dim = len(label) if all(type(c) is int for c in label) else 0
    raise_on_bad(axis < dim, f"axis {axis} needs integer coordinates of dimension > {axis}; this space has {dim}")
    return crossing_cochain(ctx.space, axis, 0)


# -- analysis runners -------------------------------------------------------------


def run_ends(ctx: ScenarioContext, params: dict) -> dict:
    scheds = ctx.schedules(params.get("schedules"))
    rep = ends_estimate(ctx.space, scheds)
    status = "inconclusive" if rep.verdict == "inconclusive" else "ok"
    return {
        "status": status,
        "counts": rep.deep_counts,
        "verdict": str(rep.verdict),
        "schedules": [vars(s) for s in scheds],
    }


def run_separate(ctx: ScenarioContext, params: dict) -> dict:
    r = int(params.get("r", 1))
    A = int(params.get("A", 0))
    collar = int(params.get("collar", 2))
    raise_on_bad(r >= 1, f"separate needs r >= 1, got {r}")
    windows = params.get("windows")
    gens_words = params.get("invariance_generators")
    rows = []  # (ball-or-None, w, component set) per window, masks aligned
    if windows and ctx.ball is not None:
        raise_on_bad(
            ctx.w_spec is not None and ctx.w_spec.get("kind") == "subgroup",
            "windowed separation needs a subgroup w to rebuild per radius",
        )
        for R in windows:
            if R == ctx.ball.radius:
                ball = ctx.ball
            elif R < ctx.ball.radius and ctx.ball.model.convex_balls:  # a prefix of the scenario's ball
                ball = restrict_ball(ctx.ball, R)
            else:
                ball = build_ball(ctx.ball.model, R, max_vertices=ctx.max_vertices)
            w = ctx.w if ball is ctx.ball else subgroup_trace(ball, ctx.w_spec["spec"])
            rows.append((ball, w, complement_components(ball.space, w, r, A, collar=collar)))
    else:
        rows.append((ctx.ball, ctx.w, complement_components(ctx.space, ctx.w, r, A, collar=collar)))
    inv_counts = None
    if gens_words and all(ball is not None for ball, _, _ in rows):
        inv_counts = []
        for ball, w, cs in rows:
            gens = [ball.model.parse_word(word) for word in gens_words]
            _, e = invariant_components(ball, w, gens, cs)
            inv_counts.append(e)
    sets = [cs for _, _, cs in rows]
    rep = coarse_n_separation(sets, inv_counts)
    last = sets[-1]
    return {
        "status": "ok" if rep.verdict != "inconclusive" or len(sets) == 1 else "inconclusive",
        "windows": [vars(w) for w in rep.windows],
        "trend": rep.verdict,
        "deep_count": len(last.deep_components()),
        "shallow_count": len(last.shallow_components()),
        "params": {"r": r, "A": A, "collar": collar},
    }


def run_essential(ctx: ScenarioContext, params: dict) -> dict:
    n = int(params["n"])
    scheds = ctx.schedules(params.get("schedules"))
    index = params.get("probe_index")
    raise_on_bad(index is None or index < len(scheds), f"probe_index {index} with {len(scheds)} schedules")
    probe = scheds[-1 if index is None else index]
    names = params.get("components")
    if names is None:
        names = sorted(ctx.fixture.components) if ctx.fixture else ["0", "1"]
    out = {}
    worst = "ok"
    pd_reason, w_images = pd_precondition(ctx.space, ctx.w, n, scheds, ctx.max_simplices)  # one W for all
    for name in names:
        C = ctx.component(name)
        if pd_reason:
            v = EssentialVerdict(str(name), "inconclusive", None, reason=pd_reason)
        else:
            v = essential_probe(
                ctx.space, ctx.w, C, n, scheds, component_name=str(name),
                skip_pd_check=True, probe_schedule=probe, w_image=w_images.get(probe),
                max_simplices=ctx.max_simplices,
            )
        out[str(name)] = {
            "verdict": v.verdict,
            "reason": v.reason,
            "classes": [
                {
                    "survives": w["survives_in_target"],
                    "locality": w["fill_locality"],
                    "fill_size": int(w.get("fill") or 0).bit_count(),
                }
                for w in v.witnesses
            ],
        }
        if v.verdict == "inconclusive":
            worst = "inconclusive"
    return {
        "status": worst,
        "components": out,
        "schedules": [vars(s) for s in scheds],
    }


def run_almost_essential(ctx: ScenarioContext, params: dict) -> dict:
    A = int(params.get("A", 0))
    B_grid = list(range(0, int(params.get("B_max", 8)) + 1))
    names = params.get("components")
    if names is None:
        names = sorted(ctx.fixture.components) if ctx.fixture else ["0", "1"]
    out = {}
    for name in names:
        C = ctx.component(name, A=A)
        rep = almost_essential_probe(ctx.space, ctx.w, C, A, B_grid)
        out[str(name)] = {"verdict": rep.verdict, "window_radius": rep.window_radius}
    return {"status": "ok", "components": out, "A": A, "B_grid": B_grid}


def run_mv(ctx: ScenarioContext, params: dict) -> dict:
    r = int(params.get("r", 2))
    A = int(params.get("A", 1))
    cap = int(params.get("cap", 3))
    collar = int(params.get("collar", 2))
    axis = int(params.get("axis", 0))
    comp_name = params.get("component", "upper" if ctx.fixture else "0")
    cross = crossing(ctx, axis)
    C1 = ctx.component(comp_name, r=r, A=A, collar=collar)
    rep = mv_assemble(
        ctx.space, ctx.w, C1, r=r, A=A, cap=cap, collar=collar, max_simplices=ctx.max_simplices
    )
    RW = rep.pieces.W
    sigma = RW.cochain_from_edge_predicate(cross)
    c = connecting_entry(rep.pieces, 1, sigma)
    supp_in = RW.support_vertices(1, sigma)
    loc = localized_boundary_support(rep.pieces, 1, c["output"], supp_in)
    return {
        "status": "ok",
        "dichotomy": rep.dichotomy,
        "ses_ok": {str(k): v for k, v in rep.ses_ok.items()},
        "exactness": rep.exactness,
        "delta_nonzero": c["nonzero_in_proxy"],
        "localized_support_radius": loc["achieved_radius"],
        "localized_bound": loc["bound"],
        "params": {"r": r, "A": A, "cap": cap, "collar": collar},
    }


def run_mobility(ctx: ScenarioContext, params: dict) -> dict:
    kind = params.get("class", "crossing")
    collar = int(params.get("collar", 2))
    D_schedule = [int(d) for d in params.get("D_schedule", [1, 2])]
    if kind == "crossing":
        n, scale, cap, axes = 1, int(params.get("scale", 1)), 2, [crossing(ctx, 0)]
    elif kind == "fundamental":
        n, scale, cap, axes = 2, int(params.get("scale", 2)), 3, [crossing(ctx, 0), crossing(ctx, 1)]
    elif kind == "edge-cut":
        n, scale, cap = 1, int(params.get("scale", 1)), 2
    else:
        raise CoarseTopError("scenario-invalid", f"unknown mobility class {kind!r}")
    K = build_rips(ctx.space, ctx.space.full_mask(), scale, cap, max_simplices=ctx.max_simplices)
    R = RelativeComplex(K, ctx.space.interior_mask(collar))
    if kind == "crossing":
        vec = R.cochain_from_edge_predicate(*axes)
    elif kind == "fundamental":
        vec = R.cochain_from_cup_product(*axes)
    else:
        raise_on_bad(ctx.ball is not None, "edge-cut class requires a group ball")
        gens = ctx.ball.model.generators()
        e_id = ctx.ball.index[ctx.ball.model.identity()]
        a_id = ctx.ball.index[gens[0][1]]
        edge = tuple(sorted((e_id, a_id)))
        vec = 1 << R.rel_pos[1][K.index[1][edge]]
    alpha0 = Cocycle(R, n, vec)
    alpha0.validate()
    det = coarse_manifold_detector(R, n, alpha0, D_schedule, collar=collar)
    out = {
        "status": "ok" if det.verdict != "inconclusive" else "inconclusive",
        "class": kind,
        "nonzero": not alpha0.is_zero_class(),
        "detector": {"covered": det.covered, "verdict": det.verdict, "D_schedule": D_schedule},
    }
    if ctx.ball is not None and params.get("stab_comparison", True):
        res = stab_mob_comparison(ctx.ball, R, alpha0, D_schedule[-1], collar=collar, res=det.result)
        out["stab_mob_hausdorff"] = (
            None if res.stab_mob_hausdorff is None or math.isinf(res.stab_mob_hausdorff)
            else res.stab_mob_hausdorff
        )
        out["mob_size"] = len(res.mob_mask)
        out["stab_orbit_size"] = len(res.stab_orbit) if res.stab_orbit else 0
    if params.get("export_class", False):
        out["class_simplices"] = [list(s) for s in alpha0.export_simplex_values()]
    return out


def run_acyclicity(ctx: ScenarioContext, params: dict) -> dict:
    k_max = int(params.get("k_max", 1))
    i_values = [int(v) for v in params.get("i_values", [1])]
    r_values = [int(v) for v in params.get("r_values", [1, 2, 3])]
    lambda_max = int(params.get("lambda_max", 3))
    mu_max = int(params.get("mu_max", max(r_values) + 3))
    centers_spec = params.get("centers", "basepoint")
    if centers_spec == "basepoint":
        centers = [ctx.space.basepoint or 0]
    elif isinstance(centers_spec, dict) and "sample" in centers_spec:
        safe = [
            v
            for v in range(ctx.space.n)
            if ctx.space.radial is not None
            and ctx.space.radial[v] + mu_max <= (ctx.space.window_radius or 0)
        ]
        count = min(int(centers_spec["sample"]), len(safe))
        centers = sorted(random.Random(ctx.seed).sample(safe, count)) if safe else [ctx.space.basepoint or 0]
    else:
        centers = centers_spec
        raise_on_bad(max(centers, default=0) < ctx.space.n, f"centers {centers} outside the {ctx.space.n} points")
    prof = uniform_acyclicity_probe(
        ctx.space, k_max, centers, i_values, r_values, lambda_max, mu_max, ctx.max_simplices
    )
    entries = [
        {
            "center": e.center,
            "k": e.k,
            "i": e.i,
            "r": e.r,
            "lambda": e.lam,
            "mu": e.mu,
            "failed": e.failed,
        }
        for e in prof.entries
    ]
    return {
        "status": "ok" if not prof.failures() else "inconclusive",
        "entries": entries,
        "failures": len(prof.failures()),
    }


def run_pd_signature(ctx: ScenarioContext, params: dict) -> dict:
    n = int(params["n"])
    scheds = ctx.schedules(params.get("schedules"))
    rep = pd_signature_check(ctx.space, n, scheds, within=ctx.w, max_simplices=ctx.max_simplices)
    return {
        "status": "ok",
        "passed": rep.passed,
        "degree_verdicts": {str(k): str(v) for k, v in rep.degree_verdicts.items()},
    }


def run_almost_invariant(ctx: ScenarioContext, params: dict) -> dict:
    raise_on_bad(ctx.ball is not None, "almost-invariant extraction requires a group ball")
    A = int(params.get("A", 0))
    comp_name = params.get("component", "0")
    C = ctx.component(comp_name, A=A)
    xhat, report = almost_invariant_extract(ctx.ball, ctx.w, C, A)
    return {
        "status": "ok" if report["verdict"] == "ok" else "inconclusive",
        "verdict": report["verdict"],
        "checks": {k: v for k, v in report.items() if k != "verdict"},
        "xhat_size": len(xhat),
    }


class Analysis(NamedTuple):
    """One CLI analysis: its runner, its ``describe`` line, required parameters, whether it needs a W."""

    run: Callable[[ScenarioContext, dict], dict]
    describe: str
    required: tuple[str, ...] = ()
    needs_w: bool = False


ANALYSES = {
    "ends": Analysis(run_ends, "ends_estimate over a schedule family; params: schedules | auto {scales, count}"),
    "separate": Analysis(
        run_separate,
        "deep complementary components of W; params: r, A, collar, windows (radii list for trend), "
        "invariance_generators",
        needs_w=True,
    ),
    "essential": Analysis(
        run_essential, "essential probe of components; params: n, components, schedules, probe_index", ("n",), True
    ),
    "almost-essential": Analysis(
        run_almost_essential,
        "smallest B with W inside N_B(C minus N_A(W)); params: A, B_max, components",
        needs_w=True,
    ),
    "mv": Analysis(
        run_mv,
        "Mayer-Vietoris assembly + connecting map of the W point class; params: r, A, cap, collar, component, axis",
        needs_w=True,
    ),
    "mobility": Analysis(
        run_mobility,
        "mobility set, stab comparison, manifold detector; params: class, D_schedule, scale, collar, "
        "stab_comparison, export_class",
    ),
    "acyclicity": Analysis(
        run_acyclicity, "uniform acyclicity probe; params: k_max, i_values, r_values, lambda_max, mu_max, centers"
    ),
    "pd-signature": Analysis(run_pd_signature, "coarse PD signature check of W; params: n, schedules", ("n",), True),
    "almost-invariant": Analysis(
        run_almost_invariant, "H-almost invariant set extraction; params: A, component", needs_w=True
    ),
}

SPACE_NAME_KEYS = {"group": "family", "fixture": "name"}
W_KINDS = ("fixture-w", "subgroup", "point")
# integer parameters, in any analysis block, and the least value of each; r, A
# and collar are checked where they are used and fail only their own analysis
INT_PARAMS = {
    "n": 1, "probe_index": 0, "B_max": 0, "cap": 2, "axis": 0, "scale": 0, "k_max": 0,
    "lambda_max": 0, "mu_max": 0, "r": None, "A": None, "collar": None,
}
# integer-list parameters and the least entry of each; a runner reads an entry of the nonempty ones
INT_LIST_PARAMS = {"windows": 1, "D_schedule": 0, "i_values": 0, "r_values": 0}
NONEMPTY_LISTS = ("D_schedule", "i_values", "r_values")


def _is_int(value, minimum=None) -> bool:
    return type(value) is int and (minimum is None or value >= minimum)


def _is_int_list(value, minimum=None) -> bool:
    return isinstance(value, list) and all(_is_int(v, minimum) for v in value)


def validate_analyses(scenario: dict) -> None:
    """The scenario and every analysis block validate before any computation.

    The scenario's shape, its space and w blocks and a positive radius are
    checked first. Block failures are anchored to the offending block index.
    What needs the built space (component names, acyclicity centres, axes)
    and cap violations are runtime events and abort only their own analysis.
    """
    raise_on_bad(isinstance(scenario, dict), "a scenario must be a JSON object")
    raise_on_bad(scenario.get("schema") == SCHEMA_VERSION, "unsupported schema version")
    space = scenario.get("space")
    raise_on_bad(isinstance(space, dict), "a scenario needs a 'space' object")
    kind = space.get("kind")
    raise_on_bad(kind in SPACE_NAME_KEYS, f"space kind must be 'group' or 'fixture', got {kind!r}")
    key = SPACE_NAME_KEYS[kind]
    raise_on_bad(isinstance(space.get(key), str), f"a {kind} space needs a string {key!r}")
    radius = space.get("radius")
    raise_on_bad(_is_int(radius, 1), f"space radius must be an integer >= 1, got {radius!r}")
    caps = scenario.get("caps", {})
    raise_on_bad(
        isinstance(caps, dict) and all(type(v) is int for v in caps.values()),
        f"caps must map names to integers, got {caps!r}",
    )
    w = scenario.get("w")
    raise_on_bad(
        w is None
        or isinstance(w, dict) and w.get("kind") in W_KINDS and (w["kind"] != "subgroup" or "spec" in w),
        f"'w' must be an object with a kind in {W_KINDS} (and a 'spec' for a subgroup), got {w!r}",
    )
    raise_on_bad(isinstance(scenario.get("analyses", []), list), "'analyses' must be a list")
    for t, block in enumerate(scenario.get("analyses", [])):
        where = f"analyses[{t}]"
        raise_on_bad(isinstance(block, dict), f"{where}: analysis block must be an object")
        name = block.get("analysis")
        raise_on_bad(name in ANALYSES, f"{where}: unknown analysis {name!r}")
        for param in ANALYSES[name].required:
            raise_on_bad(param in block, f"{where}: {name} requires parameter {param!r}")
        for param, least in INT_PARAMS.items():
            raise_on_bad(
                param not in block or _is_int(block[param], least),
                f"{where}: {param!r} must be an integer{'' if least is None else f' >= {least}'}, "
                f"got {block.get(param)!r}",
            )
        for param, least in INT_LIST_PARAMS.items():
            value = block.get(param)
            raise_on_bad(
                param not in block or _is_int_list(value, least) and (value or param not in NONEMPTY_LISTS),
                f"{where}: {param!r} must be a {'nonempty ' * (param in NONEMPTY_LISTS)}list of integers "
                f">= {least}, got {value!r}",
            )
        names = block.get("components", [])
        raise_on_bad(
            isinstance(names, list) and all(isinstance(c, (str, int)) for c in names + [block.get("component", "")]),
            f"{where}: 'components' is a list of names and 'component' a name (strings or integers)",
        )
        gens = block.get("invariance_generators", [])
        raise_on_bad(
            isinstance(gens, list) and all(isinstance(g, str) for g in gens),
            f"{where}: 'invariance_generators' must be a list of words",
        )
        centers = block.get("centers", "basepoint")
        raise_on_bad(
            centers == "basepoint" or _is_int_list(centers, 0) and centers
            or isinstance(centers, dict) and _is_int(centers.get("sample"), 0),
            f"{where}: 'centers' is \"basepoint\", {{\"sample\": count}} or a nonempty list of point ids, "
            f"got {centers!r}",
        )
        sched = block.get("schedules")
        if isinstance(sched, list):
            raise_on_bad(sched, f"{where}: 'schedules' needs at least one row")
            for row in sched:
                raise_on_bad(
                    _is_int_list(row) and len(row) == 5 and row[1] >= 1 and row[4] >= 0,
                    f"{where}: schedule rows are [S, i, S_out, j, collar] integer lists with i >= 1, collar >= 0",
                )
        elif isinstance(sched, dict):
            auto = sched.get("auto")
            ok = isinstance(auto, dict) and _is_int(auto.get("collar", 0), 0) and _is_int(auto.get("count", 0))
            scales = auto.get("scales", [1, 1]) if ok else None
            raise_on_bad(
                ok and _is_int_list(scales, 0) and len(scales) == 2,
                f"{where}: auto schedules take an integer 'collar' >= 0, an integer 'count' "
                "and two integer 'scales' >= 0",
            )
        else:
            raise_on_bad(
                sched in (None, "auto"), f"{where}: 'schedules' is a list of rows, \"auto\" or {{\"auto\": {{...}}}}"
            )
        if ANALYSES[name].needs_w and w is None:
            raise_on_bad(kind == "fixture", f"{where}: {name} needs a W; give a 'w' block or use a fixture space")


def run_scenario(scenario: dict, seed: int = 0) -> tuple[dict, int]:
    validate_analyses(scenario)
    ctx = ScenarioContext(scenario, seed)
    results = []
    for block in scenario.get("analyses", []):
        name = block["analysis"]
        entry = {"analysis": name, "params": {k: v for k, v in block.items() if k != "analysis"}}
        try:
            entry.update(ANALYSES[name].run(ctx, block))
        except CoarseTopError as err:
            entry.update({"status": "error", "error": err.code, "message": str(err)})
        results.append(entry)
    window = {
        "kind": scenario["space"]["kind"],
        "detail": scenario["space"].get("family") or scenario["space"].get("name"),
        "radius": scenario["space"].get("radius"),
        "points": ctx.space.n,
    }
    report = {"schema": SCHEMA_VERSION, "window": window, "results": results}
    if any(r.get("status") == "error" for r in results):
        code = 1
    elif any(r.get("status") == "inconclusive" for r in results):
        code = 2
    else:
        code = 0
    return report, code


def render_text(report: dict) -> str:
    lines = []
    w = report["window"]
    lines.append(f"window: {w['detail']} radius {w['radius']} ({w['points']} points)")
    for r in report["results"]:
        lines.append(f"[{r['analysis']}] status={r['status']}")
        for key in sorted(r):
            if key in ("analysis", "status", "params"):
                continue
            lines.append(f"  {key}: {json.dumps(r[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coarsetop", description="finite-window coarse topology probes")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."))
    p_run.add_argument("--seed", type=int, default=0)
    sub.add_parser("fixtures", help="list built-in fixtures")
    p_desc = sub.add_parser("describe", help="describe an analysis")
    p_desc.add_argument("analysis")
    args = parser.parse_args(argv)

    if args.command == "fixtures":
        for name, desc in fixtures_mod.list_fixtures().items():
            print(f"{name}: {desc}")
        return 0
    if args.command == "describe":
        if args.analysis not in ANALYSES:
            print(f"unknown analysis {args.analysis!r}; known: {sorted(ANALYSES)}", file=sys.stderr)
            return 1
        print(f"{args.analysis}: {ANALYSES[args.analysis].describe}")
        return 0
    # run
    try:
        scenario = json.loads(args.scenario.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot parse scenario: {err}", file=sys.stderr)
        return 1
    try:
        report, code = run_scenario(scenario, seed=args.seed)
    except CoarseTopError as err:
        print(f"scenario failed: {err}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.scenario.stem
    out_json = args.out / f"{stem}.report.json"
    out_txt = args.out / f"{stem}.report.txt"
    payload = json.dumps(report, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
    out_json.write_text(payload)
    out_txt.write_text(render_text(report))
    print(f"wrote {out_json} and {out_txt}; exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
