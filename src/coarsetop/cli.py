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
from .errors import MAX_SIMPLICES, MAX_VERTICES, BadSubgroupSpecError, CoarseTopError
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
        caps = with_defaults(CAPS, scenario.get("caps", {}), self)
        self.max_vertices, self.max_simplices = caps["max_vertices"], caps["max_simplices"]
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
            known = fixtures_mod.list_fixtures()
            raise_on_bad(spec["name"] in known, f"unknown fixture {spec['name']!r}; known: {', '.join(known)}")
            self.fixture = grid_fixture(spec["name"], spec["radius"], max_vertices=self.max_vertices)
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
            try:
                return subgroup_trace(self.ball, wspec["spec"])
            except BadSubgroupSpecError as err:  # the spec is the scenario's: unknown names and values
                raise CoarseTopError("scenario-invalid", f"w: {err}") from err
        return SubsetMask(self.space.n, [self.space.basepoint or 0])  # "point"

    def words(self, words: list) -> list:
        """The group elements of ``invariance_generators`` words; none on a fixture."""
        try:
            return [self.ball.model.parse_word(word) for word in words] if self.ball else []
        except BadSubgroupSpecError as err:  # an unknown name in the scenario, as for W
            raise CoarseTopError("scenario-invalid", f"invariance_generators: {err}") from err

    def component(self, name, r: int = 1, A: int = 0, collar: int = 2) -> SubsetMask:
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
        if block in (None, "auto"):
            return default_schedules(R)
        if isinstance(block, dict):
            return default_schedules(R, **block["auto"])
        return [WindowSchedule(S, i, S_out, j, R, collar) for S, i, S_out, j, collar in block]


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
    scheds = ctx.schedules(params["schedules"])
    rep = ends_estimate(ctx.space, scheds)
    status = "inconclusive" if rep.verdict == "inconclusive" else "ok"
    return {"status": status, "counts": rep.deep_counts, "verdict": str(rep.verdict),
            "schedules": [vars(s) for s in scheds]}


def run_separate(ctx: ScenarioContext, params: dict) -> dict:
    r, A, collar = params["r"], params["A"], params["collar"]
    windows, gens = params["windows"], ctx.words(params["invariance_generators"])
    rows = []  # (ball-or-None, w, component set) per window, masks aligned
    if windows and ctx.ball is not None:
        subgroup_w = ctx.w_spec is not None and ctx.w_spec.get("kind") == "subgroup"
        raise_on_bad(subgroup_w, "windowed separation needs a subgroup w to rebuild per radius")
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
    if gens:  # words are read on group spaces only, whose windows are all balls
        inv_counts = [invariant_components(ball, w, gens, cs)[1] for ball, w, cs in rows]
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
    n = params["n"]
    scheds = ctx.schedules(params["schedules"])
    index = params["probe_index"]
    raise_on_bad(index < len(scheds), f"probe_index {index} with {len(scheds)} schedules")
    probe = scheds[index]
    out = {}
    worst = "ok"
    pd_reason, w_images = pd_precondition(ctx.space, ctx.w, n, scheds, ctx.max_simplices)  # one W for all
    for name in params["components"]:
        C = ctx.component(name)
        if pd_reason:
            v = EssentialVerdict(str(name), "inconclusive", None, reason=pd_reason)
        else:
            v = essential_probe(
                ctx.space, ctx.w, C, n, scheds, component_name=str(name),
                skip_pd_check=True, probe_schedule=probe, w_image=w_images.get(probe),
                max_simplices=ctx.max_simplices,
            )
        classes = [
            {"survives": w["survives_in_target"], "locality": w["fill_locality"],
             "fill_size": int(w.get("fill") or 0).bit_count()}
            for w in v.witnesses
        ]
        out[str(name)] = {"verdict": v.verdict, "reason": v.reason, "classes": classes}
        if v.verdict == "inconclusive":
            worst = "inconclusive"
    return {"status": worst, "components": out, "schedules": [vars(s) for s in scheds]}


def run_almost_essential(ctx: ScenarioContext, params: dict) -> dict:
    A = params["A"]
    B_grid = list(range(params["B_max"] + 1))
    out = {}
    for name in params["components"]:
        C = ctx.component(name, A=A)
        rep = almost_essential_probe(ctx.space, ctx.w, C, A, B_grid)
        out[str(name)] = {"verdict": rep.verdict, "window_radius": rep.window_radius}
    return {"status": "ok", "components": out, "A": A, "B_grid": B_grid}


def run_mv(ctx: ScenarioContext, params: dict) -> dict:
    r, A, cap, collar = params["r"], params["A"], params["cap"], params["collar"]
    cross = crossing(ctx, params["axis"])
    C1 = ctx.component(params["component"], r=r, A=A, collar=collar)
    rep = mv_assemble(ctx.space, ctx.w, C1, r=r, A=A, cap=cap, collar=collar, max_simplices=ctx.max_simplices)
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
    kind, collar, D_schedule = params["class"], params["collar"], params["D_schedule"]
    n = 2 if kind == "fundamental" else 1
    axes = [] if kind == "edge-cut" else [crossing(ctx, axis) for axis in range(n)]
    K = build_rips(ctx.space, ctx.space.full_mask(), params["scale"], n + 1, max_simplices=ctx.max_simplices)
    R = RelativeComplex(K, ctx.space.interior_mask(collar))
    if kind == "crossing":
        vec = R.cochain_from_edge_predicate(*axes)
    elif kind == "fundamental":
        vec = R.cochain_from_cup_product(*axes)
    else:
        raise_on_bad(ctx.ball is not None, "edge-cut class requires a group ball")
        ball = ctx.ball
        edge = tuple(sorted((ball.index[ball.model.identity()], ball.index[ball.model.generators()[0][1]])))
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
    if ctx.ball is not None and params["stab_comparison"]:
        res = stab_mob_comparison(ctx.ball, R, alpha0, D_schedule[-1], collar=collar, res=det.result)
        h = res.stab_mob_hausdorff
        out["stab_mob_hausdorff"] = None if h is None or math.isinf(h) else h
        out["mob_size"] = len(res.mob_mask)
        out["stab_orbit_size"] = len(res.stab_orbit) if res.stab_orbit else 0
    if params["export_class"]:
        out["class_simplices"] = [list(s) for s in alpha0.export_simplex_values()]
    return out


def run_acyclicity(ctx: ScenarioContext, params: dict) -> dict:
    mu_max, centers_spec = params["mu_max"], params["centers"]
    if centers_spec == "basepoint":
        centers = [ctx.space.basepoint or 0]
    elif isinstance(centers_spec, dict):
        radial, R = ctx.space.radial, ctx.space.window_radius or 0
        safe = [v for v in range(ctx.space.n) if radial is not None and radial[v] + mu_max <= R]
        count = min(centers_spec["sample"], len(safe))
        centers = sorted(random.Random(ctx.seed).sample(safe, count)) if safe else [ctx.space.basepoint or 0]
    else:
        centers = centers_spec
        raise_on_bad(max(centers, default=0) < ctx.space.n, f"centers {centers} outside the {ctx.space.n} points")
    prof = uniform_acyclicity_probe(
        ctx.space, params["k_max"], centers, params["i_values"], params["r_values"], params["lambda_max"], mu_max,
        ctx.max_simplices,
    )
    entries = [
        {"center": e.center, "k": e.k, "i": e.i, "r": e.r, "lambda": e.lam, "mu": e.mu, "failed": e.failed}
        for e in prof.entries
    ]
    failures = len(prof.failures())
    return {"status": "inconclusive" if failures else "ok", "entries": entries, "failures": failures}


def run_pd_signature(ctx: ScenarioContext, params: dict) -> dict:
    scheds = ctx.schedules(params["schedules"])
    rep = pd_signature_check(ctx.space, params["n"], scheds, within=ctx.w, max_simplices=ctx.max_simplices)
    verdicts = {str(k): str(v) for k, v in rep.degree_verdicts.items()}
    return {"status": "ok", "passed": rep.passed, "degree_verdicts": verdicts}


def run_almost_invariant(ctx: ScenarioContext, params: dict) -> dict:
    raise_on_bad(ctx.ball is not None, "almost-invariant extraction requires a group ball")
    A = params["A"]
    C = ctx.component(params["component"], A=A)
    xhat, report = almost_invariant_extract(ctx.ball, ctx.w, C, A)
    return {
        "status": "ok" if report["verdict"] == "ok" else "inconclusive",
        "verdict": report["verdict"],
        "checks": {k: v for k, v in report.items() if k != "verdict"},
        "xhat_size": len(xhat),
    }


# -- the parameter table ----------------------------------------------------------


class Derived(NamedTuple):
    """A default that depends on the space or on the block's earlier parameters."""

    text: str
    rule: Callable[[ScenarioContext, dict], object]


REQUIRED = object()  # the default of a parameter a block must give


class Param(NamedTuple):
    """One parameter: the check its value passes, the type and range ``describe`` prints, its default."""

    check: Callable[[object], bool]
    kind: str
    default: object = REQUIRED

    def describe(self) -> str:
        default = self.default
        if default is REQUIRED:
            return f"{self.kind}; required"
        return f"{self.kind}; default {default.text if isinstance(default, Derived) else json.dumps(default)}"


def _is_int(value, least=None) -> bool:
    return type(value) is int and (least is None or value >= least)


def _is_int_list(value, least=None, nonempty=False) -> bool:
    return isinstance(value, list) and (bool(value) or not nonempty) and all(_is_int(v, least) for v in value)


def integer(least: int, default=REQUIRED) -> Param:
    return Param(lambda v: _is_int(v, least), f"integer >= {least}", default)


def integers(least: int, default, nonempty: bool = True) -> Param:
    kind = f"{'nonempty ' * nonempty}list of integers >= {least}"
    return Param(lambda v: _is_int_list(v, least, nonempty), kind, default)


def flag(default: bool) -> Param:
    return Param(lambda v: type(v) is bool, "true or false", default)


def component(default) -> Param:
    return Param(_is_name, "component name (a string or an integer)", default)


def _is_schedules(value) -> bool:
    if isinstance(value, list):
        rows_ok = (_is_int_list(row) and len(row) == 5 and row[1] >= 1 and row[4] >= 0 for row in value)
        return bool(value) and all(rows_ok)
    if isinstance(value, dict):
        auto = value.get("auto")
        return (
            value.keys() == {"auto"} and isinstance(auto, dict) and auto.keys() <= {"collar", "scales", "count"}
            and _is_int(auto.get("collar", 0), 0) and _is_int(auto.get("count", 0))
            and ("scales" not in auto or _is_int_list(auto["scales"], 1) and len(auto["scales"]) == 2)
        )
    return value in (None, "auto")


def _is_centers(value) -> bool:
    return (
        value == "basepoint" or _is_int_list(value, 0, nonempty=True)
        or isinstance(value, dict) and value.keys() == {"sample"} and _is_int(value["sample"], 0)
    )


def _is_name(value) -> bool:
    return type(value) in (str, int)


def _is_words(value) -> bool:
    return isinstance(value, list) and all(type(w) is str for w in value)


SCHEDULES = Param(
    _is_schedules,
    'nonempty list of [S, i, S_out, j, collar] rows with i >= 1 and collar >= 0, "auto", '
    'or {"auto": {"collar": integer >= 0, "scales": [i, j] integers >= 1, "count": integer}}',
    "auto",
)
COMPONENTS = Param(
    lambda v: isinstance(v, list) and bool(v) and all(_is_name(c) for c in v),
    "nonempty list of component names (strings or integers)",
    Derived('the fixture\'s components, else ["0", "1"]',
            lambda ctx, p: sorted(ctx.fixture.components) if ctx.fixture else ["0", "1"]),
)
CAPS = {"max_vertices": integer(1, MAX_VERTICES), "max_simplices": integer(1, MAX_SIMPLICES)}


def with_defaults(table: dict[str, Param], block: dict, ctx: ScenarioContext) -> dict:
    """The block with each absent parameter set to its default, in table order."""
    out = {}
    for name, param in table.items():
        if name in block:
            out[name] = block[name]
        else:
            out[name] = param.default.rule(ctx, out) if isinstance(param.default, Derived) else param.default
    return out


def check_params(table: dict[str, Param], block: dict, where: str) -> None:
    for name, value in block.items():
        raise_on_bad(name in table, f"{where}: unknown parameter {name!r}; known: {', '.join(table)}")
        raise_on_bad(table[name].check(value), f"{where}: {name!r} expects {table[name].kind}, got {value!r}")
    for name, param in table.items():
        raise_on_bad(name in block or param.default is not REQUIRED, f"{where} requires parameter {name!r}")


class Analysis(NamedTuple):
    """One CLI analysis: its runner, what it computes, its parameter table, whether it needs a W."""

    run: Callable[[ScenarioContext, dict], dict]
    summary: str
    params: dict[str, Param]
    needs_w: bool = False


ANALYSES = {
    "ends": Analysis(run_ends, "ends_estimate over a schedule family", {"schedules": SCHEDULES}),
    "separate": Analysis(
        run_separate, "deep complementary components of W, with a trend over window radii",
        {"r": integer(1, 1), "A": integer(0, 0), "collar": integer(0, 2), "windows": integers(1, [], nonempty=False),
         "invariance_generators": Param(_is_words, "list of words", [])},
        needs_w=True,
    ),
    "essential": Analysis(
        run_essential, "essential probe of components",
        {"n": integer(1), "components": COMPONENTS, "schedules": SCHEDULES,
         "probe_index": integer(0, Derived("the last schedule", lambda ctx, p: -1))},
        needs_w=True,
    ),
    "almost-essential": Analysis(
        run_almost_essential, "smallest B with W inside N_B(C minus N_A(W))",
        {"A": integer(0, 0), "B_max": integer(0, 8), "components": COMPONENTS}, needs_w=True,
    ),
    "mv": Analysis(
        run_mv, "Mayer-Vietoris assembly + connecting map of the W point class",
        {"r": integer(1, 2), "A": integer(0, 1), "cap": integer(2, 3), "collar": integer(0, 2),
         "component": component(Derived('"upper" on a fixture, else "0"',
                                        lambda ctx, p: "upper" if ctx.fixture else "0")),
         "axis": integer(0, 0)},
        needs_w=True,
    ),
    "mobility": Analysis(
        run_mobility, "mobility set, stab comparison, manifold detector",
        {"class": Param(lambda v: v in ("crossing", "fundamental", "edge-cut"), "crossing | fundamental | edge-cut",
                        "crossing"),
         "D_schedule": integers(0, [1, 2]),
         "scale": integer(0, Derived("2 for the fundamental class, else 1",
                                     lambda ctx, p: 2 if p["class"] == "fundamental" else 1)),
         "collar": integer(0, 2),
         "stab_comparison": flag(True),
         "export_class": flag(False)},
    ),
    "acyclicity": Analysis(
        run_acyclicity, "uniform acyclicity probe",
        {"k_max": integer(0, 1), "i_values": integers(0, [1]), "r_values": integers(0, [1, 2, 3]),
         "lambda_max": integer(0, 3),
         "mu_max": integer(0, Derived("max(r_values) + 3", lambda ctx, p: max(p["r_values"]) + 3)),
         "centers": Param(_is_centers, '"basepoint", {"sample": integer >= 0} or a nonempty list of point ids',
                          "basepoint")},
    ),
    "pd-signature": Analysis(
        run_pd_signature, "coarse PD signature check of W", {"n": integer(1), "schedules": SCHEDULES}, needs_w=True
    ),
    "almost-invariant": Analysis(
        run_almost_invariant, "H-almost invariant set extraction",
        {"A": integer(0, 0), "component": component("0")}, needs_w=True,
    ),
}

SPACE_NAME_KEYS = {"group": "family", "fixture": "name"}
W_KINDS = ("fixture-w", "subgroup", "point")


def validate_analyses(scenario: dict) -> None:
    """The scenario and every analysis block validate before any computation.

    The scenario's shape, its space, caps and w blocks and a positive radius
    are checked first, then each block against its analysis's parameter
    table. Block failures are anchored to the offending block index. What
    needs the built space (component names, acyclicity centres, axes) and
    cap violations are runtime events and abort only their own analysis.
    """
    raise_on_bad(isinstance(scenario, dict), "a scenario must be a JSON object")
    raise_on_bad(scenario.get("schema") == SCHEMA_VERSION, "unsupported schema version")
    space = scenario.get("space")
    raise_on_bad(isinstance(space, dict), "a scenario needs a 'space' object")
    kind = space.get("kind")
    raise_on_bad(kind in ("group", "fixture"), f"space kind must be 'group' or 'fixture', got {kind!r}")
    key = SPACE_NAME_KEYS[kind]
    raise_on_bad(isinstance(space.get(key), str), f"a {kind} space needs a string {key!r}")
    radius = space.get("radius")
    raise_on_bad(_is_int(radius, 1), f"space radius must be an integer >= 1, got {radius!r}")
    caps = scenario.get("caps", {})
    raise_on_bad(isinstance(caps, dict), f"caps must be an object, got {caps!r}")
    check_params(CAPS, caps, "caps")
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
        raise_on_bad(isinstance(name, str) and name in ANALYSES, f"{where}: unknown analysis {name!r}")
        check_params(ANALYSES[name].params, {k: v for k, v in block.items() if k != "analysis"}, f"{where} {name}")
        if ANALYSES[name].needs_w and w is None:
            raise_on_bad(kind == "fixture", f"{where}: {name} needs a W; give a 'w' block or use a fixture space")


def run_scenario(scenario: dict, seed: int = 0) -> tuple[dict, int]:
    validate_analyses(scenario)
    ctx = ScenarioContext(scenario, seed)
    for block in scenario.get("analyses", []):  # unknown generator names end before any analysis
        ctx.words(block.get("invariance_generators", []))
    results = []
    for block in scenario.get("analyses", []):
        name = block["analysis"]
        params = {k: v for k, v in block.items() if k != "analysis"}
        entry = {"analysis": name, "params": params}
        try:
            entry.update(ANALYSES[name].run(ctx, with_defaults(ANALYSES[name].params, params, ctx)))
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
    statuses = {r["status"] for r in results}
    return report, 1 if "error" in statuses else 2 if "inconclusive" in statuses else 0


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
        analysis = ANALYSES[args.analysis]
        print(f"{args.analysis}: {analysis.summary}")
        for name, param in analysis.params.items():
            print(f"  {name}: {param.describe()}")
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
