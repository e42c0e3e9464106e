"""Scenario CLI: runs, reports, determinism, caps, help plumbing."""

import json
from pathlib import Path

import pytest

from coarsetop.cli import ANALYSES, main, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


def write_scenario(tmp_path, name, payload):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(payload))
    return p


FIG1 = {
    "schema": 1,
    "space": {"kind": "fixture", "name": "fig1_halfplane_flap", "radius": 10},
    "analyses": [
        {"analysis": "almost-essential", "A": 0, "B_max": 6},
        {
            "analysis": "essential",
            "n": 1,
            "schedules": [[3, 1, 1, 2, 2], [4, 1, 2, 2, 2], [5, 1, 3, 2, 2]],
        },
    ],
}

Z2_AXIS = {
    "schema": 1,
    "space": {"kind": "group", "family": "Z^2", "radius": 10},
    "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
    "analyses": [
        {"analysis": "separate", "r": 1, "A": 0, "invariance_generators": ["a"]},
        {"analysis": "mv", "r": 2, "A": 1, "cap": 3, "component": "0"},
    ],
}

Z2_POINT = {"schema": 1, "space": {"kind": "group", "family": "Z^2", "radius": 5}, "w": {"kind": "point"}}

LINE_IN_PLANE = {"schema": 1, "space": {"kind": "fixture", "name": "line_in_plane", "radius": 8}}


def test_fig1_scenario_runs(tmp_path):
    p = write_scenario(tmp_path, "fig1", FIG1)
    code = main(["run", str(p), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "fig1.report.json").read_text())
    ess = next(r for r in report["results"] if r["analysis"] == "essential")
    assert ess["components"]["bottom"]["verdict"] == "essential"
    assert ess["components"]["top"]["verdict"] == "non-essential"
    ae = next(r for r in report["results"] if r["analysis"] == "almost-essential")
    assert ae["components"]["bottom"]["verdict"] == "B=1"
    assert ae["components"]["top"]["verdict"] == "fails-at-window"
    assert (tmp_path / "fig1.report.txt").exists()


def test_z2_axis_scenario(tmp_path):
    p = write_scenario(tmp_path, "z2", Z2_AXIS)
    code = main(["run", str(p), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "z2.report.json").read_text())
    sep = next(r for r in report["results"] if r["analysis"] == "separate")
    assert sep["deep_count"] == 2
    mv = next(r for r in report["results"] if r["analysis"] == "mv")
    assert mv["delta_nonzero"] is True
    assert all(mv["ses_ok"].values())


def test_windowed_separation_trend():
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 10},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "analyses": [
            {
                "analysis": "separate",
                "r": 1,
                "A": 0,
                "windows": [8, 10, 12],
                "invariance_generators": ["a"],
            }
        ],
    }
    report, code = run_scenario(scen)
    assert code == 0
    sep = report["results"][0]
    assert sep["trend"] == "stable"
    assert [w["n_deep"] for w in sep["windows"]] == [2, 2, 2]
    assert [w["e_lower"] for w in sep["windows"]] == [2, 2, 2]


def test_determinism_byte_identical(tmp_path):
    p = write_scenario(tmp_path, "det", Z2_AXIS)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", str(p), "--out", str(out1)]) == 0
    assert main(["run", str(p), "--out", str(out2)]) == 0
    assert (out1 / "det.report.json").read_bytes() == (out2 / "det.report.json").read_bytes()


def test_cap_violation_aborts_single_analysis(tmp_path):
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "F_2", "radius": 6},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "caps": {"max_simplices": 100},
        "analyses": [
            {"analysis": "separate", "r": 1, "A": 0, "collar": 1},
            {"analysis": "mobility", "class": "edge-cut", "D_schedule": [1], "collar": 1},
        ],
    }
    p = write_scenario(tmp_path, "caps", scen)
    code = main(["run", str(p), "--out", str(tmp_path)])
    assert code == 1  # the capped analysis errored, the run still reported
    report = json.loads((tmp_path / "caps.report.json").read_text())
    sep = next(r for r in report["results"] if r["analysis"] == "separate")
    mob = next(r for r in report["results"] if r["analysis"] == "mobility")
    assert sep["status"] == "ok"
    assert mob["status"] == "error"
    assert mob["error"] == "complex-too-large"


def test_mv_respects_simplex_cap(tmp_path):
    # the Mayer-Vietoris complexes once ignored caps.max_simplices and
    # reported status ok with exit 0
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 8},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "caps": {"max_simplices": 100},
        "analyses": [{"analysis": "mv", "r": 2, "A": 1, "cap": 3, "component": "0"}],
    }
    p = write_scenario(tmp_path, "mvcap", scen)
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "mvcap.report.json").read_text())
    assert report["results"][0]["status"] == "error"
    assert report["results"][0]["error"] == "complex-too-large"


def test_essential_respects_simplex_cap(tmp_path):
    # the essential probe's target complex once ignored caps.max_simplices
    # and reported status ok with exit 0
    scen = {**FIG1, "caps": {"max_simplices": 100}, "analyses": [FIG1["analyses"][1]]}
    p = write_scenario(tmp_path, "esscap", scen)
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "esscap.report.json").read_text())
    assert report["results"][0]["status"] == "error"
    assert report["results"][0]["error"] == "complex-too-large"


def test_windowed_separation_reuses_scenario_ball(monkeypatch):
    import coarsetop.cli as cli

    radii = []
    build_ball = cli.build_ball

    def counting_build_ball(model, radius, **kwargs):
        radii.append(radius)
        return build_ball(model, radius, **kwargs)

    monkeypatch.setattr(cli, "build_ball", counting_build_ball)
    separate = {"analysis": "separate", "windows": [5, 6, 7], "invariance_generators": ["y"]}
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "amalgam_z2_z_z2", "radius": 7},
        "w": {"kind": "subgroup", "spec": {"cyclic": "y"}},
        "analyses": [separate],
    }
    report, code = run_scenario(scen)
    assert code == 0
    # the radius-7 window is the scenario's own ball, the smaller ones its prefixes
    assert radii == [7]
    # a scenario radius below the windows builds every window: same rows
    radii.clear()
    fresh, _ = run_scenario({**scen, "space": {**scen["space"], "radius": 4}})
    assert sorted(radii) == [4, 5, 6, 7]
    assert fresh["results"][0] == report["results"][0]
    # lamplighter balls are not convex, so no window is a prefix of another
    radii.clear()
    lamp = {"kind": "group", "family": "lamplighter", "radius": 6}
    separate = {"analysis": "separate", "windows": [4, 5, 6]}
    run_scenario({**scen, "space": lamp, "w": {"kind": "subgroup", "spec": {"cyclic": "t"}}, "analyses": [separate]})
    assert sorted(radii) == [4, 5, 6]


def test_scenario_computes_each_component_set_once(monkeypatch):
    # separate and almost-invariant's component share the scenario's set at
    # (r, A, collar) = (1, 0, 2): its own-radius window and its windowless
    # row read it; only the smaller windows compute their own
    import coarsetop.cli as cli

    radii = []
    complement_components = cli.complement_components

    def counting(X, W, r, A, collar=2):
        radii.append(X.window_radius)
        return complement_components(X, W, r, A, collar=collar)

    monkeypatch.setattr(cli, "complement_components", counting)
    extract = {"analysis": "almost-invariant"}
    amalgam = {
        "schema": 1,
        "space": {"kind": "group", "family": "amalgam_z2_z_z2", "radius": 7},
        "w": {"kind": "subgroup", "spec": {"cyclic": "y"}},
        "analyses": [{"analysis": "separate", "windows": [5, 6, 7], "invariance_generators": ["y"]}, extract],
    }
    report, code = run_scenario(amalgam)
    assert code == 0 and sorted(radii) == [5, 6, 7]
    radii.clear()
    alone, _ = run_scenario({**amalgam, "analyses": [extract]})
    assert radii == [7] and alone["results"][0] == report["results"][1]
    radii.clear()
    plane = {**Z2_AXIS, "analyses": [{"analysis": "separate", "invariance_generators": ["a"]}, extract]}
    _, code = run_scenario(plane)
    assert code == 0 and radii == [10]


# mobility's top class and mv read P_2 of the whole window to dimension 3 rel the same collar
SHARED_WHOLE = {
    "schema": 1,
    "space": {"kind": "group", "family": "Z^2", "radius": 6},
    "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
    "analyses": [{"analysis": "mobility", "class": "fundamental"}, {"analysis": "mv", "r": 2, "A": 1, "cap": 3}],
}


def counting_whole_builds(monkeypatch) -> list:
    """(scale, cap) of every whole-space complex built by the CLI or the Mayer-Vietoris assembly."""
    import coarsetop.cli as cli
    import coarsetop.essential as essential

    whole = []
    build_rips = cli.build_rips

    def counting(X, V, r, m, **kwargs):
        if len(V) == X.n:
            whole.append((r, m))
        return build_rips(X, V, r, m, **kwargs)

    monkeypatch.setattr(cli, "build_rips", counting)
    monkeypatch.setattr(essential, "build_rips", counting)
    return whole


def test_mobility_and_mv_share_one_whole_complex(monkeypatch):
    whole = counting_whole_builds(monkeypatch)
    report, code = run_scenario(SHARED_WHOLE)
    assert code == 0 and whole == [(2, 3)]
    for block, entry in zip(SHARED_WHOLE["analyses"], report["results"]):
        alone, _ = run_scenario({**SHARED_WHOLE, "analyses": [block]})
        assert alone["results"] == [entry]
    # another key empties the slot: mv at cap 2 and a crossing class at scale 1 each build their own
    whole.clear()
    other = [{"analysis": "mv", "r": 2, "A": 1, "cap": 2}, {"analysis": "mobility"}, SHARED_WHOLE["analyses"][1]]
    _, code = run_scenario({**SHARED_WHOLE, "analyses": other})
    assert code == 0 and whole == [(2, 2), (1, 2), (2, 3)]


def test_shared_whole_complex_fails_each_reader(monkeypatch):
    # P_2 of the radius-6 window has 1,490 simplices to dimension 3: a build
    # that raises leaves the slot empty, so mv meets the same cap
    whole = counting_whole_builds(monkeypatch)
    report, code = run_scenario({**SHARED_WHOLE, "caps": {"max_simplices": 1000}})
    mobility, mv = report["results"]
    assert code == 1 and whole == [(2, 3), (2, 3)]
    assert mobility["error"] == mv["error"] == "complex-too-large"
    assert mobility["message"] == mv["message"]


def test_mv_tests_complementarity_before_the_shared_build(monkeypatch):
    # the line's upper half-plane is not (2, 0)-complementary to the line:
    # mv ends there under a cap that the whole complex exceeds, and builds nothing
    whole = counting_whole_builds(monkeypatch)
    scen = {
        "schema": 1,
        "space": {"kind": "fixture", "name": "line_in_plane", "radius": 5},
        "caps": {"max_simplices": 1000},
        "analyses": [
            {"analysis": "mobility", "class": "fundamental"},
            {"analysis": "mv", "r": 2, "A": 0, "cap": 3, "component": "upper"},
        ],
    }
    report, code = run_scenario(scen)
    mobility, mv = report["results"]
    assert code == 1 and whole == [(2, 3)]
    assert mobility["error"] == "complex-too-large" and mv["error"] == "not-complementary"


Z2_CAPPED = {
    "schema": 1,
    "space": {"kind": "group", "family": "Z^2", "radius": 8},
    "w": {"kind": "subgroup", "spec": {"generators": ["a", "b"]}},  # the whole plane
    "caps": {"max_simplices": 50},
}


@pytest.mark.parametrize(
    "block",
    [{"analysis": "pd-signature", "n": 2}, {"analysis": "acyclicity"}],
    ids=["pd-signature", "acyclicity"],
)
def test_w_complexes_respect_simplex_cap(tmp_path, block):
    # the two-scale and acyclicity complexes once ignored caps.max_simplices
    # and reported status ok with exit 0; ends builds no complex and stays ok
    scen = {**Z2_CAPPED, "analyses": [block, {"analysis": "ends"}]}
    p = write_scenario(tmp_path, "wcap", scen)
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    capped, ends = json.loads((tmp_path / "wcap.report.json").read_text())["results"]
    assert capped["status"] == "error" and capped["error"] == "complex-too-large"
    assert ends["status"] == "ok"


def test_essential_pd_check_respects_simplex_cap(monkeypatch):
    # the PD check on W once built complexes of up to 6,544 simplices under
    # a cap of 2,000 before the capped probe target aborted
    import coarsetop.homology as homology
    import coarsetop.rips as rips

    sizes = []
    build_rips = rips.build_rips

    def sizing_build_rips(*args, **kwargs):
        K = build_rips(*args, **kwargs)
        sizes.append(sum(K.n_simplices(k) for k in range(K.cap + 1)))
        return K

    monkeypatch.setattr(homology, "build_rips", sizing_build_rips)
    scen = {
        **FIG1,
        "space": {"kind": "fixture", "name": "fig2_plane_fin", "radius": 10},
        "caps": {"max_simplices": 2000},
        "analyses": [{**FIG1["analyses"][1], "n": 2, "probe_index": 1}],
    }
    report, code = run_scenario(scen)
    assert code == 1
    assert report["results"][0]["error"] == "complex-too-large"
    assert sizes and max(sizes) <= 2000


@pytest.mark.parametrize("n", [1, 2], ids=["pd-passes", "pd-fails"])
def test_essential_checks_w_signature_once(monkeypatch, n):
    import coarsetop.essential as essential
    from coarsetop.fixtures import grid_fixture
    from coarsetop.homology import WindowSchedule

    calls = []
    check = essential.pd_signature_check

    def counting_check(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(essential, "pd_signature_check", counting_check)
    block = {**FIG1["analyses"][1], "n": n}
    report, _ = run_scenario({**FIG1, "analyses": [block]})
    assert calls == [n]  # one W, two components
    comps = report["results"][0]["components"]
    assert sorted(comps) == ["bottom", "top"]
    if n == 2:  # W is a line: every component is inconclusive for the gate's reason
        fix = grid_fixture("fig1_halfplane_flap", 10)
        scheds = [WindowSchedule(S, i, S_out, j, 10, collar) for S, i, S_out, j, collar in block["schedules"]]
        reason, _ = essential.pd_precondition(fix.space, fix.w, n, scheds)
        assert reason.startswith("W fails the PD")
        assert all(c["verdict"] == "inconclusive" and c["reason"] == reason for c in comps.values())


def test_essential_builds_each_complex_once(monkeypatch):
    # the probes push the W-classes the PD check already computed: one
    # inner and one outer W complex per schedule, one target per component
    import coarsetop.essential as essential
    import coarsetop.homology as homology

    built = []
    build_rips = homology.build_rips

    def counting_build_rips(X, V, r, m, **kwargs):
        built.append((V.ids, r, m))
        return build_rips(X, V, r, m, **kwargs)

    monkeypatch.setattr(homology, "build_rips", counting_build_rips)
    monkeypatch.setattr(essential, "build_rips", counting_build_rips)
    block = FIG1["analyses"][1]
    report, code = run_scenario({**FIG1, "analyses": [block]})
    assert code == 0
    assert len(built) == len(set(built)) == 2 * len(block["schedules"]) + 2
    comps = report["results"][0]["components"]
    assert {name: c["verdict"] for name, c in comps.items()} == {"bottom": "essential", "top": "non-essential"}


def test_scenario_builds_each_complex_once(monkeypatch):
    # z2_R16's acyclicity once rebuilt each outer P_lambda(N_mu(x)) for every
    # inner radius: 90 builds a pass for these 50 (mask, scale, cap)
    import coarsetop.essential as essential
    import coarsetop.homology as homology

    built = []
    build_rips = homology.build_rips

    def counting_build_rips(X, V, r, m, **kwargs):
        built.append((V.ids, r, m))
        return build_rips(X, V, r, m, **kwargs)

    monkeypatch.setattr(homology, "build_rips", counting_build_rips)
    monkeypatch.setattr(essential, "build_rips", counting_build_rips)
    scenario = json.loads((SCENARIOS / "group-balls" / "z2_R16.json").read_text())
    _, code = run_scenario(scenario, seed=0)
    assert code == 0
    assert len(built) == len(set(built)) == 50


def test_acyclicity_eliminates_each_cycle_basis_once(monkeypatch):
    # z2_R16's acyclicity walk tests each inner P_i(N_r(x)) against several
    # outers, and each test once eliminated the inner cycle basis afresh:
    # 60 kernel bases a pass for these 24 inner complexes
    from coarsetop import gf2

    seen = []
    kernel_basis = gf2.kernel_basis
    monkeypatch.setattr(gf2, "kernel_basis", lambda A: seen.append(A) or kernel_basis(A))
    scenario = json.loads((SCENARIOS / "group-balls" / "z2_R16.json").read_text())
    block = next(b for b in scenario["analyses"] if b["analysis"] == "acyclicity")
    _, code = run_scenario({**scenario, "analyses": [block]}, seed=0)
    assert code == 0
    assert len(seen) == len({id(A) for A in seen}) == 24


def test_mobility_exports_the_class_and_skips_the_stab_comparison():
    # export_class and stab_comparison: false, which no benchmark scenario
    # turns on: the entry lists the crossing class's relative edges and no
    # stab fields, and otherwise equals the default run's
    from coarsetop.groups import FreeAbelian, build_ball

    block = {"analysis": "mobility", "class": "crossing"}
    scenario = {**Z2_AXIS, "space": {"kind": "group", "family": "Z^2", "radius": 6}}
    report, code = run_scenario({**scenario, "analyses": [{**block, "export_class": True, "stab_comparison": False}]})
    default, _ = run_scenario({**scenario, "analyses": [block]})
    (entry,), (full,) = report["results"], default["results"]
    assert code == 0 and entry["status"] == "ok"
    stab = {"stab_mob_hausdorff", "mob_size", "stab_orbit_size"}
    assert stab <= full.keys() and not stab & entry.keys()
    exported = entry.pop("class_simplices")
    del entry["params"], full["params"]  # each echoes its own block
    assert entry == {k: v for k, v in full.items() if k not in stab}
    # the crossing class at scale 1 and collar 2: the unit edges from x = 0 to
    # x = 1 with a vertex off the collar, each a sorted vertex list
    X = build_ball(FreeAbelian(2), 6).space
    interior = {v for v in range(X.n) if X.radial[v] <= 6 - 2}
    support = [
        [u, v] for u in range(X.n) for v in range(u + 1, X.n)
        if X.dist(u, v) == 1 and {X.labels[u][0], X.labels[v][0]} == {0, 1} and {u, v} & interior
    ]
    assert exported == support != []


def test_window_failure_comes_before_complex_too_large(tmp_path):
    # every schedule's window checks run before the gate builds anything: the
    # second schedule is invalid, and the first's complexes exceed the cap
    schedules = [[4, 2, 2, 2, 2], [3, 1, 3, 2, 2]]
    base = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 12},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "caps": {"max_simplices": 10},
    }
    reason = "window-too-small: need S_out + j <= S so outer fills stay off the excised ball"
    codes = {}
    for name in ("essential", "pd-signature"):
        p = write_scenario(tmp_path, name, {**base, "analyses": [{"analysis": name, "n": 1, "schedules": schedules}]})
        codes[name] = main(["run", str(p), "--out", str(tmp_path)])
    assert codes == {"essential": 2, "pd-signature": 1}  # complex-too-large with exit 1 for both
    (ess,) = json.loads((tmp_path / "essential.report.json").read_text())["results"]
    assert ess["status"] == "inconclusive"
    assert {c["reason"] for c in ess["components"].values()} == {reason}
    (pd,) = json.loads((tmp_path / "pd-signature.report.json").read_text())["results"]
    assert (pd["status"], pd["error"], pd["message"]) == ("error", "window-too-small", reason)


def test_window_too_large_cap(tmp_path, capsys):
    for space, cap in [
        ({"kind": "group", "family": "F_2", "radius": 6}, 10),
        # the 13^3 = 2,197 box points are compared with the cap before any is built
        ({"kind": "fixture", "name": "plane_in_space", "radius": 6}, 1),
    ]:
        scen = {"schema": 1, "space": space, "caps": {"max_vertices": cap}, "analyses": [{"analysis": "ends"}]}
        p = write_scenario(tmp_path, "toolarge", scen)
        code = main(["run", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "window-too-large" in capsys.readouterr().err
        assert not (tmp_path / "toolarge.report.json").exists()


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "fig1_halfplane_flap" in out
    assert "fig2_plane_fin" in out


def test_describe(capsys):
    # one line per parameter in the analysis's own table, with its type, range and default
    for name, analysis in ANALYSES.items():
        assert main(["describe", name]) == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head.startswith(f"{name}: ")
        assert [line.split(":", 1)[0].strip() for line in lines] == list(analysis.params)
        assert all(line.endswith("; required") or "; default " in line for line in lines)
    assert main(["describe", "nope"]) == 1


def test_bad_scenario_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"schema": 1},
        [{"schema": 1}],
        {"schema": 1, "space": {"kind": "group", "family": "Z", "radius": "abc"}, "analyses": []},
        {"schema": 1, "space": {"kind": "group", "family": "Z", "radius": -3}, "analyses": []},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "r": 1.5}]},
        {**FIG1, "analyses": [{"analysis": "essential", "n": "x"}]},
        {**FIG1, "caps": {"max_vertices": "x"}},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "windows": "abc"}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "i_values": "x"}]},
        {**Z2_AXIS, "analyses": [{"analysis": "ends", "schedules": {"auto": {"count": 2.5}}}]},
        {**Z2_AXIS, "w": [1, 2]},
        {**Z2_AXIS, "analyses": [{"analysis": "mv", "cap": -1}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mv", "cap": 0}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mv", "cap": 1}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mobility", "scale": -1}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mobility", "D_schedule": []}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "r_values": []}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "i_values": [-1]}]},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "windows": [3, -1, 4]}]},
        {**FIG1, "analyses": [{"analysis": "essential", "n": 0}]},
        {**FIG1, "analyses": [{"analysis": "essential", "n": 1, "probe_index": -1}]},
        {**FIG1, "analyses": [{"analysis": "almost-essential", "B_max": -1}]},
        {**Z2_AXIS, "space": {"family": "Z^2", "radius": 6}},
        {**Z2_AXIS, "space": {"kind": "fixture", "radius": 6}},
        {**Z2_AXIS, "space": {"kind": "group", "family": "Z^2", "radius": 0}},
        {**Z2_AXIS, "space": {"kind": "group", "family": 5, "radius": 6}},
        {**Z2_AXIS, "space": {"kind": "group", "family": "Z^x", "radius": 6}},
        {**Z2_AXIS, "space": {"kind": "group", "family": "Z^-1", "radius": 6}},
        {**Z2_AXIS, "w": {"spec": {"cyclic": "a"}}},
        {**Z2_AXIS, "w": {"kind": "subgroup"}},
        {**FIG1, "analyses": [{"analysis": "almost-essential", "components": 5}]},
        {**FIG1, "analyses": [{"analysis": "ends", "schedules": "x"}]},
        {**FIG1, "analyses": [{"analysis": "ends", "schedules": 5}]},
        {**FIG1, "analyses": [{"analysis": "ends", "schedules": {"auto": {"scales": [-1, 1]}}}]},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "invariance_generators": 5}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "centers": "abc"}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "centers": {"sample": "x"}}]},
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "centers": {"sample": -1}}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "schedules": [[0, 0, 0, 0, 0]]}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "schedules": []}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "schedules": [[2, 1, 1, 1, -1]]}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "schedules": {"auto": {"collar": -2}}}]},
        {**Z2_POINT, "analyses": [{"analysis": "acyclicity", "centers": []}]},
        {**Z2_POINT, "analyses": [{"analysis": "acyclicity", "i_values": []}]},
        {**Z2_POINT, "space": {**Z2_POINT["space"], "radius": 6},
         "analyses": [{"analysis": "separate", "r": -1, "A": 0}]},
        {**Z2_AXIS, "space": {**Z2_AXIS["space"], "radius": 6},
         "analyses": [{"analysis": "mv", "r": -1, "A": 1, "cap": 3, "component": "0"}]},
        {**Z2_AXIS, "space": {**Z2_AXIS["space"], "radius": 6},
         "analyses": [{"analysis": "almost-essential", "A": -3, "B_max": 6}]},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "A": -1}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "schedules": {"auto": {"scales": [0, 0]}}}]},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "colar": 3}]},
        {**Z2_AXIS, "caps": {"max_simplex": 100}},
        {**Z2_AXIS, "caps": {"max_vertices": 0}},
        {**Z2_AXIS, "analyses": [{"analysis": "mobility", "stab_comparison": "no"}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mobility", "export_class": 1}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mobility", "class": "loop"}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "n": 0}]},
        {**Z2_POINT, "space": {"kind": ["group"], "family": "Z^2", "radius": 5}},
        {**Z2_POINT, "analyses": [{"analysis": ["ends"]}]},
        {**FIG1, "analyses": [{"analysis": "essential", "n": 1, "components": []}]},
        {**FIG1, "space": {"kind": "fixture", "name": "fig3_nowhere", "radius": 6}},
        {**Z2_POINT, "space": {"kind": "group", "family": "lamplighter", "radius": 3},
         "w": {"kind": "subgroup", "spec": {"cyclic": "a"}}},
        {**Z2_POINT, "w": {"kind": "subgroup", "spec": {"cyclic": 5}}},
        {**Z2_POINT, "w": {"kind": "subgroup", "spec": {"sublattice": 3}}},
        {**Z2_POINT, "w": {"kind": "subgroup", "spec": {"sublattice": {"k": 0}}}},
        {**Z2_POINT, "w": {"kind": "subgroup", "spec": {"sublattice": {"coords": [2]}}}},
        {**Z2_POINT, "space": {"kind": "group", "family": "amalgam", "radius": 3},
         "w": {"kind": "subgroup", "spec": {"factor": "x"}}},
        {**Z2_POINT, "w": {"kind": "subgroup", "spec": {"generators": "ab"}}},
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "invariance_generators": ["q"]}]},
        {**LINE_IN_PLANE, "analyses": [{"analysis": "separate", "windows": [4, 6, 8]}]},
        {**LINE_IN_PLANE, "analyses": [{"analysis": "separate", "invariance_generators": ["a"]}]},
        {**Z2_POINT, "space": {**Z2_POINT["space"], "radius": 12},
         "analyses": [{"analysis": "acyclicity", "centers": {"sample": 0}}]},
    ],
    ids=[
        "no-space", "top-level-list", "radius-not-int", "radius-negative", "r-not-integral",
        "n-not-int", "cap-not-int", "windows-not-list", "i-values-not-list", "auto-count-not-int",
        "w-not-object", "mv-cap-negative", "mv-cap-zero", "mv-cap-one", "scale-negative",
        "D-schedule-empty", "r-values-empty", "i-values-negative", "windows-negative",
        "n-zero", "probe-index-negative", "B-max-negative", "space-no-kind", "fixture-no-name",
        "radius-zero", "family-not-string", "family-Z^x", "family-Z^-1", "w-no-kind",
        "subgroup-no-spec", "components-not-list", "schedules-string", "schedules-int",
        "auto-scales-negative", "generators-not-list", "centers-string", "centers-sample-not-int",
        "centers-sample-negative", "schedule-row-scale-zero", "schedules-empty", "schedule-row-collar-negative",
        "auto-collar-negative", "centers-empty", "i-values-empty", "separate-scale-below-one", "mv-negative-r",
        "almost-essential-negative-A", "separate-A-negative", "auto-scales-zero", "unknown-parameter", "unknown-cap",
        "cap-zero", "stab-comparison-not-bool", "export-class-not-bool", "mobility-class-unknown",
        "parameter-of-another-analysis", "space-kind-not-string", "analysis-name-not-string",
        "components-empty", "unknown-fixture", "w-unknown-generator", "cyclic-not-word", "sublattice-not-object",
        "sublattice-k-zero", "sublattice-axis-out-of-range", "factor-not-int", "generators-string",
        "invariance-generator-unknown", "windows-on-a-fixture", "generators-on-a-fixture", "centers-sample-zero",
    ],
)
def test_malformed_scenario_is_invalid(tmp_path, capsys, payload):
    # Each now ends up front, with no report. Before, most ended in a
    # traceback; these did not:
    # - silent answers: r = 1.5 ran as r = 1; n = 0 and probe_index = -1 (the
    #   last schedule) ran to an inconclusive verdict; B_max = -1 reported an
    #   empty B grid with exit 0; a scale-0 schedule row and an empty row list
    #   ran ends to inconclusive; an auto collar of -2 and auto scales [0, 0]
    #   reported ok; empty acyclicity centers or i_values, and a sample of 0
    #   centers, reported ok with no entries, and empty essential components
    #   with none; "colar" ran with collar 2, an unknown cap name was ignored, and
    #   "stab_comparison": "no" and "export_class": 1 read as true
    # - later errors: r = -1 on separate and mv, A = -3 on almost-essential
    #   and an unknown mobility class were runtime error entries, and
    #   max_vertices 0 ended as window-too-large
    # - rejected for the wrong reason: n in an ends block failed n >= 1, but
    #   ends reads no n, so it is now an unknown parameter there
    # - wrong code: an unknown fixture ended as unknown-fixture and an unknown
    #   generator in a W word as bad-subgroup-spec; a W spec value of the
    #   wrong type was a traceback, and "generators": "ab" silently read the
    #   string as the list ["a", "b"]; an unknown invariance_generators name
    #   ended separate as bad-subgroup-spec after its components were built
    # - ignored: windows and invariance_generators on a fixture space gave
    #   one row at the fixture's radius and no invariant count, with exit 0
    p = write_scenario(tmp_path, "malformed", payload)
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    assert "scenario-invalid" in capsys.readouterr().err
    assert not (tmp_path / "malformed.report.json").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {**Z2_AXIS, "analyses": [{"analysis": "acyclicity", "centers": [999]}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mv", "axis": 5}]},
        {**Z2_AXIS, "space": {"kind": "group", "family": "F_2", "radius": 4}, "analyses": [{"analysis": "mv"}]},
        {**Z2_AXIS, "space": {"kind": "group", "family": "Z", "radius": 6},
         "analyses": [{"analysis": "mobility", "class": "fundamental"}]},
        {**Z2_AXIS, "analyses": [{"analysis": "mv", "component": "x"}]},
        {**FIG1, "analyses": [{"analysis": "almost-essential", "components": ["x"]}]},
        {**FIG1, "analyses": [{"analysis": "essential", "n": 1, "probe_index": 3,
                               "schedules": FIG1["analyses"][1]["schedules"]}]},
        {**Z2_AXIS, "space": {"kind": "group", "family": "F_2", "radius": 4},
         "analyses": [{"analysis": "mobility", "class": "edge-cut", "scale": 0}]},
        {**Z2_AXIS, "space": {"kind": "group", "family": "Z^2", "radius": 6},
         "analyses": [{"analysis": "mobility", "class": "edge-cut", "scale": 0}]},
        {**Z2_POINT, "analyses": [{"analysis": "acyclicity", "centers": {"sample": 3}}]},
    ],
    ids=[
        "centers-outside", "mv-axis-above-dimension", "mv-axis-without-coordinates",
        "fundamental-class-on-a-line", "component-not-a-name", "fixture-component-not-a-name",
        "probe-index-past-schedules", "edge-cut-without-edges-f2", "edge-cut-without-edges-z2",
        "centers-sample-none-collar-safe",
    ],
)
def test_space_dependent_checks_fail_their_analysis(tmp_path, payload):
    # these need the built space, so they end their own analysis as an error
    # entry. Each once ended in a traceback, except the last: with no centre
    # whose N_mu ball fits the window, sampling fell back to the basepoint,
    # whose ball the window clips, and reported ok
    p = write_scenario(tmp_path, "spacecheck", payload)
    assert main(["run", str(p), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "spacecheck.report.json").read_text())
    assert report["results"][0]["status"] == "error"
    assert report["results"][0]["error"] == "scenario-invalid"


def test_unknown_analysis_fails_validation_up_front(tmp_path):
    import pytest

    from coarsetop.errors import CoarseTopError

    scen = {
        "schema": 1,
        "space": {"kind": "fixture", "name": "line_in_plane", "radius": 6},
        "analyses": [{"analysis": "nonsense"}],
    }
    with pytest.raises(CoarseTopError) as err:
        run_scenario(scen)
    assert "analyses[0]" in str(err.value)


def test_missing_required_param_fails_validation(tmp_path):
    import pytest

    from coarsetop.errors import CoarseTopError

    scen = {
        "schema": 1,
        "space": {"kind": "fixture", "name": "line_in_plane", "radius": 6},
        "analyses": [{"analysis": "essential"}],  # n missing
    }
    with pytest.raises(CoarseTopError) as err:
        run_scenario(scen)
    assert "requires parameter" in str(err.value)


@pytest.mark.parametrize(
    "scenario",
    [
        {**Z2_AXIS, "analyses": [{"analysis": "separate", "colar": 3}]},
        {**Z2_POINT, "analyses": [{"analysis": "ends", "n": 0}]},
        {**Z2_AXIS, "caps": {"max_simplex": 100}},
    ],
    ids=["misspelt", "read-by-another-analysis", "cap"],
)
def test_unknown_name_fails_validation(scenario):
    from coarsetop.errors import CoarseTopError

    with pytest.raises(CoarseTopError, match="unknown parameter"):
        run_scenario(scenario)


def test_inconclusive_exit_code():
    scen = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z", "radius": 20},
        "w": {"kind": "point"},
        "analyses": [
            {
                "analysis": "acyclicity",
                "k_max": 0,
                "i_values": [1],
                "r_values": [2],
                "lambda_max": 1,
                "mu_max": 2,
                "centers": "basepoint",
            }
        ],
    }
    # lambda_max 1 and mu_max r: nothing to find beyond the trivial pair,
    # but intervals are connected, so this still succeeds; shrink the space
    # to two far points via a fixture-free route is not expressible here,
    # so instead force inconclusiveness through an essential probe without
    # surviving classes
    scen2 = {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 10},
        "w": {"kind": "point"},
        "analyses": [
            {"analysis": "essential", "n": 1, "components": ["0"],
             "schedules": [[3, 1, 1, 1, 2], [4, 1, 2, 1, 2], [5, 1, 3, 1, 2]]}
        ],
    }
    report, code = run_scenario(scen2)
    assert code == 2
    assert report["results"][0]["status"] == "inconclusive"
