"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest -q perfbench/selftest.py``.
The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

run.prepare("group-balls")  # puts the checkout's src/ on sys.path
import coarsetop  # noqa: E402
from coarsetop import cli  # noqa: E402

for _info in pkgutil.iter_modules(coarsetop.__path__):
    importlib.import_module(f"coarsetop.{_info.name}")

SPEC = json.loads(run.SPEC.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _namespaces():
    return [m for n, m in sys.modules.items() if n == "coarsetop" or n.startswith("coarsetop.")]


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = sys.modules[f"coarsetop.{module}"]
    if "." in path:
        cls, path = path.split(".")
        owner = getattr(owner, cls)
    return vars(owner)[path]


def test_every_alias_of_a_wrapped_function_is_rebound():
    with spans.Tracer() as tracer:
        tracer.install(coarsetop)
        assert len(tracer.wrapped) == sum(len(t) for t in spans.BOUNDARIES.values())
        originals = {id(fn): name for name, fn in tracer.wrapped.items()}
        for ns in _namespaces():
            for key, value in vars(ns).items():
                assert id(value) not in originals, f"{ns.__name__}.{key} still unwrapped"
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        assert id(member) not in originals, f"{value.__name__}.{attr} unwrapped"
        assert getattr(cli.build_rips, "__wrapped_by_perfbench__", False)
        assert getattr(coarsetop.essential.fill_cycle, "__wrapped_by_perfbench__", False)
    for ns in _namespaces():
        for value in vars(ns).values():
            assert not getattr(value, "__wrapped_by_perfbench__", False)


def test_per_bit_helpers_stay_unwrapped():
    with spans.Tracer() as tracer:
        tracer.install(coarsetop)
        for target in spans.NEVER_WRAPPED:
            assert not getattr(_resolve(target), "__wrapped_by_perfbench__", False), target


def test_workloads_cover_every_analysis():
    seen = set()
    for workload in WORKLOADS:
        _, scenarios, _ = run.prepare(workload)
        seen |= {a["analysis"] for _, _, s in scenarios for a in s["analyses"]}
    assert seen == set(cli.ANALYSES)


def test_every_scenario_is_pinned():
    pins = json.loads(run.PINNED.read_text())
    keys = set()
    for workload in WORKLOADS:
        _, scenarios, _ = run.prepare(workload)
        for key, _, scenario in scenarios:
            keys.add(key)
            assert [e["analysis"] for e in pins[key]["entries"]] == [
                a["analysis"] for a in scenario["analyses"]
            ]
    assert keys == set(pins)


def _traced_pass(scenarios, pins):
    with spans.Tracer() as tracer:
        tracer.install(coarsetop)
        traced = run.run_pass(cli, scenarios, pins, run.DEFAULT_SEED)
    return tracer, traced


def test_traced_counts_repeat_and_self_times_add_up(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    pins = json.loads(run.PINNED.read_text())
    _, fig, _ = run.prepare("fig2-essential")
    _, cocycle, _ = run.prepare("cocycle-queries")
    small = [s for s in fig + cocycle if s[0].endswith(("fig1_halfplane_flap_R12", "line_in_plane_R8"))]
    assert len(small) == 2

    def counts(tracer):
        return {
            name: (sp.calls, dict(sp.counts)) for name, sp in tracer.spans.items() if sp.calls
        }

    first, traced = _traced_pass(small, pins)
    second, _ = _traced_pass(small, pins)
    assert traced["correct"] == traced["attempted"]
    assert counts(first) == counts(second)
    lazy = first.spans[spans.LAZY_COLUMNS]
    assert lazy.counts["count"] > 0
    values = run.per_layer(first, traced, traced)
    layers = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(first.covered_s())
    assert 0 <= values["cli.self_s"] < traced["wall_s"]
    assert all(sp.self_s >= 0 for sp in first.spans.values())
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names <= set(values), names - set(values)


def test_end_to_end_metrics_are_produced():
    passes = [{"wall_s": 2.0, "slowest_s": 1.5, "attempted": 4, "correct": 4}]
    values = run.end_to_end(passes, 0.1)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(values)
    assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
