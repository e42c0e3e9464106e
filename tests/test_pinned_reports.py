"""Every benchmark scenario reproduces its pinned report bytes at the default seed.

The scenarios under ``perfbench/scenarios`` cover all nine analyses, and
``perfbench/pinned.json`` holds the sha256 of each report and of each of its
entries. This runs one pass of every workload through the benchmark's own
runner, loaded read-only from ``perfbench/run.py``, with reports written to
a temporary directory. A pass counts an analysis correct only when its entry
digest matches, and none when the report bytes differ, so any change of a
verdict, witness or report byte fails here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up as the file runs
    spec.loader.exec_module(module)
    return module


def _runner():
    """``perfbench/run.py`` as a module; the ``spans`` it imports is read from its file unless imported."""
    if "spans" not in sys.modules:
        _load("spans", BENCH / "spans.py")
    return _load("perfbench_run", BENCH / "run.py")


def test_every_pinned_report_is_reproduced(tmp_path, monkeypatch):
    run = _runner()
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # prepare() may put src/ first
    pins = json.loads(run.PINNED.read_text())
    ran = []
    for workload in sorted(p.name for p in run.SCENARIOS.iterdir() if p.is_dir()):
        cli, scenarios, _ = run.prepare(workload)
        result = run.run_pass(cli, scenarios, pins, run.DEFAULT_SEED)
        assert result["correct"] == result["attempted"], workload
        ran += [key for key, _, _ in scenarios]
    assert sorted(ran) == sorted(pins)
