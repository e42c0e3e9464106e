"""Every memo in src/coarsetop is read back on the benchmark's scenarios.

A memo is a dict attribute that code both looks keys up in (``.get(key)``
or ``key in``) and stores into by subscript. An AST scan of the package
finds each memo and the class whose ``__init__`` or fields create it. The
test wraps those ``__init__`` methods so that every new instance holds a
counting dict in place of each memo; the dict counts the lookups that find
their key. It then runs one pass of the 8 pinned scenarios at seed 0 and
requires at least one hit per memo. A memo that is never hit keeps its
values alive and buys nothing. A memo that may go unhit is named in
``EXEMPT`` with its reason.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

from test_pinned_reports import _runner

SRC = Path(__file__).resolve().parent.parent / "src" / "coarsetop"

# the memos of src/ when this test was written; the scan must find at least these
MEMOS = (
    "RipsComplex._cycle_cache",
    "RelativeComplex._delta_cache",
    "RelativeComplex._image_cache",
    "RelativeComplex._cocycle_cache",
    "RelativeComplex._positions",
    "FiniteMetricSpace._row_cache",
    "FiniteMetricSpace._scale_adj_cache",
    "MVPieces.e_mats",
    "ScenarioContext._components",
)
# "Class.memo" -> why the scenarios may leave it unhit
EXEMPT = {
    "FiniteMetricSpace._row_cache": (
        "a pass asks for 4 distance rows, the acyclicity probe's centres, each once; the readers that "
        "ask again (dist, support_diameter, fill_cycle's locality, induced_chain_map) are reached by "
        "no pinned scenario"
    ),
}


def _self_assigned(cls: ast.ClassDef) -> set[str]:
    """The attributes a class creates: annotated fields of its body and ``self.name = ...`` in its methods."""
    out = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    for node in ast.walk(cls):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for t in targets:
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                out.add(t.attr)
    return out


def memos() -> dict[str, tuple[str, str]]:
    """Each memo as "Class.name" -> (module, class), found by reading the sources."""
    looked, stored, owners = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                if isinstance(node.func.value, ast.Attribute):
                    looked.add(node.func.value.attr)
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                looked.update(c.attr for c in node.comparators if isinstance(c, ast.Attribute))
            for t in node.targets if isinstance(node, ast.Assign) else []:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute):
                    stored.add(t.value.attr)
            if isinstance(node, ast.ClassDef):
                owners.append((path.stem, node.name, _self_assigned(node)))
    return {
        f"{cls}.{name}": (module, cls)
        for name in looked & stored
        for module, cls, attrs in owners
        if name in attrs
    }


def _counting_init(init, names: list[str], hits: Counter):
    """``init``, then each named memo of the new instance swapped for a :class:`CountingDict`."""

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for memo in names:
            attr = memo.split(".", 1)[1]
            setattr(self, attr, CountingDict(memo, hits, getattr(self, attr)))

    return counting_init


class CountingDict(dict):
    """A dict that counts, under its memo's name, the lookups that find their key."""

    def __init__(self, name: str, hits: Counter, items: dict):
        super().__init__(items)
        self.name, self.hits = name, hits

    def get(self, key, default=None):
        if key in self.keys():
            self.hits[self.name] += 1
            return self[key]
        return default

    def __contains__(self, key) -> bool:
        found = key in self.keys()
        self.hits[self.name] += found
        return found


def test_the_scan_finds_every_known_memo():
    assert set(MEMOS) <= set(memos())


def test_every_memo_is_hit_on_the_pinned_scenarios(tmp_path, monkeypatch):
    run = _runner()
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # prepare() may put src/ first
    run.prepare("group-balls")  # imports the package from this checkout
    found = memos()
    hits: Counter = Counter()
    per_class: dict[tuple[str, str], list[str]] = {}
    for memo, owner in found.items():
        per_class.setdefault(owner, []).append(memo)
    for (module, cls_name), names in per_class.items():
        cls = getattr(importlib.import_module(f"coarsetop.{module}"), cls_name)
        monkeypatch.setattr(cls, "__init__", _counting_init(cls.__init__, names, hits))
    pins = json.loads(run.PINNED.read_text())
    for workload in sorted(p.name for p in run.SCENARIOS.iterdir() if p.is_dir()):
        cli, scenarios, _ = run.prepare(workload)
        result = run.run_pass(cli, scenarios, pins, run.DEFAULT_SEED)
        assert result["correct"] == result["attempted"], workload
    unhit = sorted(memo for memo in found if not hits[memo] and memo not in EXEMPT)
    assert not unhit, f"memos never hit over the pinned scenarios: {unhit}"
