"""Every definition in src/coarsetop is reachable from what a scenario runs.

An AST name scan: a module-level function or class, or a method, is reached
when reached code reads its name, as a name or as an attribute. The scan
starts from the module-level code of every module (``coarsetop.cli``'s
analysis table and ``main``, the console entry point), from every dunder
method, and from these roots:

- the helpers that acceptance criteria call directly
- ``FiniteMetricSpace.from_table`` and ``.dist``, which tests build and
  read spaces with
- the names that the benchmark's tracer wraps (``BOUNDARIES``) or must leave
  unwrapped (``NEVER_WRAPPED``), read from ``perfbench/spans.py``

Names match by spelling alone, so the scan over-approximates: a method is
reached when any reached code reads an attribute of that name. Two kinds of
method are the exception. A classmethod is reached only by a qualified read:
``Class.name`` (also as ``module.Class.name``), or ``cls.name`` inside its
own class. So ``model.identity()`` on a group model reaches no ``identity``
classmethod of a matrix class. A method whose name is also a field of a
class (an annotated class attribute, as in a dataclass, or a ``self.name``
assignment) is reached only by a call ``x.name(...)`` or a qualified read, so
reads of ``CoarseComponent.mask`` reach no ``mask`` method. A definition
it does not reach is dead code, or a test helper that belongs in
``tests/oracles.py``. When the benchmark stops naming a function, this test
flags it for deletion.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsetop"

ACCEPTANCE_HELPERS = (
    "cochains:RelativeComplex.cohomology_dim",  # criterion 5
    "essential:two_sided_representability",  # criterion 6
    "essential:side_representability",
    "mobility:mobset_replay",  # criterion 7
    "gf2:GF2Matrix.from_rows",  # criterion 9
    "gf2:rank",
    "homology:AcyclicityProfile.uniform_bounds",  # criterion 10
)
TEST_SPACE_METHODS = ("metric:FiniteMetricSpace.from_table", "metric:FiniteMetricSpace.dist")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up as the file runs
    spec.loader.exec_module(module)
    return module


def roots() -> set[str]:
    """The scan's roots as "module:name" or "module:Class.method"."""
    spans = _spans()
    wrapped = {f"{layer}:{target}" for layer, targets in spans.BOUNDARIES.items() for target in targets}
    return {*ACCEPTANCE_HELPERS, *TEST_SPACE_METHODS, *wrapped, *spans.NEVER_WRAPPED}


def _read(nodes, owner: str = "") -> set[str]:
    """The names that the code reads: every Name and every attribute name.

    An attribute of a name or of an attribute is read qualified as well, as
    "Base.attr"; in the code of class ``owner``, ``cls.attr`` reads as
    "owner.attr". An attribute that is called is read as "attr()" as well.
    """
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                out.add(f"{sub.func.attr}()")
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
                base = sub.value
                qual = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                if qual == "cls" and owner:
                    qual = owner
                if qual:
                    out.add(f"{qual}.{sub.attr}")
    return out


def _is_classmethod(method) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in method.decorator_list)


def _fields(cls) -> set[str]:
    """The field names of a class: annotated class attributes and ``self.name`` assignments."""
    out = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
    for sub in ast.walk(cls):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                out.add(sub.attr)
    return out


def scan(sources: dict[str, str], start: set[str]) -> tuple[set[str], set[str]]:
    """(definitions, reached) of the modules' sources, from the roots ``start``."""
    reads: dict[str, set[str]] = {}  # definition -> the names its code reads
    names: set[str] = set()  # the names that reached code reads
    classmethods: set[str] = set()  # reached only by a qualified read
    fields: set[str] = set()  # a method of such a name is reached only by a call or a qualified read
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads[f"{module}:{node.name}"] = _read([node])
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [n for n in node.body if n not in methods]
                reads[f"{module}:{node.name}"] = _read([*node.bases, *node.decorator_list, *rest], node.name)
                fields |= _fields(node)
                for method in methods:
                    key = f"{module}:{node.name}.{method.name}"
                    reads[key] = _read([method], node.name)
                    if _is_classmethod(method):
                        classmethods.add(key)
            else:
                names |= _read([node])
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, read in reads.items():
            qualified = key.partition(":")[2]
            leaf = qualified.rpartition(".")[2]
            dunder = leaf.startswith("__") and leaf.endswith("__")
            if key in classmethods:
                wanted = {qualified}
            elif "." in qualified and leaf in fields:
                wanted = {qualified, f"{leaf}()"}
            else:
                wanted = {leaf}
            if key not in reached and (key in start or dunder or not wanted.isdisjoint(names)):
                reached.add(key)
                names |= read
                grew = True
    return set(reads), reached


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_reached():
    start = roots()
    defined, reached = scan(_sources(), start)
    assert start <= defined, f"roots that name no definition: {sorted(start - defined)}"
    unreached = sorted(defined - reached)
    assert not unreached, f"no scenario reaches {unreached}: delete them, or move test helpers to tests/oracles.py"


def test_the_scan_flags_an_unreferenced_definition():
    sources = _sources()
    sources["gf2"] += "\n\ndef orphan():\n    return rank\n"
    sources["metric"] += "\n\nclass Orphan:\n    def rank_all(self):\n        return 0\n"
    defined, reached = scan(sources, roots())
    assert defined - reached == {"gf2:orphan", "metric:Orphan", "metric:Orphan.rank_all"}


def test_a_classmethod_is_reached_only_by_a_qualified_read():
    # groups' reached code reads model.identity(), which reaches no
    # classmethod named identity. Nothing reads Square, so Square.identity
    # is flagged, and so is Square.unit, read only by Square.identity
    # through cls. Cube.identity is read qualified and reaches Cube.unit
    # through cls
    sources = _sources()
    sources["gf2"] += (
        "\n\nclass Square:\n"
        "    @classmethod\n    def identity(cls, n):\n        return cls.unit(n)\n\n"
        "    @classmethod\n    def unit(cls, n):\n        return n\n"
        "\n\nclass Cube:\n"
        "    @classmethod\n    def identity(cls, n):\n        return cls.unit(n)\n\n"
        "    @classmethod\n    def unit(cls, n):\n        return n\n"
        "\n\nCUBE = Cube.identity(1)\n"
    )
    defined, reached = scan(sources, roots())
    assert defined - reached == {"gf2:Square", "gf2:Square.identity", "gf2:Square.unit"}


def test_a_method_named_like_a_field_is_reached_only_by_a_call():
    # reached code reads the field CoarseComponent.mask, c.mask, but calls
    # no mask(...), so a FiniteMetricSpace.mask method is flagged; a call
    # X.mask(...) in reached code reaches it
    sources = _sources()
    method = "    def mask(self, ids):\n        return SubsetMask(self.n, ids)\n\n    def full_mask(self)"
    sources["metric"] = sources["metric"].replace("    def full_mask(self)", method, 1)
    defined, reached = scan(sources, roots())
    assert defined - reached == {"metric:FiniteMetricSpace.mask"}
    sources["metric"] += "\n\nMASK_OF = lambda X: X.mask([0])\n"
    defined, reached = scan(sources, roots())
    assert defined == reached
