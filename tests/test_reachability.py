"""Every definition in src/coarsetop is reachable from what a scenario runs.

An AST name scan: a module-level function or class, or a method, is reached
when reached code reads its name, as a name or as an attribute. The scan
starts from the module-level code of every module (``coarsetop.cli``'s
analysis table and ``main``, the console entry point), from every dunder
method, and from these roots:

- the helpers that acceptance criteria call directly
- ``FiniteMetricSpace.dist``, which tests read spaces with
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

Two more scans look inside the definitions, at the data they carry:

- a field (a class-body annotation, a ``__slots__`` entry or a ``self.name``
  assignment) is read when code in ``src/`` or ``tests/`` reads an attribute
  of its name, or names it to ``getattr``. The fields of the classes in
  ``SERIALISED``, which the CLI writes into reports with ``vars()``, count
  as read. This module's own attribute reads are of AST nodes and do not
  count.
- a parameter of a ``def`` is read when its body reads the name. ``self``
  and ``cls`` are exempt, and so is every method that a subclass overrides:
  its parameters are the interface's (``GroupModel``'s), not its own. A
  lambda is exempt too, as a callback whose caller fixes its signature.

Both match names by spelling, so they over-approximate reads as the
reachability scan does.

A last scan looks for knobs that only tests set. Of every function that
some code in ``src/`` calls, each defaulted parameter must be passed by
some call in ``src/``: by keyword, by position, or through ``*`` or
``**``. A class's name calls its ``__init__``, or for a dataclass or named
tuple its fields (those not marked ``init=False``); ``cls(...)`` calls
the class whose code it is in, and ``super().__init__(...)`` its bases.
Calls match by spelling, as in the other scans. The parameters in
``KNOB_EXEMPT`` are kept for callers outside ``src/``, each for the reason
given. The scan reads no values, so it cannot see a fork whose parameter
every call passes but whose default only a test selects (a ``None`` that
builds the piece a runner always hands over); such forks are found by
reading the calls.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import sys
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsetop"
TESTS = ROOT / "tests"

ACCEPTANCE_HELPERS = (
    "cochains:RelativeComplex.cohomology_dim",  # criterion 5
    "essential:two_sided_representability",  # criterion 6
    "essential:side_representability",
    "mobility:mobset_replay",  # criterion 7
    "gf2:GF2Matrix.from_rows",  # criterion 9
    "gf2:rank",
    "homology:AcyclicityProfile.uniform_bounds",  # criterion 10
)
TEST_SPACE_METHODS = ("metric:FiniteMetricSpace.dist",)
SERIALISED = ("homology:WindowSchedule", "separation:WindowSeparation")  # cli's vars(s) and vars(w)
KNOB_EXEMPT = {
    "cli:main(argv)": "the console entry point: the console passes no arguments, tests pass an argument list",
    "essential:essential_probe(max_witness_columns)": (
        "the seam that lets tests drive the local-then-resume fill on small fixtures"
    ),
}


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
        for node in _tree(text).body:
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


@functools.lru_cache(maxsize=None)
def _tree(text: str) -> ast.Module:
    """The parsed module, shared by the scans and read only."""
    return ast.parse(text)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _attribute_reads(trees) -> set[str]:
    """The attribute names the code reads: loaded attributes and ``getattr(x, "name")``."""
    out = set()
    for tree in trees:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", "") == "getattr" and len(sub.args) > 1:
                name = sub.args[1]
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    out.add(name.value)
    return out


@functools.lru_cache(maxsize=None)
def _test_reads() -> frozenset[str]:
    paths = sorted(p for p in TESTS.glob("*.py") if p.name != Path(__file__).name)
    return frozenset(_attribute_reads(_tree(p.read_text()) for p in paths))


def _classes(sources: dict[str, str]):
    """(module, class node) of every top-level class."""
    for module, text in sources.items():
        for node in _tree(text).body:
            if isinstance(node, ast.ClassDef):
                yield module, node


def unread_fields(sources: dict[str, str]) -> list[str]:
    """The fields, as "module:Class.name", that no code in src/ or tests/ reads."""
    reads = _attribute_reads(_tree(text) for text in sources.values()) | _test_reads()
    out = []
    for module, cls in _classes(sources):
        if f"{module}:{cls.name}" in SERIALISED:
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__slots__" for t in node.targets):
                names |= {e.value for e in node.value.elts}
        for sub in ast.walk(cls):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                    names.add(sub.attr)
        out += [f"{module}:{cls.name}.{name}" for name in names - reads]
    return sorted(out)


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """The parameters, as "module:function(name)", that their function's body never reads."""
    classes = {cls.name: cls for _, cls in _classes(sources)}
    methods = {name: {n.name for n in cls.body if isinstance(n, ast.FunctionDef)} for name, cls in classes.items()}

    def ancestors(name: str) -> list[str]:
        bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name) and b.id in classes]
        return [a for b in bases for a in (b, *ancestors(b))]

    overridden = {(base, m) for name in classes for base in ancestors(name) for m in methods[name] & methods[base]}
    out = []

    def visit(node, prefix: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                if owner and names[:1] in (["self"], ["cls"]):
                    names = names[1:]
                if (owner, child.name) not in overridden:
                    read = {
                        n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    }
                    out.extend(f"{prefix}{child.name}({name})" for name in names if name not in read)
                visit(child, f"{prefix}{child.name}.", "")
            else:
                visit(child, prefix, owner)

    for module, text in sources.items():
        visit(_tree(text), f"{module}:", "")
    return out


def _calls(sources: dict[str, str]) -> dict[str, list[ast.Call]]:
    """The calls in the sources, by the name they call.

    ``cls(...)`` calls the class whose code it is in, and
    ``super().__init__(...)`` the bases of that class, by their names.
    """
    out: dict[str, list[ast.Call]] = {}

    def visit(node, owner) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name):
                    names = [owner.name if f.id == "cls" and owner else f.id]
                elif isinstance(f, ast.Attribute) and f.attr == "__init__" and owner:
                    names = [b.id for b in owner.bases if isinstance(b, ast.Name)]
                else:
                    names = [f.attr] if isinstance(f, ast.Attribute) else []
                for name in names:
                    out.setdefault(name, []).append(child)
            visit(child, child if isinstance(child, ast.ClassDef) else owner)

    for text in sources.values():
        visit(_tree(text), None)
    return out


def _init_fields(cls: ast.ClassDef) -> Optional[list[tuple[str, bool]]]:
    """(name, has a default) of each constructor field of a dataclass or named tuple; None for other classes."""
    decorators = {ast.unparse(d).split("(")[0] for d in cls.decorator_list}
    if "dataclass" not in decorators and "NamedTuple" not in map(ast.unparse, cls.bases):
        return None
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                if getattr(keywords.get("init"), "value", True) is False:
                    continue
                out.append((node.target.id, bool(keywords.keys() & {"default", "default_factory"})))
            else:
                out.append((node.target.id, value is not None))
    return out


def _signatures(sources: dict[str, str]):
    """(key, the name a call uses, positional names, defaulted names) of every def and field-built class.

    A method is called by its own name and ``__init__`` by its class's; a
    method's ``self`` or ``cls`` is no positional name, since no call's
    argument lands on it.
    """

    def visit(module: str, node, prefix: str, owner: Optional[ast.ClassDef]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                fields = _init_fields(child)
                if fields is not None:
                    names, defaulted = [n for n, _ in fields], [n for n, d in fields if d]
                    yield f"{module}:{prefix}{child.name}", child.name, names, defaulted
                yield from visit(module, child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in (*a.posonlyargs, *a.args)]
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if owner and positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                called = owner.name if owner and child.name == "__init__" else child.name
                yield f"{module}:{prefix}{child.name}", called, positional, defaulted
                yield from visit(module, child, f"{prefix}{child.name}.", None)
            else:
                yield from visit(module, child, prefix, owner)

    for module, text in sources.items():
        yield from visit(module, _tree(text), "", None)


def _passes(call: ast.Call, name: str, at: Optional[int]) -> bool:
    """Whether the call passes parameter ``name``, the positional one at ``at`` (None: keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):  # by keyword, or through **
        return True
    return at is not None and (len(call.args) > at or any(isinstance(x, ast.Starred) for x in call.args))


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters, as "module:function(name)", of called functions that no call passes."""
    calls = _calls(sources)
    out = []
    for key, called, positional, defaulted in _signatures(sources):
        if called not in calls:
            continue
        for name in defaulted:
            at = positional.index(name) if name in positional else None
            if not any(_passes(call, name, at) for call in calls[called]):
                out.append(f"{key}({name})")
    return sorted(out)


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


def test_every_field_is_read():
    sources = _sources()
    assert set(SERIALISED) <= {f"{module}:{cls.name}" for module, cls in _classes(sources)}
    unread = unread_fields(sources)
    assert not unread, f"fields that nothing reads: {unread}: delete them"


def test_every_parameter_is_read():
    unread = unread_parameters(_sources())
    assert not unread, f"parameters that their function never reads: {unread}: delete them"


def test_the_scans_flag_an_unread_field_and_parameter():
    # the dimension that GF2Subspace and span_of once carried for no reader;
    # a field of a class written out by vars() counts as read
    sources = _sources()
    for module, old, new in [
        ("gf2", '__slots__ = ("pivots",', '__slots__ = ("ambient", "pivots",'),
        ("gf2", "def span_of(vectors: Iterable[int])", "def span_of(vectors: Iterable[int], ambient: int)"),
        ("separation", "    e_lower: Optional[int]\n", "    e_lower: Optional[int]\n    e_upper: int\n"),
    ]:
        assert sources[module].count(old) == 1
        sources[module] = sources[module].replace(old, new)
    assert unread_fields(sources) == ["gf2:GF2Subspace.ambient"]
    assert unread_parameters(sources) == ["gf2:span_of(ambient)"]


def test_every_default_is_passed_by_some_call():
    # a default that no call in src/ overrides is a knob that only tests
    # set: make it a constant, or make the parameter required
    assert unpassed_defaults(_sources()) == sorted(KNOB_EXEMPT), (
        "defaulted parameters that no call in src/ passes, against the named exemptions"
    )


@pytest.mark.parametrize(
    "call",
    [
        "",
        "mobility_set(R, a, D, centers=c)",
        "mobility_set(R, a, D, c)",
        "mobility_set(*args)",
        "mobility_set(R, a, D, **kw)",
    ],
    ids=["no-call", "keyword", "position", "star", "double-star"],
)
def test_the_knob_scan_flags_a_default_that_no_call_passes(call):
    # mobility_set's centers, which only a test once set; a call in src/
    # passing it by keyword, by position or through * or ** clears it
    sources = _sources()
    old = "    D: int,\n    collar: int = 2,\n) -> MobilityResult:"
    assert sources["mobility"].count(old) == 1
    sources["mobility"] = sources["mobility"].replace(
        old, "    D: int,\n    centers: Optional[Sequence[int]] = None,\n    collar: int = 2,\n) -> MobilityResult:"
    )
    if call:
        sources["cli"] += f"\n\ndef _caller(R, a, D, c, args, kw):\n    return {call}\n"
    flagged = ["mobility:mobility_set(centers)"] if not call else []
    assert unpassed_defaults(sources) == sorted([*KNOB_EXEMPT, *flagged])
