"""Boundary-only span tracing of the coarsetop layers, installed from outside.

The tracer replaces each function listed in ``BOUNDARIES`` with a wrapper
that records a span: calls, total (outermost) time and self time, where a
span's self time is its duration minus the time of the spans it caused.
A layer's self time is the sum of its functions' self times; whatever no
span covers (the CLI runners, report writing, the benchmark loop) is the
remainder ``cli.self_s``.

Only layer boundaries are wrapped. Per-bit and per-element helpers
(``gf2.lowbit``/``bits``, group multiplication, ``BallModel.act_left``)
run millions of times, and wrapping them more than doubled the wall time
of the scenarios they sit in; they are listed in ``NEVER_WRAPPED`` and
their time lands in the span that calls them.

Module-level functions are reached under several names, because modules
copy them with ``from .rips import build_rips``. Installing rebinds every
alias found in any ``coarsetop.*`` namespace; methods are patched on their
class. Generators handed to a ``gf2`` entry point (the lazily built
boundary columns of ``rips.fill_cycle`` and ``essential._fill_on_columns``)
are consumed through a timed iterator, so face lookups are charged to a
``rips.lazy_columns`` child span instead of to the elimination.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from time import perf_counter

# layer -> boundary functions, as "name" (module level) or "Class.method".
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "gf2": (
        "rank", "rank_of_columns", "solve", "solve_columns", "kernel_basis",
        "image_basis", "span_of", "quotient_image_rank",
        "GF2Matrix.transpose", "GF2Matrix.matmul",
    ),
    "rips": (
        "build_rips", "fill_cycle", "inclusion_chain_map", "induced_chain_map",
        "RipsComplex.boundary", "RipsComplex.simplices_within",
    ),
    "cochains": (
        "restriction_matrix", "extension_matrix",
        "RelativeComplex.__init__", "RelativeComplex.delta",
        "RelativeComplex.class_is_zero", "RelativeComplex.simplex_positions_within",
        "RelativeComplex.cocycle_basis", "RelativeComplex.coboundary_space",
        "RelativeComplex.cohomology_dim", "RelativeComplex.cochain_from_edge_predicate",
        "RelativeComplex.cochain_from_cup_product", "RelativeComplex.support_vertices",
        "RelativeComplex.support_diameter",
    ),
    "groups": (
        "build_ball", "subgroup_trace", "commensurability_probe", "trend_verdict",
        "BallModel.action_table", "BallModel.induced_space",
    ),
    "fixtures": ("grid_fixture", "crossing_cochain"),
    "metric": (
        "neighborhood", "hausdorff_distance",
        "FiniteMetricSpace.__init__", "FiniteMetricSpace.dist_row",
        "FiniteMetricSpace.dist_to_set", "FiniteMetricSpace.adjacency_at_scale",
        "FiniteMetricSpace.collar_mask", "FiniteMetricSpace.interior_mask",
        "FiniteMetricSpace.mask_where",
    ),
    "homology": (
        "reduced_homology", "two_scale_image", "two_scale_image_along", "class_survives",
        "annulus_mask", "schedule_two_scale", "ends_estimate", "uniform_acyclicity_probe",
        "pd_signature_check", "coarse_cohomology_dim_estimate",
    ),
    "separation": (
        "coarse_boundary", "is_coarse_complementary", "complement_components",
        "coarse_n_separation", "invariant_components", "stabilizer_trace",
        "almost_invariant_extract", "shallow_bound_check", "simplex_dichotomy_check",
    ),
    "essential": (
        "almost_essential_probe", "essential_probe", "mv_assemble", "connecting_map",
        "localized_boundary_support", "side_representability", "two_sided_representability",
    ),
    "mobility": (
        "local_representability", "mobility_set", "transport_cocycle", "stab_trace",
        "stab_mob_comparison", "coarse_manifold_detector", "Cocycle.validate",
        "Cocycle.is_zero_class",
    ),
}

# Hot helpers that must stay unwrapped: "module:name" or "module:Class.method".
NEVER_WRAPPED = (
    "gf2:lowbit", "gf2:bits", "gf2:popcount", "gf2:vector_from_indices",
    "gf2:GF2Matrix.matvec", "gf2:GF2Subspace.reduce", "gf2:GF2Subspace.extend",
    "groups:FreeAbelian.mul", "groups:FreeGroup.mul", "groups:Lamplighter.mul",
    "groups:BallModel.act_left", "groups:BallModel.act_right",
    "metric:FiniteMetricSpace.dist", "metric:SubsetMask.__contains__",
)

LAYERS = tuple(BOUNDARIES)
LAZY_COLUMNS = "rips.lazy_columns"
MAX_DIM = 3  # rips.simplices_d0..d3


def metric_name(layer: str, target: str) -> str:
    """Metric prefix of a boundary: ``RelativeComplex.delta`` -> ``cochains.delta``."""
    attr = target.rsplit(".", 1)[-1]
    if attr == "__init__":
        attr = target.split(".", 1)[0]
    return f"{layer}.{attr}"


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    active: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _TimedColumns:
    """Iterator over a lazy column generator that charges each step to rips."""

    __slots__ = ("_it", "_tracer", "_span", "count")

    def __init__(self, it, tracer: "Tracer"):
        self._it = it
        self._tracer = tracer
        self._span = tracer.span(LAZY_COLUMNS)
        self._span.calls += 1
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            col = next(self._it)
        finally:
            dt = perf_counter() - t0
            self._span.self_s += dt
            self._span.total_s += dt
            self._tracer.stack[-1][0] += dt
        self.count += 1
        self._span.add("count", 1)
        return col


class Tracer:
    """Span statistics for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.stack: list[list[float]] = [[0.0]]  # root frame collects top-level spans
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, object] = {}  # metric prefix -> original function

    def span(self, name: str) -> Span:
        sp = self.spans.get(name)
        if sp is None:
            sp = self.spans[name] = Span()
        return sp

    def covered_s(self) -> float:
        """Time spent inside top-level spans since the tracer was created."""
        return self.stack[0][0]

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        span = self.span(name)
        stack = self.stack
        lazy = name.startswith("gf2.")
        keys, count_hook = _COUNT_HOOKS.get(name, ((), None))
        for key in keys:
            span.counts[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            timed = None
            if lazy and args and isinstance(args[0], Iterator):
                timed = _TimedColumns(args[0], tracer)
                args = (timed,) + args[1:]
            frame = [0.0]
            stack.append(frame)
            span.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.active -= 1
                span.calls += 1
                span.self_s += dt - frame[0]
                if span.active == 0:
                    span.total_s += dt
                stack[-1][0] += dt
            if count_hook is not None:
                count_hook(span, args, result, timed)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self, package) -> None:
        """Wrap every boundary of the ``package`` (coarsetop) modules."""
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        self.span(LAZY_COLUMNS).counts["count"] = 0
        for layer, targets in BOUNDARIES.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for target in targets:
                name = metric_name(layer, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[attr]
                    self._patch(owner, attr, self._wrap(name, original))
                    self.wrapped[name] = original
                    continue
                original = getattr(module, target)
                wrapper = self._wrap(name, original)
                self.wrapped[name] = original
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- counts recorded at the boundaries ----------------------------------------------


def _count_solve(span: Span, args, result, timed) -> None:
    cols = args[0]
    span.add("columns", timed.count if timed is not None else len(cols))
    span.add("feasible", result is not None)


def _count_rips(span: Span, args, result, timed) -> None:
    for k in range(MAX_DIM + 1):
        span.add(f"simplices_d{k}", result.n_simplices(k))


def _count_ball(span: Span, args, result, timed) -> None:
    span.add("points", len(result.elements))


def _count_fixture(span: Span, args, result, timed) -> None:
    span.add("points", result.space.n)


# span -> (count keys, hook that adds them after each call)
_COUNT_HOOKS = {
    "gf2.solve_columns": (("columns", "feasible"), _count_solve),
    "rips.build_rips": (tuple(f"simplices_d{k}" for k in range(MAX_DIM + 1)), _count_rips),
    "groups.build_ball": (("points",), _count_ball),
    "fixtures.grid_fixture": (("points",), _count_fixture),
}
