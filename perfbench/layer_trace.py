"""Per-layer attribution for the traced benchmark run.

``LayerProbe`` wraps each layer's public callables in spans of the
program's own tracer (``repro.obs``): class methods are patched on the
class, module functions at the name their caller looks up.  With the
program's stage, kernel and stream spans in the same tracer, one span
tree covers the run, and a layer's *self* time is its spans' duration
minus the duration of the spans nested directly inside them.

Every wrapper only times and counts; arguments and results pass through
untouched, so traced and untraced runs compute the same masks and
answers (the benchmark checks this).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict

from repro import obs
from repro.serve import QueryEngine
from repro.solvers import DirectSolver
from repro.stream import DynamicSparsifier
from repro.trees import TreeSolver

#: (module, function name, span name): patched where the caller looks it up.
FUNCTION_LAYERS = (
    ("repro.graphs.io", "load_graph_matrix_market", "graphs.read"),
    ("repro.kernels.reference", "low_stretch_tree", "trees.lsst"),
    ("repro.stream.dynamic", "low_stretch_tree", "trees.lsst"),
    ("repro.stream.dynamic", "complete_forest", "trees.forest_repair"),
    ("repro.spectral.extreme", "generalized_power_iteration",
     "spectral.power_iter"),
    ("repro.kernels.estimator", "generalized_power_iteration",
     "spectral.power_iter"),
    ("repro.stream.dynamic", "generalized_power_iteration",
     "spectral.power_iter"),
)

#: (class, method name, span name): patched on the class.
METHOD_LAYERS = (
    (TreeSolver, "solve", "trees.tree_solve"),
    (DirectSolver, "__init__", "solvers.factorize"),
    (DirectSolver, "solve", "solvers.solve"),
    (DirectSolver, "update", "solvers.woodbury"),
    (DynamicSparsifier, "apply", "stream.apply"),
    (QueryEngine, "resistance", "serve.resistance"),
)

#: The program's own span names mapped to the layer they belong to.
PROGRAM_LAYERS = {"stream.batch": "stream.apply"}

#: Span of the benchmark's own bookkeeping inside a traced region (the
#: L+U nonzero count read after each factorization); neither a layer
#: nor unattributed time.
PROBE_SPAN = "trace.probe"


def _spanned(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.get_tracer().span(name, category="bench"):
            return fn(*args, **kwargs)
    return wrapper


def _spanned_solve(fn, name):
    @functools.wraps(fn)
    def wrapper(self, b):
        columns = 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
        with obs.get_tracer().span(name, category="bench", columns=columns):
            return fn(self, b)
    return wrapper


def _spanned_factorize(fn, name):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer = obs.get_tracer()
        with tracer.span(name, category="bench"):
            fn(self, *args, **kwargs)
        with tracer.span(PROBE_SPAN, category="bench", nnz=self.factor_nnz):
            pass
    return wrapper


class LayerProbe:
    """Context manager that traces one region of the benchmark.

    On entry it installs a fresh :class:`repro.obs.Tracer` and
    :class:`repro.obs.MetricsRegistry` and the layer wrappers; on exit
    it restores both.  ``tracer`` and ``metrics`` stay readable after.
    """

    def __init__(self) -> None:
        self.tracer = obs.Tracer()
        self.metrics = obs.MetricsRegistry()
        self._undo: list = []

    def __enter__(self) -> "LayerProbe":
        for module_name, attr, span in FUNCTION_LAYERS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, _spanned(getattr(module, attr), span))
        for cls, attr, span in METHOD_LAYERS:
            original = cls.__dict__[attr]
            if attr == "__init__":
                wrapped = _spanned_factorize(original, span)
            elif span.endswith("solve"):
                wrapped = _spanned_solve(original, span)
            else:
                wrapped = _spanned(original, span)
            self._patch(cls, attr, wrapped)
        self._previous = (obs.get_tracer(), obs.get_metrics())
        obs.configure(tracer=self.tracer, metrics=self.metrics)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        obs.configure(tracer=self._previous[0], metrics=self._previous[1])
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def counter(self, name: str, **labels) -> float:
        """Current value of one of the program's counters."""
        return self.metrics.counter(name, labelnames=tuple(labels)).value(**labels)


def self_times(records) -> list[tuple[object, float, object]]:
    """``(record, self seconds, parent record)`` for every span.

    A span's parent is the innermost span open on the same thread when
    it started; its self time is its duration minus its children's.
    """
    ordered = sorted(records, key=lambda r: (r.tid, r.start, r.depth))
    child_time: dict[int, float] = defaultdict(float)
    parents: dict[int, object] = {}
    open_at: dict[tuple[int, int], object] = {}
    for record in ordered:
        open_at[(record.tid, record.depth)] = record
        parent = open_at.get((record.tid, record.depth - 1)) if record.depth else None
        parents[id(record)] = parent
        if parent is not None:
            child_time[id(parent)] += record.duration
    return [(r, r.duration - child_time[id(r)], parents[id(r)]) for r in ordered]


def layer_of(name: str) -> str:
    """Layer metric stem of a span name: ``kernel.x`` → ``kernels.x``,
    the program's stage spans → ``core.stage.<name>``."""
    if name in PROGRAM_LAYERS:
        return PROGRAM_LAYERS[name]
    if name.startswith("kernel."):
        return "kernels." + name[len("kernel."):]
    if name.split(".", 1)[0] in ("graphs", "trees", "solvers", "spectral",
                                 "stream", "serve"):
        return name
    return "core.stage." + name


#: Layers reported as ``<layer>_s`` self time.
TIMED_LAYERS = (
    "graphs.read", "trees.lsst", "trees.tree_solve", "trees.forest_repair",
    "solvers.factorize", "solvers.solve", "solvers.woodbury",
    "spectral.power_iter",
    "kernels.lsst", "kernels.embedding", "kernels.filtering",
    "kernels.scoring", "kernels.estimator",
    "core.stage.tree", "core.stage.densify", "core.stage.densify.estimate",
    "core.stage.densify.embedding", "core.stage.densify.filter",
    "core.stage.densify.similarity",
    "stream.apply", "serve.resistance",
)
#: Layers whose call count is reported as ``<layer>_calls``.
COUNTED_LAYERS = ("trees.tree_solve", "trees.forest_repair",
                  "solvers.factorize", "solvers.woodbury",
                  "spectral.power_iter")
#: ``caller`` labels of the program's ``repro_solver_solves_total``.
SOLVE_CALLERS = ("embedding", "estimate", "resistance", "serve")
#: ``tier`` labels of the program's ``repro_stream_repairs_total``.
STREAM_TIERS = ("solver_absorb", "tree_repair", "tree_rebuild", "redensify")


def attribute(probe: LayerProbe, wall: float | None) -> dict:
    """Per-layer metrics of one traced region.

    Parameters
    ----------
    probe:
        The finished :class:`LayerProbe` of the region.
    wall:
        The region's wall time; spans cover part of it, and the rest is
        reported as ``trace.unattributed_ratio``.  ``None`` skips that.

    Returns
    -------
    dict
        Self time per layer, call counts, solve columns, the program's
        counters, and the unattributed share.
    """
    entries = self_times(probe.tracer.records())
    parents = {id(record): parent for record, _, parent in entries}
    out = {f"{layer}_s": 0.0 for layer in TIMED_LAYERS}
    out["trace.other_s"] = 0.0
    calls = defaultdict(int)
    columns = serve_columns = nnz = 0
    covered = 0.0
    for record, own, parent in entries:
        if parent is None:
            covered += record.duration
        if record.name == PROBE_SPAN:
            nnz += record.args["nnz"]
            continue
        layer = layer_of(record.name)
        calls[layer] += 1
        key = f"{layer}_s" if f"{layer}_s" in out else "trace.other_s"
        out[key] += own
        if layer == "solvers.solve":
            columns += record.args["columns"]
            node = parent
            while node is not None and node.name != "serve.resistance":
                node = parents[id(node)]
            if node is not None:
                serve_columns += record.args["columns"]
    for layer in COUNTED_LAYERS:
        out[f"{layer}_calls"] = calls[layer]
    out["solvers.factor_nnz"] = nnz
    out["solvers.solve_columns"] = columns
    out["serve.columns"] = serve_columns
    solves = probe.metrics.snapshot().get("repro_solver_solves_total", {})
    for caller in SOLVE_CALLERS:
        out[f"solvers.solves.{caller}"] = sum(
            count for labels, count in solves.get("values", {}).items()
            if json.loads(labels)[-1] == caller)
    out["solvers.refactor_requests"] = probe.counter(
        "repro_woodbury_refactor_requests_total")
    for tier in STREAM_TIERS:
        out[f"stream.tier_{tier}"] = probe.counter(
            "repro_stream_repairs_total", tier=tier)
    if wall is not None:
        out["trace.unattributed_ratio"] = max(0.0, wall - covered) / wall
    return out
