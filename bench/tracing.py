"""Span recording for the traced benchmark run, and the per-layer metrics
derived from the spans.

The tracer wraps module attributes of the qlab layer modules (and a few
methods) from outside the package, so the program itself is unchanged.
Spans are kept in memory as ``[name, start, end, parent, job]`` lists and
written out once, when the traced process ends.

This module imports neither numpy nor qlab at import time: the parent
process uses the span arithmetic without loading the numerical stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("geometry", "potentials", "operator_core", "estimators",
          "dynamics", "parametrix", "cli")

# private functions worth a span of their own
_EXTRA = {"geometry": ("_panel_gauss",)}
# modules whose public functions are not wrapped (only the listed ones are)
_ONLY = {"cli": ("main",)}
_METHODS = (("operator_core", "SpectralDecomposition",
             ("node_values", "project", "synthesize")),
            ("estimators", "ExperimentReport", ("write_csv", "write_json")))

GRID_CONSTRUCTORS = ("geometry.zonal_grid", "geometry.full_sphere_grid",
                 "geometry.torus_grid")
GRID_SPANS = GRID_CONSTRUCTORS + ("geometry.default_grid", "geometry._panel_gauss",
                              "geometry.gauss_gegenbauer")
APPLY_SPANS = ("operator_core.SpectralDecomposition.project",
               "operator_core.SpectralDecomposition.synthesize",
               "operator_core.multiplier")
REPORT_SPANS = ("estimators.projector_growth_report", "estimators.local_weyl_report",
                "estimators.uniform_resolvent_probe", "estimators.divergent_quasimode")
WRITE_SPANS = ("estimators.atomic_write_text", "estimators.ExperimentReport.write_csv",
               "estimators.ExperimentReport.write_json")
STRICHARTZ_SPANS = ("dynamics.strichartz_report", "dynamics.band_bound_report",
                    "dynamics.strichartz_ratio")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {"grid_nodes": 0, "gauss_rule_calls": 0, "modes": 0,
                       "modes_cubed": 0, "assemble_checked": 0,
                       "node_values_calls": 0, "projector_bands": 0,
                       "ascent_bands": 0, "stagnated_bands": 0,
                       "bytes_written": 0}
        self.gauss_rules = set()
        self.decomps_seen = 0

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def install(self, qlab_package):
        """Replace public layer functions and selected methods by traced
        wrappers.  Calls inside a module resolve names through the module
        namespace, so they are traced as well."""
        for layer in LAYERS:
            module = importlib.import_module(f"{qlab_package.__name__}.{layer}")
            names = _ONLY.get(layer)
            if names is None:
                names = [n for n, obj in vars(module).items()
                         if not n.startswith("_") and inspect.isfunction(obj)
                         and obj.__module__ == module.__name__]
                names += list(_EXTRA.get(layer, ()))
            for n in names:
                setattr(module, n, self.wrap(f"{layer}.{n}", getattr(module, n)))
        for layer, cls_name, methods in _METHODS:
            module = importlib.import_module(f"{qlab_package.__name__}.{layer}")
            cls = getattr(module, cls_name)
            for m in methods:
                setattr(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["gauss_rules_distinct"] = len(self.gauss_rules)
        counts["decomps_read"] = self.decomps_seen
        return {"spans": self.spans, "counts": counts}


# -- observers: counts taken at the same boundaries as the spans -----------

def _grid_built(tr, args, kwargs, grid):
    tr.counts["grid_nodes"] += int(grid.size)


def _gauss_rule(tr, args, kwargs, out):
    tr.counts["gauss_rule_calls"] += 1
    m = args[0] if args else kwargs["m"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    tr.gauss_rules.add((int(m), float(alpha)))


def _diagonalized(tr, args, kwargs, decomp):
    j = int(decomp.size)
    tr.counts["modes"] += j
    tr.counts["modes_cubed"] += j ** 3


def _assembled(tr, args, kwargs, out):
    V = args[0] if args else kwargs.get("V")
    check = args[3] if len(args) > 3 else kwargs.get("check", False)
    if check and V is not None:
        tr.counts["assemble_checked"] += 1


def _node_values(tr, args, kwargs, out):
    tr.counts["node_values_calls"] += 1
    decomp = args[0]
    if not getattr(decomp, "_bench_seen", False):
        decomp._bench_seen = True
        tr.decomps_seen += 1


def _projector(tr, args, kwargs, res):
    tr.counts["projector_bands"] += 1
    if not (math.isinf(res.p) or res.p == 2):
        tr.counts["ascent_bands"] += 1
        tr.counts["stagnated_bands"] += int(bool(res.stagnation))


def _written(tr, args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.counts["bytes_written"] += len(text.encode())


_OBSERVERS = {name: _grid_built for name in GRID_CONSTRUCTORS}
_OBSERVERS.update({
    "geometry.gauss_gegenbauer": _gauss_rule,
    "operator_core.diagonalize": _diagonalized,
    "operator_core.assemble": _assembled,
    "operator_core.SpectralDecomposition.node_values": _node_values,
    "estimators.projector_norm": _projector,
    "estimators.atomic_write_text": _written,
})


# -- span arithmetic ---------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = union_length((max(k[1], span[1]), min(k[2], span[2])) for k in kids)
        out.append(span[2] - span[1] - covered)
    return out


def covered(spans, names) -> float:
    """Time inside any span whose name is listed, nesting counted once."""
    names = set(names)
    return union_length((s[1], s[2]) for s in spans if s[0] in names)


def covered_prefix(spans, prefix) -> float:
    return union_length((s[1], s[2]) for s in spans if s[0].startswith(prefix))


# -- per-layer metrics ---------------------------------------------------------

# name -> unit; every traced run reports all of them
PER_LAYER = {
    "geometry.grid_s": "s",
    "geometry.basis_s": "s",
    "geometry.grid_nodes": "count",
    "geometry.gauss_rule_calls": "count",
    "geometry.gauss_rule_reuse": "ratio",
    "potentials.kato_s": "s",
    "potentials.kato_modulus_calls": "count",
    "potentials.lq_norm_s": "s",
    "operator_core.diagonalize_s": "s",
    "operator_core.modes": "count",
    "operator_core.diag_gflops_computed": "GFLOP/s",
    "operator_core.assemble_s": "s",
    "operator_core.assemble_checked": "count",
    "operator_core.node_values_s": "s",
    "operator_core.node_values_calls": "count",
    "operator_core.node_values_per_decomp": "ratio",
    "operator_core.apply_s": "s",
    "estimators.projector_s": "s",
    "estimators.projector_bands": "count",
    "estimators.stagnated_bands": "count",
    "estimators.ascent_useful_ratio": "ratio",
    "estimators.report_s": "s",
    "estimators.write_s": "s",
    "estimators.bytes_written": "bytes",
    "dynamics.strichartz_s": "s",
    "dynamics.square_function_s": "s",
    "dynamics.probe_s": "s",
    "parametrix.kernel_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "bench.wall_s_untraced": "s",
    "bench.wall_s_traced": "s",
    "bench.trace_overhead_s": "s",
}


def process_sums(trace: dict) -> dict:
    """Additive per-layer quantities of one traced process."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    sums = {
        "grid_s": covered(spans, GRID_SPANS),
        "basis_s": sum(t for s, t in zip(spans, own) if s[0] == "geometry.build_basis"),
        "kato_s": covered(spans, ("potentials.kato_report",)),
        "kato_modulus_calls": sum(1 for s in spans if s[0] == "potentials.kato_modulus"),
        "lq_norm_s": covered(spans, ("potentials.potential_lq_norm",)),
        "diagonalize_s": covered(spans, ("operator_core.diagonalize",)),
        "assemble_s": covered(spans, ("operator_core.assemble",)),
        "node_values_s": covered(spans, ("operator_core.SpectralDecomposition.node_values",)),
        "apply_s": covered(spans, APPLY_SPANS),
        "projector_s": covered(spans, ("estimators.projector_norm",)),
        "report_s": covered(spans, REPORT_SPANS),
        "write_s": covered(spans, WRITE_SPANS),
        "strichartz_s": covered(spans, STRICHARTZ_SPANS),
        "square_function_s": covered(spans, ("dynamics.square_function",)),
        "probe_s": covered_prefix(spans, "dynamics."),
        "kernel_s": covered_prefix(spans, "parametrix."),
        "cli_self_s": sum(t for s, t in zip(spans, own) if s[0] == "cli.main"),
        "cli_main_s": covered(spans, ("cli.main",)),
    }
    sums.update(counts)
    return sums


def layer_metrics(sums: dict, import_s: float, startup_s: float) -> dict:
    """Per-layer metric values of one traced pass from its summed quantities."""
    def ratio(a, b):
        return a / b if b else 0.0

    gflops = ratio(9.0 * sums.get("modes_cubed", 0), sums.get("diagonalize_s", 0.0)) / 1e9
    return {
        "geometry.grid_s": sums.get("grid_s", 0.0),
        "geometry.basis_s": sums.get("basis_s", 0.0),
        "geometry.grid_nodes": sums.get("grid_nodes", 0),
        "geometry.gauss_rule_calls": sums.get("gauss_rule_calls", 0),
        "geometry.gauss_rule_reuse": ratio(sums.get("gauss_rules_distinct", 0),
                                           sums.get("gauss_rule_calls", 0)),
        "potentials.kato_s": sums.get("kato_s", 0.0),
        "potentials.kato_modulus_calls": sums.get("kato_modulus_calls", 0),
        "potentials.lq_norm_s": sums.get("lq_norm_s", 0.0),
        "operator_core.diagonalize_s": sums.get("diagonalize_s", 0.0),
        "operator_core.modes": sums.get("modes", 0),
        "operator_core.diag_gflops_computed": gflops,
        "operator_core.assemble_s": sums.get("assemble_s", 0.0),
        "operator_core.assemble_checked": sums.get("assemble_checked", 0),
        "operator_core.node_values_s": sums.get("node_values_s", 0.0),
        "operator_core.node_values_calls": sums.get("node_values_calls", 0),
        "operator_core.node_values_per_decomp": ratio(sums.get("node_values_calls", 0),
                                                      sums.get("decomps_read", 0)),
        "operator_core.apply_s": sums.get("apply_s", 0.0),
        "estimators.projector_s": sums.get("projector_s", 0.0),
        "estimators.projector_bands": sums.get("projector_bands", 0),
        "estimators.stagnated_bands": sums.get("stagnated_bands", 0),
        "estimators.ascent_useful_ratio": ratio(
            sums.get("ascent_bands", 0) - sums.get("stagnated_bands", 0),
            sums.get("ascent_bands", 0)),
        "estimators.report_s": sums.get("report_s", 0.0),
        "estimators.write_s": sums.get("write_s", 0.0),
        "estimators.bytes_written": sums.get("bytes_written", 0),
        "dynamics.strichartz_s": sums.get("strichartz_s", 0.0),
        "dynamics.square_function_s": sums.get("square_function_s", 0.0),
        "dynamics.probe_s": sums.get("probe_s", 0.0),
        "parametrix.kernel_s": sums.get("kernel_s", 0.0),
        "cli.import_s": import_s,
        "cli.self_s": sums.get("cli_self_s", 0.0),
        "cli.startup_s": startup_s,
    }
