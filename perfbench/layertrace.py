"""Outside-in layer trace: wraps public ``rifs`` functions from the benchmark.

Package source stays untouched.  :func:`install` replaces every binding of
each traced function (in every loaded ``rifs`` module, so ``project_level``
is wrapped in ``attractor``, ``analysis.pairs``, ``analysis.coverage`` and
``experiments`` alike) and wraps the traced methods on their classes.  Each
wrapped call records one span ``(name, start, end, id, parent, counts)`` in
memory; the parent comes from a per-thread stack, and a thread-pool worker's
outermost span hangs off the current ``experiments.run`` root.  Spans are
turned into metrics once, after the run: ``s`` is the summed span time,
``self_s`` subtracts the union of the child spans' intervals.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (metric name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = [
    ("keyed.absorb.calls", "count", "lower"),
    ("keyed.absorb.states", "count", "lower"),
    ("keyed.absorb.s", "s", "lower"),
    ("keyed.absorb.ns_per_state", "ns", "lower"),
    ("keyed.absorb_children.states", "count", "lower"),
    ("keyed.absorb_children.s", "s", "lower"),
    ("keyed.draw.values", "count", "lower"),
    ("keyed.draw.s", "s", "lower"),
    ("symbolic.level_set.calls", "count", "lower"),
    ("symbolic.level_set.words", "count", "lower"),
    ("symbolic.level_set.s", "s", "lower"),
    ("symbolic.frontier.depths", "count", "lower"),
    ("symbolic.frontier.nodes", "count", "lower"),
    ("symbolic.frontier.s", "s", "lower"),
    ("symbolic.frontier.nodes_per_s", "1/s", "higher"),
    ("symbolic.csv.bytes", "B", "lower"),
    ("symbolic.csv.s", "s", "lower"),
    ("random_model.matrices.rows", "count", "lower"),
    ("random_model.matrices.s", "s", "lower"),
    ("random_model.matrices.rows_per_s", "1/s", "higher"),
    ("random_model.log_dets.rows", "count", "lower"),
    ("random_model.log_dets.s", "s", "lower"),
    ("random_model.scalars.rows", "count", "lower"),
    ("random_model.scalars.s", "s", "lower"),
    ("random_model.dispatch_groups", "count", "lower"),
    ("attractor.project_level.calls", "count", "lower"),
    ("attractor.project_level.words", "count", "lower"),
    ("attractor.project_level.prefix_letters", "count", "lower"),
    ("attractor.project_level.steps", "count", "lower"),
    ("attractor.project_level.s", "s", "lower"),
    ("attractor.project_level.self_s", "s", "lower"),
    ("attractor.project_level.steps_per_s", "1/s", "higher"),
    ("attractor.project_level.max_radius_ratio", "1", "lower"),
    ("attractor.csv.bytes", "B", "lower"),
    ("attractor.csv.s", "s", "lower"),
    ("attractor.svg.s", "s", "lower"),
    ("pairs.distances.calls", "count", "lower"),
    ("pairs.distances.points", "count", "lower"),
    ("pairs.distances.close_pairs", "count", "lower"),
    ("pairs.distances.s", "s", "lower"),
    ("pairs.distances.points_per_s", "1/s", "higher"),
    ("pairs.separated.calls", "count", "lower"),
    ("pairs.separated.points", "count", "lower"),
    ("pairs.separated.kept", "count", "lower"),
    ("pairs.separated.s", "s", "lower"),
    ("pairs.separated.points_per_s", "1/s", "higher"),
    ("pairs.transversality.self_s", "s", "lower"),
    ("pairs.density_sweep.self_s", "s", "lower"),
    ("coverage.mark_balls.calls", "count", "lower"),
    ("coverage.mark_balls.balls", "count", "lower"),
    ("coverage.mark_balls.cells_marked", "count", "lower"),
    ("coverage.mark_balls.s", "s", "lower"),
    ("coverage.mark_balls.balls_per_s", "1/s", "higher"),
    ("coverage.estimate.self_s", "s", "lower"),
    ("coverage.attractor_measure.self_s", "s", "lower"),
    ("coverage.warnings", "count", "lower"),
    ("detwindow.report.calls", "count", "lower"),
    ("detwindow.report.nodes", "count", "lower"),
    ("detwindow.report.s", "s", "lower"),
    ("detwindow.report.self_s", "s", "lower"),
    ("detwindow.report.nodes_per_s", "1/s", "higher"),
    ("experiments.csv.bytes", "B", "lower"),
    ("experiments.csv.s", "s", "lower"),
    ("experiments.run.self_s", "s", "lower"),
    ("experiments.run.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("fail_ratio", "1", "lower"),
]

# rate metric -> (numerator metric, denominator metric, scale)
RATES = {
    "keyed.absorb.ns_per_state": ("keyed.absorb.s", "keyed.absorb.states", 1e9),
    "symbolic.frontier.nodes_per_s": ("symbolic.frontier.nodes", "symbolic.frontier.s", 1.0),
    "random_model.matrices.rows_per_s": ("random_model.matrices.rows",
                                         "random_model.matrices.s", 1.0),
    "attractor.project_level.steps_per_s": ("attractor.project_level.steps",
                                            "attractor.project_level.s", 1.0),
    "pairs.distances.points_per_s": ("pairs.distances.points", "pairs.distances.s", 1.0),
    "pairs.separated.points_per_s": ("pairs.separated.points", "pairs.separated.s", 1.0),
    "coverage.mark_balls.balls_per_s": ("coverage.mark_balls.balls",
                                        "coverage.mark_balls.s", 1.0),
    "detwindow.report.nodes_per_s": ("detwindow.report.nodes", "detwindow.report.s", 1.0),
}

ROOT = "experiments.run"


class Tracer:
    """In-memory span recorder with one parent stack per thread."""

    def __init__(self):
        self.spans: list = []
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        self.spans.append((name, t0, t1, sid, parent,
                           None if count is None else count(args, kwargs, out)))
        return out

    def run_root(self, fn, *args, **kwargs):
        """Call ``fn`` as the ``experiments.run`` root span of this round."""
        saved = self.root
        self.root = next(self._ids)
        stack = self._stack()
        stack.append(self.root)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((ROOT, t0, t1, self.root, saved, None))
            self.root = saved


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _path_bytes(i, name):
    return lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, i, name))}


def _project_counts(a, k, out):
    L = _arg(a, k, 1, "L")
    target = _arg(a, k, 3, "target_radius")
    radius = max((p.truncation_radius for p in out), default=0.0)
    return {"words": len(L), "prefix_letters": int(L.lengths.sum()),
            "max_radius_ratio": radius / target}


def _rows_and_groups(a, k, out):
    return {"rows": int(a[1].size), "dispatch_groups": int(np.unique(a[2]).size)}


def _size(key):
    return lambda a, k, out: {key: int(out.size)}


# (span name, module, class or None for a function, attribute, counts)
TARGETS = [
    ("keyed.absorb", "rifs.keyed", None, "absorb", _size("states")),
    ("keyed.absorb_children", "rifs.keyed", None, "absorb_children", _size("states")),
    ("keyed.draw", "rifs.keyed", None, "draw_u01", _size("values")),
    ("keyed.draw", "rifs.keyed", None, "draw_u01_block", _size("values")),
    ("symbolic.level_set", "rifs.symbolic", None, "level_set",
     lambda a, k, out: {"words": len(out)}),
    ("symbolic.csv", "rifs.symbolic", None, "write_levelset_csv", _path_bytes(1, "path")),
    ("random_model.matrices", "rifs.random_model", "Realization", "matrices_from_chains",
     _rows_and_groups),
    ("random_model.log_dets", "rifs.random_model", "Realization", "log_dets_from_chains",
     _rows_and_groups),
    ("random_model.scalars", "rifs.random_model", "Realization", "scalars_from_chains",
     _rows_and_groups),
    ("attractor.project_level", "rifs.attractor", None, "project_level", _project_counts),
    ("attractor.csv", "rifs.attractor", None, "write_points_csv", _path_bytes(1, "path")),
    ("attractor.svg", "rifs.attractor", None, "write_svg_scatter", None),
    ("pairs.distances", "rifs.analysis.pairs", None, "pair_distances_within",
     lambda a, k, out: {"points": int(_arg(a, k, 0, "coords").shape[0]),
                        "close_pairs": int(out.size)}),
    ("pairs.separated", "rifs.analysis.pairs", None, "separated_subset",
     lambda a, k, out: {"points": len(_arg(a, k, 0, "points")), "kept": int(out.size)}),
    ("pairs.transversality", "rifs.analysis.pairs", None, "transversality_scaling", None),
    ("pairs.density_sweep", "rifs.analysis.pairs", None, "density_sweep", None),
    ("coverage.estimate", "rifs.analysis.coverage", None, "coverage_estimate", None),
    ("coverage.attractor_measure", "rifs.analysis.coverage", None,
     "attractor_measure_estimate", None),
    ("detwindow.report", "rifs.analysis.detwindow", None, "det_window_report",
     lambda a, k, out: {"nodes": int(out.per_prefix_totals.sum())}),
    ("experiments.csv", "rifs.experiments", None, "_write_csv", _path_bytes(0, "path")),
]


def _rebind(original, wrapper) -> None:
    """Point every ``rifs`` module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "rifs" and not mod_name.startswith("rifs."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function, generator and method of ``rifs``."""
    import rifs.analysis.coverage as coverage_mod
    import rifs.symbolic as symbolic_mod

    for name, module, cls_name, attr, count in TARGETS:
        owner = sys.modules[module]
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)

        def wrapper(*a, _f=original, _n=name, _c=count, **k):
            return tracer.call(_n, _f, a, k, _c)

        if cls_name is None:
            _rebind(original, wrapper)
        else:
            setattr(owner, attr, wrapper)

    grid_cls = coverage_mod.CoverageGrid
    mark_balls = grid_cls.mark_balls

    def traced_mark_balls(self, mask, centers, radii):
        before = int(np.count_nonzero(mask))
        return tracer.call(
            "coverage.mark_balls", mark_balls, (self, mask, centers, radii), {},
            lambda a, k, out: {"balls": int(np.atleast_2d(centers).shape[0]),
                               "cells_marked": int(np.count_nonzero(mask)) - before})

    grid_cls.mark_balls = traced_mark_balls

    frontiers = symbolic_mod.iter_level_frontiers

    def traced_frontiers(*a, **k):
        # one span per next(): expansion time only, not the consumer's work
        it = frontiers(*a, **k)
        step = it.__next__
        while True:
            try:
                fr = tracer.call("symbolic.frontier", step, (), {},
                                 lambda a_, k_, out: {"depths": 1,
                                                      "nodes": int(out.symbols.size)})
            except StopIteration:
                return
            yield fr

    _rebind(frontiers, traced_frontiers)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per-layer metrics of one round's spans (see LAYER_METRICS)."""
    by_id = {sid: (name, parent) for name, _, _, sid, parent, _ in spans}
    children = defaultdict(list)
    for _, t0, t1, _, parent, _ in spans:
        children[parent].append((t0, t1))

    raw: dict = defaultdict(float)
    for name, t0, t1, sid, parent, counts in spans:
        dur = t1 - t0
        raw[name + ".calls"] += 1
        raw[name + ".s"] += dur
        raw[name + ".self_s"] += dur - _union_length(children.get(sid, ()))
        for key, value in (counts or {}).items():
            metric = f"{name}.{key}"
            raw[metric] = max(raw[metric], value) if key.startswith("max_") \
                else raw[metric] + value
        if name == "keyed.absorb":
            # map applications: states absorbed under a project_level span
            up = parent
            while up in by_id:
                if by_id[up][0] == "attractor.project_level":
                    raw["attractor.project_level.steps"] += counts["states"]
                    break
                up = by_id[up][1]

    for prefix in ("matrices", "log_dets", "scalars"):
        raw["random_model.dispatch_groups"] += raw.pop(
            f"random_model.{prefix}.dispatch_groups", 0.0)
    for rate, (num, den, scale) in RATES.items():
        raw[rate] = raw[num] * scale / raw[den] if raw[den] else 0.0
    return raw
