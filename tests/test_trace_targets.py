"""The package names the benchmark's layer trace wraps still exist, as it expects.

``perfbench/layertrace.py`` patches ``rifs`` functions by name from outside
the package; a renamed function, a generator turned into a function, a
reordered positional parameter, or a refactor that stops calling a wrapped
name on the CLI path would break traced runs silently.  These tests only
read that file.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave no bytecode cache under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_target_resolves(layertrace):
    assert layertrace.TARGETS
    for name, module, cls_name, attr, _ in layertrace.TARGETS:
        owner = importlib.import_module(module)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), name


def test_wrapped_signatures(layertrace, line_family, uniform2):
    from rifs import Realization, TailSequence, attractor, level_set, symbolic

    assert inspect.isgeneratorfunction(symbolic.iter_level_frontiers)
    params = list(inspect.signature(attractor.project_level).parameters)
    assert params[1] == "L" and params[3] == "target_radius"
    # the counts the trace takes from a project_level call
    args = (Realization(0, line_family), level_set(uniform2, 4), TailSequence.constant(1),
            1e-3)
    counts = layertrace._project_counts(args, {}, attractor.project_level(*args))
    assert counts["words"] == 16 and counts["prefix_letters"] == 64
    assert 0.0 < counts["max_radius_ratio"] <= 1.0
    # the raster wrapper passes (self, target, centers, radii) by position and
    # counts the target with np.count_nonzero, which must not raise on a set
    from rifs.analysis.coverage import CellSet, CoverageGrid

    params = list(inspect.signature(CoverageGrid.mark_balls).parameters)
    assert params == ["self", "cells", "centers", "radii"]
    assert np.count_nonzero(CellSet()) in (0, 1)


# Traced names no CLI kind reaches: each kind now calls the seed-group form
# (project_levels, coverage_estimates, det_window_reports, density_sweeps)
# of the wrapped single-realization function, and density_sweeps takes its
# greedy nets in batches (separated_subsets) instead of one separated_subset
# per level and radius.
UNREACHED = {"attractor.project_level", "coverage.estimate", "detwindow.report",
             "pairs.density_sweep", "pairs.separated"}


def test_cli_kinds_reach_the_traced_names(layertrace, tmp_path):
    # every kind on small baby_theorem and example1_2d configs, in a fresh
    # interpreter that writes no bytecode (nothing lands under perfbench/)
    code = textwrap.dedent(f"""
        import importlib.util, json, warnings
        from dataclasses import replace
        from pathlib import Path
        from rifs.experiments import EXPERIMENT_KINDS, preset, run

        spec = importlib.util.spec_from_file_location(
            "layertrace", {str(PERFBENCH / "layertrace.py")!r})
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        small = {{
            "levelset": dict(n=6),
            "lyapunov": dict(mc_samples=2000),
            "detwindow": dict(n=6, seeds=2),
            "pairs": dict(n=5, seeds=30),
            "coverage": dict(n_min=4, n_max=6, seeds=1),
            "attractor": dict(n_min=4, n_max=6),
            "density": dict(n_min=4, n_max=6, seeds=2),
        }}
        for name in ("baby_theorem", "example1_2d"):
            for kind in EXPERIMENT_KINDS:
                cfg = replace(preset(name), kind=kind, **small[kind])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    tracer.run_root(run, cfg, Path({str(tmp_path)!r}) / name / kind)
        print(json.dumps(sorted({{span[0] for span in tracer.spans}})))
    """)
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(proc.stdout.splitlines()[-1])) - {layertrace.ROOT}
    # install() wraps the raster and the frontier walk by hand, besides TARGETS
    traced = {name for name, *_ in layertrace.TARGETS} | {"coverage.mark_balls",
                                                          "symbolic.frontier"}
    assert UNREACHED <= traced
    assert reached == traced - UNREACHED
