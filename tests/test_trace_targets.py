"""The package names the benchmark's layer trace wraps still exist, as it expects.

``perfbench/layertrace.py`` patches ``rifs`` functions by name from outside
the package; a renamed function, a generator turned into a function, or a
reordered positional parameter would break traced runs silently.  This test
only reads that file.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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
