"""Benchmark workloads: the run calls one round makes, sized from the presets.

Every workload runs each of the six timed CLI kinds once per round, so every
end-to-end metric exists on every workload; the sizes decide which layer does
the work.  Inputs are a pure function of the workload seed: each config's
``master_seed`` is hashed from (workload, kind, seed) without calling into
``rifs``, so a change to the package cannot change what it is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

KINDS = ("levelset", "detwindow", "pairs", "coverage", "density", "attractor")

# Default seed: the reference round of every run uses it, and
# references.json holds the outputs recorded for it.
DEFAULT_SEED = 0

# 8-symbol measure with one heavy symbol: level-set words then mix lengths
# (5..8 at n=4, 6..10 at n=5), which no preset does.
WIDE_P = [0.3] + [0.1] * 7

WORKLOADS = {
    "line": {
        "why": "d=1 baby_theorem: deep scalar projections and the 1-D pair and "
               "greedy-net kernels dominate; no QR, no 2-D raster, KB of CSV",
        "preset": "baby_theorem",
        "kinds": {
            "levelset": dict(n=13),
            "detwindow": dict(n=14, seeds=40),
            "pairs": dict(n=9, seeds=30),
            "coverage": dict(n_min=6, n_max=12, seeds=4),
            "density": dict(n_min=6, n_max=12, seeds=2),
            "attractor": dict(n_min=6, n_max=12),
        },
    },
    "plane": {
        "why": "d=2 example1_2d: per-ball 2-D rasterising into a 4 MB mask and "
               "batched 2x2 QR sampling dominate; the control for 1-D kernels",
        "preset": "example1_2d",
        "kinds": {
            "levelset": dict(n=13),
            "detwindow": dict(n=14, seeds=40),
            "pairs": dict(n=7, seeds=30),
            "coverage": dict(n_min=4, n_max=10, seeds=1),
            "density": dict(n_min=4, n_max=8, seeds=3),
            "attractor": dict(n_min=4, n_max=9),
        },
    },
    "wide_io": {
        "why": "8-symbol affine family under a non-uniform measure: frontier "
               "expansion, 8-way log-det dispatch and MB of CSV/SVG dominate",
        "preset": "example2_affine",
        "kinds": {
            "levelset": dict(n=4, bernoulli=WIDE_P),
            "detwindow": dict(n=5, seeds=8, bernoulli=WIDE_P),
            "pairs": dict(n=2, seeds=30),
            "coverage": dict(n_min=2, n_max=3, seeds=2),
            "density": dict(n_min=2, n_max=3, seeds=4),
            "attractor": dict(n_min=2, n_max=4),
        },
    },
}


def master_seed(workload: str, kind: str, seed: int) -> int:
    """64-bit config seed derived from the workload seed alone."""
    digest = hashlib.sha256(f"{workload}/{kind}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def build_configs(workload: str, seed: int) -> list:
    """[(kind, ExperimentConfig)] for one round, in run order."""
    from rifs import BernoulliMeasure
    from rifs.experiments import preset

    base = preset(WORKLOADS[workload]["preset"])
    out = []
    for kind, params in WORKLOADS[workload]["kinds"].items():
        params = dict(params)
        bern = params.pop("bernoulli", None)
        if bern is not None:
            params["measure"] = BernoulliMeasure(bern)
        cfg = replace(base, kind=kind, master_seed=master_seed(workload, kind, seed),
                      **params)
        out.append((kind, cfg))
    return out
