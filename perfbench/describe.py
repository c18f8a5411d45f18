"""Write ``workloads.json``: what each workload runs and the input properties
that decide which layer does the work.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/describe.py

Per kind it records the preset, the config knobs the workload changes, the
level-set size and word-length range per level index, the worst-case tail
depth ``project_level`` asks for (from ``rho_max`` and ``bounding_ball``),
the coverage grid's cells and mask bytes, and the bytes each output file has
at the default seed.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, build_configs  # noqa: E402


def _targets(kind, cfg, L, n):
    """Smallest enclosure target ``project_level`` is given at level ``n``."""
    from rifs import slow_decay_constant
    d = cfg.family.dimension
    if kind == "coverage":
        radii = (L.measures * cfg.gauge(n)) ** (1.0 / d)
        return float(radii[radii > 0].min()) / 8.0
    if kind in ("pairs", "density"):
        return min(cfg.s_list) / len(L) ** (1.0 / d) / 8.0
    return cfg.diam_scale * slow_decay_constant(cfg.measure) ** (n / d) / 8.0


def describe(workload: str) -> dict:
    from rifs import bounding_ball, level_set, run
    from rifs.attractor import _required_depth

    spec = WORKLOADS[workload]
    kinds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, cfg in build_configs(workload, DEFAULT_SEED):
            rho, R = cfg.family.rho_max, bounding_ball(cfg.family)
            levels = [cfg.n] if kind in ("levelset", "detwindow", "pairs") \
                else list(range(cfg.n_min, cfg.n_max + 1))
            per_n = {}
            for n in levels:
                L = level_set(cfg.measure, n, cfg.word_budget)
                row = {"words": len(L), "min_len": int(L.lengths.min()),
                       "max_len": int(L.lengths.max())}
                if kind not in ("levelset", "detwindow"):
                    row["max_tail_depth"] = _required_depth(
                        _targets(kind, cfg, L, n), row["min_len"], rho, R)
                per_n[n] = row
            info = {"params": spec["kinds"][kind],
                    "seeds": cfg.seeds if kind in ("detwindow", "pairs", "coverage",
                                                   "density") else 1,
                    "levels": per_n}
            if kind in ("coverage", "attractor"):
                cells = math.prod(cfg.grid().shape)
                info["grid_cells"] = cells
                info["mask_bytes"] = cells  # numpy bool masks
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                paths = run(cfg, Path(tmp) / kind)
            info["output_bytes"] = {Path(p).name: Path(p).stat().st_size for p in paths}
            kinds[kind] = info
    return {"why": spec["why"], "preset": spec["preset"],
            "rho_max": cfg.family.rho_max, "bounding_ball": R, "kinds": kinds}


def main() -> int:
    records = {w: describe(w) for w in WORKLOADS}
    (HERE / "workloads.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
