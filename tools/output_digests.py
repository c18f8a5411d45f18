"""sha256 of every report file over a fixed grid of runs, to check byte identity.

    python tools/output_digests.py --out digests.json
    python tools/output_digests.py --repo ../other-checkout --out other.json
    python tools/output_digests.py --compare digests.json other.json

The grid runs ``rifs.experiments.run`` in-process, with the package from
``<repo>/src`` and the benchmark workloads from ``<repo>/perfbench``:

* every experiment kind on the four presets, on a mixed three-symbol
  family (two symbols share a distribution, the third differs) and on a
  planar family under a Markov measure with a two-symbol tail period, at
  small sizes, with ``--threads 1``; the seed-parallel kinds again with
  ``--threads 2``, and ``detwindow`` with a single seed;
* ``detwindow`` on the mixed and the Markov config at a level whose widest
  depth spans at least 3 blocks of the walk (``MULTI_BLOCK_N``), with 3
  seeds at ``--threads 2`` and with 8 seeds at ``--threads 1``; the 8 seeds
  start as one group of the walk, which splits mid-tree, and on the mixed
  family each group mixes two distributions;
* ``density`` on ``baby_theorem`` at its preset levels (n = 6..14, greedy
  nets of up to 16,384 points) with one seed;
* ``pairs`` on ``baby_theorem`` at a level whose seeds split into several
  groups of the projection walk (``MULTI_GROUP_N``; 2,048 words, so 8 seeds
  per group of ``rifs.attractor.GROUP_ROWS`` = 2**14 rows and 4 groups of
  the 30 seeds), with ``--threads 1`` and ``--threads 2``;
* ``coverage`` and ``density`` on ``baby_theorem`` and on the Markov config
  at level ranges whose seeds split into uneven projection groups
  (``MULTI_GROUP_LEVELS``: 4,032 and 3,017 member rows per seed, so groups
  of 4+4+2 and 5+5+2 seeds), with ``--threads 1`` and ``--threads 2``; the
  Markov levels mix word lengths and take tail steps of several depths;
* ``pairs`` and ``density`` on a three-symbol similarity family in three
  dimensions (``SIMILARITY_3D``, small sizes), the one grid family whose
  orthogonal factors come from LAPACK's QR rather than the 2x2 closed form;
* the six benchmark kinds of every workload at workload seeds 0 and 3;
* the JSON file that ``rifs preset NAME`` writes for each of the four presets.

Configs pass through JSON first, as the CLI loads them.  The output is one
JSON object mapping ``<run>/<file>`` (``preset/<NAME>.json`` for the preset
files) to the file's sha256.  ``--compare`` prints the files whose digests
differ or that only one side has, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

DEFAULT_REPO = Path(__file__).resolve().parent.parent
SMALL = {
    "baby_theorem": dict(n=10, n_min=4, n_max=8, seeds=3),
    "example1_2d": dict(n=8, n_min=3, n_max=6, seeds=3),
    "example2_affine": dict(n=3, n_min=2, n_max=3, seeds=3),
    "subcritical_contrast": dict(n=8, n_min=4, n_max=8, seeds=3,
                                 allow_subcritical=True),
    "mixed": dict(n=7, n_min=3, n_max=6, seeds=3),
    "markov": dict(n=7, n_min=3, n_max=6, seeds=3),
}
# detwindow levels whose widest depth spans several blocks of
# rifs.analysis.detwindow.BLOCK (2**14 children): 59,049 and 81,550 children
MULTI_BLOCK_N = {"mixed": 9, "markov": 10}
THREADED_KINDS = ("detwindow", "pairs", "coverage", "density")
PAIRS_SEEDS = 30  # the fewest transversality_scaling accepts
# a baby_theorem pairs level whose 30 seeds take 4 projection seed groups
MULTI_GROUP_N = 11
# coverage and density level ranges whose seeds take uneven projection groups
MULTI_GROUP_LEVELS = {"baby_theorem": dict(n_min=6, n_max=11, seeds=10),
                      "markov": dict(n_min=3, n_max=6, seeds=12)}
BENCH_SEEDS = (0, 3)
SIMILARITY_3D = {"pairs": dict(n=5, seeds=PAIRS_SEEDS),
                 "density": dict(n_min=3, n_max=5, seeds=3)}


def _mixed_family_config(preset):
    """baby_theorem with a third symbol: symbols 1 and 2 share a spec, 3 differs."""
    from rifs import BernoulliMeasure
    from rifs.random_model import AffineSpec, MatrixFamily, SimilaritySpec

    sim = SimilaritySpec(0.5, 0.9)
    aff = AffineSpec(0.4, 0.6, [[[0.9]], [[-0.8]]], [0.3, 0.7])
    family = MatrixFamily(1, [sim, sim, aff], [[0.0], [0.5], [1.0]])
    return replace(preset("baby_theorem"), family=family,
                   measure=BernoulliMeasure([0.4, 0.3, 0.3]), master_seed=7,
                   grid_lo=(-1.0,), grid_hi=(3.5,))


def _markov_config(preset):
    """example1_2d under a two-state Markov measure, with tail period (2, 1):
    level sets mix word lengths and every word takes translation-bearing tail steps."""
    from rifs import MarkovMeasure, TailSequence

    return replace(preset("example1_2d"),
                   measure=MarkovMeasure([4.0 / 7.0, 3.0 / 7.0], [[0.7, 0.3], [0.4, 0.6]]),
                   tail=TailSequence((), (2, 1)), master_seed=11)


def _similarity_3d_config(preset):
    """Three similarities of R^3 with scalars on [0.72, 0.8] and translations
    0, e_1 and e_2, under the uniform measure (entropy log 3 above the
    Lyapunov exponent, so density runs without ``allow_subcritical``)."""
    from rifs import BernoulliMeasure
    from rifs.random_model import MatrixFamily, SimilaritySpec

    family = MatrixFamily(3, [SimilaritySpec(0.72, 0.8)] * 3,
                          [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return replace(preset("example1_2d"), family=family,
                   measure=BernoulliMeasure([1.0 / 3.0] * 3), master_seed=13,
                   grid_lo=(-1.5,) * 3, grid_hi=(2.5,) * 3, grid_h=1.0 / 16.0)


def _through_json(cfg):
    """``cfg`` encoded to JSON text and decoded, as the CLI loads a config."""
    from rifs.experiments import ExperimentConfig

    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def _grid():
    """[(run name, config, threads)] in a fixed order."""
    from rifs.experiments import EXPERIMENT_KINDS, preset
    from workloads import WORKLOADS, build_configs

    runs = []
    for name, sizes in SMALL.items():
        if name == "mixed":
            base = _mixed_family_config(preset)
        elif name == "markov":
            base = _markov_config(preset)
        else:
            base = preset(name)
        base = _through_json(base)
        for kind in EXPERIMENT_KINDS:
            cfg = replace(base, kind=kind, mc_samples=20_000, **sizes)
            if kind == "pairs":
                cfg = replace(cfg, seeds=PAIRS_SEEDS)
            runs.append((f"{name}/{kind}/t1", cfg, 1))
            if kind in THREADED_KINDS:
                runs.append((f"{name}/{kind}/t2", cfg, 2))
        runs.append((f"{name}/detwindow/one_seed",
                     replace(base, kind="detwindow", n=sizes["n"], seeds=1), 1))
        if name in MULTI_BLOCK_N:
            runs.append((f"{name}/detwindow/multi_block",
                         replace(base, kind="detwindow", n=MULTI_BLOCK_N[name], seeds=3), 2))
            runs.append((f"{name}/detwindow/multi_block_grouped",
                         replace(base, kind="detwindow", n=MULTI_BLOCK_N[name], seeds=8), 1))
        for kind in ("coverage", "density") if name in MULTI_GROUP_LEVELS else ():
            for threads in (1, 2):
                runs.append((f"{name}/{kind}/multi_group/t{threads}",
                             replace(base, kind=kind, **MULTI_GROUP_LEVELS[name]), threads))
        if name == "baby_theorem":
            runs.append((f"{name}/density/preset_levels",
                         replace(base, kind="density", seeds=1), 1))
            for threads in (1, 2):
                runs.append((f"{name}/pairs/multi_group/t{threads}",
                             replace(base, kind="pairs", n=MULTI_GROUP_N, seeds=PAIRS_SEEDS),
                             threads))
    base = _through_json(_similarity_3d_config(preset))
    for kind, sizes in SIMILARITY_3D.items():
        runs.append((f"similarity_3d/{kind}/t1", replace(base, kind=kind, **sizes), 1))
    for workload in WORKLOADS:
        for seed in BENCH_SEEDS:
            for kind, cfg in build_configs(workload, seed):
                runs.append((f"bench/{workload}/seed{seed}/{kind}", cfg, 1))
    return runs


def digests(repo: Path) -> dict:
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    from rifs.cli import main as cli_main
    from rifs.experiments import PRESET_NAMES, run

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["preset", name, "--out", str(Path(tmp) / "preset")])
            out[f"preset/{name}.json"] = hashlib.sha256(
                (Path(tmp) / "preset" / f"{name}.json").read_bytes()).hexdigest()
        for i, (name, cfg, threads) in enumerate(_grid()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                paths = run(cfg, Path(tmp) / str(i), threads=threads)
            for path in paths:
                out[f"{name}/{Path(path).name}"] = hashlib.sha256(
                    Path(path).read_bytes()).hexdigest()
    return out


def compare(a: dict, b: dict) -> list:
    """Sorted keys whose digests differ or that only one side has."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=DEFAULT_REPO,
                        help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--out", type=Path, help="write the digests here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the files whose digests differ")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        diff = compare(a, b)
        for key in diff:
            print(key)
        print(f"{len(diff)} of {len(set(a) | set(b))} files differ", file=sys.stderr)
        return 1 if diff else 0
    if args.out is None:
        parser.error("give --out or --compare")
    table = digests(args.repo.resolve())
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} report files -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
