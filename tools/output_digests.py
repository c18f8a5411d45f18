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
  depth spans at least 3 blocks of the tree walk (``MULTI_BLOCK_N``), with 3
  seeds at ``--threads 2`` and with 8 seeds at ``--threads 1``; the 8 seeds
  start as one group of the walk, which splits mid-tree, and on the mixed
  family each group mixes two distributions;
* ``detwindow`` on ``baby_theorem`` at n = 15 with C = 1e300
  (``ALL_GOOD_MULTI_BLOCK``): its last depth holds 32,768 members, two
  blocks of one seed's walk, and every one is good; with one seed at
  ``--threads 1``, and with 3 seeds at ``--threads 1`` and ``--threads 2``;
* ``attractor`` on the Markov config at one level (``ONE_SEED_WIDE``) whose
  one seed is wider than a block of the tree walk: a depth of 26,272
  children and 79,738 members of lengths 11-30, all of which take
  translation-bearing tail steps;
* ``density`` on ``baby_theorem`` at its preset levels (n = 6..14, greedy
  nets of up to 16,384 points) with one seed;
* ``density`` on ``example1_2d`` at levels whose seed groups span several
  batches of the greedy nets (``MULTI_BATCH_DENSITY``: 496 points per seed,
  so one group of 20 seeds takes 3 batches of
  ``rifs.analysis.pairs.NET_BATCH`` = 2**12 points at ``--threads 1``, and
  two groups of 10 seeds take 2 each at ``--threads 2``);
* ``coverage`` on ``example1_2d`` at levels 9-10 under a table gauge of
  2048 (``MULTI_BLOCK_RASTER``), whose level-10 outer union rasterizes
  827,558 grid rows in one call: the four ``mark_balls`` calls span 4, 3,
  3 and 2 blocks of ``rifs.analysis.runs.BLOCK`` = 2**18 rows;
* ``pairs`` on ``baby_theorem`` at a level whose seeds split into several
  seed groups (``MULTI_GROUP_N``; 2,048 words, so 8 seeds per group of
  ``rifs.walk.BLOCK`` = 2**14 rows and 4 groups of the 30 seeds), with
  ``--threads 1`` and ``--threads 2``;
* ``pairs`` on ``baby_theorem`` at thresholds of at most 2e-18 against
  clouds that span more than 1 (``TINY_PAIRS``), so each of the 30 clouds
  in the one batch of the pair counts has its leading axis compacted before
  the join shifts it (its span exceeds ``2**62 / 30`` cells);
* ``coverage`` and ``density`` on ``baby_theorem`` and on the Markov config
  at level ranges whose seeds split into uneven seed groups
  (``MULTI_GROUP_LEVELS``: 4,032 and 3,017 member rows per seed, so groups
  of 4+4+2 and 5+5+2 seeds), with ``--threads 1`` and ``--threads 2``; the
  Markov levels mix word lengths and take tail steps of several depths;
* ``detwindow``, ``lyapunov``, ``pairs``, ``attractor`` and ``coverage`` on a
  planar affine family whose specs hold three and four weighted base
  matrices with inexact cumulative weights (``WEIGHTED_AFFINE``), so the base
  selector crosses several thresholds, in the tree walk and in the tail
  steps (its tail symbol moves the point); ``detwindow`` also at a level
  that spans several blocks; the family's entropy is below its Lyapunov
  exponent, so ``attractor`` and ``coverage`` run as contrast runs;
* ``pairs``, ``density`` and ``coverage`` on a three-symbol similarity
  family in three dimensions (``SIMILARITY_3D``, small sizes), the one grid
  family whose orthogonal factors come from LAPACK's QR rather than the 2x2
  closed form; its ``coverage`` run, at levels 3-5 on a 128**3 grid, is the
  one run whose rasters expand rows over two leading axes;
* ``levelset`` and ``attractor`` on a nine-symbol similarity family on the
  line (``NINE_SYMBOLS``), so the digit 9 appears in the word columns; both
  CSVs hold 59,377 words (4 row blocks);
* the six benchmark kinds of every workload at workload seeds 0 and 3; the
  ``wide_io`` ``levelset.csv`` files hold 36,758 words, which span 3 row
  blocks of ``rifs.symbolic.ROW_BLOCK`` (2**14 rows);
* the JSON file that ``rifs preset NAME`` writes for each of the four presets.

Configs pass through JSON first, as the CLI loads them.  The output is one
JSON object: ``stamp`` names the Python version, the numpy version and the
machine that made it, and ``digests`` maps ``<run>/<file>``
(``preset/<NAME>.json`` for the preset files) to the file's sha256.
``--compare`` prints the files whose digests differ or that only one side
has, and exits 1 if there are any.  ``tests/report_digests.json`` holds the
digests of the committed code; ``tests/test_report_digests.py`` reruns the
grid and compares, so a change to report bytes re-records that file:

    python tools/output_digests.py --out tests/report_digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
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
# detwindow levels whose widest depth spans several blocks of the tree walk,
# rifs.walk.BLOCK (2**14 children): 59,049 and 81,550 children
MULTI_BLOCK_N = {"mixed": 9, "markov": 10}
# a baby_theorem detwindow level whose last depth, wholly emitted and good,
# spans two blocks of one seed's walk
ALL_GOOD_MULTI_BLOCK = dict(n=15, C=1e300)
# a Markov attractor level whose one seed spans several blocks of the walk,
# of its members and of their tail steps
ONE_SEED_WIDE = dict(n_min=9, n_max=9)
THREADED_KINDS = ("detwindow", "pairs", "coverage", "density")
PAIRS_SEEDS = 30  # the fewest transversality_scaling accepts
# a baby_theorem pairs level whose 30 seeds take 4 projection seed groups
MULTI_GROUP_N = 11
# a baby_theorem pairs run whose pair-count join compacts every cloud
TINY_PAIRS = dict(n=6, s_list=(1.6e-17, 3.2e-17, 6.4e-17, 1.28e-16), seeds=PAIRS_SEEDS)
# coverage and density level ranges whose seeds take uneven seed groups
MULTI_GROUP_LEVELS = {"baby_theorem": dict(n_min=6, n_max=11, seeds=10),
                      "markov": dict(n_min=3, n_max=6, seeds=12)}
# example1_2d density levels and seeds whose seed groups span several net batches
MULTI_BATCH_DENSITY = dict(n_min=4, n_max=8, seeds=20)
# example1_2d coverage levels and gauge whose rasters span several row blocks
MULTI_BLOCK_RASTER = dict(n_min=9, n_max=10, seeds=1)
MULTI_BLOCK_GAUGE = dict(kind="table", values=[2048.0] * 10, regime="divergent")
BENCH_SEEDS = (0, 3)
# kind -> sizes; multi_block is detwindow at a widest depth of 66,474 children
WEIGHTED_AFFINE = {"detwindow": dict(n=5, seeds=3), "lyapunov": dict(n=5),
                   "pairs": dict(n=3, seeds=PAIRS_SEEDS),
                   "multi_block": dict(kind="detwindow", n=7, seeds=3),
                   "attractor": dict(n_min=3, n_max=6, allow_subcritical=True),
                   "coverage": dict(n_min=2, n_max=5, seeds=3, allow_subcritical=True)}
SIMILARITY_3D = {"pairs": dict(n=5, seeds=PAIRS_SEEDS),
                 "density": dict(n_min=3, n_max=5, seeds=3),
                 "coverage": dict(n_min=3, n_max=5, seeds=3, grid_h=1.0 / 32.0)}
NINE_SYMBOLS = {"levelset": dict(n=4), "attractor": dict(n_min=2, n_max=4)}


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


def _weighted_affine_config(preset):
    """Three planar affine symbols under a non-uniform measure: symbols 1 and 3
    share a spec of four bases weighted 0.1 .. 0.4 (cumulative 0.1,
    0.30000000000000004, 0.6000000000000001), symbol 2 has three bases
    weighted 0.7, 0.2, 0.1 (cumulative 0.7000000000000001, 0.9000000000000001)."""
    from rifs import BernoulliMeasure
    from rifs.random_model import AffineSpec, MatrixFamily

    quarter = [[0.0, -1.0], [1.0, 0.0]]
    four = AffineSpec(0.45, 0.49, [[[0.9, 0.0], [0.0, 0.7]], [[0.5, 0.2], [0.1, 0.8]],
                                   quarter, [[-0.6, 0.0], [0.2, 0.85]]],
                      [0.1, 0.2, 0.3, 0.4])
    three = AffineSpec(0.4, 0.5, [[[0.8, 0.0], [0.0, 0.6]], [[0.0, 0.9], [-0.7, 0.0]],
                                  [[0.95, 0.1], [0.0, -0.5]]], [0.7, 0.2, 0.1])
    family = MatrixFamily(2, [four, three, four],
                          [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    return replace(preset("example2_affine"), family=family,
                   measure=BernoulliMeasure([0.5, 0.3, 0.2]), master_seed=17)


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


def _nine_symbol_config(preset):
    """Nine similarities of the line with scalars on [0.12, 0.2] and
    translations 0, 1/8, .., 1 under the measure (0.2, 0.1, .., 0.1): entropy
    2.16 against a Lyapunov exponent of about 1.84, and words of mixed lengths."""
    from rifs import BernoulliMeasure
    from rifs.random_model import MatrixFamily, SimilaritySpec

    family = MatrixFamily(1, [SimilaritySpec(0.12, 0.2)] * 9, [[k / 8.0] for k in range(9)])
    return replace(preset("baby_theorem"), family=family,
                   measure=BernoulliMeasure([0.2] + [0.1] * 8), master_seed=19,
                   grid_lo=(-0.5,), grid_hi=(1.5,))


def _through_json(cfg):
    """``cfg`` encoded to JSON text and decoded, as the CLI loads a config."""
    from rifs.experiments import ExperimentConfig

    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def _grid():
    """[(run name, config, threads)] in a fixed order."""
    from rifs.experiments import EXPERIMENT_KINDS, Gauge, preset
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
        if name == "markov":
            runs.append((f"{name}/attractor/one_seed_wide",
                         replace(base, kind="attractor", **ONE_SEED_WIDE), 1))
        for kind in ("coverage", "density") if name in MULTI_GROUP_LEVELS else ():
            for threads in (1, 2):
                runs.append((f"{name}/{kind}/multi_group/t{threads}",
                             replace(base, kind=kind, **MULTI_GROUP_LEVELS[name]), threads))
        if name == "example1_2d":
            cfg = replace(base, kind="coverage", gauge=Gauge(**MULTI_BLOCK_GAUGE),
                          **MULTI_BLOCK_RASTER)
            runs.append((f"{name}/coverage/multi_block_raster", _through_json(cfg), 1))
            for threads in (1, 2):
                runs.append((f"{name}/density/multi_batch/t{threads}",
                             replace(base, kind="density", **MULTI_BATCH_DENSITY), threads))
        if name == "baby_theorem":
            for seeds, threads in ((1, 1), (3, 1), (3, 2)):
                runs.append((f"{name}/detwindow/all_good_multi_block/s{seeds}t{threads}",
                             replace(base, kind="detwindow", seeds=seeds,
                                     **ALL_GOOD_MULTI_BLOCK), threads))
            runs.append((f"{name}/density/preset_levels",
                         replace(base, kind="density", seeds=1), 1))
            for threads in (1, 2):
                runs.append((f"{name}/pairs/multi_group/t{threads}",
                             replace(base, kind="pairs", n=MULTI_GROUP_N, seeds=PAIRS_SEEDS),
                             threads))
            runs.append((f"{name}/pairs/tiny_scales/t1",
                         replace(base, kind="pairs", **TINY_PAIRS), 1))
    base = _through_json(_weighted_affine_config(preset))
    for name, sizes in WEIGHTED_AFFINE.items():
        sizes = {"kind": name, **sizes}
        runs.append((f"weighted_affine/{name}/t1", replace(base, **sizes), 1))
        if sizes["kind"] in THREADED_KINDS:
            runs.append((f"weighted_affine/{name}/t2", replace(base, **sizes), 2))
    base = _through_json(_similarity_3d_config(preset))
    for kind, sizes in SIMILARITY_3D.items():
        runs.append((f"similarity_3d/{kind}/t1", replace(base, kind=kind, **sizes), 1))
    base = _through_json(_nine_symbol_config(preset))
    for kind, sizes in NINE_SYMBOLS.items():
        runs.append((f"nine_symbols/{kind}/t1", replace(base, kind=kind, **sizes), 1))
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


def stamp() -> dict:
    """The Python version, numpy version and machine the digests depend on."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


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
        a, b = (json.loads(p.read_text())["digests"] for p in args.compare)
        diff = compare(a, b)
        for key in diff:
            print(key)
        print(f"{len(diff)} of {len(set(a) | set(b))} files differ", file=sys.stderr)
        return 1 if diff else 0
    if args.out is None:
        parser.error("give --out or --compare")
    table = digests(args.repo.resolve())
    args.out.write_text(json.dumps({"stamp": stamp(), "digests": table}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"{len(table)} report files -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
