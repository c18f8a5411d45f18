import copy
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rifs import attractor, keyed, symbolic
from rifs.analysis import CoverageGrid, coverage_estimate, density_sweep
from rifs.cli import main
from rifs.errors import InputError
from rifs.experiments import (EXPERIMENT_KINDS, MAX_THREADS, PRESET_NAMES, ExperimentConfig,
                              Gauge, preset, run)
from rifs.random_model import AffineSpec, MatrixFamily, Realization, SimilaritySpec
from rifs.symbolic import BernoulliMeasure, MarkovMeasure

REPO = Path(__file__).resolve().parent.parent


def read_all(paths):
    return {p.name: p.read_bytes() for p in paths}


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_gauge_kinds():
    assert Gauge("one_over_n")(4) == 0.25
    assert Gauge("one_over_n").regime == "divergent"
    g = Gauge("geometric", q=0.5)
    assert g(3) == 0.125
    assert g.regime == "convergent"
    t = Gauge("table", values=[1.0, 2.0], regime="divergent")
    assert t(2) == 2.0
    with pytest.raises(InputError):
        t(3)
    with pytest.raises(InputError):
        Gauge("table", values=[1.0])  # regime must be declared
    with pytest.raises(InputError):
        Gauge("geometric", q=1.5)
    with pytest.raises(InputError):
        Gauge("nope")


# ---------------------------------------------------------------------------
# config validation and digests
# ---------------------------------------------------------------------------

def test_presets_validate():
    for name in ("baby_theorem", "example1_2d", "example2_affine",
                 "subcritical_contrast"):
        cfg = preset(name)
        cfg.validate()
    with pytest.raises(InputError):
        preset("nonexistent")


def test_baby_theorem_is_supercritical():
    cfg = preset("baby_theorem")
    assert cfg.entropy() / cfg.lyapunov() == pytest.approx(1.8702, abs=1e-4)


def test_affine_preset_declares_full_nonsingularity():
    cfg = preset("example2_affine")
    assert cfg.family.declared_nonsingular == "full"
    # the sufficient support condition holds: unit translations, norms < 1/2
    assert np.allclose(np.linalg.norm(cfg.family.translations, axis=1), 1.0)
    assert cfg.family.rho_max < 0.5


def test_subcritical_guard():
    cfg = replace(preset("subcritical_contrast"), kind="coverage")
    with pytest.raises(InputError, match="Lyapunov"):
        cfg.validate()
    replace(cfg, allow_subcritical=True).validate()
    # detwindow and pairs do not gate on supercriticality
    replace(cfg, kind="detwindow").validate()


def test_eps1_consistency_guard():
    cfg = replace(preset("baby_theorem"), eps1=0.2)  # 2 eps1 > h - lambda
    with pytest.raises(InputError, match="eps1"):
        cfg.validate()
    assert preset("baby_theorem").resolved_eps1() == pytest.approx(0.1)
    gap = preset("baby_theorem")
    assert replace(gap, eps1=None).resolved_eps1() == pytest.approx(
        0.1 * (gap.entropy() - gap.lyapunov()))


def test_validation_lists_all_problems():
    cfg = replace(preset("baby_theorem"), kind="bogus", n=0, seeds=0)
    with pytest.raises(InputError) as err:
        cfg.validate()
    msg = str(err.value)
    assert "bogus" in msg and "n must be" in msg and "seeds" in msg


def test_digest_field_order_independent():
    cfg = preset("baby_theorem")
    d = cfg.to_dict()
    shuffled = json.loads(json.dumps(dict(reversed(list(d.items())))))
    cfg2 = ExperimentConfig.from_dict(shuffled)
    assert cfg2.digest() == cfg.digest()
    # semantic change moves the digest
    assert replace(cfg, n=13).digest() != cfg.digest()


def test_from_dict_rejects_unknown_fields():
    d = preset("baby_theorem").to_dict()
    d["typo_field"] = 1
    with pytest.raises(InputError, match="typo_field"):
        ExperimentConfig.from_dict(d)


def test_roundtrip_through_json():
    # every schema entry: both symbol spec kinds (an affine one with
    # non-uniform weights), both measure kinds, all three gauge kinds and a
    # tail with a prefix
    bases = preset("example2_affine").family.symbols[0].base_matrices
    family = MatrixFamily(2, [SimilaritySpec(0.3, 0.4),
                              AffineSpec(0.45, 0.49, bases, [0.25, 0.75])],
                          [[0.0, 0.0], [1.0, 0.0]])
    markov = MarkovMeasure([4.0 / 7.0, 3.0 / 7.0], [[0.7, 0.3], [0.4, 0.6]])
    mixed = replace(preset("example1_2d"), family=family, measure=markov,
                    tail=symbolic.TailSequence((2, 1), (1, 2)),
                    gauge=Gauge("geometric", q=0.5))
    table = replace(mixed, gauge=Gauge("table", values=[0.5, 0.25], regime="convergent"))
    for cfg in [preset(name) for name in PRESET_NAMES] + [mixed, table]:
        d = cfg.to_dict()
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
        assert clone.to_dict() == d
        assert clone.digest() == cfg.digest()
        assert clone.family.rho_max == pytest.approx(cfg.family.rho_max)
    assert mixed.to_dict()["family"]["symbols"][1]["weights"] == [0.25, 0.75]
    defaults = ExperimentConfig("levelset", family, markov).to_dict()
    assert defaults["tail"] == {"prefix": [], "period": [1]}
    assert defaults["g"] == {"kind": "one_over_n", "regime": "divergent"}


# ---------------------------------------------------------------------------
# run() outputs
# ---------------------------------------------------------------------------

def _small_config(kind, name="baby_theorem"):
    cfg = preset(name)
    tweaks = {
        "levelset": dict(n=6),
        "lyapunov": dict(mc_samples=5000),
        "detwindow": dict(n=10, seeds=2),
        "pairs": dict(n=8, seeds=30),
        "coverage": dict(n_min=4, n_max=7, seeds=2, grid_h=2.0 ** -10),
        "attractor": dict(n_min=4, n_max=7, grid_h=2.0 ** -10),
        "density": dict(n_min=4, n_max=7, seeds=2),
    }[kind]
    return replace(cfg, kind=kind, **tweaks)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_run_each_kind_and_headers(kind, tmp_path):
    paths = run(_small_config(kind), tmp_path / kind)
    assert paths
    for p in paths:
        text = p.read_bytes()
        assert len(text) > 0
        if p.suffix == ".csv":
            first = text.decode().split("\n", 1)[0]
            assert first.startswith("# config_digest=")


def test_run_deterministic_per_kind(tmp_path):
    for kind in EXPERIMENT_KINDS:
        cfg = _small_config(kind)
        a = read_all(run(cfg, tmp_path / f"{kind}_a"))
        b = read_all(run(cfg, tmp_path / f"{kind}_b"))
        assert a == b, f"{kind} outputs differ between identical runs"


def test_run_threads_match_sequential(tmp_path):
    cfg = _small_config("detwindow")
    seq = read_all(run(cfg, tmp_path / "seq", threads=1))
    par = read_all(run(cfg, tmp_path / "par", threads=4))
    assert seq == par


def test_pairs_threads_match_sequential(tmp_path):
    cfg = replace(_small_config("pairs"), n=6)
    seq = read_all(run(cfg, tmp_path / "seq", threads=1))
    par = read_all(run(cfg, tmp_path / "par", threads=2))
    assert set(seq) == {"pairs.csv", "pairs_fit.csv"}
    assert seq == par


def test_pairs_uneven_seed_groups_match_across_threads(tmp_path, monkeypatch):
    # 61 seeds of a 64-word level: one group at the default cap, and 15 groups
    # of 4 seeds plus a last group of 1 under a cap of 4 seeds' rows
    cfg = replace(_small_config("pairs"), n=6, seeds=61)
    whole = read_all(run(cfg, tmp_path / "whole", threads=1))
    monkeypatch.setattr(attractor, "GROUP_ROWS", 4 * 64 + 3)
    L = symbolic.level_set(cfg.measure, cfg.n)
    assert [len(g) for g in attractor.seed_groups(cfg.seeds, attractor.walk_rows([L]))] \
        == [4] * 15 + [1]
    for threads in (1, 2, 4):
        assert read_all(run(cfg, tmp_path / f"t{threads}", threads=threads)) == whole


def _run_warned(cfg, out, threads):
    """(report bytes, warning messages in the order issued) of one run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = read_all(run(cfg, out, threads=threads))
    return files, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", ["coverage", "density"])
def test_coverage_and_density_uneven_seed_groups_match_across_threads(kind, tmp_path,
                                                                       monkeypatch):
    # a box that clips the balls and a coarse grid: each coverage seed warns twice
    cfg = replace(_small_config(kind), seeds=7, grid_lo=(0.2,), grid_hi=(1.5,),
                  grid_h=2.0 ** -6)
    sets = symbolic.level_sets(cfg.measure, range(cfg.n_min, cfg.n_max + 1))
    rows = attractor.walk_rows(sets)
    assert len(attractor.seed_groups(cfg.seeds, rows)) == 1
    whole, warned = _run_warned(cfg, tmp_path / "whole", 1)
    alone = []   # each seed's warnings when it is estimated by itself
    for j in range(cfg.seeds):
        r = Realization(keyed.derive_seed(cfg.master_seed, j), cfg.family)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if kind == "coverage":
                coverage_estimate(r, sets, cfg.tail, cfg.gauge, cfg.grid())
            else:
                density_sweep(r, sets, cfg.tail, cfg.c_list, cfg.s_list)
        alone += [str(w.message) for w in caught]
    assert warned == alone
    assert len(warned) == (2 * cfg.seeds if kind == "coverage" else 0)
    monkeypatch.setattr(attractor, "GROUP_ROWS", 3 * rows + 1)
    assert [len(g) for g in attractor.seed_groups(cfg.seeds, rows)] == [3, 3, 1]
    for threads in (1, 2, 4):
        files, got = _run_warned(cfg, tmp_path / f"t{threads}", threads)
        assert files == whole, threads
        assert sorted(got) == sorted(warned), threads   # threads may interleave seeds
        if threads == 1:
            assert got == warned


def test_runs_without_gaussians_leave_scipy_and_thread_pools_unloaded(tmp_path):
    # all runs in one fresh process, which records the deferred modules it has
    # loaded after import rifs and after each run
    configs = [_small_config(kind) for kind in EXPERIMENT_KINDS]
    configs += [_small_config(kind, "example1_2d")
                for kind in ("levelset", "detwindow", "lyapunov", "pairs")]
    code = textwrap.dedent("""
        import json, sys
        import rifs
        from rifs.experiments import ExperimentConfig, run

        def loaded():
            return [m for m in ("scipy.special", "concurrent.futures") if m in sys.modules]

        seen = [loaded()]
        for i, raw in enumerate(json.load(sys.stdin)):
            run(ExperimentConfig.from_dict(raw), f"{sys.argv[1]}/{i}")
            seen.append(loaded())
        print(json.dumps(seen))
    """)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          input=json.dumps([cfg.to_dict() for cfg in configs]),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # import, 7 baby_theorem kinds, example1_2d levelset, detwindow, lyapunov
    assert seen[:-1] == [[]] * 11
    # the example1_2d pairs run draws the Gaussians behind its rotations
    # (scipy.special itself imports concurrent.futures)
    assert "scipy.special" in seen[-1]


def test_lyapunov_report_values(tmp_path):
    paths = run(_small_config("lyapunov"), tmp_path)
    rows = dict(line.split(",") for line in
                paths[0].read_text().splitlines()[3:])
    assert float(rows["lyapunov"]) == pytest.approx(0.3706271845301775, abs=1e-12)
    assert float(rows["entropy"]) == pytest.approx(math.log(2), abs=1e-12)
    assert float(rows["ratio"]) == pytest.approx(1.8702, abs=1e-4)


def test_levelset_csv_rowcount(tmp_path):
    paths = run(_small_config("levelset"), tmp_path)
    lines = paths[0].read_text().strip().splitlines()
    assert lines[1] == "word,length,measure"
    assert len(lines) == 2 + 2 ** 6
    # uniform level set at n = 3 is the eight length-3 words
    paths3 = run(replace(_small_config("levelset"), n=3), tmp_path / "n3")
    assert len(paths3[0].read_text().strip().splitlines()) == 2 + 8


def test_pairs_fit_csv_columns(tmp_path):
    paths = run(_small_config("pairs"), tmp_path)
    fit = next(p for p in paths if p.name == "pairs_fit.csv")
    lines = fit.read_text().splitlines()
    assert lines[2] == "slope,stderr,n_points"
    slope, stderr, n_points = lines[3].split(",")
    assert 0.0 < float(slope) < 3.0 and int(n_points) >= 2


def test_statistics_build_no_per_point_objects(tmp_path, monkeypatch):
    # pairs, coverage and density read the point-cloud arrays only
    def forbidden(*args, **kwargs):
        raise AssertionError("per-word object built on a statistics path")

    monkeypatch.setattr(attractor.ProjectedPoint, "__init__", forbidden)
    monkeypatch.setattr(symbolic.LevelSet, "words", property(forbidden))
    for kind in ("pairs", "coverage", "density"):
        assert run(_small_config(kind), tmp_path / kind)


def test_csv_writers_build_no_word_tuples(tmp_path, monkeypatch):
    # level-set and point CSVs format words straight from the word matrix
    def forbidden(*args, **kwargs):
        raise AssertionError("word tuples built on a CSV path")

    monkeypatch.setattr(symbolic.LevelSet, "words", property(forbidden))
    for kind in ("levelset", "attractor"):
        assert run(_small_config(kind), tmp_path / kind)


def test_attractor_emits_svg_for_2d(tmp_path):
    cfg = replace(preset("example1_2d"), kind="attractor", n_min=3, n_max=5,
                  grid_h=2.0 ** -6)
    paths = run(cfg, tmp_path)
    names = {p.name for p in paths}
    assert "attractor_points.svg" in names


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_preset_and_run(tmp_path, capsys):
    assert main(["preset", "baby_theorem", "--out", str(tmp_path)]) == 0
    cfg_path = tmp_path / "baby_theorem.json"
    assert cfg_path.exists()
    raw = json.loads(cfg_path.read_text())
    raw["n"] = 5
    cfg_path.write_text(json.dumps(raw))
    code = main(["levelset", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "levelset.csv").exists()


def test_cli_seed_override_changes_output(tmp_path):
    main(["preset", "baby_theorem", "--out", str(tmp_path)])
    cfg_path = str(tmp_path / "baby_theorem.json")
    raw = json.loads((tmp_path / "baby_theorem.json").read_text())
    raw.update(n=10, seeds=2)
    (tmp_path / "baby_theorem.json").write_text(json.dumps(raw))
    main(["detwindow", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["detwindow", "--config", cfg_path, "--out", str(tmp_path / "b"),
          "--seed", "999"])
    a = (tmp_path / "a" / "detwindow.csv").read_text()
    b = (tmp_path / "b" / "detwindow.csv").read_text()
    assert a != b


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # 2: validation error (subcritical coverage without the waiver)
    main(["preset", "subcritical_contrast", "--out", str(tmp_path)])
    cfg = str(tmp_path / "subcritical_contrast.json")
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # 3: resource budget
    raw = json.loads((tmp_path / "subcritical_contrast.json").read_text())
    raw.update(word_budget=10, n=8)
    bad = tmp_path / "tiny_budget.json"
    bad.write_text(json.dumps(raw))
    assert main(["levelset", "--config", str(bad),
                 "--out", str(tmp_path / "o3")]) == 3
    # 2: a NaN probability is rejected up front instead of exhausting the budget
    raw = json.loads((tmp_path / "subcritical_contrast.json").read_text())
    raw["measure"]["p"] = [math.nan, 0.5]
    nan_cfg = tmp_path / "nan_measure.json"
    nan_cfg.write_text(json.dumps(raw))
    assert main(["levelset", "--config", str(nan_cfg),
                 "--out", str(tmp_path / "o2")]) == 2
    # 2: unreadable or malformed config files and mistyped fields
    assert main(["levelset", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o5")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "levelset",')
    assert main(["levelset", "--config", str(broken), "--out", str(tmp_path / "o6")]) == 2
    probes = {
        "no_symbols": lambda c: c["family"].pop("symbols"),
        "no_symbol_kind": lambda c: c["family"]["symbols"][0].pop("kind"),
        "no_measure_p": lambda c: c["measure"].pop("p"),
        "n_string": lambda c: c.update(n="14"),
        "seeds_float": lambda c: c.update(seeds=2.5),
        "n_bool": lambda c: c.update(n=True),
        "grid_h_string": lambda c: c.update(grid_h="0.01"),
        "s_list_strings": lambda c: c.update(s_list=["a", "b"]),
        "subcritical_int": lambda c: c.update(allow_subcritical=1),
        "tail_extra_key": lambda c: c.update(tail={"period": [1], "bogus": 1}),
        "family_list": lambda c: c.update(family=[1, 2]),
        "tail_period_inf": lambda c: c["tail"].update(period=[-math.inf]),
        "tail_period_float": lambda c: c["tail"].update(period=[1.5]),
        "translation_huge": lambda c: c["family"]["translations"][1].__setitem__(0, 1e308),
        "seeds_huge": lambda c: c.update(seeds=2 ** 64),
        "mc_samples_one": lambda c: c.update(mc_samples=1),
        "mc_samples_huge": lambda c: c.update(mc_samples=2 ** 64),
        "n_max_huge": lambda c: c.update(n_max=2 ** 64),
    }
    for name, mutate in probes.items():
        raw = json.loads((tmp_path / "subcritical_contrast.json").read_text())
        mutate(raw)
        probe = tmp_path / f"{name}.json"
        probe.write_text(json.dumps(raw))
        assert main(["levelset", "--config", str(probe),
                     "--out", str(tmp_path / f"o_{name}")]) == 2, name
    # 2: a JSON boolean inside a config object, named by its path in one line
    bool_probes = {
        "weights_bool": ("example2_affine", "family.symbols[0].weights[0]",
                         lambda c: c["family"]["symbols"][0].update(weights=[True, True])),
        "period_bool": ("baby_theorem", "tail.period[0]",
                        lambda c: c["tail"].update(period=[True])),
        "translation_bool": ("baby_theorem", "family.translations[1][0]",
                             lambda c: c["family"]["translations"][1].__setitem__(0, True)),
        "dimension_bool": ("baby_theorem", "family.dimension",
                           lambda c: c["family"].update(dimension=True)),
    }
    for name, (preset_name, where, mutate) in bool_probes.items():
        main(["preset", preset_name, "--out", str(tmp_path)])
        raw = json.loads((tmp_path / f"{preset_name}.json").read_text())
        mutate(raw)
        probe = tmp_path / f"{name}.json"
        probe.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["levelset", "--config", str(probe),
                     "--out", str(tmp_path / f"o_{name}")]) == 2, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(where) in err, (name, err)
    top_level_list = tmp_path / "list.json"
    top_level_list.write_text("[1, 2]")
    assert main(["levelset", "--config", str(top_level_list),
                 "--out", str(tmp_path / "o7")]) == 2
    # 4: internal inconsistency
    import rifs.cli as cli_mod
    from rifs.errors import InvariantError

    def boom(cfg, out, threads=1):
        raise InvariantError("tripped")

    monkeypatch.setattr(cli_mod, "run", boom)
    assert main(["levelset", "--config", cfg, "--out", str(tmp_path / "o4")]) == 4


def test_cli_gauge_underflowing_every_radius_exits_2(tmp_path, capsys):
    main(["preset", "baby_theorem", "--out", str(tmp_path)])
    raw = json.loads((tmp_path / "baby_theorem.json").read_text())
    raw.update(n_min=4, n_max=6, seeds=1,
               g={"kind": "table", "regime": "convergent", "values": [5e-324] * 10})
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "level-4" in err and "g(4) = 5e-324" in err


@pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1])
def test_cli_threads_out_of_range_exit_2_before_any_work(threads, tmp_path, monkeypatch,
                                                         capsys):
    main(["preset", "baby_theorem", "--out", str(tmp_path)])

    def no_pool(*args, **kwargs):
        raise AssertionError("map_seeds called")

    monkeypatch.setattr(keyed, "map_seeds", no_pool)
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["density", "--config", str(tmp_path / "baby_theorem.json"),
                 "--out", str(out), "--threads", str(threads)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"between 1 and {MAX_THREADS}, got {threads}" in err
    assert not out.exists()


@pytest.mark.parametrize("where,key", [
    ("family", "declared_nonsingluar"), ("family.symbols[0]", "weigths"),
    ("measure", "q"), ("tail", "perod"), ("g", "valuez")])
def test_cli_unknown_nested_key_exits_2(where, key, tmp_path, capsys):
    main(["preset", "example2_affine", "--out", str(tmp_path)])
    raw = json.loads((tmp_path / "example2_affine.json").read_text())
    node = raw["family"]["symbols"][0] if where == "family.symbols[0]" else raw[where]
    node[key] = 1
    cfg = tmp_path / "stray.json"
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["levelset", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"'{where}'" in err and key in err


_TWO_LINE_MAPS = [SimilaritySpec(0.5, 0.9)] * 2
_BASES = [np.diag([0.9, 0.7]), np.diag([0.8, 0.95])]


@pytest.mark.parametrize("build", [
    lambda: BernoulliMeasure([math.nan, 0.5]),
    lambda: BernoulliMeasure([math.inf, 0.5]),
    lambda: MarkovMeasure([0.5, 0.5], [[0.5, math.nan], [0.5, 0.5]]),
    lambda: MarkovMeasure.from_transition([[0.5, math.nan], [0.5, 0.5]]),
    lambda: MatrixFamily(1, _TWO_LINE_MAPS, [[0.0], [math.inf]]),
    lambda: MatrixFamily(1, _TWO_LINE_MAPS, [[0.0], [math.nan]]),
    lambda: AffineSpec(0.45, 0.49, _BASES, [math.nan, 1.0]),
    lambda: AffineSpec(0.45, 0.49, [[[math.inf, 0.0], [0.0, 0.5]]]),
    lambda: AffineSpec(0.45, 0.49, [[[math.nan, 0.0], [0.0, 0.5]]]),
    lambda: CoverageGrid(np.zeros(1), np.ones(1), math.nan),
    lambda: CoverageGrid(np.array([math.nan]), np.ones(1), 0.1),
    lambda: keyed.root_state(-1),
    lambda: MatrixFamily(2, [SimilaritySpec(0.5, 0.9)] * 2, [[0.0, 0.0], [1e300, 0.0]]),
    lambda: CoverageGrid(np.zeros(2), np.ones(2), 1e300),
    lambda: CoverageGrid(np.full(2, -1e300), np.full(2, 1e300), 1.0),
    lambda: symbolic.TailSequence((), (math.inf,)),
    lambda: symbolic.TailSequence((0.5,), (1,)),
], ids=["bernoulli-nan", "bernoulli-inf", "markov-nan", "markov-transition-nan",
        "translation-inf", "translation-nan", "affine-weight-nan", "affine-base-inf",
        "affine-base-nan", "grid-h-nan", "grid-lo-nan", "root-seed-negative",
        "bounding-ball-overflow", "grid-cell-volume-overflow", "grid-box-volume-overflow",
        "tail-symbol-inf", "tail-symbol-float"])
def test_non_finite_or_out_of_range_input_raises_input_error(build):
    with pytest.raises(InputError):
        build()


_MUTANT_VALUES = [None, True, "x", [], {}, [0.5], {"kind": "x"}, math.nan, math.inf,
                  -math.inf, -2, -1, 0, 1, 2, 3, -0.5, 0.0, 0.5, 1.5, 1e300, 1e-300, 2 ** 64]


def _json_paths(node, path=()):
    """Every key/index path into a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_mutated_presets_exit_cleanly(data, tmp_path, capsys):
    # one mutation of a small preset config: a value replaced by a wrong type,
    # NaN/inf, a negative or huge number, or a key deleted
    name = data.draw(st.sampled_from(PRESET_NAMES))
    kind = data.draw(st.sampled_from(EXPERIMENT_KINDS))
    cfg = preset(name).to_dict()
    small = 2 if name == "example2_affine" else 3
    cfg.update(n=small, n_min=2, n_max=small, seeds=30 if kind == "pairs" else 2,
               mc_samples=500, word_budget=20_000, map_budget=2_000_000)
    path = data.draw(st.sampled_from(list(_json_paths(cfg))))
    value = copy.deepcopy(data.draw(st.sampled_from(_MUTANT_VALUES)))
    if not path:
        cfg = value
    else:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = value
    config = tmp_path / "mutant.json"
    config.write_text(json.dumps(cfg))
    threads = data.draw(st.sampled_from(["1", "2"]))
    capsys.readouterr()
    code = main([kind, "--config", str(config), "--out", str(tmp_path / "out"),
                 "--threads", threads])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
