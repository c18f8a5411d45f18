import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rifs import attractor, keyed, symbolic
from rifs.analysis import CoverageGrid
from rifs.cli import main
from rifs.errors import InputError
from rifs.experiments import (EXPERIMENT_KINDS, ExperimentConfig, Gauge, preset,
                              run)
from rifs.random_model import AffineSpec, MatrixFamily, SimilaritySpec
from rifs.symbolic import BernoulliMeasure, MarkovMeasure


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
    for name in ("baby_theorem", "example2_affine"):
        cfg = preset(name)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone.digest() == cfg.digest()
        assert clone.family.rho_max == pytest.approx(cfg.family.rho_max)


# ---------------------------------------------------------------------------
# run() outputs
# ---------------------------------------------------------------------------

def _small_config(kind):
    cfg = preset("baby_theorem")
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


def test_cli_exit_codes(tmp_path, monkeypatch):
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
    }
    for name, mutate in probes.items():
        raw = json.loads((tmp_path / "subcritical_contrast.json").read_text())
        mutate(raw)
        probe = tmp_path / f"{name}.json"
        probe.write_text(json.dumps(raw))
        assert main(["levelset", "--config", str(probe),
                     "--out", str(tmp_path / f"o_{name}")]) == 2, name
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
], ids=["bernoulli-nan", "bernoulli-inf", "markov-nan", "markov-transition-nan",
        "translation-inf", "translation-nan", "affine-weight-nan", "affine-base-inf",
        "affine-base-nan", "grid-h-nan", "grid-lo-nan", "root-seed-negative"])
def test_non_finite_or_out_of_range_input_raises_input_error(build):
    with pytest.raises(InputError):
        build()
