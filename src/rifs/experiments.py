"""Experiment configuration, presets, and the report-producing orchestrator.

A config is a plain JSON document (family, measure, tail, gauge, experiment
kind, numeric knobs, master seed).  ``run`` validates it, executes the named
experiment, and writes CSV reports whose first lines carry the config digest
and the fully resolved config, so every output file is self-describing and
reruns with the same seed are byte-identical.  Seed-independent work (the
cylinder tree and the level sets selected from it) is done once per run and
shared, read only, by every seed.  Supercriticality (entropy above the
Lyapunov exponent) is required for the coverage-type experiments unless
explicitly waived for contrast runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import keyed
from .analysis import (CoverageGrid, attractor_measure_estimate,
                       coverage_estimate, density_sweep, det_window_report,
                       transversality_scaling)
from .attractor import (MAP_BUDGET_DEFAULT, bounding_ball, write_points_csv,
                        write_svg_scatter)
from .errors import InputError
from .random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                           lyapunov_exponent, moment_report)
from .symbolic import (BernoulliMeasure, MarkovMeasure, SymbolicMeasure,
                       TailSequence, WORD_BUDGET_DEFAULT, _write_atomic, entropy,
                       iter_level_frontiers, level_set, level_sets,
                       slow_decay_constant, write_levelset_csv)

EXPERIMENT_KINDS = ("levelset", "lyapunov", "detwindow", "pairs", "coverage",
                    "attractor", "density")
_SUPERCRITICAL_KINDS = ("coverage", "attractor", "density")
# Upper limits on the replicate counts, so that a mistyped huge value exits 2
# instead of starting a run that cannot finish (Monte Carlo draws are held in
# memory, 8 bytes each).
MAX_SEEDS = 100_000
MAX_MC_SAMPLES = 10_000_000


class Gauge:
    """Gauge function g on level indices: one_over_n, geometric(q), or a table."""

    def __init__(self, kind: str, q: float | None = None, values=None,
                 regime: str | None = None):
        if kind == "one_over_n":
            regime = regime or "divergent"
        elif kind == "geometric":
            if q is None or not 0.0 < q < 1.0:
                raise InputError("geometric gauge needs a ratio q in (0, 1)")
            regime = regime or "convergent"
        elif kind == "table":
            if values is None or len(values) == 0:
                raise InputError("table gauge needs a nonempty value list")
            if regime is None:
                raise InputError("table gauge must declare its regime "
                                 "('divergent' or 'convergent')")
        else:
            raise InputError(f"unknown gauge kind {kind!r}")
        if regime not in ("divergent", "convergent"):
            raise InputError(f"gauge regime must be divergent/convergent, got {regime!r}")
        self.kind = kind
        self.q = None if q is None else float(q)
        self.values = None if values is None else [float(v) for v in values]
        self.regime = regime

    def __call__(self, n: int) -> float:
        if n < 1:
            raise InputError("gauge arguments are 1-based level indices")
        if self.kind == "one_over_n":
            return 1.0 / n
        if self.kind == "geometric":
            return self.q ** n
        if n > len(self.values):
            raise InputError(f"table gauge has {len(self.values)} values; asked for g({n})")
        return self.values[n - 1]

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "regime": self.regime}
        if self.q is not None:
            d["q"] = self.q
        if self.values is not None:
            d["values"] = self.values
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Gauge":
        return cls(_field(d, "kind", "g"), q=d.get("q"), values=d.get("values"),
                   regime=d.get("regime"))


def _family_to_dict(f: MatrixFamily) -> dict:
    symbols = []
    for spec in f.symbols:
        if isinstance(spec, SimilaritySpec):
            symbols.append({"kind": "similarity", "r_minus": spec.r_minus,
                            "r_plus": spec.r_plus})
        else:
            symbols.append({"kind": "affine", "r_minus": spec.r_minus,
                            "r_plus": spec.r_plus,
                            "base_matrices": spec.base_matrices.tolist(),
                            "weights": spec.weights.tolist()})
    return {"dimension": f.dimension, "symbols": symbols,
            "translations": f.translations.tolist(),
            "declared_nonsingular": f.declared_nonsingular}


def _field(d, key: str, where: str):
    """``d[key]`` of the config object at ``where``; InputError naming a missing field."""
    if not isinstance(d, dict):
        raise InputError(f"config field {where!r} must be a JSON object")
    if key not in d:
        raise InputError(f"config is missing the required field '{where}.{key}'")
    return d[key]


def _family_from_dict(d: dict) -> MatrixFamily:
    specs = []
    for k, s in enumerate(_field(d, "symbols", "family")):
        where = f"family.symbols[{k}]"
        kind = _field(s, "kind", where)
        if kind == "similarity":
            specs.append(SimilaritySpec(_field(s, "r_minus", where),
                                        _field(s, "r_plus", where)))
        elif kind == "affine":
            specs.append(AffineSpec(_field(s, "r_minus", where), _field(s, "r_plus", where),
                                    _field(s, "base_matrices", where), s.get("weights")))
        else:
            raise InputError(f"unknown symbol spec kind {kind!r}")
    return MatrixFamily(_field(d, "dimension", "family"), specs,
                        _field(d, "translations", "family"),
                        d.get("declared_nonsingular", "distant"))


def _measure_to_dict(m: SymbolicMeasure) -> dict:
    if isinstance(m, BernoulliMeasure):
        return {"kind": "bernoulli", "p": m.p.tolist()}
    if isinstance(m, MarkovMeasure):
        return {"kind": "markov", "pi": m.pi.tolist(), "P": m.P.tolist()}
    raise InputError(f"unsupported measure type {type(m).__name__}")


def _measure_from_dict(d: dict) -> SymbolicMeasure:
    kind = _field(d, "kind", "measure")
    if kind == "bernoulli":
        return BernoulliMeasure(_field(d, "p", "measure"))
    if kind == "markov":
        return MarkovMeasure(_field(d, "pi", "measure"), _field(d, "P", "measure"))
    raise InputError(f"unknown measure kind {kind!r}")


_INT_FIELDS = ("master_seed", "n", "n_min", "n_max", "N1", "seeds", "mc_samples",
               "word_budget", "map_budget")
_FLOAT_FIELDS = ("eps1", "C", "grid_h", "diam_scale")
_LIST_FIELDS = ("s_list", "c_list", "cramer_s", "grid_lo", "grid_hi")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_scalar(key: str, value) -> None:
    """InputError naming ``key`` when a top-level config field has the wrong type."""
    if key in _INT_FIELDS:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif key in _FLOAT_FIELDS:
        ok, want = _is_number(value), "a finite number"
    elif key in _LIST_FIELDS:
        ok = isinstance(value, (list, tuple)) and all(_is_number(x) for x in value)
        want = "a list of finite numbers"
    elif key == "allow_subcritical":
        ok, want = isinstance(value, bool), "true or false"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise InputError(f"config field {key!r} must be {want}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; serializes to/from plain JSON."""

    kind: str
    family: MatrixFamily
    measure: SymbolicMeasure
    tail: TailSequence
    gauge: Gauge
    master_seed: int = 0
    n: int = 8
    n_min: int = 4
    n_max: int = 10
    eps1: float | None = None
    C: float = math.e ** 2
    N1: int = 5
    s_list: tuple = (0.5, 1.0, 2.0, 4.0)
    c_list: tuple = (0.5,)
    seeds: int = 30
    grid_lo: tuple | None = None
    grid_hi: tuple | None = None
    grid_h: float = 2.0 ** -10
    diam_scale: float = 1.0
    mc_samples: int = 100_000
    cramer_s: tuple = (0.5, 1.0)
    word_budget: int = WORD_BUDGET_DEFAULT
    map_budget: int = MAP_BUDGET_DEFAULT
    allow_subcritical: bool = False

    # -- derived quantities ----------------------------------------------------
    def entropy(self) -> float:
        return entropy(self.measure)

    def lyapunov(self) -> float:
        return lyapunov_exponent(self.family, self.measure)

    def resolved_eps1(self) -> float:
        if self.eps1 is not None:
            return float(self.eps1)
        gap = self.entropy() - self.lyapunov()
        if gap <= 0.0:
            raise InputError("eps1 must be given explicitly for subcritical configs")
        return 0.1 * gap

    def grid(self) -> CoverageGrid:
        if self.grid_lo is None or self.grid_hi is None:
            R = bounding_ball(self.family)
            d = self.family.dimension
            return CoverageGrid(np.full(d, -R), np.full(d, R), self.grid_h)
        return CoverageGrid(np.asarray(self.grid_lo), np.asarray(self.grid_hi),
                            self.grid_h)

    def validate(self) -> None:
        """Raise InputError listing every violated invariant."""
        problems = []
        if self.kind not in EXPERIMENT_KINDS:
            problems.append(f"unknown experiment kind {self.kind!r}")
        if self.measure.alphabet.size != self.family.alphabet.size:
            problems.append(
                f"measure alphabet ({self.measure.alphabet.size}) does not match "
                f"family alphabet ({self.family.alphabet.size})")
        try:
            self.tail.validate(self.family.alphabet)
        except InputError as exc:
            problems.append(str(exc))
        if self.n < 1:
            problems.append("level index n must be >= 1")
        if not 1 <= self.n_min <= self.n_max:
            problems.append("need 1 <= n_min <= n_max")
        if not 1 <= self.seeds <= MAX_SEEDS:
            problems.append(f"seeds must be between 1 and {MAX_SEEDS}")
        if not 2 <= self.mc_samples <= MAX_MC_SAMPLES:
            problems.append(f"mc_samples must be between 2 and {MAX_MC_SAMPLES}")
        if not 0 <= self.master_seed <= 0xFFFFFFFFFFFFFFFF:
            problems.append("master_seed must be a 64-bit unsigned integer")
        if self.C <= 0:
            problems.append("window constant C must be positive")
        if self.N1 < 1:
            problems.append("prefix threshold N1 must be >= 1")
        if not problems:
            deepest = max(self.n, self.n_max)
            if slow_decay_constant(self.measure) ** deepest == 0.0:
                problems.append(f"level index {deepest} is too deep: the level "
                                "threshold c**n underflows to 0")
            h = self.entropy()
            lam = self.lyapunov()
            if self.kind in _SUPERCRITICAL_KINDS and not self.allow_subcritical \
                    and h <= lam:
                problems.append(
                    f"{self.kind} experiments need entropy above the Lyapunov "
                    f"exponent: h = {h:.6f} <= lambda = {lam:.6f} "
                    "(pass --allow-subcritical for a contrast run)")
            if self.eps1 is not None and h > lam and h - lam - 2 * self.eps1 <= 0:
                problems.append(
                    f"eps1 = {self.eps1} violates h - lambda - 2 eps1 > 0 "
                    f"(h = {h:.6f}, lambda = {lam:.6f})")
            elif self.eps1 is not None and self.eps1 <= 0:
                problems.append("eps1 must be positive")
        if problems:
            raise InputError("invalid config:\n  - " + "\n  - ".join(problems))

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": _family_to_dict(self.family),
            "measure": _measure_to_dict(self.measure),
            "tail": {"prefix": list(self.tail.prefix), "period": list(self.tail.period)},
            "g": self.gauge.to_dict(),
            "master_seed": self.master_seed,
            "n": self.n, "n_min": self.n_min, "n_max": self.n_max,
            "eps1": self.eps1, "C": self.C, "N1": self.N1,
            "s_list": list(self.s_list), "c_list": list(self.c_list),
            "seeds": self.seeds,
            "grid_lo": None if self.grid_lo is None else list(self.grid_lo),
            "grid_hi": None if self.grid_hi is None else list(self.grid_hi),
            "grid_h": self.grid_h,
            "diam_scale": self.diam_scale,
            "mc_samples": self.mc_samples,
            "cramer_s": list(self.cramer_s),
            "word_budget": self.word_budget,
            "map_budget": self.map_budget,
            "allow_subcritical": self.allow_subcritical,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {
            "kind", "family", "measure", "tail", "g", "master_seed", "n", "n_min",
            "n_max", "eps1", "C", "N1", "s_list", "c_list", "seeds", "grid_lo",
            "grid_hi", "grid_h", "diam_scale", "mc_samples", "cramer_s",
            "word_budget", "map_budget", "allow_subcritical"}
        if not isinstance(d, dict):
            raise InputError("config must be a JSON object")
        unknown = set(d) - known
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        for key in ("kind", "family", "measure"):
            if key not in d:
                raise InputError(f"config is missing the required field {key!r}")
        _check_scalar("kind", d["kind"])
        try:
            kwargs = dict(
                kind=d["kind"],
                family=_family_from_dict(d["family"]),
                measure=_measure_from_dict(d["measure"]),
                tail=TailSequence(**d.get("tail", {"prefix": [], "period": [1]})),
                gauge=Gauge.from_dict(d.get("g", {"kind": "one_over_n"})),
            )
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed family, measure, tail or gauge: {exc}") from exc
        for key in sorted(known - {"kind", "family", "measure", "tail", "g"}):
            if key in d and d[key] is not None:
                _check_scalar(key, d[key])
                kwargs[key] = tuple(d[key]) if key in _LIST_FIELDS else d[key]
        return cls(**kwargs)

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("baby_theorem", "example1_2d", "example2_affine",
                "subcritical_contrast")


def preset(name: str) -> ExperimentConfig:
    """Built-in configurations for the standard model settings.

    ``baby_theorem``: two positive similarities on the line, scalars uniform
    on [0.5, 0.9], uniform two-symbol measure (supercritical, ratio ~1.87).
    ``example1_2d``: planar rotation-similarity pair. ``example2_affine``:
    eight-symbol planar affine family with unit translations and operator
    norms below 1/2. ``subcritical_contrast``: strongly contracting line
    family with entropy below the Lyapunov exponent; coverage-type runs on it
    require the explicit subcritical waiver.
    """
    if name == "baby_theorem":
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(1, [SimilaritySpec(0.5, 0.9)] * 2, [[0.0], [0.5]]),
            measure=BernoulliMeasure([0.5, 0.5]),
            tail=TailSequence.constant(1),
            gauge=Gauge("one_over_n"),
            master_seed=20240 + 1,
            n=14, n_min=6, n_max=14,
            eps1=0.1, C=math.e ** 2, N1=5,
            s_list=(0.5, 1.0, 2.0, 4.0), c_list=(0.5,), seeds=50,
            grid_lo=(-0.35,), grid_hi=(2.05,), grid_h=2.0 ** -12)
    if name == "example1_2d":
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(2, [SimilaritySpec(0.7, 0.9)] * 2,
                                [[0.0, 0.0], [1.0, 0.0]]),
            measure=BernoulliMeasure([0.5, 0.5]),
            tail=TailSequence.constant(1),
            gauge=Gauge("one_over_n"),
            master_seed=20240 + 2,
            n=10, n_min=4, n_max=10,
            eps1=0.02, C=math.e ** 2, N1=5,
            s_list=(0.5, 1.0, 2.0, 4.0), c_list=(0.5,), seeds=50,
            grid_lo=(-3.5, -4.0), grid_hi=(4.5, 4.0), grid_h=2.0 ** -8)
    if name == "example2_affine":
        bases = [
            [[0.9, 0.0], [0.0, 0.7]],
            (np.array([[math.cos(math.pi / 6), -math.sin(math.pi / 6)],
                       [math.sin(math.pi / 6), math.cos(math.pi / 6)]])
             @ np.diag([0.8, 0.95])).tolist(),
        ]
        angles = [2.0 * math.pi * k / 8.0 for k in range(8)]
        translations = [[math.cos(a), math.sin(a)] for a in angles]
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(
                2, [AffineSpec(0.45, 0.49, bases, [0.5, 0.5])] * 8,
                translations, declared_nonsingular="full"),
            measure=BernoulliMeasure([1.0 / 8.0] * 8),
            tail=TailSequence.constant(1),
            gauge=Gauge("one_over_n"),
            master_seed=20240 + 3,
            n=4, n_min=2, n_max=4,
            eps1=0.02, C=math.e ** 2, N1=2,
            s_list=(0.5, 1.0, 2.0, 4.0), c_list=(0.5,), seeds=50,
            grid_lo=(-2.2, -2.2), grid_hi=(2.2, 2.2), grid_h=2.0 ** -8)
    if name == "subcritical_contrast":
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(1, [SimilaritySpec(0.2, 0.3)] * 2, [[0.0], [0.5]]),
            measure=BernoulliMeasure([0.5, 0.5]),
            tail=TailSequence.constant(1),
            gauge=Gauge("one_over_n"),
            master_seed=20240 + 4,
            n=10, n_min=4, n_max=12,
            eps1=0.1, C=math.e ** 2, N1=5,
            s_list=(0.5, 1.0, 2.0, 4.0), c_list=(0.5,), seeds=50,
            grid_lo=(-0.75,), grid_hi=(0.75,), grid_h=2.0 ** -12)
    raise InputError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _self_description(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return f"config_digest={config.digest()} config={canon}"


def _write_csv(path: Path, header: list, rows: list, config: ExperimentConfig) -> None:
    """Atomic CSV write with a self-describing config header comment."""
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    lines = [f"# config_digest={config.digest()}", f"# config={canon}",
             ",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def run(config: ExperimentConfig, out_dir, threads: int = 1) -> list:
    """Execute the configured experiment; returns the written file paths."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "levelset": _run_levelset,
        "lyapunov": _run_lyapunov,
        "detwindow": _run_detwindow,
        "pairs": _run_pairs,
        "coverage": _run_coverage,
        "attractor": _run_attractor,
        "density": _run_density,
    }[config.kind]
    return runner(config, out, threads)


def _run_levelset(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    ls = level_set(cfg.measure, cfg.n, cfg.word_budget)
    path = out / "levelset.csv"
    write_levelset_csv(ls, path, header_comment=_self_description(cfg))
    return [path]


def _run_lyapunov(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    analytic = moment_report(cfg.family, cfg.measure, cfg.cramer_s)
    mc = moment_report(cfg.family, cfg.measure, cfg.cramer_s,
                       method="monte_carlo", n_samples=cfg.mc_samples,
                       seed=cfg.master_seed)
    h = cfg.entropy()
    rows = []
    for i in cfg.family.alphabet.symbols:
        rows.append([f"lyapunov_prime_{i}", analytic.lyapunov_prime[i - 1]])
        rows.append([f"lyapunov_prime_mc_{i}", mc.lyapunov_prime[i - 1]])
        rows.append([f"lyapunov_prime_mc_stderr_{i}", mc.stderr[i - 1]])
    rows.append(["lyapunov", analytic.lyapunov])
    rows.append(["entropy", h])
    rows.append(["ratio", h / analytic.lyapunov])
    for s in cfg.cramer_s:
        for i in cfg.family.alphabet.symbols:
            rows.append([f"cramer_sym{i}_s{_fmt(float(s))}",
                         analytic.cramer_values[float(s)][i - 1]])
    path = out / "moments.csv"
    _write_csv(path, ["quantity", "value"], rows, cfg)
    return [path]


def _run_detwindow(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    eps1 = cfg.resolved_eps1()
    # the tree is seed-independent: built once and shared by every seed's walk
    tree = tuple(iter_level_frontiers(cfg.measure, cfg.n, cfg.word_budget))

    def one(j: int):
        r = Realization(keyed.derive_seed(cfg.master_seed, j), cfg.family)
        return det_window_report(r, cfg.measure, cfg.n, eps1, cfg.C, cfg.N1,
                                 cfg.word_budget, tree=tree)

    reports = keyed.map_seeds(one, cfg.seeds, threads)
    rows = []
    hist_rows = []
    for j, rep in enumerate(reports):
        fit = rep.bad_fraction_log_slope()
        slope, stderr = fit if fit is not None else (float("nan"), float("nan"))
        rows.append([j, rep.n, rep.eps1, rep.C, rep.N1, rep.lyapunov,
                     rep.good_mass, slope, stderr])
        for k, (bad, tot) in enumerate(zip(rep.per_prefix_failures,
                                           rep.per_prefix_totals), start=1):
            hist_rows.append([j, k, int(bad), int(tot)])
    p1 = out / "detwindow.csv"
    _write_csv(p1, ["seed", "n", "eps1", "C", "N1", "lyapunov", "good_mass",
                    "bad_slope", "bad_slope_stderr"], rows, cfg)
    p2 = out / "detwindow_hist.csv"
    _write_csv(p2, ["seed", "k", "bad", "total"], hist_rows, cfg)
    return [p1, p2]


def _run_pairs(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    fit = transversality_scaling(cfg.family, cfg.measure, cfg.tail, cfg.n,
                                 cfg.s_list, cfg.seeds, cfg.master_seed,
                                 cfg.word_budget, cfg.map_budget, threads)
    p1 = out / "pairs.csv"
    _write_csv(p1, ["s", "mean_normalized_count"],
               [[s, v] for s, v in zip(fit.s_values, fit.mean_normalized)], cfg)
    p2 = out / "pairs_fit.csv"
    if fit.below_resolution:
        _write_csv(p2, ["slope", "stderr", "n_points"],
                   [["below_resolution", "", fit.n_points]], cfg)
    else:
        _write_csv(p2, ["slope", "stderr", "n_points"],
                   [[fit.slope, fit.stderr, fit.n_points]], cfg)
    return [p1, p2]


def _run_coverage(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    grid = cfg.grid()
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    # the level sets are seed-independent: selected once from one tree
    sets = level_sets(cfg.measure, levels, cfg.word_budget)

    def one(j: int):
        r = Realization(keyed.derive_seed(cfg.master_seed, j), cfg.family)
        return coverage_estimate(r, cfg.measure, cfg.tail, cfg.gauge, levels,
                                 grid, cfg.word_budget, cfg.map_budget, levels=sets)

    reports = keyed.map_seeds(one, cfg.seeds, threads)
    rows = []
    for j, rep in enumerate(reports):
        for n in levels:
            rows.append([j, n, rep.regime, rep.per_level_outer[n],
                         rep.per_level_inner[n],
                         rep.running_intersection_measure[n]])
    path = out / "coverage.csv"
    _write_csv(path, ["seed", "n", "regime", "outer_measure", "inner_measure",
                      "tail_union_measure"], rows, cfg)
    return [path]


def _run_attractor(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    grid = cfg.grid()
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    r = Realization(cfg.master_seed, cfg.family)
    rep = attractor_measure_estimate(r, cfg.measure, levels, grid,
                                     cfg.diam_scale, cfg.tail,
                                     cfg.word_budget, cfg.map_budget)
    rows = [[n, rep.per_level[n]] for n in levels]
    rows.append(["last3_rel_change", rep.last3_rel_change])
    p1 = out / "attractor.csv"
    _write_csv(p1, ["n", "outer_measure"], rows, cfg)
    paths = [p1]

    pts = rep.points   # level n_max, at the estimate's target radius
    p2 = out / "attractor_points.csv"
    write_points_csv(pts, p2, header_comment=_self_description(cfg))
    paths.append(p2)
    if cfg.family.dimension == 2:
        p3 = out / "attractor_points.svg"
        write_svg_scatter(pts, p3, header_comment=f"config_digest={cfg.digest()}")
        paths.append(p3)
    return paths


def _run_density(cfg: ExperimentConfig, out: Path, threads: int) -> list:
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    sets = level_sets(cfg.measure, levels, cfg.word_budget)

    def one(j: int):
        seed = keyed.derive_seed(cfg.master_seed, j)
        return seed, density_sweep(cfg.family, cfg.measure, cfg.tail,
                                   cfg.c_list, cfg.s_list, levels, seed,
                                   cfg.word_budget, cfg.map_budget, levels=sets)

    results = keyed.map_seeds(one, cfg.seeds, threads)
    rows = []
    summary = []
    for j, (seed, (reports, best)) in enumerate(results):
        for rep in reports:
            for n, ratio, member in zip(rep.n_values, rep.ratios, rep.members):
                rows.append([j, rep.c, rep.s, n, ratio, member])
            summary.append([j, rep.c, rep.s, rep.upper_density,
                            rep is best])
    p1 = out / "density.csv"
    _write_csv(p1, ["seed", "c", "s", "n", "ratio", "member"], rows, cfg)
    p2 = out / "density_summary.csv"
    _write_csv(p2, ["seed", "c", "s", "upper_density", "best"], summary, cfg)
    return [p1, p2]
