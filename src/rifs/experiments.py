"""Experiment configuration, presets, and the report-producing orchestrator.

A config is a plain JSON document (family, measure, tail, gauge, experiment
kind, numeric knobs, master seed).  Its form is declared once: the top-level
keys are the fields of ``ExperimentConfig`` (the gauge under ``"g"``), their
JSON types follow from the field annotations, and the keys of each nested
object are the entries of ``_SCHEMA``.  Encoding, decoding, type checks and
the rejection of an unknown key at any level all read these declarations.
A key whose value is the default may be omitted.

``run`` validates a config, executes the named experiment, and writes CSV
reports whose first lines carry the config digest and the fully resolved
config, so every output file is self-describing and reruns with the same
seed are byte-identical.  Seed-independent work is shared, read only: the
level sets (cut from one cylinder tree) are made once per run, and a
detwindow run builds its tree once per seed group.  Supercriticality
(entropy above the Lyapunov exponent) is required for the coverage-type
experiments unless explicitly waived for contrast runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import (CoverageGrid, attractor_measure_estimate,
                       coverage_estimates, density_sweeps, det_window_reports,
                       transversality_scaling)
from .attractor import (MAP_BUDGET_DEFAULT, bounding_ball, write_points_csv,
                        write_svg_scatter)
from .errors import InputError
from .random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                           lyapunov_exponent, mc_lyapunov_prime, moment_report)
from .symbolic import (MAX_DIGIT_SYMBOL, BernoulliMeasure, MarkovMeasure, SymbolicMeasure,
                       TailSequence, WORD_BUDGET_DEFAULT, _write_atomic, entropy, level_set,
                       level_sets, slow_decay_constant, text_table, write_levelset_csv,
                       write_word_table)
from .walk import map_seed_groups

EXPERIMENT_KINDS = ("levelset", "lyapunov", "detwindow", "pairs", "coverage",
                    "attractor", "density")
_SUPERCRITICAL_KINDS = ("coverage", "attractor", "density")
# kinds whose reports list words
_WORD_KINDS = ("levelset", "attractor")
# Upper limits on the replicate counts, so that a mistyped huge value exits 2
# instead of starting a run that cannot finish (Monte Carlo draws are held in
# memory, 8 bytes each).
MAX_SEEDS = 100_000
MAX_MC_SAMPLES = 10_000_000
# Upper limit on worker threads, so that a mistyped huge value exits 2 instead
# of starting up to ``seeds`` OS threads.
MAX_THREADS = 256


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
        if self.values is not None and not all(map(math.isfinite, self.values)):
            raise InputError("table gauge values must be finite")
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


# The JSON form of each config object: table entry -> (class, required keys,
# optional keys).  The keys are the class's constructor parameters and the
# attributes holding their values; a key absent from the table is an error.
_SCHEMA = {
    "family": (MatrixFamily, ("dimension", "symbols", "translations"),
               ("declared_nonsingular",)),
    "similarity": (SimilaritySpec, ("r_minus", "r_plus"), ()),
    "affine": (AffineSpec, ("r_minus", "r_plus", "base_matrices"), ("weights",)),
    "bernoulli": (BernoulliMeasure, ("p",), ()),
    "markov": (MarkovMeasure, ("pi", "P"), ()),
    "tail": (TailSequence, (), ("prefix", "period")),
    "gauge": (Gauge, ("kind",), ("q", "values", "regime")),
}
# Slots whose objects carry a "kind" key naming their table entry.  Inside an
# object, such a slot's key holds a list of them (a family's symbols).
_KINDED = {"measure": ("bernoulli", "markov"), "symbols": ("similarity", "affine")}


def _to_json(obj):
    """JSON form of a config value: arrays and tuples become lists, table objects dicts."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_to_json(x) for x in obj]
    for entry, (cls, required, optional) in _SCHEMA.items():
        if type(obj) is cls:
            d = {key: _to_json(getattr(obj, key)) for key in required + optional
                 if getattr(obj, key) is not None}
            if any(entry in kinds for kinds in _KINDED.values()):
                d["kind"] = entry
            return d
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    raise InputError(f"{type(obj).__name__} has no JSON config form")


def _from_json(d, where: str, slot: str):
    """Object of table entry ``slot`` (for a kinded slot, of the entry that the
    ``kind`` key names) from its JSON form ``d`` at config path ``where``."""
    if not isinstance(d, dict):
        raise InputError(f"config field {where!r} must be a JSON object")
    if slot in _KINDED:
        d = dict(d)
        if "kind" not in d:
            raise InputError(f"config is missing the required field '{where}.kind'")
        kind = d.pop("kind")
        if kind not in _KINDED[slot]:
            raise InputError(f"unknown {where} kind {kind!r}")
        slot = kind
    cls, required, optional = _SCHEMA[slot]
    unknown = set(d) - set(required + optional)
    if unknown:
        raise InputError(f"unknown config fields in {where!r}: {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise InputError(f"config is missing the required field '{where}.{key}'")
    for key, value in d.items():
        if key not in _KINDED:   # kinded lists hold objects, checked by their own call
            _reject_bools(value, f"{where}.{key}")
    kwargs = dict(d)
    for key in set(d) & set(_KINDED):
        if not isinstance(d[key], list):
            raise InputError(f"config field '{where}.{key}' must be a JSON list")
        kwargs[key] = [_from_json(x, f"{where}.{key}[{i}]", key)
                       for i, x in enumerate(d[key])]
    try:
        return cls(**kwargs)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed config field {where!r}: {exc}") from exc


def _reject_bools(value, where: str) -> None:
    """No field inside a config object is boolean: refuse true/false at any depth,
    where numeric constructors would read them as 1 and 0."""
    if isinstance(value, bool):
        raise InputError(f"config field {where!r} must not be true or false")
    if isinstance(value, list):
        for i, x in enumerate(value):
            _reject_bools(x, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, x in value.items():
            _reject_bools(x, f"{where}.{key}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# JSON type rule of a scalar config field, by its annotation (``| None`` dropped).
_SCALAR_RULES = {
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple": (lambda x: isinstance(x, (list, tuple)) and all(_is_number(v) for v in x),
              "a list of finite numbers"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "str": (lambda x: isinstance(x, str), "a string"),
}


def _scalar_from_json(key: str, annotation: str, value):
    """``value`` of the top-level field ``key`` after its type check; lists become tuples."""
    ok, want = _SCALAR_RULES[annotation.removesuffix(" | None")]
    if not ok(value):
        raise InputError(f"config field {key!r} must be {want}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; serializes to/from plain JSON."""

    kind: str
    family: MatrixFamily
    measure: SymbolicMeasure
    tail: TailSequence = TailSequence()
    gauge: Gauge = field(default=Gauge("one_over_n"), metadata={"json": "g"})
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
        if (self.grid_lo is None) != (self.grid_hi is None):
            problems.append("grid_lo and grid_hi must be given together")
        for key in ("grid_lo", "grid_hi"):
            corner = getattr(self, key)
            if corner is not None and len(corner) != self.family.dimension:
                problems.append(f"{key} has {len(corner)} coordinates, the family "
                                f"dimension is {self.family.dimension}")
        for key in ("word_budget", "map_budget"):
            if getattr(self, key) < 1:
                problems.append(f"{key} must be >= 1")
        if self.kind in _WORD_KINDS and self.measure.alphabet.size > MAX_DIGIT_SYMBOL:
            problems.append(
                f"{self.kind} reports spell words with one digit per symbol, so the "
                f"alphabet needs at most {MAX_DIGIT_SYMBOL} symbols, not "
                f"{self.measure.alphabet.size}")
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
            raise InputError("invalid config: " + "; ".join(problems))

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {_json_key(f): _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InputError("config must be a JSON object")
        by_key = {_json_key(f): f for f in fields(cls)}
        unknown = set(d) - set(by_key)
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        for key, f in by_key.items():
            if f.default is MISSING and key not in d:
                raise InputError(f"config is missing the required field {key!r}")
        kwargs = {}
        for key, f in by_key.items():
            if key not in d:
                continue
            if f.name in _SCHEMA or f.name in _KINDED:
                kwargs[f.name] = _from_json(d[key], key, f.name)
            elif d[key] is not None or f.default is MISSING:
                kwargs[f.name] = _scalar_from_json(key, f.type, d[key])
        return cls(**kwargs)

    def canonical(self) -> str:
        """The config as compact JSON with sorted keys, as report headers carry it."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return _digest(self.canonical())


def _digest(canonical: str) -> str:
    """The config digest: 16 hex digits of the sha256 of ``canonical()``."""
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _json_key(f) -> str:
    """JSON key of the config field ``f``."""
    return f.metadata.get("json", f.name)


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
            master_seed=20240 + 1,
            n=14, n_min=6, n_max=14,
            eps1=0.1, seeds=50,
            grid_lo=(-0.35,), grid_hi=(2.05,), grid_h=2.0 ** -12)
    if name == "example1_2d":
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(2, [SimilaritySpec(0.7, 0.9)] * 2,
                                [[0.0, 0.0], [1.0, 0.0]]),
            measure=BernoulliMeasure([0.5, 0.5]),
            master_seed=20240 + 2,
            n=10, n_min=4, n_max=10,
            eps1=0.02, seeds=50,
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
            master_seed=20240 + 3,
            n=4, n_min=2, n_max=4,
            eps1=0.02, N1=2, seeds=50,
            grid_lo=(-2.2, -2.2), grid_hi=(2.2, 2.2), grid_h=2.0 ** -8)
    if name == "subcritical_contrast":
        return ExperimentConfig(
            kind="lyapunov",
            family=MatrixFamily(1, [SimilaritySpec(0.2, 0.3)] * 2, [[0.0], [0.5]]),
            measure=BernoulliMeasure([0.5, 0.5]),
            master_seed=20240 + 4,
            n=10, n_min=4, n_max=12,
            eps1=0.1, seeds=50,
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


def _self_description(canonical: str) -> str:
    return f"config_digest={_digest(canonical)} config={canonical}"


def _csv_head(header: list, canonical: str) -> str:
    """The self-describing config comment lines and the column header of a
    report CSV, from ``config.canonical()``."""
    return f"# config_digest={_digest(canonical)}\n# config={canonical}\n{','.join(header)}\n"


def _write_csv(path: Path, header: list, rows: list, canonical: str) -> None:
    """Atomic CSV write with a self-describing config header comment."""
    lines = [_csv_head(header, canonical)]
    lines.extend(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    _write_atomic(path, ["".join(lines).encode()])


def run(config: ExperimentConfig, out_dir, threads: int = 1) -> list:
    """Execute the configured experiment; returns the written file paths."""
    if not 1 <= threads <= MAX_THREADS:
        raise InputError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")
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
    # serialized once for every report header of the run
    return runner(config, out, threads, config.canonical())


def _run_levelset(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    ls = level_set(cfg.measure, cfg.n, cfg.word_budget)
    path = out / "levelset.csv"
    write_levelset_csv(ls, path, header_comment=_self_description(canonical))
    return [path]


def _run_lyapunov(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    analytic = moment_report(cfg.family, cfg.measure, cfg.cramer_s)
    h = cfg.entropy()
    rows = []
    for i in cfg.family.alphabet.symbols:
        mc, stderr = mc_lyapunov_prime(cfg.family, i, cfg.mc_samples, cfg.master_seed)
        rows.append([f"lyapunov_prime_{i}", analytic.lyapunov_prime[i - 1]])
        rows.append([f"lyapunov_prime_mc_{i}", mc])
        rows.append([f"lyapunov_prime_mc_stderr_{i}", stderr])
    rows.append(["lyapunov", analytic.lyapunov])
    rows.append(["entropy", h])
    rows.append(["ratio", h / analytic.lyapunov])
    for s in cfg.cramer_s:
        for i in cfg.family.alphabet.symbols:
            rows.append([f"cramer_sym{i}_s{_fmt(float(s))}",
                         analytic.cramer_values[float(s)][i - 1]])
    path = out / "moments.csv"
    _write_csv(path, ["quantity", "value"], rows, canonical)
    return [path]


def _run_detwindow(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    eps1 = cfg.resolved_eps1()
    reports = map_seed_groups(
        lambda rs: det_window_reports(rs, cfg.measure, cfg.n, eps1, cfg.C, cfg.N1, cfg.word_budget),
        cfg.family, cfg.master_seed, cfg.seeds, 1, threads)   # one report per seed
    rows = []
    for j, rep in enumerate(reports):
        fit = rep.bad_fraction_log_slope()
        slope, stderr = fit if fit is not None else (float("nan"), float("nan"))
        rows.append([j, rep.n, rep.eps1, rep.C, rep.N1, rep.lyapunov,
                     rep.good_mass, slope, stderr])
    p1 = out / "detwindow.csv"
    _write_csv(p1, ["seed", "n", "eps1", "C", "N1", "lyapunov", "good_mass",
                    "bad_slope", "bad_slope_stderr"], rows, canonical)
    # one row per seed and depth k, written from byte tables of the integer columns
    depths = [rep.per_prefix_totals.size for rep in reports]
    hist = (np.repeat(np.arange(len(reports)), depths),
            np.concatenate([np.arange(1, k + 1) for k in depths]),
            np.concatenate([rep.per_prefix_failures for rep in reports]),
            np.concatenate([rep.per_prefix_totals for rep in reports]))
    p2 = out / "detwindow_hist.csv"
    write_word_table(p2, _csv_head(["seed", "k", "bad", "total"], canonical), None,
                     [text_table(col, str) for col in hist])
    return [p1, p2]


def _run_pairs(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    fit = transversality_scaling(cfg.family, cfg.measure, cfg.tail, cfg.n,
                                 cfg.s_list, cfg.seeds, cfg.master_seed,
                                 cfg.word_budget, cfg.map_budget, threads)
    p1 = out / "pairs.csv"
    _write_csv(p1, ["s", "mean_normalized_count"],
               [[s, v] for s, v in zip(fit.s_values, fit.mean_normalized)], canonical)
    p2 = out / "pairs_fit.csv"
    if fit.below_resolution:
        _write_csv(p2, ["slope", "stderr", "n_points"],
                   [["below_resolution", "", fit.n_points]], canonical)
    else:
        _write_csv(p2, ["slope", "stderr", "n_points"],
                   [[fit.slope, fit.stderr, fit.n_points]], canonical)
    return [p1, p2]


def _run_coverage(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    grid = cfg.grid()
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    # the level sets are seed-independent: selected once from one tree
    sets = level_sets(cfg.measure, levels, cfg.word_budget)

    reports = map_seed_groups(
        lambda rs: coverage_estimates(rs, sets, cfg.tail, cfg.gauge, grid, cfg.map_budget),
        cfg.family, cfg.master_seed, cfg.seeds, sum(map(len, sets)), threads)
    rows = []
    for j, rep in enumerate(reports):
        for n in levels:
            rows.append([j, n, rep.regime, rep.per_level_outer[n],
                         rep.per_level_inner[n],
                         rep.running_intersection_measure[n]])
    path = out / "coverage.csv"
    _write_csv(path, ["seed", "n", "regime", "outer_measure", "inner_measure",
                      "tail_union_measure"], rows, canonical)
    return [path]


def _run_attractor(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    grid = cfg.grid()
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    r = Realization(cfg.master_seed, cfg.family)
    rep = attractor_measure_estimate(r, cfg.measure, levels, grid,
                                     cfg.diam_scale, cfg.tail,
                                     cfg.word_budget, cfg.map_budget)
    rows = [[n, rep.per_level[n]] for n in levels]
    rows.append(["last3_rel_change", rep.last3_rel_change])
    p1 = out / "attractor.csv"
    _write_csv(p1, ["n", "outer_measure"], rows, canonical)
    paths = [p1]

    pts = rep.points   # level n_max, at the estimate's target radius
    p2 = out / "attractor_points.csv"
    write_points_csv(pts, p2, header_comment=_self_description(canonical))
    paths.append(p2)
    if cfg.family.dimension == 2:
        p3 = out / "attractor_points.svg"
        write_svg_scatter(pts, p3, header_comment=f"config_digest={_digest(canonical)}")
        paths.append(p3)
    return paths


def _run_density(cfg: ExperimentConfig, out: Path, threads: int, canonical: str) -> list:
    sets = level_sets(cfg.measure, range(cfg.n_min, cfg.n_max + 1), cfg.word_budget)

    results = map_seed_groups(
        lambda rs: density_sweeps(rs, sets, cfg.tail, cfg.c_list, cfg.s_list, cfg.map_budget),
        cfg.family, cfg.master_seed, cfg.seeds, sum(map(len, sets)), threads)
    rows = []
    summary = []
    for j, (reports, best) in enumerate(results):
        for rep in reports:
            for n, ratio, member in zip(rep.n_values, rep.ratios, rep.members):
                rows.append([j, rep.c, rep.s, n, ratio, member])
            summary.append([j, rep.c, rep.s, rep.upper_density,
                            rep is best])
    p1 = out / "density.csv"
    _write_csv(p1, ["seed", "c", "s", "n", "ratio", "member"], rows, canonical)
    p2 = out / "density_summary.csv"
    _write_csv(p2, ["seed", "c", "s", "upper_density", "best"], summary, canonical)
    return [p1, p2]
