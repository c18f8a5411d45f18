"""One workload process: rounds of ``rifs.experiments.run`` calls, checked.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
``--setup`` only times ``import rifs`` plus building and validating the
workload's configs.  Otherwise the worker

1. runs one reference round at the default seed (warm-up, untimed) and
   compares it with ``references.json``;
2. runs closed-loop rounds at the workload seed until ``--seconds`` pass
   (half of them when tracing), timing each ``run`` call;
3. with ``--trace 1``, installs the layer trace and runs traced rounds for
   the other half;

and prints one JSON object with the samples, checks and stamps.  Before
every ``run`` call (and once after each round) it collects garbage and
times ``calibration_kernel``; ``run.py`` divides each call's time by the
samples around it to cancel drift in the machine's speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path

MIN_ROUNDS = 3
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def _setup(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    import rifs  # noqa: F401  (timed on purpose)
    from workloads import build_configs
    for _, cfg in build_configs(workload, seed):
        cfg.validate()
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def calibration_kernel() -> float:
    """Seconds for fixed work that uses no rifs code but resembles it.

    Like a ``run`` call it mixes numpy calls on mid-sized arrays (hashing,
    masking, gathers) with interpreter work building tuples and CSV text, so
    the machine's speed changes move it about as much as they move ``rifs``.
    """
    import numpy as np
    t0 = time.perf_counter()
    x = np.arange(4096, dtype=np.uint64)
    m = np.uint64(0x9E3779B97F4A7C15)
    for _ in range(300):
        y = x * m
        y ^= y >> np.uint64(29)
        u = (y >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        x[np.flatnonzero(u > 0.5)] += np.uint64(1)
    rows = [(i, i * 0.5) for i in range(30000)]
    "\n".join(f"{a},{b!r}" for a, b in rows)
    return time.perf_counter() - t0


class Round:
    """Times, output hashes and failures of one pass over the configs."""

    def __init__(self):
        self.seconds: dict = {}
        self.cpu: dict = {}
        self.hashes: dict = {}
        self.paths: dict = {}
        self.errors: list = []
        self.calibration: list = []
        self.warnings: dict = {}   # kind -> warnings caught during its run call


def run_round(configs, out_root: Path, call) -> Round:
    """One ``run`` call per config, each after a collection and a calibration."""
    from rifs.experiments import run

    rnd = Round()
    for kind, cfg in configs:
        gc.collect()  # start every call from the same collector state
        rnd.calibration.append(calibration_kernel())
        out = out_root / kind
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                paths = call(run, cfg, out)
            except Exception as exc:  # BudgetError, InputError or a crash: a failed call
                rnd.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                rnd.seconds[kind] = time.perf_counter() - t0
                rnd.cpu[kind] = time.process_time() - c0
        if caught:
            rnd.warnings[kind] = len(caught)
        rnd.paths[kind] = [Path(p) for p in paths]
        rnd.hashes[kind] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in rnd.paths[kind]}
    gc.collect()
    rnd.calibration.append(calibration_kernel())
    return rnd


def _loop(configs, out_root, seconds, call, after=None) -> list:
    """Closed loop: rounds back to back until ``seconds`` pass (at least 3)."""
    rounds = []
    end = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < end:
        rounds.append(run_round(configs, out_root, call))
        if after is not None:
            after(rounds[-1])
        if rounds[-1].errors:
            break
    return rounds


def _direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None, help="directory for the run outputs")
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    if args.setup:
        print(json.dumps({"setup_s": _setup(args.workload, args.seed)}))
        return 0

    import numpy as np
    import scipy
    import checks
    from workloads import DEFAULT_SEED, build_configs

    out_root = Path(args.out)
    problems: list = []
    attempted = failed = 0

    def account(rounds):
        nonlocal attempted, failed
        for rnd in rounds:
            attempted += len(rnd.seconds)
            failed += len(rnd.errors)
            problems.extend(rnd.errors)

    # 1. reference round at the default seed
    ref_configs = build_configs(args.workload, DEFAULT_SEED)
    ref = run_round(ref_configs, out_root / "reference", _direct)
    account([ref])
    summaries = {}
    for kind, cfg in ref_configs:
        for p in ref.paths.get(kind, []):
            if p.suffix == ".csv":
                summaries[f"{kind}/{p.name}"] = checks.summarize(p)
    if args.record_references:
        recorded = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        recorded[args.workload] = summaries
        REFERENCES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    else:
        recorded = json.loads(REFERENCES.read_text()).get(args.workload, {})
        if set(recorded) != set(summaries):
            problems.append("reference: output files differ from the recorded set")
        for key in sorted(set(recorded) & set(summaries)):
            problems.extend(checks.compare_reference(
                key.split("/")[1], summaries[key], recorded[key]))
    for kind, cfg in ref_configs:
        if kind in ref.paths:
            problems.extend(checks.invariants(kind, cfg, ref.paths[kind]))

    # 2. timed rounds at the workload seed, tracing off
    configs = build_configs(args.workload, args.seed)
    share = args.seconds / 2 if args.trace else args.seconds
    rounds = _loop(configs, out_root / "timed", share, _direct)
    account(rounds)
    if not rounds[0].errors:
        for kind, cfg in configs:
            problems.extend(checks.invariants(kind, cfg, rounds[0].paths[kind]))

    # 3. traced rounds
    traced = []
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        round_spans = []

        def keep_spans(rnd):
            round_spans.append(tracer.spans)
            tracer.spans = []

        traced = _loop(configs, out_root / "timed", share, tracer.run_root, keep_spans)
        account(traced)

    problems.extend(checks.byte_check([r.hashes for r in rounds + traced]))

    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": [r.seconds for r in rounds],
        "calibration": [r.calibration for r in rounds],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warnings": rounds[0].warnings,
        "stamps": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    if args.trace:
        layers = []
        for rnd, spans in zip(traced, round_spans):
            agg = layertrace.aggregate(spans)
            agg["experiments.run.cpu_s"] = sum(rnd.cpu.values())
            agg["coverage.warnings"] = rnd.warnings.get("coverage", 0)
            layers.append(dict(agg))
        result["traced_rounds"] = layers
        result["traced_seconds"] = [r.seconds for r in traced]
        result["traced_calibration"] = [r.calibration for r in traced]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
