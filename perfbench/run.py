"""rifs benchmark: per-kind wall time of ``rifs.experiments.run`` on three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload line --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``total_s``, one
``<kind>_s`` per CLI kind, ``peak_rss_mb``); ``--trace 1`` prints the
per-layer metrics of ``layertrace.py``.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds stamps, round counts, raw medians and quartiles.  Workloads are defined in
``workloads.py``, output checks in ``checks.py``.

Each run starts fresh interpreters with OpenBLAS and OpenMP pinned to one
thread: ``SETUP_REPEATS`` set-up probes (after one untimed warm-up probe)
and one worker process that runs the rounds (``worker.py``).  Timings are
medians over rounds (over probes for ``setup_s``).

The machine this was built on is shared, and its speed drifts by 10-40%
within seconds and between minutes, which would swamp the bounds.  So the
worker also times ``calibration_kernel`` (work like a run call's, but no
``rifs`` code) before every run call and once after each round.  Each
call's time is divided by the mean of the two calibration samples around
it and multiplied by ``CAL_REF_S``: seconds on a machine on which that
kernel takes ``CAL_REF_S``.  Every timed metric except ``setup_s`` (measured
in other processes) is such a rescaled median; the details line keeps the
raw medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
CAL_REF_S = 0.04
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import KINDS, WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    return env


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _worker(args: list, timeout: float) -> dict:
    """Run ``worker.py`` and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=_env(),
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rescaled(rounds, calibration) -> list:
    """Per round, each kind's seconds at the calibration speed around it."""
    out = []
    for times, cal in zip(rounds, calibration):
        out.append({kind: t * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1])
                    for i, (kind, t) in enumerate(times.items())})
    return out


def _layer_scale(unit: str, cal: float) -> float:
    """Rescaling of one traced round's per-layer value (see ``_rescaled``)."""
    return {"s": CAL_REF_S / cal, "ns": CAL_REF_S / cal, "1/s": cal / CAL_REF_S}.get(unit, 1.0)


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="store the default-seed outputs as references.json")
    args = ap.parse_args(argv)
    if not (SRC / "rifs" / "__init__.py").is_file():
        print(f"perfbench: no rifs package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_REPEATS + 1):
                probe = _worker(common + ["--setup"], timeout=60)
                if i:  # the first probe only warms the file and bytecode caches
                    setup.append(probe["setup_s"])
        remaining = DEADLINE_S - (time.perf_counter() - started)
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--out", str(work)]
                      + (["--record-references"] if args.record_references else []),
                      timeout=remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw = res["rounds"]
    timed = _rescaled(raw, res["calibration"])
    samples = {f"{k}_s": [r[k] for r in timed if k in r] for k in KINDS}
    samples["total_s"] = [sum(r.values()) for r in timed]
    raw_medians = {f"{k}_s": statistics.median(r[k] for r in raw) for k in KINDS}
    if args.trace:
        import layertrace
        untraced_total = statistics.median(samples["total_s"])
        samples = {name: [agg.get(name, 0.0) * _layer_scale(unit, statistics.median(cal))
                          for agg, cal in zip(res["traced_rounds"], res["traced_calibration"])]
                   for name, unit, _ in layertrace.LAYER_METRICS}
        samples["trace.overhead_ratio"] = [
            sum(r.values()) / untraced_total
            for r in _rescaled(res["traced_seconds"], res["traced_calibration"])]
        samples["fail_ratio"] = [res["failed"] / res["attempted"]]
        units = {name: unit for name, unit, _ in layertrace.LAYER_METRICS}
    else:
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [res["peak_rss_mb"]]
        units = dict({f"{k}_s": "s" for k in KINDS}, setup_s="s", total_s="s",
                     peak_rss_mb="MiB")

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if samples[name]}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "stamps": dict(res["stamps"], git_sha=_git_sha(), nproc=os.cpu_count(),
                       OPENBLAS_NUM_THREADS=_env()["OPENBLAS_NUM_THREADS"]),
        "rounds": len(raw), "traced_rounds": len(res.get("traced_rounds", [])),
        "raw_medians": raw_medians,
        "quartiles": {name: _quartiles(v) for name, v in samples.items() if v},
        "warnings": res["warnings"],
        "problems": res["problems"],
    }
    for problem in res["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    correct = not res["problems"] and res["failed"] == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
