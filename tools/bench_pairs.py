"""Alternating benchmark pairs of two checkouts, written as a ``BENCH_*.json`` record.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload plane \\
        --seeds 2701-2710 --out BENCH_27_raster.json --claim coverage_s

For each seed of the range, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each checkout, with the package of that
checkout; the first pair runs the parent first, and every pair after it
flips the order.  Each run's last stdout line is kept with its workload,
seed, trace flag, side, the side's commit and its place in the pair (order
0 ran first).  Per end-to-end metric of the change's ``BENCHMARK.json``
the summary holds both sides' quartiles, the ratio of the medians
(change / parent), the parent's spread (interquartile range over median),
the pairs in which the change was better and the metric's bound:

* ``better in every run`` when the spread exceeds the bound but every run of
  the change is better than every run of the parent;
* ``unresolved: parent spread above the bound`` when the spread exceeds it
  otherwise;
* ``worse beyond the bound`` when the median ratio moves the wrong way by
  more than the bound;
* for a metric named by ``--claim``, ``claim holds`` when the change is better
  in at least nine of ten pairs and its median is better than the parent's
  by more than the parent's interquartile range, else ``claim fails``;
* ``within the bound`` otherwise.

A metric that some run lacks (a run that is not ``correct``) gets no
quartiles: its verdict names the runs without it.

An existing ``--out`` file keeps its other workloads, so one record can
collect several invocations; the runs and summary of ``--workload`` are
replaced.  Runs set ``PYTHONDONTWRITEBYTECODE`` so nothing is written under
either ``perfbench/``; ``perfbench/run.py`` keeps its scratch directory at the
checkout's root and removes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def seed_range(text: str) -> list:
    """``"A-B"`` as the seeds A..B inclusive, ``"A"`` as one seed."""
    a, _, b = text.partition("-")
    first, last = int(a), int(b or a)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def git_sha(checkout: Path) -> str:
    """The short commit of ``checkout``, with ``-dirty`` when a tracked file differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    proc = git("rev-parse", "--short", "HEAD")
    if proc.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-B", "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench exited with code {proc.returncode} in {checkout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(runs: list, metrics: list, claims: set) -> dict:
    """The summary of one workload's runs, in the layout described above."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    lines = [r["last_line"] for r in runs]
    out = {"pairs": len(sides["parent"]),
           "seeds": f"{min(r['seed'] for r in runs)}-{max(r['seed'] for r in runs)}",
           "correct": all(line["correct"] for line in lines),
           "failed": sum(line["failed"] for line in lines)}
    for metric in metrics:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        missing = [f"{r['side']} seed {r['seed']}" for r in runs
                   if name not in r["last_line"]["metrics"]]
        if missing:
            out[name] = {"verdict": f"missing in {len(missing)} of {len(runs)} runs, not correct: "
                                    + ", ".join(missing)}
            continue
        values = {side: [r["last_line"]["metrics"][name]["value"] for r in rs]
                  for side, rs in sides.items()}
        if not all(values.values()):
            continue
        parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
        ratio = change_q[1] / parent_q[1]
        spread = (parent_q[2] - parent_q[0]) / parent_q[1]
        sign = 1.0 if lower else -1.0
        won = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        if spread > bound:
            apart = max(sign * c for c in values["change"]) < min(sign * p for p in values["parent"])
            verdict = "better in every run" if apart else "unresolved: parent spread above the bound"
        elif sign * (ratio - 1.0) > bound:
            verdict = "worse beyond the bound"
        elif name in claims:
            gain = sign * (parent_q[1] - change_q[1]) > parent_q[2] - parent_q[0]
            verdict = ("claim holds" if won >= 0.9 * len(values["parent"]) and gain
                       else "claim fails")
        else:
            verdict = "within the bound"
        out[name] = {"parent_quartiles": [round(v, 6) for v in parent_q],
                     "change_quartiles": [round(v, 6) for v in change_q],
                     "median_ratio": round(ratio, 4), "parent_spread": round(spread, 4),
                     "bound": bound, "change_lower_in" if lower else "change_higher_in":
                     f"{won}/{len(values['parent'])}", "verdict": verdict}
    return out


def verdict_lines(workload: str, summary: dict) -> list:
    """One line per metric of ``summary``: median ratio, pairs won, parent spread, verdict."""
    lines = []
    for name, entry in summary.items():
        if not isinstance(entry, dict):
            continue
        if "median_ratio" not in entry:
            lines.append(f"{workload} {name}: {entry['verdict']}")
            continue
        side = "lower" if "change_lower_in" in entry else "higher"
        lines.append(f"{workload} {name}: median ratio {entry['median_ratio']}, change {side} "
                     f"in {entry[f'change_{side}_in']}, parent spread {entry['parent_spread']}, "
                     f"{entry['verdict']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<label>.json to write")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC",
                    help="an end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: git_sha(path) for side, path in checkouts.items()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for place, side in enumerate(order):
            line = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"workload": args.workload, "seed": seed, "trace": 0, "side": side,
                         "git_sha": shas[side], "order": place, "last_line": line})
            print(f"{args.workload} seed {seed} {side}: correct={line['correct']}",
                  file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record.setdefault("what", (
        f"Alternating pairs of the parent ({shas['parent']}) and the change "
        f"({shas['change']}); each run's last stdout line of perfbench/run.py, with its "
        "workload, seed, trace flag, side, the side's commit and its place in the pair "
        "(order 0 ran first). Pairs alternate which side runs first. parent_spread is the "
        "parent's interquartile range over its median; bound is BENCHMARK.json's."))
    record["command"] = COMMAND.format(seconds=args.seconds)
    record.setdefault("machine", f"{platform.machine()}, {os.cpu_count()} cores, Python "
                                 f"{platform.python_version()}")
    record.setdefault("summary", {})[args.workload] = summarize(runs, metrics, set(args.claim))
    record["runs"] = [r for r in record.get("runs", []) if r["workload"] != args.workload] + runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(runs)} runs -> {args.out}", file=sys.stderr)
    for line in verdict_lines(args.workload, record["summary"][args.workload]):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
