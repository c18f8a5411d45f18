"""Output checks behind ``correct`` and ``fail_ratio``.

Three gates, each returning a list of problems (empty means pass):

* :func:`invariants` reads one run call's CSVs and checks what must hold for
  any seed (level-set mass, window and pair-count ranges, coverage ordering,
  density membership, attractor points inside the a-priori ball).
* :func:`byte_check`: the worker hashes every output file of every round;
  all rounds of one seed must write identical bytes.
* :func:`compare_reference` compares the default-seed round with
  ``references.json``, recorded at the commit that introduced the benchmark.

Reference tolerances, by what a sound change to the program may move:

* Level sets and determinant windows do not depend on projections.  They are
  deterministic functions of the seed, so only last-ulp libm differences are
  tolerated: relative ``EXACT_RTOL`` on column sums, minima and maxima.
* Attractor points may move, but only within their enclosures: both the new
  and the recorded point lie within their truncation radius of the same limit
  point, so coordinate sums may differ by at most the sum of both radius
  columns (and extremes by the two largest radii).  Radii may shrink, never
  grow.
* Coverage estimates are brackets of one true measure: a cell counted by one
  run's inner estimate lies inside the true union, so its centre is counted
  by every sound run's outer estimate.  Hence inner sums must not exceed the
  other run's outer (and tail-union) sums, in both directions.
* Pair counts, greedy-net ratios and attractor outer measures are statistics
  of points that may move within their enclosures (at most 1/8 of the
  smallest radius or threshold they are compared with), with no bracket
  recorded; their column sums must agree within ``GEOMETRY_RTOL``.
"""

from __future__ import annotations

import hashlib
import math

EXACT_RTOL = 1e-9
GEOMETRY_RTOL = 0.05
_GEOMETRY_FILES = ("pairs.csv", "pairs_fit.csv", "density.csv",
                   "density_summary.csv", "attractor.csv")
_KEY_COLUMNS = ("seed", "n", "k", "s", "c", "regime", "word", "length")


def read_csv(path):
    """(comment lines, header, rows as lists of strings)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _columns(path) -> dict:
    _, header, rows = read_csv(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _floats(values):
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def invariants(kind: str, cfg, paths) -> list:
    """Problems found in the CSVs one ``run`` call wrote for ``cfg``."""
    from rifs import bounding_ball, slow_decay_constant

    files = {p.name: p for p in paths}
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(f"{kind}: {msg}")

    if kind == "levelset":
        col = _columns(files["levelset.csv"])
        meas = _floats(col["measure"])
        cap = slow_decay_constant(cfg.measure) ** cfg.n * (1 + EXACT_RTOL)
        need(abs(math.fsum(meas) - 1.0) <= 1e-9, f"measures sum to {math.fsum(meas)!r}")
        need(all(0.0 < m <= cap for m in meas), "a measure lies outside (0, c**n]")
        need(all(len(w) == int(n) for w, n in zip(col["word"], col["length"])),
             "a length disagrees with its word")
    elif kind == "detwindow":
        good = _floats(_columns(files["detwindow.csv"])["good_mass"])
        # a float sum of level-set masses: rounding may pass 1 by a few ulps
        need(all(0.0 <= g <= 1.0 + 1e-9 for g in good), "good_mass outside [0, 1]")
        hist = _columns(files["detwindow_hist.csv"])
        need(all(0 <= int(b) <= int(t) for b, t in zip(hist["bad"], hist["total"])),
             "bad above total")
    elif kind == "pairs":
        col = _columns(files["pairs.csv"])
        s = _floats(col["s"])
        mean = _floats(col["mean_normalized_count"])
        need(s == sorted(s), "scales not ascending")
        need(all(v >= 0.0 for v in mean), "negative mean_normalized_count")
        need(all(a <= b for a, b in zip(mean, mean[1:])), "mean not non-decreasing in s")
    elif kind == "coverage":
        col = _columns(files["coverage.csv"])
        outer = _floats(col["outer_measure"])
        inner = _floats(col["inner_measure"])
        tail = _floats(col["tail_union_measure"])
        need(all(i <= o <= t for i, o, t in zip(inner, outer, tail)),
             "inner <= outer <= tail_union violated")
        by_seed: dict = {}
        for seed, n, t in zip(col["seed"], col["n"], tail):
            by_seed.setdefault(seed, []).append((int(n), t))
        need(all(a[1] >= b[1] for rows in by_seed.values()
                 for a, b in zip(sorted(rows), sorted(rows)[1:])),
             "tail_union increases with n")
    elif kind == "density":
        col = _columns(files["density.csv"])
        ratio = _floats(col["ratio"])
        need(all(0.0 <= r <= 1.0 for r in ratio), "ratio outside [0, 1]")
        need(all((m == "1") == (r > float(c))
                 for m, r, c in zip(col["member"], ratio, col["c"])),
             "member disagrees with ratio > c")
    elif kind == "attractor":
        _, header, rows = read_csv(files["attractor_points.csv"])
        dims = [i for i, h in enumerate(header) if h.startswith("x_")]
        R = bounding_ball(cfg.family)
        for row in rows:
            norm = math.sqrt(sum(float(row[i]) ** 2 for i in dims))
            if norm > (R + float(row[-1])) * (1 + EXACT_RTOL):
                problems.append(f"attractor: point {row[0]} at |x| = {norm!r} "
                                f"outside the bounding ball {R!r}")
                break
        outer = _floats(_columns(files["attractor.csv"])["outer_measure"][:-1])
        need(all(v >= 0.0 for v in outer), "negative outer_measure")
    return problems


def byte_check(round_hashes) -> list:
    """Problems if same-seed rounds wrote different bytes (sha256 per file)."""
    first = round_hashes[0]
    for hashes in round_hashes[1:]:
        changed = sorted(f"{kind}/{name}" for kind in set(first) | set(hashes)
                         for name in set(first.get(kind, {})) | set(hashes.get(kind, {}))
                         if first.get(kind, {}).get(name) != hashes.get(kind, {}).get(name))
        if changed:
            return [f"byte check: a same-seed rerun wrote different bytes: {changed}"]
    return []


# ---------------------------------------------------------------------------
# reference summaries
# ---------------------------------------------------------------------------

def summarize(path) -> dict:
    """Config digest line, row count and per-column (sum, min, max) or hash."""
    comments, header, rows = read_csv(path)
    cols = {}
    for i, name in enumerate(header):
        values = [row[i] for row in rows]
        try:
            nums = _floats(values)
        except ValueError:
            cols[name] = hashlib.sha256("\n".join(values).encode()).hexdigest()
            continue
        cols[name] = [math.fsum(nums), min(nums, default=0.0), max(nums, default=0.0)]
    digest = comments[0] if comments and "config_digest" in comments[0] else ""
    return {"digest": digest, "rows": len(rows), "columns": cols}


def _close(a, b, rtol) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def compare_reference(name: str, got: dict, ref: dict) -> list:
    """Problems between one file's summary and its recorded reference."""
    where = f"reference {name}"
    if got["digest"] != ref["digest"] or got["rows"] != ref["rows"] \
            or set(got["columns"]) != set(ref["columns"]):
        return [f"{where}: config digest, row count or columns differ"]
    g, r = got["columns"], ref["columns"]
    problems = []
    for col in r:
        if isinstance(r[col], str) or isinstance(g[col], str):
            if g[col] != r[col]:
                problems.append(f"{where}: column {col} differs")
            continue
        if name == "attractor_points.csv":
            if col == "trunc_radius":
                ok = all(x <= y * (1 + EXACT_RTOL) for x, y in zip(g[col][1:], r[col][1:]))
            else:
                slack_sum = g["trunc_radius"][0] + r["trunc_radius"][0]
                slack_max = g["trunc_radius"][2] + r["trunc_radius"][2]
                ok = (abs(g[col][0] - r[col][0]) <= slack_sum * (1 + EXACT_RTOL)
                      and all(abs(x - y) <= slack_max * (1 + EXACT_RTOL)
                              for x, y in zip(g[col][1:], r[col][1:])))
        elif name == "coverage.csv" and col == "inner_measure":
            ok = True  # bracketed through the outer columns below
        elif name == "coverage.csv" and col not in _KEY_COLUMNS:
            ok = (g["inner_measure"][0] <= r[col][0] * (1 + EXACT_RTOL)
                  and r["inner_measure"][0] <= g[col][0] * (1 + EXACT_RTOL))
        else:
            rtol = GEOMETRY_RTOL if (name in _GEOMETRY_FILES
                                     and col not in _KEY_COLUMNS) else EXACT_RTOL
            ok = all(_close(x, y, rtol) for x, y in zip(g[col], r[col]))
        if not ok:
            problems.append(f"{where}: column {col} {g[col]} vs recorded {r[col]}")
    return problems
