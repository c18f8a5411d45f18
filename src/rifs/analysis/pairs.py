"""Close-pair counts, separated subsets, and their scaling statistics.

Pair counting follows the ordered-pair convention (each unordered pair at
distance <= threshold contributes twice).  Candidates come from the cell
method for fixed-radius near neighbours (Bentley, Stanat & Williams 1977):
points are keyed to grid cells whose edge matches the search radius, so every
close pair sits in a 3^d cell neighbourhood, and the keys are linearised and
sorted so that each neighbourhood is a few contiguous ranges of the sorted
order, found with ``searchsorted`` and expanded in bounded blocks.

Because projected points carry truncation enclosures, counts are bracketed:
a pair is certainly close when dist + r_i + r_j <= t and possibly close when
dist - r_i - r_j <= t.  When the threshold does not dominate the enclosures
(t <= 2 max r) the nominal count is not truncation-robust and a warning is
issued; the brackets remain valid either way (the grid cell is widened by
the enclosure slack so no candidate escapes the neighborhood).

The greedy separated subset keeps a point iff it lies strictly farther than
the radius from everything kept before it (input order).  The result is a
maximal separated set (a greedy net, Har-Peled & Mendel 2006): a certified
lower bound for the packing number at the same radius and an upper bound for
it at twice the radius.  The cell keys are computed in one vectorized pass;
the inherently sequential scan then runs on plain Python floats and ints,
comparing ``sum((y_k - x_k)**2)`` summed left to right against ``radius**2``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .. import keyed
from ..attractor import (MAP_BUDGET_DEFAULT, points_to_arrays, project_level,
                         project_levels)
from ..errors import InputError, InvariantError
from ..random_model import MatrixFamily, Realization
from ..symbolic import (SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT, level_set,
                        level_sets)
from .detwindow import fit_line
from .runs import blocks, ranges


# ---------------------------------------------------------------------------
# sorted-cell-key candidate join
# ---------------------------------------------------------------------------

def _compact(k: np.ndarray) -> np.ndarray:
    """Renumber one axis of cell keys so gaps of two or more cells become two:
    adjacency and order are kept, the span shrinks to at most 2n."""
    values, inverse = np.unique(k, return_inverse=True)
    steps = np.minimum(np.diff(values), 2)
    return np.concatenate(([0], np.cumsum(steps)))[inverse]


def _cell_index(scaled: np.ndarray) -> tuple:
    """Row-major linear keys (n,) of the cells ``floor(scaled)`` and their strides (d,).

    Every axis keeps a spare cell on both sides, so a +-1 step along the last
    axis never wraps into the next row, and a +-1 step along any axis is a
    fixed linear offset.
    """
    if not np.all(np.abs(scaled) < 2.0 ** 62):
        raise InputError("point coordinates must be finite and within 2**62 search radii of 0")
    keys = np.floor(scaled).astype(np.int64)
    if math.prod((keys.max(axis=0) - keys.min(axis=0) + 3).tolist()) >= 2 ** 62:
        keys = np.stack([_compact(k) for k in keys.T], axis=1)
    shifted = keys - keys.min(axis=0) + 1
    dims = (shifted.max(axis=0) + 2).tolist()
    strides = np.cumprod([1] + dims[:0:-1])[::-1]
    return np.ravel_multi_index(tuple(shifted.T), dims), strides


def _candidate_pairs(coords: np.ndarray, cell: float):
    """Yield (i, j, dist) blocks over every unordered pair of points whose
    cell keys differ by at most one on every axis, each pair once.

    Points are sorted by linear cell key.  A point's partners in its own cell
    after it and in the next cell along the last axis form one contiguous run
    of the sorted order; each positive offset of the leading axes adds the run
    of the three cells at that offset.  The distance expression is
    ``sqrt(((x_i - x_j) ** 2).sum())``.
    """
    n, d = coords.shape
    if n < 2:
        return
    lin, strides = _cell_index(coords / cell)
    order = np.argsort(lin)
    keys = lin[order]
    starts = [np.arange(1, n + 1)]
    stops = [np.searchsorted(keys, keys + 1, side="right")]
    for lead in itertools.product((-1, 0, 1), repeat=d - 1):
        if lead > (0,) * (d - 1):
            base = keys + int(np.dot(lead, strides[:-1]))
            starts.append(np.searchsorted(keys, base - 1, side="left"))
            stops.append(np.searchsorted(keys, base + 1, side="right"))
    starts = np.concatenate(starts)
    counts = np.concatenate(stops) - starts
    owners = np.tile(order, len(stops))
    for a, b in blocks(counts):
        i = np.repeat(owners[a:b], counts[a:b])
        j = order[ranges(starts[a:b], counts[a:b])]
        dist = np.sqrt(((coords[i] - coords[j]) ** 2).sum(axis=-1))
        yield i, j, dist


@dataclass(frozen=True)
class PairCountResult:
    """Ordered close-pair count with truncation brackets and the pair list."""

    ordered_count: int
    ordered_lower: int
    ordered_upper: int
    pairs: tuple                 # unordered (i, j) with i < j, nominal threshold
    threshold: float
    truncation_robust: bool


def close_pair_count(points, threshold: float) -> PairCountResult:
    """Count ordered pairs at distance <= threshold via the sorted cell-key join."""
    if threshold <= 0.0:
        raise InputError("threshold must be positive")
    coords, radii = points_to_arrays(points)
    n = coords.shape[0]
    max_tr = float(radii.max()) if n else 0.0
    robust = threshold > 2.0 * max_tr
    if n and not robust:
        warnings.warn(
            f"close-pair threshold {threshold} does not dominate the truncation "
            f"enclosures (2 max radius = {2 * max_tr}); nominal count is not "
            "robust, rely on the [lower, upper] bracket", stacklevel=2)
    if n < 2:
        return PairCountResult(0, 0, 0, (), threshold, robust)

    nominal = 0
    lower = 0
    upper = 0
    firsts: list = []
    seconds: list = []
    for i, j, dist in _candidate_pairs(coords, threshold + 2.0 * max_tr):
        rs = radii[i] + radii[j]
        close = dist <= threshold
        nominal += int(close.sum())
        lower += int((dist + rs <= threshold).sum())
        upper += int((dist - rs <= threshold).sum())
        firsts.append(np.minimum(i[close], j[close]))
        seconds.append(np.maximum(i[close], j[close]))
    first = np.concatenate(firsts)
    second = np.concatenate(seconds)
    order = np.lexsort((second, first))
    pairs = tuple(zip(first[order].tolist(), second[order].tolist()))
    if not lower <= nominal <= upper:
        raise InvariantError(
            f"pair-count bracket out of order: {lower} <= {nominal} <= {upper} failed")
    return PairCountResult(ordered_count=2 * nominal, ordered_lower=2 * lower,
                           ordered_upper=2 * upper, pairs=pairs,
                           threshold=threshold, truncation_robust=robust)


def pair_distances_within(coords: np.ndarray, cutoff: float) -> np.ndarray:
    """Distances of all unordered pairs at distance <= cutoff (for sweeps)."""
    out = [dist[dist <= cutoff] for _, _, dist in _candidate_pairs(coords, cutoff)]
    return np.concatenate(out) if out else np.zeros(0)


# ---------------------------------------------------------------------------
# separated subsets
# ---------------------------------------------------------------------------

def separated_subset(points, radius: float) -> np.ndarray:
    """Greedy maximal radius-separated subset; returns kept indices in order.

    Kept points are pairwise strictly farther than ``radius`` apart and every
    rejected point is within ``radius`` of some kept point (maximality).
    """
    if radius <= 0.0:
        raise InputError("radius must be positive")
    coords, _ = points_to_arrays(points)
    n, d = coords.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    r2 = radius * radius
    keys, strides = _cell_index(coords * (1.0 / radius))
    steps = [int(np.dot(off, strides)) for off in itertools.product((-1, 0, 1), repeat=d)]
    kept: list = []
    kept_cells: dict = {}      # cell key -> coordinates of the points kept there
    for i, (key, x) in enumerate(zip(keys.tolist(), coords.tolist())):
        if _near_kept(kept_cells, key, x, steps, r2):
            continue
        kept.append(i)
        kept_cells.setdefault(key, []).append(x)
    return np.asarray(kept, dtype=np.int64)


def _near_kept(kept_cells: dict, key: int, x: list, steps: list, r2: float) -> bool:
    """True when some kept point in the 3^d cell neighbourhood is within sqrt(r2)."""
    for step in steps:
        for y in kept_cells.get(key + step, ()):
            d2 = 0.0
            for a, b in zip(y, x):
                d2 += (a - b) * (a - b)
            if d2 <= r2:
                return True
    return False


@dataclass(frozen=True)
class PairReport:
    """Close-pair and separation summary for one point set at one scale."""

    n: int
    s: float
    pair_count: int              # ordered
    normalized: float            # pair_count / #L
    separated_lower_bound: int   # greedy maximal separated subset size


def pair_report(points, s: float, level_size: int, n: int = 0) -> PairReport:
    coords, _ = points_to_arrays(points)
    d = coords.shape[1]
    threshold = s / level_size ** (1.0 / d)
    res = close_pair_count(points, threshold)
    kept = separated_subset(points, threshold)
    return PairReport(n=n, s=s, pair_count=res.ordered_count,
                      normalized=res.ordered_count / level_size,
                      separated_lower_bound=int(kept.size))


# ---------------------------------------------------------------------------
# transversality scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransversalityFit:
    """Log-log fit of mean normalized close-pair counts against the scale s."""

    slope: float | None
    stderr: float | None
    n_points: int
    s_values: tuple
    mean_normalized: tuple
    below_resolution: bool


def transversality_scaling(family: MatrixFamily, m: SymbolicMeasure, b: TailSequence,
                           n: int, s_list, n_seeds: int, master_seed: int = 0,
                           word_budget: int = WORD_BUDGET_DEFAULT,
                           map_budget: int = MAP_BUDGET_DEFAULT,
                           threads: int = 1) -> TransversalityFit:
    """Estimate E[#close pairs / #L] per scale and fit the log-log slope.

    The expected slope is the ambient dimension in the small-s regime.  Mean
    counts of zero (below resolution) are dropped; with fewer than two usable
    scales, or no variation across scales (saturated geometry), the fit is
    reported as below resolution instead of a slope.  Seeds may run on
    ``threads`` worker threads; the result does not depend on it.
    """
    s_arr = np.asarray(sorted(float(s) for s in s_list))
    if s_arr.size < 2 or s_arr[0] <= 0.0:
        raise InputError("s_list needs at least two positive scales")
    if s_arr[-1] / s_arr[0] < 8.0:
        raise InputError("s_list must span at least a factor of 8")
    if n_seeds < 30:
        raise InputError("need at least 30 seeds for a stable fit")

    L = level_set(m, n, word_budget)
    size = len(L)
    d = family.dimension
    thresholds = s_arr / size ** (1.0 / d)
    eps = float(thresholds.min()) / 8.0

    def seed_counts(j: int) -> list:
        r = Realization(keyed.derive_seed(master_seed, j), family)
        pts = project_level(r, L, b, eps, map_budget)
        dists = pair_distances_within(pts.coords, float(thresholds.max()))
        return [2.0 * int((dists <= t).sum()) for t in thresholds]

    counts = np.asarray(keyed.map_seeds(seed_counts, n_seeds, threads))
    means = counts.mean(axis=0) / size

    usable = means > 0.0
    if usable.sum() < 2 or np.ptp(means[usable]) == 0.0:
        return TransversalityFit(slope=None, stderr=None, n_points=int(usable.sum()),
                                 s_values=tuple(s_arr), mean_normalized=tuple(means),
                                 below_resolution=True)
    slope, stderr = fit_line(np.log(s_arr[usable]), np.log(means[usable]))
    return TransversalityFit(slope=slope, stderr=stderr, n_points=int(usable.sum()),
                             s_values=tuple(s_arr), mean_normalized=tuple(means),
                             below_resolution=False)


# ---------------------------------------------------------------------------
# density of levels with a large separated set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    """Per-level membership of the large-separated-set event and its density."""

    c: float
    s: float
    seed: int
    n_values: tuple
    ratios: tuple        # greedy separated count / #L per level
    members: tuple       # ratio > c per level
    upper_density: float


def upper_density(members) -> float:
    """Max over suffixes of the membership frequency (finite proxy)."""
    vals = np.asarray(members, dtype=bool)
    if vals.size == 0:
        return 0.0
    return float(max(vals[i:].mean() for i in range(vals.size)))


def density_sweep(family: MatrixFamily, m: SymbolicMeasure, b: TailSequence,
                  c_list, s_list, n_range, seed: int,
                  word_budget: int = WORD_BUDGET_DEFAULT,
                  map_budget: int = MAP_BUDGET_DEFAULT, levels=None) -> tuple:
    """Membership indicators per (c, s) across levels, with upper densities.

    Returns (reports, best report).  The greedy separated count stands in for
    the packing number (a certified lower bound, evaluated at the scale
    inflated by the point enclosures), so membership claims are conservative.
    ``levels`` are ``level_sets(m, n_range, word_budget)``, built once per
    run and shared by the sweeps of every seed; built here when omitted.
    All levels are projected by one walk of their cylinder tree.
    """
    c_vals = [float(c) for c in c_list]
    s_vals = [float(s) for s in s_list]
    n_values = [int(n) for n in n_range]
    if not n_values or not c_vals or not s_vals:
        raise InputError("density sweep needs nonempty c, s, and level ranges")
    if any(c < 0.0 for c in c_vals) or any(s <= 0.0 for s in s_vals):
        raise InputError("need c >= 0 and s > 0")

    d = family.dimension
    if levels is None:
        levels = level_sets(m, n_values, word_budget)
    elif [L.n for L in levels] != n_values:
        raise InputError("level sets do not match the level indices")
    scales = [np.asarray(s_vals) / len(L) ** (1.0 / d) for L in levels]
    clouds = project_levels(Realization(seed, family), levels, b,
                            [float(radii.min()) / 8.0 for radii in scales], map_budget)
    ratios = np.zeros((len(n_values), len(s_vals)))
    for i, (radii, pts) in enumerate(zip(scales, clouds)):
        size = len(pts)
        slack = 2.0 * float(pts.radii.max())
        for k, rad in enumerate(radii):
            kept = separated_subset(pts.coords, float(rad) + slack)
            ratios[i, k] = kept.size / size

    reports = []
    for k, s in enumerate(s_vals):
        for c in c_vals:
            members = tuple(bool(x) for x in ratios[:, k] > c)
            reports.append(DensityReport(
                c=c, s=s, seed=int(seed), n_values=tuple(n_values),
                ratios=tuple(float(x) for x in ratios[:, k]), members=members,
                upper_density=upper_density(members)))
    best = max(reports, key=lambda rep: rep.upper_density)
    return reports, best
