"""Close-pair counts, separated subsets, and their scaling statistics.

Pair counting follows the ordered-pair convention (each unordered pair at
distance <= threshold contributes twice), implemented on a uniform spatial
bucket grid whose cell edge matches the search radius, so all candidates sit
in the 3^d cell neighborhood.  All comparisons are on squared distances.

Because projected points carry truncation enclosures, counts are bracketed:
a pair is certainly close when dist + r_i + r_j <= t and possibly close when
dist - r_i - r_j <= t.  When the threshold does not dominate the enclosures
(t <= 2 max r) the nominal count is not truncation-robust and a warning is
issued; the brackets remain valid either way (the grid cell is widened by
the enclosure slack so no candidate escapes the neighborhood).

The greedy separated subset keeps a point iff it lies strictly farther than
the radius from everything kept before it (input order).  The result is a
maximal separated set: a certified lower bound for the packing number at the
same radius and an upper bound for it at twice the radius.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .. import keyed
from ..attractor import points_to_arrays, project_level
from ..errors import InputError, InvariantError
from ..random_model import MatrixFamily, Realization
from ..symbolic import (SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT, level_set)
from ..attractor import MAP_BUDGET_DEFAULT
from .detwindow import fit_line


# ---------------------------------------------------------------------------
# bucket-grid pair machinery
# ---------------------------------------------------------------------------

def _bucket(coords: np.ndarray, cell: float) -> dict:
    keys = np.floor(coords / cell).astype(np.int64)
    cells: dict = {}
    for i, key in enumerate(map(tuple, keys.tolist())):
        cells.setdefault(key, []).append(i)
    return cells


def _positive_offsets(d: int):
    """Half of the 3^d neighborhood so each cell pair is visited once."""
    return [off for off in itertools.product((-1, 0, 1), repeat=d)
            if off > (0,) * d]


def _iter_candidate_blocks(coords: np.ndarray, cell: float):
    """Yield (i_idx, j_idx, dist) for all pairs i < j within one cell-pair block."""
    cells = _bucket(coords, cell)
    offsets = _positive_offsets(coords.shape[1])
    for key in sorted(cells):
        idx = np.asarray(cells[key], dtype=np.int64)
        if idx.size > 1:
            diff = coords[idx[:, None]] - coords[idx[None, :]]
            dist = np.sqrt((diff ** 2).sum(axis=-1))
            iu, ju = np.triu_indices(idx.size, k=1)
            yield idx[iu], idx[ju], dist[iu, ju]
        for off in offsets:
            nb = tuple(k + o for k, o in zip(key, off))
            other = cells.get(nb)
            if not other:
                continue
            jdx = np.asarray(other, dtype=np.int64)
            diff = coords[idx[:, None]] - coords[jdx[None, :]]
            dist = np.sqrt((diff ** 2).sum(axis=-1))
            ii, jj = np.nonzero(np.ones((idx.size, jdx.size), dtype=bool))
            yield idx[ii], jdx[jj], dist[ii, jj]


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
    """Count ordered pairs at distance <= threshold via spatial bucketing."""
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

    cell = threshold + 2.0 * max_tr
    nominal = 0
    lower = 0
    upper = 0
    pairs: list = []
    for i_idx, j_idx, dist in _iter_candidate_blocks(coords, cell):
        rs = radii[i_idx] + radii[j_idx]
        close = dist <= threshold
        nominal += int(close.sum())
        lower += int((dist + rs <= threshold).sum())
        upper += int((dist - rs <= threshold).sum())
        for i, j in zip(i_idx[close].tolist(), j_idx[close].tolist()):
            pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    if not lower <= nominal <= upper:
        raise InvariantError(
            f"pair-count bracket out of order: {lower} <= {nominal} <= {upper} failed")
    return PairCountResult(ordered_count=2 * nominal, ordered_lower=2 * lower,
                           ordered_upper=2 * upper, pairs=tuple(pairs),
                           threshold=threshold, truncation_robust=robust)


def pair_distances_within(coords: np.ndarray, cutoff: float) -> np.ndarray:
    """Distances of all unordered pairs at distance <= cutoff (for sweeps)."""
    out = []
    for _, _, dist in _iter_candidate_blocks(coords, cutoff):
        close = dist[dist <= cutoff]
        if close.size:
            out.append(close)
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
    r2 = radius * radius
    inv = 1.0 / radius
    neighborhood = list(itertools.product((-1, 0, 1), repeat=d))
    kept: list = []
    kept_cells: dict = {}
    for i in range(n):
        x = coords[i]
        key = tuple(np.floor(x * inv).astype(np.int64).tolist())
        ok = True
        for off in neighborhood:
            bucket = kept_cells.get(tuple(k + o for k, o in zip(key, off)))
            if not bucket:
                continue
            for j in bucket:
                diff = coords[j] - x
                if float(diff @ diff) <= r2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            kept_cells.setdefault(key, []).append(i)
    return np.asarray(kept, dtype=np.int64)


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
                           map_budget: int = MAP_BUDGET_DEFAULT) -> TransversalityFit:
    """Estimate E[#close pairs / #L] per scale and fit the log-log slope.

    The expected slope is the ambient dimension in the small-s regime.  Mean
    counts of zero (below resolution) are dropped; with fewer than two usable
    scales, or no variation across scales (saturated geometry), the fit is
    reported as below resolution instead of a slope.
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

    counts = np.zeros((n_seeds, s_arr.size))
    for j in range(n_seeds):
        r = Realization(keyed.derive_seed(master_seed, j), family)
        pts = project_level(r, L, b, eps, map_budget)
        dists = pair_distances_within(pts.coords, float(thresholds.max()))
        for k, t in enumerate(thresholds):
            counts[j, k] = 2.0 * int((dists <= t).sum())
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
                  map_budget: int = MAP_BUDGET_DEFAULT) -> tuple:
    """Membership indicators per (c, s) across levels, with upper densities.

    Returns (reports, best report).  The greedy separated count stands in for
    the packing number (a certified lower bound, evaluated at the scale
    inflated by the point enclosures), so membership claims are conservative.
    """
    c_vals = [float(c) for c in c_list]
    s_vals = [float(s) for s in s_list]
    n_values = [int(n) for n in n_range]
    if not n_values or not c_vals or not s_vals:
        raise InputError("density sweep needs nonempty c, s, and level ranges")
    if any(c < 0.0 for c in c_vals) or any(s <= 0.0 for s in s_vals):
        raise InputError("need c >= 0 and s > 0")

    d = family.dimension
    r = Realization(seed, family)
    ratios = np.zeros((len(n_values), len(s_vals)))
    for i, n in enumerate(n_values):
        L = level_set(m, n, word_budget)
        size = len(L)
        radii = np.asarray(s_vals) / size ** (1.0 / d)
        pts = project_level(r, L, b, float(radii.min()) / 8.0, map_budget)
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
