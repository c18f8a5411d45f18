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
it at twice the radius.  Two points conflict when their cells of the radius
are adjacent and ``sum((y_k - x_k)**2)``, summed left to right, is at most
``radius**2``.  The net is the lexicographically first maximal independent
set of that conflict graph, which Blelloch, Fineman & Shun (SPAA 2012) show
resolves in few parallel rounds: the conflict edges come from the same
sorted cell-key join, the rounds are whole-array operations, and a bounded
number of them is followed by the sequential scan over the points still
undecided.  The kept indices equal those of the scan alone.  A join with
more than ``PAIR_LIMIT`` candidates per point is not expanded, and the scan
then does all the work, so edge memory stays O(n).

The density sweep projects the run's level sets, selected once from one
cylinder tree, for a group of seeds per walk, and builds one join per level
and seed that serves all of its radii; the transversality fit builds its one
level set itself and projects it for a group of seeds per walk.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..attractor import (MAP_BUDGET_DEFAULT, map_seed_groups, points_to_arrays,
                         project_levels, walk_rows)
from ..errors import InputError, InvariantError
from ..random_model import MatrixFamily, Realization
from ..symbolic import SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT, level_set
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


def _cell_keys(scaled: np.ndarray) -> np.ndarray:
    """Integer cell keys (n, d) ``floor(scaled)``, refused beyond 2**62 cells from 0."""
    if not np.all(np.abs(scaled) < 2.0 ** 62):
        raise InputError("point coordinates must be finite and within 2**62 search radii of 0")
    return np.floor(scaled).astype(np.int64)


def _cell_index(keys: np.ndarray) -> tuple:
    """Row-major linear keys (n,) of integer cell keys (n, d) and their strides (d,).

    Every axis keeps a spare cell on both sides, so a +-1 step along the last
    axis never wraps into the next row, and a +-1 step along any axis is a
    fixed linear offset.
    """
    if math.prod((keys.max(axis=0) - keys.min(axis=0) + 3).tolist()) >= 2 ** 62:
        keys = np.stack([_compact(k) for k in keys.T], axis=1)
    shifted = keys - keys.min(axis=0) + 1
    dims = (shifted.max(axis=0) + 2).tolist()
    strides = np.cumprod([1] + dims[:0:-1])[::-1]
    return np.ravel_multi_index(tuple(shifted.T), dims), strides


def _join(coords: np.ndarray, cell: float) -> tuple:
    """The sorted cell-key join: (order, owners, starts, counts).

    Points are sorted by linear cell key.  A point's partners in its own cell
    after it and in the next cell along the last axis form one contiguous run
    of the sorted order; each positive offset of the leading axes adds the run
    of the three cells at that offset.  Run ``k`` pairs point ``owners[k]``
    with ``order[starts[k]:starts[k] + counts[k]]``, so ``counts.sum()`` is
    the number of candidate pairs before any is expanded.
    """
    n, d = coords.shape
    lin, strides = _cell_index(_cell_keys(coords / cell))
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
    return order, np.tile(order, len(stops)), starts, np.concatenate(stops) - starts


def _pair_blocks(join: tuple):
    """Yield the (i, j) index blocks of a join, expanded in bounded blocks."""
    order, owners, starts, counts = join
    for a, b in blocks(counts):
        yield np.repeat(owners[a:b], counts[a:b]), order[ranges(starts[a:b], counts[a:b])]


def _candidate_pairs(coords: np.ndarray, cell: float):
    """Yield (i, j) index blocks over every unordered pair of points whose
    cell keys differ by at most one on every axis, each pair once.  Each
    caller applies its own distance expression to the blocks."""
    if coords.shape[0] >= 2:
        yield from _pair_blocks(_join(coords, cell))


def _distances(coords: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sqrt(((x_i - x_j) ** 2).sum())`` per pair: the pair kernels' distance."""
    return np.sqrt(((coords[i] - coords[j]) ** 2).sum(axis=-1))


def _squared_distances(coords: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``(x_i - x_j)**2`` summed left to right over the axes: the greedy net's
    distance, equal on every BLAS build (a row ``sum`` need not add in order)."""
    diff = coords[i] - coords[j]
    d2 = diff[:, 0] * diff[:, 0]
    for k in range(1, coords.shape[1]):
        d2 += diff[:, k] * diff[:, k]
    return d2


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
    for i, j in _candidate_pairs(coords, threshold + 2.0 * max_tr):
        dist = _distances(coords, i, j)
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
    dists = (_distances(coords, i, j) for i, j in _candidate_pairs(coords, cutoff))
    out = [dist[dist <= cutoff] for dist in dists]
    return np.concatenate(out) if out else np.zeros(0)


# ---------------------------------------------------------------------------
# separated subsets
# ---------------------------------------------------------------------------

ROUNDS = 32             # parallel rounds before the sequential scan finishes a net
PAIR_LIMIT = 64         # candidate pairs per point beyond which a join stays unexpanded
_CELL_SLACK = 1.0 + 2.0 ** -20


@dataclass(frozen=True)
class ClosePairs:
    """Pairs ``lo < hi`` of a set of ``n`` points whose squared distance
    ``d2``, summed left to right over the axes, is at most ``cutoff**2``.  The
    arrays are None when the join was too dense or too coarse to expand."""

    cutoff: float
    n: int
    lo: np.ndarray | None
    hi: np.ndarray | None
    d2: np.ndarray | None


def close_pairs(coords: np.ndarray, cutoff: float) -> ClosePairs:
    """The conflict edges of the greedy nets at every radius up to ``cutoff``.

    The join's cells are ``cutoff * (1 + 2**-20)`` wide.  While every
    coordinate lies within 2**30 cells of 0 and ``cutoff**2`` is a normal
    float, a pair whose ``d2`` is at most ``cutoff**2`` differs by less than
    one cell along every axis even after the rounding of ``coords / cell``,
    so the join holds it.  Outside that range, or when ``searchsorted``
    counts more than ``PAIR_LIMIT`` candidates per point before anything is
    expanded, nothing is expanded.  Edge memory is thus O(#pairs within the
    cutoff), and O(n) on chains and on clusters of coincident points, where
    the edge list would be quadratic.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n < 2:
        return ClosePairs(cutoff, n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                          np.zeros(0))
    cell = cutoff * _CELL_SLACK
    precise = (2.0 ** -500 <= cutoff <= 2.0 ** 500
               and np.abs(coords).max() < 2.0 ** 30 * cell)
    join = _join(coords, cell) if precise else None
    if join is None or int(join[3].sum()) > PAIR_LIMIT * n:
        return ClosePairs(cutoff, n, None, None, None)
    c2 = cutoff * cutoff
    los, his, d2s = [], [], []
    for i, j in _pair_blocks(join):
        d2 = _squared_distances(coords, i, j)
        close = d2 <= c2
        i, j = i[close], j[close]
        los.append(np.minimum(i, j))
        his.append(np.maximum(i, j))
        d2s.append(d2[close])
    return ClosePairs(cutoff, n, np.concatenate(los), np.concatenate(his), np.concatenate(d2s))


def separated_subset(points, radius: float, edges: ClosePairs | None = None) -> np.ndarray:
    """Greedy maximal radius-separated subset; returns kept indices in order.

    Kept points are pairwise strictly farther than ``radius`` apart and every
    rejected point is within ``radius`` of some kept point (maximality).
    ``edges`` may pass ``close_pairs(coords, cutoff)`` of the same points for
    any ``cutoff >= radius``, so that several radii share one join; the
    answer does not depend on it.
    """
    if radius <= 0.0:
        raise InputError("radius must be positive")
    coords, _ = points_to_arrays(points)
    n = coords.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    keys = _cell_keys(coords * (1.0 / radius))
    coords = coords.astype(np.float64, copy=False)   # square and add as Python floats
    if edges is None:
        edges = close_pairs(coords, radius)
    elif edges.cutoff < radius or edges.n != n:
        raise InputError(f"close pairs of {edges.n} points within {edges.cutoff} cannot "
                         f"serve {n} points at radius {radius}")
    r2 = radius * radius
    kept, todo = np.zeros(0, dtype=np.int64), np.arange(n)
    if edges.lo is not None:
        lo, hi = edges.lo, edges.hi
        if radius < edges.cutoff:   # at the cutoff itself every edge is close
            close = edges.d2 <= r2
            lo, hi = lo[close], hi[close]
        # the scan compares a pair only when its radius-wide cells are adjacent
        near = (np.abs(keys[lo] - keys[hi]) <= 1).all(axis=1)
        kept, todo = _rounds(n, lo[near], hi[near])
    if todo.size:
        kept = _scan(coords, keys, r2, kept, todo)
    return kept


def _rounds(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Up to ``ROUNDS`` rounds of Blelloch, Fineman & Shun (2012) over the
    conflict edges ``lo < hi``: (kept, undecided) indices, both ascending.

    A round removes every undecided point with a kept earlier neighbour, then
    keeps every undecided point whose earlier neighbours are all removed;
    these are the decisions of the sequential scan.  Decided edges are
    dropped.  Points kept in the last round have not yet removed their later
    neighbours.
    """
    state = np.zeros(n, dtype=np.int8)     # 0 undecided, 1 kept, 2 removed
    todo = np.arange(n)
    for _ in range(ROUNDS):
        state[hi[state[lo] == 1]] = 2
        live = (state[lo] == 0) & (state[hi] == 0)
        lo, hi = lo[live], hi[live]
        blocked = np.zeros(n, dtype=bool)
        blocked[hi] = True
        todo = todo[state[todo] == 0]
        free = ~blocked[todo]
        state[todo[free]] = 1
        todo = todo[~free]
        if todo.size == 0:
            break
    return np.flatnonzero(state == 1), todo


def _scan(coords: np.ndarray, keys: np.ndarray, r2: float, kept: np.ndarray,
          todo: np.ndarray) -> np.ndarray:
    """The sequential greedy scan over the undecided points ``todo`` in index
    order, testing each against every point kept so far; returns all kept."""
    lin, strides = _cell_index(keys)
    steps = [int(np.dot(off, strides))
             for off in itertools.product((-1, 0, 1), repeat=keys.shape[1])]
    kept_cells: dict = {}      # cell key -> coordinates of the points kept there
    for key, x in zip(lin[kept].tolist(), coords[kept].tolist()):
        kept_cells.setdefault(key, []).append(x)
    new: list = []
    for i, key, x in zip(todo.tolist(), lin[todo].tolist(), coords[todo].tolist()):
        if not _near_kept(kept_cells, key, x, steps, r2):
            new.append(i)
            kept_cells.setdefault(key, []).append(x)
    return np.sort(np.concatenate((kept, np.asarray(new, dtype=np.int64))))


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


def _counts_at_most(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``[(values <= t).sum() for t in thresholds]`` from one sort and one search."""
    return np.searchsorted(np.sort(values), thresholds, side="right")


def transversality_scaling(family: MatrixFamily, m: SymbolicMeasure, b: TailSequence,
                           n: int, s_list, n_seeds: int, master_seed: int = 0,
                           word_budget: int = WORD_BUDGET_DEFAULT,
                           map_budget: int = MAP_BUDGET_DEFAULT,
                           threads: int = 1) -> TransversalityFit:
    """Estimate E[#close pairs / #L] per scale and fit the log-log slope.

    The expected slope is the ambient dimension in the small-s regime.  Mean
    counts of zero (below resolution) are dropped; with fewer than two usable
    scales, or no variation across scales (saturated geometry), the fit is
    reported as below resolution instead of a slope.  The seeds are projected
    in groups (``map_seed_groups``), one tree walk per group, and the groups
    may run on ``threads`` worker threads; the result depends on neither.
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

    def group_counts(rs) -> list:
        counts = []
        for (pts,) in project_levels(rs, [L], b, [eps], map_budget):
            dists = pair_distances_within(pts.coords, float(thresholds.max()))
            counts.append(2.0 * _counts_at_most(dists, thresholds))
        return counts

    counts = np.asarray(map_seed_groups(group_counts, family, master_seed, n_seeds,
                                        walk_rows([L]), threads))
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


def density_sweep(r: Realization, levels, b: TailSequence, c_list, s_list,
                  map_budget: int = MAP_BUDGET_DEFAULT) -> tuple:
    """Membership indicators per (c, s) across levels, with upper densities.

    ``density_sweeps`` for the single realization ``r``.
    """
    return density_sweeps([r], levels, b, c_list, s_list, map_budget)[0]


def density_sweeps(rs, levels, b: TailSequence, c_list, s_list,
                   map_budget: int = MAP_BUDGET_DEFAULT) -> list:
    """Density sweeps of a seed group ``rs`` (realizations of one family):
    one (reports, best report) pair per realization, in order.

    The greedy separated count stands in for the packing number (a
    certified lower bound, evaluated at the scale inflated by the point
    enclosures), so membership claims are conservative.  ``levels`` are the
    run's ``level_sets(m, n_values)``, selected once from one cylinder tree
    and shared by every seed group; each level index is its set's ``n``.
    The levels of every seed of the group are projected by one walk of that
    tree (``project_levels``; ``seed_groups`` keeps its arrays within
    ``GROUP_ROWS`` rows).  Then, per seed and level, the conflict edges are
    joined once, at the largest inflated radius, and every greedy net of
    the level filters them.
    """
    c_vals = [float(c) for c in c_list]
    s_vals = [float(s) for s in s_list]
    if not levels or not c_vals or not s_vals:
        raise InputError("density sweep needs nonempty c, s, and level ranges")
    if any(c < 0.0 for c in c_vals) or any(s <= 0.0 for s in s_vals):
        raise InputError("need c >= 0 and s > 0")
    if not rs:
        return []

    d = rs[0].family.dimension
    n_values = tuple(L.n for L in levels)
    scales = [np.asarray(s_vals) / len(L) ** (1.0 / d) for L in levels]
    out = []
    for r, clouds in zip(rs, project_levels(rs, levels, b,
                                            [float(radii.min()) / 8.0 for radii in scales],
                                            map_budget)):
        ratios = np.zeros((len(levels), len(s_vals)))
        for i, (radii, pts) in enumerate(zip(scales, clouds)):
            size = len(pts)
            slack = 2.0 * float(pts.radii.max())
            edges = close_pairs(pts.coords, float(radii.max()) + slack)
            for k, rad in enumerate(radii):
                kept = separated_subset(pts.coords, float(rad) + slack, edges)
                ratios[i, k] = kept.size / size

        reports = []
        for k, s in enumerate(s_vals):
            for c in c_vals:
                members = tuple(bool(x) for x in ratios[:, k] > c)
                reports.append(DensityReport(
                    c=c, s=s, seed=r.seed, n_values=n_values,
                    ratios=tuple(float(x) for x in ratios[:, k]), members=members,
                    upper_density=upper_density(members)))
        out.append((reports, max(reports, key=lambda rep: rep.upper_density)))
    return out
