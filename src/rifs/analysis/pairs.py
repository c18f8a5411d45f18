"""Close-pair counts, separated subsets, and their scaling statistics.

Pair counting follows the ordered-pair convention (each unordered pair at
distance <= threshold contributes twice).  Candidates come from the cell
method for fixed-radius near neighbours (Bentley, Stanat & Williams 1977):
points are keyed to grid cells whose edge matches the search radius, so every
close pair sits in a 3^d cell neighbourhood, and the keys are linearised and
sorted so that each neighbourhood is a few contiguous ranges of the sorted
order, found with ``searchsorted`` and expanded in bounded blocks.  Every
pair statistic (close-pair counts, sweep distances, the greedy nets'
conflicts) reads one squared distance, ``(y_k - x_k)**2`` summed left to
right over the axes, and a reported distance is its ``sqrt``.  A row
``sum`` may add in another order (numpy's does from d = 8 on), so two
statistics computed two ways could disagree about the same pair.

Because projected points carry truncation enclosures, ``pair_counts``
brackets each count, from the same join, when given the points' radii: a
pair is certainly close when dist + r_i + r_j <= t and possibly close when
dist - r_i - r_j <= t.  When a threshold does not dominate the enclosures
(t <= 2 max r) the nominal count is not truncation-robust and a warning is
issued; the brackets remain valid either way (a set's grid cell is widened
by its enclosure slack so no candidate escapes the neighborhood).  The
``pairs`` kind reports nominal counts.

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
undecided.  The kept indices equal those of the scan alone.  Edges are
selected by index lists, which numpy runs several times faster than boolean
masks whose trues and falses are mixed.  A join with
more than ``PAIR_LIMIT`` candidates per point is not expanded, and the scan
then does all the work, so edge memory stays O(n).

Nets of several point sets share their work: ``separated_subsets`` takes
the sets in batches of at most ``NET_BATCH`` points, and each batch makes
one join, in which every set is keyed to the cells of its own largest
radius and shifted two cells clear of the others, and one pass of rounds
over the disjoint union of its nets' conflict graphs.  The rounds are
local, so each net keeps what it keeps alone; the join's fixed cost is paid
once per batch rather than once per set, and the rounds' once per batch
rather than once per net.

The density sweep projects the run's level sets, selected once from one
cylinder tree, for a group of seeds per walk, and takes the greedy nets of
every level, radius and seed of the group in such batches; the
transversality fit projects its one level set for a group of seeds per
walk and counts the group's close pairs in such batches (``pair_counts``).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..attractor import MAP_BUDGET_DEFAULT, points_to_arrays, project_levels
from ..errors import InputError, InvariantError
from ..random_model import MatrixFamily, Realization
from ..symbolic import SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT, level_set
from ..walk import map_seed_groups
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


def _join(sets: list, cells: list) -> tuple:
    """The sorted cell-key join of the point sets ``sets``, each keyed to
    cells of its own width ``cells[s]``: (order, owners, starts, counts).

    Indices run over the concatenated sets.  With several sets, each set's
    keys are shifted along the leading axis to start two cells past the end
    of the set before it, so no cell of one set is adjacent to a cell of
    another (``_compact`` keeps a gap of two) and no candidate run crosses
    sets; a set whose leading axis spans more than ``2**62 / S`` cells is
    compacted along it first, so the shifts cannot overflow.  Points are
    sorted by linear cell key.  A point's partners in its own cell after it
    and in the next cell along the last axis form one contiguous run of the
    sorted order; each positive offset of the leading axes adds the run of
    the three cells at that offset.  Run ``k`` pairs point ``owners[k]`` with
    ``order[starts[k]:starts[k] + counts[k]]``, so ``counts.sum()`` is the
    number of candidate pairs before any is expanded.  Fewer than two points
    give an empty join.
    """
    n = sum(len(coords) for coords in sets)
    d = sets[0].shape[1]
    if n < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    keys = [_cell_keys(coords / cell) for coords, cell in zip(sets, cells)]
    if len(keys) > 1:
        base, room = 0, 2 ** 62 // len(keys)
        for k in filter(len, keys):
            if int(k[:, 0].max()) - int(k[:, 0].min()) + 2 > room:
                k[:, 0] = _compact(k[:, 0])
            low, high = int(k[:, 0].min()), int(k[:, 0].max())
            k[:, 0] += base - low
            base += high - low + 2
    lin, strides = _cell_index(np.concatenate(keys))
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


def _pairs(coords: np.ndarray, join: tuple):
    """Yield ``(i, j, d2)`` blocks over the candidate pairs of a join, each
    pair once, expanded in bounded blocks.  ``d2`` is ``(x_i - x_j)**2``
    summed left to right over the axes, in the dtype of ``coords``: the one
    distance of every pair statistic, equal on every BLAS build (a row
    ``sum`` need not add in order)."""
    order, owners, starts, counts = join
    axes = [np.ascontiguousarray(x) for x in coords.T]   # gathers from columns are faster
    for a, b in blocks(counts):
        i = np.repeat(owners[a:b], counts[a:b])
        j = order[ranges(starts[a:b], counts[a:b])]
        diff = axes[0][i] - axes[0][j]
        d2 = diff * diff
        for x in axes[1:]:
            diff = x[i] - x[j]
            d2 += diff * diff
        yield i, j, d2


def pair_distances_within(coords: np.ndarray, cutoff: float) -> np.ndarray:
    """Distances of all unordered pairs at distance <= cutoff (for sweeps)."""
    dists = (np.sqrt(d2) for _, _, d2 in _pairs(coords, _join([coords], [cutoff])))
    out = [dist[dist <= cutoff] for dist in dists]
    return np.concatenate(out) if out else np.zeros(0)


def pair_counts(clouds: list, thresholds, radii: list | None = None) -> np.ndarray:
    """Ordered close-pair counts (3, S, T) of the point sets ``clouds`` at the
    positive ascending ``thresholds``: ``[0, s, k]`` counts the pairs of
    ``clouds[s]`` whose ``dist``, ``[1, s, k]`` those whose ``dist + r_i +
    r_j`` and ``[2, s, k]`` those whose ``dist - r_i - r_j`` is at most
    ``thresholds[k]``, with ``radii[s]`` the points' enclosure radii (without
    ``radii`` the brackets are the counts, at no extra cost).  The sets are
    counted in batches of at most ``NET_BATCH`` points, one join per batch,
    in which a set's cells are its largest threshold plus twice its largest
    radius wide.  A pair adds one to its set's slot ``#(thresholds < x)`` of
    each bracketed distance ``x``; counts are cumulative slot sums."""
    thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    if not (thresholds.size and thresholds[0] > 0.0 and np.all(np.diff(thresholds) >= 0.0)):
        raise InputError("thresholds must be positive and ascending")
    S, T = len(clouds), thresholds.size
    sizes = np.array([len(x) for x in clouds], dtype=np.int64)
    if radii is not None and [len(r) for r in radii] != sizes.tolist():
        raise InputError("give one enclosure radius per point")
    tops = np.zeros(S) if radii is None else np.array([np.max(r, initial=0.0) for r in radii])
    if np.any((sizes > 0) & (thresholds[0] <= 2.0 * tops)):
        warnings.warn(
            f"close-pair threshold {thresholds[0]} does not dominate the truncation "
            f"enclosures (2 max radius = {2.0 * tops.max()}); nominal count is not "
            "robust, rely on the [lower, upper] bracket", stacklevel=2)
    cells = thresholds[-1] + 2.0 * tops
    slots = np.zeros((1 if radii is None else 3, S * (T + 1)), dtype=np.int64)
    for a, b in blocks(sizes, NET_BATCH):
        first = np.repeat(np.arange(a, b) * (T + 1), sizes[a:b])   # per point of the batch
        r = None if radii is None else np.concatenate(radii[a:b])
        for i, j, d2 in _pairs(np.concatenate(clouds[a:b]), _join(clouds[a:b], list(cells[a:b]))):
            dist = np.sqrt(d2)
            rs = None if r is None else r[i] + r[j]
            for row, x in zip(slots, [dist] if rs is None else [dist, dist + rs, dist - rs]):
                slot = first[i]
                for t in thresholds.tolist():
                    slot += x > t
                row += np.bincount(slot, minlength=row.size)
    # without radii the one row of counts is also both brackets
    counts = np.repeat(2 * np.cumsum(slots.reshape(len(slots), S, T + 1), axis=2)[..., :T],
                       3 // len(slots), axis=0)
    if not (np.all(counts[1] <= counts[0]) and np.all(counts[0] <= counts[2])):
        raise InvariantError("pair-count bracket out of order: lower <= nominal <= upper failed")
    return counts


# ---------------------------------------------------------------------------
# separated subsets
# ---------------------------------------------------------------------------

def _take(mask: np.ndarray, *arrays) -> list:
    """``[x[mask] for x in arrays]`` by one index list: on a mixed mask of 10**4
    entries or more, ``flatnonzero`` and ``take`` select 4-8 times faster (numpy
    2.4), while ``x[mask]`` stays faster on nearly all-true masks, which keep it."""
    index = np.flatnonzero(mask)
    return [x.take(index) for x in arrays]


ROUNDS = 32             # parallel rounds before the sequential scan finishes a net
PAIR_LIMIT = 64         # candidate pairs per point beyond which a join stays unexpanded
NET_BATCH = 1 << 12     # points per batch of sets whose nets share one join and one pass
_CELL_SLACK = 1.0 + 2.0 ** -20


def _close_pairs(sets: list, cutoffs: list) -> tuple:
    """The greedy nets' conflict edges in several float64 point sets, at every
    radius up to each set's cutoff, from one join: (expanded, lo, hi, d2).

    ``lo < hi`` (indices into the concatenated sets) are the pairs of one set
    whose left-to-right ``d2`` is at most its cutoff squared.  A set's cells
    are ``cutoff * (1 + 2**-20)`` wide, so while its coordinates lie within
    2**30 cells of 0 and ``cutoff**2`` is normal, the rounding of ``coords /
    cell`` loses no such pair.  Outside that range, or beyond ``PAIR_LIMIT``
    candidates per point, ``expanded[s]`` is False and the set has no pairs
    here, so edge memory stays O(n) on chains and coincident clusters.
    """
    sizes = np.array([len(coords) for coords in sets])
    expanded = np.array([n < 2 or (2.0 ** -500 <= cutoff <= 2.0 ** 500 and
                                   np.abs(coords).max() < 2.0 ** 30 * (cutoff * _CELL_SLACK))
                         for coords, cutoff, n in zip(sets, cutoffs, sizes)], dtype=bool)
    joining = expanded & (sizes >= 2)
    joined = np.flatnonzero(joining)
    empty = np.zeros(0, dtype=np.int64)
    if not joined.size:
        return expanded, empty, empty, np.zeros(0)
    order, owners, starts, counts = _join([sets[s] for s in joined],
                                          [cutoffs[s] * _CELL_SLACK for s in joined])
    member = np.repeat(np.arange(joined.size), sizes[joined])   # set of each joined point
    # the candidates of each set, counted before anything is expanded
    over = np.bincount(member[owners], counts, joined.size) > PAIR_LIMIT * sizes[joined]
    if over.any():
        expanded[joined[over]] = False
        runs = ~over[member[owners]]
        owners, starts, counts = owners[runs], starts[runs], counts[runs]
    coords = np.concatenate([sets[s] for s in joined])
    c2 = np.array([cutoffs[s] * cutoffs[s] for s in joined])[member]   # per point
    los, his, d2s = [empty], [empty], [np.zeros(0)]
    for i, j, d2 in _pairs(coords, (order, owners, starts, counts)):
        i, j, d2 = _take(d2 <= c2[i], i, j, d2)
        los.append(np.minimum(i, j))
        his.append(np.maximum(i, j))
        d2s.append(d2)
    lo, hi = np.concatenate(los), np.concatenate(his)
    if joined.size < len(sets):   # renumber into the concatenation of every set
        index = np.flatnonzero(np.repeat(joining, sizes))
        lo, hi = index[lo], index[hi]
    return expanded, lo, hi, np.concatenate(d2s)


def separated_subset(points, radius: float) -> np.ndarray:
    """Greedy maximal radius-separated subset; returns kept indices in order.

    Kept points are pairwise strictly farther than ``radius`` apart and every
    rejected point is within ``radius`` of some kept point (maximality).
    This is the one net of :func:`separated_subsets`.
    """
    return separated_subsets([points], [[radius]])[0][0]


def separated_subsets(clouds: list, radii) -> list:
    """The greedy nets of several point sets: entry ``[s][k]`` holds the
    indices that ``separated_subset(clouds[s], radii[s][k])`` keeps.

    Every set takes the same number of radii.  The sets are taken in batches
    of consecutive sets with at most ``NET_BATCH`` points in all (a larger set
    is a batch of its own), so the memory of a batch's edges and rounds stays
    bounded, and each batch makes one join and one pass of rounds
    (:func:`_nets`); the nets do not depend on the batches.
    """
    if not clouds:
        return []
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 2 or len(radii) != len(clouds):
        raise InputError("give one row of radii per point set")
    if not np.all(radii > 0.0):
        raise InputError("radius must be positive")
    coords = [points_to_arrays(points)[0] for points in clouds]
    out = []
    for a, b in blocks(np.array([len(x) for x in coords]), NET_BATCH):
        out.extend(_nets(coords[a:b], radii[a:b]))
    return out


def _nets(clouds: list, radii: np.ndarray) -> list:
    """Kept indices ``[s][k]`` of the greedy nets of the point sets
    ``clouds`` at the radii ``radii[s, k]``, from one join and one pass of
    rounds.

    Each set's pairs are joined once, within its largest radius
    (:func:`_close_pairs`).  The conflict edges of net ``(s, k)`` are the
    pairs within ``radii[s, k]`` whose cells of that radius are adjacent
    (the pairs the scan compares), its points numbered from
    ``k * N + offset[s]`` among the ``N`` points of all sets.  So the nets'
    conflict graphs are disjoint, and one ``_rounds`` pass over their union
    decides what a pass over each alone would: the rounds are local.  The
    scan finishes each net's undecided points, and every net of a set
    whose join was not expanded.
    """
    sizes = [len(x) for x in clouds]
    at = np.cumsum([0] + sizes)
    n, K = int(at[-1]), radii.shape[1]
    points = np.concatenate(clouds)
    member = np.repeat(np.arange(len(clouds)), sizes)
    # keys (K, d, n) in the clouds' dtype, as ``points * (1.0 / radius)`` rounds them
    with np.errstate(over="ignore"):   # _cell_keys refuses the infinite keys
        inv = (1.0 / radii.T).astype(np.result_type(points.dtype, 1.0))
        keys = _cell_keys(points.T * inv[:, None, member])
    coords = points.astype(np.float64, copy=False)   # square and add as Python floats
    expanded, lo, hi, d2 = _close_pairs([coords[a:b] for a, b in zip(at, at[1:])],
                                        radii.max(axis=1).tolist())
    with np.errstate(over="ignore"):   # an infinite square still compares right
        r2 = radii * radii
    owner = member[lo]
    los, his = [], []
    for k in range(K):
        i, j = _take(d2 <= r2[:, k][owner], lo, hi)
        near = np.abs(keys[k, 0][i] - keys[k, 0][j]) <= 1
        for axis in keys[k, 1:]:
            near &= np.abs(axis[i] - axis[j]) <= 1
        los.append(i[near] + k * n)
        his.append(j[near] + k * n)
    kept, todo = _rounds(K * n, np.concatenate(los), np.concatenate(his))

    first = np.arange(K)[:, None] * n + at     # net (s, k) holds nodes first[k, s:s + 2]
    kept_at = np.searchsorted(kept, first).tolist()
    todo_at = np.searchsorted(todo, first).tolist()
    first = first.tolist()
    out = []
    for s, (a, b) in enumerate(zip(at.tolist(), at[1:].tolist())):
        nets = []
        for k in range(K):
            if expanded[s]:
                net = kept[kept_at[k][s]:kept_at[k][s + 1]] - first[k][s]
                undecided = todo[todo_at[k][s]:todo_at[k][s + 1]] - first[k][s]
            else:
                net, undecided = kept[:0], np.arange(b - a)
            if undecided.size:
                net = _scan(coords[a:b], keys[k, :, a:b].T, float(r2[s, k]), net, undecided)
            nets.append(net)
        out.append(nets)
    return out


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
    blocked = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    for r in range(ROUNDS):
        if r:   # the first round has nothing decided to remove or drop
            state[_take(state[lo] == 1, hi)[0]] = 2
            lo, hi = _take((state[lo] == 0) & (state[hi] == 0), lo, hi)
            todo = todo[state[todo] == 0]
            blocked[todo] = False
        blocked[hi] = True
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
    in groups (``map_seed_groups``), one walk per group, on ``threads`` worker
    threads; a group's clouds are counted by one join per batch of at most
    ``NET_BATCH`` points (``pair_counts``).  The result depends on none of these.
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

    def group_counts(rs) -> np.ndarray:
        clouds = [pts.coords for (pts,) in project_levels(rs, [L], b, [eps], map_budget)]
        return pair_counts(clouds, thresholds)[0]

    counts = np.asarray(map_seed_groups(group_counts, family, master_seed, n_seeds, size,
                                        threads))
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
    tree (``project_levels``; ``walk.seed_groups`` keeps a group's clouds
    within ``walk.BLOCK`` rows).  Then the greedy nets of every seed, level
    and inflated radius are taken together (``separated_subsets``): one join
    and one pass of rounds per batch of consecutive (seed, level) point sets.
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
    clouds = project_levels(rs, levels, b, [float(radii.min()) / 8.0 for radii in scales],
                            map_budget)
    # each net's radius is inflated by the two largest enclosures of its cloud
    nets = separated_subsets(
        [pts.coords for seed in clouds for pts in seed],
        [radii + 2.0 * float(pts.radii.max()) for seed in clouds
         for radii, pts in zip(scales, seed)])
    out = []
    for j, r in enumerate(rs):
        ratios = np.array([[kept.size / len(pts) for kept in level_nets]
                           for pts, level_nets in zip(clouds[j], nets[j * len(levels):])])

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
