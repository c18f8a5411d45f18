"""The vectorized geometry kernels against the straightforward versions they replaced.

The reference oracles below are the earlier implementations kept verbatim in
spirit: a dict-bucket pair join with one numpy call per cell pair, a greedy
net looping over numpy scalars, and a per-ball raster (with the 1-D
difference-array pass).  Inputs stress exact ties: dyadic lattices,
coincident points, radii that land exactly on cell centers, balls clipped
by the box, and non-positive radii.

The greedy oracle sums squares through ``diff @ diff``, which a BLAS may fuse
into multiply-adds; the kernel sums them left to right in plain floats.  The
two agree wherever the sums are exact (the dyadic cases) or not within one
rounding of ``radius**2`` (the random clouds).  The d=8 tie, where the orders
of summation differ, is checked against the left-to-right sum itself, which
the pair counts and distances read too.

The greedy net resolves most points in parallel rounds over conflict edges
and finishes the rest with the sequential scan; every net is checked with
``pairs.ROUNDS`` at 0 (the scan alone), 1, 2 and its default, on chains that
need one round per point, exact ties, coincident points, joins of several
expansion blocks and joins too dense to expand.  The batched nets
(``separated_subsets``: one join and one pass of rounds per batch of point
sets) must keep what each net keeps alone, at every round count and with
batches of one set and of all sets.  The batched pair counts
(``pair_counts``: one join per batch of point sets) must count what
``pair_distances_within`` finds in each set alone, also when the sets are
too wide to shift unless compacted.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from rifs import BernoulliMeasure, Realization, TailSequence, keyed, level_set
from rifs.analysis import (CoverageGrid, close_pair_count, pairs, runs, separated_subset,
                           transversality_scaling)
from rifs.analysis.coverage import CellSet
from rifs.analysis.pairs import pair_counts, pair_distances_within, separated_subsets
from rifs.analysis.runs import blocks, ranges
from rifs.attractor import PointCloud, project_levels
from rifs.errors import InputError

REPO = Path(__file__).resolve().parent.parent
ROUND_COUNTS = (0, 1, 2, pairs.ROUNDS)


# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

def _ref_blocks(coords, cell):
    keys = np.floor(coords / cell).astype(np.int64)
    cells = {}
    for i, key in enumerate(map(tuple, keys.tolist())):
        cells.setdefault(key, []).append(i)
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=coords.shape[1])
               if off > (0,) * coords.shape[1]]
    for key in sorted(cells):
        idx = np.asarray(cells[key], dtype=np.int64)
        if idx.size > 1:
            diff = coords[idx[:, None]] - coords[idx[None, :]]
            dist = np.sqrt((diff ** 2).sum(axis=-1))
            iu, ju = np.triu_indices(idx.size, k=1)
            yield idx[iu], idx[ju], dist[iu, ju]
        for off in offsets:
            other = cells.get(tuple(k + o for k, o in zip(key, off)))
            if not other:
                continue
            jdx = np.asarray(other, dtype=np.int64)
            diff = coords[idx[:, None]] - coords[jdx[None, :]]
            dist = np.sqrt((diff ** 2).sum(axis=-1))
            ii, jj = np.nonzero(np.ones((idx.size, jdx.size), dtype=bool))
            yield idx[ii], jdx[jj], dist[ii, jj]


def ref_pair_distances(coords, cutoff):
    out = [dist[dist <= cutoff] for _, _, dist in _ref_blocks(coords, cutoff)]
    return np.concatenate(out) if out else np.zeros(0)


def expanded(coords, cutoff):
    """Whether the nets' join of one set within ``cutoff`` is expanded."""
    return bool(pairs._close_pairs([np.asarray(coords, dtype=np.float64)], [cutoff])[0][0])


def ref_close_pairs(coords, radii, threshold):
    """(nominal, lower, upper) counts of unordered pairs."""
    nominal = lower = upper = 0
    if coords.shape[0] < 2:
        return 0, 0, 0
    for i_idx, j_idx, dist in _ref_blocks(coords, threshold + 2.0 * float(radii.max())):
        rs = radii[i_idx] + radii[j_idx]
        nominal += int((dist <= threshold).sum())
        lower += int((dist + rs <= threshold).sum())
        upper += int((dist - rs <= threshold).sum())
    return nominal, lower, upper


def ref_separated(coords, radius):
    n, d = coords.shape
    r2 = radius * radius
    inv = 1.0 / radius
    neighborhood = list(itertools.product((-1, 0, 1), repeat=d))
    kept = []
    kept_cells = {}
    for i in range(n):
        x = coords[i]
        key = tuple(np.floor(x * inv).astype(np.int64).tolist())
        ok = True
        for off in neighborhood:
            for j in kept_cells.get(tuple(k + o for k, o in zip(key, off)), ()):
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


def ref_mark_balls(grid, mask, centers, radii):
    centers = np.atleast_2d(centers)
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (centers.shape[0],))
    h = grid.h
    if grid.dimension == 1:
        pos = radii > 0.0
        xs, rs = centers[pos, 0], radii[pos]
        if xs.size == 0:
            return False
        clipped = bool(np.any(xs - rs < grid.lo[0]) or np.any(xs + rs > grid.hi[0]))
        n_cells = grid.shape[0]
        lo_idx = np.ceil((xs - rs - grid.lo[0]) / h - 0.5).astype(np.int64)
        hi_idx = np.floor((xs + rs - grid.lo[0]) / h - 0.5).astype(np.int64)
        np.clip(lo_idx, 0, n_cells - 1, out=lo_idx)
        np.clip(hi_idx, -1, n_cells - 1, out=hi_idx)
        keep = hi_idx >= lo_idx
        delta = np.zeros(n_cells + 1, dtype=np.int64)
        np.add.at(delta, lo_idx[keep], 1)
        np.add.at(delta, hi_idx[keep] + 1, -1)
        mask |= np.cumsum(delta[:-1]) > 0
        return clipped
    clipped = False
    for x, rad in zip(centers, radii):
        if rad <= 0.0:
            continue
        if np.any(x - rad < grid.lo) or np.any(x + rad > grid.hi):
            clipped = True
        lo_idx = np.ceil((x - rad - grid.lo) / h - 0.5).astype(np.int64)
        hi_idx = np.floor((x + rad - grid.lo) / h - 0.5).astype(np.int64)
        lo_idx = np.maximum(lo_idx, 0)
        hi_idx = np.minimum(hi_idx, np.asarray(grid.shape) - 1)
        if np.any(hi_idx < lo_idx):
            continue
        axes = [grid.lo[i] + (np.arange(lo_idx[i], hi_idx[i] + 1) + 0.5) * h - x[i]
                for i in range(grid.dimension)]
        d2 = np.zeros([a.size for a in axes])
        for i, a in enumerate(axes):
            sh = [1] * grid.dimension
            sh[i] = a.size
            d2 = d2 + (a ** 2).reshape(sh)
        window = tuple(slice(int(l), int(u) + 1) for l, u in zip(lo_idx, hi_idx))
        mask[window] |= d2 <= rad * rad
    return clipped


def cells_mask(grid, cells):
    """The grid mask of a ``CellSet``, whose ranges must be sorted, disjoint
    and non-adjacent."""
    assert np.all(cells.first <= cells.last)
    assert np.all(cells.first[1:] > cells.last[:-1] + 1)
    mask = np.zeros(grid.shape, dtype=bool)
    mask.reshape(-1)[ranges(cells.first, cells.last - cells.first + 1)] = True
    return mask


def _marks_match(grid, centers, radii, cells=None, mask=None):
    """Mark the balls into a set and, by the oracle, into a mask; compare them.
    Returns the set and the mask."""
    cells = CellSet() if cells is None else cells
    mask = np.zeros(grid.shape, dtype=bool) if mask is None else mask
    assert grid.mark_balls(cells, centers, radii) == ref_mark_balls(grid, mask, centers, radii)
    assert np.array_equal(cells_mask(grid, cells), mask)
    assert grid.measure(cells) == np.count_nonzero(mask) * grid.h ** grid.dimension
    return cells, mask


# ---------------------------------------------------------------------------
# adversarial inputs
# ---------------------------------------------------------------------------

def _point_sets(d, rng):
    """(coords, radius) cases with exact ties and random clouds."""
    cases = []
    # dyadic lattice: many distances equal the radius exactly
    axis = np.arange(-3, 4) * 0.25
    lattice = np.array(list(itertools.product(axis, repeat=d)))
    for r in (0.25, 0.5, 0.25 * np.sqrt(2.0), 0.375):
        cases.append((lattice, float(r)))
        cases.append((lattice[rng.permutation(len(lattice))], float(r)))
    # coincident points and duplicates in several cells
    dup = np.repeat(rng.integers(-4, 4, size=(6, d)) * 0.5, 4, axis=0)
    cases.append((dup, 0.5))
    cases.append((np.zeros((7, d)), 0.1))
    # points on cell boundaries of the search grid
    cases.append((np.arange(12)[:, None] * np.full((1, d), 0.125), 0.125))
    # random clouds, some crowded
    for _ in range(12):
        n = int(rng.integers(2, 400))
        pts = rng.normal(0.0, rng.uniform(0.05, 2.0), size=(n, d))
        if rng.uniform() < 0.4:
            pts[: n // 2] *= 0.01
        cases.append((pts, float(rng.uniform(0.01, 0.6))))
    # dyadic random points: products and sums are exact
    for _ in range(6):
        pts = rng.integers(-64, 64, size=(int(rng.integers(2, 300)), d)) / 32.0
        cases.append((pts, float(rng.integers(1, 16)) / 32.0))
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_distances_match_dict_bucket_join(d):
    rng = np.random.default_rng(100 + d)
    for coords, r in _point_sets(d, rng):
        got = np.sort(pair_distances_within(coords, r))
        want = np.sort(ref_pair_distances(coords, r))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_close_pair_count_matches_dict_bucket_join(d):
    rng = np.random.default_rng(200 + d)
    for coords, r in _point_sets(d, rng):
        for radii in (np.zeros(len(coords)),
                      rng.uniform(0.0, r / 3.0, size=len(coords)),
                      np.full(len(coords), r / 8.0)):
            pts = PointCloud(coords, radii, None, None)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = close_pair_count(pts, r)
            nominal, lower, upper = ref_close_pairs(coords, radii, r)
            assert (res.ordered_count, res.ordered_lower, res.ordered_upper) == \
                (2 * nominal, 2 * lower, 2 * upper)


def ref_pair_counts(clouds, thresholds):
    """Ordered counts per set and threshold, one set at a time."""
    cutoff = float(thresholds.max())
    return [[2 * int((pair_distances_within(x, cutoff) <= t).sum()) for t in thresholds]
            for x in clouds]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_pair_counts_equal_one_set_at_a_time(d):
    # the adversarial sets, with empty and one-point sets, coincident points
    # and sets far apart, in one join and in joins of a few sets each
    rng = np.random.default_rng(700 + d)
    clouds = [coords for coords, _ in _point_sets(d, rng)]
    clouds += [np.zeros((0, d)), np.full((1, d), 0.3), np.zeros((9, d)),
               np.full((2, d), 1e6), np.full((3, d), -1e6)]
    clouds = [clouds[k] for k in rng.permutation(len(clouds))]
    for thresholds in (np.array([0.05, 0.125, 0.25, 0.5]),
                       np.array([0.25, 0.25 * math.sqrt(2.0), 0.375])):
        want = ref_pair_counts(clouds, thresholds)
        assert pair_counts(clouds, thresholds).tolist() == want
        for a, b in blocks(np.array([len(x) for x in clouds]), 200):
            assert pair_counts(clouds[a:b], thresholds).tolist() == want[a:b]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_counts_compact_sets_too_wide_to_shift(d):
    # cells of 2**-58: each set's leading axis spans 2**59 cells, so the 40
    # shifted spans would overflow int64 unless the sets are compacted first
    rng = np.random.default_rng(800 + d)
    cell = 2.0 ** -58
    thresholds = np.array([0.25, 0.5, 1.0]) * cell
    clouds = []
    for _ in range(40):
        near = rng.integers(0, 4, size=(6, d)) * (0.25 * cell)   # ties on the thresholds
        far = rng.choice([-1.0, 1.0], size=(2, d))
        clouds.append(np.concatenate([near, far, far])[rng.permutation(10)])
    keys = [np.floor(x[:, 0] / cell).astype(np.int64) for x in clouds]
    assert sum(int(k.max()) - int(k.min()) + 2 for k in keys) >= 2 ** 63
    want = ref_pair_counts(clouds, thresholds)
    assert min(counts[0] for counts in want) >= 4   # the coincident far points
    assert pair_counts(clouds, thresholds).tolist() == want


def ref_transversality_means(family, m, b, n, s_list, n_seeds, master_seed):
    """Mean normalized counts of ``transversality_scaling``, one seed at a time."""
    L = level_set(m, n)
    thresholds = np.sort(np.asarray(s_list, dtype=np.float64)) / len(L) ** (1.0 / family.dimension)
    counts = []
    for j in range(n_seeds):
        r = Realization(keyed.derive_seed(master_seed, j), family)
        [[pts]] = project_levels([r], [L], b, [float(thresholds.min()) / 8.0])
        counts.extend(ref_pair_counts([pts.coords], thresholds))
    return tuple(np.mean(counts, axis=0) / len(L))


@pytest.mark.parametrize("family", ["line_family", "plane_family"])
def test_transversality_counts_do_not_depend_on_batches(family, request, monkeypatch):
    # 30 seeds of 256 points: one seed group at one thread, two at two, in
    # batches of 16 seeds, of 3 and of one
    family = request.getfixturevalue(family)
    m, b = BernoulliMeasure([0.5, 0.5]), TailSequence.constant(1)
    want = ref_transversality_means(family, m, b, 8, [0.5, 1, 2, 4], 30, 5)
    for cap in (pairs.NET_BATCH, 1000, 1):
        monkeypatch.setattr(pairs, "NET_BATCH", cap)
        for threads in (1, 2):
            fit = transversality_scaling(family, m, b, 8, [0.5, 1, 2, 4], 30, 5,
                                         threads=threads)
            assert fit.mean_normalized == want, (cap, threads)


def _nets_equal(monkeypatch, coords, r, want):
    """The net at every round count, on its own join and on a wider one that
    it shares with the net at twice the radius."""
    for rounds in ROUND_COUNTS:
        monkeypatch.setattr(pairs, "ROUNDS", rounds)
        assert np.array_equal(separated_subset(coords, r), want), rounds
        shared = separated_subsets([coords], [[r, 2.0 * r]])[0][0]
        assert np.array_equal(shared, want), rounds


@pytest.mark.parametrize("d", [1, 2, 3])
def test_separated_subset_matches_scalar_greedy(d, monkeypatch):
    rng = np.random.default_rng(300 + d)
    for coords, r in _point_sets(d, rng):
        _nets_equal(monkeypatch, coords, r, ref_separated(coords, r))


@pytest.mark.parametrize("d", [1, 2])
def test_net_on_chains_just_below_the_radius(d, monkeypatch):
    # each point conflicts with the next (or the next two), so rounds decide
    # about two points each and the scan finishes the chain
    r = 0.3
    direction = np.array([1.0]) if d == 1 else np.array([0.6, 0.8])
    for frac in (1.0, 0.5):
        t = np.arange(300)[:, None] * (frac * r * (1.0 - 2.0 ** -20))
        for coords in (t * direction, t[::-1] * direction):
            want = ref_separated(coords, r)
            assert want.size < 200
            _nets_equal(monkeypatch, coords, r, want)


@pytest.mark.parametrize("d, norms", [(2, (5, 13)), (3, (3, 7))])
def test_net_on_ties_at_the_squared_radius(d, norms, monkeypatch):
    # integer points with Pythagorean differences: many d2 equal r2 exactly
    rng = np.random.default_rng(500 + d)
    for norm in norms:
        coords = rng.integers(0, 4 * norm, size=(400, d)) * 0.125
        r = norm * 0.125
        d2 = ((coords[:, None] - coords[None]) ** 2).sum(-1)
        assert np.count_nonzero(d2 == r * r) > 0
        _nets_equal(monkeypatch, coords, r, ref_separated(coords, r))


def _left_to_right(v):
    total = 0.0
    for x in v:
        total += x * x
    return total


def test_net_on_a_d8_tie_decided_by_the_left_to_right_sum(monkeypatch):
    # numpy's row sum and the left-to-right sum of a difference vector differ;
    # at the radius whose square is the smaller sum, the pair conflicts
    # exactly when the left-to-right sum is the smaller one
    rng = np.random.default_rng(8)
    cases = {}
    while len(cases) < 2:
        v = rng.uniform(-1.0, 1.0, size=8)
        ltr, row = _left_to_right(v.tolist()), float((v ** 2).sum())
        r = math.sqrt(min(ltr, row))
        if ltr != row and r * r == min(ltr, row):
            cases.setdefault(ltr < row, (v, r))
    for conflict, (v, r) in cases.items():
        for coords in (np.array([np.zeros(8), v]), np.array([v, np.zeros(8)])):
            for rounds in ROUND_COUNTS:
                monkeypatch.setattr(pairs, "ROUNDS", rounds)
                assert separated_subset(coords, r).tolist() == ([0] if conflict else [0, 1])


def test_pair_counts_agree_with_the_net_on_a_d8_tie():
    # the counts and the sweep read the left-to-right sum too: at the radius
    # whose square it is, a pair whose row sum is larger still counts
    rng = np.random.default_rng(8)
    for _ in range(40):
        v = rng.uniform(-1.0, 1.0, size=8)
        ltr, row = _left_to_right(v.tolist()), float((v ** 2).sum())
        t = math.sqrt(ltr)
        if ltr < row and t * t == ltr and math.sqrt(row) > t:
            break
    else:
        pytest.fail("no d=8 tie found")
    coords = np.array([np.zeros(8), v])
    assert pair_distances_within(coords, t).size == 1
    assert close_pair_count(coords, t).ordered_count == 2
    assert separated_subset(coords, t).tolist() == [0]


def test_net_on_float32_coordinates_adds_in_float64(monkeypatch):
    # a PointCloud keeps float32 coordinates; the scan adds them as Python
    # floats, so the rounds must square and add in float64 too
    rng = np.random.default_rng(12)
    for _ in range(60):
        coords = (rng.integers(-64, 64, size=(400, 2)) / np.float32(3.0)).astype(np.float32)
        pts = PointCloud(coords, np.zeros(400), None, None)
        r = float(rng.integers(1, 20)) / 3.0
        monkeypatch.setattr(pairs, "ROUNDS", 0)
        want = separated_subset(pts, r)
        for rounds in ROUND_COUNTS[1:]:
            monkeypatch.setattr(pairs, "ROUNDS", rounds)
            assert np.array_equal(separated_subset(pts, r), want), rounds


def test_far_apart_cells_are_compacted():
    # cell keys too wide for one int64 linear key still join correctly
    coords = np.array([[0.0, 0.0], [1e-9, 0.0], [1e6, 1e6], [1e6, 1e6 + 1e-10],
                       [-1e6, 3.0], [-1e6, 3.0 + 2e-9]])
    r = 1e-9
    assert pair_distances_within(coords, r).size == 2
    assert np.array_equal(np.sort(pair_distances_within(coords, r)),
                          np.sort(ref_pair_distances(coords, r)))
    assert np.array_equal(separated_subset(coords, r), ref_separated(coords, r))


@pytest.mark.parametrize("coords", [np.array([[0.0], [1e12]]), np.array([[0.0, np.nan], [0.0, 0.0]]),
                                    np.array([[np.inf, 0.0], [0.0, 0.0]])])
def test_cell_keys_out_of_int64_range_raise_input_error(coords):
    with pytest.raises(InputError):
        pair_distances_within(coords, 1e-9)
    with pytest.raises(InputError):
        separated_subset(coords, 1e-9)


def test_ranges_and_blocks(monkeypatch):
    starts = np.array([5, 0, 9, 2])
    counts = np.array([2, 0, 3, 1])
    assert ranges(starts, counts).tolist() == [5, 6, 9, 10, 11, 2]
    assert ranges(starts[:0], counts[:0]).size == 0
    weights = np.array([3, 1, 9, 2, 2, 0, 4])
    monkeypatch.setattr(runs, "BLOCK", 4)
    slices = list(blocks(weights))
    assert slices == [(0, 2), (2, 3), (3, 6), (6, 7)]
    for a, b in slices:
        assert b == a + 1 or weights[a:b].sum() <= 4


def test_large_joins_split_into_blocks():
    # more candidate pairs than one expansion block holds
    rng = np.random.default_rng(7)
    coords = rng.uniform(0.0, 0.05, size=(900, 2))
    pts = PointCloud(coords, np.zeros(900), None, None)
    nominal, _, _ = ref_close_pairs(coords, np.zeros(900), 0.04)
    res = close_pair_count(pts, 0.04)
    assert nominal > 1 << 18
    assert res.ordered_count == 2 * nominal
    assert np.array_equal(np.sort(pair_distances_within(coords, 0.04)),
                          np.sort(ref_pair_distances(coords, 0.04)))


def test_net_over_a_join_of_several_blocks(monkeypatch):
    rng = np.random.default_rng(9)
    coords = rng.uniform(0.0, 1.0, size=(12_000, 1))
    r = 0.0015
    counts = pairs._join([coords], [r * pairs._CELL_SLACK])[3]
    assert 1 << 18 < counts.sum() <= pairs.PAIR_LIMIT * len(coords)
    assert expanded(coords, r)
    _nets_equal(monkeypatch, coords, r, ref_separated(coords, r))


def test_net_over_the_candidate_limit(monkeypatch):
    # 30 clusters of 200 coincident points: too many candidates to expand
    rng = np.random.default_rng(10)
    coords = np.repeat(rng.uniform(0.0, 1.0, size=(30, 2)), 200, axis=0)
    coords = coords[rng.permutation(len(coords))]
    assert not expanded(coords, 0.01)
    _nets_equal(monkeypatch, coords, 0.01, ref_separated(coords, 0.01))


def _net_batch(d, rng):
    """(clouds, radii): point sets that each stress one guard of the batched
    nets, three radii per set."""
    r = 0.05
    direction = np.eye(d)[0]
    clouds = [
        # over PAIR_LIMIT: clusters of coincident points, joined unexpanded
        np.repeat(rng.uniform(0.0, 1.0, size=(6, d)), 200, axis=0)[rng.permutation(1200)],
        # imprecise: a coordinate beyond 2**30 cells of 0
        np.array([[0.0] * d, [2.0 ** 32 * r] + [0.0] * (d - 1), [0.3 * r] * d]),
        np.array([[0.25] * d]),                                 # one point
        np.arange(5)[:, None] * (3.0 * r) * direction,          # no pairs within 2r
        np.repeat(np.array([[0.5] * d, [0.5 + r] * d]), 3, axis=0),   # coincident points
        rng.uniform(0.0, 1.0, size=(200, d)),
        # the next two sets share their keys: without the gap between sets their
        # cells would touch, and their pairs across the sets would conflict
        rng.uniform(0.0, 0.2, size=(40, d)),
        rng.uniform(0.0, 0.2, size=(40, d)),
        np.zeros((0, d)),
    ]
    radii = [[r, 2.0 * r, 0.5 * r]] * len(clouds)
    radii[-2] = [0.07, 0.02, 0.11]
    return clouds, radii


@pytest.mark.parametrize("d", [1, 2])
def test_batched_nets_equal_one_net_at_a_time(d, monkeypatch):
    rng = np.random.default_rng(600 + d)
    clouds, radii = _net_batch(d, rng)
    for x, rs in zip(clouds[:2], radii):
        assert not expanded(x, max(rs))
    monkeypatch.setattr(pairs, "ROUNDS", 0)
    want = [[separated_subset(x, r) for r in rs] for x, rs in zip(clouds, radii)]
    for x, rs, nets in zip(clouds, radii, want):
        for r, kept in zip(rs, nets):
            assert np.array_equal(kept, ref_separated(x, r))
    for rounds in ROUND_COUNTS:
        for cap in (1, 1 << 62):
            monkeypatch.setattr(pairs, "ROUNDS", rounds)
            monkeypatch.setattr(pairs, "NET_BATCH", cap)
            got = separated_subsets(clouds, radii)
            assert len(got) == len(clouds)
            for s, (nets, expect) in enumerate(zip(got, want)):
                for kept, ref in zip(nets, expect):
                    assert np.array_equal(kept, ref), (rounds, cap, s)
                    assert kept.dtype == np.int64


def test_batched_nets_check_their_radii():
    with pytest.raises(InputError):
        separated_subsets([np.zeros((3, 1)), np.ones((2, 1))], [[0.1], [0.0]])
    with pytest.raises(InputError):
        separated_subset(np.zeros((3, 1)), -1.0)
    assert separated_subsets([], []) == []


def test_coincident_points_keep_memory_linear():
    code = textwrap.dedent("""
        import json, resource
        import numpy as np
        from rifs.analysis import separated_subset
        coords = np.zeros((20_000, 1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kept = separated_subset(coords, 0.5)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"kept": kept.tolist(), "rise_mib": (after - before) / 1024}))
    """)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["kept"] == [0]
    assert out["rise_mib"] < 50.0


def test_close_pairs_serve_radii_up_to_their_cutoff():
    rng = np.random.default_rng(11)
    coords = rng.uniform(0.0, 1.0, size=(300, 2))
    done, lo, hi, d2 = pairs._close_pairs([coords], [0.1])
    assert done.tolist() == [True]
    assert np.all(lo < hi) and np.all(d2 <= 0.1 * 0.1)
    # the nets of one set share its join at the largest radius
    for r, kept in zip((0.1, 0.03), separated_subsets([coords], [[0.1, 0.03]])[0]):
        assert np.array_equal(kept, ref_separated(coords, r))


def test_large_balls_split_into_blocks(monkeypatch):
    # index boxes of more rows than one block, next to small ones
    grid = CoverageGrid(np.zeros(2), np.ones(2), 1.0 / 640)
    rng = np.random.default_rng(8)
    centers = rng.uniform(0.0, 1.0, size=(12, 2))
    radii = np.where(np.arange(12) % 3 == 0, 0.45, 0.01)
    calls = []
    mark_rows = CoverageGrid._mark_rows
    monkeypatch.setattr(CoverageGrid, "_mark_rows",
                        lambda self, *a: calls.append(1) or mark_rows(self, *a))
    monkeypatch.setattr(runs, "BLOCK", 256)
    _marks_match(grid, centers, radii)
    assert len(calls) > 4


def _ball_cases(grid, rng):
    d = grid.dimension
    h = grid.h
    n_cells = np.asarray(grid.shape)
    cases = []
    # centers on cell centers, radii landing exactly on neighbouring centers
    idx = rng.integers(0, n_cells, size=(40, d))
    centers = grid.lo + (idx + 0.5) * h
    radii = h * rng.integers(0, 6, size=40).astype(float)
    cases.append((centers, radii))
    radii = h * np.sqrt(rng.integers(0, 30, size=40).astype(float))
    cases.append((centers, radii))
    # centers on cell corners
    cases.append((grid.lo + idx * h, h * rng.integers(1, 5, size=40) / 2.0))
    # clipped balls, balls wholly outside, zero and negative radii
    far = grid.lo + rng.uniform(-0.5, 1.5, size=(60, d)) * (grid.hi - grid.lo)
    cases.append((far, rng.uniform(-2 * h, 12 * h, size=60)))
    # random balls of mixed sizes
    cases.append((grid.lo + rng.uniform(0, 1, size=(80, d)) * (grid.hi - grid.lo),
                  rng.uniform(0.0, 9 * h, size=80)))
    # one scalar radius for every ball, and a single ball
    cases.append((centers, 2.5 * h))
    cases.append((centers[:1], np.array([3.0 * h])))
    # single balls wholly past either end of the box
    cases.append((grid.hi + 4 * h, np.array([2.0 * h])))
    cases.append((grid.lo - 4 * h, np.array([2.0 * h])))
    # coincident centers, some of radius 0
    cases.append((np.repeat(centers[:5], 4, axis=0), h * np.tile([0.0, 1.5, 0.0, 3.0], 5)))
    return cases


def _grids(d):
    return [CoverageGrid(np.full(d, -1.0), np.full(d, 1.0), 2.0 ** -4),
            CoverageGrid(np.linspace(-0.3, 0.2, d), np.linspace(0.4, 0.9, d), 0.03)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mark_balls_matches_per_ball_raster(d):
    rng = np.random.default_rng(400 + d)
    for grid in _grids(d):
        for centers, radii in _ball_cases(grid, rng):
            # marking on top of earlier marks adds to them
            cells = CellSet()
            cells.add(np.array([0]), np.array([0]))
            mask = np.zeros(grid.shape, dtype=bool)
            mask[(0,) * d] = True
            _marks_match(grid, centers, radii, cells, mask)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_set_union_matches_mask_or(d):
    # the union's ranges are canonical, so it does not depend on the order of
    # the operands: threaded and sequential runs measure the same arrays
    rng = np.random.default_rng(500 + d)
    for grid in _grids(d):
        cases = _ball_cases(grid, rng)
        for i, j in zip(range(len(cases)), rng.permutation(len(cases))):
            a, mask_a = _marks_match(grid, *cases[i])
            b, mask_b = _marks_match(grid, *cases[j])
            ab = CellSet()
            ab |= a
            ab |= b
            b |= a
            assert np.array_equal(cells_mask(grid, ab), mask_a | mask_b)
            assert np.array_equal(ab.first, b.first) and np.array_equal(ab.last, b.last)
            a |= a
            assert np.array_equal(cells_mask(grid, a), mask_a)
