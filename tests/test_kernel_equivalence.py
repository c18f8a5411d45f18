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
rounding of ``radius**2`` (the random clouds).
"""

import itertools
import warnings

import numpy as np
import pytest

from rifs.analysis import CoverageGrid, close_pair_count, separated_subset
from rifs.analysis.pairs import pair_distances_within
from rifs.analysis.runs import blocks, ranges
from rifs.attractor import PointCloud
from rifs.errors import InputError


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


def ref_close_pairs(coords, radii, threshold):
    """(nominal, lower, upper, sorted pairs) of unordered pairs."""
    nominal = lower = upper = 0
    pairs = []
    if coords.shape[0] < 2:
        return 0, 0, 0, ()
    for i_idx, j_idx, dist in _ref_blocks(coords, threshold + 2.0 * float(radii.max())):
        rs = radii[i_idx] + radii[j_idx]
        close = dist <= threshold
        nominal += int(close.sum())
        lower += int((dist + rs <= threshold).sum())
        upper += int((dist - rs <= threshold).sum())
        for i, j in zip(i_idx[close].tolist(), j_idx[close].tolist()):
            pairs.append((i, j) if i < j else (j, i))
    return nominal, lower, upper, tuple(sorted(pairs))


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
            nominal, lower, upper, pairs = ref_close_pairs(coords, radii, r)
            assert (res.ordered_count, res.ordered_lower, res.ordered_upper) == \
                (2 * nominal, 2 * lower, 2 * upper)
            assert res.pairs == pairs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_separated_subset_matches_scalar_greedy(d):
    rng = np.random.default_rng(300 + d)
    for coords, r in _point_sets(d, rng):
        assert np.array_equal(separated_subset(coords, r), ref_separated(coords, r))


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


def test_ranges_and_blocks():
    starts = np.array([5, 0, 9, 2])
    counts = np.array([2, 0, 3, 1])
    assert ranges(starts, counts).tolist() == [5, 6, 9, 10, 11, 2]
    assert ranges(starts[:0], counts[:0]).size == 0
    weights = np.array([3, 1, 9, 2, 2, 0, 4])
    slices = list(blocks(weights, 4))
    assert slices == [(0, 2), (2, 3), (3, 6), (6, 7)]
    for a, b in slices:
        assert b == a + 1 or weights[a:b].sum() <= 4


def test_large_joins_split_into_blocks():
    # more candidate pairs than one expansion block holds
    rng = np.random.default_rng(7)
    coords = rng.uniform(0.0, 0.05, size=(900, 2))
    pts = PointCloud(coords, np.zeros(900), None, None)
    nominal, lower, upper, pairs = ref_close_pairs(coords, np.zeros(900), 0.04)
    res = close_pair_count(pts, 0.04)
    assert nominal > 1 << 18
    assert res.ordered_count == 2 * nominal and res.pairs == pairs
    assert np.array_equal(np.sort(pair_distances_within(coords, 0.04)),
                          np.sort(ref_pair_distances(coords, 0.04)))


def test_large_balls_split_into_blocks():
    # index boxes of more cells than one block, next to small ones
    grid = CoverageGrid(np.zeros(2), np.ones(2), 1.0 / 640)
    rng = np.random.default_rng(8)
    centers = rng.uniform(0.0, 1.0, size=(12, 2))
    radii = np.where(np.arange(12) % 3 == 0, 0.45, 0.01)
    got = grid.new_mask()
    want = grid.new_mask()
    assert grid.mark_balls(got, centers, radii) == ref_mark_balls(grid, want, centers, radii)
    assert np.array_equal(got, want)


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
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mark_balls_matches_per_ball_raster(d):
    rng = np.random.default_rng(400 + d)
    grids = [CoverageGrid(np.full(d, -1.0), np.full(d, 1.0), 2.0 ** -4),
             CoverageGrid(np.linspace(-0.3, 0.2, d), np.linspace(0.4, 0.9, d), 0.03)]
    for grid in grids:
        for centers, radii in _ball_cases(grid, rng):
            got = grid.new_mask()
            want = grid.new_mask()
            # marking on top of earlier marks ORs into them
            got[(0,) * d] = want[(0,) * d] = True
            assert grid.mark_balls(got, centers, radii) == \
                ref_mark_balls(grid, want, centers, radii)
            assert np.array_equal(got, want)
