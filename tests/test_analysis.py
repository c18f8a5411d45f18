import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import rifs.analysis
from rifs.analysis import (coverage_estimate, pair_counts, pairs,
                           density_sweep, density_sweeps, det_window_report,
                           separated_subset, transversality_scaling)
from rifs.analysis.coverage import CellSet, CoverageGrid, attractor_measure_estimate
from rifs.analysis.detwindow import fit_line
from rifs.attractor import project_level, project_levels
from rifs.errors import InputError, InvariantError
from rifs.experiments import Gauge, preset, run
from rifs.random_model import MatrixFamily, Realization, SimilaritySpec, moment_report
from rifs.symbolic import (BernoulliMeasure, TailSequence, iter_level_frontiers, level_set,
                           level_sets)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_ordered_pairs(coords, t):
    coords = np.atleast_2d(coords)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    iu = np.triu_indices(len(coords), k=1)
    return 2 * int((d2[iu] <= t * t).sum())


def exact_packing_number(coords, r):
    """Branch-and-bound maximum independent set of the dist <= r conflict graph."""
    coords = np.atleast_2d(coords)
    n = len(coords)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    conflict = d2 <= r * r
    best = 0

    def rec(chosen, candidates):
        nonlocal best
        if chosen + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, chosen)
            return
        v = candidates[0]
        rest = candidates[1:]
        rec(chosen + 1, [u for u in rest if not conflict[v, u]])
        rec(chosen, rest)

    rec(0, list(range(n)))
    return best


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_array_records_compare_by_identity_and_hash(line_family):
    # frozen records holding arrays use identity equality, so == and hash work
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(3, line_family)
    L = level_set(m, 4)
    pts = project_level(r, L, TailSequence.constant(1), 1e-6)
    grid = CoverageGrid(np.array([-1.0]), np.array([2.0]), 2.0 ** -6)
    records = [next(iter_level_frontiers(m, 2)), L, pts, pts[0],
               moment_report(line_family, m), grid,
               coverage_estimate(r, level_sets(m, [3]), TailSequence.constant(1),
                                 Gauge("one_over_n"), grid),
               attractor_measure_estimate(r, m, [3, 4], grid),
               det_window_report(r, m, 3, eps1=0.4, C=4.0, N1=1)]
    for rec in records:
        assert rec == rec and hash(rec) == hash(rec)
    assert L != level_set(m, 4) and pts != pts[0]
    assert len(set(records)) == len(records)


def test_exports_resolve():
    missing = [name for name in rifs.analysis.__all__ if not hasattr(rifs.analysis, name)]
    assert not missing
    namespace = {}
    exec("from rifs import *", namespace)
    assert "coverage_estimate" in namespace and "level_set" in namespace


# ---------------------------------------------------------------------------
# close pairs
# ---------------------------------------------------------------------------

def test_far_pair_counts_zero():
    assert pair_counts([np.array([[0.0], [10.0]])], [1.0]).tolist() == [[[0]]] * 3


def test_pair_counts_of_no_sets_are_empty():
    for radii in (None, []):
        counts = pair_counts([], [0.5, 1.0], radii)
        assert counts.shape == (3, 0, 2) and counts.dtype == np.int64


def test_coincident_points_full_graph():
    assert pair_counts([np.zeros((3, 2))], [0.5]).tolist() == [[[6]]] * 3


def test_close_pairs_match_brute_force():
    rng = np.random.default_rng(123)
    for d in (1, 2):
        for trial in range(20):
            pts = rng.uniform(0, 1, size=(400, d))
            t = rng.uniform(0.005, 0.08)
            [[nominal]], [[lower]], [[upper]] = pair_counts([pts], [t], [np.zeros(len(pts))])
            assert nominal == brute_ordered_pairs(pts, t)
            assert lower == nominal == upper
            # the nets' conflict edges: the same pairs, each once, as lo < hi
            expanded, lo, hi, d2 = pairs._close_pairs([pts], [t])
            assert expanded.tolist() == [True]
            assert np.all(lo < hi) and np.all(d2 <= t * t)
            assert 2 * lo.size == nominal


def test_close_pair_brackets_with_enclosures(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(3, line_family)
    pts = project_level(r, level_set(m, 8), TailSequence.constant(1), 1e-6)
    assert 1e-3 > 2.0 * pts.radii.max()   # truncation-robust: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [[nominal]], [[lower]], [[upper]] = pair_counts([pts.coords], [1e-3], [pts.radii])
    assert lower <= nominal <= upper
    with pytest.warns(UserWarning, match="not.*robust|robust"):
        # threshold below 2 max enclosure
        [[nominal]], [[lower]], [[upper]] = pair_counts([pts.coords], [1e-6], [pts.radii])
    assert lower <= nominal <= upper


def test_close_pair_validation():
    for thresholds in ([0.0], [-1.0], [], [math.nan], [0.5, 0.25]):
        with pytest.raises(InputError):
            pair_counts([np.zeros((2, 1))], thresholds)
    with pytest.raises(InputError):
        pair_counts([np.zeros((2, 1))], [0.5], [np.zeros(3)])


def test_out_of_order_brackets_raise_invariant_error():
    # negative radii put the lower bracket above the nominal count
    with pytest.raises(InvariantError):
        pair_counts([np.array([[0.0], [1.0]])], [1.5], [np.full(2, -0.5)])


# ---------------------------------------------------------------------------
# separated subsets
# ---------------------------------------------------------------------------

def test_separated_collinear_hand_case():
    kept = separated_subset(np.array([[0.0], [1.0], [2.0]]), 1.5)
    assert kept.tolist() == [0, 2]


def test_separated_identical_points_singleton():
    kept = separated_subset(np.zeros((5, 2)), 0.3)
    assert kept.tolist() == [0]


def test_separated_properties_and_packing_bound():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for trial in range(30):
            pts = rng.uniform(0, 1, size=(16, d))
            r = rng.uniform(0.05, 0.4)
            kept = separated_subset(pts, r)
            kc = pts[kept]
            # pairwise separation strictly above r
            if len(kept) > 1:
                dd = np.sqrt(((kc[:, None] - kc[None, :]) ** 2).sum(-1))
                iu = np.triu_indices(len(kept), 1)
                assert dd[iu].min() > r
            # maximality: every rejected point is within r of a kept point
            rejected = sorted(set(range(len(pts))) - set(kept.tolist()))
            for j in rejected:
                dmin = np.sqrt(((kc - pts[j]) ** 2).sum(-1)).min()
                assert dmin <= r
            # greedy size sandwiches the packing numbers
            assert len(kept) <= exact_packing_number(pts, r)
            assert len(kept) >= exact_packing_number(pts, 2 * r)


def test_counting_inequality_points_le_separated_plus_pairs(line_family):
    # every discard leaves at least one ordered close pair behind
    rng = np.random.default_rng(11)
    for d in (1, 2):
        for trial in range(25):
            n = rng.integers(5, 300)
            scale = rng.uniform(0.2, 3.0)
            pts = rng.normal(0, scale, size=(n, d))
            r = rng.uniform(0.05, 1.0)
            kept = separated_subset(pts, r)
            close = pair_counts([pts], [r])[0, 0, 0]
            assert n <= len(kept) + close
    # a projected level set at the scale 1/#L of its own level
    L = level_set(BernoulliMeasure([0.5, 0.5]), 8)
    pts = project_level(Realization(1, line_family), L, TailSequence.constant(1), 1e-7)
    t = 1.0 / len(L)
    assert len(L) <= separated_subset(pts, t).size + pair_counts([pts.coords], [t])[0, 0, 0]


# ---------------------------------------------------------------------------
# transversality scaling
# ---------------------------------------------------------------------------

def test_poisson_self_test_slope_matches_dimension():
    # plumbing check: iid uniform points must scale like s^d
    rng = np.random.default_rng(5)
    for d in (1, 2):
        n = 512
        s_vals = np.array([0.5, 1.0, 2.0, 4.0])
        means = np.zeros(len(s_vals))
        for _ in range(60):
            pts = rng.uniform(0, 1, size=(n, d))
            for k, s in enumerate(s_vals):
                means[k] += brute_ordered_pairs(pts, s / n ** (1 / d)) / n
        slope, _ = fit_line(np.log(s_vals), np.log(means / 60))
        assert abs(slope - d) < 0.3


def test_transversality_validation(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(1)
    with pytest.raises(InputError):
        transversality_scaling(line_family, m, b, 6, [1.0, 2.0], 30)  # span < 8
    with pytest.raises(InputError):
        transversality_scaling(line_family, m, b, 6, [0.5, 1, 2, 4], 10)  # few seeds


def test_transversality_small_run(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    fit = transversality_scaling(line_family, m, TailSequence.constant(1),
                                 n=10, s_list=[0.5, 1, 2, 4], n_seeds=30,
                                 master_seed=77)
    assert not fit.below_resolution
    assert 0.6 < fit.slope < 1.4


def test_pair_counts_match_one_reduction_per_threshold():
    # distances with ties exactly on the thresholds and one ulp to either side,
    # one pair per distance: (2k, 0) and (2k, dist), so sqrt(d2) == dist and
    # pairs of different k are neither close nor in adjacent cells
    rng = np.random.default_rng(11)
    thresholds = np.array([0.5, 1, 2, 4, 8, 16]) / 64.0
    ties = np.concatenate([thresholds, np.nextafter(thresholds, 0.0),
                           np.nextafter(thresholds, 1.0)])
    clouds, want = [np.zeros((0, 2)), np.ones((1, 2))], [[0] * 6, [0] * 6]
    for size in (0, 1, 9, 2000):
        dists = np.concatenate([rng.uniform(0.0, 0.3, size),
                                rng.choice(ties, size=size // 2 + 1), [0.0]])
        rng.shuffle(dists)
        base = 2.0 * np.arange(dists.size)
        pts = np.stack([np.concatenate([base, base]),
                        np.concatenate([np.zeros(dists.size), dists])], axis=1)
        clouds.append(pts[rng.permutation(len(pts))])
        want.append([2 * int((dists <= t).sum()) for t in thresholds])
    # every set in one batch, and each set alone
    assert pair_counts(clouds, thresholds).tolist() == [want] * 3
    for pts, counts in zip(clouds, want):
        assert pair_counts([pts], thresholds).tolist() == [[counts]] * 3


def test_transversality_below_resolution():
    # widely separated translations, tiny scales: no close pairs at all
    fam = MatrixFamily(1, [SimilaritySpec(0.01, 0.02)] * 2, [[0.0], [100.0]])
    m = BernoulliMeasure([0.5, 0.5])
    fit = transversality_scaling(fam, m, TailSequence.constant(1), n=3,
                                 s_list=[0.5, 1, 2, 4], n_seeds=30)
    assert fit.below_resolution
    assert fit.slope is None


# ---------------------------------------------------------------------------
# determinant windows
# ---------------------------------------------------------------------------

def test_det_window_concentrated_family_all_good():
    fam = MatrixFamily(1, [SimilaritySpec(0.4995, 0.5005)] * 2, [[0.0], [0.5]])
    m = BernoulliMeasure([0.5, 0.5])
    rep = det_window_report(Realization(1, fam), m, n=8, eps1=0.05, C=2.0, N1=1)
    assert rep.good_mass == pytest.approx(1.0, abs=1e-12)
    assert rep.per_prefix_failures.sum() == 0


def test_det_window_monotone_in_eps1(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(5, line_family)
    masses = [det_window_report(r, m, 12, eps1, C=1.0, N1=1).good_mass
              for eps1 in (0.001, 0.05, 0.15, 0.3, 0.6)]
    assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[0] < 0.01     # eps1 -> 0 with C = 1 starves the window
    assert masses[-1] > 0.9


def test_det_window_log_space_matches_direct(line_family):
    # window membership via logs equals direct evaluation of the determinant
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(9, line_family)
    lam = 0.3706271845301775
    eps1, C = 0.05, 1.5
    rng = np.random.default_rng(2)
    for trial in range(50):
        k = int(rng.integers(1, 31))
        word = tuple(rng.integers(1, 3, size=k).tolist())
        det = 1.0
        for j in range(1, k + 1):
            det *= abs(np.linalg.det(r.sample_matrix(word[:j])))
        direct = math.exp(-k * (lam + eps1)) / C < det < C * math.exp(-k * (lam - eps1))
        S = sum(r.log_abs_det(word[:j]) for j in range(1, k + 1))
        logspace = abs(S + k * lam) <= k * eps1 + math.log(C)
        assert direct == logspace


def test_det_window_matches_direct_oracle(skew2, line_family):
    # tree walk vs per-word direct evaluation on a mixed-length level set,
    # also for a family whose two symbols differ in distribution (each node's
    # sample then depends on its own last symbol)
    two_laws = MatrixFamily(1, [SimilaritySpec(0.5, 0.9), SimilaritySpec(0.3, 0.6)],
                            [[0.0], [0.5]])
    for fam in (line_family, two_laws):
        r = Realization(17, fam)
        n, eps1, C, N1 = 3, 0.08, 1.3, 2
        rep = det_window_report(r, skew2, n, eps1, C, N1)
        lam = rep.lyapunov
        L = level_set(skew2, n)
        good_mass = 0.0
        prefixes = {}
        for w, mu in zip(L.words, L.measures):
            ok = True
            S = 0.0
            for k in range(1, len(w) + 1):
                S += r.log_abs_det(w[:k])
                prefixes.setdefault(w[:k], abs(S + k * lam) > k * eps1)
                if k >= N1 and abs(S + k * lam) > k * eps1 + math.log(C):
                    ok = False
            if ok:
                good_mass += float(mu)
        assert rep.good_mass == pytest.approx(good_mass, abs=1e-12)
        # histogram totals/failures equal the distinct-prefix counts per depth
        for k in range(1, rep.per_prefix_totals.size + 1):
            at_k = [w for w in prefixes if len(w) == k]
            assert rep.per_prefix_totals[k - 1] == len(at_k)
            assert rep.per_prefix_failures[k - 1] == sum(prefixes[w] for w in at_k)


def test_det_window_markov_measure(markov2, line_family):
    rep = det_window_report(Realization(4, line_family), markov2, 4,
                            eps1=0.3, C=3.0, N1=1)
    assert 0.0 <= rep.good_mass <= 1.0
    assert rep.per_prefix_totals[0] == 2


def test_affine_family_through_pipeline(affine_family, uniform2):
    # affine sampling exercised through windows, projections, and pair counts
    r = Realization(3, affine_family)
    rep = det_window_report(r, uniform2, 3, eps1=0.4, C=4.0, N1=1)
    assert 0.0 <= rep.good_mass <= 1.0
    from rifs.attractor import bounding_ball
    L = level_set(uniform2, 6)
    pts = project_level(r, L, TailSequence.constant(2), 1e-5)
    coords = np.stack([p.coordinates for p in pts])
    assert np.all(np.linalg.norm(coords, axis=1) <= bounding_ball(affine_family))
    assert pair_counts([pts.coords], [0.05])[0, 0, 0] == brute_ordered_pairs(coords, 0.05)


def test_det_window_validation(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(0, line_family)
    with pytest.raises(InputError):
        det_window_report(r, m, 5, eps1=-0.1, C=2.0, N1=1)
    with pytest.raises(InputError):
        det_window_report(r, m, 5, eps1=0.1, C=0.0, N1=1)


def test_det_window_walks_the_tree_of_its_level(line_family, tmp_path):
    m = BernoulliMeasure([0.5, 0.5])
    r = Realization(0, line_family)
    rep = det_window_report(r, m, 4, 0.1, math.e ** 2, 2)
    assert rep.per_prefix_totals.tolist() == [2, 4, 8, 16]
    # the tree a detwindow run builds, under the config's word budget, walks
    cfg = replace(preset("baby_theorem"), kind="detwindow", n=6, seeds=3)
    assert [p.name for p in run(cfg, tmp_path)] == ["detwindow.csv", "detwindow_hist.csv"]


_THREE_LINE = MatrixFamily(1, [SimilaritySpec(0.3, 0.6)] * 3, [[0.0], [0.4], [0.8]])


@pytest.mark.parametrize("entry", ["project_level", "coverage_estimate", "density_sweep",
                                   "attractor_measure_estimate", "transversality_scaling"])
@pytest.mark.parametrize("symbols", [(2, 3), (3, 2)], ids=["more-symbols", "fewer-symbols"])
def test_projections_refuse_level_sets_of_another_alphabet(entry, symbols, line_family):
    family_size, measure_size = symbols
    fam = line_family if family_size == 2 else _THREE_LINE
    m = BernoulliMeasure([1.0 / measure_size] * measure_size)
    r, b, grid = Realization(0, fam), TailSequence.constant(1), CoverageGrid([-1.0], [2.0], 0.01)
    call = {
        "project_level": lambda: project_level(r, level_set(m, 3), b, 1e-3),
        "coverage_estimate": lambda: coverage_estimate(r, level_sets(m, [3]), b,
                                                       Gauge("one_over_n"), grid),
        "density_sweep": lambda: density_sweep(r, level_sets(m, [2, 3]), b, [0.5], [0.25]),
        "attractor_measure_estimate": lambda: attractor_measure_estimate(r, m, [2, 3], grid),
        "transversality_scaling": lambda: transversality_scaling(fam, m, b, 3, [0.5, 4.0], 30),
    }[entry]
    with pytest.raises(InputError, match="alphabets disagree"):
        call()


def test_density_at_scales_whose_squares_overflow_is_quiet(line_family):
    # every pair conflicts at such scales, so each net keeps one point
    levels = level_sets(BernoulliMeasure([0.5, 0.5]), [3, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, _ = density_sweep(Realization(0, line_family), levels,
                                   TailSequence.constant(1), [0.0], [1e160, 1e300])
    assert [rep.ratios for rep in reports] == [(1 / 8, 1 / 16)] * 2


def test_fit_line_basics():
    slope, stderr = fit_line(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
    assert slope == pytest.approx(2.0)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    assert fit_line(np.array([1.0, 1.0]), np.array([0.0, 1.0])) is None


# ---------------------------------------------------------------------------
# density of good levels
# ---------------------------------------------------------------------------

def test_density_trivial_thresholds(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(1)
    r = Realization(1, line_family)
    levels = level_sets(m, range(3, 7))
    (rep0,), _ = density_sweep(r, levels, b, c_list=[0.0], s_list=[0.25])
    assert rep0.upper_density == 1.0
    (rep1,), _ = density_sweep(r, levels, b, c_list=[1.0], s_list=[0.25])
    assert rep1.upper_density == 0.0


def test_density_sweep_best(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(1)
    reports, best = density_sweep(Realization(3, line_family), level_sets(m, range(4, 9)),
                                  b, c_list=[0.3, 0.9], s_list=[0.25, 1.0])
    assert len(reports) == 4
    assert best.upper_density == max(r.upper_density for r in reports)


@pytest.mark.parametrize("family", ["line_family", "plane_family"])
def test_density_shared_join_equals_one_join_per_radius(family, request, monkeypatch):
    # the nets of a seed group share joins and passes of rounds, in one batch
    # or in several; a fresh separated_subset per level and radius on the same
    # projected clouds must give the same ratios
    fam = request.getfixturevalue(family)
    rs = [Realization(seed, fam) for seed in (5, 6, 7)]
    levels = level_sets(BernoulliMeasure([0.5, 0.5]), range(4, 10))
    b = TailSequence.constant(1)
    s_list = [0.1, 0.25, 1.0]
    scales = [np.asarray(s_list) / len(L) ** (1.0 / fam.dimension) for L in levels]
    clouds = project_levels(rs, levels, b, [float(sc.min()) / 8.0 for sc in scales])
    want = [[tuple(separated_subset(pts, float(sc[k]) + 2.0 * float(pts.radii.max())).size
                   / len(pts) for pts, sc in zip(seed, scales)) for k in range(len(s_list))]
            for seed in clouds]
    for batch in (pairs.NET_BATCH, 100):
        monkeypatch.setattr(pairs, "NET_BATCH", batch)
        for (reports, _), expect in zip(density_sweeps(rs, levels, b, [0.3, 0.6], s_list), want):
            assert [rep.ratios for rep in reports] == [x for x in expect for _ in (0, 1)]


def test_density_preset_scale(line_family):
    # supercritical line family keeps most levels separated at small scales
    m = BernoulliMeasure([0.5, 0.5])
    b = TailSequence.constant(1)
    levels = level_sets(m, range(6, 13))
    dens = [density_sweep(Realization(seed, line_family), levels, b, c_list=[0.5],
                          s_list=[0.25])[1].upper_density
            for seed in range(10)]
    assert sorted(dens)[len(dens) // 2] >= 0.8  # median of 10 seeds


# ---------------------------------------------------------------------------
# coverage grids
# ---------------------------------------------------------------------------

def test_grid_single_ball_exactness():
    # outer estimate of one grid-centered ball within (1 + 4 h sqrt(d)/rho)^d
    for d, rho in ((1, 0.05), (2, 0.08)):
        h = 1.0 / 256
        grid = CoverageGrid(np.full(d, -0.5), np.full(d, 0.5), h)
        center_idx = np.array(grid.shape) // 2
        center = grid.lo + (center_idx + 0.5) * h
        cells = CellSet()
        grid.mark_balls(cells, center[None, :], np.array([rho]))
        est = grid.measure(cells)
        # one range per grid row the ball covers
        assert cells.first.size == (1 if d == 1 else 2 * int(rho / h) + 1)
        truth = 2 * rho if d == 1 else math.pi * rho ** 2
        bound = (1 + 4 * h * math.sqrt(d) / rho) ** d
        assert truth / bound <= est <= truth * bound


def test_grid_validation():
    with pytest.raises(InputError):
        CoverageGrid(np.array([0.0]), np.array([0.0]), 0.1)
    with pytest.raises(InputError):
        CoverageGrid(np.array([0.0]), np.array([1.0]), -1.0)


@pytest.mark.parametrize("d", [1, 2])
def test_huge_ball_marks_the_whole_box(d):
    # index bounds far beyond int64 range are clipped before the cast, and
    # the squared radius, inf in d = 2, raises no overflow warning
    grid = CoverageGrid(np.full(d, -0.5), np.full(d, 0.5), 1.0 / 64)
    cells = CellSet()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert grid.mark_balls(cells, np.zeros((1, d)), np.array([1e300]))
    assert grid.measure(cells) == grid.box_volume == 1.0


@pytest.mark.parametrize("d", [1, 2])
def test_ball_wholly_past_either_end_marks_nothing(d):
    grid = CoverageGrid(np.zeros(d), np.ones(d), 0.1)
    for x in (5.0, -5.0):
        cells = CellSet()
        assert grid.mark_balls(cells, np.full((1, d), x), np.array([1.0]))
        assert cells.first.size == 0 and grid.measure(cells) == 0.0


def _toy_coverage(h, levels=(4, 5, 6), seed=2):
    fam = MatrixFamily(1, [SimilaritySpec(0.4995, 0.5005)] * 2, [[0.0], [0.5]])
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-1.6]), np.array([1.6]), h)
    r = Realization(seed, fam)
    return coverage_estimate(r, level_sets(m, levels), TailSequence.constant(1),
                             Gauge("table", values=[4.0] * 12, regime="divergent"), grid)


def test_coverage_sandwich_and_refinement():
    widths = []
    for h in (2.0 ** -9, 2.0 ** -10, 2.0 ** -11):
        rep = _toy_coverage(h)
        for n in (4, 5, 6):
            assert rep.per_level_inner[n] <= rep.per_level_outer[n] + 1e-12
        widths.append(rep.per_level_outer[5] - rep.per_level_inner[5])
    assert widths[0] >= widths[1] >= widths[2]


def test_coverage_dyadic_union_is_unit_interval():
    # x/2, (x+1)/2 with g = 4: radii 4/2^n stay above the 1/2^n spacing, so
    # the union is [0,1] fattened by one radius on each side
    rep = _toy_coverage(2.0 ** -12, levels=(7, 8, 9))
    for n in (7, 8, 9):
        assert rep.per_level_outer[n] == pytest.approx(1.0 + 8.0 * 2.0 ** -n, abs=0.02)


def test_coverage_zero_gauge_gives_zero(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-5.0]), np.array([5.0]), 2.0 ** -8)
    rep = coverage_estimate(Realization(1, line_family), level_sets(m, [3, 4]),
                            TailSequence.constant(1),
                            Gauge("table", values=[0.0] * 8, regime="convergent"), grid)
    assert rep.per_level_outer[3] == 0.0
    assert rep.per_level_outer[4] == 0.0


def test_coverage_tail_union_nonincreasing(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-0.35]), np.array([2.05]), 2.0 ** -10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = coverage_estimate(Realization(4, line_family), level_sets(m, range(4, 10)),
                                TailSequence.constant(1), Gauge("one_over_n"), grid)
    vals = [rep.running_intersection_measure[n] for n in range(4, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert rep.running_intersection_measure[9] == pytest.approx(
        rep.per_level_outer[9])
    assert rep.regime == "divergent"


def test_coverage_clip_warning(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    tiny = CoverageGrid(np.array([0.2]), np.array([0.6]), 2.0 ** -10)
    with pytest.warns(UserWarning, match="clipped"):
        coverage_estimate(Realization(1, line_family), level_sets(m, [4]),
                          TailSequence.constant(1), Gauge("one_over_n"), tiny)


def test_coverage_inner_zero_warning(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-5.0]), np.array([5.0]), 2.0 ** -6)
    with pytest.warns(UserWarning, match="coarse"):
        rep = coverage_estimate(Realization(1, line_family), level_sets(m, [8]),
                                TailSequence.constant(1), Gauge("geometric", q=0.5), grid)
    assert rep.per_level_inner[8] == 0.0


# ---------------------------------------------------------------------------
# attractor measure estimates
# ---------------------------------------------------------------------------

def test_attractor_measure_full_interval():
    fam = MatrixFamily(1, [SimilaritySpec(0.4995, 0.5005)] * 2, [[0.0], [0.5]])
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-1.1]), np.array([1.1]), 2.0 ** -12)
    rep = attractor_measure_estimate(Realization(3, fam), m, [6, 7, 8], grid)
    assert rep.per_level[8] == pytest.approx(1.0, abs=0.1)
    assert rep.last3_rel_change < 0.2


def test_attractor_measure_decays_when_subcritical():
    cfg = preset("subcritical_contrast")
    grid = cfg.grid()
    rep = attractor_measure_estimate(Realization(5, cfg.family), cfg.measure,
                                     range(4, 13), grid)
    assert rep.per_level[12] < 0.3 * rep.per_level[4]


def test_attractor_measure_monotone_in_scale(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    grid = CoverageGrid(np.array([-0.35]), np.array([2.05]), 2.0 ** -10)
    r = Realization(6, line_family)
    big = attractor_measure_estimate(r, m, [6], grid, diam_scale=1.0)
    small = attractor_measure_estimate(r, m, [6], grid, diam_scale=0.5)
    assert small.per_level[6] <= big.per_level[6] + grid.h
