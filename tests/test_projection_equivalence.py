"""The one-walk projections and tree-selected level sets against what they replaced.

The reference oracles below are the earlier implementations: word-by-word
compositions (``compose``, ``apply_map``, ``iterate_maps``,
``project_tail``), the breadth-first level-set materialization that carried
every active word along, the level-set selection that read parent masses in
a pass of its own, the per-word projection that recomposed every prefix of
every word one word-matrix column at a time (``AffineBatch``), and the
determinant-window walk streaming the tree one depth at a time.

One walk of the cylinder tree must give, for every level and every seed of
the group it serves, the same coordinate and radius bytes as the per-word
projection of that level under that seed alone, and sample exactly one
matrix per tree node plus the tail steps.
"""

import json
import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from rifs import attractor, keyed, walk
from rifs.analysis import CoverageGrid, coverage_estimate, det_window_report
from rifs.analysis.detwindow import DetWindowReport
from rifs.attractor import (_required_depth, _tail_steps, bounding_ball, project,
                            project_level, project_levels)
from rifs.errors import BudgetError, InputError
from rifs.experiments import ExperimentConfig, Gauge, preset
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               lyapunov_exponent)
from rifs.symbolic import (BernoulliMeasure, LevelSet, MarkovMeasure, TailSequence,
                           iter_level_frontiers, level_set, level_sets,
                           slow_decay_constant, validate_word)
from rifs.walk import map_seed_groups, seed_groups


# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionResult:
    """Composed linear part along a word, with its log|det| accumulated in log-space."""

    matrix: np.ndarray
    log_abs_det: float
    word: tuple


def compose(r, word):
    """Left-to-right product of the matrices at every prefix of ``word``."""
    w = validate_word(word, r.family.alphabet)
    mat = np.eye(r.family.dimension)
    log_det = 0.0
    for k in range(1, len(w) + 1):
        mat = mat @ r.sample_matrix(w[:k])
        log_det += r.log_abs_det(w[:k])
    return CompositionResult(matrix=mat, log_abs_det=log_det, word=w)


def apply_map(r, word, x):
    """One application of f_word."""
    w = validate_word(word, r.family.alphabet)
    return r.sample_matrix(w) @ np.asarray(x, dtype=np.float64) + \
        r.family.translations[w[-1] - 1]


def iterate_maps(r, word, x):
    """Apply the prefix maps of ``word`` innermost-first to ``x``."""
    w = validate_word(word, r.family.alphabet)
    y = np.asarray(x, dtype=np.float64)
    for k in range(len(w), 0, -1):
        y = apply_map(r, w[:k], y)
    return y


def project_tail(r, a, b, depth):
    """Tail projection under the environment of prefix ``a`` (maps of ``a``
    not applied), with the steps past ``_tail_steps`` skipped."""
    w = validate_word(a, r.family.alphabet)
    d = r.family.dimension
    chain = keyed.word_state(r.seed, w)
    M = np.eye(d)
    v = np.zeros(d)
    for k in range(1, int(_tail_steps(r.family, b, depth)) + 1):
        s = b.symbol(k)
        chain = keyed.absorb(chain, s)
        A = r.matrices_from_chains(chain, np.array([s]))[0]
        v = v + M @ r.family.translations[s - 1]
        M = M @ A
    return v


class AffineBatch:
    """Composed affine maps (M, v) for a batch of words, extended stepwise."""

    def __init__(self, r, n):
        d = r.family.dimension
        self.r = r
        self.scalar = d == 1
        self.states = np.broadcast_to(r.root_chain(), (n,)).copy()
        if self.scalar:
            self.M = np.ones(n)
            self.v = np.zeros(n)
        else:
            self.M = np.broadcast_to(np.eye(d), (n, d, d)).copy()
            self.v = np.zeros((n, d))

    def step(self, symbols, rows=None):
        idx = slice(None) if rows is None else rows
        states = keyed.absorb(self.states[idx], symbols)
        syms = np.broadcast_to(np.asarray(symbols, dtype=np.int64), states.shape)
        if self.scalar:
            a = self.r.scalars_from_chains(states, symbols)
            t = self.r.family.translations[syms - 1, 0]
            self.v[idx] += self.M[idx] * t
            self.M[idx] *= a
        else:
            mats = self.r.matrices_from_chains(states, symbols)
            t = self.r.family.translations[syms - 1]
            M = self.M[idx]
            self.v[idx] += (M @ t[:, :, None])[:, :, 0]
            self.M[idx] = M @ mats
        self.states[idx] = states

    def coords(self):
        return self.v[:, None] if self.scalar else self.v


def ref_project_level(r, L, b, target_radius):
    """(coords, radii): every word's prefixes composed again, column by column."""
    rho = r.family.rho_max
    R = bounding_ball(r.family)
    depths = np.array([_required_depth(target_radius, int(la), rho, R)
                       for la in L.lengths.tolist()], dtype=np.int64)
    batch = AffineBatch(r, len(L))
    for j in range(L.word_matrix.shape[1]):
        rows = np.flatnonzero(L.lengths > j)
        batch.step(L.word_matrix[rows, j], rows)
    steps = _tail_steps(r.family, b, depths)
    for k in range(1, int(steps.max()) + 1):
        rows = np.flatnonzero(steps >= k)
        batch.step(b.symbol(k), rows)
    return batch.coords(), rho ** (L.lengths + depths) * R


def ref_level_set(m, n):
    """(words, lengths, measures, parent measures), each active word carried along."""
    A = m.alphabet.size
    chunks = []
    active_words = np.zeros((1, 0), dtype=np.uint8)
    active_meas = np.ones(1)
    for fr in iter_level_frontiers(m, n):
        child_words = np.concatenate(
            [np.repeat(active_words, A, axis=0), fr.symbols[:, None]], axis=1)
        if fr.emit_mask.any():
            chunks.append((child_words[fr.emit_mask], fr.measures[fr.emit_mask],
                           np.repeat(active_meas, A)[fr.emit_mask]))
        active_words = child_words[fr.active_idx]
        active_meas = fr.measures[fr.active_idx]
    total = sum(c[0].shape[0] for c in chunks)
    words = np.zeros((total, max(c[0].shape[1] for c in chunks)), dtype=np.uint8)
    lengths = np.zeros(total, dtype=np.int64)
    at = 0
    for block, _, _ in chunks:
        words[at: at + block.shape[0], : block.shape[1]] = block
        lengths[at: at + block.shape[0]] = block.shape[1]
        at += block.shape[0]
    return (words, lengths, np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]))


def ref_level_set_masks(m, n, tree):
    """Member masks of ``level_set``: measure at most c**n, parent's above it,
    the parent masses read in a pass of their own."""
    threshold = slow_decay_constant(m) ** n
    parents = np.ones(1)
    masks = []
    for fr in tree:
        masks.append((fr.measures <= threshold)
                     & (np.repeat(parents, m.alphabet.size) > threshold))
        parents = fr.measures[fr.active_idx]
    return masks


def ref_det_window_report(r, m, n, eps1, C, N1):
    """The window walk streaming the tree, one depth in memory at a time."""
    lam = lyapunov_exponent(r.family, m)
    log_c = math.log(C)
    A = m.alphabet.size
    states = r.root_chain()
    cum_ld = np.zeros(1)
    good = np.ones(1, dtype=bool)
    bad_counts, totals = [], []
    good_mass = 0.0
    for fr in iter_level_frontiers(m, n):
        child_states = keyed.absorb_children(states, A)
        S = np.repeat(cum_ld, A) + r.log_dets_from_chains(child_states, fr.symbols)
        k = fr.depth
        dev = np.abs(S + k * lam)
        bad_counts.append(int((dev > k * eps1).sum()))
        totals.append(dev.size)
        child_good = np.repeat(good, A)
        if k >= N1:
            child_good = child_good & (dev <= k * eps1 + log_c)
        emitted_good = child_good[fr.emit_mask]
        if emitted_good.any():
            good_mass += float(fr.measures[fr.emit_mask][emitted_good].sum())
        states = child_states[fr.active_idx]
        cum_ld = S[fr.active_idx]
        good = child_good[fr.active_idx]
    return DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=lam, good_mass=good_mass,
        per_prefix_failures=np.array(bad_counts, dtype=np.int64),
        per_prefix_totals=np.array(totals, dtype=np.int64))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _json_family(name):
    cfg = preset(name)
    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).family


_LINE = MatrixFamily(1, [SimilaritySpec(0.5, 0.9)] * 2, [[0.0], [0.5]])
_PLANE = MatrixFamily(2, [SimilaritySpec(0.7, 0.9)] * 2, [[0.0, 0.0], [1.0, 0.0]])
_MARKOV = MarkovMeasure([4.0 / 7.0, 3.0 / 7.0], [[0.7, 0.3], [0.4, 0.6]])
_MIXED_PLANE = MatrixFamily(
    2, [AffineSpec(0.45, 0.49, [np.diag([0.9, 0.7]), np.diag([0.8, 0.95])]),
        SimilaritySpec(0.6, 0.8)], [[0.0, 0.0], [1.0, 0.5]])
_STILL = TailSequence.constant(1)      # t_1 = 0 in the line and plane families

# name -> (family, measure, tail, n_min, n_max)
CASES = {
    "line": (_LINE, BernoulliMeasure([0.5, 0.5]), TailSequence((), (2, 1)), 2, 9),
    "plane_similarity": (_PLANE, BernoulliMeasure([0.6, 0.4]), _STILL, 2, 8),
    "affine_mixed_lengths": (_json_family("example2_affine"),
                             BernoulliMeasure([0.3] + [0.1] * 7), _STILL, 1, 3),
    "markov_plane": (_PLANE, _MARKOV, _STILL, 2, 8),
    "moving_tail_period": (_MIXED_PLANE, _MARKOV, TailSequence((1,), (2, 1)), 2, 7),
}


def _targets(levels):
    # a different target per level, so tail depths differ between levels
    return [2.0 ** -(6 + k) for k in range(len(levels))]


def _with_blocks(cases):
    """(case, block) parameters: the default block, then blocks of ``A`` and
    ``3 * A`` rows, at which one seed's widest depth and its members span
    several blocks of the walk (ids of the default block name the case alone).
    At those blocks every member's tail steps are taken a few rows at a time,
    so they project the first three levels of a case only."""
    return [pytest.param(case, block, id=case if block == "default" else f"{case}-{block}")
            for block in ("default", "A", "3A") for case in cases]


def _set_block(block, m, monkeypatch):
    A = m.alphabet.size
    if block != "default":
        monkeypatch.setattr(walk, "BLOCK", {"A": A, "3A": 3 * A}[block])


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_selected_level_sets_match_level_set(case):
    _, m, _, _, n_max = CASES[case]
    levels = level_sets(m, range(1, n_max + 1))
    for n, got in enumerate(levels, 1):
        own = level_set(m, n)
        ref = ref_level_set(m, n)
        for a, b, c in zip((got.word_matrix, got.lengths, got.measures, got.parent_measures),
                           (own.word_matrix, own.lengths, own.measures, own.parent_measures),
                           ref):
            assert a.dtype == b.dtype == c.dtype and a.shape == b.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()
    if case == "affine_mixed_lengths":
        assert np.unique(levels[-1].lengths).size >= 2


def _assert_same_level_set(got, ref):
    for name in ("word_matrix", "lengths", "measures", "parent_measures"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert len(got.nodes) == len(ref.nodes)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.nodes, ref.nodes))


@pytest.mark.parametrize("case", sorted(CASES))
def test_selection_walk_matches_the_walks_it_replaced(case):
    _, m, _, _, n_max = CASES[case]
    levels = level_sets(m, range(1, n_max + 1))
    for n, got in enumerate(levels, 1):
        for L in (got, level_set(m, n)):   # cut from the deepest tree, and from its own
            _assert_same_level_set(L, LevelSet(n, L.tree, tuple(
                map(np.flatnonzero, ref_level_set_masks(m, n, L.tree)))))


@pytest.mark.parametrize("m", [BernoulliMeasure([1.0 / 3.0] * 3),
                               BernoulliMeasure([0.3] + [0.1] * 7), _MARKOV],
                         ids=["uniform3", "wide_io", "markov"])
def test_level_sets_in_any_order_equal_level_set(m):
    n_values = [4, 2, 4, 1, 3, 2] if m.alphabet.size < 8 else [3, 1, 3, 2]
    levels = level_sets(m, n_values)
    assert [L.n for L in levels] == n_values
    assert all(L.tree is levels[0].tree for L in levels)
    for n, got in zip(n_values, levels):
        own = level_set(m, n)
        for name in ("word_matrix", "lengths", "measures", "parent_measures"):
            a, b = getattr(got, name), getattr(own, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_values", [[0, 3], [3, -1], []])
def test_level_sets_refuse_no_level_or_a_level_below_one(n_values):
    with pytest.raises(InputError, match="level indices"):
        level_sets(BernoulliMeasure([0.7, 0.3]), n_values)


SEEDS = (5, 6, 7)


@pytest.mark.parametrize("case,block", _with_blocks(sorted(CASES)))
def test_one_walk_matches_per_word_projection(case, block, monkeypatch):
    fam, m, tail, n_min, n_max = CASES[case]
    rs = [Realization(seed, fam) for seed in SEEDS]
    small = block != "default"
    levels = level_sets(m, range(n_min, min(n_max, n_min + 2) + 1 if small else n_max + 1))
    targets = _targets(levels)
    _set_block(block, m, monkeypatch)
    if small:
        assert max(fr.symbols.size for fr in levels[0].tree) > walk.BLOCK
        assert sum(map(len, levels)) > walk.BLOCK
    group = project_levels(rs, levels, tail, targets)
    assert len(group) == len(rs)
    for r, clouds in zip(rs, group):
        # at the default block, also each seed alone and each level alone
        alone = clouds if small else project_levels([r], levels, tail, targets)[0]
        for L, target, pts, own in zip(levels, targets, clouds, alone):
            coords, radii = ref_project_level(r, level_set(m, L.n), tail, target)
            for got in (pts,) if small else (pts, own, project_level(r, L, tail, target)):
                assert got.coords.shape == coords.shape
                assert got.coords.tobytes() == coords.tobytes(), L.n
                assert got.radii.tobytes() == radii.tobytes(), L.n
                assert got.level_set is L and got.tail is tail
                assert not got.coords.flags.writeable and not got.radii.flags.writeable


@pytest.mark.parametrize("cap", ["one_row", "one_seed", "uneven"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_seed_groups_give_each_seed_its_own_clouds(case, cap, monkeypatch):
    fam, m, tail, n_min, n_max = CASES[case]
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)
    rows = sum(map(len, levels))   # each seed's clouds
    limit, sizes = {"one_row": (1, [1] * 3), "one_seed": (rows, [1] * 3),
                    "uneven": (2 * rows + rows // 2, [2, 1])}[cap]
    with monkeypatch.context() as patch:   # the walks take the default block
        patch.setattr(walk, "BLOCK", limit)
        groups = seed_groups(3, rows)
    assert [len(g) for g in groups] == sizes
    assert [j for g in groups for j in g] == list(range(3))
    rs = [Realization(100 + j, fam) for j in range(3)]
    got = [clouds for g in groups
           for clouds in project_levels([rs[j] for j in g], levels, tail, targets)]
    for r, clouds in zip(rs, got):
        for pts, own in zip(clouds, project_levels([r], levels, tail, targets)[0]):
            assert pts.coords.tobytes() == own.coords.tobytes()
            assert pts.radii.tobytes() == own.radii.tobytes()
            assert pts.level_set is own.level_set and pts.tail is own.tail


def test_benchmark_sized_pairs_runs_are_one_group():
    # the largest benchmark pairs level (baby_theorem n = 9, 512 words) at 30 seeds
    assert len(seed_groups(30, len(level_set(BernoulliMeasure([0.5, 0.5]), 9)))) == 1
    assert len(seed_groups(30, len(level_set(BernoulliMeasure([0.5, 0.5]), 11)))) == 4


def test_seed_groups_give_every_thread_a_group():
    # one thread: groups as wide as the block allows; more threads: at least
    # one group per thread, of at most ceil(seeds / threads) seeds each
    words = len(level_set(BernoulliMeasure([0.5, 0.5]), 9))
    assert [len(g) for g in seed_groups(30, words, 2)] == [15, 15]
    assert [len(g) for g in seed_groups(7, 1, 4)] == [2, 2, 2, 1]
    for n in range(1, 40):
        for rows in (1, 7, 600, walk.BLOCK + 1):
            cap = max(1, walk.BLOCK // rows)
            assert [len(g) for g in seed_groups(n, rows)] == \
                [min(cap, n - lo) for lo in range(0, n, cap)]
            for threads in range(2, 9):
                groups = seed_groups(n, rows, threads)
                assert [j for g in groups for j in g] == list(range(n))
                assert len(groups) >= min(threads, n)
                assert max(len(g) for g in groups) <= min(cap, -(-n // threads))


@pytest.mark.parametrize("case,block", _with_blocks(["line", "moving_tail_period"]))
def test_merged_tail_loop_matches_per_word_project(case, block, monkeypatch):
    # translation-bearing tails whose depths differ between levels (and, under
    # the Markov measure, between the word lengths of one level); at small
    # blocks the pending members are flushed many times
    fam, m, tail, n_min, _ = CASES[case]
    levels = level_sets(m, range(n_min, n_min + 3))
    targets = _targets(levels)
    _set_block(block, m, monkeypatch)
    rho, R = fam.rho_max, bounding_ball(fam)
    depths = [np.array([_required_depth(t, la, rho, R) for la in L.lengths.tolist()])
              for L, t in zip(levels, targets)]
    steps = [set(_tail_steps(fam, tail, depth).tolist()) for depth in depths]
    assert all(len(steps[0] | later) > len(steps[0]) for later in steps[1:])
    if case == "moving_tail_period":
        assert any(len(s) > 1 for s in steps)
    rs = [Realization(seed, fam) for seed in SEEDS]
    for r, clouds in zip(rs, project_levels(rs, levels, tail, targets)):
        for L, depth, pts in zip(levels, depths, clouds):
            for word, k, x in zip(L.words, depth.tolist(), pts.coords):
                assert x.tobytes() == project(r, word, tail, k).coordinates.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_group_arrays_hold_at_most_group_rows(case, monkeypatch):
    # every array the walk steps, and every pending buffer of tail steps,
    # holds at most one block of rows, for groups of several seeds and for
    # one seed; only the results hold every member of every level and seed
    fam, m, tail, n_min, n_max = CASES[case]
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)
    rows = sum(map(len, levels))
    widest = max(fr.symbols.size for fr in levels[0].tree)
    want = project_levels([Realization(j, fam) for j in range(5)], levels, tail, targets)
    stepped, results = [], []
    step, coords = attractor._step, attractor._coords

    def spy_step(r, states, *rest, **out):
        # a walk block's step reads its parents' rows and writes its children's
        stepped.append(max([states.size] + [x.shape[0] for x in out.get("out") or ()]))
        return step(r, states, *rest, **out)

    def spy_coords(v):
        results.append(v.shape[0])
        return coords(v)

    monkeypatch.setattr(attractor, "_step", spy_step)
    monkeypatch.setattr(attractor, "_coords", spy_coords)
    # the first cap cuts one seed's widest depth into three blocks or more
    for cap in (widest // 3, rows - 1, rows, 2 * rows + 1, 5 * rows):
        monkeypatch.setattr(walk, "BLOCK", cap)
        for g in seed_groups(5, rows):
            stepped.clear()
            results.clear()
            got = project_levels([Realization(j, fam) for j in g], levels, tail, targets)
            assert max(stepped) <= cap, (cap, len(g))
            assert results == [len(g) * rows]
            for clouds, own in zip(got, want[g.start:g.stop]):
                assert [c.coords.tobytes() for c in clouds] == [c.coords.tobytes() for c in own]


def _traced_peak(fn):
    """(fn(), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_seed_projection_peak_is_its_results_and_a_few_blocks():
    # a 2**18-word level of one seed: beyond its coordinates and radii, the
    # projection walk holds no more than twice what the window walk of the
    # same tree holds (both walk it in blocks, carrying one depth at a time)
    cfg = preset("baby_theorem")
    m, n = cfg.measure, 18
    L = level_set(m, n)
    assert len(L) == 2 ** 18
    r = Realization(0, cfg.family)
    [[pts]], peak = _traced_peak(lambda: project_levels([r], [L], cfg.tail, [1e-3]))
    _, window_peak = _traced_peak(
        lambda: det_window_report(r, m, n, cfg.resolved_eps1(), cfg.C, cfg.N1))
    # the window report builds its own copy of the tree, which the walk's peak excludes
    window_peak -= sum(a.nbytes for fr in L.tree
                       for a in (fr.symbols, fr.measures, fr.emit_mask, fr.active_idx))
    assert peak <= pts.coords.nbytes + pts.radii.nbytes + 2 * window_peak, (peak, window_peak)


@pytest.mark.parametrize("case", sorted(CASES))
def test_group_budget_is_charged_per_seed_and_level(case):
    fam, m, tail, n_min, n_max = CASES[case]
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)
    rho, R = fam.rho_max, bounding_ball(fam)
    need = max(int(L.lengths.sum()) + sum(_required_depth(t, k, rho, R)
                                          for k in L.lengths.tolist())
               for L, t in zip(levels, targets))
    rs = [Realization(seed, fam) for seed in SEEDS]
    assert len(project_levels(rs, levels, tail, targets, map_budget=need)) == len(rs)
    message = (f"projection map budget ({need - 1}) exceeded: "
               f"{need} applications requested")
    for group in (rs, rs[:1]):
        with pytest.raises(BudgetError) as err:
            project_levels(group, levels, tail, targets, map_budget=need - 1)
        assert str(err.value) == message


def test_projection_needs_one_target_radius_per_level():
    m = BernoulliMeasure([0.7, 0.3])
    r = Realization(0, _LINE)
    levels = level_sets(m, [3, 4, 5])
    for radii in ([1e-3], [1e-3, 1e-3, 1e-3, -5.0]):
        with pytest.raises(InputError, match="one target radius per level set"):
            project_levels([r], levels, TailSequence.constant(1), radii)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block", ["A", "3A"])
def test_small_blocks_match_per_word_projection_on_threads(block, threads, monkeypatch):
    # the Markov case with tail steps of several depths and mixed word lengths,
    # its seed groups mapped over threads, at blocks far below its widest depth
    fam, m, tail, n_min, _ = CASES["moving_tail_period"]
    levels = level_sets(m, range(n_min, n_min + 3))
    targets = _targets(levels)
    _set_block(block, m, monkeypatch)
    got = map_seed_groups(lambda rs: project_levels(rs, levels, tail, targets), fam, 9, 4,
                          sum(map(len, levels)), threads)
    for j, clouds in enumerate(got):
        r = Realization(keyed.derive_seed(9, j), fam)
        for L, target, pts in zip(levels, targets, clouds):
            coords, radii = ref_project_level(r, L, tail, target)
            assert pts.coords.tobytes() == coords.tobytes(), (L.n, j)
            assert pts.radii.tobytes() == radii.tobytes(), (L.n, j)


def test_seed_group_needs_one_family():
    m = BernoulliMeasure([0.7, 0.3])
    with pytest.raises(InputError, match="one family"):
        project_levels([Realization(0, _LINE), Realization(1, _PLANE)], [level_set(m, 3)],
                       TailSequence.constant(1), [1e-3])


@pytest.mark.parametrize("threads", [1, 4])
def test_level_sets_shared_by_threads(threads):
    fam, m, tail, n_min, n_max = CASES["moving_tail_period"]
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)

    def clouds(j):
        pts = project_levels([Realization(j, fam)], levels, tail, targets)[0]
        return [c.coords.tobytes() for c in pts]

    # more threads than cores and a short switch interval interleave the walks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = keyed.map_seeds(clouds, 8, threads)
    finally:
        sys.setswitchinterval(interval)
    assert shared == [clouds(j) for j in range(8)]
    assert all(not fr.measures.flags.writeable for fr in levels[0].tree)


def test_projection_needs_one_tree():
    m = BernoulliMeasure([0.7, 0.3])
    r = Realization(0, _LINE)
    with pytest.raises(InputError, match="one cylinder tree"):
        project_levels([r], [level_set(m, 3), level_set(m, 4)], TailSequence.constant(1),
                       [1e-3, 1e-3])


class CountingRealization(Realization):
    """Counts the rows sampled, one per map application."""

    rows = 0

    def matrices_from_chains(self, states, last_symbols):
        self.rows += states.size
        return super().matrices_from_chains(states, last_symbols)

    def scalars_from_chains(self, states, last_symbols):
        self.rows += states.size
        return super().scalars_from_chains(states, last_symbols)


@pytest.mark.filterwarnings("ignore:grid resolution")
@pytest.mark.parametrize("fam,tail", [(_LINE, TailSequence.constant(1)),
                                      (_LINE, TailSequence((), (2, 1))),
                                      (_PLANE, TailSequence((1, 2), (1,)))],
                         ids=["line-still", "line-moving", "plane-prefix"])
def test_coverage_samples_each_tree_node_once(fam, tail):
    m = BernoulliMeasure([0.6, 0.4])
    n_values = list(range(3, 9))
    gauge = Gauge("one_over_n")
    d = fam.dimension
    R = bounding_ball(fam)
    grid = CoverageGrid(np.full(d, -R), np.full(d, R), 2.0 ** -7)
    r = CountingRealization(3, fam)
    coverage_estimate(r, level_sets(m, n_values), tail, gauge, grid)

    nodes = sum(fr.symbols.size for fr in iter_level_frontiers(m, max(n_values)))
    tail_steps = 0
    for n in n_values:
        L = level_set(m, n)
        radii = (L.measures * gauge(n)) ** (1.0 / d)
        target = float(radii[radii > 0.0].min()) / 8.0
        depths = np.array([_required_depth(target, int(k), fam.rho_max, R)
                           for k in L.lengths.tolist()])
        tail_steps += int(np.sum(_tail_steps(fam, tail, depths)))
    assert r.rows == nodes + tail_steps
    # the per-word path sampled every letter of every word
    assert nodes < sum(int(level_set(m, n).lengths.sum()) for n in n_values)
