"""The one-walk projections and tree-selected level sets against what they replaced.

The reference oracles below are the earlier implementations: word-by-word
compositions (``compose``, ``apply_map``, ``iterate_maps``,
``project_tail``), the breadth-first level-set materialization that carried
every active word along, the per-word projection that recomposed every
prefix of every word one word-matrix column at a time (``AffineBatch``), and
the determinant-window walk streaming the tree one depth at a time.

One walk of the cylinder tree must give, for every level it serves, the
same coordinate and radius bytes as the per-word projection of that level
alone, and sample exactly one matrix per tree node plus the tail steps.
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from rifs import keyed
from rifs.analysis import CoverageGrid, coverage_estimate, density_sweep
from rifs.analysis.detwindow import DetWindowReport
from rifs.attractor import (_required_depth, _tail_steps, bounding_ball, project_level,
                            project_levels)
from rifs.errors import InputError
from rifs.experiments import ExperimentConfig, Gauge, preset
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               lyapunov_exponent)
from rifs.symbolic import (BernoulliMeasure, MarkovMeasure, TailSequence,
                           iter_level_frontiers, level_set, level_sets, validate_word)


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
    chain = r.chain_for_word(w)
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


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_selected_level_sets_match_level_set(case):
    _, m, _, _, n_max = CASES[case]
    tree = tuple(iter_level_frontiers(m, n_max))
    for n in range(1, n_max + 1):
        got = level_set(m, n, tree=tree)
        own = level_set(m, n)
        ref = ref_level_set(m, n)
        for a, b, c in zip((got.word_matrix, got.lengths, got.measures, got.parent_measures),
                           (own.word_matrix, own.lengths, own.measures, own.parent_measures),
                           ref):
            assert a.dtype == b.dtype == c.dtype and a.shape == b.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()
    if case == "affine_mixed_lengths":
        assert np.unique(level_set(m, n_max, tree=tree).lengths).size >= 2


def test_level_set_rejects_a_too_shallow_tree():
    m = BernoulliMeasure([0.7, 0.3])
    tree = tuple(iter_level_frontiers(m, 3))
    with pytest.raises(InputError, match="too shallow"):
        level_set(m, 4, tree=tree)


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_walk_matches_per_word_projection(case):
    fam, m, tail, n_min, n_max = CASES[case]
    r = Realization(5, fam)
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)
    clouds = project_levels(r, levels, tail, targets)
    for L, target, pts in zip(levels, targets, clouds):
        coords, radii = ref_project_level(r, level_set(m, L.n), tail, target)
        assert pts.coords.shape == coords.shape
        assert pts.coords.tobytes() == coords.tobytes(), L.n
        assert pts.radii.tobytes() == radii.tobytes(), L.n
        single = project_level(r, L, tail, target)
        assert single.coords.tobytes() == coords.tobytes()


@pytest.mark.parametrize("threads", [1, 4])
def test_level_sets_shared_by_threads(threads):
    fam, m, tail, n_min, n_max = CASES["moving_tail_period"]
    levels = level_sets(m, range(n_min, n_max + 1))
    targets = _targets(levels)

    def clouds(j):
        pts = project_levels(Realization(j, fam), levels, tail, targets)
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
        project_levels(r, [level_set(m, 3), level_set(m, 4)], TailSequence.constant(1),
                       [1e-3, 1e-3])


def test_estimates_reject_level_sets_of_other_levels():
    m = BernoulliMeasure([0.7, 0.3])
    tail = TailSequence.constant(1)
    levels = level_sets(m, [3, 4, 5])
    grid = CoverageGrid(np.array([-2.0]), np.array([2.0]), 2.0 ** -6)
    r = Realization(0, _LINE)
    for n_values in ([3, 4], [3, 5, 4], [4, 5, 6]):
        with pytest.raises(InputError, match="do not match"):
            coverage_estimate(r, m, tail, Gauge("one_over_n"), n_values, grid, levels=levels)
        with pytest.raises(InputError, match="do not match"):
            density_sweep(_LINE, m, tail, [0.5], [1.0], n_values, 0, levels=levels)


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
    coverage_estimate(r, m, tail, gauge, n_values, grid)

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
