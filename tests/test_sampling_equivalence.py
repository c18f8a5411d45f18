"""Sampling by distribution and the window walks against what they replaced.

``ref_per_symbol`` is the earlier dispatch kept as an oracle: one boolean
mask per distinct last symbol (``np.unique``), each group sampled through the
single-symbol path.  Grouping symbols by equal distribution must give
bitwise-equal matrices, log-determinants and scalars (also into given
buffers), and the base-matrix selector, which compares raw draws with
integer thresholds, must pick the index ``searchsorted`` picks on their
uniforms.  Likewise determinant-window walks run on several threads, each
over the tree it builds, must equal the walk that streams the tree
(``ref_det_window_report``), field by field, for every seed and thread count,
also when the walk cuts each depth into blocks of one or a few parents.  The
seed-group walk (``det_window_reports``) of 8
seeds must equal the same oracle at 1 and 2 threads, also when a smaller
``walk.BLOCK`` splits its groups unevenly at several depths, and walks run
one after another or on several threads must not share workspace buffers.
A wholly emitted depth that spans several blocks must sum the oracle's good
mass both when every member is good and when none is.  The
closed-form
2x2 orthogonal factor must match LAPACK's sign-fixed QR (``ref_haar_qr``)
within 1e-15 per entry, and d >= 3 must still take that QR.
"""

import json
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from rifs import keyed, walk
from rifs.analysis import det_window_report, det_window_reports, detwindow
from rifs.experiments import ExperimentConfig, preset
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               _haar_factor, _pick_base, _raw_thresholds)
from rifs.symbolic import BernoulliMeasure, MarkovMeasure, iter_level_frontiers
from test_projection_equivalence import ref_det_window_report


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

def ref_per_symbol(method, states, symbols, row_shape=()):
    out = np.empty((states.size,) + row_shape)
    for sym in np.unique(symbols):
        mask = symbols == sym
        out[mask] = method(states[mask], int(sym))
    return out


def ref_haar_qr(gauss):
    """Sign-fixed factor of LAPACK's QR: each column times the sign of R's
    diagonal entry, 0 counting as +."""
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    return q * signs[:, None, :]


def _json_family(name):
    cfg = preset(name)
    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).family


def _families():
    sim = SimilaritySpec(0.5, 0.9)
    aff1 = AffineSpec(0.4, 0.6, [[[0.9]], [[-0.8]]], [0.3, 0.7])
    aff2 = AffineSpec(0.45, 0.49, [np.diag([0.9, 0.7]), np.diag([0.8, 0.95])])
    return {
        "mixed_d1": MatrixFamily(1, [sim, sim, aff1], [[0.0], [0.5], [1.0]]),
        "mixed_d2": MatrixFamily(2, [aff2, SimilaritySpec(0.7, 0.9), aff2],
                                 [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "similarity_d2": MatrixFamily(2, [SimilaritySpec(0.7, 0.9)] * 2,
                                      [[0.0, 0.0], [1.0, 0.0]]),
        "affine_d2": MatrixFamily(2, [aff2, aff2], [[1.0, 0.0], [0.0, 1.0]]),
        "from_dict_affine": _json_family("example2_affine"),
    }


def test_equal_distributions_form_one_group():
    fams = _families()
    # JSON loading builds eight distinct but equal AffineSpecs
    loaded = fams["from_dict_affine"]
    assert len({id(s) for s in loaded.symbols}) == 8
    assert len(loaded.distributions) == 1
    assert loaded.distribution_index[1:].tolist() == [0] * 8
    assert fams["mixed_d1"].distribution_index[1:].tolist() == [0, 0, 1]
    assert fams["mixed_d2"].distribution_index[1:].tolist() == [0, 1, 0]
    # equal by value, whatever the weight scale; different bases differ
    bases = [np.diag([0.9, 0.7]), np.diag([0.8, 0.95])]
    assert AffineSpec(0.45, 0.49, bases, [1.0, 1.0]) == AffineSpec(0.45, 0.49, bases)
    assert AffineSpec(0.45, 0.49, bases) != AffineSpec(0.45, 0.49, bases[::-1])
    assert AffineSpec(0.45, 0.49, bases) != SimilaritySpec(0.45, 0.49)


@pytest.mark.parametrize("name", sorted(_families()))
def test_grouped_sampling_matches_per_symbol_oracle(name):
    fam = _families()[name]
    A, d = fam.alphabet.size, fam.dimension
    r = Realization(123, fam)
    states = keyed.absorb_children(keyed.absorb_children(r.root_chain(), A), A)
    states = keyed.absorb_children(states, A)         # every word of length 3
    rng = np.random.default_rng(5)
    layouts = {
        "tiled": np.tile(np.arange(1, A + 1), states.size // A),
        "shuffled": rng.integers(1, A + 1, size=states.size),
        "one_symbol_missing": rng.integers(1, A, size=states.size),
        "uint8": np.tile(np.arange(1, A + 1, dtype=np.uint8), states.size // A),
    }
    for layout, syms in layouts.items():
        got = r.matrices_from_chains(states, syms)
        want = ref_per_symbol(r.matrices_from_chains, states, syms, (d, d))
        assert got.shape == want.shape and np.array_equal(got, want), layout
        got = r.log_dets_from_chains(states, syms)
        want = ref_per_symbol(r.log_dets_from_chains, states, syms)
        assert np.array_equal(got, want), layout
        out, raw, mix = np.empty(states.size), np.empty_like(states), np.empty_like(states)
        got = r.log_dets_from_chains(states, syms, out=out, raw=raw, scratch=mix)
        assert got is out and np.array_equal(got, want), layout
        if d == 1:
            got = r.scalars_from_chains(states, syms)
            want = ref_per_symbol(r.scalars_from_chains, states, syms)
            assert np.array_equal(got, want), layout
    empty = np.zeros(0, dtype=np.uint64)
    assert r.log_dets_from_chains(empty, np.zeros(0, dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("weights", [[0.3, 0.7], [0.1] * 10, [1.0, 2.0, 3.0, 1e-9],
                                     [0.999, 0.001], [1.0, 1e-17]])
def test_pick_base_matches_searchsorted(weights):
    # the integer thresholds on raw draws pick the base that searchsorted picks
    # on the uniforms; [0.1] * 10 has inexact cumulative sums, and [1.0, 1e-17]
    # a cumulative weight that no uniform exceeds, so it has no threshold
    d = len(weights)
    spec = AffineSpec(0.4, 0.6, [np.eye(2) * (0.5 + 0.04 * k) for k in range(d)], weights)
    T = spec.base_thresholds
    assert T.dtype == np.uint64 and not T.flags.writeable
    assert T.size == np.count_nonzero(spec.cum_weights[:-1] < keyed.to_u01(
        np.full(1, 2 ** 64 - 1, dtype=np.uint64))[0])
    rng = np.random.default_rng(d)
    # random raws, every threshold, the raw below it, the last raw of its
    # 2**11-wide step, and the top raw
    raw = np.concatenate([rng.integers(0, 2 ** 64, 10_000, dtype=np.uint64, endpoint=False),
                          T, T[T > 0] - np.uint64(1), T + np.uint64(2047),
                          np.array([2 ** 64 - 1, 0], dtype=np.uint64)])
    want = np.searchsorted(spec.cum_weights, keyed.to_u01(raw))
    assert np.array_equal(_pick_base(raw, spec), want)
    out = np.full(raw.size, -1, dtype=np.intp)
    assert _pick_base(raw, spec, out=out) is out and np.array_equal(out, want)


def test_raw_thresholds_are_the_smallest_exceeding_draws():
    # cumulative weights anywhere in [0, 1), near 0, near 1 and in the top
    # half, where k + 0.5 rounds in to_u01
    rng = np.random.default_rng(3)
    cum = np.sort(np.concatenate([
        rng.random(20_000), 1.0 - rng.random(500) * 2.0 ** -45,
        0.5 + rng.random(500) * 2.0 ** -30, np.nextafter(rng.random(500), 1.0),
        [0.0, 2.0 ** -60, 2.0 ** -54, 2.0 ** -53, 3 * 2.0 ** -54, 0.5, 0.75 - 2.0 ** -54,
         1.0 - 2.0 ** -52, 1.0 - 3 * 2.0 ** -54, np.nextafter(1.0, 0.0)]]))
    T = _raw_thresholds(cum)
    top = keyed.to_u01(np.full(1, 2 ** 64 - 1, dtype=np.uint64))[0]
    below = cum[cum < top]
    assert T.size == below.size and below[-1] < cum[-1] == top
    assert np.all(keyed.to_u01(T) > below)
    # the raw draws below a threshold end at T - 1, which shares T - 2048's top bits
    assert np.all((T == 0) | (keyed.to_u01(T - np.uint64(1)) <= below))


def _keyed_gaussians(n, count):
    """``count`` keyed Gaussian draws (draws 2..) at ``n`` distinct two-letter words."""
    states = keyed.absorb_children(keyed.absorb_children(keyed.root_state(41), 256), 256)
    return ndtri(keyed.draw_u01_block(states[:n], 2, count)), states[:n]


def test_closed_form_2x2_factor_matches_lapack_qr():
    gauss, _ = _keyed_gaussians(20_000, 4)
    g = gauss.reshape(-1, 2, 2)
    q = _haar_factor(gauss, 2)
    assert np.abs(q - ref_haar_qr(g)).max() <= 1e-15
    assert np.abs(np.einsum("nij,nik->njk", q, q) - np.eye(2)).max() <= 1e-15
    det_q = np.linalg.det(q)
    assert np.abs(np.abs(det_q) - 1.0).max() <= 1e-15
    assert np.array_equal(np.sign(det_q), np.sign(np.linalg.det(g)))
    # det g == 0: the second column is the first turned by +90 degrees
    singular = np.array([[1.0, 2.0, -3.0, -6.0], [0.5, 0.5, 0.5, 0.5], [-2.0, 0.0, 1.0, 0.0]])
    q0 = _haar_factor(singular, 2)
    assert np.array_equal(q0[:, :, 1], np.stack([-q0[:, 1, 0], q0[:, 0, 0]], axis=1))
    assert np.allclose(q0[:, :, 0], singular[:, [0, 2]] / np.hypot(
        singular[:, 0], singular[:, 2])[:, None], rtol=0.0, atol=1e-15)


def test_sampled_matrices_are_scaled_lapack_factors():
    fam = _families()["mixed_d2"]
    spec = fam.symbols[1]
    assert isinstance(spec, SimilaritySpec)
    gauss, states = _keyed_gaussians(4096, 4)
    syms = np.arange(states.size) % 3 + 1
    got = Realization(41, fam).matrices_from_chains(states, syms)
    lam = spec.r_minus + keyed.draw_u01(states, 0) * (spec.r_plus - spec.r_minus)
    sim = syms == 2
    want = lam[sim, None, None] * ref_haar_qr(gauss[sim].reshape(-1, 2, 2))
    assert np.abs(got[sim] - want).max() <= 1e-15


def test_three_dimensional_factor_takes_lapack_qr():
    gauss, _ = _keyed_gaussians(512, 9)
    assert np.array_equal(_haar_factor(gauss, 3), ref_haar_qr(gauss.reshape(-1, 3, 3)))


# ---------------------------------------------------------------------------
# window walks
# ---------------------------------------------------------------------------

def _report_fields(rep):
    return (rep.n, rep.eps1, rep.C, rep.N1, rep.lyapunov, rep.good_mass,
            rep.per_prefix_failures.tolist(), rep.per_prefix_totals.tolist())


WINDOW_CASES = {
    "bernoulli_line": (lambda f: f["mixed_d1"], BernoulliMeasure([0.4, 0.3, 0.3]), 7),
    "markov_plane": (lambda f: f["similarity_d2"],
                     MarkovMeasure([4.0 / 7.0, 3.0 / 7.0], [[0.7, 0.3], [0.4, 0.6]]), 8),
    "mixed_lengths_affine": (lambda f: f["from_dict_affine"],
                             BernoulliMeasure([0.3] + [0.1] * 7), 3),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_shared_tree_walk_equals_streamed_walk(case, threads, monkeypatch):
    pick, m, n = WINDOW_CASES[case]
    fam = pick(_families())
    eps1, C, N1 = 0.05, 1.5, 2
    tree = tuple(iter_level_frontiers(m, n))
    if case == "mixed_lengths_affine":
        assert sum(bool(fr.emit_mask.any()) for fr in tree) >= 2   # several word lengths
    # the default block holds every depth of these trees whole
    assert max(fr.symbols.size for fr in tree) <= walk.BLOCK

    def shared(j):
        return det_window_report(Realization(j, fam), m, n, eps1, C, N1)

    def interleaved(n_seeds):
        # more threads than cores and a short switch interval interleave the walks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return [_report_fields(rep) for rep in keyed.map_seeds(shared, n_seeds, threads)]
        finally:
            sys.setswitchinterval(interval)

    reports = interleaved(8)
    # a second pass gives the same reports
    again = interleaved(8)
    streamed = [_report_fields(ref_det_window_report(Realization(j, fam), m, n, eps1, C, N1))
                for j in range(8)]
    assert reports == streamed
    # a lone call walks the same
    lone = det_window_report(Realization(0, fam), m, n, eps1, C, N1)
    assert _report_fields(lone) == reports[0]
    assert again == reports
    if threads > 2:
        return
    # small blocks cut depths into many: one parent per block (a block smaller than
    # one parent's children, then exactly one parent's), and three parents per block,
    # which leaves a partial last block on some multi-block depth
    A = m.alphabet.size
    widths = [fr.symbols.size // A for fr in tree]
    assert any(w > 3 and w % 3 for w in widths)
    for block in (1, A, 3 * A + 1):
        monkeypatch.setattr(walk, "BLOCK", block)
        assert interleaved(2) == streamed[:2], block
        if threads == 1:
            lone = det_window_report(Realization(0, fam), m, n, eps1, C, N1)
            assert _report_fields(lone) == streamed[0], block


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_seed_group_walk_equals_oracle(case, monkeypatch):
    pick, m, n = WINDOW_CASES[case]
    fam = pick(_families())
    eps1, C, N1 = 0.05, 1.5, 2
    tree = tuple(iter_level_frontiers(m, n))
    want = [_report_fields(ref_det_window_report(Realization(j, fam), m, n, eps1, C, N1))
            for j in range(8)]

    calls = []   # (depth, seeds in the block) of every block walked
    window_block = detwindow._Windows.block

    def spy(self, fr, seeds, *rest):
        calls.append((fr.depth, seeds.stop - seeds.start))
        return window_block(self, fr, seeds, *rest)

    monkeypatch.setattr(detwindow._Windows, "block", spy)

    def grouped(threads):
        ranges = walk.seed_groups(8, 1, threads)

        def group(g):
            rs = [Realization(j, fam) for j in ranges[g]]
            return det_window_reports(rs, m, n, eps1, C, N1)

        return [_report_fields(rep)
                for reps in keyed.map_seeds(group, len(ranges), threads) for rep in reps]

    # the default block, and one of three middle-depth widths: 8 seeds walk the
    # shallow depths together, then split unevenly (3+3+2, 6+2 or 7+1) and again
    widths = [fr.symbols.size for fr in tree]
    for block in (walk.BLOCK, 3 * widths[len(widths) // 2]):
        monkeypatch.setattr(walk, "BLOCK", block)
        for threads in (1, 2):
            assert grouped(threads) == want, (block, threads)
        # a group of all eight seeds walks the same
        rs = [Realization(j, fam) for j in range(8)]
        assert [_report_fields(rep) for rep in det_window_reports(rs, m, n, eps1, C, N1)] == want
    calls.clear()
    grouped(1)
    assert calls[0] == (1, 8)
    sizes = {}
    for depth, seeds in calls:
        sizes.setdefault(depth, set()).add(seeds)
    assert len(set().union(*sizes.values())) >= 3   # split at two depths at least
    assert any(len(s) > 1 for s in sizes.values())  # uneven subgroups side by side


# the uniform binary tree of level 7 emits its whole last depth: with C = 1e300
# every member is good, with C = 1, eps1 = 1e-9 and N1 = 1 none is;
# (eps1, C, N1, good mass of each seed)
ONE_MASK_CASES = {"all_good": (0.05, 1e300, 2, 1.0), "none_good": (1e-9, 1.0, 1, 0.0)}


@pytest.mark.parametrize("case", sorted(ONE_MASK_CASES))
def test_one_mask_sum_over_blocks_equals_oracle(case, monkeypatch):
    eps1, C, N1, mass = ONE_MASK_CASES[case]
    fam, m, n = _families()["similarity_d2"], BernoulliMeasure([0.5, 0.5]), 7
    tree = tuple(iter_level_frontiers(m, n))
    assert tree[-1].emit_mask.all() and tree[-1].symbols.size == 2 ** n
    rs = [Realization(j, fam) for j in range(3)]
    want = [_report_fields(ref_det_window_report(r, m, n, eps1, C, N1)) for r in rs]
    assert [fields[5] for fields in want] == [mass] * 3
    # one parent per block (a block smaller than its children, then exactly
    # them), and three parents per block, the last block of each depth partial
    A = m.alphabet.size
    for block in (1, A, 3 * A + 1):
        monkeypatch.setattr(walk, "BLOCK", block)
        got = det_window_reports(rs, m, n, eps1, C, N1)
        assert [_report_fields(rep) for rep in got] == want, block
        assert _report_fields(det_window_report(rs[0], m, n, eps1, C, N1)) == want[0], block


def test_one_distribution_walk_passes_no_per_row_symbols(monkeypatch):
    # a family of one distribution samples a block without reading its
    # symbols, so a walk of several seeds does not tile them per row; a
    # family of two distributions still passes one symbol per row
    seen = []
    log_dets = Realization.log_dets_from_chains

    def spy(self, states, last_symbols, **buffers):
        seen.append(np.size(last_symbols) == states.size)
        return log_dets(self, states, last_symbols, **buffers)

    monkeypatch.setattr(Realization, "log_dets_from_chains", spy)
    fams = _families()
    for name, m, per_row in (("similarity_d2", BernoulliMeasure([0.5, 0.5]), False),
                             ("mixed_d1", BernoulliMeasure([0.4, 0.3, 0.3]), True)):
        rs = [Realization(j, fams[name]) for j in range(4)]
        want = [_report_fields(ref_det_window_report(r, m, 5, 0.05, 1.5, 2)) for r in rs]
        seen.clear()
        got = [_report_fields(rep) for rep in det_window_reports(rs, m, 5, 0.05, 1.5, 2)]
        assert got == want, name
        assert seen and set(seen) == {per_row}, name


def test_window_walks_share_no_buffer_state():
    # a walk whose widest depth spans several blocks, then a walk of another
    # family whose blocks are shorter than the workspace buffers, then the
    # first walk again: each equals the streamed oracle, so no walk reads what
    # an earlier one left in its buffers
    eps1, C, N1 = 0.05, 1.5, 2
    fams = _families()
    wide = (fams["mixed_d1"], BernoulliMeasure([0.4, 0.3, 0.3]), 9)
    short = (fams["affine_d2"], BernoulliMeasure([0.6, 0.4]), 6)
    for (fam, m, n), blocks in ((wide, "several"), (short, "short"), (wide, "several")):
        widths = [fr.symbols.size for fr in iter_level_frontiers(m, n)]
        if blocks == "several":
            assert max(widths) >= 3 * walk.BLOCK
        else:
            assert sum(widths) * 3 < walk.BLOCK
        rs = [Realization(j, fam) for j in range(3)]
        got = [_report_fields(rep) for rep in det_window_reports(rs, m, n, eps1, C, N1)]
        want = [_report_fields(ref_det_window_report(r, m, n, eps1, C, N1)) for r in rs]
        assert got == want, blocks


def test_threaded_seed_group_walks_own_their_workspaces(monkeypatch):
    # 8 seeds in 4 groups on 2 and on 4 threads equal one group on one thread;
    # every walk builds its own kernel scratch and node workspace, and the
    # modules keep none
    fam = _families()["mixed_d1"]
    m, n = BernoulliMeasure([0.4, 0.3, 0.3]), 7
    A = m.alphabet.size
    built = []   # (kernel, the walk's node rows of its first block)

    class Windows(detwindow._Windows):
        def block(self, fr, seeds, lo, hi, parents, kids):
            if fr.depth == 1:
                built.append((self, kids[0]))
            return super().block(fr, seeds, lo, hi, parents, kids)

    monkeypatch.setattr(detwindow, "_Windows", Windows)

    def walked(threads):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads' walks
        try:
            return [_report_fields(rep) for rep in walk.map_seed_groups(
                lambda rs: det_window_reports(rs, m, n, 0.05, 1.5, 2),
                fam, 7, 8, A, threads)]
        finally:
            sys.setswitchinterval(interval)

    one = walked(1)
    assert len(built) == 1
    monkeypatch.setattr(walk, "BLOCK", 2 * A)
    for threads in (2, 4):
        assert [len(g) for g in walk.seed_groups(8, A, threads)] == [2, 2, 2, 2]
        built.clear()
        assert walked(threads) == one, threads
        assert len({id(kernel) for kernel, _ in built}) == 4
        assert len({id(rows) for _, rows in built}) == 4
    for module in (detwindow, walk):
        assert not any(isinstance(v, (np.ndarray, detwindow._Windows))
                       for v in vars(module).values())
