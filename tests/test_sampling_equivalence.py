"""Sampling by distribution and the shared window tree against what they replaced.

``ref_per_symbol`` is the earlier dispatch kept as an oracle: one boolean
mask per distinct last symbol (``np.unique``), each group sampled through the
single-symbol path.  Grouping symbols by equal distribution must give
bitwise-equal matrices, log-determinants and scalars, and the base-matrix
selector must pick the index ``searchsorted`` picked.  Likewise a
determinant-window walk over a tree built once
(``tuple(iter_level_frontiers(...))``) and shared by threads must equal the
walk that streams the tree (``ref_det_window_report``), field by field, for
every seed and thread count, also when the walk cuts each depth into blocks
of one or a few parents.  The seed-group walk (``det_window_reports``) of 8
seeds must equal the same oracle at 1 and 2 threads, also when a smaller
``BLOCK`` splits its groups unevenly at several depths.  The closed-form
2x2 orthogonal factor must match LAPACK's sign-fixed QR (``ref_haar_qr``)
within 1e-15 per entry, and d >= 3 must still take that QR.
"""

import json
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from rifs import attractor, keyed
from rifs.analysis import det_window_report, det_window_reports, detwindow
from rifs.experiments import ExperimentConfig, preset
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               _haar_factor, _pick_base)
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
        if d == 1:
            got = r.scalars_from_chains(states, syms)
            want = ref_per_symbol(r.scalars_from_chains, states, syms)
            assert np.array_equal(got, want), layout
    empty = np.zeros(0, dtype=np.uint64)
    assert r.log_dets_from_chains(empty, np.zeros(0, dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("weights", [[0.3, 0.7], [0.1] * 10, [1.0, 2.0, 3.0, 1e-9],
                                     [0.999, 0.001]])
def test_pick_base_matches_searchsorted(weights):
    d = len(weights)
    spec = AffineSpec(0.4, 0.6, [np.eye(2) * (0.5 + 0.04 * k) for k in range(d)], weights)
    rng = np.random.default_rng(d)
    # uniforms, every cumulative weight below 1 exactly, and its neighbours
    c = spec.cum_weights[:-1]
    u = np.concatenate([rng.random(10_000), c, np.nextafter(c, 0.0),
                        np.nextafter(c, 1.0), [np.nextafter(1.0, 0.0), 2.0 ** -54]])
    assert np.array_equal(_pick_base(u, spec), np.searchsorted(spec.cum_weights, u))


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
# shared window tree
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
    assert max(fr.symbols.size for fr in tree) <= detwindow.BLOCK

    def shared(j):
        return det_window_report(Realization(j, fam), m, n, eps1, C, N1, tree=tree)

    def interleaved(n_seeds):
        # more threads than cores and a short switch interval interleave the walks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return [_report_fields(rep) for rep in keyed.map_seeds(shared, n_seeds, threads)]
        finally:
            sys.setswitchinterval(interval)

    reports = interleaved(8)
    # the shared tree is read, never written: a second pass gives the same reports
    again = interleaved(8)
    streamed = [_report_fields(ref_det_window_report(Realization(j, fam), m, n, eps1, C, N1))
                for j in range(8)]
    assert reports == streamed
    # without a tree, the walk streams its own, one depth at a time
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
        monkeypatch.setattr(detwindow, "BLOCK", block)
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
    walk_block = detwindow._walk_block

    def spy(r, fr, A, states, cum_ld, good, lo, hi, *rest):
        calls.append((fr.depth, states.size // (hi - lo)))
        return walk_block(r, fr, A, states, cum_ld, good, lo, hi, *rest)

    monkeypatch.setattr(detwindow, "_walk_block", spy)

    def grouped(threads):
        ranges = attractor.seed_groups(8, m.alphabet.size, threads)

        def group(g):
            rs = [Realization(j, fam) for j in ranges[g]]
            return det_window_reports(rs, m, n, eps1, C, N1, tree=tree)

        return [_report_fields(rep)
                for reps in keyed.map_seeds(group, len(ranges), threads) for rep in reps]

    # the default block, and one of three middle-depth widths: 8 seeds walk the
    # shallow depths together, then split unevenly (3+3+2, 6+2 or 7+1) and again
    widths = [fr.symbols.size for fr in tree]
    for block in (detwindow.BLOCK, 3 * widths[len(widths) // 2]):
        monkeypatch.setattr(detwindow, "BLOCK", block)
        for threads in (1, 2):
            assert grouped(threads) == want, (block, threads)
        # a group built here, without a tree, walks the same
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
