"""Sampling by distribution and the shared window tree against what they replaced.

``ref_per_symbol`` is the earlier dispatch kept as an oracle: one boolean
mask per distinct last symbol (``np.unique``), each group sampled through the
single-symbol path.  Grouping symbols by equal distribution must give
bitwise-equal matrices, log-determinants and scalars, and the base-matrix
selector must pick the index ``searchsorted`` picked.  Likewise a
determinant-window walk over a tree built once
(``tuple(iter_level_frontiers(...))``) and shared by threads must equal the
walk that streams the tree (``ref_det_window_report``), field by field, for
every seed and thread count.
"""

import json
import sys

import numpy as np
import pytest

from rifs import keyed
from rifs.analysis import det_window_report
from rifs.experiments import ExperimentConfig, preset
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               _pick_base)
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
def test_shared_tree_walk_equals_streamed_walk(case, threads):
    pick, m, n = WINDOW_CASES[case]
    fam = pick(_families())
    eps1, C, N1 = 0.05, 1.5, 2
    tree = tuple(iter_level_frontiers(m, n))
    if case == "mixed_lengths_affine":
        assert sum(bool(fr.emit_mask.any()) for fr in tree) >= 2   # several word lengths

    def shared(j):
        return det_window_report(Realization(j, fam), m, n, eps1, C, N1, tree=tree)

    # more threads than cores and a short switch interval interleave the walks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = keyed.map_seeds(shared, 8, threads)
        # the shared tree is read, never written: a second pass gives the same reports
        again = keyed.map_seeds(shared, 8, threads)
    finally:
        sys.setswitchinterval(interval)
    for j, rep in enumerate(reports):
        streamed = ref_det_window_report(Realization(j, fam), m, n, eps1, C, N1)
        assert _report_fields(rep) == _report_fields(streamed)
    # without a tree, the walk streams its own, one depth at a time
    lone = det_window_report(Realization(0, fam), m, n, eps1, C, N1)
    assert _report_fields(lone) == _report_fields(reports[0])
    assert [_report_fields(a) for a in again] == [_report_fields(b) for b in reports]
