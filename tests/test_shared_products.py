"""The shared-operand products of a projection step against per-row ``np.matmul``.

For d >= 2 a projection step (``attractor._step``) takes ``M t`` as one 2-D
product per symbol over every row, and ``M A`` through a broadcast view of
the parents' ``M``; the affine sampler takes ``O B`` as one 2-D product per
base over the rows that selected it (``random_model._times_bases``).  Report
bytes rest on each of these equalling its per-row ``np.matmul`` bit for
bit, which holds when the BLAS runs the same kernel and multiply-add order
for every product.  These tests check it at d = 2 and 3, at row counts around
the kernels' block edges, on random values and on adversarial ones (signed
zeros, 1.0, magnitudes 1e-30 to 1e30), so a BLAS build that breaks it fails
here by the product's name and row count instead of moving report bytes.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from rifs import attractor, keyed
from rifs.random_model import (AffineSpec, MatrixFamily, Realization, SimilaritySpec,
                               _base_index, _haar_factor, _scalar_factor, _times_bases)

ROWS = list(range(1, 71)) + [127, 128, 129, 4095, 4096, 4097, 16383, 16384, 16385]
ADVERSARIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e-30, -1e-30, 1e30, -1e30, 3.5e-17, -7.25])


def _values(rng, kind: str, shape) -> np.ndarray:
    if kind == "random":
        return rng.standard_normal(shape)
    return rng.choice(ADVERSARIAL, shape)


def _translations(kind: str, d: int) -> list:
    """Three pairwise distinct translations of R^d."""
    if kind == "random":
        return np.random.default_rng(d).standard_normal((3, d)).tolist()
    return [[0.0, -0.0] + [1e-30] * (d - 2), [1e30, -1e-30] + [-0.0] * (d - 2),
            [-1.0, 1e-30] + [1e30] * (d - 2)]


@pytest.mark.parametrize("kind", ["random", "adversarial"])
@pytest.mark.parametrize("d", [2, 3])
def test_step_products_equal_per_row_matmul(d, kind):
    # one child per row (the tail steps and project) and 1..3 per row (a walk
    # block): v + M t and M A of each child against the products of repeated rows
    rng = np.random.default_rng(10 * d + len(kind))
    r = Realization(3, MatrixFamily(d, [SimilaritySpec(0.5, 0.9)] * 3, _translations(kind, d)))
    for symbols in (np.int64(2), np.arange(1, 4, dtype=np.uint8)):
        A = np.size(symbols)
        for P in ROWS:
            states = rng.integers(0, 2 ** 63, P, dtype=np.uint64)
            M, v = _values(rng, kind, (P, d, d)), _values(rng, kind, (P, d))
            out = (np.empty(P * A, np.uint64), np.empty((P * A, d, d)), np.empty((P * A, d)))
            got_states, got_M, got_v = attractor._step(r, states, M, v, symbols, out=out)
            row_symbols = np.tile(symbols, P)
            kid_states = keyed.absorb(np.repeat(states, A), row_symbols)
            mats = r.matrices_from_chains(kid_states, row_symbols)
            M_rows, v_rows = np.repeat(M, A, axis=0), np.repeat(v, A, axis=0)
            t = r.family.translations[row_symbols.astype(np.int64) - 1]
            assert got_states.tobytes() == kid_states.tobytes(), ("chain states", A, P)
            assert got_v.tobytes() == (v_rows + (M_rows @ t[:, :, None])[:, :, 0]).tobytes(), \
                (f"M t, {A} symbol(s)", P)
            assert got_M.tobytes() == np.matmul(M_rows, mats).tobytes(), \
                (f"M A, {A} symbol(s)", P)
            if A == 1:   # a tail step writes over its own rows
                rows = (states.copy(), M.copy(), v.copy())
                again = attractor._step(r, *rows, symbols, out=rows)
                assert [x.tobytes() for x in again] == \
                    [x.tobytes() for x in (got_states, got_M, got_v)], ("in place", P)


@pytest.mark.parametrize("kind", ["random", "adversarial"])
@pytest.mark.parametrize("d", [2, 3])
def test_base_products_equal_per_row_matmul(d, kind):
    rng = np.random.default_rng(20 * d + len(kind))
    for n_bases in (1, 2, 3, 4, 16):
        bases = _values(rng, kind, (n_bases, d, d))
        for n in ROWS:
            mats = _values(rng, kind, (n, d, d))
            for idx in (rng.integers(0, n_bases, n), np.full(n, n_bases - 1)):
                want = mats @ bases[idx]
                got = _times_bases(mats.copy(), idx.astype(np.intp), bases)
                assert got.tobytes() == want.tobytes(), (f"O B, {n_bases} bases", n)


def _affine_spec(rng, d: int, n_bases: int) -> AffineSpec:
    """``n_bases`` random invertible bases of operator norm at most 1, random weights."""
    bases = rng.standard_normal((n_bases, d, d))
    bases /= np.linalg.norm(bases, ord=2, axis=(1, 2))[:, None, None] * 1.01
    return AffineSpec(0.4, 0.5, bases, rng.uniform(0.1, 1.0, n_bases))


@pytest.mark.parametrize("d", [2, 3])
def test_affine_samples_equal_per_row_base_products(d):
    rng = np.random.default_rng(30 + d)
    for n_bases in (1, 2, 3, 4, 16):
        spec = _affine_spec(rng, d, n_bases)
        r = Realization(5, MatrixFamily(d, [spec, SimilaritySpec(0.3, 0.6)],
                                        _translations("random", d)[:2]))
        for n in ROWS[::7] + ROWS[-6:]:
            states = rng.integers(0, 2 ** 63, n, dtype=np.uint64)
            gauss = ndtri(keyed.draw_u01_block(states, 2, d * d))
            want = (_scalar_factor(states, spec)[:, None, None] * _haar_factor(gauss, d)) \
                @ spec.base_matrices[_base_index(states, spec)]
            got = r.matrices_from_chains(states, np.ones(n, dtype=np.int64))
            assert got.tobytes() == want.tobytes(), (f"sampled O B, {n_bases} bases", n)
