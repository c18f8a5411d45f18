"""One walk of the cylinder tree, shared by projections and determinant windows.

:func:`walk` carries per-node rows (a chain state, and composed maps or
cumulative log-determinants) down a cylinder tree for a seed group, seed-major,
and hands each block of children to a per-kind kernel.  One constant,
``BLOCK``, bounds every array: a group walks a depth together while its
seeds' children fit in one block, and before a wider depth it splits into
subgroups that walk the rest of the tree one after another from a stack; a
single seed takes a wider depth in blocks of consecutive parents.
:func:`seed_groups` applies the same rule to the rows of a group's results.
Each row repeats the operations of a walk of its seed alone, so no result
depends on the group or the blocks it was walked in.  Each walk owns its
workspace, and nothing is kept at module level, so groups on worker threads
share no buffer.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import keyed
from .random_model import MatrixFamily, Realization

# rows per block of a walk, and of a seed group's results (see the module docstring)
BLOCK = 1 << 14


def _per_block(rows: int) -> int:
    """Seeds of ``rows`` rows each that one block holds, and at least one."""
    return max(1, BLOCK // max(rows, 1))


def seed_groups(n_seeds: int, rows: int, threads: int = 1) -> list:
    """Consecutive ranges of ``range(n_seeds)``, one per seed group of a run
    whose results take ``rows`` rows per seed: at most ``BLOCK`` rows (or one
    seed) per group and, with ``threads >= 2``, at most ``ceil(n_seeds /
    threads)`` seeds and at least ``min(threads, n_seeds)`` groups.
    """
    per = min(_per_block(rows), -(-n_seeds // threads))
    if threads > 1:   # ceil(n_seeds / per) >= threads needs per < n_seeds / (threads - 1)
        per = min(per, -(-n_seeds // (threads - 1)) - 1)
    per = max(1, per)
    return [range(lo, min(lo + per, n_seeds)) for lo in range(0, n_seeds, per)]


def map_seed_groups(fn, family: MatrixFamily, master_seed: int, n_seeds: int, rows: int,
                    threads: int = 1) -> list:
    """``fn(rs)`` for the realizations ``rs`` of each ``seed_groups`` range,
    seed ``j`` keyed by ``derive_seed(master_seed, j)`` (one ``derive_seeds``
    per group), on ``threads`` threads; the per-seed results, in seed order."""
    groups = seed_groups(n_seeds, rows, threads)

    def group(g: int) -> list:
        seeds = keyed.derive_seeds(master_seed, groups[g]).tolist()
        return fn([Realization(seed, family) for seed in seeds])

    return [x for out in keyed.map_seeds(group, len(groups), threads) for x in out]


def walk(tree, A: int, roots: tuple, kernel) -> None:
    """Walk ``tree`` (``LevelFrontier`` per depth, ``A`` children per active
    node) from the root rows ``roots`` (one array per node column).  For
    each block, ``kernel.block(fr, seeds, lo, hi, parents, kids)`` gets the
    depth, the slice of the seeds served and the rows of their parents
    ``lo .. hi - 1`` (each seed's), and writes and returns the children's
    rows in ``kids``, arrays of the ``kernel.columns`` (dtype, row shape).
    Two sets of child rows are used in turn: a block's children go into the
    set that does not hold its parents, and those carried to the next depth
    stay there when all are active, or are gathered into the other set.
    """
    size = max(BLOCK, A)
    sets = [tuple(np.empty((size,) + shape, dtype) for dtype, shape in kernel.columns)
            for _ in range(2)]
    index = np.empty(size, dtype=np.intp)
    stack = [(0, slice(0, roots[0].shape[0]), roots)]   # (first depth index, seeds, their rows)
    while stack:
        start, seeds, rows = stack.pop()
        G = seeds.stop - seeds.start
        for fr in islice(tree, start, None):
            width = fr.symbols.size
            P = rows[0].shape[0] // G   # parents per seed
            if G > 1 and G * width > BLOCK:
                # split; pushed last, the first subgroup is walked first
                per = _per_block(width)
                for a in reversed(range(0, G, per)):
                    b = min(a + per, G)
                    stack.append((fr.depth - 1, slice(seeds.start + a, seeds.start + b),
                                  tuple(x[a * P:b * P].copy() for x in rows)))
                break
            # the carried set is the one holding the parents, if either is
            kids, carry = sets[::-1] if np.may_share_memory(rows[0], sets[0][0]) else sets
            if G * width <= BLOCK:
                rows = _active(kernel.block(fr, seeds, 0, P, rows, kids),
                               fr.active_idx, G, carry, index)
                continue
            # one seed wider than a block: parents [a, b) own children [a*A, b*A),
            # and their active children go straight into the next depth's arrays
            cuts = list(range(0, P, max(1, BLOCK // A))) + [P]
            at = np.searchsorted(fr.active_idx, np.multiply(cuts, A)).tolist()
            nxt = tuple(np.empty((fr.active_idx.size,) + x.shape[1:], x.dtype) for x in rows)
            for a, b, i, j in zip(cuts, cuts[1:], at, at[1:]):
                dst = tuple(x[i:j] for x in nxt)   # the kids, when all stay active
                _active(kernel.block(fr, seeds, a, b, tuple(x[a:b] for x in rows),
                                     dst if j - i == (b - a) * A else kids),
                        fr.active_idx[i:j] - a * A, 1, dst, index)
            rows = nxt


def _active(kids: tuple, act: np.ndarray, G: int, carry: tuple, index: np.ndarray) -> tuple:
    """The children ``act`` (indices within one seed's block) of each of the
    ``G`` seeds whose children are ``kids``, seed-major: ``kids`` themselves
    when every child stays active, else gathered into ``carry``."""
    n = G * act.size
    if n == kids[0].shape[0]:
        return kids
    # np.take copies a read-only index (the tree's) on every call: copy it
    # once into the index buffer; mode="clip" gathers straight into carry
    idx = index[:act.size]
    np.copyto(idx, act)
    if G == 1:   # flat gathers, twice as fast as their per-seed forms
        return tuple(np.take(x, idx, axis=0, out=y[:n], mode="clip")
                     for x, y in zip(kids, carry))
    return tuple(np.take(x.reshape((G, -1) + x.shape[1:]), idx, axis=1,
                         out=y[:n].reshape((G, -1) + y.shape[1:]), mode="clip")
                 .reshape((n,) + y.shape[1:]) for x, y in zip(kids, carry))
