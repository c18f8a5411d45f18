"""Enclosed projections and attractor point clouds.

The map at word ``w`` is ``f_w(x) = A_w x + t_last(w)``; the composition
along a word applies the maps of its prefixes outermost-first, so the
composed affine map of ``a_1 .. a_k`` is built incrementally as

    M <- M A_(a_1..a_j),    v <- M t_(a_j) + v    (old M in the v update).

Limit points of infinite words are never represented exactly: every
projection is evaluated at a finite depth ``K`` and carries a guaranteed
enclosure radius ``rho_max**(|a|+K) * R``, where ``B(0, R)`` is an a-priori
ball containing every projection.  The omitted tail is a point of that ball
pushed through ``|a| + K`` contractions, so the enclosure is sound whatever
the tail does.  Downstream geometry inflates/deflates by these radii.

A tail step whose symbol has translation 0 only multiplies ``M`` and adds
``M @ 0`` to ``v``, which leaves ``v`` bit for bit unchanged.  Each word's
tail therefore ends after its last translation-bearing step (or at ``K``, if
sooner): the coordinates equal the full depth-``K`` evaluation exactly, while
the radius and the ``map_budget`` charge stay those of depth ``K``.

Level sets are selections of one cylinder tree (:mod:`rifs.symbolic`), and
:func:`project_levels` walks that tree once per seed group: a sequence of
realizations of one family, stepped together.  Each depth's rows are
seed-major (every seed has the same nodes), and each carries the chain state
and the composed ``(M, v)`` of its node, so every prefix is composed once
per realization and shared by all its descendants.  The members of every
level and seed are then copied once into merged arrays, ordered by
descending tail depth, and one loop of ``max(depth)`` tail steps serves them
all: step ``k`` takes the leading rows that still need it.  Each row repeats
exactly the operations of a word-by-word evaluation (:func:`project`), so
the coordinates are bit-identical to it whichever words, levels and seeds
are evaluated together.  ``GROUP_ROWS`` caps a group's widest array, a
depth of the walk or the merged members (:func:`walk_rows`):
:func:`seed_groups` cuts a run's seeds into consecutive groups under it (one
seed when a seed's rows alone exceed it), so memory does not grow with the
number of seeds, and :func:`map_seed_groups` maps a run's groups over its
threads.  The result is a :class:`PointCloud` of coordinate and radius
arrays per seed and level; per-point :class:`ProjectedPoint` objects are
built only when a caller indexes it.  :func:`write_points_csv` writes a
cloud with the level-set writer's byte tables (:func:`rifs.symbolic.write_word_table`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import keyed
from .errors import BudgetError, InputError
from .random_model import MatrixFamily, Realization
from .symbolic import (LevelSet, TailSequence, _write_atomic, text_table,
                       validate_word, write_word_table)

MAP_BUDGET_DEFAULT = 200_000_000
# rows of the widest array of one seed group: a depth of its walk, or the
# merged members of all its levels (see walk_rows and seed_groups)
GROUP_ROWS = 1 << 14


@dataclass(frozen=True)
class ProjectedPoint:
    """Finite-depth evaluation of a projection with a guaranteed enclosure."""

    coordinates: np.ndarray
    word: tuple
    tail: TailSequence
    truncation_radius: float


@dataclass(frozen=True)
class PointCloud:
    """Enclosed projections of a level set, one row per word in its order.

    ``coords`` has shape (N, d) and ``radii`` shape (N,).  Integer indexing
    and iteration yield :class:`ProjectedPoint` views built on demand.
    """

    coords: np.ndarray
    radii: np.ndarray
    level_set: LevelSet
    tail: TailSequence

    def __len__(self) -> int:
        return self.radii.size

    def __getitem__(self, i: int) -> ProjectedPoint:
        i = operator.index(i)
        return ProjectedPoint(coordinates=self.coords[i], word=self.level_set.words[i],
                              tail=self.tail, truncation_radius=float(self.radii[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def bounding_ball(family: MatrixFamily) -> float:
    """Radius R with every projection inside B(0, R): max|t| / (1 - rho_max)."""
    max_t = float(np.linalg.norm(family.translations, axis=1).max())
    return max_t / (1.0 - family.rho_max)


def _start(family: MatrixFamily, states: np.ndarray) -> tuple:
    """Chain states, linear parts and translations of identity maps, one per state.

    Dimension 1 keeps flat scalar arrays instead of 1x1 matrix stacks; the
    arithmetic per element is identical either way.
    """
    d = family.dimension
    n = states.size
    if d == 1:
        return states, np.ones(n), np.zeros(n)
    return states, np.broadcast_to(np.eye(d), (n, d, d)).copy(), np.zeros((n, d))


def _step(r: Realization, states, M, v, symbols) -> tuple:
    """Extend composed maps by one symbol each (scalar or per row):
    absorb the symbol, sample its matrix ``A``, then ``v += M t`` and ``M = M A``."""
    states = keyed.absorb(states, symbols)
    syms = np.broadcast_to(np.asarray(symbols, dtype=np.int64), states.shape)
    t = r.family.translations[syms - 1]
    if M.ndim == 1:
        return states, M * r.scalars_from_chains(states, symbols), v + M * t[:, 0]
    mats = r.matrices_from_chains(states, symbols)
    return states, M @ mats, v + (M @ t[:, :, None])[:, :, 0]


def _coords(v: np.ndarray) -> np.ndarray:
    """Read-only (N, d) values of the composed maps at 0."""
    coords = v[:, None] if v.ndim == 1 else v
    coords.setflags(write=False)
    return coords


def _required_depth(target_radius: float, word_len: int, rho: float, R: float) -> int:
    """Smallest K >= 1 with rho**(word_len + K) * R <= target_radius."""
    if target_radius <= 0.0:
        raise InputError("target radius must be positive")
    need = (math.log(target_radius) - math.log(R)) / math.log(rho) - word_len
    return max(1, int(math.ceil(need - 1e-12)))


def _tail_steps(family: MatrixFamily, b: TailSequence, depth):
    """Tail steps that can move the point: ``min(depth, k*)``, elementwise.

    ``k*`` is the last position of ``b`` whose symbol has a nonzero
    translation (unbounded when the period holds one, 0 when no symbol
    does).  A later step only multiplies ``M`` and adds ``M @ 0`` to ``v``,
    which leaves ``v`` bit for bit unchanged (``v`` starts at +0.0 and a sum
    is -0.0 only when both terms are), so the cut changes no coordinate.
    """
    moving = np.any(family.translations != 0.0, axis=1)
    if any(moving[s - 1] for s in b.period):
        return depth
    return np.minimum(depth, max((k for k, s in enumerate(b.prefix, 1) if moving[s - 1]),
                                 default=0))


def project(r: Realization, a, b: TailSequence, depth: int) -> ProjectedPoint:
    """Depth-``depth`` evaluation of the projection of ``a`` followed by tail ``b``.

    Evaluates the composed map of ``a . b_1 .. b_K`` at 0 and encloses the
    limit within ``rho_max**(|a|+K) * R``; steps past ``_tail_steps`` are
    skipped, as they cannot change the coordinates.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    w = validate_word(a, r.family.alphabet)
    b.validate(r.family.alphabet)
    maps = _start(r.family, r.root_chain())
    for s in w + b.first(int(_tail_steps(r.family, b, depth))):
        maps = _step(r, *maps, s)
    radius = r.family.rho_max ** (len(w) + depth) * bounding_ball(r.family)
    return ProjectedPoint(coordinates=_coords(maps[2])[0], word=w, tail=b,
                          truncation_radius=radius)


def project_level(r: Realization, L: LevelSet, b: TailSequence, target_radius: float,
                  map_budget: int = MAP_BUDGET_DEFAULT) -> PointCloud:
    """One enclosed point per level-set word, all radii <= ``target_radius``.

    ``project_levels`` for the single realization ``r`` and level set ``L``.
    """
    return project_levels([r], [L], b, [target_radius], map_budget)[0][0]


def walk_rows(levels) -> int:
    """Rows one seed adds to the widest array of a ``project_levels`` walk of
    ``levels``: a depth of the tree down to the deepest member, or the
    members of all levels, which take their tail steps together."""
    deepest = max(int(L.lengths.max(initial=0)) for L in levels)
    return max([fr.symbols.size for fr in levels[0].tree[:deepest]]
               + [sum(len(L) for L in levels)])


def seed_groups(n_seeds: int, rows: int, threads: int = 1) -> list:
    """Consecutive ranges of ``range(n_seeds)``, one per seed group of a walk
    whose widest array takes ``rows`` rows per seed.

    A group holds at most ``GROUP_ROWS`` rows (one seed when ``rows`` alone
    exceeds it).  With ``threads >= 2`` it also holds at most
    ``ceil(n_seeds / threads)`` seeds, and few enough that the workers get at
    least ``min(threads, n_seeds)`` groups; with one thread the groups are
    as wide as the row cap allows.
    """
    per = min(GROUP_ROWS // max(rows, 1), -(-n_seeds // threads))
    if threads > 1:   # ceil(n_seeds / per) >= threads needs per < n_seeds / (threads - 1)
        per = min(per, -(-n_seeds // (threads - 1)) - 1)
    per = max(1, per)
    return [range(lo, min(lo + per, n_seeds)) for lo in range(0, n_seeds, per)]


def map_seed_groups(fn, family: MatrixFamily, master_seed: int, n_seeds: int, rows: int,
                    threads: int = 1) -> list:
    """``fn(rs)`` for the realizations ``rs`` of each ``seed_groups`` range,
    seed ``j`` keyed by ``derive_seed(master_seed, j)``, on ``threads``
    worker threads; the per-seed results of every group, in seed order."""
    groups = seed_groups(n_seeds, rows, threads)

    def group(g: int) -> list:
        return fn([Realization(keyed.derive_seed(master_seed, j), family) for j in groups[g]])

    return [x for out in keyed.map_seeds(group, len(groups), threads) for x in out]


def project_levels(rs, levels, b: TailSequence, target_radii,
                   map_budget: int = MAP_BUDGET_DEFAULT) -> list:
    """Point clouds of level sets selected from one cylinder tree, for a seed
    group ``rs`` (realizations of one family), from one walk of the tree.

    Returns ``clouds[j][i]``, level ``levels[i]`` under ``rs[j]``.  The tree
    is walked down to the deepest member, composing every node's map from
    its parent's, for every seed at once: each depth's rows are seed-major,
    seed ``j``'s node ``idx`` at row ``j * width + idx``.  The members of
    every level and seed are copied once into merged arrays, ordered by
    descending tail steps, and one loop of tail steps serves them all: step
    ``k`` takes the leading rows with at least ``k`` steps, and a row that
    has taken its last step is copied out to its level, seed and word.  The
    tail depth is chosen per level and word length (level sets mix lengths)
    so that every radius is at most the level's target radius; the radii do
    not depend on the seed, and one read-only array serves every seed.  Tail
    steps after the last one with a nonzero translation are skipped
    (``_tail_steps``): the coordinates are bit-identical to the full-depth
    ones, and the radii and the up-front ``map_budget`` charge, per seed and
    level, still use the full worst-case depth and the word lengths.  When
    no row takes a tail step, only the members' translations are kept.
    """
    if not rs:
        return []
    family = rs[0].family
    if any(q.family is not family for q in rs):
        raise InputError("a seed group must hold realizations of one family")
    b.validate(family.alphabet)
    if not levels:
        return [[] for _ in rs]
    rho = family.rho_max
    R = bounding_ball(family)
    depths = []
    for L, target in zip(levels, target_radii):
        distinct, inverse = np.unique(L.lengths, return_inverse=True)
        depths.append(np.array([_required_depth(target, int(la), rho, R)
                                for la in distinct], dtype=np.int64)[inverse])
        applications = int(L.lengths.sum() + depths[-1].sum())
        if applications > map_budget:
            raise BudgetError(
                f"projection map budget ({map_budget}) exceeded: "
                f"{applications} applications requested")
    tree = levels[0].tree
    if any(L.tree is not tree for L in levels):
        raise InputError("projected level sets must be selected from one cylinder tree")

    S = len(rs)
    r = rs[0]   # sampling reads only the family and the chain states
    seed_rows = np.arange(S)[:, None]
    A = tree[0].symbols.size   # the root's children
    sizes = [len(L) for L in levels]
    starts = [S * k for k in itertools.accumulate(sizes, initial=0)]   # merged row of each level
    # tail steps of every member, level-major, then seed-major, then word order
    steps = np.concatenate([np.tile(_tail_steps(family, b, depth), S) for depth in depths])
    order = np.argsort(-steps, kind="stable")   # merged row -> member
    pos = np.empty_like(order)                  # member -> merged row
    pos[order] = np.arange(order.size)
    K = int(steps.max(initial=0))
    # merged (states, M, v) of the members; the translations alone without tail steps
    kept = slice(0, 3) if K else slice(2, 3)
    merged = [np.empty((starts[-1],) + a.shape[1:], a.dtype)
              for a in _start(family, np.empty(0, dtype=np.uint64))[kept]]
    filled = [0] * len(levels)   # per level: members of each seed copied so far
    maps = _start(family, np.concatenate([q.root_chain() for q in rs]))
    for fr in tree[:max(int(L.lengths.max(initial=0)) for L in levels)]:
        maps = _step(r, *(np.repeat(a, A, axis=0) for a in maps), np.tile(fr.symbols, S))
        first = seed_rows * fr.symbols.size   # each seed's first row at this depth
        for i, L in enumerate(levels):
            idx = L.nodes[fr.depth - 1]
            if idx.size:
                dest = pos[starts[i] + seed_rows * sizes[i] + filled[i] + np.arange(idx.size)]
                for arr, a in zip(merged, maps[kept]):
                    arr[dest] = a[first + idx]
                filled[i] += idx.size
        rows = (first + fr.active_idx).ravel()
        maps = tuple(a[rows] for a in maps)

    v = merged[-1]   # without tail steps, merged order is member order
    if K:
        states, M, _ = merged
        done = v.shape[0]   # merged rows from done on have taken all their steps
        by_member = np.empty_like(v)
        for k in range(1, K + 1):
            c = int(np.count_nonzero(steps >= k))
            by_member[order[c:done]] = v[c:done]
            states, M, v = _step(r, states[:c], M[:c], v[:c], b.symbol(k))
            done = c
        by_member[order[:done]] = v
        v = by_member
    coords = _coords(v)
    clouds = []
    for L, lo, depth in zip(levels, starts, depths):
        radii = rho ** (L.lengths + depth) * R
        radii.setflags(write=False)
        n = len(L)
        clouds.append([PointCloud(coords[lo + j * n:lo + (j + 1) * n], radii, L, b)
                       for j in range(S)])
    return [list(per_seed) for per_seed in zip(*clouds)]


def points_to_arrays(points) -> tuple:
    """(coords (N,d), trunc_radii (N,)) of a PointCloud; raw coordinates get zero radii."""
    if isinstance(points, PointCloud):
        return points.coords, points.radii
    coords = np.asarray(points, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords, np.zeros(coords.shape[0])


def write_points_csv(points, path, header_comment: str | None = None) -> None:
    """CSV columns ``word,x_1..x_d,trunc_radius``; raw coordinates get empty words."""
    coords, radii = points_to_arrays(points)
    words = (points.level_set.word_matrix if isinstance(points, PointCloud)
             else np.zeros((radii.size, 0), dtype=np.uint8))
    d = coords.shape[1]
    head = f"# {header_comment}\n" if header_comment else ""
    head += "word," + ",".join(f"x_{i + 1}" for i in range(d)) + ",trunc_radius\n"
    table, index = text_table(coords, repr)
    write_word_table(path, head, words, [(table, index[:, i]) for i in range(d)]
                     + [text_table(radii, repr)])


def write_svg_scatter(points, path, header_comment: str | None = None) -> None:
    """Diagnostic 1024x1024 scatter of a 2D point cloud, radius-1 circles."""
    coords, _ = points_to_arrays(points)
    if coords.shape[1] != 2:
        raise InputError("SVG scatter is only available for 2D point clouds")
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    size = 1024
    pix = (coords - lo) / span * (size - 20) + 10
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    if header_comment:
        parts.append(f"<!-- {header_comment} -->")
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    for x, y in pix.tolist():
        parts.append(f'<circle cx="{x:.2f}" cy="{size - y:.2f}" r="1" fill="black"/>')
    parts.append("</svg>")
    _write_atomic(path, [("\n".join(parts) + "\n").encode()])
