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
per realization and shared by all its descendants; a level's cloud is its
members' nodes plus their own tail steps.  Each row repeats exactly the
operations of a word-by-word evaluation (:func:`project`), so the
coordinates are bit-identical to it whichever words and seeds are evaluated
together.  A group's rows are capped by ``GROUP_ROWS`` (:func:`seed_groups`),
so memory does not grow with the number of seeds.  The result is a
:class:`PointCloud` of coordinate and radius arrays per seed and level;
per-point :class:`ProjectedPoint` objects are built only when a caller
indexes it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import keyed
from .errors import BudgetError, InputError
from .random_model import MatrixFamily, Realization
from .symbolic import (LevelSet, TailSequence, _write_atomic, format_distinct,
                       validate_word, word_strings)

MAP_BUDGET_DEFAULT = 200_000_000
# rows of the widest array of one seed group's walk (see seed_groups)
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


def seed_groups(n_seeds: int, levels) -> list:
    """Consecutive ranges of ``range(n_seeds)`` to pass to ``project_levels`` together.

    A group's widest array (a depth of the walk, or a level's members) holds
    at most ``GROUP_ROWS`` rows, or one seed's rows when those alone exceed it.
    """
    tree = levels[0].tree
    deepest = max(int(L.lengths.max(initial=0)) for L in levels)
    rows = max([fr.symbols.size for fr in tree[:deepest]] + [len(L) for L in levels])
    per = max(1, GROUP_ROWS // rows)
    return [range(lo, min(lo + per, n_seeds)) for lo in range(0, n_seeds, per)]


def _seed_major(parts: list, seeds: int) -> np.ndarray:
    """Join per-depth seed-major row blocks so that each seed's rows stay contiguous."""
    if len(parts) == 1:
        return parts[0]
    tail = parts[0].shape[1:]
    return np.concatenate([p.reshape((seeds, -1) + tail) for p in parts],
                          axis=1).reshape((-1,) + tail)


def project_levels(rs, levels, b: TailSequence, target_radii,
                   map_budget: int = MAP_BUDGET_DEFAULT) -> list:
    """Point clouds of level sets selected from one cylinder tree, for a seed
    group ``rs`` (realizations of one family), from one walk of the tree.

    Returns ``clouds[j][i]``, level ``levels[i]`` under ``rs[j]``.  The tree
    is walked down to the deepest member, composing every node's map from
    its parent's, for every seed at once: each depth's rows are seed-major,
    seed ``j``'s node ``idx`` at row ``j * width + idx``.  Each level's cloud
    takes its members' maps and adds their tail steps.  The tail depth is
    chosen per word length (level sets mix lengths) so that every radius is
    at most the level's target radius; the radii do not depend on the seed,
    and one read-only array serves every seed.  Tail steps after the last
    one with a nonzero translation are skipped (``_tail_steps``): the
    coordinates are bit-identical to the full-depth ones, and the radii and
    the up-front ``map_budget`` charge, per seed and level, still use the
    full worst-case depth and the word lengths.
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
    picked = [[] for _ in levels]   # per level: (states, M, v) of its members, per depth
    maps = _start(family, np.concatenate([q.root_chain() for q in rs]))
    for fr in tree[:max(int(L.lengths.max(initial=0)) for L in levels)]:
        maps = _step(r, *(np.repeat(a, A, axis=0) for a in maps), np.tile(fr.symbols, S))
        first = seed_rows * fr.symbols.size   # each seed's first row at this depth
        for chunks, L in zip(picked, levels):
            idx = L.nodes[fr.depth - 1]
            if idx.size:
                rows = (first + idx).ravel()
                chunks.append(tuple(a[rows] for a in maps))
        rows = (first + fr.active_idx).ravel()
        maps = tuple(a[rows] for a in maps)

    clouds = []
    for L, chunks, depth in zip(levels, picked, depths):
        states, M, v = (_seed_major(parts, S) for parts in zip(*chunks)) if chunks \
            else _start(family, np.empty(0, dtype=np.uint64))
        steps = np.tile(_tail_steps(family, b, depth), S)
        for k in range(1, int(steps.max(initial=0)) + 1):
            rows = np.flatnonzero(steps >= k)
            states[rows], M[rows], v[rows] = _step(r, states[rows], M[rows], v[rows],
                                                   b.symbol(k))
        radii = rho ** (L.lengths + depth) * R
        radii.setflags(write=False)
        coords = _coords(v)
        n = len(L)
        clouds.append([PointCloud(coords[j * n:(j + 1) * n], radii, L, b)
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
    words = (word_strings(points.level_set) if isinstance(points, PointCloud)
             else [""] * len(radii))
    d = coords.shape[1]
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("word," + ",".join(f"x_{i + 1}" for i in range(d)) + ",trunc_radius")
    xs = (",".join(map(repr, xy)) for xy in coords.tolist())
    lines.extend(map(",".join, zip(words, xs, format_distinct(radii, repr))))
    _write_atomic(path, "\n".join(lines) + "\n")


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
    _write_atomic(path, "\n".join(parts) + "\n")
