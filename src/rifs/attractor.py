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
:func:`project_levels` projects them for a seed group by one walk of it
(:func:`rifs.walk.walk`), so every prefix is composed once per realization.
Each row repeats exactly the operations of a word-by-word evaluation
(:func:`project`), so the coordinates are bit-identical to it whichever
words, levels, seeds and blocks are evaluated together.  One step function
(``_step``) serves the walk, the tail steps and :func:`project`.  For d >= 2
a product whose operand rows share is one BLAS call (``M t`` per symbol, the
sampler's ``O B`` per base); ``M A`` stays per row, on a broadcast view of
the parents' ``M``.  All are bit-identical.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import keyed, walk
from .errors import BudgetError, InputError
from .random_model import MatrixFamily, Realization
from .symbolic import (LevelSet, TailSequence, _write_atomic, text_table,
                       validate_word, write_word_table)

MAP_BUDGET_DEFAULT = 200_000_000


@dataclass(frozen=True, eq=False)
class ProjectedPoint:
    """Finite-depth evaluation of a projection with a guaranteed enclosure."""

    coordinates: np.ndarray
    word: tuple
    tail: TailSequence
    truncation_radius: float


@dataclass(frozen=True, eq=False)
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


def _step(r: Realization, states, M, v, symbols, out: tuple) -> tuple:
    """Each row's children, one per symbol (one symbol, or ``1..A``, children
    parent-major): a child absorbs its symbol into the row's chain state and
    takes ``v + M t`` and ``M A``; written into ``out``, which for one symbol may be the rows."""
    P, A = states.shape[0], np.size(symbols)
    syms = np.tile(symbols, P) if A > 1 else symbols
    if A > 1:
        states = keyed.repeat_children(states, A, out=out[0])
        if M.ndim == 1:   # d = 1 steps flat rows, repeated to the children
            M, v = (keyed.repeat_children(x, A, out=y) for x, y in zip((M, v), out[1:]))
    states = keyed.absorb(states, syms, out=out[0])
    if M.ndim == 1:
        v = np.add(v, M * r.family.translations[np.asarray(syms) - 1, 0], out=out[2])
        return states, np.multiply(M, r.scalars_from_chains(states, syms), out=out[1]), v
    d = M.shape[-1]
    mats = r.matrices_from_chains(states, syms)
    t = r.family.translations[np.asarray(symbols) - 1].reshape(A, d)
    for j in range(A):   # one product per symbol, before M may be overwritten
        np.add(v, (M.reshape(P * d, d) @ t[j]).reshape(P, d), out=out[2].reshape(P, A, d)[:, j])
    np.matmul(M[:, None], mats.reshape(P, A, d, d), out=out[1].reshape(P, A, d, d))
    return states, out[1], out[2]


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
        maps = _step(r, *maps, s, out=maps)
    radius = r.family.rho_max ** (len(w) + depth) * bounding_ball(r.family)
    return ProjectedPoint(coordinates=_coords(maps[2])[0], word=w, tail=b,
                          truncation_radius=radius)


def project_level(r: Realization, L: LevelSet, b: TailSequence, target_radius: float,
                  map_budget: int = MAP_BUDGET_DEFAULT) -> PointCloud:
    """One enclosed point per level-set word, all radii <= ``target_radius``.

    ``project_levels`` for the single realization ``r`` and level set ``L``.
    """
    return project_levels([r], [L], b, [target_radius], map_budget)[0][0]


def project_levels(rs, levels, b: TailSequence, target_radii,
                   map_budget: int = MAP_BUDGET_DEFAULT) -> list:
    """Point clouds of level sets selected from one cylinder tree, for a seed
    group ``rs`` (realizations of one family), from one walk of the tree.

    Returns ``clouds[j][i]``, level ``levels[i]`` under ``rs[j]``, with one
    target radius per level.  The tail depth is chosen per level and word
    length (level sets mix lengths) so that every radius is at most the
    level's target radius; the radii do not depend on the seed, and one
    read-only array serves every seed.  Tail steps after the last one with a
    nonzero translation are skipped (``_tail_steps``): the coordinates are
    bit-identical to the full-depth ones, and the radii and the up-front
    ``map_budget`` charge, per seed and level, still use the full depth.
    """
    if len(target_radii) != len(levels):
        raise InputError(f"need one target radius per level set: got {len(target_radii)} "
                         f"for {len(levels)}")
    if not rs:
        return []
    family = rs[0].family
    if any(q.family is not family for q in rs):
        raise InputError("a seed group must hold realizations of one family")
    b.validate(family.alphabet)
    if not levels:
        return [[] for _ in rs]
    tree = levels[0].tree
    if any(L.tree is not tree for L in levels):
        raise InputError("projected level sets must be selected from one cylinder tree")
    if tree[0].symbols.size != family.alphabet.size:
        raise InputError("level set and family alphabets disagree")
    rho = family.rho_max
    R = bounding_ball(family)
    radii, steps = [], []   # per level: each member's radius; each depth's tail steps
    for L, target in zip(levels, target_radii):
        depth = np.zeros(len(L.nodes) + 1, dtype=np.int64)   # tail depth per word length
        for k in np.flatnonzero([idx.size for idx in L.nodes]).tolist():
            depth[k + 1] = _required_depth(target, k + 1, rho, R)
        applications = int(L.lengths.sum() + depth[L.lengths].sum())
        if applications > map_budget:
            raise BudgetError(
                f"projection map budget ({map_budget}) exceeded: "
                f"{applications} applications requested")
        radii.append(rho ** (L.lengths + depth[L.lengths]) * R)
        radii[-1].setflags(write=False)
        steps.append(np.asarray(_tail_steps(family, b, depth)).tolist())

    projection = _Projection(rs, levels, b, steps)
    deepest = max(int(L.lengths.max(initial=0)) for L in levels)
    walk.walk(tree[:deepest], tree[0].symbols.size,
              _start(family, keyed.root_states([q.seed for q in rs])), projection)
    projection.flush()
    coords = _coords(projection.out)
    return [[PointCloud(coords[lo + j * len(L):lo + (j + 1) * len(L)], rad, L, b)
             for L, lo, rad in zip(levels, projection.starts, radii)]
            for j in range(len(rs))]


class _Projection:
    """The projection kernel of a walk: chain states and composed ``(M, v)``
    per node.  ``out`` takes the coordinates, level-major, then seed-major,
    then in word order.  Members of length ``k`` take ``steps[i][k]`` tail
    steps: without any, they are copied straight into ``out``; else they
    wait in one buffer of at most ``BLOCK`` rows for ``flush``.
    """

    def __init__(self, rs, levels, b: TailSequence, steps: list):
        self.r, self.b, self.levels, self.steps = rs[0], b, levels, steps
        self.A = levels[0].tree[0].symbols.size
        rows = _start(rs[0].family, np.empty(0, dtype=np.uint64))
        self.columns = tuple((x.dtype, x.shape[1:]) for x in rows)
        self.starts = [len(rs) * k for k in itertools.accumulate(map(len, levels), initial=0)]
        self.out = np.empty((self.starts[-1],) + rows[2].shape[1:])
        cap = min(walk.BLOCK, len(rs) * sum(idx.size for L, k_steps in zip(levels, steps)
                                            for k, idx in enumerate(L.nodes, 1) if k_steps[k]))
        # (states, M, v, tail steps, row of out) of the pending members
        self.pending = tuple(np.empty((cap,) + x.shape[1:], x.dtype) for x in rows) \
            + (np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.intp))
        self.held = 0

    def block(self, fr, seeds: slice, lo: int, hi: int, parents: tuple, kids: tuple) -> tuple:
        A, G, k = self.A, seeds.stop - seeds.start, fr.depth
        W = (hi - lo) * A   # children per seed
        kids = _step(self.r, *parents, fr.symbols[:A], out=tuple(x[:G * W] for x in kids))
        for i, L in enumerate(self.levels):
            idx = L.nodes[k - 1]
            a, z = np.searchsorted(idx, (lo * A, hi * A)).tolist()
            if a == z:
                continue
            rows = (np.arange(G)[:, None] * W + (idx[a:z] - lo * A)).ravel()
            # rows of out: each seed's level from starts[i], its length-k words from first
            first = self.starts[i] + int(np.searchsorted(L.lengths, k)) + a
            dest = (np.arange(seeds.start, seeds.stop)[:, None] * len(L) + first
                    + np.arange(z - a)).ravel()
            if self.steps[i][k]:
                self._hold(kids, rows, dest, self.steps[i][k])
            else:
                self.out[dest] = kids[2][rows]
        return kids

    def _hold(self, kids: tuple, rows: np.ndarray, dest: np.ndarray, steps: int) -> None:
        """Copy the members ``rows`` of ``kids`` into the pending buffer, bound
        for rows ``dest`` of ``out`` after ``steps`` tail steps."""
        cols = tuple(x[rows] for x in kids) + (np.full(rows.size, steps), dest)
        cap, at = self.pending[-1].size, 0
        while at < rows.size:
            n = min(rows.size - at, cap - self.held)
            for x, y in zip(cols, self.pending):
                y[self.held:self.held + n] = x[at:at + n]
            self.held += n
            at += n
            if self.held == cap:
                self.flush()

    def flush(self) -> None:
        """Take the pending members' tail steps, ordered by descending steps:
        step ``k`` takes the leading rows with at least ``k``, and a row that
        has taken its last step is copied out."""
        n, self.held = self.held, 0
        if not n:
            return
        order = np.argsort(-self.pending[3][:n], kind="stable")
        states, M, v, steps, dest = (x[:n][order] for x in self.pending)
        done = n   # rows from done on have taken all their steps
        for k in range(1, int(steps[0]) + 1):
            c = int(np.count_nonzero(steps >= k))
            self.out[dest[c:done]] = v[c:done]
            rows = (states[:c], M[:c], v[:c])
            _step(self.r, *rows, self.b.symbol(k), out=rows)
            done = c
        self.out[dest[:done]] = v[:done]


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
