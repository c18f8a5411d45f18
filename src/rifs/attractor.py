"""Compositions, projections, and attractor point clouds.

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

Batch evaluation over a level set is vectorized across words (per-step
matrix stacks); its output is identical to evaluating words one at a time
because all randomness is keyed per word.  The result is a
:class:`PointCloud` of coordinate and radius arrays; per-point
:class:`ProjectedPoint` objects are built only when a caller indexes it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import keyed
from .errors import BudgetError, InputError
from .random_model import MatrixFamily, Realization
from .symbolic import (LevelSet, TailSequence, _write_atomic, validate_word,
                       word_strings)

MAP_BUDGET_DEFAULT = 200_000_000


@dataclass(frozen=True)
class CompositionResult:
    """Composed linear part along a word, with its log|det| accumulated in log-space."""

    matrix: np.ndarray
    log_abs_det: float
    word: tuple


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


def compose(r: Realization, word) -> CompositionResult:
    """Left-to-right product of the matrices at every prefix of ``word``."""
    w = validate_word(word, r.family.alphabet)
    if not w:
        raise InputError("compose needs a nonempty word")
    d = r.family.dimension
    mat = np.eye(d)
    log_det = 0.0
    for k in range(1, len(w) + 1):
        mat = mat @ r.sample_matrix(w[:k])
        log_det += r.log_abs_det(w[:k])
    mat.setflags(write=False)
    return CompositionResult(matrix=mat, log_abs_det=log_det, word=w)


def apply_map(r: Realization, word, x: np.ndarray) -> np.ndarray:
    """One application of f_word."""
    w = validate_word(word, r.family.alphabet)
    return r.sample_matrix(w) @ np.asarray(x, dtype=np.float64) + \
        r.family.translations[w[-1] - 1]


def iterate_maps(r: Realization, word, x) -> np.ndarray:
    """Apply the prefix maps of ``word`` innermost-first to ``x``.

    Reference evaluation of the composed map; the batch path below reproduces
    it up to floating-point regrouping (tests compare the two routes).
    """
    w = validate_word(word, r.family.alphabet)
    y = np.asarray(x, dtype=np.float64)
    for k in range(len(w), 0, -1):
        y = apply_map(r, w[:k], y)
    return y


class _AffineBatch:
    """Composed affine maps (M, v) for a batch of words, extended stepwise.

    Dimension 1 skips the stacked matmuls and works on flat scalar arrays;
    the arithmetic per element is identical either way.
    """

    def __init__(self, r: Realization, n: int):
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

    def step(self, symbols, rows=None) -> None:
        """Extend by one symbol (scalar or per-row); ``rows`` masks the batch."""
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

    def coords(self) -> np.ndarray:
        """Read-only (N, d) values of the composed maps at 0."""
        coords = self.v[:, None] if self.scalar else self.v
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
    batch = _AffineBatch(r, 1)
    for s in w:
        batch.step(s)
    for k in range(1, int(_tail_steps(r.family, b, depth)) + 1):
        batch.step(b.symbol(k))
    radius = r.family.rho_max ** (len(w) + depth) * bounding_ball(r.family)
    return ProjectedPoint(coordinates=batch.coords()[0], word=w, tail=b,
                          truncation_radius=radius)


def project_tail(r: Realization, a, b: TailSequence, depth: int) -> np.ndarray:
    """Tail projection under the environment of prefix ``a`` (maps of ``a``
    itself not applied); enclosure radius is ``rho_max**depth * R``.  Steps
    past ``_tail_steps`` are skipped, as they cannot change the value."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    w = validate_word(a, r.family.alphabet)
    b.validate(r.family.alphabet)
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


def project_level(r: Realization, L: LevelSet, b: TailSequence, target_radius: float,
                  map_budget: int = MAP_BUDGET_DEFAULT) -> PointCloud:
    """One enclosed point per level-set word, all radii <= ``target_radius``.

    Depth is chosen per word length (level sets mix lengths); evaluation is
    vectorized across words but keyed per word, so the result matches the
    sequential per-word run and the ordering of ``L``.  Tail steps after the
    last one with a nonzero translation are skipped (``_tail_steps``): the
    coordinates are bit-identical to the full-depth ones, and the radii and
    the up-front ``map_budget`` charge still use the full worst-case depth.
    """
    b.validate(r.family.alphabet)
    if len(L) == 0:
        return PointCloud(np.zeros((0, r.family.dimension)), np.zeros(0), L, b)
    rho = r.family.rho_max
    R = bounding_ball(r.family)
    lengths = L.lengths
    distinct, inverse = np.unique(lengths, return_inverse=True)
    depths = np.array([_required_depth(target_radius, int(la), rho, R)
                       for la in distinct])[inverse]
    applications = int(lengths.sum() + depths.sum())
    if applications > map_budget:
        raise BudgetError(
            f"projection map budget ({map_budget}) exceeded: "
            f"{applications} applications requested")

    batch = _AffineBatch(r, len(L))
    for j in range(L.word_matrix.shape[1]):
        rows = np.flatnonzero(lengths > j)
        batch.step(L.word_matrix[rows, j], rows)
    steps = _tail_steps(r.family, b, depths)
    for k in range(1, int(steps.max()) + 1):
        rows = np.flatnonzero(steps >= k)
        batch.step(b.symbol(k), rows)

    radii = rho ** (lengths + depths) * R
    radii.setflags(write=False)
    return PointCloud(batch.coords(), radii, L, b)


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
    for w, xy, rad in zip(words, coords.tolist(), radii.tolist()):
        xs = ",".join(repr(c) for c in xy)
        lines.append(f"{w},{xs},{rad!r}")
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
    for x, y in pix:
        parts.append(f'<circle cx="{x:.2f}" cy="{size - y:.2f}" r="1" fill="black"/>')
    parts.append("</svg>")
    _write_atomic(path, "\n".join(parts) + "\n")
