"""Grid-based Lebesgue estimates of ball unions around projections.

A coverage grid is a uniform d-dimensional lattice of cells over a box.  A
ball is rasterized by its cell *centers*: the outer estimate counts a cell
when its center lies within ``radius + truncation_radius`` of the point, the
inner estimate uses ``radius - truncation_radius - h sqrt(d)/2`` (cells then
certainly lie inside the true ball), so `inner <= truth' <= ~outer` and both
tighten as the mesh shrinks.  Degenerate radius-0 balls are single points of
measure zero and contribute nothing.  Rasterizing works on grid rows: every
ball covers one interval of the last axis on each row of its index box, the
interval ends are found exactly, and the union of all intervals is kept as a
``CellSet``: sorted, merged ranges of flat cell indices.  No per-ball loop
runs and nothing grid-sized is allocated, so memory is O(#row intervals)
rather than O(#cells).  A set's measure is its summed range length times the
cell volume, and the tail union merges two range lists.

The level-n union fattens each level-set projection by
``(m([a]) g(n))**(1/d)``, so the level sets are the estimate's only level
input: they are selected once per run from one cylinder tree, and
:func:`coverage_estimates` projects them for a seed group by one walk of it
(``project_levels``).  ``attractor.GROUP_ROWS`` bounds the group's widest
array, a depth of the walk or the members of all levels merged for the tail
steps (one seed's rows when those alone are wider).  Each seed's unions are
then rasterized, with its own warnings, as if it had been projected alone.

The limsup target set has no finite surrogate; as a proxy,
``running_intersection_measure[N]`` reports the measure of cells covered at
some level n >= N within the computed range, equivalently the measure of
cells covered in at least one level of every window starting at M <= N,
minimized over M.  It is nonincreasing in N: divergent gauges keep the tail
fat, summable gauges let it collapse.

The box defaults to the conservative a-priori bounding ball but may be any
box; balls that stick out are clipped (estimates then undershoot) with a
warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..attractor import MAP_BUDGET_DEFAULT, PointCloud, project_levels
from ..errors import BudgetError, InputError, InvariantError
from ..random_model import Realization
from ..symbolic import (SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT,
                        level_sets, slow_decay_constant)
from .runs import blocks, ranges

_GRID_CELL_BUDGET = 50_000_000


class CellSet:
    """Flat grid cells as ``[first, last]`` index ranges, kept sorted, disjoint
    and non-adjacent, so equal sets hold equal arrays in any order of adding."""

    def __init__(self):
        self.first = self.last = np.zeros(0, dtype=np.int64)

    def add(self, first: np.ndarray, last: np.ndarray) -> None:
        """Add the cells ``first[k]..last[k]`` for every k; empty ranges are skipped."""
        keep = last >= first
        first = np.concatenate((self.first, first[keep]))
        last = np.concatenate((self.last, last[keep]))
        order = first.argsort()
        first = first[order]
        last = np.maximum.accumulate(last[order])
        gaps = (first[1:] > last[:-1] + 1).nonzero()[0]   # a new range opens at gaps + 1
        self.first = np.concatenate((first[:1], first[gaps + 1]))
        self.last = np.concatenate((last[gaps], last[-1:]))

    def __ior__(self, other: CellSet) -> CellSet:
        self.add(other.first, other.last)
        return self


@dataclass(frozen=True)
class CoverageGrid:
    """Uniform cell grid over a box; cell centers at lo + (i + 1/2) h."""

    lo: np.ndarray
    hi: np.ndarray
    h: float
    shape: tuple = field(init=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("grid box corners must be vectors of equal length")
        if np.any(hi <= lo):
            raise InputError("grid box must have positive extent in every dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("grid box corners must be finite")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InputError(f"grid resolution h must be finite and positive, got {self.h!r}")
        with np.errstate(over="ignore"):
            volumes = np.array([np.prod(hi - lo), np.float64(self.h) ** lo.size])
        if not np.all(np.isfinite(volumes)):
            raise InputError("grid box and cell volumes must be finite")
        shape = tuple(int(math.ceil((b - a) / self.h)) for a, b in zip(lo, hi))
        if math.prod(shape) > _GRID_CELL_BUDGET:
            raise BudgetError(
                f"coverage grid cell budget ({_GRID_CELL_BUDGET}) exceeded: shape {shape}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        lo.setflags(write=False)
        hi.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.lo.size

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def measure(self, cells: CellSet) -> float:
        count = (cells.last - cells.first).sum() + cells.first.size
        return float(count) * self.h ** self.dimension

    def mark_balls(self, cells: CellSet, centers: np.ndarray,
                   radii: np.ndarray) -> bool:
        """Add to ``cells`` the cells whose center is within radius of each point.

        Each ball is cut into the grid rows of its index box (one row per
        index tuple of the leading axes); on a row the marked cells form one
        interval of the last axis, so only the interval ends are searched and
        each row adds one flat-index range to the set.  In d >= 2 a cell is
        marked when its squared center offset, summed axis by axis, is at
        most ``rad * rad``; in d = 1 the index box itself is the interval.

        Returns True when some ball was clipped by the box.
        """
        centers = np.atleast_2d(centers)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (centers.shape[0],))
        pos = radii > 0.0
        if not pos.all():
            centers, radii = centers[pos], radii[pos]
        if radii.size == 0:
            return False
        lower = centers - radii[:, None]
        upper = centers + radii[:, None]
        clipped = bool(np.any(lower < self.lo) or np.any(upper > self.hi))
        shape = np.asarray(self.shape)
        first = np.maximum(np.ceil((lower - self.lo) / self.h - 0.5).astype(np.int64), 0)
        last = np.minimum(np.floor((upper - self.lo) / self.h - 0.5).astype(np.int64), shape - 1)
        if self.dimension == 1:
            # a ball wholly past the upper end marks the last cell, as it always has
            first = np.minimum(first, shape - 1)
        inside = np.all(last >= first, axis=1)
        if not inside.all():
            centers, radii, first, last = centers[inside], radii[inside], first[inside], last[inside]
        # blocks bound the per-row temporaries: weigh each ball by its rows
        for a, b in blocks(np.prod(last[:, :-1] - first[:, :-1] + 1, axis=1)):
            self._mark_rows(cells, centers[a:b], radii[a:b], first[a:b], last[a:b])
        return clipped

    def _mark_rows(self, cells, centers, radii, first, last) -> None:
        """Add the marked cells of every row of every ball to the set."""
        h = self.h
        ball = np.arange(radii.size)
        row = np.zeros(radii.size, dtype=np.int64)    # flat index of the row / last-axis size
        lead2 = np.zeros(radii.size)                  # squared offset over the leading axes
        for ax in range(self.dimension - 1):
            count = last[ball, ax] - first[ball, ax] + 1
            j = ranges(first[ball, ax], count)
            owner = np.repeat(np.arange(ball.size), count)
            ball = ball[owner]
            a = self.lo[ax] + (j + 0.5) * h - centers[ball, ax]
            lead2 = lead2[owner] + a ** 2
            row = row[owner] * self.shape[ax] + j
        lo_cell = first[ball, -1]
        hi_cell = last[ball, -1]
        if self.dimension > 1:
            lo_cell, hi_cell = self._row_interval(centers[ball, -1], radii[ball] * radii[ball],
                                                  lead2, lo_cell, hi_cell)
        cells.add(row * self.shape[-1] + lo_cell, row * self.shape[-1] + hi_cell)

    def _row_interval(self, x, rad2, lead2, lo_cell, hi_cell) -> tuple:
        """Exact [first, last] marked cells of each row within [lo_cell, hi_cell].

        With the offset ``a(j) = lo + (j + 1/2) h - x`` nondecreasing in j and
        ``lead2 + a*a`` nondecreasing in |a|, the cells at or past the left end
        are those with ``a > 0`` or a marked center, and the cells at or before
        the right end those with ``a < 0`` or a marked center: both tests are
        monotone in j.  The ends are estimated with ``sqrt`` and then stepped
        until each test flips exactly at them.
        """
        lo = self.lo[-1]
        h = self.h

        def settle(end, side):
            # side +1: left end, test "a > 0 or marked"; side -1: right end, "a < 0 or marked"
            def holds(j):
                a = lo + (j + 0.5) * h - x
                return (lo_cell <= j) & (j <= hi_cell) & ((side * a > 0.0) | (lead2 + a ** 2 <= rad2))

            while True:
                grow = holds(end - side)
                shrink = ~grow & (lo_cell <= end) & (end <= hi_cell) & ~holds(end)
                if not (grow.any() or shrink.any()):
                    return end
                end = end + side * (shrink.astype(np.int64) - grow)

        half = np.sqrt(np.maximum(rad2 - lead2, 0.0))
        left = np.ceil((x - half - lo) / h - 0.5).astype(np.int64)
        right = np.floor((x + half - lo) / h - 0.5).astype(np.int64)
        return (settle(np.clip(left, lo_cell, hi_cell + 1), 1),
                settle(np.clip(right, lo_cell - 1, hi_cell), -1))


@dataclass(frozen=True)
class CoverageReport:
    """Per-level union measures and the tail-union limsup proxy."""

    grid: CoverageGrid
    regime: str                          # "divergent" | "convergent"
    per_level_outer: dict                # n -> outer estimate
    per_level_inner: dict                # n -> inner estimate
    running_intersection_measure: dict   # N -> tail union measure over n >= N


def coverage_estimate(r: Realization, levels, b: TailSequence, g, grid: CoverageGrid,
                      map_budget: int = MAP_BUDGET_DEFAULT) -> CoverageReport:
    """Rasterize the level-n ball unions with radii (m([a]) g(n))^(1/d).

    ``coverage_estimates`` for the single realization ``r``.
    """
    return coverage_estimates([r], levels, b, g, grid, map_budget)[0]


def coverage_estimates(rs, levels, b: TailSequence, g, grid: CoverageGrid,
                       map_budget: int = MAP_BUDGET_DEFAULT) -> list:
    """Coverage reports of a seed group ``rs`` (realizations of one family),
    one per realization, in order.

    ``levels`` are the run's ``level_sets(m, n_values)``, selected once from
    one cylinder tree and shared by every seed group; each level index is
    its set's ``n``.  ``g`` is called with each level index and names the
    regime (``g.regime``, divergent when it has none).  The gauged levels of
    every seed of the group are projected by one walk of that tree
    (``project_levels``), resolved until every enclosure is at most an
    eighth of the smallest positive ball radius at its level, keeping outer
    and inner estimates honest.  Each seed's unions are then rasterized, and
    its warnings issued, as if it had been projected alone.
    """
    if not rs:
        return []
    d = rs[0].family.dimension
    if grid.dimension != d:
        raise InputError("grid dimension does not match the family")
    if not levels:
        raise InputError("coverage needs at least one level set")

    gauged = []   # (level position, ball radii) where g(n) > 0
    for k, L in enumerate(levels):
        gn = float(g(L.n))
        if gn < 0.0:
            raise InputError(f"gauge function must be nonnegative, g({L.n}) = {gn}")
        if gn > 0.0:
            rad = (L.measures * gn) ** (1.0 / d)
            if not np.any(rad > 0.0):
                raise InputError(f"every level-{L.n} ball radius underflows to 0 "
                                 f"with g({L.n}) = {gn}")
            gauged.append((k, rad))
    groups = project_levels(rs, [levels[k] for k, _ in gauged], b,
                            [float(rad[rad > 0.0].min()) / 8.0 for _, rad in gauged],
                            map_budget)
    regime = getattr(g, "regime", "divergent")
    reports = []   # a plain loop: the warnings' stacklevel counts its frames
    for clouds in groups:
        balls = {k: (rad, pts) for (k, rad), pts in zip(gauged, clouds)}
        reports.append(_coverage_report(grid, regime, levels, balls))
    return reports


def _coverage_report(grid: CoverageGrid, regime: str, levels, balls: dict) -> CoverageReport:
    """One seed's union measures; ``balls`` maps a level position to its ball
    radii and point cloud, for the levels with ``g(n) > 0``."""
    sqrt_d = math.sqrt(grid.dimension)
    per_outer = {}
    per_inner = {}
    running = {}
    tail = CellSet()   # the union of the outer cells of the levels done so far
    warned_coarse = False
    warned_clip = False
    # deepest level first, so one running set holds the tail union over n >= N
    for k in sorted(range(len(levels)), key=lambda k: levels[k].n, reverse=True):
        n = levels[k].n
        outer = CellSet()
        inner = CellSet()
        if k in balls:
            radii, pts = balls[k]
            clipped = grid.mark_balls(outer, pts.coords, radii + pts.radii)
            inner_radii = radii - pts.radii - grid.h * sqrt_d / 2.0
            if np.all(inner_radii <= 0.0) and not warned_coarse:
                warnings.warn(
                    f"grid resolution h={grid.h} is coarse relative to the level-{n} "
                    "ball radii; inner estimate is 0", stacklevel=3)
                warned_coarse = True
            grid.mark_balls(inner, pts.coords, inner_radii)
            if clipped and not warned_clip:
                warnings.warn(
                    "some balls extend beyond the grid box and were clipped; "
                    "estimates undershoot the true union", stacklevel=3)
                warned_clip = True
        per_outer[n] = grid.measure(outer)
        per_inner[n] = grid.measure(inner)
        if per_inner[n] > per_outer[n]:
            raise InvariantError(
                f"inner estimate {per_inner[n]} above outer {per_outer[n]} at level {n}")
        tail |= outer
        running[n] = grid.measure(tail)

    return CoverageReport(grid=grid, regime=regime, per_level_outer=per_outer,
                          per_level_inner=per_inner, running_intersection_measure=running)


@dataclass(frozen=True)
class AttractorMeasureReport:
    """Outer measures of the point cloud fattened at the level's natural scale."""

    grid: CoverageGrid
    diam_scale: float
    per_level: dict
    last3_rel_change: float
    points: PointCloud       # the deepest level's cloud


def attractor_measure_estimate(r: Realization, m: SymbolicMeasure, n_values,
                               grid: CoverageGrid, diam_scale: float = 1.0,
                               b: TailSequence | None = None,
                               word_budget: int = WORD_BUDGET_DEFAULT,
                               map_budget: int = MAP_BUDGET_DEFAULT) -> AttractorMeasureReport:
    """Fatten level-n projections by diam_scale * c_m^(n/d) and measure the union.

    The sequence stabilizes toward the attractor's measure when it is
    positive and keeps decaying in the measure-zero regime; the last-3-level
    relative change quantifies which is happening at the computed depth.
    """
    if diam_scale <= 0.0:
        raise InputError("diam_scale must be positive")
    if grid.dimension != r.family.dimension:
        raise InputError("grid dimension does not match the family")
    n_values = sorted(int(n) for n in n_values)
    if not n_values:
        raise InputError("need at least one level index")
    if b is None:
        b = TailSequence.constant(1)
    c = slow_decay_constant(m)
    d = r.family.dimension
    levels = level_sets(m, n_values, word_budget)

    deltas = [diam_scale * c ** (n / d) for n in n_values]
    clouds = project_levels([r], levels, b, [delta / 8.0 for delta in deltas], map_budget)[0]
    per_level = {}
    for n, delta, pts in zip(n_values, deltas, clouds):
        cells = CellSet()
        grid.mark_balls(cells, pts.coords, np.full(len(pts), delta) + pts.radii)
        per_level[n] = grid.measure(cells)

    vals = [per_level[n] for n in n_values[-3:]]
    rel = 0.0
    for prev, cur in zip(vals, vals[1:]):
        if prev > 0.0:
            rel = max(rel, abs(cur - prev) / prev)
        elif cur > 0.0:
            rel = math.inf
    return AttractorMeasureReport(grid=grid, diam_scale=diam_scale,
                                  per_level=per_level, last3_rel_change=rel,
                                  points=clouds[-1])
