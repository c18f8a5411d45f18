"""Grid-based Lebesgue estimates of ball unions around projections.

A coverage grid is a uniform d-dimensional lattice of cells over a box.  A
ball is rasterized by its cell *centers*: the outer estimate counts a cell
when its center lies within ``radius + truncation_radius`` of the point, the
inner estimate uses ``radius - truncation_radius - h sqrt(d)/2`` (cells then
certainly lie inside the true ball), so `inner <= truth' <= ~outer` and both
tighten as the mesh shrinks.  Degenerate radius-0 balls are single points of
measure zero and contribute nothing.  In d = 1 a ball's cells are its index
interval.  In d >= 2 rasterizing works on grid rows: every ball covers one
interval of the last axis on each row of its index box.  Its ends are ``sqrt``
estimates, exact on every row but borderline ones, which are stepped to the
exact ends (``CoverageGrid._row_interval`` derives the rounding margin), and
a level's outer and inner balls share one row expansion.  The union of all
intervals is a ``CellSet``: sorted, merged ranges of flat cell indices, merged
by one sort of the packed int64 key ``first << 32 | last`` (flat indices stay
below the grid cell budget, under 2**26).  No per-ball loop runs and nothing
grid-sized is allocated: memory is O(#row intervals), not O(#cells).  A set's
measure is its summed range length times the cell volume, and the tail union
merges two range lists.

The level-n union fattens each level-set projection by
``(m([a]) g(n))**(1/d)``, so the level sets are the estimate's only level
input: they are selected once per run from one cylinder tree, and
:func:`coverage_estimates` projects them for a seed group by one walk of it
(``project_levels``).  ``walk.BLOCK`` bounds every array of the walk, and
the group's clouds (one seed's when those alone are wider).  Each seed's
unions are then rasterized, with its own warnings, as if it had been
projected alone.

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
_ROW_MARGIN = 2.0 ** -17   # cells; see CoverageGrid._row_interval
_CLIPPED = ("some balls extend beyond the grid box and were clipped; "
            "estimates undershoot the true union")


class CellSet:
    """Flat grid cells as ``[first, last]`` index ranges, kept sorted, disjoint
    and non-adjacent, so equal sets hold equal arrays in any order of adding."""

    def __init__(self):
        self.first = self.last = np.zeros(0, dtype=np.int64)

    def add(self, first: np.ndarray, last: np.ndarray) -> None:
        """Add the cells ``first[k]..last[k]`` for every k; empty ranges are skipped."""
        keep = last >= first
        # one sort of the packed key first << 32 | last, exact while flat
        # indices stay below 2**31: the grid cell budget keeps them below 2**26
        key = np.concatenate((self.first, first[keep]))
        key <<= 32
        key |= np.concatenate((self.last, last[keep]))
        key.sort()
        first = key >> 32
        key &= 0xFFFFFFFF
        last = np.maximum.accumulate(key, out=key)
        gaps = (first[1:] > last[:-1] + 1).nonzero()[0]   # a new range opens at gaps + 1
        self.first = np.concatenate((first[:1], first[gaps + 1]))
        self.last = np.concatenate((last[gaps], last[-1:]))

    def __ior__(self, other: CellSet) -> CellSet:
        self.add(other.first, other.last)
        return self


@dataclass(frozen=True, eq=False)
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

    def mark_balls(self, cells, centers: np.ndarray, radii) -> bool:
        """Add to ``cells`` the cells whose center is within radius of each point.

        ``cells`` may be a sequence of sets, one radius set each in ``radii``, the
        first bounding the others ball by ball.  In d = 1 a ball's index interval
        is its range of marked cells.  In d >= 2 each first-set ball is cut once
        into the rows of its index box (one per index tuple of the leading axes),
        and a smaller set takes the rows of its own box.  On a row the marked
        cells form one last-axis interval: a cell is marked when its squared
        center offset, summed axis by axis, is at most ``rad * rad``.  Returns
        True when a first-set ball was clipped by the box."""
        centers = np.atleast_2d(centers)
        if centers.shape[1] != self.dimension:
            raise InputError(f"{centers.shape[1]}-d ball centers on a {self.dimension}-d grid")
        targets = [cells] if isinstance(cells, CellSet) else list(cells)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64),
                                (len(targets), centers.shape[0]))
        if len(targets) > 1 and (radii[1:] > radii[0]).any():
            raise InputError("the first radius set must bound the others")
        pos = radii[0] > 0.0
        if not pos.all():
            centers, radii = centers[pos], radii[:, pos]
        if centers.shape[0] == 0:
            return False
        if len(targets) > 1:   # -inf: an empty box; a set with no positive radius marks nothing
            keep = [0] + [k for k in range(1, len(targets)) if (radii[k] > 0.0).any()]
            targets, radii = [targets[k] for k in keep], np.where(radii > 0.0, radii, -np.inf)[keep]
        x = np.ascontiguousarray(centers.T)[:, None]    # one contiguous row per axis
        lo = self.lo[:, None, None]
        first = x - radii                               # (axis, set, ball)
        last = x + radii
        clipped = bool((first[:, 0] < lo[:, 0]).any() or (last[:, 0] > self.hi[:, None]).any())
        shape = np.asarray(self.shape)[:, None, None]
        for v in (first, last):   # in place: (v - lo) / h - 0.5
            v -= lo
            v /= self.h
            v -= 0.5
        np.ceil(first, out=first)
        np.floor(last, out=last)
        # clip before the cast: a bound beyond int64 range would wrap around
        first = np.minimum(np.maximum(first, 0, out=first), shape, out=first).astype(np.int64)
        last = np.minimum(np.maximum(last, -1, out=last), shape - 1, out=last).astype(np.int64)
        if self.dimension == 1:
            for target, a, b in zip(targets, first[0], last[0]):
                target.add(a, b)
            return clipped
        inside = np.all(last[:, 0] >= first[:, 0], axis=0)
        if not inside.all():
            x, radii, first, last = x[..., inside], radii[:, inside], first[..., inside], last[..., inside]
        # blocks bound the per-row temporaries: weigh each ball by its rows
        for a, b in blocks(np.prod(last[:-1, 0] - first[:-1, 0] + 1, axis=0)):
            self._mark_rows(targets, x[:, 0, a:b], radii[:, a:b], first[..., a:b], last[..., a:b])
        return clipped

    def _mark_rows(self, targets, x, radii, first, last) -> None:
        """Add the marked cells of every row of every ball to each target; ``x``
        holds one row per axis, d >= 2, ``radii``, ``first`` and ``last`` one per target."""
        h = self.h
        ball = np.arange(x.shape[1])
        row = np.zeros(ball.size, dtype=np.int64)    # flat index of the row / last-axis size
        lead2 = np.zeros(ball.size)                  # squared offset over the leading axes
        js = []
        for ax in range(self.dimension - 1):
            start = first[ax, 0].take(ball)
            count = last[ax, 0].take(ball) - start + 1
            j = ranges(start, count)
            owner = np.repeat(np.arange(ball.size), count)
            ball = ball.take(owner)
            a = self.lo[ax] + (j + 0.5) * h - x[ax].take(ball)
            lead2 = lead2.take(owner) + a ** 2
            row = row.take(owner) * self.shape[ax] + j
            js = [i.take(owner) for i in js] + [j]   # each row's index on every leading axis
        row *= self.shape[-1]
        with np.errstate(over="ignore"):   # an infinite square still marks the right cells
            rad2 = radii * radii
        for k, cells in enumerate(targets):   # a smaller set: the rows of its own index box
            keep = np.logical_and.reduce([(first[ax, k].take(ball) <= j) & (j <= last[ax, k].take(ball))
                                          for ax, j in enumerate(js)]) if k else slice(None)
            if self.dimension > 2:   # rows whose leading axes alone pass the radius mark nothing
                keep = (lead2 <= rad2[k].take(ball)) & (keep if k else True)
            b, r = ball[keep], row[keep]
            lo_cell, hi_cell = self._row_interval(x[-1].take(b), rad2[k].take(b), lead2[keep],
                                                  first[-1, k].take(b), last[-1, k].take(b))
            cells.add(r + lo_cell, r + hi_cell)

    def _row_interval(self, x, rad2, lead2, lo_cell, hi_cell) -> tuple:
        """Exact [first, last] marked cells of each row within [lo_cell, hi_cell].

        With ``a(j) = lo + (j + 1/2) h - x`` nondecreasing in j, the cells at or
        past the left end are those with ``a > 0`` or a marked center (``lead2 +
        a*a <= rad2``), those at or before the right end those with ``a < 0`` or
        a marked center: both tests are monotone in j.  An end is ``ceil`` /
        ``floor`` of ``t = (x -+ half - lo) / h - 1/2`` in ``[lo_cell - 1/2,
        hi_cell + 1/2]``, ``half = sqrt(rad2 - lead2)``.  In cells, with u =
        2**-53 and H the exact half, rounding moves ``t`` off the exact end by
        at most 4u(|x| + H + |lo|)/h + 1.51uH/h, ``a`` by u(|x| + 2|lo| + 3
        shape h)/h, and the test the end by 2u rad2/(H h).  If ``rad2 < 2**30 h
        half``, the last is below 2**-22 and rad, H and |x - lo| (the ball meets
        the box) below 2**30 h + shape h; with |lo| <= 2**30 h and shape < 2**26
        the sum is below 2**-18.4, so a ``t`` over ``_ROW_MARGIN`` = 2**-17 from
        an integer is exact (the distance test rounds by under 2**-52), while
        ``rad2 >= 2**-900`` and 2**-500 < h < 2**500 keep squares normal.  Other
        rows (half zero, tiny or not finite, t near an integer) go to ``_settle``.
        """
        lo, h = self.lo[-1], self.h
        half = np.sqrt(np.maximum(rad2 - lead2, 0.0))
        margin = _ROW_MARGIN if (2.0 ** -500 < h < 2.0 ** 500 and abs(lo) <= 2.0 ** 30 * h
                                 and np.min(rad2, initial=np.inf) >= 2.0 ** -900) else 0.5
        sure = rad2 < (2.0 ** 30 * h) * half
        below, above = lo_cell - 0.5, hi_cell + 0.5
        ends = []
        for side, t in ((1, (x - half - lo) / h - 0.5), (-1, (x + half - lo) / h - 0.5)):
            t = np.minimum(np.maximum(t, below, out=t), above, out=t)
            end = np.ceil(t) if side > 0 else np.floor(t)
            sure &= np.abs(t - end + 0.5 * side) < 0.5 - margin   # 1/2 - distance to an integer
            ends.append(end.astype(np.int64))
        if not sure.all():
            k = (~sure).nonzero()[0]
            rows = [v.take(k) for v in (x, rad2, lead2, lo_cell, hi_cell)]
            for side, end in zip((1, -1), ends):
                end[k] = self._settle(end.take(k), side, *rows)
        return tuple(ends)

    def _settle(self, end, side, x, rad2, lead2, lo_cell, hi_cell):
        """Step each row's end until its test (side +1: the left end's) flips there."""
        lo, h = self.lo[-1], self.h
        def holds(j):
            a = lo + (j + 0.5) * h - x
            return (lo_cell <= j) & (j <= hi_cell) & ((side * a > 0.0) | (lead2 + a ** 2 <= rad2))

        while True:
            grow = holds(end - side)
            shrink = ~grow & (lo_cell <= end) & (end <= hi_cell) & ~holds(end)
            if not (grow.any() or shrink.any()):
                return end
            end = end + side * (shrink.astype(np.int64) - grow)


@dataclass(frozen=True, eq=False)
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
    per_outer, per_inner, running = {}, {}, {}
    tail = CellSet()   # the union of the outer cells of the levels done so far
    warned_coarse = warned_clip = False
    # deepest level first, so one running set holds the tail union over n >= N
    for k in sorted(range(len(levels)), key=lambda k: levels[k].n, reverse=True):
        n = levels[k].n
        outer, inner = CellSet(), CellSet()
        if k in balls:
            radii, pts = balls[k]
            inner_radii = radii - pts.radii - grid.h * math.sqrt(grid.dimension) / 2.0
            if np.all(inner_radii <= 0.0) and not warned_coarse:
                warnings.warn(
                    f"grid resolution h={grid.h} is coarse relative to the level-{n} "
                    "ball radii; inner estimate is 0", stacklevel=3)
                warned_coarse = True
            clipped = grid.mark_balls((outer, inner), pts.coords,
                                      (radii + pts.radii, inner_radii))
            if clipped and not warned_clip:
                warnings.warn(_CLIPPED, stacklevel=3)
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


@dataclass(frozen=True, eq=False)
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
    if b is None:
        b = TailSequence.constant(1)
    c = slow_decay_constant(m)
    d = r.family.dimension
    levels = level_sets(m, n_values, word_budget)

    deltas = [diam_scale * c ** (n / d) for n in n_values]
    clouds = project_levels([r], levels, b, [delta / 8.0 for delta in deltas], map_budget)[0]
    per_level, clipped = {}, False
    for n, delta, pts in zip(n_values, deltas, clouds):
        cells = CellSet()
        clipped |= grid.mark_balls(cells, pts.coords, np.full(len(pts), delta) + pts.radii)
        per_level[n] = grid.measure(cells)
    if clipped:
        warnings.warn(_CLIPPED, stacklevel=2)

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
