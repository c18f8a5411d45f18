"""Grid-based Lebesgue estimates of ball unions around projections.

A coverage grid is a uniform d-dimensional lattice of cells over a box.  A
ball is rasterized by its cell *centers*: the outer estimate counts a cell
when its center lies within ``radius + truncation_radius`` of the point, the
inner estimate uses ``radius - truncation_radius - h sqrt(d)/2`` (cells then
certainly lie inside the true ball), so `inner <= truth' <= ~outer` and both
tighten as the mesh shrinks.  Degenerate radius-0 balls are single points of
measure zero and contribute nothing.

The level-n union fattens each level-set projection by
``(m([a]) g(n))**(1/d)``.  The limsup target set has no finite surrogate;
as a proxy, ``running_intersection_measure[N]`` reports the measure of
cells covered at some level n >= N within the computed range, equivalently
the measure of cells covered in at least one level of every window starting
at M <= N, minimized over M.  It is nonincreasing in N: divergent gauges
keep the tail fat, summable gauges let it collapse.

The box defaults to the conservative a-priori bounding ball but may be any
box; balls that stick out are clipped (estimates then undershoot) with a
warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..attractor import MAP_BUDGET_DEFAULT, project_level
from ..errors import BudgetError, InputError, InvariantError
from ..random_model import Realization
from ..symbolic import (SymbolicMeasure, TailSequence, WORD_BUDGET_DEFAULT,
                        level_set, slow_decay_constant)

_GRID_CELL_BUDGET = 50_000_000


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

    def new_mask(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=bool)

    def measure(self, mask: np.ndarray) -> float:
        return float(mask.sum()) * self.h ** self.dimension

    def mark_balls(self, mask: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray) -> bool:
        """OR cells whose center is within radius of each point.

        Returns True when some ball was clipped by the box.
        """
        centers = np.atleast_2d(centers)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (centers.shape[0],))
        if self.dimension == 1:
            return self._mark_balls_1d(mask, centers[:, 0], radii)
        clipped = False
        h = self.h
        for x, rad in zip(centers, radii):
            if rad <= 0.0:
                continue
            if np.any(x - rad < self.lo) or np.any(x + rad > self.hi):
                clipped = True
            lo_idx = np.ceil((x - rad - self.lo) / h - 0.5).astype(np.int64)
            hi_idx = np.floor((x + rad - self.lo) / h - 0.5).astype(np.int64)
            lo_idx = np.maximum(lo_idx, 0)
            hi_idx = np.minimum(hi_idx, np.asarray(self.shape) - 1)
            if np.any(hi_idx < lo_idx):
                continue
            axes = [self.lo[i] + (np.arange(lo_idx[i], hi_idx[i] + 1) + 0.5) * h - x[i]
                    for i in range(self.dimension)]
            d2 = np.zeros([a.size for a in axes])
            for i, a in enumerate(axes):
                sh = [1] * self.dimension
                sh[i] = a.size
                d2 = d2 + (a ** 2).reshape(sh)
            window = tuple(slice(int(l), int(u) + 1) for l, u in zip(lo_idx, hi_idx))
            mask[window] |= d2 <= rad * rad
        return clipped

    def _mark_balls_1d(self, mask, xs, radii) -> bool:
        """Interval marking via a difference array: O(points + cells)."""
        pos = radii > 0.0
        xs = xs[pos]
        radii = radii[pos]
        if xs.size == 0:
            return False
        clipped = bool(np.any(xs - radii < self.lo[0]) or np.any(xs + radii > self.hi[0]))
        n_cells = self.shape[0]
        lo_idx = np.ceil((xs - radii - self.lo[0]) / self.h - 0.5).astype(np.int64)
        hi_idx = np.floor((xs + radii - self.lo[0]) / self.h - 0.5).astype(np.int64)
        np.clip(lo_idx, 0, n_cells - 1, out=lo_idx)
        np.clip(hi_idx, -1, n_cells - 1, out=hi_idx)
        keep = hi_idx >= lo_idx
        delta = np.zeros(n_cells + 1, dtype=np.int64)
        np.add.at(delta, lo_idx[keep], 1)
        np.add.at(delta, hi_idx[keep] + 1, -1)
        mask |= np.cumsum(delta[:-1]) > 0
        return clipped


@dataclass(frozen=True)
class CoverageReport:
    """Per-level union measures and the tail-union limsup proxy."""

    grid: CoverageGrid
    regime: str                          # "divergent" | "convergent"
    per_level_outer: dict                # n -> outer estimate
    per_level_inner: dict                # n -> inner estimate
    running_intersection_measure: dict   # N -> tail union measure over n >= N


def coverage_estimate(r: Realization, m: SymbolicMeasure, b: TailSequence,
                      g, n_values, grid: CoverageGrid,
                      word_budget: int = WORD_BUDGET_DEFAULT,
                      map_budget: int = MAP_BUDGET_DEFAULT,
                      regime: str | None = None) -> CoverageReport:
    """Rasterize the level-n ball unions with radii (m([a]) g(n))^(1/d).

    ``g`` is called with each level index; projections are resolved until
    every enclosure is at most an eighth of the smallest positive ball
    radius at its level, keeping outer and inner estimates honest.
    """
    if grid.dimension != r.family.dimension:
        raise InputError("grid dimension does not match the family")
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise InputError("coverage needs at least one level index")
    d = r.family.dimension
    sqrt_d = math.sqrt(d)
    if regime is None:
        regime = getattr(g, "regime", "divergent")

    outer_masks = {}
    per_outer = {}
    per_inner = {}
    warned_coarse = False
    warned_clip = False
    for n in n_values:
        L = level_set(m, n, word_budget)
        gn = float(g(n))
        if gn < 0.0:
            raise InputError(f"gauge function must be nonnegative, g({n}) = {gn}")
        radii = (L.measures * gn) ** (1.0 / d)
        mask = grid.new_mask()
        inner_mask = grid.new_mask()
        if gn > 0.0:
            eps = float(radii[radii > 0.0].min()) / 8.0
            pts = project_level(r, L, b, eps, map_budget)
            clipped = grid.mark_balls(mask, pts.coords, radii + pts.radii)
            inner_radii = radii - pts.radii - grid.h * sqrt_d / 2.0
            if np.all(inner_radii <= 0.0) and not warned_coarse:
                warnings.warn(
                    f"grid resolution h={grid.h} is coarse relative to the level-{n} "
                    "ball radii; inner estimate is 0", stacklevel=2)
                warned_coarse = True
            grid.mark_balls(inner_mask, pts.coords, inner_radii)
            if clipped and not warned_clip:
                warnings.warn(
                    "some balls extend beyond the grid box and were clipped; "
                    "estimates undershoot the true union", stacklevel=2)
                warned_clip = True
        outer_masks[n] = mask
        per_outer[n] = grid.measure(mask)
        per_inner[n] = grid.measure(inner_mask)
        if per_inner[n] > per_outer[n]:
            raise InvariantError(
                f"inner estimate {per_inner[n]} above outer {per_outer[n]} at level {n}")

    running = {}
    tail = grid.new_mask()
    for n in sorted(n_values, reverse=True):
        tail |= outer_masks[n]
        running[n] = grid.measure(tail)

    return CoverageReport(grid=grid, regime=regime, per_level_outer=per_outer,
                          per_level_inner=per_inner,
                          running_intersection_measure=running)


@dataclass(frozen=True)
class AttractorMeasureReport:
    """Outer measures of the point cloud fattened at the level's natural scale."""

    grid: CoverageGrid
    diam_scale: float
    per_level: dict
    last3_rel_change: float


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

    per_level = {}
    for n in n_values:
        L = level_set(m, n, word_budget)
        delta = diam_scale * c ** (n / d)
        pts = project_level(r, L, b, delta / 8.0, map_budget)
        mask = grid.new_mask()
        grid.mark_balls(mask, pts.coords, np.full(len(L), delta) + pts.radii)
        per_level[n] = grid.measure(mask)

    vals = [per_level[n] for n in n_values[-3:]]
    rel = 0.0
    for prev, cur in zip(vals, vals[1:]):
        if prev > 0.0:
            rel = max(rel, abs(cur - prev) / prev)
        elif cur > 0.0:
            rel = math.inf
    return AttractorMeasureReport(grid=grid, diam_scale=diam_scale,
                                  per_level=per_level, last3_rel_change=rel)
