"""The Khintchine-type dichotomy, empirically.

Around each level-n projection put a ball of radius (m([a]) g(n))^(1/d) and
measure the union on a fine grid.  With the divergent gauge g(n) = 1/n the
per-level unions stay uniformly fat and the tail unions barely shrink; with
the summable gauge g(n) = 2^-n they collapse geometrically — the
positive-measure vs null dichotomy for the limsup set.  Both gauges read the
same level sets, selected once from one cylinder tree.
"""

import warnings

from rifs import Realization, coverage_estimate, level_sets
from rifs.experiments import Gauge, preset

warnings.filterwarnings("ignore")

cfg = preset("baby_theorem")
grid = cfg.grid()
levels = list(range(6, 15))
sets = level_sets(cfg.measure, levels)
r = Realization(2024, cfg.family)

print(f"grid: box [{grid.lo[0]:.2f}, {grid.hi[0]:.2f}], h = {grid.h:.2e}, "
      f"volume {grid.box_volume:.2f}\n")
header = "  n   union(1/n)   tail(1/n)   union(2^-n)   tail(2^-n)"
print(header)
rep_div = coverage_estimate(r, sets, cfg.tail, Gauge("one_over_n"), grid)
rep_con = coverage_estimate(r, sets, cfg.tail, Gauge("geometric", q=0.5), grid)
for n in levels:
    print(f"  {n:2d}   {rep_div.per_level_outer[n]:9.4f}   "
          f"{rep_div.running_intersection_measure[n]:9.4f}   "
          f"{rep_con.per_level_outer[n]:11.7f}   "
          f"{rep_con.running_intersection_measure[n]:9.7f}")

print("\ndivergent gauge: every level keeps >= %.3f of the box (%.1f%%)" % (
    min(rep_div.per_level_outer.values()),
    100 * min(rep_div.per_level_outer.values()) / grid.box_volume))
print("summable gauge: level 14 union is %.2e of its level-6 value" % (
    rep_con.per_level_outer[14] / rep_con.per_level_outer[6]))
