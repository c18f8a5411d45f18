"""Determinant-regularity windows along the level-set cylinder tree.

For a word prefix of length k the composed determinant should sit inside

    ( exp(-k (lambda + eps1)) / C ,  C exp(-k (lambda - eps1)) ),

where lambda is the family's Lyapunov exponent under the measure.  The test
is run in log-space, |log|det| + k lambda| <= k eps1 + log C, which is exact
arithmetic down to determinants that would underflow directly.

A level-set word is *good* when every prefix of length >= N1 passes; the
report's ``good_mass`` is the measure mass of good words.  Alongside, the
per-depth histogram counts violations of the slack-free band
|log|det| + k lambda| > k eps1.  That band is the raw large-deviation event
whose probability decays exponentially in k; with the constant C folded in,
violations at practical parameters are far too rare to chart a decay curve,
so the histogram deliberately omits C.  ``bad_fraction_log_slope`` fits the
empirical decay rate.

The cylinder tree does not depend on the seed: :func:`det_window_reports`
builds the tree of ``(m, n)`` once per seed group and walks it once for the
whole group (:func:`rifs.walk.walk`).  Every block writes its draws,
scratch, deviations and masks into buffers allocated once per walk, and its
seeds' good members into one mask; at a depth's last block each seed's good
measures are summed from that mask as one array, so a report does not
depend on the group or the blocks it was walked in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import keyed, walk
from ..errors import InputError
from ..random_model import Realization, lyapunov_exponent
from ..symbolic import SymbolicMeasure, WORD_BUDGET_DEFAULT, iter_level_frontiers


@dataclass(frozen=True, eq=False)
class DetWindowReport:
    """Window statistics for one realization at one level index."""

    n: int
    eps1: float
    C: float
    N1: int
    lyapunov: float
    good_mass: float
    per_prefix_failures: np.ndarray   # slack-free band violations per depth (1-based)
    per_prefix_totals: np.ndarray     # nodes inspected per depth

    @property
    def bad_fractions(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.per_prefix_failures / self.per_prefix_totals

    def bad_fraction_log_slope(self):
        """(slope, stderr) of log bad-fraction against depth, or None.

        Uses depths with at least one violation; needs two such depths for a
        slope and three for a standard error (else nan).
        """
        k = np.flatnonzero(self.per_prefix_failures > 0) + 1
        if k.size < 2:
            return None
        y = np.log(self.bad_fractions[k - 1])
        return fit_line(k.astype(float), y)


def fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares slope and its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        return None
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    if x.size > 2:
        rss = float(((y - intercept - slope * x) ** 2).sum())
        stderr = math.sqrt(rss / (x.size - 2) / sxx)
    else:
        stderr = float("nan")
    return slope, stderr


def det_window_report(r: Realization, m: SymbolicMeasure, n: int, eps1: float,
                      C: float, N1: int,
                      word_budget: int = WORD_BUDGET_DEFAULT) -> DetWindowReport:
    """Classify every level-set word by its determinant window behaviour.

    ``det_window_reports`` for the single realization ``r``.
    """
    return det_window_reports([r], m, n, eps1, C, N1, word_budget)[0]


def det_window_reports(rs, m: SymbolicMeasure, n: int, eps1: float, C: float, N1: int,
                       word_budget: int = WORD_BUDGET_DEFAULT) -> list:
    """Window reports of a seed group ``rs`` (realizations of one family),
    from one walk of the cylinder tree of ``(m, n)`` (:func:`rifs.walk.walk`),
    which is built here.  Returns one report per realization, in order.
    """
    if eps1 <= 0.0:
        raise InputError("eps1 must be positive")
    if C <= 0.0:
        raise InputError("window constant C must be positive")
    if N1 < 1:
        raise InputError("prefix threshold N1 must be >= 1")
    if not rs:
        return []
    family = rs[0].family
    if any(q.family is not family for q in rs):
        raise InputError("a seed group must hold realizations of one family")
    if m.alphabet.size != family.alphabet.size:
        raise InputError("measure and family alphabets disagree")
    tree = tuple(iter_level_frontiers(m, n, word_budget))

    A = m.alphabet.size
    S = len(rs)
    # keyed's cached step tile for this alphabet comes first: made above the
    # workspace by the first walk, it would pin the workspace's freed memory
    keyed.absorb_children(np.empty(0, dtype=np.uint64), A)
    windows = _Windows(rs[0], A, S, lyapunov_exponent(family, m), eps1, math.log(C), N1,
                       max(fr.symbols.size for fr in tree))
    walk.walk(tree, A, (keyed.root_states([q.seed for q in rs]), np.zeros(S),
                        np.ones(S, dtype=bool)), windows)

    failures = np.array(windows.failures, dtype=np.int64).reshape(-1, S)
    return [DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=windows.lam, good_mass=float(windows.good_mass[j]),
        per_prefix_failures=failures[:, j].copy(),
        per_prefix_totals=np.array(windows.totals, dtype=np.int64)) for j in range(S)]


class _Windows:
    """The window kernel of a walk: chain states, cumulative log-determinants
    and good flags per node, and the per-depth counts and good measures.
    ``raw`` and ``mix`` (uint64) take the draws and the splitmix64 scratch,
    ``mask`` the comparisons, and ``dev`` (float64, in ``raw``'s memory) the
    deviations once a block's draws are spent.  ``hit``, as wide as a block
    and as the widest depth, flags each seed's good members of a depth, one
    row per seed, block by block; the depth's last block sums each seed's
    good measures from its row once.
    """

    columns = ((np.uint64, ()), (np.float64, ()), (np.bool_, ()))

    def __init__(self, r: Realization, A: int, S: int, lam: float, eps1: float,
                 log_c: float, N1: int, width: int):
        self.r, self.A, self.lam, self.eps1, self.log_c, self.N1 = r, A, lam, eps1, log_c, N1
        self.raw, self.mix = np.empty((2, max(walk.BLOCK, A)), dtype=np.uint64)
        self.dev = self.raw.view(np.float64)
        self.mask = np.empty(self.raw.size, dtype=bool)
        self.hit = np.empty(max(walk.BLOCK, width), dtype=bool)
        # per depth: children per seed, and band violations of every seed
        self.totals, self.failures = [], []
        self.good_mass = np.zeros(S)

    def block(self, fr, seeds: slice, lo: int, hi: int, parents: tuple, kids: tuple) -> tuple:
        """The children of parents ``lo .. hi - 1`` of each seed in ``seeds``
        (rows seed-major): their rows go into ``kids``, which are returned,
        and their band violations and good members are counted."""
        A, k, width = self.A, fr.depth, fr.symbols.size
        if k > len(self.totals):
            self.totals.append(width)
            self.failures.append(np.zeros(self.good_mass.size, dtype=np.int64))
        states, cum_ld, good = parents
        c = slice(lo * A, hi * A)
        G = seeds.stop - seeds.start
        N = G * (hi - lo) * A
        child_states, S, child_good = kids = tuple(x[:N] for x in kids)
        mix, raw, dev, mask = self.mix[:N], self.raw[:N], self.dev[:N], self.mask[:N]
        keyed.absorb_children(states, A, out=child_states, scratch=mix)
        symbols = fr.symbols[c]
        if G > 1 and len(self.r.family.distributions) > 1:   # one distribution reads no symbols
            symbols = np.tile(symbols, G)
        self.r.log_dets_from_chains(child_states, symbols, out=S, raw=raw, scratch=mix)
        S += keyed.repeat_children(cum_ld, A, out=dev)   # the draws are spent
        np.add(S, k * self.lam, out=dev)
        np.abs(dev, out=dev)
        keyed.repeat_children(good, A, out=child_good)
        if k >= self.N1:
            child_good &= np.less_equal(dev, k * self.eps1 + self.log_c, out=mask)
        over = np.greater(dev, k * self.eps1, out=mask)
        self.failures[k - 1][seeds] += np.count_nonzero(over) if G == 1 \
            else np.count_nonzero(over.reshape(G, -1), axis=1)
        if fr.emit_mask.any():
            hit = self.hit[:G * width].reshape(G, width)
            np.logical_and(child_good.reshape(G, -1), fr.emit_mask[c], out=hit[:, c])
            if hi * A == width:   # the depth's last block
                # one sum per seed, as a walk of that seed alone sums; a seed
                # whose every child is a good member sums the tree's own array
                self.good_mass[seeds] += [(fr.measures if h.all() else fr.measures[h]).sum()
                                          for h in hit]
        return kids
