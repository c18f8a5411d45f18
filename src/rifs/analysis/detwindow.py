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

The cylinder tree itself does not depend on the seed: a run over many seeds
builds ``tuple(iter_level_frontiers(m, n, word_budget))`` once, the same
tree that level sets are selected from, and walks it once per seed (the
``tree`` argument of :func:`det_window_report`); a lone walk streams it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import keyed
from ..errors import InputError
from ..random_model import Realization, lyapunov_exponent
from ..symbolic import SymbolicMeasure, WORD_BUDGET_DEFAULT, iter_level_frontiers


@dataclass(frozen=True)
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
                      word_budget: int = WORD_BUDGET_DEFAULT,
                      tree: tuple | None = None) -> DetWindowReport:
    """Classify every level-set word by its determinant window behaviour.

    Walks the cylinder tree of ``(m, n)`` once, carrying per-node chain
    states and cumulative log-determinants.  ``tree`` is
    ``tuple(iter_level_frontiers(m, n, word_budget))``, built once per run
    and shared (read only) by the walks of every seed; when omitted, the
    tree is streamed one depth at a time.
    """
    if eps1 <= 0.0:
        raise InputError("eps1 must be positive")
    if C <= 0.0:
        raise InputError("window constant C must be positive")
    if N1 < 1:
        raise InputError("prefix threshold N1 must be >= 1")
    if m.alphabet.size != r.family.alphabet.size:
        raise InputError("measure and family alphabets disagree")
    if tree is None:
        tree = iter_level_frontiers(m, n, word_budget)

    lam = lyapunov_exponent(r.family, m)
    log_c = math.log(C)

    states = r.root_chain()
    cum_ld = np.zeros(1)
    good = np.ones(1, dtype=bool)
    bad_counts: list = []
    totals: list = []
    good_mass = 0.0

    A = m.alphabet.size
    for fr in tree:
        # children are parent-major/symbol-minor, so gathers are plain repeats
        child_states = keyed.absorb_children(states, A)
        S = np.repeat(cum_ld, A) + r.log_dets_from_chains(child_states, fr.symbols)
        k = fr.depth
        dev = np.abs(S + k * lam)
        bad_counts.append(np.count_nonzero(dev > k * eps1))
        totals.append(dev.size)
        child_good = np.repeat(good, A)
        if k >= N1:
            child_good = child_good & (dev <= k * eps1 + log_c)
        emitted_good = fr.emit_mask & child_good
        if emitted_good.any():
            good_mass += float(fr.measures[emitted_good].sum())
        states = child_states[fr.active_idx]
        cum_ld = S[fr.active_idx]
        good = child_good[fr.active_idx]

    return DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=lam, good_mass=good_mass,
        per_prefix_failures=np.array(bad_counts, dtype=np.int64),
        per_prefix_totals=np.array(totals, dtype=np.int64))
