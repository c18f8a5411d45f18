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

Each depth is walked in blocks of consecutive parents owning about ``BLOCK``
(2**14) children, so the walk's temporaries are bounded by the block, not by
the width of the depth; the next depth's state is the concatenation of the
blocks' active children.  At that size every temporary stays cache-resident
and comes from the malloc heap rather than from freshly mmapped pages, whose
page faults dominated whole-depth passes: on the 8-symbol ``wide_io``
benchmark workload (widest depth 2**18 children) the walk went from 0.27 s to
0.16 s per round.  A depth of at most ``BLOCK`` children is one block and
takes the whole-depth path unchanged.  Blocks change no result bit: the good
measures of a depth are concatenated and summed once, as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import keyed
from ..errors import InputError
from ..random_model import Realization, lyapunov_exponent
from ..symbolic import SymbolicMeasure, WORD_BUDGET_DEFAULT, iter_level_frontiers

# Children per block of one depth of the walk (see the module docstring):
# 128 KiB per float64 temporary, cache-resident and reused from the malloc heap.
BLOCK = 1 << 14


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
    per = max(1, BLOCK // A)   # parents per block
    for fr in tree:
        k = fr.depth
        cut = k * eps1 + log_c if k >= N1 else None
        P = states.size
        if P <= per:
            bad, kept, states, cum_ld, good = _walk_block(
                r, fr, A, states, cum_ld, good, 0, P, fr.active_idx, k * lam, k * eps1, cut)
        else:
            # children are parent-major, so parents [lo, hi) own children [lo*A, hi*A)
            cuts = list(range(0, P, per)) + [P]
            at = np.searchsorted(fr.active_idx, np.multiply(cuts, A)).tolist()
            parts = [_walk_block(r, fr, A, states, cum_ld, good, lo, hi,
                                 fr.active_idx[a:b] - lo * A, k * lam, k * eps1, cut)
                     for lo, hi, a, b in zip(cuts, cuts[1:], at, at[1:])]
            bads, kepts, *nxt = zip(*parts)
            bad = sum(bads)
            kepts = [x for x in kepts if x is not None]
            kept = np.concatenate(kepts) if kepts else None
            states, cum_ld, good = (np.concatenate(x) for x in nxt)
        bad_counts.append(bad)
        totals.append(P * A)
        if kept is not None:   # one sum per depth, as the whole-depth walk sums
            good_mass += float(kept.sum())

    return DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=lam, good_mass=good_mass,
        per_prefix_failures=np.array(bad_counts, dtype=np.int64),
        per_prefix_totals=np.array(totals, dtype=np.int64))


def _walk_block(r: Realization, fr, A: int, states, cum_ld, good, lo: int, hi: int,
                sel: np.ndarray, shift: float, band: float, cut):
    """One block of a depth: the children of active parents ``lo .. hi - 1``.

    Returns the block's band-violation count, the measures of its good
    emitted children (None when there are none), and the chain states,
    cumulative log-determinants and good flags of its children ``sel``
    (indices within the block), which stay active.
    """
    c = slice(lo * A, hi * A)
    # children are parent-major/symbol-minor, so gathers are plain repeats
    child_states = keyed.absorb_children(states[lo:hi], A)
    S = np.repeat(cum_ld[lo:hi], A) + r.log_dets_from_chains(child_states, fr.symbols[c])
    dev = np.abs(S + shift)
    child_good = np.repeat(good[lo:hi], A)
    if cut is not None:
        child_good &= dev <= cut
    emitted_good = fr.emit_mask[c] & child_good
    kept = fr.measures[c][emitted_good] if emitted_good.any() else None
    return (np.count_nonzero(dev > band), kept,
            child_states[sel], S[sel], child_good[sel])
