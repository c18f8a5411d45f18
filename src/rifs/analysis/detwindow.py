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
tree that level sets are selected from, and :func:`det_window_reports` walks
it once per seed group, a sequence of realizations of one family stepped
together.  A group's rows are seed-major: seed ``j``'s node ``i`` of a depth
with ``P`` nodes per seed sits at row ``j * P + i``.  Each row repeats the
operations of a walk of its seed alone, and each seed's good measures of a
depth are summed as one array, so a seed's report does not depend on the
group it was walked in.  :func:`det_window_report` is the walk of one
realization; without a tree it streams one depth at a time.

The walk works in blocks of at most ``BLOCK`` (2**14) children.  A group
walks a depth together while its seeds' children fit in one block.
Before a depth that would exceed it, the group splits into subgroups of
``max(1, BLOCK // width)`` seeds (``width`` children per seed), and each
subgroup walks the rest of the tree before the next one starts: the
subgroups' rows are copied onto an explicit stack and the parent group's
arrays are dropped.  Depth-first order keeps the live rows of the walk near
one block, whatever the number of seeds; breadth-first order would hold
every subgroup's depth at once.  A single seed on a depth wider than
``BLOCK`` takes it in blocks of consecutive parents and concatenates the
blocks' active children for the next depth.  At that size every temporary
stays cache-resident and comes from the malloc heap rather than from freshly
mmapped pages, whose page faults dominated whole-depth passes.  Grouping
pays the fixed cost of a block's numpy calls once for many shallow depths
of many seeds instead of once per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .. import keyed
from ..errors import InputError
from ..random_model import Realization, lyapunov_exponent
from ..symbolic import SymbolicMeasure, WORD_BUDGET_DEFAULT, iter_level_frontiers

# Children per block of the walk (see the module docstring): 128 KiB per
# float64 temporary, cache-resident and reused from the malloc heap.
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

    ``det_window_reports`` for the single realization ``r``; without a
    ``tree`` the walk streams the tree one depth at a time.
    """
    return det_window_reports([r], m, n, eps1, C, N1, word_budget, tree)[0]


def det_window_reports(rs, m: SymbolicMeasure, n: int, eps1: float, C: float, N1: int,
                       word_budget: int = WORD_BUDGET_DEFAULT,
                       tree: tuple | None = None) -> list:
    """Window reports of a seed group ``rs`` (realizations of one family),
    from one depth-first walk of the cylinder tree of ``(m, n)``.

    Returns one report per realization, in order.  The walk carries per-node
    chain states, cumulative log-determinants and good flags, seed-major,
    and splits the group before a depth whose children exceed ``BLOCK``
    (see the module docstring).  ``tree`` is
    ``tuple(iter_level_frontiers(m, n, word_budget))``, built once per run
    and shared (read only) by every group; when omitted, it is built here,
    or streamed for a single realization.
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
    if tree is None:
        tree = iter_level_frontiers(m, n, word_budget)
    if len(rs) > 1:
        tree = tuple(tree)   # subgroups walk the depths below a split again

    lam = lyapunov_exponent(family, m)
    log_c = math.log(C)
    A = m.alphabet.size
    r = rs[0]   # sampling reads only the family and the chain states
    S = len(rs)
    failures: list = []   # per depth: band violations of every seed
    totals: list = []     # per depth: children per seed
    good_mass = np.zeros(S)

    # (first depth index, seeds lo..hi-1, their rows: states, cum_ld, good)
    stack = [(0, 0, S, np.concatenate([q.root_chain() for q in rs]),
              np.zeros(S), np.ones(S, dtype=bool))]
    while stack:
        start, lo, hi, states, cum_ld, good = stack.pop()
        G = hi - lo
        for fr in islice(tree, start, None):
            width = fr.symbols.size
            P = states.size // G   # parents per seed
            if G > 1 and G * width > BLOCK:
                # split; pushed last, the first subgroup is walked first
                per = max(1, BLOCK // width)
                for a in reversed(range(lo, hi, per)):
                    b = min(a + per, hi)
                    rows = slice((a - lo) * P, (b - lo) * P)
                    stack.append((fr.depth - 1, a, b, states[rows].copy(),
                                  cum_ld[rows].copy(), good[rows].copy()))
                break
            k = fr.depth
            if k > len(totals):
                totals.append(width)
                failures.append(np.zeros(S, dtype=np.int64))
            cut = k * eps1 + log_c if k >= N1 else None
            args = (k * lam, k * eps1, cut)
            if G * width <= BLOCK:
                bad, kept, states, cum_ld, good = _walk_block(
                    r, fr, A, states, cum_ld, good, 0, P, fr.active_idx, *args)
            else:
                # one seed wider than a block: consecutive parents [a, b) own
                # children [a*A, b*A), since children are parent-major
                cuts = list(range(0, P, max(1, BLOCK // A))) + [P]
                at = np.searchsorted(fr.active_idx, np.multiply(cuts, A)).tolist()
                parts = [_walk_block(r, fr, A, states[a:b], cum_ld[a:b], good[a:b], a, b,
                                     fr.active_idx[i:j] - a * A, *args)
                         for a, b, i, j in zip(cuts, cuts[1:], at, at[1:])]
                bads, kepts, *nxt = zip(*parts)
                bad = sum(b[0] for b in bads)
                kepts = [x[0] for x in kepts if x]
                kept = [np.concatenate(kepts)] if kepts else []
                states, cum_ld, good = (np.concatenate(x) for x in nxt)
            failures[k - 1][lo:hi] = bad
            if kept:   # one sum per seed and depth, as a walk of one seed sums
                good_mass[lo:hi] += [x.sum() for x in kept]

    failures = np.array(failures, dtype=np.int64).reshape(-1, S)
    return [DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=lam, good_mass=float(good_mass[j]),
        per_prefix_failures=failures[:, j].copy(),
        per_prefix_totals=np.array(totals, dtype=np.int64)) for j in range(S)]


def _walk_block(r: Realization, fr, A: int, states, cum_ld, good, lo: int, hi: int,
                act: np.ndarray, shift: float, band: float, cut):
    """One block of a depth: the children of parents ``lo .. hi - 1`` of each
    seed whose rows (seed-major) are ``states``, ``cum_ld`` and ``good``.

    Returns each seed's band-violation count, each seed's measures of its
    good emitted children (an empty list when no seed has any), and the
    chain states, cumulative log-determinants and good flags of the children
    ``act`` (indices within one seed's block) of every seed, seed-major;
    those stay active.
    """
    c = slice(lo * A, hi * A)
    G = states.size // (hi - lo)
    # children are parent-major/symbol-minor, so gathers are plain repeats
    child_states = keyed.absorb_children(states, A)
    symbols = fr.symbols[c] if G == 1 else np.tile(fr.symbols[c], G)
    S = np.repeat(cum_ld, A) + r.log_dets_from_chains(child_states, symbols)
    dev = np.abs(S + shift)
    child_good = np.repeat(good, A)
    if cut is not None:
        child_good &= dev <= cut
    over = dev > band
    emitted_good = fr.emit_mask[c] & child_good.reshape(G, -1)
    measures = fr.measures[c]
    kept = [measures[e] for e in emitted_good] if emitted_good.any() else []
    if G == 1:   # flat count and gathers, twice as fast as their per-seed forms
        return [np.count_nonzero(over)], kept, child_states[act], S[act], child_good[act]
    return (np.count_nonzero(over.reshape(G, -1), axis=1), kept,
            *(np.take(x.reshape(G, -1), act, axis=1).reshape(-1)
              for x in (child_states, S, child_good)))
