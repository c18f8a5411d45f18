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
``BLOCK`` takes it in blocks of consecutive parents; each block writes its
active children straight into the next depth's arrays, which stay ordinary
arrays, and its good measures into a buffer of the workspace.  Grouping pays
the fixed cost of a block's numpy calls once for many shallow depths of many
seeds instead of once per seed.

Each :func:`det_window_reports` call allocates one workspace (``_Workspace``)
and every block of its walk writes into it with ``out=``: the raw draws and
splitmix64 scratch, deviations and masks, and two sets of child rows used in
turn, one for a block's children and one for those carried to the next
depth.  At ``BLOCK`` entries it takes 816 KiB, stays cache-resident and is
freed when the call returns.  A seed group walked on a worker thread owns
the workspace of its call; nothing is kept between calls or at module level.
The keyed draws and the log-determinant formula are the shared ones
(``keyed.draw_u01``, ``Realization.log_dets_from_chains``), called with
buffer arguments.  A fresh 128 KiB temporary per numpy operation faults its
pages in again whenever glibc has returned them: on the benchmark's
detwindow configs, steady-state minor faults per walk
(``resource.getrusage``, one thread, 15 walks after 3 warm-up walks) read
5,584 on ``line``, 6,080 on ``plane`` and 6,014-8,012 on ``wide_io`` with
such temporaries, and 1,194, 474 and 0-2 with the workspace.
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

# Children per block of the walk, and entries per workspace buffer (see the
# module docstring): 128 KiB per float64 buffer, cache-resident.
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
    # keyed's cached step tile for this alphabet comes first: made above the
    # workspace by the first walk, it would pin the workspace's freed memory
    keyed.absorb_children(np.empty(0, dtype=np.uint64), A)
    ws = _Workspace(max(BLOCK, A))

    # (first depth index, seeds lo..hi-1, their rows: states, cum_ld, good)
    stack = [(0, 0, S, keyed.root_states([q.seed for q in rs]),
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
            args = (k * lam, k * eps1, cut, ws)
            kids, carry = ws.node_sets(states)
            if G * width <= BLOCK:
                bad, kept, states, cum_ld, good = _walk_block(
                    r, fr, A, states, cum_ld, good, 0, P, fr.active_idx, *args, kids, carry)
            else:
                # one seed wider than a block: consecutive parents [a, b) own
                # children [a*A, b*A), since children are parent-major; their
                # active children go straight into the next depth's arrays
                cuts = list(range(0, P, max(1, BLOCK // A))) + [P]
                at = np.searchsorted(fr.active_idx, np.multiply(cuts, A)).tolist()
                n_act = fr.active_idx.size
                nxt = (np.empty(n_act, dtype=np.uint64), np.empty(n_act),
                       np.empty(n_act, dtype=bool))
                measures = ws.good_measures(np.count_nonzero(fr.emit_mask))
                bad = used = 0
                for a, b, i, j in zip(cuts, cuts[1:], at, at[1:]):
                    dst = tuple(x[i:j] for x in nxt)
                    block_bad, block_kept, *_ = _walk_block(
                        r, fr, A, states[a:b], cum_ld[a:b], good[a:b], a, b,
                        fr.active_idx[i:j] - a * A, *args,
                        dst if j - i == (b - a) * A else kids, dst)
                    bad += block_bad[0]
                    for x in block_kept:
                        measures[used:used + x.size] = x
                        used += x.size
                kept = [measures[:used]] if used else []
                states, cum_ld, good = nxt
            failures[k - 1][lo:hi] = bad
            if kept:   # one sum per seed and depth, as a walk of one seed sums
                good_mass[lo:hi] += [x.sum() for x in kept]
            del kept   # before the next block's measures are gathered

    failures = np.array(failures, dtype=np.int64).reshape(-1, S)
    return [DetWindowReport(
        n=n, eps1=eps1, C=C, N1=N1, lyapunov=lam, good_mass=float(good_mass[j]),
        per_prefix_failures=failures[:, j].copy(),
        per_prefix_totals=np.array(totals, dtype=np.int64)) for j in range(S)]


class _Workspace:
    """The buffers one walk reuses for every block, ``size`` entries each.

    ``raw`` and ``mix`` (uint64) take the draws and the splitmix64 scratch,
    and ``mask`` (bool) the comparisons.  ``dev`` (float64) shares ``raw``'s
    memory: it takes the parents' log-determinants and the deviations once a
    block's draws are spent.  ``nodes`` holds two sets of (chain states,
    cumulative log-determinants, good flags): a block's children go into the
    set that does not hold its parents, and the children carried to the next
    depth stay there when all are active, or are gathered into the other
    set.  At ``size = BLOCK`` the buffers take 51 bytes per entry, 816 KiB.
    """

    def __init__(self, size: int):
        self.raw = np.empty(size, dtype=np.uint64)
        self.dev = self.raw.view(np.float64)
        self.mix = np.empty(size, dtype=np.uint64)
        self.mask = np.empty(size, dtype=bool)
        self.nodes = [(np.empty(size, dtype=np.uint64), np.empty(size),
                       np.empty(size, dtype=bool)) for _ in range(2)]
        self._measures = np.empty(0)

    def good_measures(self, n: int) -> np.ndarray:
        """A float64 buffer of ``n`` entries for the good measures of one
        seed's depth wider than a block, reused by later such depths."""
        if self._measures.size < n:
            self._measures = np.empty(n)
        return self._measures[:n]

    def node_sets(self, parents: np.ndarray) -> tuple:
        """(children's set, carried set) for parents whose chain states are
        ``parents``; the carried set is the one holding them, if either is."""
        a, b = self.nodes
        return (b, a) if np.may_share_memory(parents, a[0]) else (a, b)


def _walk_block(r: Realization, fr, A: int, states, cum_ld, good, lo: int, hi: int,
                act: np.ndarray, shift: float, band: float, cut, ws: _Workspace,
                kids: tuple, carry: tuple):
    """One block of a depth: the children of parents ``lo .. hi - 1`` of each
    seed whose rows (seed-major) are ``states``, ``cum_ld`` and ``good``.

    The children's chain states, cumulative log-determinants and good flags
    are written into the arrays ``kids``, and the temporaries into ``ws``.
    Returns each seed's band-violation count, each seed's measures of its
    good emitted children (an empty list when no seed has any), and the
    chain states, cumulative log-determinants and good flags of the children
    ``act`` (indices within one seed's block) of every seed, seed-major;
    those stay active.  They are ``kids`` themselves when every child stays
    active, else gathered into ``carry``, which may hold the parents.
    """
    c = slice(lo * A, hi * A)
    G = states.size // (hi - lo)
    N = G * (hi - lo) * A
    child_states, S, child_good = (x[:N] for x in kids)
    mix, raw, dev, mask = ws.mix[:N], ws.raw[:N], ws.dev[:N], ws.mask[:N]
    keyed.absorb_children(states, A, out=child_states, scratch=mix)
    symbols = fr.symbols[c]
    if G > 1 and len(r.family.distributions) > 1:   # one distribution reads no symbols
        symbols = np.tile(symbols, G)
    r.log_dets_from_chains(child_states, symbols, out=S, raw=raw, scratch=mix)
    S += keyed.repeat_children(cum_ld, A, out=dev)   # the draws are spent
    np.add(S, shift, out=dev)
    np.abs(dev, out=dev)
    keyed.repeat_children(good, A, out=child_good)
    if cut is not None:
        child_good &= np.less_equal(dev, cut, out=mask)
    over = np.greater(dev, band, out=mask)
    bad = [np.count_nonzero(over)] if G == 1 \
        else np.count_nonzero(over.reshape(G, -1), axis=1)
    kept = []
    emit = fr.emit_mask[c]
    if emit.any():
        emitted_good = np.logical_and(child_good.reshape(G, -1), emit, out=mask.reshape(G, -1))
        if emitted_good.any():
            measures = fr.measures[c]
            # a seed whose every child here is good and emitted sums the tree's
            # own slice; its sum equals that of a copy
            kept = [measures if e.all() else measures[e] for e in emitted_good]
    if act.size * G == N:
        return bad, kept, child_states, S, child_good
    n = G * act.size
    # np.take copies a read-only index (the tree's) on every call: copy it once
    # into the spent splitmix64 scratch; mode="clip" gathers straight into carry
    idx = mix[:act.size].view(np.intp)
    np.copyto(idx, act)
    if G == 1:   # flat gathers, twice as fast as their per-seed forms
        return (bad, kept, *(np.take(x[:N], idx, out=y[:n], mode="clip")
                             for x, y in zip(kids, carry)))
    return (bad, kept, *(np.take(x[:N].reshape(G, -1), idx, axis=1,
                                 out=y[:n].reshape(G, -1), mode="clip").reshape(-1)
                         for x, y in zip(kids, carry)))
