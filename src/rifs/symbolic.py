"""Symbolic dynamics: alphabets, words, cylinder measures, and level sets.

Words are plain tuples of integer symbols ``1..#A`` (the empty tuple is the
empty word and the identity for concatenation); a level set stores its words
as a zero-padded ``uint8`` matrix and offers the tuples as a view.  A
shift-invariant measure assigns each finite word its cylinder mass; the two
implemented families are Bernoulli products and stationary Markov chains
with strictly positive entries, both of which decay slowly: one-step
cylinder ratios are bounded below by a constant ``c > 0``.

The level set of order ``n`` is the prefix-free family of words whose
cylinder measure first drops to ``c**n`` or below.  It partitions the shift
space up to measure zero, all members have comparable mass (within ``1/c``),
and its cardinality grows like ``c**-n``.  Every level is a cut of one
cylinder tree: :func:`iter_level_frontiers` expands it breadth-first, one
vectorized depth at a time, with symbols in ascending order (a canonical,
reproducible output ordering), and ``tuple(iter_level_frontiers(m, n_max))``
holds every level ``n <= n_max`` as a selection of its nodes.  Level sets,
determinant windows and projections all read that one tree, the latter two
carrying their own per-node state.

Natural logarithms throughout.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError, InputError

WORD_BUDGET_DEFAULT = 10_000_000
ENTROPY_K_CAP = 20
_ENTROPY_NODE_BUDGET = 1 << 23


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; symbols are identified with ``1..size``."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise InputError(f"alphabet size must be an integer >= 2, got {self.size!r}")
        if self.size > 255:
            raise InputError("alphabet size above 255 is not supported")

    @property
    def symbols(self) -> range:
        return range(1, self.size + 1)


def validate_word(word, alphabet: Alphabet) -> tuple:
    """Return ``word`` as a tuple after checking every symbol is in range."""
    w = tuple(int(s) for s in word)
    for s in w:
        if not 1 <= s <= alphabet.size:
            raise InputError(f"symbol {s} outside alphabet 1..{alphabet.size}")
    return w


def word_to_string(word) -> str:
    """Digit-string form used in CSV output; alphabets above 9 do not fit."""
    if any(s > 9 for s in word):
        raise InputError("digit-string serialization requires alphabet size <= 9")
    return "".join(str(s) for s in word)


def word_from_string(text: str) -> tuple:
    return tuple(int(ch) for ch in text)


@dataclass(frozen=True)
class TailSequence:
    """Infinite symbol sequence given as an explicit prefix plus a period.

    ``symbol(k)`` is total and deterministic for every ``k >= 1``.
    """

    prefix: tuple = ()
    period: tuple = (1,)

    def __post_init__(self):
        for name in ("prefix", "period"):
            try:
                object.__setattr__(self, name, tuple(operator.index(s)
                                                     for s in getattr(self, name)))
            except TypeError as exc:
                raise InputError(f"tail {name} must be a list of integer symbols") from exc
        if len(self.period) == 0:
            raise InputError("tail sequence needs a nonempty period")

    @classmethod
    def constant(cls, symbol: int) -> "TailSequence":
        return cls((), (int(symbol),))

    def symbol(self, k: int) -> int:
        if k < 1:
            raise InputError("tail positions are 1-based")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.period[(k - len(self.prefix) - 1) % len(self.period)]

    def first(self, k: int) -> tuple:
        return tuple(self.symbol(j) for j in range(1, k + 1))

    def shifted(self, by: int = 1) -> "TailSequence":
        """Tail with the first ``by`` symbols removed."""
        if by <= len(self.prefix):
            return TailSequence(self.prefix[by:], self.period)
        r = (by - len(self.prefix)) % len(self.period)
        return TailSequence((), self.period[r:] + self.period[:r])

    def validate(self, alphabet: Alphabet) -> None:
        for s in self.prefix + self.period:
            if not 1 <= s <= alphabet.size:
                raise InputError(f"tail symbol {s} outside alphabet 1..{alphabet.size}")


class SymbolicMeasure:
    """Common interface of the slowly decaying measures below."""

    alphabet: Alphabet

    def first_symbol_probs(self) -> np.ndarray:
        """Masses of the one-symbol cylinders, shape (#A,)."""
        raise NotImplementedError

    def transition_rows(self) -> np.ndarray:
        """Row ``i-1``: ratios m([a·j])/m([a]) for words ending in symbol i."""
        raise NotImplementedError


class BernoulliMeasure(SymbolicMeasure):
    """Product measure of a strictly positive probability vector."""

    def __init__(self, p: Sequence[float]):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise InputError("Bernoulli measure needs a probability vector of length >= 2")
        if not np.all(np.isfinite(p) & (p > 0.0)):
            raise InputError("Bernoulli probabilities must be finite and strictly positive")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InputError(f"Bernoulli probabilities sum to {p.sum()!r}, not 1")
        self.alphabet = Alphabet(p.size)
        self.p = p.copy()
        self.p.setflags(write=False)

    def __repr__(self):
        return f"BernoulliMeasure({self.p.tolist()})"

    def first_symbol_probs(self) -> np.ndarray:
        return self.p

    def transition_rows(self) -> np.ndarray:
        return np.broadcast_to(self.p, (self.p.size, self.p.size))


class MarkovMeasure(SymbolicMeasure):
    """Stationary Markov measure: row vector ``pi`` and transition matrix ``P``.

    All entries must be strictly positive and ``pi`` must actually be
    stationary for ``P`` (checked to 1e-9), which is what makes the measure
    shift-invariant by construction.
    """

    def __init__(self, pi: Sequence[float], P: Sequence[Sequence[float]]):
        pi = np.asarray(pi, dtype=np.float64)
        P = np.asarray(P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise InputError("transition matrix must be square with size >= 2")
        if pi.shape != (P.shape[0],):
            raise InputError("stationary vector length must match transition matrix")
        if not (np.all(np.isfinite(pi) & (pi > 0.0)) and np.all(np.isfinite(P) & (P > 0.0))):
            raise InputError("Markov measure requires finite, strictly positive entries")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise InputError(f"stationary vector sums to {pi.sum()!r}, not 1")
        rowsums = P.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-12):
            raise InputError("transition matrix rows must sum to 1 within 1e-12")
        if np.max(np.abs(pi @ P - pi)) > 1e-9:
            raise InputError("pi is not stationary for P (|pi P - pi| > 1e-9)")
        self.alphabet = Alphabet(P.shape[0])
        self.pi = pi.copy()
        self.P = P.copy()
        self.pi.setflags(write=False)
        self.P.setflags(write=False)

    @classmethod
    def from_transition(cls, P: Sequence[Sequence[float]]) -> "MarkovMeasure":
        """Build the stationary measure of ``P`` via its left Perron vector."""
        P = np.asarray(P, dtype=np.float64)
        if not np.all(np.isfinite(P)):
            raise InputError("transition matrix entries must be finite")
        vals, vecs = np.linalg.eig(P.T)
        k = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, k])
        pi = np.abs(pi) / np.abs(pi).sum()
        # polish to machine-precision stationarity
        for _ in range(50):
            pi = pi @ P
            pi = pi / pi.sum()
        return cls(pi, P)

    def __repr__(self):
        return f"MarkovMeasure(pi={self.pi.tolist()}, P={self.P.tolist()})"

    def first_symbol_probs(self) -> np.ndarray:
        return self.pi

    def transition_rows(self) -> np.ndarray:
        return self.P


def cylinder_measure(m: SymbolicMeasure, word) -> float:
    """Mass of the cylinder [word]; 1 for the empty word."""
    w = validate_word(word, m.alphabet)
    if not w:
        return 1.0
    first = m.first_symbol_probs()
    rows = m.transition_rows()
    value = float(first[w[0] - 1])
    for prev, cur in zip(w, w[1:]):
        value *= float(rows[prev - 1, cur - 1])
    return value


def slow_decay_constant(m: SymbolicMeasure) -> float:
    """Lower bound c for all one-step cylinder ratios m([a·i])/m([a]).

    Bernoulli: the smallest probability.  Markov: the smallest transition
    entry, which also bounds the first-symbol ratios because each stationary
    mass is a convex combination of a transition column.
    """
    if isinstance(m, BernoulliMeasure):
        return float(np.min(m.p))
    if isinstance(m, MarkovMeasure):
        return float(np.min(m.P))
    raise InputError(f"unsupported measure type {type(m).__name__}")


def entropy(m: SymbolicMeasure) -> float:
    """Measure-theoretic entropy in nats (closed form)."""
    if isinstance(m, BernoulliMeasure):
        return float(-np.sum(m.p * np.log(m.p)))
    if isinstance(m, MarkovMeasure):
        return float(-np.sum(m.pi[:, None] * m.P * np.log(m.P)))
    raise InputError(f"unsupported measure type {type(m).__name__}")


def entropy_estimate(m: SymbolicMeasure, k: int, k_cap: int = ENTROPY_K_CAP) -> float:
    """Finite-k entropy quotient ``-sum m([a]) log m([a]) / k`` over A^k.

    The sum is enumerated (vectorized, one array per depth); ``k`` is capped
    and the #A**k term count is bounded to keep the enumeration honest but
    affordable.  Exact for Bernoulli at every k; O(1/k) close for Markov.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if k > k_cap:
        raise BudgetError(f"entropy_estimate depth cap ({k_cap}) exceeded by k={k}")
    A = m.alphabet.size
    if A ** k > _ENTROPY_NODE_BUDGET:
        raise BudgetError(
            f"entropy_estimate node budget ({_ENTROPY_NODE_BUDGET}) exceeded: #A^k = {A ** k}")
    rows = np.asarray(m.transition_rows())
    meas = np.asarray(m.first_symbol_probs(), dtype=np.float64)
    for depth in range(2, k + 1):
        last_idx = np.arange(meas.size) % A  # lexicographic order: last symbol cycles fastest
        meas = (meas[:, None] * rows[last_idx]).reshape(-1)
    return float(-(meas * np.log(meas)).sum() / k)


@dataclass(frozen=True)
class LevelFrontier:
    """One breadth-first depth of the cylinder-tree expansion of L_{m,n}.

    Arrays describe all children generated at this depth, parent-major and
    symbol-ascending (the canonical order): the children of the previous
    depth's ``i``-th *active* node are rows ``i * #A .. i * #A + #A - 1``,
    so ``symbols`` is ``tile(1..#A, ...)`` (``uint8``) and per-parent state
    is gathered with ``repeat(state, #A)``; consumers may rely on that
    layout.  Children with ``emit_mask`` set are level set members, the rest
    stay active (``active_idx`` selects them).
    """

    depth: int
    symbols: np.ndarray
    measures: np.ndarray
    emit_mask: np.ndarray
    active_idx: np.ndarray


def iter_level_frontiers(m: SymbolicMeasure, n: int,
                         word_budget: int = WORD_BUDGET_DEFAULT) -> Iterator[LevelFrontier]:
    """Drive the breadth-first expansion of the cylinder tree of L_{m,n}.

    ``tuple(iter_level_frontiers(m, n_max, word_budget))`` is the tree that
    level sets, determinant windows and projections read; it holds every
    level n <= n_max (see :func:`level_set`).  Consumers carry their own
    per-active-node state: repeat it per child, update with
    ``symbols``/``measures``, keep ``active_idx``.
    """
    if n < 1:
        raise InputError("level index n must be >= 1")
    threshold = slow_decay_constant(m) ** n
    A = m.alphabet.size
    rows = np.asarray(m.transition_rows())
    symbols_tile = np.arange(1, A + 1, dtype=np.uint8)

    active_meas = np.array([1.0])
    active_last = None  # None marks the root (empty word)
    depth = 0
    emitted = 0
    while active_meas.size:
        depth += 1
        if active_last is None:
            child_meas = np.asarray(m.first_symbol_probs(), dtype=np.float64).copy()
        else:
            child_meas = (active_meas[:, None] * rows[active_last - 1]).reshape(-1)
        symbols = np.tile(symbols_tile, active_meas.size)
        emit = child_meas <= threshold
        active_idx = np.flatnonzero(~emit)
        emitted += np.count_nonzero(emit)
        if emitted + active_idx.size > word_budget:
            raise BudgetError(
                f"level-set word budget ({word_budget}) exceeded at depth {depth} "
                f"(n={n}, emitted so far {emitted})")
        for a in (symbols, child_meas, emit, active_idx):
            a.setflags(write=False)   # trees are shared by threads
        yield LevelFrontier(depth, symbols, child_meas, emit, active_idx)
        active_meas = child_meas[active_idx]
        active_last = symbols[active_idx]


def _parent_measures(tree: tuple) -> Iterator[np.ndarray]:
    """Per depth of ``tree``, the mass of every child's parent."""
    A = tree[0].symbols.size   # the root's children
    parents = np.ones(1)
    for fr in tree:
        yield np.repeat(parents, A)
        parents = fr.measures[fr.active_idx]


@dataclass(frozen=True)
class LevelSet:
    """Prefix-free word family whose cylinder measure first drops to c**n.

    Rows are in the canonical breadth-first order (shorter first, then
    lexicographic).  ``word_matrix`` holds the words zero-padded to the
    longest one, ``lengths`` their lengths, and ``parent_measures`` the
    masses of the words minus their last symbol, so the defining sandwich is
    checkable vectorized; a full set of words passing it is automatically
    prefix-free (prefix measures only grow, so a proper prefix of a member
    would sit strictly above the threshold).  ``words`` is the tuple view
    for API edges, built on first access.

    The members are nodes of the cylinder tree ``tree`` they were selected
    from: ``nodes[k - 1]`` indexes the members among that tree's children at
    depth k, in row order.
    """

    n: int
    word_matrix: np.ndarray = field(repr=False)      # (N, max_len) uint8
    lengths: np.ndarray = field(repr=False)          # (N,)
    measures: np.ndarray = field(repr=False)         # (N,)
    parent_measures: np.ndarray = field(repr=False)  # (N,)
    tree: tuple = field(repr=False)                  # LevelFrontier per depth
    nodes: tuple = field(repr=False)                 # member indices per depth

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def words(self) -> tuple:
        rows = self.word_matrix.tolist()
        return tuple(tuple(row[:ln]) for row, ln in zip(rows, self.lengths.tolist()))

    @property
    def mass(self) -> float:
        return float(self.measures.sum())

    @property
    def measure_bounds(self) -> tuple:
        return (float(self.measures.min()), float(self.measures.max()))


def _select(tree: tuple, n: int, masks) -> LevelSet:
    """The level set of the tree nodes picked by one boolean mask per depth.

    Each member's word is read back up the tree: its symbol at this depth,
    then its parent's among the previous depth's active nodes, and so on.
    A member's parent measure is read one step up.
    """
    nodes = tuple(np.flatnonzero(mask) for mask in masks)
    A = tree[0].symbols.size
    lengths = np.concatenate([np.full(idx.size, fr.depth, dtype=np.int64)
                              for fr, idx in zip(tree, nodes)])
    words = np.zeros((lengths.size, int(lengths.max(initial=0))), dtype=np.uint8)
    parents = np.ones(lengths.size)   # the root's mass, for depth-1 members
    at = 0
    for k, idx in enumerate(nodes):
        if not idx.size:
            continue
        rows = slice(at, at + idx.size)
        at += idx.size
        if k:
            parents[rows] = tree[k - 1].measures[tree[k - 1].active_idx[idx // A]]
        for j in range(k, -1, -1):
            words[rows, j] = tree[j].symbols[idx]
            if j:
                idx = tree[j - 1].active_idx[idx // A]
    meas = np.concatenate([fr.measures[idx] for fr, idx in zip(tree, nodes)])
    for a in (words, lengths, meas, parents) + nodes:
        a.setflags(write=False)
    return LevelSet(n=n, word_matrix=words, lengths=lengths, measures=meas,
                    parent_measures=parents, tree=tree, nodes=nodes)


def level_set(m: SymbolicMeasure, n: int, word_budget: int = WORD_BUDGET_DEFAULT,
              tree: tuple | None = None) -> LevelSet:
    """Level set L_{m,n}: the words whose measure first drops to ``c**n`` or below.

    A word is a member exactly when its measure is at most ``c**n`` and its
    parent's is above, so the defining sandwich holds and the members are
    pairwise prefix-incomparable.  They are selected from ``tree``, which is
    ``tuple(iter_level_frontiers(m, n_max, word_budget))`` for any
    ``n_max >= n`` (every member's parent is active there); by default the
    tree of ``(m, n)`` itself is built.
    """
    if tree is None:
        tree = tuple(iter_level_frontiers(m, n, word_budget))
    elif n < 1:
        raise InputError("level index n must be >= 1")
    threshold = slow_decay_constant(m) ** n
    if any(np.any(fr.measures[fr.emit_mask] > threshold) for fr in tree):
        raise InputError(f"the cylinder tree is too shallow for level {n}")
    return _select(tree, n, ((fr.measures <= threshold) & (parents > threshold)
                             for fr, parents in zip(tree, _parent_measures(tree))))


def level_sets(m: SymbolicMeasure, n_values, word_budget: int = WORD_BUDGET_DEFAULT) -> list:
    """``[level_set(m, n) for n in n_values]``, all selected from one tree built
    for the deepest level, so they can be projected by one walk."""
    tree = tuple(iter_level_frontiers(m, max(n_values), word_budget))
    return [level_set(m, n, tree=tree) for n in n_values]


def restricted_level_set(m: SymbolicMeasure, n: int, eps1: float, C2: float,
                         word_budget: int = WORD_BUDGET_DEFAULT) -> LevelSet:
    """Members of L_{m,n} obeying the two-sided entropy-decay bound.

    Keeps a word iff every prefix of length k satisfies
    ``exp(-k (h + eps1)) / C2 <= m([a_1..a_k]) <= C2 exp(-k (h - eps1))``.
    The returned set's ``mass`` is the retained fraction of the full level
    set's unit mass.
    """
    if eps1 <= 0:
        raise InputError("eps1 must be positive")
    if C2 <= 0:
        raise InputError("C2 must be positive")
    h = entropy(m)
    tree = tuple(iter_level_frontiers(m, n, word_budget))
    masks = []
    good = np.ones(1, dtype=bool)  # every prefix so far obeys the bound, per active node
    for fr in tree:
        k = fr.depth
        lo = np.exp(-k * (h + eps1)) / C2
        hi = C2 * np.exp(-k * (h - eps1))
        child_good = (np.repeat(good, m.alphabet.size) & (fr.measures >= lo)
                      & (fr.measures <= hi))
        masks.append(fr.emit_mask & child_good)
        good = child_good[fr.active_idx]
    return _select(tree, n, masks)


def is_prefix_free(words) -> bool:
    """True iff no word is a prefix of another (sorted-adjacent check)."""
    ws = sorted(words)
    return not any(b[: len(a)] == a for a, b in zip(ws, ws[1:]))


def word_strings(ls: LevelSet) -> list:
    """Digit strings of the level set's words, read from its word matrix.

    Each row is shifted to ASCII digits, its zero padding masked back to NUL,
    and viewed as one fixed-width byte string (trailing NULs drop on decode).
    """
    words = ls.word_matrix
    if words.size and int(words.max()) > 9:
        raise InputError("digit-string serialization requires alphabet size <= 9")
    width = words.shape[1]
    if width == 0:
        return [""] * len(ls)
    digits = np.where(np.arange(width) < ls.lengths[:, None], words + ord("0"), 0)
    rows = np.ascontiguousarray(digits, dtype=np.uint8).view(f"S{width}")[:, 0]
    return rows.astype(str).tolist()


def write_levelset_csv(ls: LevelSet, path, header_comment: str | None = None) -> None:
    """CSV with columns ``word,length,measure``; words as digit strings."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("word,length,measure")
    lines.extend(f"{w},{n},{mu!r}" for w, n, mu in
                 zip(word_strings(ls), ls.lengths.tolist(), ls.measures.tolist()))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then rename it onto ``path``."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
