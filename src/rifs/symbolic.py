"""Symbolic dynamics: alphabets, words, cylinder measures, and level sets.

Words are plain tuples of integer symbols ``1..#A`` (the empty tuple is the
empty word and the identity for concatenation).  A shift-invariant measure
assigns each finite word its cylinder mass; the two implemented families
are Bernoulli products and stationary Markov chains with strictly positive
entries, both of which decay slowly: one-step cylinder ratios are bounded
below by a constant ``c > 0``.

The level set of order ``n`` is the prefix-free family of words whose
cylinder measure first drops to ``c**n`` or below.  It partitions the shift
space up to measure zero, all members have comparable mass (within ``1/c``),
and its cardinality grows like ``c**-n``.  Every level is a cut of one
cylinder tree: :func:`iter_level_frontiers` expands it breadth-first, one
vectorized depth at a time, with symbols in ascending order (a canonical,
reproducible output ordering), and ``tuple(iter_level_frontiers(m, n_max))``
holds every level ``n <= n_max`` as a selection of its nodes.  Membership is
decided here alone: :func:`level_set` takes the nodes its own tree emits,
and :func:`level_sets` cuts the shallower levels from the deepest level's
tree by one downward walk of it.  A set reads its words back up its tree on
demand; projections read the same tree with their own per-node state, and
determinant windows build the tree they walk.  A depth is built only if its
children fit the word budget.

Reports are UTF-8 bytes with ``\n`` line ends, each written to a sibling
temporary file and renamed into place.  The level-set and point CSVs are
byte tables: each distinct value of a column is formatted once, words are
spelled as digits straight from the word matrix, and rows are laid out
``ROW_BLOCK`` at a time, so the writer's memory is bounded per block.

Natural logarithms throughout.
"""

from __future__ import annotations

import contextlib
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
# words are spelled with one decimal digit per symbol in reports
MAX_DIGIT_SYMBOL = 9
# rows per block of a report table (see write_word_table)
ROW_BLOCK = 1 << 14


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
    if any(s > MAX_DIGIT_SYMBOL for s in word):
        raise InputError(f"digit-string serialization requires alphabet size "
                         f"<= {MAX_DIGIT_SYMBOL}")
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


def entropy_estimate(m: SymbolicMeasure, k: int) -> float:
    """Finite-k entropy quotient ``-sum m([a]) log m([a]) / k`` over A^k.

    The sum is enumerated (vectorized, one array per depth); ``k`` is capped
    and the #A**k term count is bounded to keep the enumeration honest but
    affordable.  Exact for Bernoulli at every k; O(1/k) close for Markov.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if k > ENTROPY_K_CAP:
        raise BudgetError(f"entropy_estimate depth cap ({ENTROPY_K_CAP}) exceeded by k={k}")
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


@dataclass(frozen=True, eq=False)
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
    level n <= n_max (see :func:`level_sets`).  Consumers carry their own
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
        # every child is emitted or stays active, so the budget is checked
        # before the depth is built
        if emitted + active_meas.size * A > word_budget:
            raise BudgetError(
                f"level-set word budget ({word_budget}) exceeded at depth {depth} "
                f"(n={n}, {active_meas.size * A} children after {emitted} "
                "emitted words)")
        if active_last is None:
            child_meas = np.asarray(m.first_symbol_probs(), dtype=np.float64).copy()
        else:
            child_meas = (active_meas[:, None] * rows[active_last - 1]).reshape(-1)
        symbols = np.tile(symbols_tile, active_meas.size)
        emit = child_meas <= threshold
        active_idx = np.flatnonzero(~emit)
        emitted += child_meas.size - active_idx.size
        for a in (symbols, child_meas, emit, active_idx):
            a.setflags(write=False)   # trees are shared by threads
        yield LevelFrontier(depth, symbols, child_meas, emit, active_idx)
        active_meas = child_meas[active_idx]
        active_last = symbols[active_idx]


@dataclass(frozen=True, eq=False)
class LevelSet:
    """Prefix-free word family whose cylinder measure first drops to c**n.

    The members are nodes of the cylinder tree ``tree``: ``nodes[k - 1]``
    indexes them among its children at depth k, so rows are in the
    canonical breadth-first order (shorter first, then lexicographic).
    ``lengths`` and ``measures`` are read from the tree when the set is
    made; ``word_matrix`` (the words, zero-padded), ``parent_measures`` (the
    masses of the words minus their last symbol, for the defining sandwich)
    and ``words`` (the tuple view for API edges) are read back up it on
    first access.  Words passing the sandwich are prefix-free: a proper
    prefix of a member would sit strictly above the threshold.  Every array
    is read-only.
    """

    n: int
    tree: tuple = field(repr=False)                       # LevelFrontier per depth
    nodes: tuple = field(repr=False)                      # member indices per depth
    lengths: np.ndarray = field(init=False, repr=False)   # (N,) int64
    measures: np.ndarray = field(init=False, repr=False)  # (N,)

    def __post_init__(self):
        sizes = [idx.size for idx in self.nodes]
        object.__setattr__(self, "lengths", np.repeat(np.arange(1, len(sizes) + 1), sizes))
        object.__setattr__(self, "measures", np.concatenate(
            [np.ones(0)] + [fr.measures[idx] for fr, idx in zip(self.tree, self.nodes)]))
        for a in (self.lengths, self.measures) + self.nodes:
            a.setflags(write=False)   # sets are shared by threads

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def word_matrix(self) -> np.ndarray:
        """(N, max_len) ``uint8``: each member's symbol at its depth, then its
        parent's among the previous depth's active nodes, and so on."""
        A = self.tree[0].symbols.size
        words = np.zeros((len(self), int(self.lengths.max(initial=0))), dtype=np.uint8)
        at = 0
        for k, idx in enumerate(self.nodes):
            if not idx.size:
                continue
            rows = words[at:at + idx.size]
            at += idx.size
            for j in range(k, -1, -1):
                rows[:, j] = self.tree[j].symbols[idx]
                idx = self.tree[j - 1].active_idx[idx // A] if j else idx
        words.setflags(write=False)
        return words

    @cached_property
    def parent_measures(self) -> np.ndarray:
        """(N,): each member's parent's measure, the root's 1 at depth 1."""
        A = self.tree[0].symbols.size
        parents = np.concatenate([np.ones(self.nodes[0].size if self.nodes else 0)] + [
            fr.measures[fr.active_idx[idx // A]] for fr, idx in zip(self.tree, self.nodes[1:])])
        parents.setflags(write=False)
        return parents

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


def _cut(tree: tuple, threshold: float) -> Iterator[np.ndarray]:
    """The member indices of every depth of ``tree``, from one walk down it.

    A flag per active node marks a prefix still above ``threshold``; a
    flagged node's child is a member when its measure is at most ``threshold``.
    """
    flag = np.ones(1, dtype=bool)   # the root
    for fr in tree:
        above = fr.measures > threshold
        ok = np.repeat(flag, tree[0].symbols.size)
        yield np.flatnonzero(ok & ~above)
        flag = (ok & above)[fr.active_idx]


def level_set(m: SymbolicMeasure, n: int, word_budget: int = WORD_BUDGET_DEFAULT) -> LevelSet:
    """Level set L_{m,n}: the words whose measure first drops to ``c**n`` or below.

    A word is a member exactly when its measure is at most ``c**n`` and its
    parent's is above, so the defining sandwich holds and the members are
    pairwise prefix-incomparable.  They are the emitted nodes of the tree
    of ``(m, n)``, which is built here.
    """
    tree = tuple(iter_level_frontiers(m, n, word_budget))
    return LevelSet(n, tree, tuple(np.flatnonzero(fr.emit_mask) for fr in tree))


def level_sets(m: SymbolicMeasure, n_values, word_budget: int = WORD_BUDGET_DEFAULT) -> list:
    """``[level_set(m, n) for n in n_values]``, in the order given, all cut
    from the tree of the deepest level (every member's parent is active
    there), so they can be projected by one walk."""
    n_values = list(n_values)
    if not n_values or min(n_values) < 1:
        raise InputError(f"level indices must be a nonempty list of n >= 1, got {n_values}")
    tree = tuple(iter_level_frontiers(m, max(n_values), word_budget))
    c = slow_decay_constant(m)
    return [LevelSet(n, tree, tuple(_cut(tree, c ** n))) for n in n_values]


def is_prefix_free(words) -> bool:
    """True iff no word is a prefix of another (sorted-adjacent check)."""
    ws = sorted(words)
    return not any(b[: len(a)] == a for a, b in zip(ws, ws[1:]))


def text_table(values: np.ndarray, fmt) -> tuple:
    """``(table, index)``: ``fmt`` of each distinct value as a NUL-padded
    ``uint8`` row of ``table``, and the row of every value, shaped like ``values``.

    ``fmt`` is called once per distinct value of ``values.tolist()``.  Values
    are keyed by their bit pattern, so ``0.0`` and ``-0.0`` format apart.
    """
    flat = np.ascontiguousarray(values).reshape(-1)
    _, first, index = np.unique(flat.view(f"u{flat.itemsize}"),
                                return_index=True, return_inverse=True)
    texts = np.array(list(map(fmt, flat[first].tolist())), dtype="S")
    return (texts.view(np.uint8).reshape(texts.size, texts.itemsize),
            index.reshape(np.shape(values)))


def write_word_table(path, head: str, words: np.ndarray | None, columns) -> None:
    """Write ``head``, then one CSV row per row of the zero-padded word matrix ``words``.

    A row is its word as a digit string (``words`` may be 0 wide), then one
    cell per ``(table, index)`` pair of ``columns`` (see :func:`text_table`):
    row ``index[i]`` of ``table`` is row ``i``'s cell.  With ``words=None`` a
    row is its cells alone, one row per entry of the first index.  Rows are
    laid out ``ROW_BLOCK`` at a time in one ``uint8`` buffer that holds the
    separators: each cell is copied into its NUL-padded slice, and the
    buffer's non-NUL bytes are written, so memory beyond the inputs is
    bounded per block.
    """
    if words is None:
        n, width, lead = columns[0][1].size, 0, 0
    else:
        if words.size and int(words.max()) > MAX_DIGIT_SYMBOL:
            raise InputError(f"digit-string serialization requires alphabet size "
                             f"<= {MAX_DIGIT_SYMBOL}")
        n, width = words.shape
        lead = width + 1
    stops = np.cumsum([lead] + [t.shape[1] + 1 for t, _ in columns])
    buf = np.full((min(n, ROW_BLOCK), stops[-1]), ord(","), dtype=np.uint8)
    buf[:, -1] = ord("\n")
    nonzero = np.empty_like(buf, dtype=bool)

    def blocks():
        yield head.encode()
        for lo in range(0, n, ROW_BLOCK):
            rows = buf[:min(n - lo, ROW_BLOCK)]
            if width:
                w = words[lo:lo + rows.shape[0]]
                rows[:, :width] = (w + ord("0")) * (w != 0)
            for (table, index), start, stop in zip(columns, stops, stops[1:]):
                np.take(table, index[lo:lo + rows.shape[0]], axis=0,
                        out=rows[:, start:stop - 1])
            yield rows[np.not_equal(rows, 0, out=nonzero[:rows.shape[0]])]

    _write_atomic(path, blocks())


def write_levelset_csv(ls: LevelSet, path, header_comment: str | None = None) -> None:
    """CSV with columns ``word,length,measure``; words as digit strings."""
    head = f"# {header_comment}\n" if header_comment else ""
    write_word_table(path, head + "word,length,measure\n", ls.word_matrix,
                     [text_table(ls.lengths, str), text_table(ls.measures, repr)])


def _write_atomic(path, blocks) -> None:
    """Write ``blocks`` (bytes or contiguous ``uint8`` arrays) to a sibling
    temporary file, then rename it onto ``path``; the temporary file is
    removed if a block fails."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(blocks)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
