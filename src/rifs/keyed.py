"""Deterministic keyed randomness for word-indexed sampling.

Every random draw in this package is a pure function of ``(seed, word,
draw index)``.  The construction is a chained splitmix64 absorption:

* ``root_state(seed)`` mixes the 64-bit realization seed into a chain state;
* ``absorb(state, symbol)`` extends the chain by one word symbol, so the
  state for a word is the left fold of its symbols (structurally injective:
  two distinct words trace distinct absorption sequences);
* draw ``i`` for a word is ``mix64(state + (i + 1) * GAMMA)``: a
  counter-based generator keyed by the word's chain state, giving as many
  independent variates per word as the samplers need.

splitmix64's finalizer is a bijection on ``uint64`` with strong avalanche;
used counter-style it passes standard uniformity batteries.  Distinct words
can still collide in the 64-bit state with probability ``~ N^2 / 2^64``
(about 5e-6 at the 1e7-word budget), which we accept and document.  Chain
states are computed with numpy ``uint64`` arrays throughout, so whole tree
levels are keyed in a handful of vectorized passes.

Reproducibility is stream-level across platforms; bit-level within one
platform (transcendental functions downstream may vary in the last ulp
across libm implementations).
"""

from __future__ import annotations

import operator
from collections import deque
from functools import lru_cache

import numpy as np

from .errors import InputError

# splitmix64 round constants (Steele, Lea & Flood) and the golden-gamma
# increment; SALT separates realization roots from other derived streams.
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SALT_ROOT = np.uint64(0x243F6A8885A308D3)
_SALT_CHILD = np.uint64(0x13198A2E03707344)
_SYMBOL_STEP = np.uint64(0xD1342543DE82EF95)

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53
_BELOW_ONE = np.nextafter(1.0, 0.0)

# children per cached tile of symbol steps (absorb_children)
_STEP_TILE = 1 << 14
# map_seeds keeps at most this many seeds in flight per worker thread
SEED_WINDOW_PER_THREAD = 4


def _mix64_inplace(z: np.ndarray, *, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer mutating a fresh uint64 array; ``scratch``, a
    uint64 array of the same shape, holds the shifted copies (else allocated)."""
    t = np.right_shift(z, np.uint64(30), out=scratch)
    z ^= t
    z *= _M1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise over a uint64 array."""
    return _mix64_inplace(x.astype(np.uint64, copy=True))


def check_seed(seed) -> int:
    """``operator.index(seed)``, refused unless it is a 64-bit unsigned integer."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if 0 <= value <= _U64_MAX:
        return value
    raise InputError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def root_states(seeds) -> np.ndarray:
    """``root_state`` of each of an array of uint64 realization seeds."""
    return _mix64_inplace(np.asarray(seeds, dtype=np.uint64) ^ _SALT_ROOT)


def root_state(seed: int) -> np.ndarray:
    """Chain state of the empty word for a 64-bit realization seed."""
    return root_states([check_seed(seed)])


def absorb(states: np.ndarray, symbols, *, out: np.ndarray | None = None) -> np.ndarray:
    """Extend chain states by one symbol each (vectorized), into ``out`` if given.

    ``symbols`` may be a scalar or an array broadcastable against ``states``.
    """
    sym = np.asarray(symbols)
    if sym.dtype != np.uint64:
        sym = sym.astype(np.uint64)
    return _mix64_inplace(np.bitwise_xor(states, sym * _SYMBOL_STEP, out=out))


@lru_cache(maxsize=8)
def _symbol_steps(n_symbols: int) -> np.ndarray:
    """Read-only ``tile(1..A, ...) * _SYMBOL_STEP``, whole tiles of about
    ``_STEP_TILE`` children (at least one tile of ``A``)."""
    steps = np.tile(np.arange(1, n_symbols + 1, dtype=np.uint64) * _SYMBOL_STEP,
                    max(1, _STEP_TILE // n_symbols))
    steps.setflags(write=False)
    return steps


def repeat_children(parents: np.ndarray, n_symbols: int, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``np.repeat(parents, n_symbols, axis=0)``, written into ``out`` when
    given: a row per parent copied to each of its children, parent-major.

    Below 6 symbols it makes one strided copy per symbol (at 2 symbols 2.7x
    faster than a gather from a cached index, and 6-9x faster than a
    broadcast copy, whose inner loop has length ``A``); from 6 on it makes
    the broadcast copy, which is as fast as the strided ones for float64 and
    1.2-2.5x faster than a gather at 8 and 16 symbols.
    """
    if out is None:
        out = np.empty((parents.shape[0] * n_symbols,) + parents.shape[1:], parents.dtype)
    if n_symbols < 6:
        for j in range(n_symbols):
            out[j::n_symbols] = parents
    else:
        np.copyto(out.reshape((-1, n_symbols) + parents.shape[1:]), parents[:, None])
    return out


def absorb_children(states: np.ndarray, n_symbols: int, *, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Chain states of every one-symbol extension, parent-major symbol-minor.

    Equals ``absorb(repeat(states, A), tile(1..A, len(states)))``; shape
    ``(len(states) * n_symbols,)``, written into ``out`` when given, with
    ``scratch`` for the finalizer.  The per-symbol steps are xored from a
    cached tile, so that pass has no inner loop of length ``A``.
    """
    out = repeat_children(states, n_symbols, out=out)
    steps = _symbol_steps(n_symbols)
    for lo in range(0, out.size, steps.size):   # whole tiles keep symbols aligned
        part = out[lo:lo + steps.size]
        part ^= steps[:part.size]
    return _mix64_inplace(out, scratch=scratch)


def word_state(seed: int, word) -> np.ndarray:
    """Chain state for a single word, as a 1-element uint64 array."""
    state = root_state(seed)
    for s in word:
        state = absorb(state, s)
    return state


def draw(states: np.ndarray, index: int, *, out: np.ndarray | None = None,
         scratch: np.ndarray | None = None) -> np.ndarray:
    """Counter-indexed raw uint64 output for each chain state, written into
    ``out`` when given, with ``scratch`` for the finalizer."""
    step = np.array([index + 1], dtype=np.uint64) * GAMMA
    return _mix64_inplace(np.add(states, step, out=out), scratch=scratch)


def to_u01(raw: np.ndarray, *, out: np.ndarray | None = None,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """Map raw 64-bit outputs to floats strictly inside (0, 1).

    The top 53 bits, offset by half a step, give ``(k + 0.5) * 2**-53``.  For
    ``k = 2**53 - 1`` that rounds to exactly 1.0, so the result is clamped to
    the largest float below 1; no other value changes.  ``out`` (float64)
    receives the result and ``scratch`` (uint64, may be ``raw`` itself) the
    top bits, when given.
    """
    k = np.right_shift(raw, np.uint64(11), out=scratch)
    if out is None:
        out = np.empty(k.shape)
    np.copyto(out, k)   # exact: k < 2**53
    out += 0.5
    out *= _INV_2_53
    return np.minimum(out, _BELOW_ONE, out=out)


def draw_u01(states: np.ndarray, index: int, *, out: np.ndarray | None = None,
             raw: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Uniform (0,1) variate ``index`` for each chain state.

    The optional buffers, one entry per state, receive the uniforms
    (``out``, float64) and the raw draws (``raw``) with the finalizer's
    ``scratch`` (both uint64); ``raw`` is overwritten.
    """
    raw = draw(states, index, out=raw, scratch=scratch)
    return to_u01(raw, out=out, scratch=raw)


def draw_u01_block(states: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniform (0,1) variates ``start .. start+count-1``, shape (len, count)."""
    idx = (np.arange(start + 1, start + count + 1, dtype=np.uint64) * GAMMA)
    return to_u01(_mix64_inplace(states[:, None] + idx[None, :]))


def stream_raw(seed: int, count: int, lane: int = 0) -> np.ndarray:
    """``count`` raw uint64 outputs of an anonymous stream (Monte Carlo use)."""
    lane_arr = np.array([lane], dtype=np.uint64) * _SYMBOL_STEP
    base = mix64(root_state(int(seed)) ^ lane_arr)
    idx = np.arange(1, count + 1, dtype=np.uint64) * GAMMA
    return _mix64_inplace(base + idx)


def stream_u01(seed: int, count: int, lane: int = 0) -> np.ndarray:
    """``to_u01`` of ``stream_raw``: ``count`` iid uniforms."""
    raw = stream_raw(seed, count, lane)
    return to_u01(raw, scratch=raw)


def derive_seeds(master_seed: int, indices) -> np.ndarray:
    """Deterministic uint64 child seeds, one per index (e.g. per Monte Carlo replicate)."""
    idx = np.asarray(indices, dtype=np.uint64) * GAMMA
    return _mix64_inplace((np.array([master_seed], dtype=np.uint64) ^ _SALT_CHILD) + idx)


def derive_seed(master_seed: int, index: int) -> int:
    """The child seed ``derive_seeds(master_seed, [index])[0]`` as an int."""
    return int(derive_seeds(master_seed, [index])[0])


def map_seeds(fn, n_seeds: int, threads: int = 1) -> list:
    """``[fn(0), ..., fn(n_seeds - 1)]`` in index order, optionally thread-parallel.

    With ``threads >= 2`` seeds are submitted in a sliding window of
    ``SEED_WINDOW_PER_THREAD * threads``, so the futures held at any time do
    not grow with ``n_seeds``.
    """
    if threads <= 1 or n_seeds <= 1:
        return [fn(j) for j in range(n_seeds)]
    from concurrent.futures import ThreadPoolExecutor

    window = SEED_WINDOW_PER_THREAD * threads
    results = []
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for j in range(n_seeds):
                if len(pending) == window:
                    results.append(pending.popleft().result())
                pending.append(pool.submit(fn, j))
            while pending:
                results.append(pending.popleft().result())
        except BaseException:
            for fut in pending:
                fut.cancel()
            raise
    return results
