"""Ragged integer ranges: the shared expansion step of the pair join and the raster.

The geometry kernels describe their work as ranges of consecutive integers
(candidate partners of a point in sorted order, grid rows of a ball's index box)
and expand them in bounded blocks, so temporaries stay proportional to the
block rather than to the whole input.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 18


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(s, s + c)`` over every (s, c) with c >= 0."""
    nonempty = counts > 0
    starts = starts[nonempty]
    counts = counts[nonempty]
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    step = np.ones(int(ends[-1]), dtype=np.int64)
    step[0] = starts[0]
    step[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(step)


def blocks(weights: np.ndarray, limit: int | None = None):
    """Yield (start, stop) slices of consecutive items whose weights sum to at
    most ``limit`` (default ``BLOCK``); a heavier item gets a slice of its own."""
    limit = BLOCK if limit is None else limit
    ends = np.cumsum(weights)
    start = 0
    while start < ends.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        yield start, stop
        start = stop
