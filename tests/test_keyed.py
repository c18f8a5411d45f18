import concurrent.futures
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifs import keyed


def test_word_state_is_path_independent():
    # folding symbol by symbol equals resuming from any intermediate state
    full = keyed.word_state(99, (1, 2, 2, 1))
    mid = keyed.word_state(99, (1, 2))
    resumed = keyed.absorb(keyed.absorb(mid, 2), 1)
    assert int(full[0]) == int(resumed[0])


@pytest.mark.filterwarnings("error")   # no uint64 overflow warnings
def test_absorb_children_matches_scalar_absorb():
    for A in (2, 3, 8, 255):
        # 0, 1 and 7 parents, one whole block of the window walk, and more than
        # one cached tile of symbol steps, whose last tile ends mid-input
        for P in (0, 1, 7, (1 << 14) // A, 3 * (1 << 14) // A + 5):
            states = keyed.mix64(np.arange(P, dtype=np.uint64) + np.uint64(A))
            kids = keyed.absorb_children(states, A)
            want = keyed.absorb(np.repeat(states, A), np.tile(np.arange(1, A + 1), P))
            assert kids.dtype == np.uint64 and np.array_equal(kids, want), (A, P)
            # into given buffers, and the parents' repeat of other dtypes
            out, scratch = np.empty_like(want), np.empty_like(want)
            assert keyed.absorb_children(states, A, out=out, scratch=scratch) is out
            assert np.array_equal(out, want), (A, P)
            for parents in (states, np.sqrt(np.arange(P)), np.arange(P) % 3 == 0):
                got = keyed.repeat_children(parents, A)
                assert got.dtype == parents.dtype, (A, P)
                assert np.array_equal(got, np.repeat(parents, A)), (A, P)
                buf = np.empty_like(got)
                assert keyed.repeat_children(parents, A, out=buf) is buf
                assert np.array_equal(buf, got), (A, P)
    states = keyed.mix64(np.arange(7, dtype=np.uint64))
    kids = keyed.absorb_children(states, 3)
    for p in range(7):
        for s in (1, 2, 3):
            assert int(kids[p * 3 + (s - 1)]) == int(keyed.absorb(states[p: p + 1], s)[0])


def test_distinct_words_get_distinct_states():
    words = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 2, 1)]
    states = {int(keyed.word_state(5, w)[0]) for w in words}
    assert len(states) == len(words)


def test_draws_are_counter_indexed_and_stable():
    s = keyed.word_state(7, (2, 1))
    a = keyed.draw_u01(s, 3)
    block = keyed.draw_u01_block(s, 0, 5)
    assert a[0] == block[0, 3]
    assert np.array_equal(block, keyed.draw_u01_block(s, 0, 5))
    # into given buffers: the same values, and the states are left alone
    states = keyed.absorb_children(s, 300)
    kept = states.copy()
    out, raw, scratch = np.empty(300), np.empty(300, np.uint64), np.empty(300, np.uint64)
    assert keyed.draw_u01(states, 3, out=out, raw=raw, scratch=scratch) is out
    assert np.array_equal(out, keyed.draw_u01(states, 3))
    assert keyed.draw(states, 1, out=raw, scratch=scratch) is raw
    assert np.array_equal(raw, keyed.draw(states, 1))
    assert np.array_equal(keyed.to_u01(raw, out=out, scratch=scratch), keyed.to_u01(raw))
    assert np.array_equal(states, kept)


def test_u01_range_and_uniformity():
    u = keyed.stream_u01(123, 200_000)
    assert np.all((u > 0.0) & (u < 1.0))
    # crude moment checks; KS-level testing lives in the sampling tests
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_to_u01_clamps_only_the_top_raw_values_below_one():
    # (2**53 - 1 + 0.5) * 2**-53 rounds to exactly 1.0; ndtri(1.0) would be inf
    raw = np.array([0, 1, 2 ** 11, 2 ** 64 - 2 ** 12, 2 ** 64 - 2 ** 11 - 1,
                    2 ** 64 - 2 ** 11, 2 ** 64 - 1], dtype=np.uint64)
    u = keyed.to_u01(raw)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(u[-2:] == np.nextafter(1.0, 0.0))
    unclamped = ((raw[:-2] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    assert np.array_equal(u[:-2], unclamped)
    assert keyed.draw_u01_block(np.zeros(1, dtype=np.uint64), 0, 3).max() < 1.0


def test_map_seeds_bounds_outstanding_futures(monkeypatch):
    submitted = []
    peak = [0]

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            fut = super().submit(fn, *args, **kwargs)
            submitted.append(fut)
            peak[0] = max(peak[0], sum(not f.done() for f in submitted))
            return fut

    # map_seeds imports the pool class when it first needs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)

    def slow_square(j):
        time.sleep(0.001)
        return j * j

    assert keyed.map_seeds(slow_square, 200, threads=2) == [j * j for j in range(200)]
    assert len(submitted) == 200
    assert 1 <= peak[0] <= keyed.SEED_WINDOW_PER_THREAD * 2


def test_map_seeds_raises_the_first_failure_and_stops_submitting():
    calls = []

    def fails_at_five(j):
        calls.append(j)
        if j == 5:
            raise ValueError("seed 5")
        time.sleep(0.001)
        return j

    with pytest.raises(ValueError, match="seed 5"):
        keyed.map_seeds(fails_at_five, 10_000, threads=2)
    assert len(calls) <= 6 + keyed.SEED_WINDOW_PER_THREAD * 2


def test_seed_validation():
    with pytest.raises(ValueError):
        keyed.root_state(-1)
    with pytest.raises(ValueError):
        keyed.root_state(2 ** 64)


def _splitmix(z: int) -> int:
    """The splitmix64 finalizer on Python ints."""
    mask = (1 << 64) - 1
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & mask
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & mask
    return z ^ z >> 31


@pytest.mark.filterwarnings("error")   # no uint64 overflow warnings
def test_seed_arrays_match_the_scalar_forms():
    indices = [0, 1, 2, 7, 2 ** 32, 2 ** 64 - 1]
    for master in (0, 12345, 2 ** 64 - 1):
        want = [_splitmix(((master ^ 0x13198A2E03707344) + i * 0x9E3779B97F4A7C15)
                          % 2 ** 64) for i in indices]
        seeds = keyed.derive_seeds(master, indices)
        assert seeds.dtype == np.uint64 and seeds.tolist() == want
        assert [keyed.derive_seed(master, i) for i in indices] == want
        roots = keyed.root_states(seeds)
        assert roots.tolist() == [_splitmix(s ^ 0x243F6A8885A308D3) for s in want]
        assert [int(keyed.root_state(s)[0]) for s in want] == roots.tolist()
        assert keyed.root_states(seeds[:0]).shape == (0,)


def test_seed_groups_hand_out_per_seed_realizations(line_family):
    from rifs.walk import map_seed_groups
    from rifs.errors import InputError
    from rifs.random_model import Realization

    for master in (3, 2 ** 64 - 1):
        for threads in (1, 2):
            got = map_seed_groups(lambda rs: rs, line_family, master, 9, 4096, threads)
            assert len(got) == 9 and all(r.family is line_family for r in got)
            for j, r in enumerate(got):
                want = Realization(keyed.derive_seed(master, j), line_family)
                assert r.seed == want.seed
                assert np.array_equal(r.root_chain(), want.root_chain())
    for bad in (-1, 2 ** 64):
        with pytest.raises(InputError):
            Realization(bad, line_family)
        with pytest.raises(InputError):
            keyed.root_state(bad)


def test_derive_seed_spread():
    seeds = {keyed.derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


@given(st.integers(0, 2 ** 64 - 1), st.lists(st.integers(1, 5), max_size=12))
@settings(max_examples=60, deadline=None)
def test_word_state_deterministic(seed, word):
    a = keyed.word_state(seed, tuple(word))
    b = keyed.word_state(seed, tuple(word))
    assert int(a[0]) == int(b[0])
