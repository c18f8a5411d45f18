import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifs import (BernoulliMeasure, MarkovMeasure, cylinder_measure, entropy,
                  entropy_estimate, is_prefix_free, level_set,
                  restricted_level_set, slow_decay_constant, word_from_string,
                  word_to_string, write_levelset_csv)
from rifs.errors import BudgetError, InputError
from rifs.symbolic import Alphabet, TailSequence, word_strings


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_level_set(m, n):
    """Independent enumeration of the level-set condition over all words."""
    c = slow_decay_constant(m)
    thr = c ** n
    ratios = np.asarray(m.transition_rows())
    max_len = int(math.ceil(n * math.log(c) / math.log(ratios.max()))) + 2
    out = []
    A = m.alphabet.size
    for k in range(1, max_len + 1):
        for w in itertools.product(range(1, A + 1), repeat=k):
            mu = cylinder_measure(m, w)
            parent = cylinder_measure(m, w[:-1])
            if mu <= thr < parent:
                out.append(w)
    return sorted(out, key=lambda w: (len(w), w))


def brute_entropy_sum(m, k):
    total = 0.0
    for w in itertools.product(range(1, m.alphabet.size + 1), repeat=k):
        mu = cylinder_measure(m, w)
        total -= mu * math.log(mu)
    return total / k


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_cylinder_measures(uniform2, skew2):
    assert cylinder_measure(uniform2, (1, 2)) == 0.25
    assert cylinder_measure(uniform2, ()) == 1.0
    assert cylinder_measure(skew2, (1, 1, 2)) == pytest.approx(0.128, abs=1e-15)


def test_cylinder_measure_markov(markov2):
    # pi_1 * P_11 * P_12
    assert cylinder_measure(markov2, (1, 1, 2)) == pytest.approx((4 / 7) * 0.7 * 0.3)


def test_cylinder_rejects_out_of_range(uniform2):
    with pytest.raises(InputError):
        cylinder_measure(uniform2, (1, 3))


def test_measure_validation():
    with pytest.raises(InputError):
        BernoulliMeasure([1.0, 0.0])          # zero entry
    with pytest.raises(InputError):
        BernoulliMeasure([0.6, 0.5])          # sums above 1
    with pytest.raises(InputError):
        MarkovMeasure([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]])  # not stationary
    with pytest.raises(InputError):
        Alphabet(1)


def test_markov_from_transition(markov2):
    m = MarkovMeasure.from_transition([[0.7, 0.3], [0.4, 0.6]])
    assert m.pi == pytest.approx([4 / 7, 3 / 7], abs=1e-12)


def test_slow_decay_constant(uniform2, skew2, markov2):
    assert slow_decay_constant(uniform2) == 0.5
    assert slow_decay_constant(skew2) == pytest.approx(0.2)
    assert slow_decay_constant(markov2) == pytest.approx(0.3)


def test_slow_decay_markov_brute_force(markov2):
    # scan all one-step ratios over words of length <= 12
    c = slow_decay_constant(markov2)
    worst = math.inf
    for k in range(0, 13):
        for w in itertools.product((1, 2), repeat=k):
            mu = cylinder_measure(markov2, w)
            for i in (1, 2):
                worst = min(worst, cylinder_measure(markov2, w + (i,)) / mu)
    assert worst == pytest.approx(c)
    assert worst >= c - 1e-12


def test_entropy_closed_forms(uniform2, skew2, markov2):
    assert entropy(uniform2) == pytest.approx(math.log(2), abs=1e-12)
    # oracle: -0.8 log 0.8 - 0.2 log 0.2
    assert entropy(skew2) == pytest.approx(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)),
                                           abs=1e-12)
    assert entropy(skew2) == pytest.approx(0.500402, abs=1e-6)
    h_rows = -(4 / 7) * (0.7 * math.log(0.7) + 0.3 * math.log(0.3)) \
             - (3 / 7) * (0.4 * math.log(0.4) + 0.6 * math.log(0.6))
    assert entropy(markov2) == pytest.approx(h_rows, abs=1e-12)


def test_entropy_estimate_exact_for_bernoulli(uniform2, skew2):
    for k in (1, 3, 5, 10, 20):
        assert entropy_estimate(uniform2, k) == pytest.approx(math.log(2), abs=1e-12)
        assert entropy_estimate(skew2, k) == pytest.approx(entropy(skew2), abs=1e-12)


def test_entropy_estimate_matches_brute_force(skew2, markov2):
    for k in (1, 2, 3, 6):
        assert entropy_estimate(skew2, k) == pytest.approx(brute_entropy_sum(skew2, k),
                                                           abs=1e-12)
        assert entropy_estimate(markov2, k) == pytest.approx(
            brute_entropy_sum(markov2, k), abs=1e-12)


def test_entropy_estimate_converges_markov(markov2):
    assert entropy_estimate(markov2, 10) == pytest.approx(entropy(markov2), abs=0.02)


def test_entropy_estimate_caps():
    m = BernoulliMeasure([0.5, 0.5])
    with pytest.raises(BudgetError):
        entropy_estimate(m, 21)
    wide = BernoulliMeasure([0.25] * 4)
    with pytest.raises(BudgetError):
        entropy_estimate(wide, 15)  # 4**15 terms exceeds the node budget


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_uniform_level_set_is_full_tree(uniform2):
    for n in (1, 3, 5):
        ls = level_set(uniform2, n)
        assert len(ls) == 2 ** n
        assert all(len(w) == n for w in ls.words)
        assert list(ls.words) == sorted(itertools.product((1, 2), repeat=n))


def test_skew_level_set_n1_words(skew2):
    # derived by exhaustive cylinder-tree expansion
    expected = {(2,), (1, 2), (1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 1, 2),
                (1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1, 2),
                (1, 1, 1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1, 1, 1)}
    ls = level_set(skew2, 1)
    assert set(ls.words) == expected
    assert ls.mass == pytest.approx(1.0, abs=1e-9)


def test_level_set_matches_brute_force(skew2, markov2):
    for m, n in ((skew2, 1), (skew2, 2), (markov2, 2), (markov2, 3)):
        ls = level_set(m, n)
        assert list(ls.words) == brute_level_set(m, n)


def test_level_set_invariants(skew2, markov2):
    for m, n in ((skew2, 4), (markov2, 5)):
        c = slow_decay_constant(m)
        ls = level_set(m, n)
        assert is_prefix_free(ls.words)
        assert ls.mass == pytest.approx(1.0, abs=1e-9)
        lo, hi = ls.measure_bounds
        assert hi / lo <= 1.0 / c + 1e-9
        # defining sandwich per word
        for w in ls.words:
            assert cylinder_measure(m, w) <= c ** n < cylinder_measure(m, w[:-1])
        # cardinality scaling
        assert c ** -n <= len(ls) <= c ** -n / c


def test_level_set_words_view_matches_word_matrix(skew2, markov2):
    for ls in (level_set(skew2, 3), level_set(markov2, 4),
               restricted_level_set(skew2, 4, eps1=0.2, C2=1.5)):
        assert len(ls.words) == len(ls) > 0
        for i, w in enumerate(ls.words):
            assert w == tuple(ls.word_matrix[i, :ls.lengths[i]])
            assert not ls.word_matrix[i, ls.lengths[i]:].any()


def test_level_set_rejects_n0(uniform2):
    with pytest.raises(InputError):
        level_set(uniform2, 0)


def test_level_set_word_budget(uniform2):
    with pytest.raises(BudgetError) as err:
        level_set(uniform2, 12, word_budget=100)
    assert "100" in str(err.value)


def test_restricted_level_set_uniform_is_identity(uniform2):
    full = level_set(uniform2, 4)
    for eps1, C2 in ((0.05, 1.0), (0.5, 2.0)):
        sub = restricted_level_set(uniform2, 4, eps1, C2)
        assert sub.words == full.words
        assert sub.mass == pytest.approx(1.0, abs=1e-12)


def test_restricted_level_set_filters(skew2):
    sub = restricted_level_set(skew2, 4, eps1=0.05, C2=1.0)
    full = level_set(skew2, 4)
    assert len(sub) < len(full)
    assert sub.mass < 1.0
    assert set(sub.words) <= set(full.words)
    # oracle: direct per-prefix filter of the full level set
    h = entropy(skew2)
    expected = []
    for w in full.words:
        ok = True
        for k in range(1, len(w) + 1):
            mu = cylinder_measure(skew2, w[:k])
            if not (math.exp(-k * (h + 0.05)) <= mu <= math.exp(-k * (h - 0.05))):
                ok = False
                break
        if ok:
            expected.append(w)
    assert list(sub.words) == expected


def test_restricted_level_set_slack_bounds_keep_everything(skew2):
    sub = restricted_level_set(skew2, 4, eps1=1.0, C2=10.0)
    full = level_set(skew2, 4)
    assert sub.words == full.words
    assert sub.mass == pytest.approx(1.0, abs=1e-9)


@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_level_set_properties_random_bernoulli(weights, n):
    p = np.asarray(weights) / np.sum(weights)
    c = float(p.min())
    if c <= 1e-6 or c ** -n / c > 2e5:   # keep the expansion affordable
        return
    m = BernoulliMeasure(p / p.sum())
    ls = level_set(m, n)
    assert is_prefix_free(ls.words)
    assert ls.mass == pytest.approx(1.0, abs=1e-9)
    lo, hi = ls.measure_bounds
    assert hi / lo <= 1.0 / slow_decay_constant(m) + 1e-9


@given(st.lists(st.integers(1, 3), max_size=6), st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=40, deadline=None)
def test_bernoulli_multiplicative_over_concatenation(w1, w2):
    m = BernoulliMeasure([0.5, 0.3, 0.2])
    a, b = tuple(w1), tuple(w2)
    assert cylinder_measure(m, a + b) == pytest.approx(
        cylinder_measure(m, a) * cylinder_measure(m, b), rel=1e-12)


# ---------------------------------------------------------------------------
# words, tails, serialization
# ---------------------------------------------------------------------------

def test_word_string_roundtrip():
    assert word_to_string((1, 1, 2)) == "112"
    assert word_from_string("112") == (1, 1, 2)
    with pytest.raises(InputError):
        word_to_string((10,))


def test_tail_sequence():
    t = TailSequence((2, 1), (1, 2))
    assert t.first(6) == (2, 1, 1, 2, 1, 2)
    assert t.shifted(3).first(3) == (2, 1, 2)
    assert TailSequence.constant(2).symbol(100) == 2
    t.validate(Alphabet(2))
    with pytest.raises(InputError):
        TailSequence((), ())
    with pytest.raises(InputError):
        TailSequence((3,), (1,)).validate(Alphabet(2))


def test_word_strings_match_word_to_string(skew2, markov2):
    sets = [level_set(skew2, 6), level_set(markov2, 5),
            restricted_level_set(skew2, 6, 0.4, 5.0),
            level_set(BernoulliMeasure([0.5, 0.2, 0.1, 0.1, 0.05, 0.05]), 4)]
    for ls in sets:
        assert word_strings(ls) == [word_to_string(w) for w in ls.words]
    with pytest.raises(InputError):
        word_strings(level_set(BernoulliMeasure([0.1] * 10), 1))


def test_levelset_csv(tmp_path, skew2):
    ls = level_set(skew2, 1)
    path = tmp_path / "ls.csv"
    write_levelset_csv(ls, path, header_comment="digest=abc")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# digest=abc"
    assert lines[1] == "word,length,measure"
    assert lines[2].startswith("2,1,0.2")
    assert len(lines) == 2 + len(ls)
