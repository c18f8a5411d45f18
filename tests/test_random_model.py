import math

import numpy as np
import pytest
from scipy import integrate, stats

from rifs import keyed
from rifs.errors import InputError
from rifs.random_model import (AffineSpec, MatrixFamily, Realization,
                               SimilaritySpec, cramer_moment, lyapunov_exponent,
                               lyapunov_prime, mc_cramer_moment,
                               mc_lyapunov_prime, moment_report)
from rifs.symbolic import BernoulliMeasure


# quadrature oracles, independent of the closed forms in the implementation
def quad_lyapunov_prime(a, b, d):
    val, _ = integrate.quad(lambda r: -math.log(r) / (b - a), a, b)
    return d * val


def quad_cramer(a, b, d, s):
    val, _ = integrate.quad(lambda r: r ** (d * s) / (b - a), a, b)
    return math.log(val)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(InputError):
        SimilaritySpec(0.0, 0.5)       # r_minus = 0 rejected
    with pytest.raises(InputError):
        SimilaritySpec(0.5, 0.5)
    with pytest.raises(InputError):
        SimilaritySpec(0.5, 1.0)
    with pytest.raises(InputError):
        MatrixFamily(1, [SimilaritySpec(0.5, 0.9)] * 2, [[0.0], [0.0]])  # equal t
    with pytest.raises(InputError):
        AffineSpec(0.3, 0.4, [np.diag([1.5, 0.5])])  # operator norm above 1
    with pytest.raises(InputError):
        AffineSpec(0.3, 0.4, [[[1.0, 0.0], [1.0, 0.0]]])  # singular base


def test_affine_support_condition_warning():
    bases = [np.eye(2).tolist()]
    spec = AffineSpec(0.6, 0.7, bases)  # norms 0.7, not < 1/2
    with pytest.warns(UserWarning, match="sufficient condition"):
        MatrixFamily(2, [spec, spec], [[1.0, 0.0], [0.0, 1.0]],
                     declared_nonsingular="full")


def test_rho_max(line_family, affine_family):
    assert line_family.rho_max == pytest.approx(0.9)
    assert affine_family.rho_max == pytest.approx(0.49 * 0.95)
    assert affine_family.r_star == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_determinism_and_cache(line_family):
    r = Realization(42, line_family)
    a = r.sample_matrix((1, 2, 1))
    b = r.sample_matrix((1, 2, 1))
    assert a.tobytes() == b.tobytes()  # recomputed bit for bit, nothing memoized
    r2 = Realization(42, line_family)
    assert np.array_equal(a, r2.sample_matrix((1, 2, 1)))
    assert not np.array_equal(a, Realization(43, line_family).sample_matrix((1, 2, 1)))


def test_sample_query_order_irrelevant(line_family):
    words = [(1,), (2, 1), (1, 1, 2), (2,), (1, 2)]
    r1 = Realization(7, line_family)
    r2 = Realization(7, line_family)
    m1 = {w: r1.sample_matrix(w).copy() for w in words}
    for w in reversed(words):
        assert np.array_equal(r2.sample_matrix(w), m1[w])


def test_cache_safe_under_concurrent_access(line_family):
    from concurrent.futures import ThreadPoolExecutor
    r = Realization(77, line_family)
    words = [(1,), (2,), (1, 2), (2, 1), (1, 1, 2), (2, 2, 1)] * 50
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda w: (w, r.sample_matrix(w).copy()), words))
    fresh = Realization(77, line_family)
    for w, mat in results:
        assert np.array_equal(mat, fresh.sample_matrix(w))


def test_sample_rejects_empty_and_bad_symbols(line_family):
    r = Realization(0, line_family)
    with pytest.raises(InputError):
        r.sample_matrix(())
    with pytest.raises(InputError):
        r.sample_matrix((3,))


def test_samples_uniform_on_interval_ks(line_family):
    # 1e5 samples at distinct words: empirical law vs Unif[0.5, 0.9]
    n = 100_000
    bits = ((np.arange(n)[:, None] >> np.arange(17)[None, :]) & 1) + 1
    states = keyed.root_state(11)
    states = np.broadcast_to(states, (n,)).copy()
    for j in range(17):
        states = keyed.absorb(states, bits[:, j].astype(np.uint64))
    r = Realization(11, line_family)
    samples = r.scalars_from_chains(states, bits[:, 16])
    assert np.all((samples >= 0.5) & (samples <= 0.9))
    stat = stats.kstest(samples, stats.uniform(loc=0.5, scale=0.4).cdf).statistic
    assert stat < 1.628 / math.sqrt(n)  # 1% critical value


def _distinct_word_states(seed, n):
    """Chain states of ``n`` distinct 15-letter binary words."""
    bits = ((np.arange(n)[:, None] >> np.arange(15)[None, :]) & 1) + 1
    states = np.broadcast_to(keyed.root_state(seed), (n,)).copy()
    for j in range(15):
        states = keyed.absorb(states, bits[:, j].astype(np.uint64))
    return states, bits[:, 14]


def test_det_root_uniform_in_2d(plane_family):
    # |det A|^(1/d) recovers the scalar factor, uniform on [0.7, 0.9]
    n = 20_000
    states, last = _distinct_word_states(29, n)
    r = Realization(29, plane_family)
    roots = np.exp(0.5 * r.log_dets_from_chains(states, last))
    assert np.all((roots >= 0.7) & (roots <= 0.9))
    stat = stats.kstest(roots, stats.uniform(loc=0.7, scale=0.2).cdf).statistic
    assert stat < 1.628 / math.sqrt(n)


def test_low_correlation_across_seeds(line_family):
    xs, ys = [], []
    for seed in range(2000):
        r = Realization(seed, line_family)
        xs.append(r.sample_matrix((1, 2))[0, 0])
        ys.append(r.sample_matrix((2, 2))[0, 0])
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.08


def test_2d_similarity_structure(plane_family):
    r = Realization(3, plane_family)
    for w in [(1,), (2, 1), (1, 2, 2)]:
        A = r.sample_matrix(w)
        lam2 = A.T @ A
        assert np.allclose(lam2, lam2[0, 0] * np.eye(2), atol=1e-12)
        lam = math.sqrt(lam2[0, 0])
        assert 0.7 <= lam <= 0.9
        assert abs(r.log_abs_det(w) - math.log(abs(np.linalg.det(A)))) < 1e-12


def test_contraction_bound(plane_family, affine_family):
    for fam in (plane_family, affine_family):
        r = Realization(9, fam)
        for w in [(1,), (2,), (1, 2), (2, 1, 1)]:
            norm = np.linalg.norm(r.sample_matrix(w), 2)
            assert norm <= fam.rho_max + 1e-12


def test_affine_logdet_matches_matrix(affine_family):
    r = Realization(5, affine_family)
    for w in [(1,), (2,), (1, 2, 1)]:
        A = r.sample_matrix(w)
        assert r.log_abs_det(w) == pytest.approx(
            math.log(abs(np.linalg.det(A))), abs=1e-12)


def test_haar_det_is_unit(plane_family):
    r = Realization(13, plane_family)
    A = r.sample_matrix((1,))
    lam = math.sqrt((A.T @ A)[0, 0])
    assert abs(abs(np.linalg.det(A / lam)) - 1.0) < 1e-12


def test_haar_factor_2d_angle_uniform_and_det_sign_fair(plane_family):
    # O(2) Haar: the first column's angle is uniform and det O = -1 with
    # probability 1/2 (independent of the angle)
    n = 20_000
    states, last = _distinct_word_states(31, n)
    mats = Realization(31, plane_family).matrices_from_chains(states, last)
    angle = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])
    stat = stats.kstest(angle, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf).statistic
    assert stat < 1.628 / math.sqrt(n)  # 1% critical value
    flips = int((np.linalg.det(mats) < 0.0).sum())
    assert stats.binomtest(flips, n, 0.5).pvalue > 0.01


def test_three_dimensional_similarity_samples_orthogonal_factors():
    fam = MatrixFamily(3, [SimilaritySpec(0.3, 0.5)] * 3, np.eye(3))
    r = Realization(19, fam)
    states, _ = _distinct_word_states(19, 256)
    mats = r.matrices_from_chains(states, np.arange(256) % 3 + 1)
    lam = np.sqrt(np.einsum("nij,nij->n", mats, mats) / 3.0)
    assert np.all((lam > 0.3 - 1e-12) & (lam < 0.5 + 1e-12))
    o = mats / lam[:, None, None]
    assert np.abs(np.einsum("nij,nik->njk", o, o) - np.eye(3)).max() < 1e-12
    assert np.abs(np.abs(np.linalg.det(o)) - 1.0).max() < 1e-12
    assert 0 < int((np.linalg.det(o) < 0.0).sum()) < 256
    assert r.log_dets_from_chains(states, 1) == pytest.approx(
        np.log(np.abs(np.linalg.det(mats))), abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_top_raw_draws_give_finite_samples_and_valid_bases(monkeypatch):
    # ten weights of 0.1 sum to 0.9999999999999999; every raw draw 2**64 - 1
    # must still give a uniform below 1, a finite Haar factor and the last base
    bases = [np.diag([0.9, 0.5 + 0.04 * k]) for k in range(10)]
    spec = AffineSpec(0.3, 0.4, bases, [0.1] * 10)
    assert spec.cum_weights[-1] == 1.0
    fam = MatrixFamily(2, [spec, spec], [[0.0, 0.0], [1.0, 0.0]])
    r = Realization(0, fam)
    states = keyed.absorb_children(r.root_chain(), 2)
    monkeypatch.setattr(keyed, "_mix64_inplace",
                        lambda z, scratch=None: np.full_like(z, 2 ** 64 - 1))
    syms = np.array([1, 2])
    mats = r.matrices_from_chains(states, syms)
    lds = r.log_dets_from_chains(states, syms)
    assert np.all(np.isfinite(mats))
    lam = 0.3 + np.nextafter(1.0, 0.0) * (0.4 - 0.3)
    assert np.array_equal(lds, np.full(2, 2 * np.log(lam) + spec.base_log_abs_det[9]))
    assert np.allclose(np.abs(np.linalg.det(mats)), lam ** 2 * np.linalg.det(bases[9]))
    mc = mc_lyapunov_prime(fam, 1, n_samples=4, seed=0)[0]
    assert mc == pytest.approx(-lds[0])


def test_lyapunov_prime_closed_form_vs_quadrature(line_family, plane_family):
    assert lyapunov_prime(line_family, 1) == pytest.approx(
        quad_lyapunov_prime(0.5, 0.9, 1), abs=1e-10)
    assert lyapunov_prime(line_family, 1) == pytest.approx(0.3706271845301775, abs=1e-12)
    # doubles with dimension
    assert lyapunov_prime(plane_family, 1) == pytest.approx(
        2 * quad_lyapunov_prime(0.7, 0.9, 1), abs=1e-10)


def test_lyapunov_prime_affine(affine_family):
    spec = affine_family.symbols[0]
    expected = quad_lyapunov_prime(0.45, 0.49, 2) \
        - 0.5 * (math.log(0.9 * 0.7) + math.log(0.8 * 0.95))
    assert lyapunov_prime(affine_family, 1) == pytest.approx(expected, abs=1e-10)


def test_lyapunov_prime_monte_carlo(line_family, affine_family):
    for fam in (line_family, affine_family):
        exact = lyapunov_prime(fam, 1)
        est, se = mc_lyapunov_prime(fam, 1, 100_000, seed=17)
        assert abs(est - exact) <= 3.0 * se


def test_lyapunov_exponent_weighting(line_family):
    m = BernoulliMeasure([0.8, 0.2])
    lp = lyapunov_prime(line_family, 1)
    assert lyapunov_exponent(line_family, m) == pytest.approx(lp)
    with pytest.raises(InputError):
        lyapunov_exponent(line_family, BernoulliMeasure([1 / 3] * 3))


def test_theorem_preset_supercritical(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    lam = lyapunov_exponent(line_family, m)
    assert math.log(2) / lam == pytest.approx(1.8702, abs=1e-4)
    assert math.log(2) > lam


def test_cramer_closed_form(line_family, affine_family):
    # d=1, [0.5, 0.9], s=1: log((0.81-0.25)/(0.4*2)) = log 0.7
    assert cramer_moment(line_family, 1, 1.0) == pytest.approx(math.log(0.7), abs=1e-12)
    for s in (-0.5, 0.3, 2.0):
        assert cramer_moment(line_family, 1, s) == pytest.approx(
            quad_cramer(0.5, 0.9, 1, s), abs=1e-10)
    # affine adds the base-determinant log-sum-exp term
    s = 0.7
    base_term = math.log(0.5 * (0.9 * 0.7) ** s + 0.5 * (0.8 * 0.95) ** s)
    assert cramer_moment(affine_family, 1, s) == pytest.approx(
        quad_cramer(0.45, 0.49, 2, s) + base_term, abs=1e-10)


def test_cramer_zero_is_exact(line_family, affine_family):
    assert cramer_moment(line_family, 1, 0.0) == 0.0
    assert cramer_moment(affine_family, 1, 0.0) == 0.0


def test_cramer_divergence_guard(line_family, plane_family):
    with pytest.raises(InputError):
        cramer_moment(line_family, 1, -1.0)
    with pytest.raises(InputError):
        cramer_moment(plane_family, 1, -0.5)  # s <= -1/d with d = 2


def test_cramer_monte_carlo(line_family):
    exact = cramer_moment(line_family, 1, 0.5)
    est, se = mc_cramer_moment(line_family, 1, 0.5, 100_000, seed=23)
    assert abs(est - exact) <= 3.0 * se


def test_cramer_derivative_is_minus_lyapunov(line_family, affine_family):
    # cumulant/mean identity via central differences
    h = 1e-4
    for fam in (line_family, affine_family):
        deriv = (cramer_moment(fam, 1, h) - cramer_moment(fam, 1, -h)) / (2 * h)
        assert abs(deriv + lyapunov_prime(fam, 1)) < 1e-6


def test_moment_report_consistency(line_family):
    m = BernoulliMeasure([0.5, 0.5])
    rep = moment_report(line_family, m, s_values=(0.5, 1.0))
    for i in line_family.alphabet.symbols:
        est, se = mc_lyapunov_prime(line_family, i, 100_000, 31)
        assert abs(rep.lyapunov_prime[i - 1] - est) <= 3.0 * se
    assert rep.lyapunov == pytest.approx(lyapunov_exponent(line_family, m), abs=1e-15)
    assert rep.cramer_values[1.0][0] == pytest.approx(math.log(0.7), abs=1e-12)
