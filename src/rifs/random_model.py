"""Per-symbol random matrix distributions and word-keyed realizations.

A family assigns each alphabet symbol a distribution over contracting
invertible d x d matrices plus a translation vector.  Two distribution kinds
are supported, mirroring the standard similarity and affine constructions:

* ``SimilaritySpec``: ``A = lam * O`` with ``lam`` uniform on
  ``[r_minus, r_plus]`` (0 < r- < r+ < 1) and ``O`` Haar-distributed on the
  orthogonal group (Gaussian QR with the sign-fixed-diagonal convention).
  For d = 1 the orthogonal factor is taken to be the identity so that
  samples are positive scalars in ``[r-, r+]``.  For d = 2 the factor is
  built in closed form from the same four Gaussian draws: the normalized
  first column, then that column turned by +90 degrees times the sign of
  the Gaussian matrix's determinant.  It equals LAPACK's factor up to
  rounding and no longer depends on the LAPACK build; d >= 3 takes
  LAPACK's Householder QR.  The Gaussian draws are ``scipy.special.ndtri``
  of keyed uniforms; scipy is imported by the first d >= 2 draw, so runs
  that never draw one (every d = 1 run, level sets, Lyapunov exponents,
  determinant windows) do not load it.
* ``AffineSpec``: ``A = lam * O * B`` with ``B`` drawn from a finite weighted
  set of invertible matrices with operator norm <= 1 and smallest singular
  value bounded away from 0.

A realization is the assignment ``word -> matrix`` for one 64-bit seed.  It
is materialized lazily: the sample at a word is a pure function of
``(seed, word, family)`` via the keyed streams in :mod:`rifs.keyed`, so any
finite set of coordinates can be produced reproducibly, in any order, in
bulk or one at a time.  Per-word draw layout (fixed): draw 0 is the scalar
``lam``, draw 1 the base-matrix selector (its raw value against the spec's
``base_thresholds``), draws 2 .. 1 + d*d feed the Gaussian matrix behind
``O``.  A batch is sampled with one call per distinct
distribution (specs that compare equal are one), which changes no value.

``lyapunov_prime`` is the expected negative log absolute determinant of one
step; the family Lyapunov exponent weights it by the one-symbol cylinder
masses.  The log-moment function ``cramer_moment`` has closed forms for both
kinds (away from the scalar-factor divergence at ``s = -1/d``) and Monte
Carlo counterparts for cross-checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import keyed
from .errors import InputError
from .symbolic import Alphabet, SymbolicMeasure, validate_word


@dataclass(frozen=True)
class SimilaritySpec:
    r_minus: float
    r_plus: float

    def __post_init__(self):
        if not 0.0 < self.r_minus < self.r_plus < 1.0:
            raise InputError(
                f"need 0 < r_minus < r_plus < 1, got [{self.r_minus}, {self.r_plus}] "
                "(r_minus = 0 degenerates the log-determinant moments and is rejected)")


class AffineSpec:
    """Scalar-rotation factor times a weighted finite set of base matrices."""

    def __init__(self, r_minus: float, r_plus: float,
                 base_matrices: Sequence, weights: Sequence[float] | None = None):
        if not 0.0 < r_minus < r_plus < 1.0:
            raise InputError(
                f"need 0 < r_minus < r_plus < 1, got [{r_minus}, {r_plus}]")
        bases = np.asarray(base_matrices, dtype=np.float64)
        if bases.ndim != 3 or bases.shape[1] != bases.shape[2]:
            raise InputError("base_matrices must be a stack of square matrices")
        if not np.all(np.isfinite(bases)):
            raise InputError("base matrices must be finite")
        svals = np.linalg.svd(bases, compute_uv=False)
        if np.any(svals[:, 0] > 1.0 + 1e-12):
            raise InputError("base matrices must have operator norm <= 1")
        if np.any(svals[:, -1] <= 0.0):
            raise InputError("base matrices must be invertible (positive smallest singular value)")
        if weights is None:
            weights = np.full(bases.shape[0], 1.0 / bases.shape[0])
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (bases.shape[0],) or not np.all(np.isfinite(w) & (w > 0.0)):
            raise InputError("weights must be finite and positive, one per base matrix")
        w = w / w.sum()
        self.r_minus = float(r_minus)
        self.r_plus = float(r_plus)
        self.base_matrices = bases
        self.weights = w
        # pinned to exactly 1 so that every uniform below 1 selects a base
        # (weights such as [0.1] * 10 sum to 0.9999999999999999)
        self.cum_weights = np.cumsum(w)
        self.cum_weights[-1] = 1.0
        # base i is drawn when the raw draw is at least base_thresholds[i - 1]
        self.base_thresholds = _raw_thresholds(self.cum_weights[:-1])
        self.base_log_abs_det = np.log(np.abs(np.linalg.det(bases)))
        self.base_max_norm = float(svals[:, 0].max())
        for a in (self.base_matrices, self.weights, self.cum_weights, self.base_thresholds,
                  self.base_log_abs_det):
            a.setflags(write=False)

    def __repr__(self):
        return (f"AffineSpec([{self.r_minus}, {self.r_plus}], "
                f"{self.base_matrices.shape[0]} bases)")

    def _key(self) -> tuple:
        return (self.r_minus, self.r_plus, self.base_matrices.shape,
                self.base_matrices.tobytes(), self.weights.tobytes())

    def __eq__(self, other):
        """Equal when every defining array is bitwise equal, so that equal
        specs sample bitwise-equal values from equal chain states."""
        return isinstance(other, AffineSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class MatrixFamily:
    """One matrix distribution per symbol plus pairwise-distinct translations.

    ``distributions`` lists the distinct symbol distributions (specs that
    compare equal by value are one distribution) in order of first use, and
    ``distribution_index[s]`` is the position there of symbol ``s``'s one.
    """

    def __init__(self, dimension: int, symbols: Sequence, translations: Sequence,
                 declared_nonsingular: str = "distant"):
        if dimension < 1:
            raise InputError("dimension must be >= 1")
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise InputError("a family needs at least 2 symbols")
        for spec in symbols:
            if not isinstance(spec, (SimilaritySpec, AffineSpec)):
                raise InputError(f"unsupported symbol spec {type(spec).__name__}")
            if isinstance(spec, AffineSpec) and spec.base_matrices.shape[1] != dimension:
                raise InputError("base matrix dimension does not match family dimension")
        t = np.asarray(translations, dtype=np.float64)
        if t.ndim == 1:
            t = t[:, None]
        if t.shape != (len(symbols), dimension):
            raise InputError(
                f"translations must have shape ({len(symbols)}, {dimension}), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise InputError("translations must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(t, axis=1)
            diffs = np.linalg.norm(t[:, None, :] - t[None, :, :], axis=-1)
        np.fill_diagonal(diffs, np.inf)
        r_star = float(diffs.min())
        if r_star <= 0.0:
            raise InputError("translations must be pairwise distinct")
        if declared_nonsingular not in ("distant", "full"):
            raise InputError("declared_nonsingular must be 'distant' or 'full'")

        self.dimension = int(dimension)
        self.symbols = symbols
        self.translations = t.copy()
        self.translations.setflags(write=False)
        self.declared_nonsingular = declared_nonsingular
        self.alphabet = Alphabet(len(symbols))
        groups: dict = {}
        self.distribution_index = np.zeros(len(symbols) + 1, dtype=np.intp)
        for sym, spec in enumerate(symbols, start=1):
            self.distribution_index[sym] = groups.setdefault(spec, len(groups))
        self.distribution_index.setflags(write=False)
        self.distributions = tuple(groups)
        self.r_star = r_star
        self.rho_max = max(
            s.r_plus * (s.base_max_norm if isinstance(s, AffineSpec) else 1.0)
            for s in symbols)
        if self.rho_max >= 1.0:
            raise InputError("operator norms must be uniformly bounded away from 1")
        if not np.isfinite(norms.max() / (1.0 - self.rho_max)):
            raise InputError("translations too large: the bounding ball radius "
                             "max|t| / (1 - rho_max) overflows")

        if declared_nonsingular == "full" and any(
                isinstance(s, AffineSpec) for s in symbols):
            # sufficient condition keeping the attractor away from the origin
            unit = np.allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-9)
            if not (unit and self.rho_max < 0.5):
                warnings.warn(
                    "affine family declared fully non-singular, but the sufficient "
                    "condition (all |t_i| = 1 and operator norms < 1/2) does not hold; "
                    "non-singularity is taken on trust", stacklevel=2)

    def __repr__(self):
        kinds = ",".join("A" if isinstance(s, AffineSpec) else "S" for s in self.symbols)
        return f"MatrixFamily(d={self.dimension}, symbols=[{kinds}], rho_max={self.rho_max:.3f})"


class Realization:
    """Deterministic seed-keyed assignment word -> sampled matrix.

    Nothing is stored per word: the value at a word is recomputed from its
    chain state, so it never depends on query order or interleaving, and
    concurrent use is safe.
    """

    def __init__(self, seed: int, family: MatrixFamily):
        self.seed = keyed.check_seed(seed)
        self.family = family

    # -- chain-state plumbing -------------------------------------------------
    def root_chain(self) -> np.ndarray:
        return keyed.root_state(self.seed)

    # -- sampling -------------------------------------------------------------
    def sample_matrix(self, word) -> np.ndarray:
        """Matrix at ``word`` (bit-identical on repeated calls)."""
        w = validate_word(word, self.family.alphabet)
        if not w:
            raise InputError("the empty word carries no matrix")
        return self.matrices_from_chains(keyed.word_state(self.seed, w),
                                         np.array([w[-1]]))[0]

    def log_abs_det(self, word) -> float:
        w = validate_word(word, self.family.alphabet)
        if not w:
            raise InputError("the empty word carries no matrix")
        states = keyed.word_state(self.seed, w)
        return float(self.log_dets_from_chains(states, np.array([w[-1]]))[0])

    def matrices_from_chains(self, states: np.ndarray, last_symbols) -> np.ndarray:
        """Batch sample, shape (N, d, d); rows grouped internally by symbol."""
        d = self.family.dimension
        return self._per_symbol(self._sample_symbol, states, last_symbols, (d, d))

    def log_dets_from_chains(self, states: np.ndarray, last_symbols, *,
                             out: np.ndarray | None = None, raw: np.ndarray | None = None,
                             scratch: np.ndarray | None = None) -> np.ndarray:
        """log|det| per row without materializing the matrices.

        The optional buffers, one entry per row, receive the result (``out``,
        float64) and the raw draws with the finalizer's scratch (``raw`` and
        ``scratch``, uint64, overwritten).  A batch whose rows have more than
        one distribution is sampled into ``out`` without them.
        """
        d = self.family.dimension

        def log_det(st, spec, out=None, raw=None, scratch=None):
            u = keyed.draw_u01(st, 0, out=out, raw=raw, scratch=scratch)
            base_raw = keyed.draw(st, 1, out=raw, scratch=scratch) \
                if isinstance(spec, AffineSpec) else None
            return _log_dets(u, base_raw, spec, d, scratch=scratch)

        return self._per_symbol(log_det, states, last_symbols,
                                out=out, raw=raw, scratch=scratch)

    def scalars_from_chains(self, states: np.ndarray, last_symbols) -> np.ndarray:
        """1x1 samples as a flat vector (fast path for dimension-1 families)."""
        if self.family.dimension != 1:
            raise InputError("scalar sampling requires a 1-dimensional family")
        return self._per_symbol(_scalars, states, last_symbols)

    def _per_symbol(self, sample, states: np.ndarray, last_symbols,
                    row_shape: tuple = (), **buffers) -> np.ndarray:
        """Rows of ``sample(states, spec)``, one call per distribution.

        ``last_symbols`` is one symbol per row, or a single symbol shared by
        every row.  Rows whose symbols share a distribution are sampled in one
        call; a family with a single distribution samples the whole batch at
        once, without masks.  ``buffers`` (keyword arrays with one entry per
        row) go to a call that samples the whole batch; rows split by
        distribution are written into ``buffers["out"]`` when given.
        """
        fam = self.family
        if np.ndim(last_symbols) == 0:
            return sample(states, fam.symbols[int(last_symbols) - 1], **buffers)
        if len(fam.distributions) == 1:
            return sample(states, fam.distributions[0], **buffers)
        out = buffers.get("out")
        if out is None:
            out = np.empty((states.size,) + row_shape)
        group = fam.distribution_index[last_symbols]
        for g, spec in enumerate(fam.distributions):
            mask = group == g
            if mask.any():
                out[mask] = sample(states[mask], spec)
        return out

    def _sample_symbol(self, states: np.ndarray, spec) -> np.ndarray:
        d = self.family.dimension
        if d == 1:
            return _scalars(states, spec)[:, None, None]
        from scipy.special import ndtri
        gauss = ndtri(keyed.draw_u01_block(states, 2, d * d))
        mats = _scalar_factor(states, spec)[:, None, None] * _haar_factor(gauss, d)
        if isinstance(spec, AffineSpec):
            idx = _base_index(states, spec)
            mats = mats @ spec.base_matrices[idx]
        return mats


def _haar_factor(gauss: np.ndarray, d: int) -> np.ndarray:
    """Sign-fixed QR factor of each row-major d x d Gaussian row, shape (N, d, d).

    The factor ``Q`` of ``G = QR`` with ``diag(R) >= 0`` (a zero entry counts
    as positive) is Haar on the orthogonal group (Mezzadri 2007).  For d = 2
    it is built in closed form: the first column is ``G``'s first column
    normalized, and the second is that turned by +90 degrees times ``sign(det G)``,
    which makes ``R[1, 1] = sign(det G) det G / |g_1|`` nonnegative.  The
    first column is never zero, because no uniform draw is exactly 1/2.
    d >= 3 takes LAPACK's Householder QR.
    """
    if d == 2:
        g00, g01, g10, g11 = gauss.T
        norm = np.sqrt(g00 * g00 + g10 * g10)
        c = g00 / norm
        s = g10 / norm
        sign = np.where(g00 * g11 - g01 * g10 < 0.0, -1.0, 1.0)
        return np.stack([c, -sign * s, s, sign * c], axis=1).reshape(-1, 2, 2)
    q, r = np.linalg.qr(gauss.reshape(-1, d, d))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    return q * signs[:, None, :]


def _scale(u: np.ndarray, spec) -> np.ndarray:
    """The scalar factor ``r_minus + u (r_plus - r_minus)``, in place over ``u``."""
    u *= spec.r_plus - spec.r_minus
    u += spec.r_minus
    return u


def _scalar_factor(states: np.ndarray, spec) -> np.ndarray:
    return _scale(keyed.draw_u01(states, 0), spec)


def _base_index(states: np.ndarray, spec: AffineSpec) -> np.ndarray:
    return _pick_base(keyed.draw(states, 1), spec)


def _scalars(states: np.ndarray, spec) -> np.ndarray:
    """1x1 samples: the scalar factor, times the selected base of an affine spec."""
    lam = _scalar_factor(states, spec)
    if isinstance(spec, AffineSpec):
        lam *= spec.base_matrices[_base_index(states, spec), 0, 0]
    return lam


def _log_dets(u: np.ndarray, base_raw, spec, d: int, *,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """log|det| of each step from its scalar uniform ``u`` and, for an affine
    spec, its raw base draw; ``u`` becomes the result and ``base_raw`` and
    ``scratch`` (uint64, when given) are overwritten."""
    val = np.log(_scale(u, spec), out=u)
    if d != 1:
        val *= d
    if isinstance(spec, AffineSpec):
        idx = _pick_base(base_raw, spec, out=None if scratch is None else scratch.view(np.intp))
        # the raw draws are spent once the bases are picked: their buffer takes
        # the gathered log-determinants (mode="clip" writes straight into it)
        val += np.take(spec.base_log_abs_det, idx, out=base_raw.view(np.float64), mode="clip")
    return val


def _raw_thresholds(cum: np.ndarray) -> np.ndarray:
    """For each of the non-decreasing ``cum`` that some ``keyed.to_u01`` value
    exceeds, the smallest raw draw whose value does.

    ``to_u01`` reads only ``k = raw >> 11`` and scales ``fl(k + 0.5)``, which
    is ``k``, ``k + 0.5`` or ``k + 1``, by ``2**-53`` exactly; so with
    ``g = floor(c * 2**53)`` the smallest ``k`` whose value exceeds ``c`` is
    ``g`` or ``g + 1``, and ``to_u01`` of ``g`` tells which.
    """
    top = keyed.to_u01(np.full(1, np.iinfo(np.uint64).max, dtype=np.uint64))[0]
    cum = cum[cum < top]
    k = (cum * 2.0 ** 53).astype(np.uint64)
    k += keyed.to_u01(k << np.uint64(11)) <= cum
    return k << np.uint64(11)


def _pick_base(raw: np.ndarray, spec: AffineSpec, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Base matrix selected by each raw draw: the count of ``base_thresholds``
    at or below it, written into ``out`` (intp) when given.

    Equals ``searchsorted(cum_weights, to_u01(raw))``: ``to_u01`` is
    monotone, so ``to_u01(raw) > c`` exactly when ``raw`` is at least the
    threshold of ``c``.
    """
    if out is None:
        out = np.empty(raw.shape, dtype=np.intp)
    out[...] = 0
    for t in spec.base_thresholds:
        out += raw >= t
    return out


# ---------------------------------------------------------------------------
# Moment quantities
# ---------------------------------------------------------------------------

def _mean_log_scalar(spec) -> float:
    """E[log lam] for lam uniform on [r-, r+]: antiderivative r log r - r."""
    a, b = spec.r_minus, spec.r_plus
    return ((b * np.log(b) - b) - (a * np.log(a) - a)) / (b - a)


def lyapunov_prime(family: MatrixFamily, symbol: int) -> float:
    """Expected -log|det A| for one step with the given last symbol."""
    spec = family.symbols[symbol - 1]
    val = -family.dimension * _mean_log_scalar(spec)
    if isinstance(spec, AffineSpec):
        val -= float(np.dot(spec.weights, spec.base_log_abs_det))
    return float(val)


def mc_lyapunov_prime(family: MatrixFamily, symbol: int,
                      n_samples: int, seed: int) -> tuple:
    """Monte Carlo estimate of lyapunov_prime with its standard error."""
    x = -_mc_log_dets(family, symbol, n_samples, seed)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n_samples))


def _mc_log_dets(family: MatrixFamily, symbol: int, n_samples: int, seed: int) -> np.ndarray:
    spec = family.symbols[symbol - 1]
    u = keyed.stream_u01(seed, n_samples, lane=2 * symbol)
    base_raw = keyed.stream_raw(seed, n_samples, lane=2 * symbol + 1) \
        if isinstance(spec, AffineSpec) else None
    return _log_dets(u, base_raw, spec, family.dimension)


def lyapunov_exponent(family: MatrixFamily, m: SymbolicMeasure) -> float:
    """One-symbol-mass weighted average of lyapunov_prime over the alphabet."""
    if m.alphabet.size != family.alphabet.size:
        raise InputError(
            f"alphabet mismatch: measure has {m.alphabet.size} symbols, "
            f"family has {family.alphabet.size}")
    probs = np.asarray(m.first_symbol_probs())
    vals = [lyapunov_prime(family, i) for i in family.alphabet.symbols]
    return float(np.dot(probs, vals))


def _check_moment_order(family: MatrixFamily, s: float) -> None:
    """InputError where the log-moment diverges, for the exact and the sampled value."""
    d = family.dimension
    if s <= -1.0 / d:
        raise InputError(
            f"cramer_moment diverges for s <= -1/d = {-1.0 / d}; got s = {s}")


def cramer_moment(family: MatrixFamily, symbol: int, s: float) -> float:
    """log integral of |det A|^s for one step (the log-moment function).

    The scalar factor contributes ``log E[lam^(d s)]``, which diverges at
    ``d s <= -1`` for both family kinds; base matrices add a finite
    log-sum-exp term.  Exactly 0 at s = 0.
    """
    _check_moment_order(family, s)
    if s == 0.0:
        return 0.0
    d = family.dimension
    spec = family.symbols[symbol - 1]
    a, b = spec.r_minus, spec.r_plus
    q = d * s + 1.0
    val = np.log(b ** q - a ** q) - np.log((b - a) * q)
    if isinstance(spec, AffineSpec):
        z = np.log(spec.weights) + s * spec.base_log_abs_det
        zmax = z.max()
        val += zmax + np.log(np.exp(z - zmax).sum())
    return float(val)


def mc_cramer_moment(family: MatrixFamily, symbol: int, s: float,
                     n_samples: int, seed: int) -> tuple:
    """Monte Carlo log-moment with a delta-method standard error."""
    _check_moment_order(family, s)
    x = np.exp(s * _mc_log_dets(family, symbol, n_samples, seed))
    mean = x.mean()
    se = x.std(ddof=1) / np.sqrt(n_samples)
    return float(np.log(mean)), float(se / mean)


@dataclass(frozen=True)
class MomentReport:
    """Lyapunov and log-moment summary for a family under a measure."""

    lyapunov_prime: np.ndarray      # per symbol
    lyapunov: float
    cramer_values: dict             # s -> per-symbol array


def moment_report(family: MatrixFamily, m: SymbolicMeasure,
                  s_values: Sequence[float] = ()) -> MomentReport:
    """Closed-form per-symbol Lyapunov primes, their m-weighted mean, and the
    log-moments at each ``s``; ``mc_lyapunov_prime`` and ``mc_cramer_moment``
    are the Monte Carlo cross-checks."""
    syms = list(family.alphabet.symbols)
    lp = np.array([lyapunov_prime(family, i) for i in syms])
    cramer = {float(s): np.array([cramer_moment(family, i, s) for i in syms])
              for s in s_values}
    lam = float(np.dot(np.asarray(m.first_symbol_probs()), lp))
    return MomentReport(lyapunov_prime=lp, lyapunov=lam, cramer_values=cramer)
