"""Per-symbol random matrix distributions and word-keyed realizations.

A family assigns each alphabet symbol a distribution over contracting
invertible d x d matrices plus a translation vector.  Two distribution kinds
are supported, mirroring the standard similarity and affine constructions:

* ``SimilaritySpec``: ``A = lam * O`` with ``lam`` uniform on
  ``[r_minus, r_plus]`` (0 < r- < r+ < 1) and ``O`` Haar-distributed on the
  orthogonal group (Gaussian QR with the sign-fixed-diagonal convention).
  For d = 1 the orthogonal factor is taken to be the identity so that
  samples are positive scalars in ``[r-, r+]``.
* ``AffineSpec``: ``A = lam * O * B`` with ``B`` drawn from a finite weighted
  set of invertible matrices with operator norm <= 1 and smallest singular
  value bounded away from 0.

A realization is the assignment ``word -> matrix`` for one 64-bit seed.  It
is materialized lazily: the sample at a word is a pure function of
``(seed, word, family)`` via the keyed streams in :mod:`rifs.keyed`, so any
finite set of coordinates can be produced reproducibly, in any order, in
bulk or one at a time.  Per-word draw layout (fixed): draw 0 is the scalar
``lam``, draw 1 the base-matrix selector, draws 2 .. 1 + d*d feed the
Gaussian matrix behind ``O``.  A batch is sampled with one call per distinct
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
from scipy.special import ndtri

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
        self.base_log_abs_det = np.log(np.abs(np.linalg.det(bases)))
        self.base_max_norm = float(svals[:, 0].max())
        self.lower_singular_bound = float(svals[:, -1].min())
        for a in (self.base_matrices, self.weights, self.cum_weights, self.base_log_abs_det):
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
        self.seed = int(seed)
        self.family = family
        self._root = keyed.root_state(self.seed)

    # -- chain-state plumbing -------------------------------------------------
    def root_chain(self) -> np.ndarray:
        return self._root.copy()

    def chain_for_word(self, word) -> np.ndarray:
        state = self._root
        for s in word:
            state = keyed.absorb(state, s)
        return state

    # -- sampling -------------------------------------------------------------
    def sample_matrix(self, word) -> np.ndarray:
        """Matrix at ``word`` (bit-identical on repeated calls)."""
        w = validate_word(word, self.family.alphabet)
        if not w:
            raise InputError("the empty word carries no matrix")
        return self.matrices_from_chains(self.chain_for_word(w), np.array([w[-1]]))[0]

    def log_abs_det(self, word) -> float:
        w = validate_word(word, self.family.alphabet)
        if not w:
            raise InputError("the empty word carries no matrix")
        states = self.chain_for_word(w)
        return float(self.log_dets_from_chains(states, np.array([w[-1]]))[0])

    def matrices_from_chains(self, states: np.ndarray, last_symbols) -> np.ndarray:
        """Batch sample, shape (N, d, d); rows grouped internally by symbol."""
        d = self.family.dimension
        return self._per_symbol(self._sample_symbol, states, last_symbols, (d, d))

    def log_dets_from_chains(self, states: np.ndarray, last_symbols) -> np.ndarray:
        """log|det| per row without materializing the matrices."""
        d = self.family.dimension

        def log_det(st, spec):
            val = d * np.log(_scalar_factor(st, spec))
            if isinstance(spec, AffineSpec):
                val = val + spec.base_log_abs_det[_base_index(st, spec)]
            return val

        return self._per_symbol(log_det, states, last_symbols)

    def scalars_from_chains(self, states: np.ndarray, last_symbols) -> np.ndarray:
        """1x1 samples as a flat vector (fast path for dimension-1 families)."""
        if self.family.dimension != 1:
            raise InputError("scalar sampling requires a 1-dimensional family")

        def scalar(st, spec):
            lam = _scalar_factor(st, spec)
            if isinstance(spec, AffineSpec):
                lam = lam * spec.base_matrices[_base_index(st, spec), 0, 0]
            return lam

        return self._per_symbol(scalar, states, last_symbols)

    def _per_symbol(self, sample, states: np.ndarray, last_symbols,
                    row_shape: tuple = ()) -> np.ndarray:
        """Rows of ``sample(states, spec)``, one call per distribution.

        ``last_symbols`` is one symbol per row, or a single symbol shared by
        every row.  Rows whose symbols share a distribution are sampled in one
        call; a family with a single distribution samples the whole batch at
        once, without masks.
        """
        fam = self.family
        if np.ndim(last_symbols) == 0:
            return sample(states, fam.symbols[int(last_symbols) - 1])
        if len(fam.distributions) == 1:
            return sample(states, fam.distributions[0])
        out = np.empty((states.size,) + row_shape)
        group = fam.distribution_index[last_symbols]
        for g, spec in enumerate(fam.distributions):
            mask = group == g
            if mask.any():
                out[mask] = sample(states[mask], spec)
        return out

    def _sample_symbol(self, states: np.ndarray, spec) -> np.ndarray:
        d = self.family.dimension
        lam = _scalar_factor(states, spec)
        if d == 1:
            mats = lam[:, None, None].copy()
        else:
            gauss = ndtri(keyed.draw_u01_block(states, 2, d * d)).reshape(-1, d, d)
            q, r = np.linalg.qr(gauss)
            signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
            signs = np.where(signs == 0.0, 1.0, signs)
            q = q * signs[:, None, :]
            mats = lam[:, None, None] * q
        if isinstance(spec, AffineSpec):
            idx = _base_index(states, spec)
            mats = mats @ spec.base_matrices[idx]
        return mats


def _scalar_factor(states: np.ndarray, spec) -> np.ndarray:
    u = keyed.draw_u01(states, 0)
    return spec.r_minus + u * (spec.r_plus - spec.r_minus)


def _base_index(states: np.ndarray, spec: AffineSpec) -> np.ndarray:
    return _pick_base(keyed.draw_u01(states, 1), spec)


def _pick_base(u: np.ndarray, spec: AffineSpec) -> np.ndarray:
    """Base matrix selected by each uniform: the count of ``cum_weights`` below it.

    Equals ``searchsorted(cum_weights, u)`` for every ``u <= cum_weights[-1] = 1``.
    """
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in spec.cum_weights[:-1]:
        idx += u > c
    return idx


# ---------------------------------------------------------------------------
# Moment quantities
# ---------------------------------------------------------------------------

def _mean_log_scalar(spec) -> float:
    """E[log lam] for lam uniform on [r-, r+]: antiderivative r log r - r."""
    a, b = spec.r_minus, spec.r_plus
    return ((b * np.log(b) - b) - (a * np.log(a) - a)) / (b - a)


def lyapunov_prime(family: MatrixFamily, symbol: int,
                   method: str = "analytic",
                   n_samples: int = 100_000, seed: int = 0) -> float:
    """Expected -log|det A| for one step with the given last symbol."""
    spec = family.symbols[symbol - 1]
    if method == "analytic":
        val = -family.dimension * _mean_log_scalar(spec)
        if isinstance(spec, AffineSpec):
            val -= float(np.dot(spec.weights, spec.base_log_abs_det))
        return float(val)
    if method == "monte_carlo":
        return mc_lyapunov_prime(family, symbol, n_samples, seed)[0]
    raise InputError(f"unknown method {method!r}")


def mc_lyapunov_prime(family: MatrixFamily, symbol: int,
                      n_samples: int, seed: int) -> tuple:
    """Monte Carlo estimate of lyapunov_prime with its standard error."""
    x = -_mc_log_dets(family, symbol, n_samples, seed)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n_samples))


def _mc_log_dets(family: MatrixFamily, symbol: int, n_samples: int, seed: int) -> np.ndarray:
    spec = family.symbols[symbol - 1]
    u = keyed.stream_u01(seed, n_samples, lane=2 * symbol)
    lam = spec.r_minus + u * (spec.r_plus - spec.r_minus)
    out = family.dimension * np.log(lam)
    if isinstance(spec, AffineSpec):
        ub = keyed.stream_u01(seed, n_samples, lane=2 * symbol + 1)
        out = out + spec.base_log_abs_det[_pick_base(ub, spec)]
    return out


def lyapunov_exponent(family: MatrixFamily, m: SymbolicMeasure,
                      method: str = "analytic",
                      n_samples: int = 100_000, seed: int = 0) -> float:
    """One-symbol-mass weighted average of lyapunov_prime over the alphabet."""
    if m.alphabet.size != family.alphabet.size:
        raise InputError(
            f"alphabet mismatch: measure has {m.alphabet.size} symbols, "
            f"family has {family.alphabet.size}")
    probs = np.asarray(m.first_symbol_probs())
    vals = [lyapunov_prime(family, i, method, n_samples, seed)
            for i in family.alphabet.symbols]
    return float(np.dot(probs, vals))


def cramer_moment(family: MatrixFamily, symbol: int, s: float,
                  method: str = "analytic",
                  n_samples: int = 100_000, seed: int = 0) -> float:
    """log integral of |det A|^s for one step (the log-moment function).

    The scalar factor contributes ``log E[lam^(d s)]``, which diverges at
    ``d s <= -1`` for both family kinds; base matrices add a finite
    log-sum-exp term.  Exactly 0 at s = 0.
    """
    d = family.dimension
    spec = family.symbols[symbol - 1]
    if s <= -1.0 / d:
        raise InputError(
            f"cramer_moment diverges for s <= -1/d = {-1.0 / d}; got s = {s}")
    if method == "monte_carlo":
        return mc_cramer_moment(family, symbol, s, n_samples, seed)[0]
    if method != "analytic":
        raise InputError(f"unknown method {method!r}")
    if s == 0.0:
        return 0.0
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
    method: str
    sample_count: int | None = None
    stderr: np.ndarray | None = None  # per symbol, Monte Carlo only

    def agrees_within(self, other: "MomentReport", k_sigma: float = 3.0) -> bool:
        """True iff per-symbol values of self/other differ by <= k sigma."""
        se = self.stderr if self.stderr is not None else other.stderr
        if se is None:
            raise InputError("neither report carries standard errors")
        return bool(np.all(np.abs(self.lyapunov_prime - other.lyapunov_prime)
                           <= k_sigma * se))


def moment_report(family: MatrixFamily, m: SymbolicMeasure,
                  s_values: Sequence[float] = (),
                  method: str = "analytic",
                  n_samples: int = 100_000, seed: int = 0) -> MomentReport:
    syms = list(family.alphabet.symbols)
    if method == "analytic":
        lp = np.array([lyapunov_prime(family, i) for i in syms])
        stderr = None
        count = None
    elif method == "monte_carlo":
        pairs = [mc_lyapunov_prime(family, i, n_samples, seed) for i in syms]
        lp = np.array([p[0] for p in pairs])
        stderr = np.array([p[1] for p in pairs])
        count = n_samples
    else:
        raise InputError(f"unknown method {method!r}")
    cramer = {
        float(s): np.array([cramer_moment(family, i, s, method, n_samples, seed)
                            for i in syms])
        for s in s_values
    }
    lam = float(np.dot(np.asarray(m.first_symbol_probs()), lp))
    return MomentReport(lyapunov_prime=lp, lyapunov=lam, cramer_values=cramer,
                        method=method, sample_count=count, stderr=stderr)
