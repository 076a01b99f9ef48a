"""Importance-sampling correction from the approximate to the exact posterior.

Particles theta_j targeting the approximate posterior are reweighted by

    log w_j = log p(x | theta_j)        (exact marginal likelihood)
            - log p~(x | theta_j)       (approximate likelihood),

then self-normalised.  Both evaluators drop the same kind of theta-free
constants, so the weights are correct up to a single global factor that
normalisation removes.  The exact evaluation costs one O(n log^2 n) Schur
solve per distinct particle, or an O(n^2) Durbin-Levinson sweep for a
particle too ill-conditioned for it (counted), so weights are memoised
across duplicated particles (resampled populations contain many copies)
and the step can be subsampled.  The settings are a
:class:`CorrectionConfig`, the only owner of the ``correction.*`` keys'
defaults and checks, and of the exact-likelihood length guard that the CLI
also applies before it samples.  Both sides of all distinct particles are
batched evaluations of the population arrays: the exact side solves blocks
of thetas at once (:func:`fexpsmc.exact.exact_log_margliks`).  With
``threads > 1`` the distinct particles are cut into one slice per thread and
the slices run on a thread pool; every particle gets the same bits for any
thread count.  The pool does not pay: 8 distinct particles at n = 3000 took
0.06 s on one thread and 0.15 s on two.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approx import approx_log_liks, prepare_dataset
from .config import ConfigError, NumericalError
from .exact import NotPositiveDefiniteError, exact_log_margliks
from .model import to_arrays

__all__ = ["CorrectionConfig", "CorrectionResult", "correction_weights"]

logger = logging.getLogger(__name__)

#: refuse exact work above this length unless explicitly forced.  At
#: n = 20 000 the exact side solves blocks of 6 distinct particles
#: (exact.BLOCK_ELEMENTS); 32 distinct particles on the Schur path raised the
#: peak RSS by about 21 MB (one particle alone by about 9 MB) and took
#: 2.2-2.6 s, 0.07-0.08 s per distinct particle (one particle alone
#: 0.18-0.26 s; one core of a 2-core x86 host).  A particle handed to the
#: Durbin-Levinson fallback still costs O(n^2): 0.73 s at n = 20 000.
N_GUARD = 20_000


@dataclass
class CorrectionConfig:
    """Correction settings; the only owner of the ``correction.*`` keys'
    defaults and checks.  ``enabled`` is read by the CLI, which skips the
    correction when it is false."""

    enabled: bool = True
    subsample: int = None        # weight a seeded draw of this many particles
    threads: int = 1             # one slice of distinct particles per thread
    seed: int = 0                # seed of the subsample draw
    force_large_n: bool = False  # allow series longer than N_GUARD

    def __post_init__(self):
        if self.subsample is not None and self.subsample < 1:
            raise ValueError("subsample must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def check_length(self, n):
        """Refuse a series of n > N_GUARD points unless ``force_large_n``."""
        if n > N_GUARD and not self.force_large_n:
            raise ConfigError(
                f"series length {n} exceeds the exact-likelihood guard ({N_GUARD}); "
                "set correction.force_large_n = true or disable the correction")


@dataclass
class CorrectionResult:
    """Normalised correction weights over the (sub)population."""

    indices: np.ndarray       # positions in the input population
    log_w_raw: np.ndarray     # exact minus approximate, unnormalised
    weights: np.ndarray       # self-normalised, zeros for failed evaluations
    ess_fraction: float       # ESS of the weights / number weighted
    n_failed: int = 0
    n_unique: int = 0         # exact evaluations: distinct particles weighted
    n_ill_conditioned: int = 0  # of those, valued by the Durbin-Levinson fallback (exact.RESIDUAL_BOUND)


def correction_weights(thetas, x, prior, cfg=None):
    """Compute self-normalised exact/approximate importance weights.

    Parameters
    ----------
    thetas : sequence of ThetaParams
    x : array
        The observed series.
    prior : PriorConfig
    cfg : CorrectionConfig, optional
        Subsample size and seed, worker threads (the same output for any
        count) and the length guard; None means ``CorrectionConfig()``.

    A covariance that is not positive definite in the exact evaluator zeroes
    that particle's weight (with a warning) instead of aborting the
    correction; :class:`NumericalError` is raised when every weight fails.
    """
    cfg = CorrectionConfig() if cfg is None else cfg
    thetas = list(thetas)
    n_particles = len(thetas)
    if n_particles == 0:
        raise ValueError("no particles to weight")
    x = np.asarray(x, dtype=float)
    cfg.check_length(x.size)

    if cfg.subsample is not None and cfg.subsample < n_particles:
        rng = np.random.default_rng(cfg.seed)
        indices = np.sort(rng.choice(n_particles, size=cfg.subsample, replace=False))
    else:
        indices = np.arange(n_particles)

    # memoise over duplicated particles: resampled populations repeat thetas
    unique = {}
    for i in indices:
        unique.setdefault(thetas[i].key(), thetas[i])
    distinct = list(unique.values())
    k, t, xi = to_arrays(distinct)
    approx = approx_log_liks(k, t, xi, prepare_dataset(x), prior)

    size = -(-len(distinct) // cfg.threads)
    exact_block = lambda lo: exact_log_margliks(k[lo:lo + size], t[lo:lo + size],
                                                xi[lo:lo + size], x, prior)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(exact_block, range(0, len(distinct), size)))
    else:
        parts = [exact_block(0)]
    exact, info, ill = (np.concatenate(part) for part in zip(*parts))
    for th, idx in zip(distinct, info):
        if idx:
            logger.warning("correction weight zeroed (k=%d): %s", th.k,
                           NotPositiveDefiniteError(idx))
    by_key = dict(zip(unique, np.where(info == 0, exact - approx, -math.inf)))

    log_w = np.array([by_key[thetas[i].key()] for i in indices])
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise NumericalError("every correction weight failed or is zero")
    m = log_w[finite].max()
    w = np.exp(log_w - m, where=finite, out=np.zeros_like(log_w))
    w /= w.sum()
    ess = 1.0 / float(w @ w)
    return CorrectionResult(
        indices=indices,
        log_w_raw=log_w,
        weights=w,
        ess_fraction=ess / indices.size,
        n_failed=int(np.sum(~finite)),
        n_unique=len(distinct),
        n_ill_conditioned=int(np.sum(ill)),
    )
