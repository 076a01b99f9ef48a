"""Importance-sampling correction from the approximate to the exact posterior.

Particles theta_j targeting the approximate posterior are reweighted by

    log w_j = log p(x | theta_j)        (exact marginal likelihood)
            - log p~(x | theta_j)       (approximate likelihood),

then self-normalised.  Both evaluators drop the same kind of theta-free
constants, so the weights are correct up to a single global factor that
normalisation removes.  The exact evaluation costs one O(n^2)
Durbin-Levinson sweep per distinct particle, so weights are memoised
across duplicated particles (resampled populations contain many copies)
and the step can be subsampled.  Both sides of all distinct particles are
batched evaluations: the exact side whitens blocks of thetas in one sweep
each (:func:`fexpsmc.exact.exact_log_margliks`).  With ``threads > 1`` the
distinct particles are cut into one block per thread and the blocks run on
a thread pool.  The Durbin-Levinson sweep is a per-step Python loop that
holds the GIL for most of its time, so the blocks barely overlap; every
particle gets the same bits for any thread count.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approx import approx_log_liks, prepare_dataset
from .config import NumericalError
from .exact import BLOCK_ROWS, NotPositiveDefiniteError, exact_log_margliks

__all__ = ["CorrectionResult", "correction_weights", "corrected_estimate"]

logger = logging.getLogger(__name__)

#: refuse exact work above this length unless explicitly forced.  Memory is
#: not the limit: at n = 20 000 a full block of exact.BLOCK_ROWS = 32 distinct
#: particles raises the peak RSS by about 50 MB (one particle alone by about
#: 8 MB).  Time is: that block takes 23 s, 0.73 s per distinct particle, on
#: the numpy backend (one core of a 2-core x86 host; one particle alone
#: 1.0-1.2 s), growing as n^2.
N_GUARD = 20_000


@dataclass
class CorrectionResult:
    """Normalised correction weights over the (sub)population."""

    indices: np.ndarray       # positions in the input population
    log_w_raw: np.ndarray     # exact minus approximate, unnormalised
    weights: np.ndarray       # self-normalised, zeros for failed evaluations
    ess_fraction: float       # ESS of the weights / number weighted
    n_failed: int = 0
    n_unique: int = 0         # exact evaluations: distinct particles weighted


def correction_weights(
    thetas,
    x,
    prior,
    mode="whittle",
    subsample=None,
    seed=0,
    threads=1,
    force_large_n=False,
):
    """Compute self-normalised exact/approximate importance weights.

    Parameters
    ----------
    thetas : sequence of ThetaParams
    x : array
        The observed series.
    prior : PriorConfig
    mode : str
        Quadratic-form mode for the approximate evaluator.
    subsample : int, optional
        Weight only a seeded without-replacement draw of this size.
    seed : int
        Seed for the subsample draw.
    threads : int
        Worker threads for the exact evaluations, each taking one block of
        distinct particles (the same output for any count).
    force_large_n : bool
        Allow series longer than the exact-likelihood guard of 20 000 points.

    A covariance that is not positive definite in the exact evaluator zeroes
    that particle's weight (with a warning) instead of aborting the
    correction; :class:`NumericalError` is raised when every weight fails.
    """
    thetas = list(thetas)
    n_particles = len(thetas)
    if n_particles == 0:
        raise ValueError("no particles to weight")
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")

    x = np.asarray(x, dtype=float)
    if x.size > N_GUARD and not force_large_n:
        raise ValueError(
            f"series length {x.size} exceeds the exact-likelihood guard "
            f"({N_GUARD}); pass force_large_n=True to proceed"
        )
    exact_many = lambda ths: exact_log_margliks(ths, x, prior)

    if subsample is not None and subsample < n_particles:
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(n_particles, size=subsample, replace=False))
    else:
        indices = np.arange(n_particles)

    # memoise over duplicated particles: resampled populations repeat thetas
    unique = {}
    for i in indices:
        unique.setdefault(thetas[i].key(), thetas[i])
    distinct = list(unique.values())
    approx = approx_log_liks(distinct, prepare_dataset(x), prior, mode=mode)

    if threads > 1:
        size = min(BLOCK_ROWS, -(-len(distinct) // threads))
        blocks = [distinct[lo:lo + size] for lo in range(0, len(distinct), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(exact_many, blocks))
    else:
        parts = [exact_many(distinct)]
    exact = np.concatenate([values for values, _ in parts])
    info = np.concatenate([bad for _, bad in parts])
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
    )


def corrected_estimate(thetas, result, statistic):
    """Self-normalised estimate sum_j W_j * statistic(theta_j)."""
    vals = np.array([statistic(thetas[i]) for i in result.indices], dtype=float)
    return float(result.weights @ vals)
