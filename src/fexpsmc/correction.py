"""Importance-sampling correction from the approximate to the exact posterior.

Particles theta_j targeting the approximate posterior are reweighted by

    log w_j = log p(x | theta_j)        (exact marginal likelihood)
            - log p~(x | theta_j)       (approximate likelihood),

then self-normalised.  Both evaluators drop the same kind of theta-free
constants, so the weights are correct up to a single global factor that
normalisation removes.  The exact evaluation costs one O(n^2)
Durbin-Levinson sweep per distinct particle, so weights are memoised
across duplicated particles (resampled populations contain many copies)
and the whole step can be subsampled or spread over threads (which only
overlap where the active backend releases the GIL).  The approximate side
of all distinct particles is one batched evaluation.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approx import approx_log_liks, prepare_dataset
from .exact import NotPositiveDefiniteError, exact_log_marglik

__all__ = ["CorrectionResult", "correction_weights", "corrected_estimate"]

logger = logging.getLogger(__name__)

#: refuse exact work above this length unless explicitly forced.  Memory is
#: not the limit: one evaluation at n = 20 000 raises the peak RSS by about
#: 6 MB.  Time is: that evaluation takes 0.70-0.76 s on the numpy backend
#: (one core of a 2-core x86 host), per distinct particle, growing as n^2.
N_GUARD = 20_000


@dataclass
class CorrectionResult:
    """Normalised correction weights over the (sub)population."""

    indices: np.ndarray       # positions in the input population
    log_w_raw: np.ndarray     # exact minus approximate, unnormalised
    weights: np.ndarray       # self-normalised, zeros for failed evaluations
    ess_fraction: float       # ESS of the weights / number weighted
    n_failed: int = 0


def correction_weights(
    thetas,
    x,
    prior,
    mode="whittle",
    subsample=None,
    seed=0,
    threads=1,
    force_large_n=False,
    exact_fn=None,
    approx_fn=None,
):
    """Compute self-normalised exact/approximate importance weights.

    Parameters
    ----------
    thetas : sequence of ThetaParams
    x : array
        The observed series (ignored when both evaluators are injected).
    prior : PriorConfig
    mode : str
        Quadratic-form mode for the approximate evaluator.
    subsample : int, optional
        Weight only a seeded without-replacement draw of this size.
    seed : int
        Seed for the subsample draw.
    threads : int
        Worker threads for the exact evaluations (deterministic output
        ordering regardless of the count).
    force_large_n : bool
        Allow series longer than the exact-likelihood guard of 20 000 points.
    exact_fn, approx_fn : callables theta -> float, optional
        Test seams replacing the default evaluators.

    A covariance that is not positive definite in the exact evaluator zeroes
    that particle's weight (with a warning) instead of aborting the correction.
    """
    thetas = list(thetas)
    n_particles = len(thetas)
    if n_particles == 0:
        raise ValueError("no particles to weight")

    if exact_fn is None or approx_fn is None:
        x = np.asarray(x, dtype=float)
        if x.size > N_GUARD and not force_large_n:
            raise ValueError(
                f"series length {x.size} exceeds the exact-likelihood guard "
                f"({N_GUARD}); pass force_large_n=True to proceed"
            )
    if exact_fn is None:
        exact_fn = lambda th: exact_log_marglik(th, x, prior)
    if approx_fn is None:
        ctx = prepare_dataset(x)
        approx_many = lambda ths: approx_log_liks(ths, ctx, prior, mode=mode)
    else:
        approx_many = lambda ths: [approx_fn(th) for th in ths]

    if subsample is not None and subsample < n_particles:
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(n_particles, size=subsample, replace=False))
    else:
        indices = np.arange(n_particles)

    # memoise over duplicated particles: resampled populations repeat thetas
    unique = {}
    order = []
    for i in indices:
        key = thetas[i].key()
        if key not in unique:
            unique[key] = thetas[i]
            order.append(key)
    approx = dict(zip(order, approx_many([unique[key] for key in order])))

    def _one(key):
        th = unique[key]
        try:
            return exact_fn(th) - approx[key]
        except NotPositiveDefiniteError as err:
            logger.warning("correction weight zeroed (k=%d): %s", th.k, err)
            return -math.inf

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(_one, order))
    else:
        values = [_one(key) for key in order]
    by_key = dict(zip(order, values))

    log_w = np.array([by_key[thetas[i].key()] for i in indices])
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise ValueError("every correction weight failed or is zero")
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
    )


def corrected_estimate(thetas, result, statistic):
    """Self-normalised estimate sum_j W_j * statistic(theta_j)."""
    vals = np.array([statistic(thetas[i]) for i in result.indices], dtype=float)
    return float(result.weights @ vals)
