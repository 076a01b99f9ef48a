"""Adaptive-tempering sequential Monte Carlo over the FEXP posterior.

The sampler moves N particles through the tempered path

    eta_t(theta)  proportional to  p(theta) * p~(x | theta)^{gamma_t},
    0 = gamma_0 < gamma_1 < ... < gamma_T = 1,

choosing each increment adaptively so that the effective sample size of
the incremental weights w_t = p~^{gamma_t - gamma_{t-1}} equals c * N
(bisection on the ESS, which is non-increasing in the increment; the step
is never zero, and it is capped once the endpoint keeps the ESS above the
target).  A -inf log likelihood is a zero weight; NaN or
+inf raises :class:`~fexpsmc.config.NumericalError`, and so does a
population with no more than c * N finite log likelihoods, whose ESS
cannot reach the target at any increment.  Every iteration then
resamples multinomially and applies M cycles of the RW + birth/death
kernels at the new temperature, with per-order proposal covariances
calibrated from the freshly resampled population.  The model orders the
particles may visit are those of the prior, 0..``prior.k_max``.

Mutation on arrays: the population is carried through the run as a
:class:`fexpsmc.mcmc.Population` -- orders k, t, zero-padded coefficients
xi, cached log priors and log likelihoods -- and resampling is fancy
indexing.  Each of the M cycles runs two half-steps (RW, then
birth/death) over the whole population: each half-step draws the
proposals and accept uniforms of all N particles as a few arrays from one
generator, scores all proposals with one batched likelihood call on the
arrays (:func:`fexpsmc.approx.approx_log_liks`, or a user ``logliks_fn``
of its form), and the prior, the accept ratios, the accept tests and the
updates are array operations.  ThetaParams are built only for the final
population.

Reproducibility: one master seed spawns two generators -- the first
draws the initial population (N successive prior draws) and then every
move, in the array layout documented in :mod:`fexpsmc.mcmc`; the second
draws the resampling.  A given (config, seed) therefore gives identical
results run after run.  A particle slot has no stream of its own: the
draws that move slot j are row j of arrays of N rows, so they depend on
N and on the other particles (the RW normals' width is the population's
largest order).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import approx_log_liks, prepare_dataset
from .config import NumericalError
from .mcmc import (KernelConfig, MoveStats, Population, _log_liks, birth_death_steps,
                   calibrate_scales, rw_metropolis_steps)
from .model import log_prior, sample_population

__all__ = [
    "SmcConfig",
    "ParticleSystem",
    "ess",
    "solve_next_gamma",
    "multinomial_resample",
    "run_smc",
]

#: width of the bisection bracket that ends each tempering increment's solve
GAMMA_TOL = 1e-10
#: tempering iterations after which the schedule is declared stuck
MAX_ITERS = 10_000


@dataclass
class SmcConfig:
    """Sampler settings; the only owner of the ``smc.*`` keys' defaults and checks."""

    N: int = 1000            # particles
    M: int = 20              # kernel cycles per tempering iteration
    c: float = 0.5           # ESS target fraction for the gamma solve
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.M < 0:
            raise ValueError("M must be >= 0")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")


@dataclass
class ParticleSystem:
    """Final population plus per-iteration diagnostics."""

    thetas: list
    log_weights: np.ndarray          # normalised; uniform after a final resample
    cached_loglik: np.ndarray
    gamma_schedule: list = field(default_factory=list)
    ess_trace: list = field(default_factory=list)
    rw_rates: list = field(default_factory=list)
    bd_rates: list = field(default_factory=list)
    loglik_evals: list = field(default_factory=list)      # proposals scored
    loglik_minus_inf: list = field(default_factory=list)  # of those, scored -inf
    distinct_after_resample: list = field(default_factory=list)  # distinct ancestors
    # log of the normalising constant of p~(x | theta) under the law of the
    # initial draws, the prior truncated to orders 0..k_max; log_prior keeps
    # the untruncated log p(k), but that constant cancels in every accept
    # ratio, so the moves target the same truncated law
    log_evidence: float = 0.0


def ess(log_weights):
    """Effective sample size (sum w)^2 / sum w^2 of unnormalised log weights.

    A -inf log weight is a zero weight; NaN or +inf, or no nonzero weight at
    all, raises :class:`~fexpsmc.config.NumericalError`.
    """
    lw = np.asarray(log_weights, dtype=float)
    if np.any(np.isnan(lw) | (lw == math.inf)):
        raise NumericalError("log weights contain NaN or +inf")
    finite = lw[np.isfinite(lw)]
    if finite.size == 0:
        raise NumericalError("all weights are zero")
    m = finite.max()
    w = np.exp(lw - m, where=np.isfinite(lw), out=np.zeros_like(lw))
    s = w.sum()
    return float(s * s / (w @ w))


def solve_next_gamma(loglik, gamma, c):
    """Next inverse temperature on the adaptive schedule.

    Finds alpha in (0, 1 - gamma] with ESS(alpha * loglik) = c * N, N =
    loglik.size, by bisection to GAMMA_TOL and returns gamma + alpha; if
    even the full remaining step keeps the ESS at or above the target the
    schedule finishes at 1.  Bisection is exact here because the ESS is
    non-increasing in alpha: d log ESS / d alpha = 2 (m(alpha) - m(2 alpha)),
    where m(beta), the e^{beta * loglik}-tilted mean of loglik, increases
    with beta.  The step is the bracket's lower end, whose ESS is at least
    c * N, but never zero: while the lower end is still 0 (a root below
    GAMMA_TOL) it is the upper end, so a -inf loglik never meets a zero
    step as 0 * (-inf).  A -inf loglik is a zero weight at every alpha.
    NaN or +inf raises :class:`~fexpsmc.config.NumericalError`, as do L <= c * N
    finite logliks: the ESS tends to L as alpha -> 0, so no alpha meets c * N.
    """
    loglik = np.asarray(loglik, dtype=float)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if np.any(np.isnan(loglik) | (loglik == math.inf)):
        raise NumericalError("log weights contain NaN or +inf")
    N = loglik.size
    target = c * N
    live = loglik[~np.isneginf(loglik)]
    dl = live - live.max(initial=-math.inf)  # centred once; empty when none is live

    def gap(alpha):
        w = np.exp(alpha * dl)
        s = w.sum()
        return s * s / (w @ w) - target

    lo, hi = 0.0, 1.0 - gamma
    if live.size and gap(hi) >= 0.0:  # none live: the count check below raises
        return 1.0
    if live.size <= target:
        raise NumericalError(f"only {live.size} of {N} particles have a finite log likelihood, "
                             f"not above the ESS target c * N = {target:g}")
    while hi - lo > GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return gamma + (lo if lo > 0.0 else hi)


def multinomial_resample(weights, N, rng):
    """N independent categorical draws; returns sorted ancestor indices."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-8):
        raise ValueError("weights must be a probability vector")
    idx = rng.choice(weights.size, size=N, replace=True, p=weights / weights.sum())
    return np.sort(idx)


def run_smc(x, prior, cfg, logliks_fn=None):
    """Run the adaptive-tempering SMC sampler.

    Parameters
    ----------
    x : array or None
        Data series; may be None when an explicit ``logliks_fn`` is given.
    prior : PriorConfig
    cfg : SmcConfig
    logliks_fn : callable (k, t, xi) -> array, optional
        Replaces the default approximate likelihood built from ``x``; like
        ``approx_log_liks``, it returns one log likelihood per row.

    Returns a :class:`ParticleSystem`.  The final population is equally
    weighted because every iteration -- including the last one at
    gamma = 1 -- resamples before moving.  Its ``log_evidence`` estimates
    log E[p~(x | theta)] under the law of the initial draws, which is the
    prior truncated to orders 0..``prior.k_max``: ``log_prior`` does not
    renormalise p(k) over that range, but the missing constant cancels in
    every accept ratio, so this is the evidence of the truncated prior, not
    a bias.  A schedule that has not reached gamma = 1 after MAX_ITERS
    iterations raises :class:`~fexpsmc.config.NumericalError`.
    """
    if logliks_fn is None:
        if x is None:
            raise ValueError("either data or logliks_fn is required")
        ctx = prepare_dataset(x)
        logliks_fn = lambda k, t, xi: approx_log_liks(k, t, xi, ctx, prior)

    move_rng, resample_rng = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))

    k, t, xi = sample_population(prior, move_rng, cfg.N)
    pop = Population(k, t, xi, log_prior(k, t, xi, prior), _log_liks(logliks_fn, k, t, xi))

    system = ParticleSystem(thetas=[], log_weights=np.full(cfg.N, -math.log(cfg.N)),
                            cached_loglik=pop.ll)

    gamma = 0.0
    iteration = 0
    while gamma < 1.0:
        iteration += 1
        if iteration > MAX_ITERS:
            raise NumericalError(f"tempering schedule did not reach gamma = 1 in "
                                 f"{MAX_ITERS} iterations (gamma = {gamma:.6g})")
        gamma_new = solve_next_gamma(pop.ll, gamma, cfg.c)
        inc = (gamma_new - gamma) * pop.ll
        m = np.max(inc[np.isfinite(inc)])
        w = np.exp(inc - m, where=np.isfinite(inc), out=np.zeros_like(inc))
        wsum = w.sum()
        system.log_evidence += m + math.log(wsum / cfg.N)
        weights = w / wsum
        system.ess_trace.append(ess(inc))
        system.gamma_schedule.append(gamma_new)

        ancestors = multinomial_resample(weights, cfg.N, resample_rng)
        system.distinct_after_resample.append(len(np.unique(ancestors)))
        pop = pop.take(ancestors)

        kcfg = KernelConfig(gamma=gamma_new, scales=calibrate_scales(pop.k, pop.t, pop.xi))
        stats = MoveStats()
        for _ in range(cfg.M):
            pop, _ = rw_metropolis_steps(pop, logliks_fn, prior, kcfg, move_rng, stats)
            pop, _ = birth_death_steps(pop, logliks_fn, prior, kcfg, move_rng, stats)

        system.rw_rates.append(stats.rw_rate())
        system.bd_rates.append(stats.bd_rate())
        system.loglik_evals.append(stats.loglik_evals)
        system.loglik_minus_inf.append(stats.loglik_minus_inf)
        gamma = gamma_new

    system.thetas, system.cached_loglik = pop.thetas(), pop.ll
    return system
