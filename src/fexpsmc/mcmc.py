"""Trans-dimensional Metropolis kernels targeting tempered posteriors.

The invariant density at inverse temperature gamma is

    eta_gamma(theta) proportional to p(theta) * p~(x | theta)^gamma,

with p the hierarchical prior and p~ any likelihood evaluator.  One kernel
cycle applies, in order,

1. a random-walk Metropolis update of the full (k+1)-dimensional block
   (t, xi_1..xi_k) with a per-order proposal covariance, and
2. a birth/death move: from order k a birth is proposed with probability
   rho(k -> k+1) (1 at k = 0, 1/2 otherwise, 0 at the prior's k_max, the
   one cap on the order; no move at all when k_max = 0), drawing the new
   coordinate from its conditional prior so that proposal and prior cancel
   and the acceptance ratio reduces to

       r = [rho(k* -> k) p(k*) p~(x|theta*)^gamma]
           / [rho(k -> k*) p(k) p~(x|theta)^gamma].

All acceptance tests run in log space, so extreme likelihood ratios never
overflow.  Uniforms come from ``Generator.random()``, which returns the same
doubles as ``Generator.uniform()`` on [0, 1) at a quarter of the call cost,
and an RW proposal adds its step to t and xi directly.  Kernels are pure
functions of (state, rng): they mutate nothing and return the new state
together with its cached log-prior/log-likelihood.
Each kernel moves a whole population (``rw_metropolis_steps``,
``birth_death_steps``) with one likelihood call for all its proposals;
:func:`run_mcmc` moves a population of one, set by a :class:`McmcConfig`.
``MoveStats`` also counts the proposals scored and those scored -inf.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import NumericalError
from .model import ThetaParams, log_prior, sample_prior

__all__ = [
    "InvalidStateError",
    "KernelConfig",
    "McmcConfig",
    "MoveStats",
    "rw_metropolis_steps",
    "birth_death_steps",
    "calibrate_scales",
    "run_mcmc",
]

#: optimal-scaling constant 2.38^2 for random-walk proposals
RW_SCALE2 = 2.38 ** 2
#: an order's covariance is estimated from at least MIN_FACTOR * (k + 2)
#: particles, otherwise it keeps the identity
MIN_FACTOR = 2


class InvalidStateError(NumericalError):
    """Raised when a kernel is started from a state with -inf target density."""


@dataclass
class KernelConfig:
    """Settings shared by the move kernels.

    ``scales`` maps model order k to the lower Cholesky factor of the
    (k+1) x (k+1) random-walk proposal covariance; missing orders fall
    back to the identity.
    """

    gamma: float = 1.0
    scales: dict = field(default_factory=dict)


@dataclass
class McmcConfig:
    """Baseline-chain settings; the only owner of the ``mcmc.*`` keys' defaults and checks."""

    steps: int = 10000       # kernel cycles
    tau: float = 0.015       # RW proposal variance tau * I (without explicit scales)
    thin: int = 1            # store every thin-th state
    gamma: float = 1.0       # fixed inverse temperature; 0 targets the prior alone
    fix_k: int = None        # freeze the model order (no birth/death moves)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.fix_k is not None and self.fix_k < 0:
            raise ValueError("fix_k must be >= 0")


@dataclass
class MoveStats:
    """Acceptance and likelihood-evaluation counters, incremented in place
    by the kernels."""

    rw_proposed: int = 0
    rw_accepted: int = 0
    birth_proposed: int = 0
    birth_accepted: int = 0
    death_proposed: int = 0
    death_accepted: int = 0
    loglik_evals: int = 0       # proposals scored by the likelihood
    loglik_minus_inf: int = 0   # of those, scored -inf

    def rw_rate(self):
        return self.rw_accepted / self.rw_proposed if self.rw_proposed else math.nan

    def bd_rate(self):
        tot = self.birth_proposed + self.death_proposed
        acc = self.birth_accepted + self.death_accepted
        return acc / tot if tot else math.nan


def _tempered(lp, ll, gamma):
    if lp == -math.inf:
        return -math.inf
    if gamma == 0.0:
        return lp  # 0 * (-inf) guard: flat likelihood contributes nothing
    return lp + gamma * ll


def _accept(log_r, rng):
    """Log-space Metropolis test; one uniform is drawn per call."""
    u = rng.random()
    if log_r >= 0.0:
        return True
    return u < math.exp(log_r)


def _current(lps, lls, gamma):
    """Tempered log targets of a population; every one must be > -inf."""
    cur = [_tempered(lp, ll, gamma) for lp, ll in zip(lps, lls)]
    if -math.inf in cur:
        raise InvalidStateError("current state has zero target density")
    return cur


def _score(props, lls, logliks_fn, gamma, stats):
    """Log likelihoods of the proposals, all from one ``logliks_fn`` call;
    at gamma = 0 none is evaluated and each keeps its particle's ``lls``."""
    if gamma == 0.0:
        return list(lls)
    if not props:
        return []
    scores = np.asarray(logliks_fn(props), dtype=float).tolist()
    stats.loglik_evals += len(scores)
    stats.loglik_minus_inf += scores.count(-math.inf)
    return scores


def rw_metropolis_steps(thetas, lps, lls, logliks_fn, prior, cfg, rngs, stats):
    """One random-walk Metropolis update of the (t, xi) block of every particle.

    The update runs in three passes over the population: each particle j
    draws its proposal from ``rngs[j]``; every proposal inside the prior
    support is scored by a single ``logliks_fn`` call; each such particle
    then makes its accept test with one more uniform from ``rngs[j]``.
    So a stream sees the same draws in the same order in any population.

    Parameters
    ----------
    thetas : sequence of ThetaParams
    lps, lls : sequences of float
        Cached log priors and log likelihoods (an ll may be any finite value
        when gamma = 0).
    logliks_fn : callable list of ThetaParams -> sequence of float
    prior : PriorConfig
    cfg : KernelConfig
    rngs : sequence of numpy Generators, one per particle
    stats : MoveStats

    Returns ``(thetas, lps, lls, accepted)`` as a new list, two float arrays
    and a bool array.
    """
    cur = _current(lps, lls, cfg.gamma)
    out = list(thetas)
    lp_out = np.array(lps, dtype=float)
    ll_out = np.array(lls, dtype=float)
    accepted = np.zeros(len(out), dtype=bool)
    moves = []
    for j, th in enumerate(thetas):
        stats.rw_proposed += 1
        z = rngs[j].standard_normal(th.k + 1)
        L = cfg.scales.get(th.k)
        step = z if L is None else L @ z
        prop = ThetaParams(th.k, th.t + float(step[0]), th.xi + step[1:])
        lp_new = log_prior(prop, prior)
        if lp_new != -math.inf:
            moves.append((j, prop, lp_new))
    scores = _score([m[1] for m in moves], [lls[m[0]] for m in moves], logliks_fn,
                    cfg.gamma, stats)
    for (j, prop, lp_new), ll_new in zip(moves, scores):
        if _accept(_tempered(lp_new, ll_new, cfg.gamma) - cur[j], rngs[j]):
            stats.rw_accepted += 1
            out[j], lp_out[j], ll_out[j], accepted[j] = prop, lp_new, ll_new, True
    return out, lp_out, ll_out, accepted


def _rho_up(k, k_max):
    """Probability of proposing a birth from order k."""
    if k == 0:
        return 1.0
    if k >= k_max:
        return 0.0
    return 0.5


def birth_death_steps(thetas, lps, lls, logliks_fn, prior, cfg, rngs, stats):
    """One birth/death move on the model order of every particle.

    Birth draws xi_{k+1} from its conditional prior, so the prior density
    of the new coordinate cancels the proposal and the log ratio is

        log r = log rho(k* -> k) - log rho(k -> k*)
                + log p(k*) - log p(k) + gamma (ll* - ll).

    Propose, score and accept run in three passes over the population as in
    :func:`rw_metropolis_steps`, with the same arguments and return values.
    """
    _current(lps, lls, cfg.gamma)
    out = list(thetas)
    lp_out = np.array(lps, dtype=float)
    ll_out = np.array(lls, dtype=float)
    accepted = np.zeros(len(out), dtype=bool)
    k_max = prior.k_max
    if k_max == 0:  # a single order: no move to propose
        return out, lp_out, ll_out, accepted
    log_pk_ratio = math.log1p(-prior.geom_p)  # log p(k+1) - log p(k)
    moves = []
    for j, th in enumerate(thetas):
        k = th.k
        up = _rho_up(k, k_max)
        if rngs[j].random() < up:
            stats.birth_proposed += 1
            if k >= k_max:
                continue
            xi_new = math.sqrt(prior.xi_var(k + 1)) * rngs[j].standard_normal()
            prop = ThetaParams(k + 1, th.t, np.concatenate((th.xi, [xi_new])))
            # reverse move is a death chosen with probability 1 - rho_up(k+1)
            log_r = math.log1p(-_rho_up(k + 1, k_max)) - math.log(up) + log_pk_ratio
            moves.append((j, prop, log_r, True))
        else:
            stats.death_proposed += 1
            if k == 0:  # rho_up(0) = 1, so death is never selected at k = 0
                continue
            prop = ThetaParams(k - 1, th.t, th.xi[:-1].copy())
            log_r = math.log(_rho_up(k - 1, k_max)) - math.log1p(-up) - log_pk_ratio
            moves.append((j, prop, log_r, False))
    scores = _score([m[1] for m in moves], [lls[m[0]] for m in moves], logliks_fn,
                    cfg.gamma, stats)
    for (j, prop, log_r, birth), ll_new in zip(moves, scores):
        if _accept(log_r + cfg.gamma * (ll_new - lls[j]), rngs[j]):
            if birth:
                stats.birth_accepted += 1
            else:
                stats.death_accepted += 1
            out[j], lp_out[j], ll_out[j], accepted[j] = prop, log_prior(prop, prior), ll_new, True
    return out, lp_out, ll_out, accepted


def calibrate_scales(thetas):
    """Per-order proposal covariances from an equally-weighted population.

    For each order k with at least ``MIN_FACTOR * (k + 2)`` particles the
    proposal covariance is (2.38^2 / (k+1)) (S_k + eps I) with S_k the
    sample covariance of the (t, xi) blocks and the jitter
    eps = 1e-8 tr(S_k)/(k+1); orders with fewer particles use the
    identity.  Returns {k: lower Cholesky factor}.
    """
    groups = {}
    for th in thetas:
        groups.setdefault(th.k, []).append(th.as_vector())
    scales = {}
    for k, vecs in groups.items():
        if len(vecs) < MIN_FACTOR * (k + 2):
            continue
        arr = np.asarray(vecs)
        S = np.cov(arr, rowvar=False).reshape(k + 1, k + 1)
        eps = 1e-8 * float(np.trace(S)) / (k + 1)
        cov = (RW_SCALE2 / (k + 1)) * (S + eps * np.eye(k + 1))
        try:
            scales[k] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass  # degenerate sample: keep the identity fallback
    return scales


def run_mcmc(loglik_fn, prior, cfg, seed, scales=None):
    """Plain (non-tempered-sequence) MCMC baseline driver.

    Repeats ``cfg.steps`` cycles of one RW move followed by one birth/death
    move (none with ``cfg.fix_k`` set) at the fixed inverse temperature
    ``cfg.gamma``.  The chain starts from a prior draw seeded by ``seed`` and
    visits orders 0..prior.k_max.  The proposal covariance is cfg.tau * I
    for every order unless an explicit ``scales`` map is supplied.  Returns
    a dict with the traces of k, d, t thinned by ``cfg.thin``, and the move
    statistics.
    """
    rng = np.random.default_rng(seed)
    if scales is None:
        scales = {k: math.sqrt(cfg.tau) * np.eye(k + 1) for k in range(prior.k_max + 1)}
    kcfg = KernelConfig(gamma=cfg.gamma, scales=scales)
    theta = sample_prior(prior, rng, fix_k=cfg.fix_k)
    thetas, rngs = [theta], [rng]
    lps = [log_prior(theta, prior)]
    lls = [loglik_fn(theta) if cfg.gamma != 0.0 else 0.0]
    logliks_fn = lambda ths: [loglik_fn(th) for th in ths]
    stats = MoveStats()
    ks, ds, ts = [], [], []
    for step in range(cfg.steps):
        thetas, lps, lls, _ = rw_metropolis_steps(
            thetas, lps, lls, logliks_fn, prior, kcfg, rngs, stats
        )
        if cfg.fix_k is None:
            thetas, lps, lls, _ = birth_death_steps(
                thetas, lps, lls, logliks_fn, prior, kcfg, rngs, stats
            )
        if step % cfg.thin == 0:
            ks.append(thetas[0].k)
            ds.append(thetas[0].d)
            ts.append(thetas[0].t)
    return {
        "k": np.array(ks, dtype=int),
        "d": np.array(ds),
        "t": np.array(ts),
        "stats": stats,
        "final": thetas[0],
    }
