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

The kernels move a whole :class:`Population` -- arrays k, t, xi (zero-padded
to the population's width, which a birth grows), log prior ``lp`` and log
likelihood ``ll`` -- in one half-step on one generator.  A half-step draws
all its randomness first, as arrays in a fixed layout over the N rows:

- random walk: ``standard_normal((N, K + 1))``, K the population's largest
  order, of which row j uses its first k_j + 1 entries (times the order's
  Cholesky factor, in one stacked product per order); then ``random(N)``,
  row j's accept uniform;
- birth/death: ``random(N)`` for the move choices, ``standard_normal(N)``
  for the born coordinates (row j's is used only by a birth) and
  ``random(N)`` for the accept tests.

Every proposal inside the prior support (finite coordinates, order at most
k_max) is then scored by one ``logliks_fn(k, t, xi)`` call, one value per
row, and the prior sums, tempering, acceptance ratios, accept tests
u < exp(min(log r, 0)) and updates are array operations: no Python runs
per particle.  All acceptance tests run in log space, so extreme likelihood
ratios never overflow.  Kernels mutate nothing and return the new
population.  :func:`run_mcmc` moves a population of one, set by a
:class:`McmcConfig`.  ``MoveStats`` also counts the proposals scored and
those scored -inf.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import NumericalError
from .model import (PriorConfig, log_prior, memory_d, rows_by_order, sample_population,
                    to_thetas)

__all__ = [
    "InvalidStateError",
    "KernelConfig",
    "McmcConfig",
    "MoveStats",
    "Population",
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


@dataclass
class Population:
    """N particles as arrays: orders ``k`` (N,) int, ``t`` (N,), coefficients
    ``xi`` (N, w) -- row i holds its k[i] coefficients first and zeros after
    them, w being at least the largest order -- and the cached log priors
    ``lp`` and log likelihoods ``ll`` (N,).  The kernels treat the arrays as
    immutable and share unchanged ones between populations."""

    k: np.ndarray
    t: np.ndarray
    xi: np.ndarray
    lp: np.ndarray
    ll: np.ndarray

    def take(self, idx):
        """The particles at positions ``idx``, in that order."""
        return Population(self.k[idx], self.t[idx], self.xi[idx], self.lp[idx], self.ll[idx])

    def thetas(self):
        """The particles as ThetaParams."""
        return to_thetas(self.k, self.t, self.xi)


def _tempered(lp, ll, gamma):
    # at gamma = 0 a flat likelihood contributes nothing, -inf included
    return lp if gamma == 0.0 else lp + gamma * ll


def _current(pop, gamma):
    """Tempered log targets of a population; every one must be > -inf."""
    cur = _tempered(pop.lp, pop.ll, gamma)
    if np.count_nonzero(np.fmin(pop.lp, cur) == -math.inf):
        raise InvalidStateError("current state has zero target density")
    return cur


def _accepts(log_r, u):
    """Log-space Metropolis tests u < exp(min(log r, 0)) of uniforms ``u`` in
    [0, 1): always accepted at log r >= 0 (+inf included), never at NaN or
    -inf, and a zero uniform needs no log."""
    return u < np.exp(np.minimum(log_r, 0.0))


def _log_liks(logliks_fn, k, t, xi):
    """``logliks_fn(k, t, xi)`` as floats, one per row; a scalar must not broadcast."""
    ll = np.asarray(logliks_fn(k, t, xi), dtype=float)
    if ll.shape != k.shape:
        raise ValueError(f"logliks_fn returned shape {ll.shape}, not one value per row {k.shape}")
    return ll


def _score(k, t, xi, ll, logliks_fn, gamma, stats):
    """Log likelihoods of the proposals (k, t, xi), all from one ``logliks_fn``
    call; at gamma = 0 none is evaluated and each keeps its particle's ``ll``."""
    if gamma == 0.0:
        return ll
    if not k.size:
        return np.empty(0)
    scores = _log_liks(logliks_fn, k, t, xi)
    stats.loglik_evals += scores.size
    stats.loglik_minus_inf += int(np.count_nonzero(scores == -math.inf))
    return scores


def rw_metropolis_steps(pop, logliks_fn, prior, cfg, rng, stats):
    """One random-walk Metropolis update of the (t, xi) block of every particle.

    The half-step draws ``standard_normal((N, K + 1))``, K the largest
    order in ``pop``, whose row j gives particle j its first k_j + 1
    entries as its step, then ``random(N)``, row j's accept uniform.  Every
    proposal inside the prior support is scored by a single ``logliks_fn``
    call.  A proposal with a non-finite coordinate is outside the support:
    it is neither scored nor accepted.

    Parameters
    ----------
    pop : Population
        The current particles (an ll may be any finite value when gamma = 0).
    logliks_fn : callable (k, t, xi) -> array of one float per row
    prior : PriorConfig
    cfg : KernelConfig
    rng : numpy Generator
    stats : MoveStats

    Returns ``(population, accepted)`` with a bool array ``accepted``.
    """
    cur = _current(pop, cfg.gamma)
    n, w = pop.xi.shape
    orders = rows_by_order(pop.k)
    z = rng.standard_normal((n, max(orders) + 1))
    u = rng.random(n)
    step = np.zeros((n, 1 + w))
    for kk, rows in orders.items():
        zk = z[rows, :kk + 1]
        # the order's steps L z as one stacked product: per vector the same
        # BLAS call as L @ z
        L = cfg.scales.get(kk)
        step[rows, :kk + 1] = zk if L is None else np.matmul(L, zk[:, :, None])[:, :, 0]
    stats.rw_proposed += n
    t = pop.t + step[:, 0]
    xi = pop.xi + step[:, 1:]
    lp = log_prior(pop.k, t, xi, prior)
    inside = lp != -math.inf
    sub = slice(None) if inside.all() else inside.nonzero()[0]
    ll = pop.ll.copy()
    ll[sub] = _score(pop.k[sub], t[sub], xi[sub], ll[sub], logliks_fn, cfg.gamma, stats)
    accepted = inside & _accepts(_tempered(lp, ll, cfg.gamma) - cur, u)
    stats.rw_accepted += int(np.count_nonzero(accepted))
    return Population(pop.k, np.where(accepted, t, pop.t), np.where(accepted[:, None], xi, pop.xi),
                      np.where(accepted, lp, pop.lp), np.where(accepted, ll, pop.ll)), accepted


def _rho_up(k, k_max):
    """Probability of proposing a birth from order k."""
    if k == 0:
        return 1.0
    if k >= k_max:
        return 0.0
    return 0.5


@lru_cache(maxsize=256)
def _birth_death_tables(k_max, geom_p, xi_var0, beta, w):
    """A read-only (w + 1, 4) array whose row k = 0..w holds the birth
    probability rho(k -> k+1), the prior sd of a born coordinate xi_{k+1},
    and the log ratio constants of a birth and of a death from k (nan where
    that move is never proposed)."""
    prior = PriorConfig(geom_p=geom_p, xi_var0=xi_var0, beta=beta, k_max=k_max)
    log_pk_ratio = math.log1p(-geom_p)  # log p(k+1) - log p(k)
    table = np.empty((w + 1, 4))
    for k in range(w + 1):
        up = _rho_up(k, k_max)
        # the reverse of a birth is a death chosen with probability 1 - rho_up(k+1)
        birth = (math.log1p(-_rho_up(k + 1, k_max)) - math.log(up) + log_pk_ratio
                 if k < k_max else math.nan)
        death = (math.log(_rho_up(k - 1, k_max)) - math.log1p(-up) - log_pk_ratio
                 if 0 < k <= k_max else math.nan)
        table[k] = up, math.sqrt(prior.xi_var(k + 1)), birth, death
    table.flags.writeable = False
    return table


def birth_death_steps(pop, logliks_fn, prior, cfg, rng, stats):
    """One birth/death move on the model order of every particle.

    Birth draws xi_{k+1} from its conditional prior, so the prior density
    of the new coordinate cancels the proposal and the log ratio is

        log r = log rho(k* -> k) - log rho(k -> k*)
                + log p(k*) - log p(k) + gamma (ll* - ll).

    The half-step draws ``random(N)``, ``standard_normal(N)`` and
    ``random(N)``: particle j proposes a birth when the first array's row j
    is below rho(k_j -> k_j + 1), a birth's new coordinate is the prior sd
    times the second's row j, and the third gives the accept uniforms.  All
    proposals are scored by one call; arguments and return values are
    those of :func:`rw_metropolis_steps`.  A birth at the population's
    width grows xi by one column.  At k_max = 0 there is no move, and
    nothing is drawn.
    """
    _current(pop, cfg.gamma)
    n, w = pop.xi.shape
    k_max = prior.k_max
    if k_max == 0:  # a single order: no move to propose
        return pop, np.zeros(n, dtype=bool)
    up, sd, birth_r, death_r = _birth_death_tables(
        k_max, prior.geom_p, prior.xi_var0, prior.beta, w)[pop.k].T
    birth = rng.random(n) < up
    born = sd * rng.standard_normal(n)
    u = rng.random(n)
    # per particle: the proposed order, the column it changes and that
    # column's new value (a birth's coordinate, 0 for a death)
    k = pop.k + np.where(birth, 1, -1)
    col = np.minimum(pop.k, k)
    xi = pop.xi if k.max() <= w else np.concatenate((pop.xi, np.zeros((n, 1))), axis=1)
    births = int(np.count_nonzero(birth))
    stats.birth_proposed += births
    stats.death_proposed += n - births
    prop = xi.copy()
    prop[np.arange(n), col] = np.where(birth, born, 0.0)
    lp = log_prior(k, pop.t, prop, prior)
    ll = _score(k, pop.t, prop, pop.ll, logliks_fn, cfg.gamma, stats)
    accepted = _accepts(np.where(birth, birth_r, death_r) + cfg.gamma * (ll - pop.ll), u)
    born_kept = int(np.count_nonzero(accepted & birth))
    stats.birth_accepted += born_kept
    stats.death_accepted += int(np.count_nonzero(accepted)) - born_kept
    return Population(np.where(accepted, k, pop.k), pop.t, np.where(accepted[:, None], prop, xi),
                      np.where(accepted, lp, pop.lp), np.where(accepted, ll, pop.ll)), accepted


def calibrate_scales(k, t, xi):
    """Per-order proposal covariances from an equally-weighted population (k, t, xi).

    For each order k with at least ``MIN_FACTOR * (k + 2)`` particles the
    proposal covariance is (2.38^2 / (k+1)) (S_k + eps I) with S_k the
    sample covariance of the (t, xi) blocks and the jitter
    eps = 1e-8 tr(S_k)/(k+1); orders with fewer particles use the
    identity.  Returns {k: lower Cholesky factor}.
    """
    scales = {}
    for kk, rows in rows_by_order(k).items():
        if len(rows) < MIN_FACTOR * (kk + 2):
            continue
        arr = np.column_stack((t[rows], xi[rows, :kk]))
        S = np.cov(arr, rowvar=False).reshape(kk + 1, kk + 1)
        eps = 1e-8 * float(np.trace(S)) / (kk + 1)
        cov = (RW_SCALE2 / (kk + 1)) * (S + eps * np.eye(kk + 1))
        try:
            scales[kk] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass  # degenerate sample: keep the identity fallback
    return scales


def run_mcmc(logliks_fn, prior, cfg, seed, scales=None):
    """Plain (non-tempered-sequence) MCMC baseline driver.

    Repeats ``cfg.steps`` cycles of one RW move followed by one birth/death
    move (none with ``cfg.fix_k`` set) at the fixed inverse temperature
    ``cfg.gamma``.  The chain starts from a prior draw seeded by ``seed`` and
    visits orders 0..prior.k_max.  ``logliks_fn(k, t, xi)`` scores arrays of
    one row, as in the kernels (never at gamma = 0).  The proposal covariance
    is cfg.tau * I for every order unless an explicit ``scales`` map is
    supplied.  Returns a dict with the traces of k, d, t thinned by
    ``cfg.thin``, the move statistics and the final state as a ThetaParams.
    """
    rng = np.random.default_rng(seed)
    if scales is None:
        scales = {k: math.sqrt(cfg.tau) * np.eye(k + 1) for k in range(prior.k_max + 1)}
    kcfg = KernelConfig(gamma=cfg.gamma, scales=scales)
    k, t, xi = sample_population(prior, rng, 1, fix_k=cfg.fix_k)
    ll = _log_liks(logliks_fn, k, t, xi) if cfg.gamma != 0.0 else np.zeros(1)
    pop = Population(k, t, xi, log_prior(k, t, xi, prior), ll)
    stats = MoveStats()
    ks, ts = [], []
    for step in range(cfg.steps):
        pop, _ = rw_metropolis_steps(pop, logliks_fn, prior, kcfg, rng, stats)
        if cfg.fix_k is None:
            pop, _ = birth_death_steps(pop, logliks_fn, prior, kcfg, rng, stats)
        if step % cfg.thin == 0:
            ks.append(int(pop.k[0]))
            ts.append(float(pop.t[0]))
    t_trace = np.array(ts)
    return {
        "k": np.array(ks, dtype=int),
        "d": memory_d(t_trace),
        "t": t_trace,
        "stats": stats,
        "final": pop.thetas()[0],
    }
