"""Per-particle reference of the move kernels and the samplers built on them.

These are the kernels as they ran before the population was carried as
arrays: every particle and every proposal is a ThetaParams, the log prior is
summed term by term in Python floats, each accept test is a scalar
log-space comparison and scale calibration groups the particles in a dict.
A half-step draws its randomness as the package's kernels do, in the array
layout of :mod:`fexpsmc.mcmc`, and the loop over particles reads row j of
those arrays for particle j.  :func:`run_smc` and :func:`run_mcmc` drive
them exactly as the package's samplers drive the array kernels, so the
package must reproduce their particles, likelihoods, schedules and rates
bit for bit.  The drivers take a per-theta ``loglik_fn``; :func:`per_row`
gives the package's samplers the same function in their population form.
"""

import math

import numpy as np

from fexpsmc.approx import approx_log_liks, prepare_dataset
from fexpsmc.config import NumericalError
from fexpsmc.mcmc import MIN_FACTOR, RW_SCALE2, InvalidStateError, KernelConfig, MoveStats
from fexpsmc.model import ThetaParams, sample_prior, to_arrays, to_thetas
from fexpsmc.smc import MAX_ITERS, ParticleSystem, ess, multinomial_resample, solve_next_gamma


def per_row(loglik_fn):
    """A per-theta log likelihood as ``logliks_fn(k, t, xi)``: one
    ``loglik_fn`` call per row of the population arrays."""
    return lambda k, t, xi: np.array([loglik_fn(th) for th in to_thetas(k, t, xi)])


def log_p_t(t):
    """log p(t) = log sigmoid(t) + log sigmoid(-t) of a t or an array of
    them, as the package writes it: -|t| - 2 log1p(exp(-|t|)) with numpy's
    exp and log1p."""
    a = np.abs(t)
    return -a - 2.0 * np.log1p(np.exp(-a))


def log_prior(theta, prior):
    """The prior density term by term, every constant recomputed per call."""
    if theta.k > prior.k_max:
        return -math.inf
    lp = math.log(prior.geom_p) + theta.k * math.log1p(-prior.geom_p)
    lp += log_p_t(theta.t)
    for j in range(1, theta.k + 1):
        v = prior.xi_var0 * float(j) ** (-2.0 * prior.beta)
        x = float(theta.xi[j - 1])
        lp += -0.5 * math.log(2.0 * math.pi * v) - 0.5 * x * x / v
    return lp


def _tempered(lp, ll, gamma):
    if lp == -math.inf:
        return -math.inf
    if gamma == 0.0:
        return lp  # 0 * (-inf) guard: flat likelihood contributes nothing
    return lp + gamma * ll


def _accept(log_r, u):
    """Log-space Metropolis test with the uniform ``u``."""
    if log_r >= 0.0:
        return True
    return bool(u < np.exp(log_r))


def _current(lps, lls, gamma):
    cur = [_tempered(lp, ll, gamma) for lp, ll in zip(lps, lls)]
    if -math.inf in cur:
        raise InvalidStateError("current state has zero target density")
    return cur


def _score(props, lls, logliks_fn, gamma, stats):
    if gamma == 0.0:
        return list(lls)
    if not props:
        return []
    scores = np.asarray(logliks_fn(props), dtype=float).tolist()
    stats.loglik_evals += len(scores)
    stats.loglik_minus_inf += scores.count(-math.inf)
    return scores


def rw_metropolis_steps(thetas, lps, lls, logliks_fn, prior, cfg, rng, stats):
    """Propose for every particle from row j of the normals, score the
    proposals inside the support in one call, then test each with row j of
    the uniforms."""
    cur = _current(lps, lls, cfg.gamma)
    out = list(thetas)
    lp_out = np.array(lps, dtype=float)
    ll_out = np.array(lls, dtype=float)
    accepted = np.zeros(len(out), dtype=bool)
    z = rng.standard_normal((len(thetas), max(th.k for th in thetas) + 1))
    u = rng.random(len(thetas))
    moves = []
    for j, th in enumerate(thetas):
        stats.rw_proposed += 1
        zj = z[j, :th.k + 1]
        L = cfg.scales.get(th.k)
        step = zj if L is None else L @ zj
        prop = ThetaParams(th.k, th.t + float(step[0]), th.xi + step[1:])
        lp_new = log_prior(prop, prior)
        if lp_new != -math.inf:
            moves.append((j, prop, lp_new))
    scores = _score([m[1] for m in moves], [lls[m[0]] for m in moves], logliks_fn,
                    cfg.gamma, stats)
    for (j, prop, lp_new), ll_new in zip(moves, scores):
        if _accept(_tempered(lp_new, ll_new, cfg.gamma) - cur[j], u[j]):
            stats.rw_accepted += 1
            out[j], lp_out[j], ll_out[j], accepted[j] = prop, lp_new, ll_new, True
    return out, lp_out, ll_out, accepted


def _rho_up(k, k_max):
    if k == 0:
        return 1.0
    if k >= k_max:
        return 0.0
    return 0.5


def birth_death_steps(thetas, lps, lls, logliks_fn, prior, cfg, rng, stats):
    """A birth or a death for every particle, in three passes as above, from
    row j of the choice uniforms, the born normals and the accept uniforms."""
    _current(lps, lls, cfg.gamma)
    out = list(thetas)
    lp_out = np.array(lps, dtype=float)
    ll_out = np.array(lls, dtype=float)
    accepted = np.zeros(len(out), dtype=bool)
    k_max = prior.k_max
    if k_max == 0:
        return out, lp_out, ll_out, accepted
    n = len(thetas)
    choice, z, u = rng.random(n), rng.standard_normal(n), rng.random(n)
    log_pk_ratio = math.log1p(-prior.geom_p)
    moves = []
    for j, th in enumerate(thetas):
        k = th.k
        up = _rho_up(k, k_max)
        if choice[j] < up:
            stats.birth_proposed += 1
            if k >= k_max:
                continue
            xi_new = math.sqrt(prior.xi_var(k + 1)) * z[j]
            prop = ThetaParams(k + 1, th.t, np.concatenate((th.xi, [xi_new])))
            log_r = math.log1p(-_rho_up(k + 1, k_max)) - math.log(up) + log_pk_ratio
            moves.append((j, prop, log_r, True))
        else:
            stats.death_proposed += 1
            if k == 0:
                continue
            prop = ThetaParams(k - 1, th.t, th.xi[:-1].copy())
            log_r = math.log(_rho_up(k - 1, k_max)) - math.log1p(-up) - log_pk_ratio
            moves.append((j, prop, log_r, False))
    scores = _score([m[1] for m in moves], [lls[m[0]] for m in moves], logliks_fn,
                    cfg.gamma, stats)
    for (j, prop, log_r, birth), ll_new in zip(moves, scores):
        if _accept(log_r + cfg.gamma * (ll_new - lls[j]), u[j]):
            if birth:
                stats.birth_accepted += 1
            else:
                stats.death_accepted += 1
            out[j], lp_out[j], ll_out[j], accepted[j] = prop, log_prior(prop, prior), ll_new, True
    return out, lp_out, ll_out, accepted


def calibrate_scales(thetas):
    """{k: Cholesky factor of (2.38^2/(k+1)) (S_k + eps I)} over the orders
    with at least MIN_FACTOR * (k + 2) particles."""
    groups = {}
    for th in thetas:
        groups.setdefault(th.k, []).append(np.concatenate(([th.t], th.xi)))
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
            pass
    return scales


def run_smc(x, prior, cfg, loglik_fn=None):
    """The adaptive-tempering sampler on the reference kernels."""
    if loglik_fn is None:
        ctx = prepare_dataset(x)
        logliks_fn = lambda ths: approx_log_liks(*to_arrays(ths), ctx, prior)
    else:
        logliks_fn = lambda ths: [loglik_fn(th) for th in ths]
    move_rng, resample_rng = [np.random.default_rng(s)
                              for s in np.random.SeedSequence(cfg.seed).spawn(2)]
    thetas = [sample_prior(prior, move_rng) for _ in range(cfg.N)]
    lp = np.array([log_prior(th, prior) for th in thetas])
    ll = np.asarray(logliks_fn(thetas), dtype=float)
    system = ParticleSystem(thetas=thetas, log_weights=np.full(cfg.N, -math.log(cfg.N)),
                            cached_loglik=ll)
    gamma = 0.0
    while gamma < 1.0:
        if len(system.gamma_schedule) >= MAX_ITERS:
            raise NumericalError("tempering schedule did not reach gamma = 1")
        gamma_new = solve_next_gamma(ll, gamma, cfg.c)
        inc = (gamma_new - gamma) * ll
        m = np.max(inc[np.isfinite(inc)])
        w = np.exp(inc - m, where=np.isfinite(inc), out=np.zeros_like(inc))
        wsum = w.sum()
        system.log_evidence += m + math.log(wsum / cfg.N)
        system.ess_trace.append(ess(inc))
        system.gamma_schedule.append(gamma_new)
        ancestors = multinomial_resample(w / wsum, cfg.N, resample_rng)
        system.distinct_after_resample.append(len(np.unique(ancestors)))
        thetas = [thetas[i] for i in ancestors]
        lp, ll = lp[ancestors], ll[ancestors]
        kcfg = KernelConfig(gamma=gamma_new, scales=calibrate_scales(thetas))
        stats = MoveStats()
        for _ in range(cfg.M):
            thetas, lp, ll, _ = rw_metropolis_steps(thetas, lp, ll, logliks_fn, prior, kcfg,
                                                    move_rng, stats)
            thetas, lp, ll, _ = birth_death_steps(thetas, lp, ll, logliks_fn, prior, kcfg,
                                                  move_rng, stats)
        system.rw_rates.append(stats.rw_rate())
        system.bd_rates.append(stats.bd_rate())
        system.loglik_evals.append(stats.loglik_evals)
        system.loglik_minus_inf.append(stats.loglik_minus_inf)
        gamma = gamma_new
    system.thetas, system.cached_loglik = thetas, ll
    return system


def run_mcmc(loglik_fn, prior, cfg, seed, scales=None):
    """The baseline chain on the reference kernels, a population of one."""
    rng = np.random.default_rng(seed)
    if scales is None:
        scales = {k: math.sqrt(cfg.tau) * np.eye(k + 1) for k in range(prior.k_max + 1)}
    kcfg = KernelConfig(gamma=cfg.gamma, scales=scales)
    theta = sample_prior(prior, rng, fix_k=cfg.fix_k)
    thetas = [theta]
    lps = [log_prior(theta, prior)]
    lls = [loglik_fn(theta) if cfg.gamma != 0.0 else 0.0]
    logliks_fn = lambda ths: [loglik_fn(th) for th in ths]
    stats = MoveStats()
    ks, ds, ts = [], [], []
    for step in range(cfg.steps):
        thetas, lps, lls, _ = rw_metropolis_steps(thetas, lps, lls, logliks_fn, prior, kcfg,
                                                  rng, stats)
        if cfg.fix_k is None:
            thetas, lps, lls, _ = birth_death_steps(thetas, lps, lls, logliks_fn, prior, kcfg,
                                                    rng, stats)
        if step % cfg.thin == 0:
            ks.append(thetas[0].k)
            ds.append(thetas[0].d)
            ts.append(thetas[0].t)
    return {"k": np.array(ks, dtype=int), "d": np.array(ds), "t": np.array(ts),
            "stats": stats, "final": thetas[0]}
