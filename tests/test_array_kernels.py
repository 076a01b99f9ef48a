"""The array-population kernels against the per-particle reference.

``particle_reference`` holds the kernels as one ThetaParams per particle and
proposal.  The samplers on the array kernels must reproduce its runs bit
for bit: the same array draws in the same order, read row by row, the same
particles, likelihoods, schedule, evidence and rates.
"""

import math

import numpy as np
import pytest

import particle_reference as ref
from fexpsmc import model
from fexpsmc.mcmc import McmcConfig, run_mcmc
from fexpsmc.model import PriorConfig
from fexpsmc.simulate import SimConfig, simulate_series
from fexpsmc.smc import SmcConfig, run_smc

X = simulate_series(SimConfig(kind="arfima", n=300, d=0.25, theta_ma=[-0.3, 0.2]),
                    np.random.default_rng(3))


def _pseudo_loglik(th):
    # a likelihood with a mode in t and shrinkage on the order and on xi
    return -2.0 * (th.t - 1.0) ** 2 - 0.3 * th.k - 0.5 * float(th.xi @ th.xi)


def _hex(values):
    return [float(v).hex() for v in values]


def _fingerprint(ps):
    return {
        "keys": [th.key() for th in ps.thetas],
        "cached_loglik": _hex(ps.cached_loglik),
        "gamma_schedule": _hex(ps.gamma_schedule),
        "ess_trace": _hex(ps.ess_trace),
        "log_evidence": float(ps.log_evidence).hex(),
        "rw_rates": _hex(ps.rw_rates),
        "bd_rates": _hex(ps.bd_rates),
        "loglik_evals": list(ps.loglik_evals),
        "loglik_minus_inf": list(ps.loglik_minus_inf),
        "distinct_after_resample": list(ps.distinct_after_resample),
    }


@pytest.mark.parametrize("loglik", ["approx", "user"])
@pytest.mark.parametrize("N, k_max, M, seed", [
    (2, 0, 3, 1),    # a single order: no birth/death move at all
    (2, 1, 3, 2),    # birth blocked at the cap from k = 1
    (6, 50, 4, 3),
    (16, 3, 3, 4),
    (64, 50, 2, 5),
])
def test_run_smc_reproduces_the_per_particle_reference(N, k_max, M, seed, loglik):
    prior = PriorConfig(k_max=k_max)
    cfg = SmcConfig(N=N, M=M, seed=seed)
    fn = None if loglik == "approx" else _pseudo_loglik
    logliks_fn = None if fn is None else ref.per_row(fn)
    got = _fingerprint(run_smc(X, prior, cfg, logliks_fn=logliks_fn))
    want = _fingerprint(ref.run_smc(X, prior, cfg, loglik_fn=fn))
    assert got == want
    assert max(k for k, _, _ in got["keys"]) <= k_max


@pytest.mark.parametrize("gamma, fix_k, k_max", [(1.0, None, 50), (0.0, None, 3), (1.0, 2, 50),
                                                 (1.0, None, 0)])
def test_run_mcmc_reproduces_the_per_particle_reference(gamma, fix_k, k_max):
    prior = PriorConfig(k_max=k_max)
    cfg = McmcConfig(steps=400, gamma=gamma, fix_k=fix_k, thin=3)
    got = run_mcmc(ref.per_row(_pseudo_loglik), prior, cfg, seed=9)
    want = ref.run_mcmc(_pseudo_loglik, prior, cfg, seed=9)
    for key in ("k", "d", "t"):
        assert got[key].tolist() == want[key].tolist()
    assert got["stats"] == want["stats"]
    assert got["final"].key() == want["final"].key()


def _count_thetas(monkeypatch):
    """A list that grows by one per ThetaParams built from now on."""
    built = []
    post_init = model.ThetaParams.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(model.ThetaParams, "__post_init__", counting)
    return built


@pytest.mark.parametrize("logliks_fn", [None, lambda k, t, xi: -2.0 * (t - 1.0) ** 2 - 0.3 * k],
                         ids=["approx", "user"])
def test_run_smc_builds_one_theta_per_final_particle(monkeypatch, logliks_fn):
    # the mutation never builds a ThetaParams, with the default likelihood
    # or a user one: only the N particles of the final population are
    built = _count_thetas(monkeypatch)
    cfg = SmcConfig(N=24, M=3, seed=6)
    ps = run_smc(X, PriorConfig(), cfg, logliks_fn=logliks_fn)
    assert len(built) == cfg.N == len(ps.thetas)
    assert sum(ps.loglik_evals) > 10 * cfg.N  # the mutation did run


def test_run_mcmc_builds_one_theta_for_the_final_state(monkeypatch):
    built = _count_thetas(monkeypatch)
    res = run_mcmc(lambda k, t, xi: -2.0 * (t - 1.0) ** 2, PriorConfig(),
                   McmcConfig(steps=200, gamma=1.0), seed=4)
    assert len(built) == 1
    assert res["stats"].loglik_evals >= 200  # the chain did score its proposals


def test_log_prior_rows_are_the_scalar_reference():
    # orders 0..13 at k_max = 11 (two rows beyond it; rows of 8 terms and
    # more, where a pairwise sum would round differently), padded wider
    # than the largest order, and non-finite coordinates outside the support
    prior = PriorConfig(k_max=11, geom_p=0.3, xi_var0=7.0, beta=0.8)
    rng = np.random.default_rng(4)
    thetas = [model.ThetaParams(k, float(rng.normal(scale=5.0)), rng.normal(scale=3.0, size=k))
              for k in (0, 1, 2, 3, 4, 12, 13, 2, 0, 7, 8, 9, 10, 11, 11, 10)]
    k, t, xi = model.to_arrays(thetas)
    xi = np.concatenate((xi, np.zeros((k.size, 2))), axis=1)
    got = model.log_prior(k, t, xi, prior)
    assert _hex(got) == _hex(ref.log_prior(th, prior) for th in thetas)
    assert got[5] == got[6] == -math.inf
    t[7], xi[8, 0] = math.inf, 0.0
    xi[1, 0], t[2] = math.nan, math.nan
    bad = model.log_prior(k, t, xi, prior)
    assert bad[[1, 2, 7]].tolist() == [-math.inf] * 3
    assert bad[8] == got[8]
