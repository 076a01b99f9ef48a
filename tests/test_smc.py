"""Adaptive-tempering SMC: schedule solver, resampling, and evidence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.optimize import brentq

from fexpsmc.approx import prepare_dataset
from fexpsmc.config import NumericalError
from fexpsmc.model import PriorConfig, sample_prior, to_arrays
from fexpsmc.simulate import SimConfig, simulate_series
from fexpsmc import smc
from fexpsmc.smc import (GAMMA_TOL, ParticleSystem, SmcConfig, ess, multinomial_resample,
                         run_smc, solve_next_gamma)
from dense_reference import approx_single
from particle_reference import per_row


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------

def test_ess_uniform_weights():
    assert abs(ess(np.zeros(50)) - 50.0) < 1e-12
    assert abs(ess(np.full(50, -123.4)) - 50.0) < 1e-10  # shift-invariant


def test_ess_single_dominant_weight():
    lw = np.full(20, -1000.0)
    lw[3] = 0.0
    assert abs(ess(lw) - 1.0) < 1e-8


def test_ess_half_zero_weights():
    lw = np.concatenate([np.zeros(10), np.full(10, -np.inf)])
    assert abs(ess(lw) - 10.0) < 1e-12


def test_ess_two_particle_closed_form():
    for w in (0.5, 0.7, 0.99):
        lw = np.log(np.array([w, 1.0 - w]))
        want = 1.0 / (w**2 + (1.0 - w) ** 2)
        assert abs(ess(lw) - want) < 1e-12


def test_ess_rejects_all_zero():
    with pytest.raises(NumericalError, match="all weights are zero"):
        ess(np.full(4, -np.inf))


def test_solve_next_gamma_with_no_finite_loglik_is_a_numerical_error():
    with pytest.raises(NumericalError, match="only 0 of 4 particles"):
        solve_next_gamma(np.full(4, -np.inf), 0.0, 0.5)


# log weights with at least one finite entry; -inf is a zero weight
_LOG_WEIGHTS = arrays(
    float, st.integers(1, 40),
    elements=st.one_of(st.floats(-1e6, 1e6), st.just(-math.inf)),
).filter(lambda lw: np.isfinite(lw).any())


@given(_LOG_WEIGHTS)
def test_ess_lies_between_one_and_n(lw):
    e = ess(lw)
    assert 1.0 - 1e-12 <= e <= lw.size * (1.0 + 1e-12)


@given(_LOG_WEIGHTS, st.integers(0, 39), st.sampled_from([math.nan, math.inf]))
def test_ess_and_gamma_solve_reject_nan_and_plus_inf(lw, pos, bad):
    lw[pos % lw.size] = bad
    with pytest.raises(NumericalError):
        ess(lw)
    with pytest.raises(NumericalError):
        solve_next_gamma(lw, 0.0, 0.5)


# ---------------------------------------------------------------------------
# Adaptive schedule
# ---------------------------------------------------------------------------

def test_schedule_finishes_on_constant_loglik():
    assert solve_next_gamma(np.full(100, -3.7), 0.0, 0.5) == 1.0
    assert solve_next_gamma(np.full(100, -3.7), 0.6, 0.5) == 1.0


def test_schedule_two_particle_closed_form():
    # loglik = (0, L): ESS(alpha) = (1+u)^2/(1+u^2) with u = e^{-alpha L};
    # solving (1+u)^2/(1+u^2) = 2c gives u = (sqrt(1-(1-2c)^2) - 1)/(1-2c)
    L, c = 8.0, 0.75
    u = (math.sqrt(1.0 - (1.0 - 2.0 * c) ** 2) - 1.0) / (1.0 - 2.0 * c)
    want = -math.log(u) / L
    got = solve_next_gamma(np.array([0.0, L]), 0.0, c)
    assert abs(got - want) < 1e-9


def test_schedule_step_shrinks_with_likelihood_spread():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(500)
    small = solve_next_gamma(2.0 * base, 0.0, 0.5)
    large = solve_next_gamma(20.0 * base, 0.0, 0.5)
    assert large < small


def test_schedule_caps_at_one():
    rng = np.random.default_rng(1)
    ll = 0.1 * rng.standard_normal(200)
    got = solve_next_gamma(ll, 0.95, 0.5)
    assert got == 1.0


def test_schedule_hits_ess_target():
    rng = np.random.default_rng(2)
    ll = 4.0 * rng.standard_normal(400)
    c = 0.5
    gamma1 = solve_next_gamma(ll, 0.0, c)
    assert 0.0 < gamma1 < 1.0
    assert abs(ess(gamma1 * ll) - c * 400) < 1e-5


def test_schedule_keeps_minus_inf_at_zero_weight():
    # 0 * (-inf) at the bracket end alpha = 0 must not turn into a NaN
    ll = np.array([0.0, -1.0, -2.0, -3.0, -math.inf])
    gamma1 = solve_next_gamma(ll, 0.0, 0.7)
    assert 0.0 < gamma1 < 1.0
    assert abs(ess(gamma1 * ll) - 0.7 * 5) < 1e-6


@pytest.mark.parametrize("n_minus_inf", [2, 3], ids=["live_at_target", "live_below_target"])
def test_schedule_refuses_too_few_finite_logliks(n_minus_inf):
    # the ESS tends to the live count L as alpha -> 0: with L = c * N the
    # root is alpha = 0 (a 0 * -inf weight), with L < c * N there is none
    ll = np.concatenate([[0.0, 1.0], np.full(n_minus_inf, -math.inf)])
    with pytest.raises(NumericalError, match=f"only 2 of {ll.size} particles"):
        solve_next_gamma(ll, 0.0, 0.5)


def test_schedule_validates_gamma():
    with pytest.raises(ValueError):
        solve_next_gamma(np.zeros(10), 1.0, 0.5)
    with pytest.raises(ValueError):
        solve_next_gamma(np.zeros(10), -0.1, 0.5)


@settings(max_examples=300)  # about a quarter of the draws have a root to solve for
@given(arrays(float, st.integers(2, 80),
              elements=st.one_of(st.floats(-1e4, 1e4), st.just(-math.inf))),
       st.floats(0.05, 0.95), st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_bisection_keeps_the_ess_target_and_meets_scipy_brentq(ll, c, gamma):
    live = ~np.isneginf(ll)
    target = c * ll.size

    def gap(alpha):
        return ess(np.multiply(alpha, ll, where=live, out=np.full_like(ll, -math.inf))) - target

    if live.sum() <= target or gap(1.0 - gamma) >= 0.0:
        return  # no root to solve for: the schedule raises or finishes at 1
    got = solve_next_gamma(ll, gamma, c)
    assert abs(got - (gamma + brentq(gap, 0.0, 1.0 - gamma, xtol=GAMMA_TOL))) <= 2 * GAMMA_TOL
    alpha = got - gamma
    # the bracket's lower end keeps the ESS at or above the target; a root
    # below GAMMA_TOL gives the upper end instead of a zero step
    assert gap(alpha) >= 0.0 or 0.0 < alpha <= GAMMA_TOL


def test_root_below_the_tolerance_is_a_nonzero_step():
    # the root is near 1e-12: bisection's lower end stays at 0, and a zero
    # step would turn a -inf log likelihood into a 0 * (-inf) = NaN weight
    got = solve_next_gamma(np.array([0.0, -1e12]), 0.0, 0.6)
    assert 0.0 < got <= GAMMA_TOL


def test_run_with_minus_inf_at_a_root_below_the_tolerance_finishes():
    logliks = lambda k, t, xi: np.array([0.0, -1e12, -math.inf])  # M = 0: one call, N = 3 rows
    ps = run_smc(None, PriorConfig(), SmcConfig(N=3, M=0, c=0.6, seed=0), logliks_fn=logliks)
    assert 0.0 < ps.gamma_schedule[0] <= GAMMA_TOL
    assert ps.gamma_schedule[-1] == 1.0


@given(_LOG_WEIGHTS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_ess_is_non_increasing_in_the_tempering_exponent(lw, a, b):
    a, b = min(a, b), max(a, b)
    live = ~np.isneginf(lw)

    def ess_at(alpha):
        return ess(np.multiply(alpha, lw, where=live, out=np.full_like(lw, -math.inf)))

    assert ess_at(a) >= ess_at(b) * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def test_multinomial_resample_frequencies():
    w = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(3)
    idx = multinomial_resample(w, 100_000, rng)
    for i, p in enumerate(w):
        freq = float(np.mean(idx == i))
        se = math.sqrt(p * (1 - p) / idx.size)
        assert abs(freq - p) < 4.0 * se, f"i={i}"


def test_multinomial_resample_output_sorted_and_sized():
    rng = np.random.default_rng(4)
    idx = multinomial_resample(np.full(10, 0.1), 37, rng)
    assert idx.size == 37
    assert np.all(np.diff(idx) >= 0)
    assert idx.min() >= 0 and idx.max() < 10


def test_multinomial_resample_validates_weights():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        multinomial_resample(np.array([0.5, 0.2]), 10, rng)  # does not sum to 1
    with pytest.raises(ValueError):
        multinomial_resample(np.array([1.5, -0.5]), 10, rng)


# ---------------------------------------------------------------------------
# Full sampler on analytic pseudo-likelihoods
# ---------------------------------------------------------------------------

def _logistic_density(t):
    s = 1.0 / (1.0 + math.exp(-t))
    return s * (1.0 - s)


def test_smc_matches_quadrature_posterior_mean():
    # cap k at 0 and weight by a Gaussian bump in t: the target is
    # logistic(t) * exp(-2 (t - 1)^2), integrable by quadrature
    prior = PriorConfig(k_max=0)
    logliks = lambda k, t, xi: -2.0 * (t - 1.0) ** 2
    cfg = SmcConfig(N=3000, M=8, seed=6)
    ps = run_smc(None, prior, cfg, logliks_fn=logliks)

    dens = lambda t: _logistic_density(t) * math.exp(-2.0 * (t - 1.0) ** 2)
    z, _ = quad(dens, -30, 30)
    mean_t, _ = quad(lambda t: t * dens(t), -30, 30)
    mean_t /= z
    var_t, _ = quad(lambda t: (t - mean_t) ** 2 * dens(t), -30, 30)
    var_t /= z

    got = np.mean([th.t for th in ps.thetas])
    # resampling correlates particles; allow a conservative effective size
    se = math.sqrt(var_t / (cfg.N / 10.0))
    assert abs(got - mean_t) < 5.0 * se, f"{got} vs {mean_t}"
    assert all(th.k == 0 for th in ps.thetas)


def test_smc_evidence_unbiased_on_tractable_target():
    # Z = E_prior[e^{ll}] by quadrature; the SMC estimator of Z is unbiased
    # in the linear domain, so the replicate mean of Z_hat/Z should sit
    # within a few standard errors of 1
    prior = PriorConfig(k_max=0)
    logliks = lambda k, t, xi: -0.5 * (t + 0.5) ** 2
    dens = lambda t: _logistic_density(t) * math.exp(-0.5 * (t + 0.5) ** 2)
    z_true, _ = quad(dens, -30, 30)

    ratios = []
    for seed in range(40):
        cfg = SmcConfig(N=400, M=3, seed=seed)
        ps = run_smc(None, prior, cfg, logliks_fn=logliks)
        ratios.append(math.exp(ps.log_evidence) / z_true)
    ratios = np.array(ratios)
    se = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) < 3.5 * se + 0.01, (
        f"mean ratio {ratios.mean()} +- {se}")


def test_smc_trace_bookkeeping():
    prior = PriorConfig()
    logliks = lambda k, t, xi: -1.0 * (t - 0.3) ** 2 - 0.2 * k
    cfg = SmcConfig(N=200, M=2, seed=7)
    ps = run_smc(None, prior, cfg, logliks_fn=logliks)
    iters = len(ps.gamma_schedule)
    assert iters >= 1
    assert ps.gamma_schedule[-1] == 1.0
    assert np.all(np.diff([0.0] + list(ps.gamma_schedule)) > 0.0)
    assert len(ps.ess_trace) == iters
    assert len(ps.rw_rates) == iters
    assert len(ps.bd_rates) == iters
    # interior steps hit the ESS target c * N
    for e in ps.ess_trace[:-1]:
        assert abs(e - cfg.c * cfg.N) < 1e-3
    # final population is equally weighted
    assert np.allclose(ps.log_weights, -math.log(cfg.N))


def test_smc_reports_no_birth_death_rate_at_k_max_zero():
    # a single model order has no birth/death move, so no rate to report
    ps = run_smc(None, PriorConfig(k_max=0), SmcConfig(N=50, M=2, seed=1),
                 logliks_fn=lambda k, t, xi: -(t - 1.0) ** 2)
    assert ps.bd_rates and all(math.isnan(r) for r in ps.bd_rates)
    assert all(0.0 <= r <= 1.0 for r in ps.rw_rates)


def test_smc_stuck_tempering_schedule_is_a_numerical_error(monkeypatch):
    # a sharp likelihood needs more than one tempering step, and one is all
    # the cap allows
    monkeypatch.setattr(smc, "MAX_ITERS", 1)
    with pytest.raises(NumericalError, match="did not reach gamma = 1 in 1 iterations"):
        run_smc(None, PriorConfig(k_max=0), SmcConfig(N=50, M=0, seed=1),
                logliks_fn=lambda k, t, xi: -50.0 * (t - 1.0) ** 2)


def test_smc_is_deterministic_in_the_seed():
    prior = PriorConfig()
    logliks = lambda k, t, xi: -0.5 * t**2
    a = run_smc(None, prior, SmcConfig(N=100, M=2, seed=11), logliks_fn=logliks)
    b = run_smc(None, prior, SmcConfig(N=100, M=2, seed=11), logliks_fn=logliks)
    c = run_smc(None, prior, SmcConfig(N=100, M=2, seed=12), logliks_fn=logliks)
    assert a.log_evidence == b.log_evidence
    assert all(x.key() == y.key() for x, y in zip(a.thetas, b.thetas))
    assert a.log_evidence != c.log_evidence


def test_smc_with_m_zero_matches_mirror_implementation():
    # with no move steps the sampler is exactly reweight/resample on prior
    # draws; replicate it line by line with the same stream layout
    prior = PriorConfig()
    logliks = lambda k, t, xi: 0.3 * k
    N, c, seed = 150, 0.5, 13
    ps = run_smc(None, prior, SmcConfig(N=N, M=0, c=c, seed=seed), logliks_fn=logliks)

    move_rng, resample_rng = [np.random.default_rng(s)
                              for s in np.random.SeedSequence(seed).spawn(2)]
    thetas = [sample_prior(prior, move_rng) for _ in range(N)]
    ll = logliks(*to_arrays(thetas))
    gamma, log_z = 0.0, 0.0
    while gamma < 1.0:
        gamma_new = solve_next_gamma(ll, gamma, c)
        inc = (gamma_new - gamma) * ll
        m = inc.max()
        w = np.exp(inc - m)
        log_z += m + math.log(w.sum() / N)
        ancestors = multinomial_resample(w / w.sum(), N, resample_rng)
        thetas = [thetas[i].copy() for i in ancestors]
        ll = ll[ancestors].copy()
        gamma = gamma_new

    assert abs(ps.log_evidence - log_z) < 1e-12
    assert [th.k for th in ps.thetas] == [th.k for th in thetas]
    assert all(a.key() == b.key() for a, b in zip(ps.thetas, thetas))


@pytest.mark.parametrize("N", [2, 6, 64])
@pytest.mark.parametrize("k_max", [50, 2])
def test_batched_likelihood_matches_scalar_likelihood(N, k_max):
    # lockstep mutation scores each half-step with one batched call; the same
    # run with the scalar evaluator called theta by theta must agree
    prior = PriorConfig(k_max=k_max)
    x = simulate_series(SimConfig(kind="arfima", n=300, d=0.25, theta_ma=[-0.3, 0.2]),
                        np.random.default_rng(N))
    ctx = prepare_dataset(x)
    cfg = SmcConfig(N=N, M=3, seed=20 + N)
    batched = run_smc(x, prior, cfg)
    scalar = run_smc(None, prior, cfg,
                     logliks_fn=per_row(lambda th: approx_single(th, ctx, prior)))
    assert [th.key() for th in batched.thetas] == [th.key() for th in scalar.thetas]
    assert batched.gamma_schedule == scalar.gamma_schedule
    assert np.allclose(batched.cached_loglik, scalar.cached_loglik, rtol=1e-12, atol=0.0)


def test_prior_k_max_caps_every_particle_on_data():
    # the prior's k_max is the one cap on the model order: on data every
    # particle stays at k <= 2, and the cap is reached
    prior = PriorConfig(k_max=2)
    x = simulate_series(SimConfig(kind="arfima", n=200, d=0.2, theta_ma=[0.8]),
                        np.random.default_rng(30))
    ps = run_smc(x, prior, SmcConfig(N=50, M=2, seed=31))
    ks = [th.k for th in ps.thetas]
    assert max(ks) == 2
    with pytest.raises(TypeError):  # no second, lower cap can be set
        SmcConfig(k_max=1)
    with pytest.raises(TypeError):  # nor a frozen order
        SmcConfig(fix_k=1)


def test_smc_requires_data_or_likelihood():
    with pytest.raises(ValueError):
        run_smc(None, PriorConfig(), SmcConfig(N=10))


def test_smc_rejects_a_likelihood_without_one_value_per_row():
    # a scalar would otherwise broadcast into every particle's log likelihood
    with pytest.raises(ValueError, match="not one value per row"):
        run_smc(None, PriorConfig(), SmcConfig(N=10), logliks_fn=lambda k, t, xi: -1.0)


def test_smc_config_validation():
    with pytest.raises(ValueError):
        SmcConfig(N=1)
    with pytest.raises(ValueError):
        SmcConfig(c=1.5)
    with pytest.raises(ValueError):
        SmcConfig(M=-1)
