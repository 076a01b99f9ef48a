"""Move kernels: acceptance-ratio arithmetic, invariance, and calibration."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from fexpsmc.mcmc import (InvalidStateError, KernelConfig, MoveStats,
                          RW_SCALE2, birth_death_steps, calibrate_scales,
                          rw_metropolis_steps, run_mcmc)
from fexpsmc.model import PriorConfig, ThetaParams, log_prior, sample_prior

FLAT = lambda th: 0.0
FLATS = lambda thetas: [0.0] * len(thetas)


def _state(prior, theta):
    """A population of one: ([theta], [log prior], [log likelihood 0])."""
    return [theta], [log_prior(theta, prior)], [0.0]


# ---------------------------------------------------------------------------
# Random-walk kernel (on a population of one)
# ---------------------------------------------------------------------------

def test_rw_vanishing_proposal_always_accepts():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0, scales={1: 1e-12 * np.eye(2)})
    rng = np.random.default_rng(0)
    stats = MoveStats()
    ths, lps, lls = _state(prior, ThetaParams(k=1, t=0.3, xi=np.array([0.5])))
    accepted = 0
    for _ in range(300):
        ths, lps, lls, acc = rw_metropolis_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
        accepted += acc[0]
    assert accepted >= 299  # log_r is rounding-level noise
    assert stats.rw_proposed == 300


def test_rw_rejects_from_invalid_state():
    prior = PriorConfig(k_max=2)
    cfg = KernelConfig()
    rng = np.random.default_rng(1)
    th = ThetaParams(k=3, t=0.0, xi=np.zeros(3))  # beyond k_max: prior = 0
    with pytest.raises(InvalidStateError):
        rw_metropolis_steps([th], [-math.inf], [0.0], FLATS, prior, cfg, [rng], MoveStats())


def test_rw_never_evaluates_likelihood_at_gamma_zero():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(2)
    calls = []

    def logliks(thetas):
        calls.append(1)
        return [0.0] * len(thetas)

    ths, lps, lls = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
    for _ in range(50):
        ths, lps, lls, _ = rw_metropolis_steps(ths, lps, lls, logliks, prior, cfg, [rng],
                                               MoveStats())
    assert not calls


def test_rw_prior_chain_matches_logistic_marginal():
    # at gamma = 0 and fixed k = 0 the invariant law of t is Logistic(0, 1),
    # i.e. d = sigmoid(t)/2 is U[0, 1/2]; near-optimally scaled proposal
    prior = PriorConfig()
    scale = 2.38 * math.pi / math.sqrt(3.0)
    cfg = KernelConfig(gamma=0.0, scales={0: np.array([[scale]])})
    rng = np.random.default_rng(3)
    stats = MoveStats()
    ths, lps, lls = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
    ds = []
    for step in range(50_000):
        ths, lps, lls, _ = rw_metropolis_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
        if step % 5 == 0:
            ds.append(ths[0].d)
    stat, _ = kstest(np.array(ds), "uniform", args=(0.0, 0.5))
    assert stat < 0.03, f"KS = {stat}"
    assert 0.25 < stats.rw_rate() < 0.65


def test_rw_moves_all_coordinates():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0, scales={2: 0.5 * np.eye(3)})
    rng = np.random.default_rng(4)
    ths, lps, lls = _state(prior, ThetaParams(k=2, t=0.0, xi=np.zeros(2)))
    start = ths[0].as_vector().copy()
    for _ in range(200):
        ths, lps, lls, _ = rw_metropolis_steps(ths, lps, lls, FLATS, prior, cfg, [rng],
                                               MoveStats())
    assert np.all(np.abs(ths[0].as_vector() - start) > 0.0)
    assert ths[0].k == 2  # RW never changes the order


# ---------------------------------------------------------------------------
# Birth/death kernel (on a population of one)
# ---------------------------------------------------------------------------

def test_birth_from_k0_accepts_at_known_rate():
    # from k = 0 at gamma = 0: always proposes birth, accepted w.p.
    # (1 - rho_up(1)) / rho_up(0) * p(1)/p(0) = 0.5 * 0.8 = 0.4
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(5)
    trials, hits = 20_000, 0
    for _ in range(trials):
        ths, lps, lls = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
        stats = MoveStats()
        _, _, _, acc = birth_death_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
        assert stats.birth_proposed == 1 and stats.death_proposed == 0
        hits += acc[0]
    rate = hits / trials
    se = math.sqrt(0.4 * 0.6 / trials)
    assert abs(rate - 0.4) < 4.0 * se, f"rate = {rate}"


def test_death_from_k1_always_accepted_when_proposed():
    # death from k = 1 at gamma = 0 has ratio rho_up(0) / ((1 - rho_up(1)) * 0.8)
    # = 1 / 0.4 = 2.5 > 1: every proposed death is accepted
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(6)
    deaths = accepted = 0
    for _ in range(4000):
        ths, lps, lls = _state(prior, ThetaParams(k=1, t=0.0, xi=np.array([1.0])))
        stats = MoveStats()
        out, _, _, acc = birth_death_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
        if stats.death_proposed:
            deaths += 1
            accepted += acc[0]
            assert out[0].k == 0
    assert deaths > 1500  # proposed about half the time
    assert accepted == deaths


def test_birth_preserves_lower_block_and_death_undoes_it():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(7)
    th0 = ThetaParams(k=2, t=0.4, xi=np.array([0.3, -0.2]))
    lp0 = log_prior(th0, prior)
    # force a birth by looping until one is proposed and accepted
    for _ in range(500):
        th1, lp1, _, acc = birth_death_steps([th0], [lp0], [0.0], FLATS, prior, cfg,
                                             [rng], MoveStats())
        if acc[0] and th1[0].k == 3:
            break
    else:
        pytest.fail("no accepted birth in 500 tries")
    assert th1[0].t == th0.t
    assert np.array_equal(th1[0].xi[:2], th0.xi)
    # a death from th1 restores the original block exactly
    for _ in range(500):
        th2, _, _, acc = birth_death_steps(th1, lp1, [0.0], FLATS, prior, cfg,
                                           [rng], MoveStats())
        if acc[0] and th2[0].k == 2:
            break
    else:
        pytest.fail("no accepted death in 500 tries")
    assert th2[0].t == th0.t
    assert np.array_equal(th2[0].xi, th0.xi)


def test_birth_blocked_at_k_max():
    prior = PriorConfig(k_max=2)
    cfg = KernelConfig(gamma=0.0, k_max=2)
    rng = np.random.default_rng(8)
    ths, lps, lls = _state(prior, ThetaParams(k=2, t=0.0, xi=np.zeros(2)))
    for _ in range(200):
        out, _, _, _ = birth_death_steps(ths, lps, lls, FLATS, prior, cfg, [rng], MoveStats())
        assert out[0].k <= 2


def test_extreme_likelihood_ratios_do_not_overflow():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=1.0)
    rng = np.random.default_rng(9)
    wild = lambda thetas: [1e6 * (th.k - 1.0) - 1e6 * th.t**2 for th in thetas]
    ths = [ThetaParams(k=1, t=0.1, xi=np.array([0.2]))]
    lps, lls = [log_prior(ths[0], prior)], wild(ths)
    for _ in range(200):
        ths, lps, lls, _ = rw_metropolis_steps(ths, lps, lls, wild, prior, cfg, [rng],
                                               MoveStats())
        ths, lps, lls, _ = birth_death_steps(ths, lps, lls, wild, prior, cfg, [rng],
                                             MoveStats())
        assert math.isfinite(lps[0]) and math.isfinite(lls[0])


def test_move_stats_counters_are_consistent():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(10)
    stats = MoveStats()
    ths, lps, lls = _state(prior, sample_prior(prior, np.random.default_rng(0)))
    for _ in range(500):
        ths, lps, lls, _ = rw_metropolis_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
        ths, lps, lls, _ = birth_death_steps(ths, lps, lls, FLATS, prior, cfg, [rng], stats)
    assert stats.rw_proposed == 500
    assert stats.birth_proposed + stats.death_proposed == 500
    assert 0 <= stats.rw_accepted <= stats.rw_proposed
    assert stats.birth_accepted <= stats.birth_proposed
    assert stats.death_accepted <= stats.death_proposed
    assert 0.0 <= stats.bd_rate() <= 1.0


def test_move_stats_count_scored_proposals_and_minus_inf():
    # every proposal handed to the likelihood is counted, and those it
    # scores -inf separately; at gamma = 0 nothing is scored
    prior = PriorConfig()
    seen = []

    def logliks(thetas):
        seen.extend(thetas)
        return [-math.inf if th.t > 0.0 else 0.0 for th in thetas]

    rngs = [np.random.default_rng(40 + j) for j in range(8)]
    thetas = [sample_prior(prior, rng) for rng in rngs]
    lps, lls = [log_prior(th, prior) for th in thetas], [0.0] * 8
    for gamma in (0.0, 0.5):
        stats = MoveStats()
        cfg = KernelConfig(gamma=gamma)
        seen.clear()
        for _ in range(20):
            thetas, lps, lls, _ = rw_metropolis_steps(thetas, lps, lls, logliks, prior,
                                                      cfg, rngs, stats)
            thetas, lps, lls, _ = birth_death_steps(thetas, lps, lls, logliks, prior,
                                                    cfg, rngs, stats)
        assert stats.loglik_evals == len(seen)
        assert stats.loglik_minus_inf == sum(th.t > 0.0 for th in seen)
        assert (stats.loglik_evals > stats.loglik_minus_inf > 0) == (gamma > 0.0)


# ---------------------------------------------------------------------------
# Trans-dimensional invariance on a k-only target
# ---------------------------------------------------------------------------

def test_chain_occupancy_matches_k_only_posterior():
    # likelihood depending only on k: posterior mass over orders is
    # proportional to geom(k) * exp(c_k), computable exactly
    prior = PriorConfig(k_max=30)
    c = -0.4
    loglik = lambda th: c * th.k
    res = run_mcmc(loglik, prior, steps=60_000, gamma=1.0, thin=10, seed=11,
                   scales={k: np.eye(k + 1) for k in range(31)})
    ks = res["k"]
    logmass = np.array([k * math.log(0.8) + c * k for k in range(31)])
    mass = np.exp(logmass - logmass.max())
    mass /= mass.sum()
    for k in range(5):
        freq = float(np.mean(ks == k))
        se = math.sqrt(mass[k] * (1 - mass[k]) / ks.size)
        # thinned draws still carry some autocorrelation: allow 6 sigma
        assert abs(freq - mass[k]) < 6.0 * se + 0.01, (
            f"k={k}: freq {freq} vs mass {mass[k]}")


# ---------------------------------------------------------------------------
# Scale calibration
# ---------------------------------------------------------------------------

def test_calibrate_scales_recovers_population_covariance():
    rng = np.random.default_rng(12)
    sd = 2.0
    thetas = [ThetaParams(k=0, t=float(rng.normal(scale=sd)), xi=np.empty(0))
              for _ in range(4000)]
    scales = calibrate_scales(thetas)
    L = scales[0]
    want = math.sqrt(RW_SCALE2) * sd  # 2.38 * sd for the 1-d block
    assert abs(L[0, 0] - want) / want < 0.06


def test_calibrate_scales_skips_sparse_orders():
    rng = np.random.default_rng(13)
    thetas = [ThetaParams(k=0, t=float(rng.normal()), xi=np.empty(0))
              for _ in range(50)]
    thetas += [ThetaParams(k=3, t=0.1, xi=rng.normal(size=3))
               for _ in range(5)]  # fewer than 2 * (3 + 2) = 10
    scales = calibrate_scales(thetas)
    assert 0 in scales
    assert 3 not in scales


def test_calibrate_scales_handles_degenerate_population():
    thetas = [ThetaParams(k=0, t=1.0, xi=np.empty(0)) for _ in range(20)]
    scales = calibrate_scales(thetas)  # zero variance: either absent or finite
    if 0 in scales:
        assert np.all(np.isfinite(scales[0]))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def test_run_mcmc_thinning_and_shapes():
    prior = PriorConfig()
    res = run_mcmc(FLAT, prior, steps=10, gamma=0.0, thin=3, seed=0)
    assert res["k"].size == 4  # stored at steps 0, 3, 6, 9
    assert res["d"].size == 4 and res["t"].size == 4
    assert np.all((res["d"] >= 0.0) & (res["d"] <= 0.5))


def test_run_mcmc_fix_k_freezes_order():
    prior = PriorConfig()
    res = run_mcmc(FLAT, prior, steps=300, gamma=0.0, thin=1, seed=1, fix_k=2)
    assert np.all(res["k"] == 2)
    assert res["stats"].birth_proposed == 0
    assert res["stats"].death_proposed == 0


def test_run_mcmc_is_deterministic_in_the_seed():
    prior = PriorConfig()
    a = run_mcmc(FLAT, prior, steps=200, gamma=0.0, thin=1, seed=42)
    b = run_mcmc(FLAT, prior, steps=200, gamma=0.0, thin=1, seed=42)
    assert np.array_equal(a["t"], b["t"]) and np.array_equal(a["k"], b["k"])
