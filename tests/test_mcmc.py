"""Move kernels: acceptance-ratio arithmetic, invariance, and calibration."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from fexpsmc.config import NumericalError
from fexpsmc.mcmc import (InvalidStateError, KernelConfig, McmcConfig, MoveStats,
                          Population, RW_SCALE2, birth_death_steps, calibrate_scales,
                          rw_metropolis_steps, run_mcmc)
from fexpsmc.model import PriorConfig, ThetaParams, log_prior, sample_prior, to_arrays

FLATS = lambda k, t, xi: np.zeros(k.size)


def _population(prior, thetas, lls):
    """The thetas as a Population, with their log priors and log likelihoods ``lls``."""
    k, t, xi = to_arrays(thetas)
    return Population(k, t, xi, log_prior(k, t, xi, prior), np.asarray(lls, dtype=float))


def _state(prior, theta):
    """A population of one, with log likelihood 0."""
    return _population(prior, [theta], [0.0])


# ---------------------------------------------------------------------------
# Random-walk kernel (on a population of one)
# ---------------------------------------------------------------------------

def test_rw_vanishing_proposal_always_accepts():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0, scales={1: 1e-12 * np.eye(2)})
    rng = np.random.default_rng(0)
    stats = MoveStats()
    pop = _state(prior, ThetaParams(k=1, t=0.3, xi=np.array([0.5])))
    accepted = 0
    for _ in range(300):
        pop, acc = rw_metropolis_steps(pop, FLATS, prior, cfg, rng, stats)
        accepted += acc[0]
    assert accepted >= 299  # log_r is rounding-level noise
    assert stats.rw_proposed == 300


def test_rw_rejects_from_invalid_state():
    prior = PriorConfig(k_max=2)
    cfg = KernelConfig()
    rng = np.random.default_rng(1)
    th = ThetaParams(k=3, t=0.0, xi=np.zeros(3))  # beyond k_max: prior = 0
    pop = _state(prior, th)
    assert pop.lp[0] == -math.inf
    with pytest.raises(InvalidStateError):
        rw_metropolis_steps(pop, FLATS, prior, cfg, rng, MoveStats())
    assert issubclass(InvalidStateError, NumericalError)  # a CLI exit 4, not a traceback


def test_rw_never_evaluates_likelihood_at_gamma_zero():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(2)
    calls = []

    def logliks(k, t, xi):
        calls.append(1)
        return np.zeros(k.size)

    pop = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
    for _ in range(50):
        pop, _ = rw_metropolis_steps(pop, logliks, prior, cfg, rng, MoveStats())
    assert not calls


def test_rw_prior_chain_matches_logistic_marginal():
    # at gamma = 0 and fixed k = 0 the invariant law of t is Logistic(0, 1),
    # i.e. d = sigmoid(t)/2 is U[0, 1/2]; near-optimally scaled proposal
    prior = PriorConfig()
    scale = 2.38 * math.pi / math.sqrt(3.0)
    cfg = KernelConfig(gamma=0.0, scales={0: np.array([[scale]])})
    rng = np.random.default_rng(3)
    stats = MoveStats()
    pop = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
    ds = []
    for step in range(50_000):
        pop, _ = rw_metropolis_steps(pop, FLATS, prior, cfg, rng, stats)
        if step % 5 == 0:
            ds.append(pop.thetas()[0].d)
    stat, _ = kstest(np.array(ds), "uniform", args=(0.0, 0.5))
    assert stat < 0.03, f"KS = {stat}"
    assert 0.25 < stats.rw_rate() < 0.65


def test_rw_moves_all_coordinates():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0, scales={2: 0.5 * np.eye(3)})
    rng = np.random.default_rng(4)
    pop = _state(prior, ThetaParams(k=2, t=0.0, xi=np.zeros(2)))
    block = lambda pop: np.concatenate((pop.t, pop.xi[0]))  # (t, xi_1, xi_2)
    start = block(pop)
    for _ in range(200):
        pop, _ = rw_metropolis_steps(pop, FLATS, prior, cfg, rng, MoveStats())
    assert np.all(np.abs(block(pop) - start) > 0.0)
    assert pop.k[0] == 2  # RW never changes the order


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
        pop = _state(prior, ThetaParams(k=0, t=0.0, xi=np.empty(0)))
        stats = MoveStats()
        _, acc = birth_death_steps(pop, FLATS, prior, cfg, rng, stats)
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
        pop = _state(prior, ThetaParams(k=1, t=0.0, xi=np.array([1.0])))
        stats = MoveStats()
        out, acc = birth_death_steps(pop, FLATS, prior, cfg, rng, stats)
        if stats.death_proposed:
            deaths += 1
            accepted += acc[0]
            assert out.k[0] == 0
    assert deaths > 1500  # proposed about half the time
    assert accepted == deaths


def test_birth_preserves_lower_block_and_death_undoes_it():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(7)
    th0 = ThetaParams(k=2, t=0.4, xi=np.array([0.3, -0.2]))
    pop0 = _state(prior, th0)
    # force a birth by looping until one is proposed and accepted
    for _ in range(500):
        pop1, acc = birth_death_steps(pop0, FLATS, prior, cfg, rng, MoveStats())
        th1 = pop1.thetas()
        if acc[0] and th1[0].k == 3:
            break
    else:
        pytest.fail("no accepted birth in 500 tries")
    assert th1[0].t == th0.t
    assert np.array_equal(th1[0].xi[:2], th0.xi)
    # a death from th1 restores the original block exactly
    for _ in range(500):
        pop2, acc = birth_death_steps(pop1, FLATS, prior, cfg, rng, MoveStats())
        th2 = pop2.thetas()
        if acc[0] and th2[0].k == 2:
            break
    else:
        pytest.fail("no accepted death in 500 tries")
    assert th2[0].t == th0.t
    assert np.array_equal(th2[0].xi, th0.xi)


def test_birth_blocked_at_k_max():
    prior = PriorConfig(k_max=2)
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(8)
    pop = _state(prior, ThetaParams(k=2, t=0.0, xi=np.zeros(2)))
    for _ in range(200):
        out, _ = birth_death_steps(pop, FLATS, prior, cfg, rng, MoveStats())
        assert out.k[0] <= 2


def test_no_birth_death_move_at_k_max_zero():
    # a single order: the half-step proposes, draws and counts nothing
    prior = PriorConfig(k_max=0)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    pop = _state(prior, ThetaParams(k=0, t=0.3, xi=np.empty(0)))
    stats = MoveStats()
    out, acc = birth_death_steps(pop, FLATS, prior, KernelConfig(gamma=1.0), rng, stats)
    assert out is pop and not acc[0]
    assert rng.bit_generator.state == before
    assert stats == MoveStats() and math.isnan(stats.bd_rate())


def test_extreme_likelihood_ratios_do_not_overflow():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=1.0)
    rng = np.random.default_rng(9)
    wild = lambda k, t, xi: 1e6 * (k - 1.0) - 1e6 * t**2
    pop = _state(prior, ThetaParams(k=1, t=0.1, xi=np.array([0.2])))
    pop = _population(prior, pop.thetas(), wild(pop.k, pop.t, pop.xi))
    for _ in range(200):
        pop, _ = rw_metropolis_steps(pop, wild, prior, cfg, rng, MoveStats())
        pop, _ = birth_death_steps(pop, wild, prior, cfg, rng, MoveStats())
        assert math.isfinite(pop.lp[0]) and math.isfinite(pop.ll[0])


class _Recorder:
    """A generator that logs each draw's method and size; with
    ``zero_uniforms`` its uniforms are all exactly 0.0, a value ``random()``
    can return."""

    def __init__(self, seed, zero_uniforms=False):
        self._rng = np.random.default_rng(seed)
        self.zero_uniforms = zero_uniforms
        self.calls = []

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        return self._rng.standard_normal(size)

    def random(self, size=None):
        self.calls.append(("random", size))
        return np.zeros(size) if self.zero_uniforms else self._rng.random(size)


@pytest.mark.parametrize("n", [3, 40])
def test_a_half_step_draws_its_randomness_as_arrays_of_n_rows(n):
    # the documented layout, whatever N: no draw is made per particle
    prior = PriorConfig()
    rng = np.random.default_rng(21)
    pop = _population(prior, [sample_prior(prior, rng) for _ in range(n)], [0.0] * n)
    cfg, rec = KernelConfig(gamma=0.5), _Recorder(22)
    rw_metropolis_steps(pop, FLATS, prior, cfg, rec, MoveStats())
    assert rec.calls == [("standard_normal", (n, int(pop.k.max()) + 1)), ("random", n)]
    rec.calls.clear()
    birth_death_steps(pop, FLATS, prior, cfg, rec, MoveStats())
    assert rec.calls == [("random", n), ("standard_normal", n), ("random", n)]


@pytest.mark.parametrize("kernel", ["rw", "bd"])
def test_accept_tests_at_a_zero_uniform(kernel):
    # log r of the rows, with the current log likelihoods 0 at gamma = 1:
    # NaN, +inf, -inf, then >= 0 (RW: exactly 0, from a zero step that
    # leaves the prior unchanged; a birth from k = 1: log 0.8 + 0.25 > 0),
    # then finite and large; at u = 0 nothing may take log 0 or warn
    prior = PriorConfig()
    scores = np.array([math.nan, math.inf, -math.inf, 0.25 if kernel == "bd" else 0.0, 30.0])
    n = scores.size
    pop = _population(prior, [ThetaParams(k=1, t=0.3, xi=np.array([0.5]))] * n, [0.0] * n)
    cfg = KernelConfig(gamma=1.0, scales={1: np.zeros((2, 2))})
    step = rw_metropolis_steps if kernel == "rw" else birth_death_steps
    rng, stats = _Recorder(15, zero_uniforms=True), MoveStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, acc = step(pop, lambda k, t, xi: scores[:k.size].copy(), prior, cfg, rng, stats)
    assert stats.loglik_evals == n
    if kernel == "bd":  # a zero uniform is below rho(1 -> 2) = 1/2: every row proposes a birth
        assert stats.birth_proposed == n
    assert acc.tolist() == [False, True, False, True, True]
    assert out.ll.tolist() == [0.0, math.inf, 0.0, scores[3], 30.0]


def test_move_stats_counters_are_consistent():
    prior = PriorConfig()
    cfg = KernelConfig(gamma=0.0)
    rng = np.random.default_rng(10)
    stats = MoveStats()
    pop = _state(prior, sample_prior(prior, np.random.default_rng(0)))
    for _ in range(500):
        pop, _ = rw_metropolis_steps(pop, FLATS, prior, cfg, rng, stats)
        pop, _ = birth_death_steps(pop, FLATS, prior, cfg, rng, stats)
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

    def logliks(k, t, xi):
        seen.extend(t.tolist())
        return np.where(t > 0.0, -math.inf, 0.0)

    rng = np.random.default_rng(40)
    pop = _population(prior, [sample_prior(prior, rng) for _ in range(8)], [0.0] * 8)
    for gamma in (0.0, 0.5):
        stats = MoveStats()
        cfg = KernelConfig(gamma=gamma)
        seen.clear()
        for _ in range(20):
            pop, _ = rw_metropolis_steps(pop, logliks, prior, cfg, rng, stats)
            pop, _ = birth_death_steps(pop, logliks, prior, cfg, rng, stats)
        assert stats.loglik_evals == len(seen)
        assert stats.loglik_minus_inf == sum(t > 0.0 for t in seen)
        assert (stats.loglik_evals > stats.loglik_minus_inf > 0) == (gamma > 0.0)


# ---------------------------------------------------------------------------
# Trans-dimensional invariance on a k-only target
# ---------------------------------------------------------------------------

def test_chain_occupancy_matches_k_only_posterior():
    # likelihood depending only on k: posterior mass over orders is
    # proportional to geom(k) * exp(c_k), computable exactly
    prior = PriorConfig(k_max=30)
    c = -0.4
    logliks = lambda k, t, xi: c * k
    res = run_mcmc(logliks, prior, McmcConfig(steps=60_000, gamma=1.0, thin=10), seed=11,
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
    scales = calibrate_scales(*to_arrays(thetas))
    L = scales[0]
    want = math.sqrt(RW_SCALE2) * sd  # 2.38 * sd for the 1-d block
    assert abs(L[0, 0] - want) / want < 0.06


def test_calibrate_scales_skips_sparse_orders():
    rng = np.random.default_rng(13)
    thetas = [ThetaParams(k=0, t=float(rng.normal()), xi=np.empty(0))
              for _ in range(50)]
    thetas += [ThetaParams(k=3, t=0.1, xi=rng.normal(size=3))
               for _ in range(5)]  # fewer than 2 * (3 + 2) = 10
    scales = calibrate_scales(*to_arrays(thetas))
    assert 0 in scales
    assert 3 not in scales


def test_calibrate_scales_handles_degenerate_population():
    thetas = [ThetaParams(k=0, t=1.0, xi=np.empty(0)) for _ in range(20)]
    scales = calibrate_scales(*to_arrays(thetas))  # zero variance: either absent or finite
    if 0 in scales:
        assert np.all(np.isfinite(scales[0]))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [lambda k, t, xi: 0.0, lambda k, t, xi: np.zeros((k.size, 1))],
                         ids=["scalar", "column"])
def test_a_likelihood_without_one_value_per_row_is_rejected(bad):
    prior = PriorConfig()
    with pytest.raises(ValueError, match="not one value per row"):
        run_mcmc(bad, prior, McmcConfig(steps=1), seed=0)
    rng = np.random.default_rng(0)
    pop = _population(prior, [sample_prior(prior, rng) for _ in range(3)], [0.0] * 3)
    with pytest.raises(ValueError, match="not one value per row"):
        rw_metropolis_steps(pop, bad, prior, KernelConfig(), rng, MoveStats())


def test_run_mcmc_thinning_and_shapes():
    prior = PriorConfig()
    res = run_mcmc(FLATS, prior, McmcConfig(steps=10, gamma=0.0, thin=3), seed=0)
    assert res["k"].size == 4  # stored at steps 0, 3, 6, 9
    assert res["d"].size == 4 and res["t"].size == 4
    assert np.all((res["d"] >= 0.0) & (res["d"] <= 0.5))


def test_run_mcmc_fix_k_freezes_order():
    prior = PriorConfig()
    res = run_mcmc(FLATS, prior, McmcConfig(steps=300, gamma=0.0, fix_k=2), seed=1)
    assert np.all(res["k"] == 2)
    assert res["stats"].birth_proposed == 0
    assert res["stats"].death_proposed == 0


def test_run_mcmc_is_deterministic_in_the_seed():
    prior = PriorConfig()
    cfg = McmcConfig(steps=200, gamma=0.0)
    a = run_mcmc(FLATS, prior, cfg, seed=42)
    b = run_mcmc(FLATS, prior, cfg, seed=42)
    assert np.array_equal(a["t"], b["t"]) and np.array_equal(a["k"], b["k"])


@pytest.mark.parametrize("L", [
    np.array([[math.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, math.inf]]),
    np.array([[1.0, 0.0], [math.nan, 1.0]]),
], ids=["inf_t", "inf_xi", "nan_xi"])
def test_rw_proposal_with_a_non_finite_coordinate_is_rejected_unscored(L):
    # a non-finite coordinate is outside the support: log prior -inf, so the
    # proposal is neither scored nor accepted
    prior = PriorConfig()
    rng, twin = np.random.default_rng(14), np.random.default_rng(14)
    pop = _state(prior, ThetaParams(k=1, t=0.3, xi=np.array([0.5])))
    calls, stats = [], MoveStats()

    def logliks(k, t, xi):
        calls.append(1)
        return np.zeros(k.size)

    out, acc = rw_metropolis_steps(pop, logliks, prior, KernelConfig(gamma=1.0, scales={1: L}),
                                   rng, stats)
    assert not acc[0] and not calls
    assert stats.rw_proposed == 1 and stats.loglik_evals == 0
    assert out.thetas()[0].key() == pop.thetas()[0].key() and out.lp[0] == pop.lp[0]
    twin.standard_normal((1, 2)), twin.random(1)  # the half-step's draws, and nothing after them
    assert rng.bit_generator.state == twin.bit_generator.state
