"""Exact-likelihood importance reweighting of SMC output."""

import math

import numpy as np
import pytest

from fexpsmc.config import NumericalError
from fexpsmc.correction import (CorrectionResult, corrected_estimate,
                                correction_weights)
from fexpsmc import exact as exact_module
from fexpsmc.approx import approx_log_lik, prepare_dataset
from fexpsmc.exact import NotPositiveDefiniteError, exact_log_marglik
from fexpsmc.model import PriorConfig, ThetaParams, sample_prior
from fexpsmc.simulate import SimConfig, simulate_series
from fexpsmc.smc import SmcConfig, run_smc


def _population(n, seed=0):
    prior = PriorConfig()
    rng = np.random.default_rng(seed)
    return [sample_prior(prior, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Structural behaviour through the evaluator seams
# ---------------------------------------------------------------------------

def test_identical_evaluators_give_uniform_weights():
    thetas = _population(40)
    f = lambda th: -3.0 * th.t**2 + 0.1 * th.k
    res = correction_weights(thetas, None, None, exact_fn=f, approx_fn=f)
    assert np.allclose(res.weights, 1.0 / 40.0, atol=1e-12)
    assert abs(res.ess_fraction - 1.0) < 1e-12
    assert res.n_failed == 0


def test_constant_offset_is_invisible():
    # weights are self-normalised: a theta-free shift changes nothing
    thetas = _population(30, seed=1)
    exact = lambda th: -th.t**2
    shifted = lambda th: -th.t**2 + 57.3
    approx = lambda th: -0.5 * th.t**2
    a = correction_weights(thetas, None, None, exact_fn=exact, approx_fn=approx)
    b = correction_weights(thetas, None, None, exact_fn=shifted, approx_fn=approx)
    assert np.allclose(a.weights, b.weights, atol=1e-12)


def test_log_weights_are_exact_minus_approx():
    thetas = _population(10, seed=2)
    exact = lambda th: -th.t**2
    approx = lambda th: -2.0 * th.t**2 + 1.0
    res = correction_weights(thetas, None, None, exact_fn=exact, approx_fn=approx)
    want = np.array([exact(th) - approx(th) for th in thetas])
    assert np.allclose(res.log_w_raw, want, atol=1e-12)
    lw = want - want.max()
    w = np.exp(lw)
    assert np.allclose(res.weights, w / w.sum(), atol=1e-12)


def test_memoisation_collapses_duplicates():
    # a resampled population repeats identical particles; each unique theta
    # must be evaluated exactly once
    base = _population(5, seed=3)
    thetas = [base[i % 5].copy() for i in range(50)]
    calls = []

    def exact(th):
        calls.append(th.key())
        return -th.t**2

    res = correction_weights(thetas, None, None, exact_fn=exact,
                             approx_fn=lambda th: 0.0)
    assert len(calls) == 5
    assert res.n_unique == 5
    assert res.weights.size == 50


def test_subsample_is_seeded_and_without_replacement():
    thetas = _population(60, seed=4)
    f = lambda th: -th.t**2
    g = lambda th: 0.0
    a = correction_weights(thetas, None, None, subsample=20, seed=9,
                           exact_fn=f, approx_fn=g)
    b = correction_weights(thetas, None, None, subsample=20, seed=9,
                           exact_fn=f, approx_fn=g)
    c = correction_weights(thetas, None, None, subsample=20, seed=10,
                           exact_fn=f, approx_fn=g)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    assert a.indices.size == 20
    assert np.unique(a.indices).size == 20
    assert abs(a.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="subsample"):
        correction_weights(thetas, None, None, subsample=0, exact_fn=f, approx_fn=g)


def test_failed_evaluations_zero_the_weight():
    thetas = _population(12, seed=5)

    def exact(th):
        if th.k >= 1:
            raise NotPositiveDefiniteError(1)
        return 0.0

    res = correction_weights(thetas, None, None, exact_fn=exact,
                             approx_fn=lambda th: 0.0)
    n_bad = sum(1 for th in thetas if th.k >= 1)
    assert res.n_failed == n_bad
    for i, th in enumerate(thetas):
        if th.k >= 1:
            assert res.weights[i] == 0.0
            assert res.log_w_raw[i] == -math.inf
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_all_failures_raise():
    thetas = _population(5, seed=6)

    def exact(th):
        raise NotPositiveDefiniteError(1)

    with pytest.raises(NumericalError):
        correction_weights(thetas, None, None, exact_fn=exact,
                           approx_fn=lambda th: 0.0)


def test_threaded_evaluation_matches_serial():
    thetas = _population(25, seed=7)
    f = lambda th: -1.3 * th.t**2 + 0.2 * th.k
    g = lambda th: -th.t**2
    serial = correction_weights(thetas, None, None, exact_fn=f, approx_fn=g)
    threaded = correction_weights(thetas, None, None, threads=4,
                                  exact_fn=f, approx_fn=g)
    assert np.array_equal(serial.log_w_raw, threaded.log_w_raw)
    assert np.array_equal(serial.weights, threaded.weights)


def test_large_series_guard():
    thetas = _population(3, seed=8)
    x = np.zeros(20_001)
    with pytest.raises(ValueError, match="guard"):
        correction_weights(thetas, x, PriorConfig())


def test_corrected_estimate_basics():
    thetas = _population(15, seed=9)
    res = correction_weights(thetas, None, None,
                             exact_fn=lambda th: 0.0, approx_fn=lambda th: 0.0)
    one = corrected_estimate(thetas, res, lambda th: 1.0)
    assert abs(one - 1.0) < 1e-12
    mean_d = corrected_estimate(thetas, res, lambda th: th.d)
    assert abs(mean_d - np.mean([th.d for th in thetas])) < 1e-12


# ---------------------------------------------------------------------------
# End to end against the real evaluators
# ---------------------------------------------------------------------------

def test_correction_weights_concentrated_on_real_data():
    # on a moderate series the approximation is good enough that the
    # reweighting retains most of the effective sample
    rng = np.random.default_rng(20)
    x = simulate_series(SimConfig(kind="fracnoise", n=256, d=0.25), rng)
    prior = PriorConfig()
    ps = run_smc(x, prior, SmcConfig(N=150, M=3, seed=21))
    res = correction_weights(ps.thetas, x, prior)
    assert res.ess_fraction > 0.5, f"ESS fraction {res.ess_fraction}"
    assert res.n_failed == 0
    # the weighted mean of d moves only slightly
    mean_before = np.mean([th.d for th in ps.thetas])
    mean_after = corrected_estimate(ps.thetas, res, lambda th: th.d)
    assert abs(mean_after - mean_before) < 0.1


def test_correction_defaults_match_manual_evaluators():
    rng = np.random.default_rng(22)
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.2), rng)
    prior = PriorConfig()
    thetas = _population(8, seed=23)
    auto = correction_weights(thetas, x, prior)
    ctx = prepare_dataset(x)
    manual = correction_weights(
        thetas, None, None,
        exact_fn=lambda th: exact_log_marglik(th, x, prior),
        approx_fn=lambda th: approx_log_lik(th, ctx, prior, mode="whittle"),
    )
    assert np.allclose(auto.log_w_raw, manual.log_w_raw, atol=1e-10)


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_default_evaluators_are_bitwise_serial(threads, monkeypatch):
    # the exact side runs in blocks; a block of 3 leaves blocks of 3, 3, 3, 1
    # distinct particles to the pool at 3 threads
    monkeypatch.setattr(exact_module, "BLOCK_ROWS", 3)
    rng = np.random.default_rng(24)
    x = simulate_series(SimConfig(kind="fracnoise", n=96, d=0.3), rng)
    prior = PriorConfig()
    base = _population(10, seed=25)
    thetas = base + [base[3].copy(), base[7].copy()]
    serial = correction_weights(thetas, x, prior)
    threaded = correction_weights(thetas, x, prior, threads=threads)
    assert serial.n_unique == threaded.n_unique == 10
    assert np.array_equal(serial.log_w_raw, threaded.log_w_raw)
    assert np.array_equal(serial.weights, threaded.weights)
    ctx = prepare_dataset(x)
    for th, got in zip(thetas, serial.log_w_raw):
        try:
            want = exact_log_marglik(th, x, prior) - approx_log_lik(th, ctx, prior)
        except NotPositiveDefiniteError:
            want = -math.inf
        assert got == want


def test_particle_at_d_one_half_is_zeroed_and_counted():
    # t = 37 rounds d to 1/2: the approximate side is -inf and the exact side
    # a failed first minor; the particle is counted as failed, the rest keep
    # their log weights
    rng = np.random.default_rng(26)
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.3), rng)
    prior = PriorConfig()
    thetas = _population(6, seed=27)
    clean = correction_weights(thetas, x, prior)
    pole = ThetaParams(k=0, t=37.0, xi=np.empty(0))
    res = correction_weights(thetas[:2] + [pole] + thetas[2:], x, prior)
    assert res.n_failed == 1
    assert res.weights[2] == 0.0
    assert res.log_w_raw[2] == -math.inf
    assert np.array_equal(np.delete(res.log_w_raw, 2), clean.log_w_raw)


def test_particle_with_overflowing_short_memory_is_zeroed_and_counted():
    # xi_1 = -800 overflows exp(sum xi_j cos j lam) on both sides: the
    # approximate side scores -inf and the exact side a failed row; the
    # particle is counted as failed, the rest keep their log weights
    rng = np.random.default_rng(28)
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.3), rng)
    prior = PriorConfig()
    thetas = _population(6, seed=29)
    clean = correction_weights(thetas, x, prior)
    blow_up = ThetaParams(k=1, t=0.0, xi=np.array([-800.0]))
    res = correction_weights(thetas[:3] + [blow_up] + thetas[3:], x, prior)
    assert res.n_failed == clean.n_failed + 1
    assert res.weights[3] == 0.0
    assert res.log_w_raw[3] == -math.inf
    assert np.array_equal(np.delete(res.log_w_raw, 3), clean.log_w_raw)
