"""Exact-likelihood importance reweighting of SMC output."""

import math

import numpy as np
import pytest

from fexpsmc import correction
from fexpsmc.config import NumericalError
from fexpsmc.config import RunConfig
from fexpsmc.correction import CorrectionConfig, correction_weights
from fexpsmc import exact as exact_module
from fexpsmc.approx import prepare_dataset
from fexpsmc.exact import NotPositiveDefiniteError
from fexpsmc.model import PriorConfig, ThetaParams, sample_prior, to_thetas
from fexpsmc.simulate import SimConfig, simulate_series
from fexpsmc.smc import SmcConfig, run_smc
from dense_reference import approx_single, exact_single

#: a series for the tests with fake evaluators, which never look at it
X = np.zeros(16)


def _population(n, seed=0):
    prior = PriorConfig()
    rng = np.random.default_rng(seed)
    return [sample_prior(prior, rng) for _ in range(n)]


def _fake(monkeypatch, exact, approx):
    """Replace the correction's evaluators by fakes in their batched forms:
    ``exact(thetas)`` returns (values, info) of exact_log_margliks' (values,
    info, ill), with no row ill-conditioned, and ``approx(thetas)`` an array as approx_log_liks
    does."""
    monkeypatch.setattr(correction, "exact_log_margliks",
                        lambda k, t, xi, x, prior: (*exact(to_thetas(k, t, xi)),
                                                    np.zeros(k.size, dtype=bool)))
    monkeypatch.setattr(correction, "approx_log_liks",
                        lambda k, t, xi, ctx, prior: approx(to_thetas(k, t, xi)))


def _valid(values):
    """(values, info) of a batch in which every row succeeded."""
    return np.asarray(values, dtype=float), np.zeros(len(values), dtype=int)


def _zeros(thetas):
    return np.zeros(len(thetas))


# ---------------------------------------------------------------------------
# Structural behaviour with fake evaluators
# ---------------------------------------------------------------------------

def test_identical_evaluators_give_uniform_weights(monkeypatch):
    thetas = _population(40)
    f = lambda ths: np.array([-3.0 * th.t**2 + 0.1 * th.k for th in ths])
    _fake(monkeypatch, lambda ths: _valid(f(ths)), f)
    res = correction_weights(thetas, X, PriorConfig())
    assert np.allclose(res.weights, 1.0 / 40.0, atol=1e-12)
    assert abs(res.ess_fraction - 1.0) < 1e-12
    assert res.n_failed == 0


def test_constant_offset_is_invisible(monkeypatch):
    # weights are self-normalised: a theta-free shift changes nothing
    thetas = _population(30, seed=1)
    approx = lambda ths: np.array([-0.5 * th.t**2 for th in ths])
    _fake(monkeypatch, lambda ths: _valid([-th.t**2 for th in ths]), approx)
    a = correction_weights(thetas, X, PriorConfig())
    _fake(monkeypatch, lambda ths: _valid([-th.t**2 + 57.3 for th in ths]), approx)
    b = correction_weights(thetas, X, PriorConfig())
    assert np.allclose(a.weights, b.weights, atol=1e-12)


def test_log_weights_are_exact_minus_approx(monkeypatch):
    thetas = _population(10, seed=2)
    exact = lambda th: -th.t**2
    approx = lambda th: -2.0 * th.t**2 + 1.0
    _fake(monkeypatch, lambda ths: _valid([exact(th) for th in ths]),
          lambda ths: np.array([approx(th) for th in ths]))
    res = correction_weights(thetas, X, PriorConfig())
    want = np.array([exact(th) - approx(th) for th in thetas])
    assert np.allclose(res.log_w_raw, want, atol=1e-12)
    lw = want - want.max()
    w = np.exp(lw)
    assert np.allclose(res.weights, w / w.sum(), atol=1e-12)


def test_memoisation_collapses_duplicates(monkeypatch):
    # a resampled population repeats identical particles; each unique theta
    # must be evaluated exactly once
    base = _population(5, seed=3)
    thetas = [base[i % 5].copy() for i in range(50)]
    calls = []

    def exact(ths):
        calls.extend(th.key() for th in ths)
        return _valid([-th.t**2 for th in ths])

    _fake(monkeypatch, exact, _zeros)
    res = correction_weights(thetas, X, PriorConfig())
    assert len(calls) == 5
    assert res.n_unique == 5
    assert res.weights.size == 50


def test_subsample_is_seeded_and_without_replacement(monkeypatch):
    thetas = _population(60, seed=4)
    _fake(monkeypatch, lambda ths: _valid([-th.t**2 for th in ths]), _zeros)
    prior = PriorConfig()
    a = correction_weights(thetas, X, prior, CorrectionConfig(subsample=20, seed=9))
    b = correction_weights(thetas, X, prior, CorrectionConfig(subsample=20, seed=9))
    c = correction_weights(thetas, X, prior, CorrectionConfig(subsample=20, seed=10))
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    assert a.indices.size == 20
    assert np.unique(a.indices).size == 20
    assert abs(a.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="subsample"):
        CorrectionConfig(subsample=0)


def test_failed_evaluations_zero_the_weight(monkeypatch):
    thetas = _population(12, seed=5)

    def exact(ths):
        # rows of order >= 1 fail at their first leading minor
        info = np.array([int(th.k >= 1) for th in ths])
        return np.where(info == 0, 0.0, math.nan), info

    _fake(monkeypatch, exact, _zeros)
    res = correction_weights(thetas, X, PriorConfig())
    n_bad = sum(1 for th in thetas if th.k >= 1)
    assert res.n_failed == n_bad
    for i, th in enumerate(thetas):
        if th.k >= 1:
            assert res.weights[i] == 0.0
            assert res.log_w_raw[i] == -math.inf
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_all_failures_raise(monkeypatch):
    thetas = _population(5, seed=6)
    _fake(monkeypatch, lambda ths: (np.full(len(ths), math.nan), np.ones(len(ths), dtype=int)),
          _zeros)
    with pytest.raises(NumericalError):
        correction_weights(thetas, X, PriorConfig())


def test_threaded_evaluation_matches_serial(monkeypatch):
    thetas = _population(25, seed=7)
    _fake(monkeypatch, lambda ths: _valid([-1.3 * th.t**2 + 0.2 * th.k for th in ths]),
          lambda ths: np.array([-th.t**2 for th in ths]))
    serial = correction_weights(thetas, X, PriorConfig())
    threaded = correction_weights(thetas, X, PriorConfig(), CorrectionConfig(threads=4))
    assert np.array_equal(serial.log_w_raw, threaded.log_w_raw)
    assert np.array_equal(serial.weights, threaded.weights)


def test_large_series_guard():
    thetas = _population(3, seed=8)
    x = np.zeros(20_001)
    with pytest.raises(ValueError, match="guard"):
        correction_weights(thetas, x, PriorConfig())


def test_large_series_guard_can_be_forced(monkeypatch):
    thetas = _population(3, seed=8)
    _fake(monkeypatch, lambda ths: _valid(_zeros(ths)), _zeros)
    res = correction_weights(thetas, np.zeros(20_001), PriorConfig(),
                             CorrectionConfig(force_large_n=True))
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_default_cfg_is_the_run_config_section(monkeypatch):
    thetas = _population(30, seed=10)
    _fake(monkeypatch, lambda ths: _valid([-th.t**2 + 0.1 * th.k for th in ths]), _zeros)
    a = correction_weights(thetas, X, PriorConfig())
    b = correction_weights(thetas, X, PriorConfig(), RunConfig({}).section("correction"))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.log_w_raw, b.log_w_raw)
    assert np.array_equal(a.weights, b.weights)


def test_corrected_estimate_basics(monkeypatch):
    thetas = _population(15, seed=9)
    _fake(monkeypatch, lambda ths: _valid(_zeros(ths)), _zeros)
    res = correction_weights(thetas, X, PriorConfig())
    sub = [thetas[i] for i in res.indices]
    one = float(res.weights @ np.ones(len(sub)))
    assert abs(one - 1.0) < 1e-12
    mean_d = float(res.weights @ np.array([th.d for th in sub]))
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
    mean_after = float(res.weights @ np.array([ps.thetas[i].d for i in res.indices]))
    assert abs(mean_after - mean_before) < 0.1


def test_correction_defaults_match_manual_evaluators():
    rng = np.random.default_rng(22)
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.2), rng)
    prior = PriorConfig()
    thetas = _population(8, seed=23)
    auto = correction_weights(thetas, x, prior)
    ctx = prepare_dataset(x)
    manual = []
    for th in thetas:
        try:
            manual.append(exact_single(th, x, prior)
                          - approx_single(th, ctx, prior))
        except NotPositiveDefiniteError:
            manual.append(-math.inf)
    assert np.allclose(auto.log_w_raw, manual, atol=1e-10)


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_default_evaluators_are_bitwise_serial(threads, monkeypatch):
    # one slice of distinct particles per thread, each solved in blocks of 3
    monkeypatch.setattr(exact_module, "BLOCK_ELEMENTS", 3 * 96)
    rng = np.random.default_rng(24)
    x = simulate_series(SimConfig(kind="fracnoise", n=96, d=0.3), rng)
    prior = PriorConfig()
    base = _population(10, seed=25)
    thetas = base + [base[3].copy(), base[7].copy()]
    serial = correction_weights(thetas, x, prior)
    threaded = correction_weights(thetas, x, prior, CorrectionConfig(threads=threads))
    assert serial.n_unique == threaded.n_unique == 10
    assert np.array_equal(serial.log_w_raw, threaded.log_w_raw)
    assert np.array_equal(serial.weights, threaded.weights)
    ctx = prepare_dataset(x)
    for th, got in zip(thetas, serial.log_w_raw):
        try:
            want = exact_single(th, x, prior) - approx_single(th, ctx, prior)
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
    # a k = 24 draw here has cond(T) ~ 5e16, so whether it factors is decided
    # by rounding; the pole adds exactly one failure to the clean count
    assert res.n_failed == clean.n_failed + 1
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


@pytest.mark.parametrize("seed", [1, 2])
def test_final_population_of_a_long_fit_stays_on_the_schur_path(seed, monkeypatch):
    # the benchmark's correct_exact shape: n = 3000 fractional noise, N = 6,
    # M = 100, every particle weighted.  No distinct particle is handed to
    # Durbin-Levinson, so none is counted ill-conditioned.
    rows = []
    real = exact_module._accel.durbin_levinson_whiten

    def counted(acf, y):
        rows.append(acf.shape[0])
        return real(acf, y)

    monkeypatch.setattr(exact_module._accel, "durbin_levinson_whiten", counted)
    rng = np.random.default_rng(seed)
    x = simulate_series(SimConfig(kind="fracnoise", n=3000, d=0.3), rng)
    prior = PriorConfig()
    ps = run_smc(x, prior, SmcConfig(N=6, M=100, seed=seed))
    res = correction_weights(ps.thetas, x, prior)
    assert rows == []
    assert res.n_failed == res.n_ill_conditioned == 0
    assert res.n_unique >= 2


@pytest.mark.parametrize("threads", [1, 2])
def test_particles_past_the_residual_bound_are_counted_ill_conditioned(threads, monkeypatch):
    # a bound no residual meets hands every distinct particle to the
    # Durbin-Levinson fallback: each positive definite one is counted, and
    # the failed one (d = 1/2) is not
    rng = np.random.default_rng(30)
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.3), rng)
    prior = PriorConfig()
    thetas = [ThetaParams(k=1, t=0.2 * i - 0.5, xi=np.array([0.3])) for i in range(5)]
    thetas += [ThetaParams(k=0, t=37.0, xi=np.empty(0)), thetas[0].copy()]
    clean = correction_weights(thetas, x, prior, CorrectionConfig(threads=threads))
    monkeypatch.setattr(exact_module, "RESIDUAL_BOUND", -1.0)
    res = correction_weights(thetas, x, prior, CorrectionConfig(threads=threads))
    assert clean.n_ill_conditioned == 0
    assert (res.n_unique, res.n_failed, res.n_ill_conditioned) == (6, 1, 5)
    assert np.allclose(res.log_w_raw, clean.log_w_raw, rtol=1e-10)
