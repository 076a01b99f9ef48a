"""Exact Gaussian simulation and series file I/O."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from dense_reference import build_toeplitz, cholesky_lower
from fexpsmc.exact import NotPositiveDefiniteError
from fexpsmc.fourier import fracdiff_acf
from fexpsmc.model import arfima_sdf
from fexpsmc.simulate import (SimConfig, model_autocov, read_series,
                              simulate_series, write_series)
from fexpsmc import _accel


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(kind="mystery")
    with pytest.raises(ValueError):
        SimConfig(d=0.5)
    with pytest.raises(ValueError):
        SimConfig(sigma2=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=0)


def test_model_autocov_fracnoise_closed_form():
    cfg = SimConfig(kind="fracnoise", d=0.3, sigma2=2.0)
    got = model_autocov(cfg, 10)
    want = 2.0 * fracdiff_acf(0.3, np.arange(10))
    assert np.max(np.abs(got - want)) < 1e-10


def test_model_autocov_arfima_matches_quadrature():
    from scipy.integrate import quad
    cfg = SimConfig(kind="arfima", d=0.2, sigma2=1.5,
                    phi=np.array([0.4]), theta_ma=np.array([-0.3]))
    got = model_autocov(cfg, 4, M=8192)
    for lag in range(4):
        want, _ = quad(
            lambda lam: 2.0 * arfima_sdf(0.2, cfg.phi, cfg.theta_ma, 1.5,
                                         np.array([lam]))[0] * math.cos(lag * lam),
            0.0, math.pi, points=[0.0], limit=400)
        assert abs(got[lag] - want) < 5e-5 * abs(want), f"lag={lag}"


# ---------------------------------------------------------------------------
# Sampling law
# ---------------------------------------------------------------------------

def test_white_noise_moments():
    rng = np.random.default_rng(0)
    cfg = SimConfig(kind="fracnoise", n=4000, d=0.0, sigma2=2.25, mu=1.5)
    x = simulate_series(cfg, rng)
    assert abs(x.mean() - 1.5) < 4.0 * 1.5 / math.sqrt(4000)
    assert abs(x.var() - 2.25) < 0.2
    # adjacent-lag sample autocorrelation is near zero
    xc = x - x.mean()
    r1 = float(xc[:-1] @ xc[1:]) / float(xc @ xc)
    assert abs(r1) < 4.0 / math.sqrt(4000)


def test_sample_covariance_matches_model_acf():
    # many replicates of a short series: empirical lag covariances live in
    # their sampling bands around the model autocovariances
    rng = np.random.default_rng(1)
    cfg = SimConfig(kind="fracnoise", n=64, d=0.3, sigma2=1.0)
    reps = 4000
    acf_want = model_autocov(cfg, 4)
    sums = np.zeros(4)
    for _ in range(reps):
        x = simulate_series(cfg, rng)
        for lag in range(4):
            sums[lag] += np.mean(x[: 64 - lag] * x[lag:])
    got = sums / reps
    # long-memory averages converge slowly; 4 sigma with a crude factor
    for lag in range(4):
        se = 4.0 * acf_want[0] / math.sqrt(reps)
        assert abs(got[lag] - acf_want[lag]) < 4.0 * se, f"lag={lag}"


def test_simulated_quadratic_form_is_chi_squared():
    # z = L^{-1} x should be iid standard normal: x' T^{-1} x ~ chi2(n)
    rng = np.random.default_rng(2)
    cfg = SimConfig(kind="fexp", n=128, d=0.25, sigma2=1.0, xi=np.array([0.6, -0.2]))
    T = build_toeplitz(model_autocov(cfg, 128))
    L = cholesky_lower(T)
    stats = []
    for _ in range(400):
        x = simulate_series(cfg, rng)
        z = solve_triangular(L, x, lower=True, check_finite=False)
        stats.append(float(z @ z))
    stats = np.sort(stats)
    # compare the empirical quantiles to chi2(128)
    qs = chi2(128).ppf((np.arange(400) + 0.5) / 400)
    assert np.max(np.abs(stats - qs)) < 0.25 * 128


def test_durbin_levinson_path_matches_dense_law():
    # same rng draws, same acf: the innovations path and the dense Cholesky
    # path produce the same distribution; compare their covariance action
    rng = np.random.default_rng(3)
    acf = fracdiff_acf(0.35, np.arange(256))
    z = rng.standard_normal(256)
    x_dl, info = _accel.durbin_levinson_sample(acf, z)
    assert info == 0
    # the DL path must have the model covariance; check via whitening
    L = cholesky_lower(build_toeplitz(acf))
    w = solve_triangular(L, x_dl, lower=True, check_finite=False)
    # whitened DL path is standard normal: its squared norm ~ chi2(256)
    q = float(w @ w)
    lo, hi = chi2(256).ppf([1e-5, 1 - 1e-5])
    assert lo < q < hi


def test_durbin_levinson_rejects_invalid_acf():
    acf = np.zeros(16)
    acf[0] = 1.0
    acf[1] = 2.0  # |gamma(1)| > gamma(0): not a covariance
    z = np.zeros(16)
    _, info = _accel.durbin_levinson_sample(acf, z)
    assert info == 2  # the leading 2x2 minor 1 - 4 < 0


def test_long_series_uses_innovations_path():
    rng = np.random.default_rng(4)
    cfg = SimConfig(kind="fracnoise", n=8200, d=0.1, sigma2=1.0)
    x = simulate_series(cfg, rng)
    assert x.size == 8200
    assert np.all(np.isfinite(x))


def test_innovations_draw_is_the_cholesky_draw():
    # the innovations map z -> x is the lower Cholesky factor of T
    cfg = SimConfig(kind="fexp", n=512, d=0.49, sigma2=1.0, mu=0.7, xi=np.array([3.0]))
    x = simulate_series(cfg, np.random.default_rng(6))
    z = np.random.default_rng(6).standard_normal(512)
    want = cholesky_lower(build_toeplitz(model_autocov(cfg, 512))) @ z + 0.7
    assert np.max(np.abs(x - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("colour", [False, True])
def test_durbin_levinson_matches_dense_reference(colour):
    # one row and a batch of three, two columns; with C = chol(T) = L D^{1/2},
    # colouring is C y, whitening L^{-1} y = diag(C) C^{-1} y and v = diag(C)^2
    acf = np.stack([model_autocov(SimConfig(kind="fexp", d=d, xi=np.array(xi)), 64)
                    for d, xi in ((0.4, [1.5, -0.7]), (0.1, []), (0.3, [-0.8]))])
    y = np.random.default_rng(7).standard_normal((64, 2))
    for rows in (1, 3):
        out, v, info = _accel._durbin_levinson(acf[:rows], y, colour)
        assert out.shape == (rows, 64, 2) and v.shape == (rows, 64)
        assert np.all(info == 0)
        for b in range(rows):
            C = cholesky_lower(build_toeplitz(acf[b]))
            sd = np.diag(C)
            want = C @ y if colour else sd[:, None] * solve_triangular(C, y, lower=True)
            assert np.max(np.abs(out[b] - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(v[b] - sd ** 2)) <= 1e-12 * np.max(sd ** 2)


def test_simulation_reproducible_under_seed():
    cfg = SimConfig(kind="fracnoise", n=100, d=0.2)
    a = simulate_series(cfg, np.random.default_rng(9))
    b = simulate_series(cfg, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_ljung_box_white_noise_calibration():
    # portmanteau test on white noise: at the 5% level, at most a few
    # rejections across 20 independent seeds
    rejections = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = simulate_series(SimConfig(kind="fracnoise", n=512, d=0.0), rng)
        xc = x - x.mean()
        n = x.size
        denom = float(xc @ xc)
        q = 0.0
        for lag in range(1, 11):
            r = float(xc[: n - lag] @ xc[lag:]) / denom
            q += r * r / (n - lag)
        q *= n * (n + 2.0)
        if q > chi2(10).ppf(0.95):
            rejections += 1
    assert rejections <= 3


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def test_series_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50) * 1e-3
    p = tmp_path / "series.csv"
    write_series(p, x)
    back = read_series(p)
    assert np.array_equal(back, x)  # 17 significant digits round-trip exactly


def test_read_series_scaling_and_headerless(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("1.0\n2.0\n-3.5\n")
    got = read_series(p, scale_by=2.0)
    assert np.allclose(got, [2.0, 4.0, -7.0], atol=0)


def test_read_series_reports_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x\n1.0\noops\n2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_series(p)


def test_read_series_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("x\n")
    with pytest.raises(ValueError, match="no numeric data"):
        read_series(p)
