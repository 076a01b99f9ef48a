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
    # non-finite mu and sigma2 drew all-NaN or all-inf series; a non-integer
    # n raised a bare TypeError from inside the draw
    for bad in (dict(mu=math.nan), dict(mu=math.inf), dict(mu=-math.inf),
                dict(sigma2=math.nan), dict(sigma2=math.inf),
                dict(n=2.5), dict(n=64.0), dict(n=True), dict(n="64")):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    assert SimConfig(n=np.int64(64)).n == 64


def test_model_autocov_fracnoise_closed_form():
    cfg = SimConfig(kind="fracnoise", d=0.3, sigma2=2.0)
    got = model_autocov(cfg, 10)
    want = 2.0 * fracdiff_acf(0.3, np.arange(10))
    assert np.max(np.abs(got - want)) < 1e-10


def test_model_autocov_arfima_matches_quadrature():
    from scipy.integrate import quad
    cfg = SimConfig(kind="arfima", d=0.2, sigma2=1.5,
                    phi=np.array([0.4]), theta_ma=np.array([-0.3]))
    got = model_autocov(cfg, 4096)[:4]  # the grid of M = 8192 points
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


def _record_durbin_levinson(monkeypatch):
    """The acf of every Durbin-Levinson colouring simulate_series makes."""
    calls = []
    sample = _accel.durbin_levinson_sample

    def recorded(acf, z):
        calls.append(acf)
        return sample(acf, z)

    monkeypatch.setattr(_accel, "durbin_levinson_sample", recorded)
    return calls


def test_long_series_uses_circulant_embedding(monkeypatch):
    calls = _record_durbin_levinson(monkeypatch)
    rng = np.random.default_rng(4)
    cfg = SimConfig(kind="fracnoise", n=8200, d=0.1, sigma2=1.0)
    x = simulate_series(cfg, rng)
    assert x.size == 8200
    assert np.all(np.isfinite(x))
    assert calls == []


def _embedding(cfg):
    """The lags 0..L that simulate_series embeds, L = _fft_size(n - 1)."""
    return model_autocov(cfg, cfg.n, _accel._fft_size(cfg.n - 1) + 1)


def test_innovations_draw_is_the_cholesky_draw():
    # the fallback's map z -> x is the lower Cholesky factor of T; at n = 64
    # this model's circulant embedding (L = 64) has a negative eigenvalue
    cfg = SimConfig(kind="fexp", n=64, d=0.49, sigma2=1.0, mu=0.7, xi=np.array([3.0]))
    acf = model_autocov(cfg, 64)
    assert _accel.circulant_eigenvalues(_embedding(cfg)).min() < 0.0
    x = simulate_series(cfg, np.random.default_rng(6))
    z = np.random.default_rng(6).standard_normal(64)
    want = cholesky_lower(build_toeplitz(acf)) @ z + 0.7
    assert np.max(np.abs(x - want)) < 1e-10 * np.max(np.abs(want))


_EMBEDDED = [
    SimConfig(kind="fracnoise", n=2, d=0.3),
    SimConfig(kind="fracnoise", n=64, d=0.3),
    SimConfig(kind="fexp", n=128, d=0.25, xi=[0.6, -0.2]),
    SimConfig(kind="fexp", n=512, d=0.49, xi=[3.0]),
    SimConfig(kind="arfima", n=300, d=0.25, theta_ma=[-0.3, 0.2]),
]
_EMBEDDED_IDS = ["fracnoise2", "fracnoise64", "fexp128", "fexp512", "arfima300"]


@pytest.mark.parametrize("cfg", _EMBEDDED, ids=_EMBEDDED_IDS)
def test_circulant_colouring_is_an_exact_factor(cfg):
    # x = A z with A the colouring of the m = 2L unit vectors: A A' is T exactly
    acf = _embedding(cfg)
    lam = _accel.circulant_eigenvalues(acf)
    assert lam.min() >= 0.0
    m = 2 * (acf.size - 1)
    assert m >= 2 * (cfg.n - 1)
    A = np.stack([_accel.circulant_sample(lam, e, cfg.n) for e in np.eye(m)], axis=1)
    assert A.shape == (cfg.n, m)
    T = build_toeplitz(model_autocov(cfg, cfg.n))
    assert np.max(np.abs(A @ A.T - T)) <= 1e-13 * acf[0]


@pytest.mark.parametrize("cfg", _EMBEDDED + [
    SimConfig(kind="fexp", n=64, d=0.49, xi=[3.0]),
    SimConfig(kind="arfima", n=4096, d=0.25, theta_ma=[-0.3, 0.2]),
    SimConfig(kind="fracnoise", n=16384, d=0.3),
], ids=_EMBEDDED_IDS + ["fexp64", "arfima4096", "fracnoise16384"])
def test_embedded_lags_extend_model_autocov_bit_for_bit(cfg):
    # lags n..L come from the same grid, so T itself keeps its bits
    acf = _embedding(cfg)
    assert acf.size >= cfg.n
    assert np.array_equal(acf[:cfg.n], model_autocov(cfg, cfg.n))


def test_embedding_size_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for m in range(1, 3000):
        L = _accel._fft_size(m)
        assert smooth(L) and L >= m and not any(smooth(j) for j in range(m, L))


def _minimal_colouring(acf, z):
    """The colouring of the even circulant of size 2 (n - 1) for the n lags
    acf, written out with numpy's complex arithmetic."""
    n = acf.size
    m = 2 * (n - 1)
    lam = np.fft.rfft(np.concatenate([acf, acf[-2:0:-1]])).real
    w = np.empty(n, dtype=complex)
    w[0] = math.sqrt(lam[0]) * z[0]
    w[-1] = math.sqrt(lam[-1]) * z[1]
    w[1:-1] = np.sqrt(0.5 * lam[1:-1]) * (z[2::2] + 1j * z[3::2])
    return math.sqrt(m) * np.fft.irfft(w, m)[:n]


@pytest.mark.parametrize("kind, n", [("fracnoise", 2), ("fracnoise", 65), ("fexp", 513),
                                     ("arfima", 4097), ("arfima", 1001)])
def test_draw_with_smooth_order_is_the_minimal_colouring(kind, n):
    # where n - 1 is 5-smooth the embedding has the minimal size 2 (n - 1)
    cfg = SimConfig(kind=kind, n=n, d=0.3, mu=1.5, xi=[0.5], theta_ma=[-0.3, 0.2])
    assert _accel._fft_size(n - 1) == n - 1
    x = simulate_series(cfg, np.random.default_rng(n))
    z = np.random.default_rng(n).standard_normal(2 * (n - 1))
    assert np.array_equal(x, _minimal_colouring(model_autocov(cfg, n), z) + 1.5)


@pytest.mark.parametrize("n, fallback", [(3, True), (64, True), (512, False)])
def test_draw_path_follows_the_sign_of_the_embedding(n, fallback, monkeypatch):
    # fexp d = 0.49, xi = (3): the embedding of size 2L, L = 2, 64 and 512, is
    # negative at n = 3 and 64 and non-negative at n = 512; a fallback draw
    # is the Durbin-Levinson colouring of the first n normals, bit for bit
    cfg = SimConfig(kind="fexp", n=n, d=0.49, mu=-0.4, xi=[3.0])
    acf = model_autocov(cfg, n)
    lam_min = _accel.circulant_eigenvalues(_embedding(cfg)).min()
    assert (lam_min < 0.0) == fallback
    assert lam_min == pytest.approx({3: -1.396, 64: -0.02018, 512: 0.01979}[n], rel=1e-3)
    calls = _record_durbin_levinson(monkeypatch)
    x = simulate_series(cfg, np.random.default_rng(8))
    assert len(calls) == int(fallback)
    if fallback:
        assert np.array_equal(calls[0], acf)
        want, info = _accel.durbin_levinson_sample(acf, np.random.default_rng(8).standard_normal(n))
        assert info == 0
        assert np.array_equal(x, want + cfg.mu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_short_draws(n):
    for kind in ("fracnoise", "fexp", "arfima"):
        x0, x = (simulate_series(SimConfig(kind=kind, n=n, d=0.3, mu=mu, xi=[0.5], phi=[0.5]),
                                 np.random.default_rng(n)) for mu in (0.0, 50.0))
        assert x.shape == (n,)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(x - x0 - 50.0)) <= 1e-13


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
