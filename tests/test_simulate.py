"""Exact Gaussian simulation and series file I/O."""

import math
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from dense_reference import build_toeplitz, cholesky_lower
from fexpsmc.config import NumericalError
from fexpsmc.exact import NotPositiveDefiniteError
from fexpsmc.fourier import default_grid_size, fracdiff_acf, longmemory_autocovs
from fexpsmc.model import arfima_sdf
from fexpsmc.simulate import (SimConfig, model_autocov, read_series,
                              simulate_series, write_series)
from fexpsmc import _accel, simulate


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


@pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 0.49])
def test_model_autocov_fracnoise_is_the_quadrature_bit_for_bit(d):
    # the closed form is the quadrature on a constant g, whose remainder is
    # zero, up to the last bit and up to the grid size
    for n, sigma2 in ((1, 1.0), (2, 0.7), (64, 2.0), (1000, 1.0), (4097, 3.5)):
        cfg = SimConfig(kind="fracnoise", n=n, d=d, sigma2=sigma2)
        M = default_grid_size(n)
        g = np.full(M // 2 + 1, sigma2 / (2.0 * np.pi))
        for lags in sorted({1, n, _accel._fft_size(n - 1) + 1 if n > 1 else 1, M // 2 + 1, M}):
            got = model_autocov(cfg, n, lags)
            assert got.tobytes() == longmemory_autocovs(d, g, lags).tobytes(), (n, lags)
        assert model_autocov(cfg, n).tobytes() == longmemory_autocovs(d, g, n).tobytes()
        for lags in (0, M + 1):
            with pytest.raises(ValueError) as want:
                longmemory_autocovs(d, g, lags)
            with pytest.raises(ValueError) as got:
                model_autocov(cfg, n, lags)
            assert str(got.value) == str(want.value)


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


# ---------------------------------------------------------------------------
# Draw plans: built once per model and length, reused by later draws
# ---------------------------------------------------------------------------

def _count_model_autocov(monkeypatch):
    """A list that grows by one per model_autocov call simulate_series makes."""
    calls = []
    real = simulate.model_autocov

    def counted(cfg, n, lags=None):
        calls.append(cfg.n)
        return real(cfg, n, lags)

    monkeypatch.setattr(simulate, "model_autocov", counted)
    return calls


@pytest.mark.parametrize("cfg", _EMBEDDED + [SimConfig(kind="fexp", n=64, d=0.49, xi=[3.0]),
                                             SimConfig(kind="arfima", n=1, phi=[0.5])],
                         ids=_EMBEDDED_IDS + ["fexp64", "arfima1"])
def test_warm_draw_is_the_cold_draw(cfg, monkeypatch):
    calls = _count_model_autocov(monkeypatch)
    cold = simulate_series(cfg, np.random.default_rng(11))
    again = SimConfig(kind=cfg.kind, n=cfg.n, d=cfg.d, sigma2=cfg.sigma2, xi=cfg.xi.copy(),
                      phi=cfg.phi.copy(), theta_ma=cfg.theta_ma.copy())
    warm = simulate_series(again, np.random.default_rng(11))
    assert warm.tobytes() == cold.tobytes()
    assert warm is not cold and len(calls) == 1


def test_replicates_compute_the_lags_once(monkeypatch):
    # mu is added per draw, so models that differ only in mu share a plan
    calls = _count_model_autocov(monkeypatch)
    cfgs = [SimConfig(kind="arfima", n=4096, d=0.25, mu=mu, theta_ma=[-0.3, 0.2])
            for mu in (0.0, 1.0, -2.5, 0.0, 7.0)]
    draws = [simulate_series(cfg, np.random.default_rng(12)) for cfg in cfgs]
    assert calls == [4096]
    for cfg, x in zip(cfgs, draws):
        assert np.max(np.abs(x - cfg.mu - draws[0])) <= 1e-13 * (1.0 + abs(cfg.mu))
    assert draws[3].tobytes() == draws[0].tobytes()


@pytest.mark.parametrize("field, value", [("xi", 0.1), ("d", 0.4), ("sigma2", 2.0)])
def test_a_model_changed_in_place_gets_a_fresh_plan(field, value, monkeypatch):
    calls = _count_model_autocov(monkeypatch)
    cfg = SimConfig(kind="fexp", n=128, d=0.25, xi=[0.6, -0.2])
    before = simulate_series(cfg, np.random.default_rng(13))
    if field == "xi":
        cfg.xi[0] = value
    else:
        setattr(cfg, field, value)
    after = simulate_series(cfg, np.random.default_rng(13))
    assert len(calls) == 2
    assert not np.array_equal(after, before)
    simulate._PLANS.clear()
    fresh = SimConfig(kind="fexp", n=128, d=cfg.d, sigma2=cfg.sigma2, xi=cfg.xi.copy())
    assert simulate_series(fresh, np.random.default_rng(13)).tobytes() == after.tobytes()


def test_fallback_colours_on_a_cache_hit(monkeypatch):
    # fexp d = 0.49, xi = (3) at n = 64 has a negative embedding: every draw,
    # the cached one too, is the Durbin-Levinson colouring of n normals
    cfg = SimConfig(kind="fexp", n=64, d=0.49, xi=[3.0])
    acf = model_autocov(cfg, 64)
    want, info = _accel.durbin_levinson_sample(acf, np.random.default_rng(14).standard_normal(64))
    assert info == 0
    dl = _record_durbin_levinson(monkeypatch)
    calls = _count_model_autocov(monkeypatch)
    for _ in range(3):
        assert np.array_equal(simulate_series(cfg, np.random.default_rng(14)), want)
    assert len(calls) == 1 and len(dl) == 3
    assert all(np.array_equal(a, acf) for a in dl)


def test_fallback_raises_on_a_cache_hit(monkeypatch):
    # T of these lags fails at its third leading minor; so does every draw
    acf = np.array([1.0, 0.99, 0.0, 0.0])
    calls = []
    monkeypatch.setattr(simulate, "model_autocov",
                        lambda cfg, n, lags=None: calls.append(n) or acf)
    for _ in range(2):
        with pytest.raises(NotPositiveDefiniteError) as err:
            simulate_series(SimConfig(n=4), np.random.default_rng(15))
        assert err.value.index == 3
    assert calls == [4]


@pytest.mark.parametrize("kind, model", [("arfima", dict(phi=[1.0])), ("fexp", dict(xi=[800.0]))])
def test_a_density_not_finite_is_never_cached(kind, model, monkeypatch):
    calls = _count_model_autocov(monkeypatch)
    cfg = SimConfig(kind=kind, n=64, **model)
    for _ in range(3):
        with pytest.raises(NumericalError, match="not finite"):
            simulate_series(cfg, np.random.default_rng(16))
    assert len(calls) == 3


@pytest.mark.parametrize("cfg", [SimConfig(kind="fracnoise", n=64, d=0.3),
                                 SimConfig(kind="fexp", n=64, d=0.49, xi=[3.0]),
                                 SimConfig(kind="arfima", n=1, phi=[0.5])],
                         ids=["embedding", "fallback", "n1"])
def test_cached_plans_are_read_only(cfg):
    x = simulate_series(cfg, np.random.default_rng(17))
    embedded, plan = simulate._plan(cfg)
    assert embedded == (cfg.kind == "fracnoise")
    assert plan.size == (_accel._fft_size(cfg.n - 1) + 1 if embedded else cfg.n)
    assert not plan.flags.writeable and plan.base is None
    with pytest.raises(ValueError):
        plan[0] = 1.0
    x[0] = 5.0  # the draw itself is the caller's
    assert simulate._plan(cfg)[1] is plan


def test_plan_cache_keeps_the_most_recent_plans_within_its_bytes(monkeypatch):
    # a plan at n = 64 is 65 eigenvalues (520 bytes) plus the charge per plan;
    # a budget of two such plans evicts the least recently used for a third
    small = 65 * 8 + simulate._PLAN_OVERHEAD
    monkeypatch.setattr(simulate, "_PLAN_BYTES", 2 * small + 100)
    calls = _count_model_autocov(monkeypatch)
    a, b, c = (SimConfig(kind="fracnoise", n=64, d=d) for d in (0.1, 0.2, 0.3))

    def draw(*cfgs):
        del calls[:]
        for cfg in cfgs:
            simulate_series(cfg, np.random.default_rng(18))
        return len(calls)

    assert draw(a, b, a) == 2          # a is now the most recent
    assert draw(c) == 1                # evicts b
    assert draw(a, c) == 0
    assert draw(b) == 1                # evicts a
    assert draw(c, b) == 0
    # a plan charged more than the whole budget is built and not kept, and
    # keeps nothing else out
    big = SimConfig(kind="fracnoise", n=4096, d=0.3)
    assert draw(big, big) == 2
    assert draw(c, b) == 0


def test_plan_cache_under_threads(monkeypatch):
    # threads drawing from more models than a small budget holds: every
    # draw keeps its bits, and the cache's byte count matches its plans
    monkeypatch.setattr(simulate, "_PLAN_BYTES", 3 * (65 * 8 + simulate._PLAN_OVERHEAD))
    cfgs = [SimConfig(kind="fracnoise", n=64, d=d) for d in (0.05, 0.1, 0.2, 0.3, 0.4)]
    want = [simulate_series(cfg, np.random.default_rng(19)).tobytes() for cfg in cfgs]
    wrong = []

    def work(j):
        for r in range(60):
            i = (j + r) % len(cfgs)
            if simulate_series(cfgs[i], np.random.default_rng(19)).tobytes() != want[i]:
                wrong.append(i)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    cache = simulate._PLANS
    assert cache._bytes == sum(b for _, b in cache._plans.values()) <= simulate._PLAN_BYTES


class _Rendezvous:
    """Holds the first thread to wait until a second thread has arrived."""

    def __init__(self):
        self._mu = threading.Lock()
        self._seen = set()
        self._second = threading.Event()

    def arrive(self):
        with self._mu:
            self._seen.add(threading.get_ident())
            if len(self._seen) > 1:
                self._second.set()

    def wait(self):
        assert self._second.wait(30.0), "no second thread arrived"


def test_plan_cache_lock_serialises_a_shared_miss(monkeypatch):
    # two threads miss the same plan and put it.  The first to check whether
    # the key is held waits there until the second has arrived, either at the
    # cache's lock (held by the first, so it blocks until the put is done) or,
    # with no lock to stop it, at the same check, which both then pass: the
    # plan would be charged twice
    meet = _Rendezvous()

    class Plans(OrderedDict):
        def __contains__(self, key):
            held = super().__contains__(key)
            meet.arrive()
            meet.wait()
            return held

    class Lock:
        def __init__(self):
            self._lock = threading.Lock()

        def __enter__(self):
            meet.arrive()
            return self._lock.__enter__()

        def __exit__(self, *exc):
            return self._lock.__exit__(*exc)

    cache = simulate._PlanCache()
    cache._plans, cache._lock = Plans(), Lock()
    monkeypatch.setattr(simulate, "_PLANS", cache)
    cfg = SimConfig(kind="fracnoise", n=64, d=0.3)
    draws, errors = [], []

    def work():
        try:
            draws.append(simulate_series(cfg, np.random.default_rng(20)).tobytes())
        except Exception as err:  # reported by the main thread
            errors.append(err)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60.0)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(draws) == 2 and draws[0] == draws[1]
    [(_, charge)] = cache._plans.values()
    assert cache._bytes == charge == 65 * 8 + simulate._PLAN_OVERHEAD


def test_plan_bytes_are_bounded():
    # a hundred plans at n = 16 384 fit
    assert 100 * (8 * (_accel._fft_size(16383) + 1) + simulate._PLAN_OVERHEAD) < simulate._PLAN_BYTES


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
