"""End-to-end acceptance checks for the whole pipeline.

Each test covers one acceptance criterion at full scale, against an
independent oracle where one exists, and prints exactly one
``[PASS]``/``[FAIL]`` line with the measured quantity, its threshold and
the wall time (run with ``pytest -s`` to see the lines as they happen).
The slow tests are the sampler-scale ones at the bottom; the whole module
finishes in roughly ten minutes on one core.
"""

import logging
import math
import time

import numpy as np
from scipy import stats as sps
from scipy.special import gammaln

from dense_reference import build_toeplitz
from fexpsmc.approx import (approx_log_lik, log_barnes_g, log_det_approx,
                            prepare_dataset, quadform_approx_toeplitz,
                            quadform_whittle)
from fexpsmc.correction import correction_weights
from fexpsmc.exact import exact_log_marglik, fbar_autocov
from fexpsmc.fourier import fourier_coeffs_longmemory
from fexpsmc.mcmc import RW_SCALE2, run_mcmc
from fexpsmc.model import PriorConfig, ThetaParams, sample_prior
from fexpsmc.simulate import SimConfig, simulate_series
from fexpsmc.smc import SmcConfig, run_smc

PRIOR = PriorConfig()


def _check(label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _logit2d(d):
    return math.log(2.0 * d / (1.0 - 2.0 * d))


def _posterior_weights(ps):
    w = np.exp(ps.log_weights - ps.log_weights.max())
    return w / w.sum()


# ---------------------------------------------------------------------------
# 1. Long-memory Fourier coefficients against a composite-Simpson oracle
# ---------------------------------------------------------------------------

def test_01_longmemory_fourier_coefficients_match_quadrature_oracle():
    t0 = time.time()
    d, xi = 0.3, np.array([0.5, -0.3])

    def g(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(xi[0] * np.cos(lam) + xi[1] * np.cos(2 * lam)) / (2 * np.pi)

    got = fourier_coeffs_longmemory(d, g, 64, M=1024)

    # oracle, part 1: the pole factor integrates in closed form through
    # plain log-Gamma ratios (no recurrence shared with the implementation)
    g0 = float(g(0.0))
    lags = np.arange(64)
    log_a = (gammaln(lags + d) + gammaln(1 - 2 * d)
             - gammaln(lags + 1 - d) - gammaln(1 - d) - gammaln(d))
    oracle = g0 * 2.0 * np.pi * np.exp(log_a)

    # oracle, part 2: the remainder (2-2cos)^(-d) (g - g(0)) is continuous
    # and vanishes at 0; composite Simpson on 10^6 points over [0, pi],
    # doubled by evenness
    npts = 1_000_001
    lam = np.linspace(0.0, math.pi, npts)
    base = np.empty_like(lam)
    base[1:] = (2 - 2 * np.cos(lam[1:])) ** (-d) * (g(lam[1:]) - g0)
    base[0] = 0.0
    wsimp = np.ones(npts)
    wsimp[1:-1:2] = 4.0
    wsimp[2:-1:2] = 2.0
    h = lam[1] - lam[0]
    for l in lags:
        oracle[l] += 2.0 * (h / 3.0) * float(np.sum(wsimp * base * np.cos(l * lam)))

    rel0 = abs(got[0] - oracle[0]) / abs(oracle[0])
    rest = float(np.max(np.abs(got[1:] - oracle[1:]))) / abs(oracle[0])
    elapsed = time.time() - t0
    _check(
        "fourier coefficients vs Simpson oracle",
        rel0 <= 1e-5 and rest <= 1e-5 and elapsed < 5.0,
        f"lag-0 rel err {rel0:.2e} and max scaled err {rest:.2e} "
        f"(tol 1e-5 each), {elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# 2. Cholesky marginal likelihood against an eigendecomposition oracle
# ---------------------------------------------------------------------------

def test_02_cholesky_marginal_likelihood_matches_eigen_oracle():
    t0 = time.time()
    n = 32
    rng = np.random.default_rng(14)
    x = rng.standard_normal(n)
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(0, 4))
        th = ThetaParams(k=k, t=rng.normal(), xi=rng.normal(0, 0.5, k))
        got = exact_log_marglik(th, x, PRIOR)

        acf = fbar_autocov(th, n)
        sigma = build_toeplitz(acf, ridge=1.0 / PRIOR.g_mu)
        evals, evecs = np.linalg.eigh(sigma)
        r = evecs.T @ (x - PRIOR.m_mu)
        q = float(np.sum(r * r / evals))
        want = (-0.5 * float(np.sum(np.log(evals)))
                - (PRIOR.a + n / 2.0) * math.log(PRIOR.b + q / 2.0))
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    _check(
        "exact likelihood vs eigen oracle",
        worst <= 1e-8 and elapsed < 1.0,
        f"max abs diff {worst:.2e} over 5 draws at n=32 (tol 1e-8), "
        f"{elapsed:.1f}s (budget 1s)",
    )


# ---------------------------------------------------------------------------
# 3. Variance of the correction log weights shrinks with series length
# ---------------------------------------------------------------------------

def test_03_log_weight_variance_shrinks_with_series_length():
    t0 = time.time()
    d_true = 0.2
    t_true = _logit2d(d_true)
    variances = []
    for n in (128, 512, 2048):
        rng = np.random.default_rng(2026)
        x = simulate_series(SimConfig(kind="fracnoise", n=n, d=d_true), rng)
        ctx = prepare_dataset(x)
        # draws localized around the truth at the root-n posterior rate:
        # the same standardized draws at every n, scaled by sqrt(128/n)
        scale = math.sqrt(128.0 / n)
        draw = np.random.default_rng(7)
        log_w = np.empty(200)
        for i in range(200):
            k = int(draw.integers(0, 3))
            t = t_true + draw.normal(0.0, 0.25 * scale)
            xi = draw.normal(0.0, 0.10 * scale, k) / np.maximum(
                1, np.arange(1, k + 1))
            th = ThetaParams(k=k, t=t, xi=xi)
            log_w[i] = (exact_log_marglik(th, x, PRIOR)
                        - approx_log_lik(th, ctx, PRIOR))
        variances.append(float(np.var(log_w)))
    elapsed = time.time() - t0
    decreasing = variances[0] > variances[1] > variances[2]
    _check(
        "log-weight variance decreases in n",
        decreasing and elapsed < 120.0,
        f"Var(log w) = {variances[0]:.4g} (n=128) > {variances[1]:.4g} "
        f"(n=512) > {variances[2]:.4g} (n=2048): {decreasing}, "
        f"{elapsed:.0f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 5. Whittle and Toeplitz quadratic forms agree at n = 1024
# ---------------------------------------------------------------------------

def test_05_whittle_and_toeplitz_quadforms_agree():
    t0 = time.time()
    rng = np.random.default_rng(42)
    x = simulate_series(SimConfig(kind="fracnoise", n=1024, d=0.2), rng)
    ctx = prepare_dataset(x)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(0, 5))
        d = rng.uniform(0.05, 0.45)
        xi = rng.normal(0.0, 0.3, k) / np.maximum(1, np.arange(1, k + 1))
        th = ThetaParams(k=k, t=_logit2d(d), xi=xi)
        qw = quadform_whittle(th, ctx)
        qt = quadform_approx_toeplitz(th, ctx)
        worst = max(worst, abs(qw - qt) / qt)
    elapsed = time.time() - t0
    _check(
        "whittle vs toeplitz quadratic form",
        worst <= 0.01 and elapsed < 30.0,
        f"worst relative difference {worst:.3%} over 20 draws at n=1024 "
        f"(tol 1%), {elapsed:.0f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 6. The trans-dimensional chain at gamma = 0 reproduces the prior
# ---------------------------------------------------------------------------

def test_06_prior_chain_reproduces_marginals():
    t0 = time.time()
    scales = {}
    for k in range(PRIOR.k_max + 1):
        var = [math.pi ** 2 / 3] + [PRIOR.xi_var(j) for j in range(1, k + 1)]
        scales[k] = np.linalg.cholesky((RW_SCALE2 / (k + 1)) * np.diag(var))
    res = run_mcmc(lambda th: 0.0, PRIOR, steps=250_000, gamma=0.0, seed=3,
                   scales=scales)

    ks_stat = sps.kstest(res["d"], sps.uniform(loc=0, scale=0.5).cdf).statistic

    k_thin = res["k"][::50]  # near-independent draws for the count test
    obs = np.bincount(np.minimum(k_thin, 9), minlength=10)
    p = PRIOR.geom_p
    mass = np.array([p * (1 - p) ** j for j in range(9)] + [(1 - p) ** 9])
    _, pval = sps.chisquare(obs, mass * k_thin.size)
    elapsed = time.time() - t0
    _check(
        "prior-chain marginals",
        ks_stat < 0.01 and pval > 0.01 and elapsed < 120.0,
        f"KS(d vs U(0, 1/2)) = {ks_stat:.4f} (< 0.01), geometric-k "
        f"chi-square p = {pval:.3f} (> 0.01) over 2.5e5 steps, "
        f"{elapsed:.0f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 8. Corrected importance sampling matches grid quadrature on a tiny case
# ---------------------------------------------------------------------------

def test_08_corrected_estimate_matches_grid_quadrature():
    t0 = time.time()
    logging.getLogger("fexpsmc.correction").setLevel(logging.ERROR)
    n = 32
    rng = np.random.default_rng(321)
    x = simulate_series(SimConfig(kind="fexp", n=n, d=0.2, xi=[0.4]), rng)
    ctx = prepare_dataset(x)

    # 2-d midpoint-grid quadrature of the exact posterior over (d, xi_1);
    # d is uniform on (0, 1/2) under the prior, so only the xi density and
    # the exact likelihood enter the integrand
    gd, gxi = 120, 320
    d_grid = (np.arange(gd) + 0.5) * (0.5 / gd)
    xi_grid = np.linspace(-12.0, 12.0, gxi)
    logpost = np.empty((gd, gxi))
    for i, dv in enumerate(d_grid):
        tv = _logit2d(dv)
        for j, xiv in enumerate(xi_grid):
            th = ThetaParams(k=1, t=tv, xi=np.array([xiv]))
            logpost[i, j] = (exact_log_marglik(th, x, PRIOR)
                             - 0.5 * xiv ** 2 / PRIOR.xi_var(1))
    post = np.exp(logpost - logpost.max())
    d_quad = float((post.sum(axis=1) @ d_grid) / post.sum())

    # corrected importance sampling from 2000 prior draws at frozen k = 1
    draw = np.random.default_rng(5)
    thetas = [sample_prior(PRIOR, draw, fix_k=1) for _ in range(2000)]
    base = np.array([approx_log_lik(th, ctx, PRIOR) for th in thetas])
    corr = correction_weights(thetas, x, PRIOR, seed=0)
    total = base + corr.log_w_raw
    w = np.exp(total - total.max())
    w /= w.sum()
    dvals = np.array([th.d for th in thetas])
    d_is = float(w @ dvals)
    sigma = math.sqrt(float(np.sum(w ** 2 * (dvals - d_is) ** 2)))
    elapsed = time.time() - t0
    _check(
        "corrected estimate vs quadrature",
        abs(d_is - d_quad) <= 3.0 * sigma and elapsed < 120.0,
        f"E[d|x]: sampler {d_is:.4f} vs grid {d_quad:.4f}, "
        f"|diff| {abs(d_is - d_quad):.4f} <= 3 sigma = {3 * sigma:.4f}, "
        f"{elapsed:.0f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 9. Determinant asymptotics and the log-Barnes-G identities
# ---------------------------------------------------------------------------

def test_09_determinant_asymptotics_and_barnes_identities():
    t0 = time.time()
    n = 256
    worst = 0.0
    for d in (0.1, 0.3):
        th = ThetaParams(k=0, t=_logit2d(d), xi=np.empty(0))
        dn = log_det_approx(th, n)
        _, logdet = np.linalg.slogdet(build_toeplitz(fbar_autocov(th, n)))
        worst = max(worst, abs(dn - logdet) / n)

    ident = max(abs(log_barnes_g(1.0)), abs(log_barnes_g(2.0)),
                abs(log_barnes_g(3.0)))
    resid = 0.0
    for z in np.linspace(0.1, 2.5, 25):
        resid = max(resid, abs(log_barnes_g(z + 1.0) - log_barnes_g(z)
                               - gammaln(z)))
    elapsed = time.time() - t0
    _check(
        "determinant asymptotics and Barnes identities",
        worst <= 0.02 and ident <= 1e-12 and resid <= 1e-10 and elapsed < 10.0,
        f"max |D_n - logdet|/n = {worst:.4f} (tol 0.02) at n=256, "
        f"|log G(1..3)| <= {ident:.1e} (tol 1e-12), functional residual "
        f"{resid:.1e} (tol 1e-10), {elapsed:.0f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 7. Independent SMC runs behave almost like iid sampling
# ---------------------------------------------------------------------------

def test_07_smc_runs_have_near_iid_variance():
    t0 = time.time()
    rng = np.random.default_rng(123)
    x = simulate_series(SimConfig(kind="fracnoise", n=1000, d=0.25), rng)
    means, within = [], []
    for seed in range(10):
        ps = run_smc(x, PRIOR, SmcConfig(N=500, M=10, seed=seed))
        w = _posterior_weights(ps)
        dv = np.array([th.d for th in ps.thetas])
        mu = float(w @ dv)
        means.append(mu)
        within.append(float(w @ (dv - mu) ** 2))
    across = float(np.std(means, ddof=1))
    bound = 2.0 * math.sqrt(float(np.mean(within)) / 500.0)
    elapsed = time.time() - t0
    _check(
        "near-iid across-run variance",
        across <= bound and elapsed < 1800.0,
        f"across-run std {across:.5f} <= 2 sqrt(within-var/N) = {bound:.5f} "
        f"over 10 runs (N=500, n=1000), {elapsed:.0f}s (budget 1800s)",
    )


# ---------------------------------------------------------------------------
# 10. End-to-end posterior shape on ARFIMA(1, 0.45, 1) data
# ---------------------------------------------------------------------------

def test_10_arfima_end_to_end_posterior_shape():
    t0 = time.time()
    rng = np.random.default_rng(2)
    x = simulate_series(
        SimConfig(kind="arfima", n=4000, d=0.45, phi=[-0.9], theta_ma=[-0.2]),
        rng,
    )
    ps = run_smc(x, PRIOR, SmcConfig(N=500, M=20, seed=0))
    w = _posterior_weights(ps)
    dv = np.array([th.d for th in ps.thetas])
    mass = float(w[(dv > 0.2) & (dv < 0.5)].sum())
    k_weight = {}
    for th, wv in zip(ps.thetas, w):
        k_weight[th.k] = k_weight.get(th.k, 0.0) + float(wv)
    mode_k = max(k_weight, key=k_weight.get)
    elapsed = time.time() - t0
    _check(
        "long-memory ARFIMA posterior shape",
        mass >= 0.90 and mode_k >= 3 and elapsed < 1200.0,
        f"d-mass in (0.2, 0.5) = {mass:.3f} (>= 0.90), mode k = {mode_k} "
        f"(>= 3) at n=4000, N=500, M=20, {elapsed:.0f}s (budget 1200s)",
    )


# ---------------------------------------------------------------------------
# 4. Correction effective sample size at production scale
# ---------------------------------------------------------------------------

def test_04_correction_ess_at_scale():
    t0 = time.time()
    rng = np.random.default_rng(0)
    x = simulate_series(SimConfig(kind="fracnoise", n=3000, d=0.3), rng)
    ps = run_smc(x, PRIOR, SmcConfig(N=1000, M=10, seed=0))
    corr = correction_weights(ps.thetas, x, PRIOR, seed=0)
    ess = corr.ess_fraction * corr.indices.size
    elapsed = time.time() - t0
    _check(
        "correction ESS at n=3000",
        ess >= 800.0 and elapsed < 900.0,
        f"ESS = {ess:.0f} of 1000 particles (>= 800), "
        f"{elapsed:.0f}s (budget 900s)",
    )
