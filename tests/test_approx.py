"""Fast approximate likelihood: brute-force oracles for every ingredient."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import zeta

from dense_reference import (approx_single, build_toeplitz, cosine_series,
                             exact_single, lag_weight_sums, quadform_approx_toeplitz)
from fexpsmc import approx
from fexpsmc.approx import (_log_det_approxs, _log_g, _whittle_quadforms, approx_log_liks,
                            prepare_dataset)
from fexpsmc.exact import _autocovs
from fexpsmc.model import PriorConfig, ThetaParams, memory_d, to_arrays
from fexpsmc.simulate import SimConfig, simulate_series

TWO_PI = 2.0 * math.pi


def _quadform(th, ctx):
    """The Whittle form the likelihood runs, on the population of one theta."""
    k, t, xi = to_arrays([th])
    return float(_whittle_quadforms(k, xi, memory_d(t), ctx)[0])


def _log_det(th, n):
    """D_n as the likelihood computes it, on the population of one theta."""
    _, t, xi = to_arrays([th])
    return float(_log_det_approxs(xi, memory_d(t), n)[0])


def _full_grid(x):
    """Raw periodogram I_j and folded frequencies min(lam_j, 2 pi - lam_j)
    on the whole grid j = 1..n-1, straight from np.fft."""
    n = x.size
    pgram = np.abs(np.fft.fft(x - x.mean())[1:]) ** 2
    lam = TWO_PI * np.arange(1, n) / n
    return pgram, np.minimum(lam, TWO_PI - lam)


def _full_grid_whittle(th, x):
    """(1/(2 pi n)) sum_{j=1}^{n-1} I(lam_j) / fbar(lam_j*) over the whole grid."""
    pgram, lam_star = _full_grid(x)
    with np.errstate(over="ignore"):
        inv_fbar = TWO_PI * (2.0 - 2.0 * np.cos(lam_star)) ** th.d * np.exp(
            -cosine_series(th.xi, lam_star))
    return float(pgram @ inv_fbar) / (TWO_PI * x.size)


# ---------------------------------------------------------------------------
# Dataset context
# ---------------------------------------------------------------------------

def test_context_validates_input():
    with pytest.raises(ValueError):
        prepare_dataset(np.arange(5.0))
    with pytest.raises(ValueError):
        prepare_dataset(np.array([1.0, np.nan] + [0.0] * 10))


def test_context_centres_the_series():
    x = np.arange(16.0)
    ctx = prepare_dataset(x)
    assert abs(ctx.xtilde.mean()) < 1e-13
    assert np.allclose(ctx.xtilde, x - x.mean())


def test_lag_weight_sums_match_brute_force():
    # the T(h)-form oracle's c_j, from the context's centred series
    rng = np.random.default_rng(8)
    x = rng.standard_normal(33)
    ctx = prepare_dataset(x)
    xt = x - x.mean()
    want = np.empty(33)
    want[0] = np.sum(xt * xt)
    for j in range(1, 33):
        want[j] = 2.0 * np.sum(xt[: 33 - j] * xt[j:])
    assert np.max(np.abs(lag_weight_sums(ctx.xtilde) - want)) < 1e-10


def test_periodogram_of_pure_cosine():
    # x_t = cos(2 pi t / n) has all its energy at the first Fourier
    # frequency and its mirror: I(lam_1) = I(lam_{n-1}) = n^2 / 4, zero
    # elsewhere, so the folded periodogram is n^2 / 2 at lam_1 alone
    n = 64
    t = np.arange(n)
    x = np.cos(TWO_PI * t / n)
    ctx = prepare_dataset(x)
    full, _ = _full_grid(x)
    assert abs(full[0] - n * n / 4.0) < 1e-8
    assert abs(full[-1] - n * n / 4.0) < 1e-8
    assert abs(ctx.pgram[0] - n * n / 2.0) < 1e-8
    assert np.max(np.abs(ctx.pgram[1:])) < 1e-8


def test_periodogram_counts_nyquist_term_once():
    # x_t = cos(pi t) = (-1)^t lives at lam = pi, its own mirror for even n:
    # I(pi) = n^2 enters the folded sum once, and the flat-density form is
    # sum x~^2 = n (Parseval)
    n = 64
    x = np.cos(math.pi * np.arange(n))
    ctx = prepare_dataset(x)
    full, _ = _full_grid(x)
    assert abs(full[n // 2 - 1] - n * n) < 1e-8
    assert abs(ctx.lam_star[-1] - math.pi) < 1e-15
    assert abs(ctx.pgram[-1] - n * n) < 1e-8
    assert np.max(np.abs(ctx.pgram[:-1])) < 1e-8
    flat = ThetaParams(k=0, t=-800.0, xi=np.empty(0))
    assert abs(_quadform(flat, ctx) - n) < 1e-9 * n


def test_periodogram_matches_direct_sum():
    # the folded periodogram is I_j + I_{n-j} of the direct sums, with the
    # Nyquist term of an even n once
    rng = np.random.default_rng(2)
    for n in (24, 25):
        x = rng.standard_normal(n)
        ctx = prepare_dataset(x)
        assert ctx.pgram.shape == (n // 2,)
        xt = x - x.mean()
        t = np.arange(n)
        direct = lambda j: abs(np.sum(xt * np.exp(-1j * TWO_PI * j * t / n))) ** 2
        for j in (1, 5, n // 2):
            want = direct(j) + (direct(n - j) if 2 * j != n else 0.0)
            assert abs(ctx.pgram[j - 1] - want) < 1e-9, f"n={n}, j={j}"


def test_folded_frequencies_and_weights():
    # j and n - j fold onto one frequency; the half grid holds each once
    for n in (16, 17):
        ctx = prepare_dataset(np.random.default_rng(0).standard_normal(n))
        lam = TWO_PI * np.arange(1, n) / n
        full = np.minimum(lam, TWO_PI - lam)
        half = n // 2
        assert ctx.lam_star.shape == (half,)
        assert np.allclose(ctx.lam_star, full[:half], atol=1e-15)
        assert np.allclose(ctx.lam_star[:(n - 1) // 2], full[::-1][:(n - 1) // 2], atol=1e-15)
        assert np.allclose(ctx.logweight, np.log(2.0 - 2.0 * np.cos(full[:half])), atol=1e-13)
        assert ctx.lam_star.max() <= math.pi + 1e-12


def test_cos_basis_grows_and_caches():
    # n = 12: the folded grid holds lam_1..lam_6
    ctx = prepare_dataset(np.random.default_rng(1).standard_normal(12))
    b2 = ctx.cos_basis(2)
    assert b2.shape == (2, 6)
    b5 = ctx.cos_basis(5)
    assert b5.shape == (5, 6)
    assert np.array_equal(b5[:2], b2)
    assert np.allclose(b5[3], np.cos(4.0 * ctx.lam_star), atol=1e-15)


# ---------------------------------------------------------------------------
# Whittle quadratic form
# ---------------------------------------------------------------------------

def test_whittle_quadform_flat_density_reduces_to_power_sum():
    # fbar = 1/(2 pi) (d = 0, k = 0): Q = (1/n) sum_j I_j = sum x~^2 by Parseval
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40)
    ctx = prepare_dataset(x)
    th = ThetaParams(k=0, t=-800.0, xi=np.empty(0))
    got = _quadform(th, ctx)
    want = float(np.sum(ctx.xtilde**2))
    assert abs(got - want) < 1e-9 * want


def test_whittle_quadform_matches_direct_sum():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(30)
    ctx = prepare_dataset(x)
    th = ThetaParams(k=2, t=0.3, xi=np.array([0.4, -0.2]))
    got = _quadform(th, ctx)
    # direct: (1/(2 pi n)) sum I_j / fbar(lam_j*)
    lam = ctx.lam_star
    fb = (2.0 - 2.0 * np.cos(lam)) ** -th.d * np.exp(cosine_series(th.xi, lam)) / TWO_PI
    want = float(np.sum(ctx.pgram / fb)) / (TWO_PI * ctx.n)
    assert abs(got - want) < 1e-10 * abs(want)


def test_folded_whittle_form_matches_full_grid_sum():
    # the half grid with weights I_j + I_{n-j} (Nyquist once) sums to the
    # (n - 1)-point form; a particle whose exp(-sum xi_j cos j lam) overflows
    # on the grid is infinite in both, so its log likelihood is -inf
    prior = PriorConfig()
    blow_up = ThetaParams(k=1, t=0.0, xi=np.array([-2000.0]))
    for n in (8, 9, 10, 1000, 1001):
        x = np.random.default_rng(n).standard_normal(n)
        ctx = prepare_dataset(x)
        rng = np.random.default_rng(n + 1)
        for k in range(7):
            th = ThetaParams(k=k, t=float(rng.normal()), xi=0.5 * rng.standard_normal(k))
            want = _full_grid_whittle(th, x)
            assert abs(_quadform(th, ctx) - want) <= 1e-12 * abs(want), f"n={n}, k={k}"
        assert _full_grid_whittle(blow_up, x) == math.inf
        assert approx_single(blow_up, ctx, prior) == -math.inf


# ---------------------------------------------------------------------------
# T(h) form of the quadratic form (the Whittle form's oracle)
# ---------------------------------------------------------------------------

def test_toeplitz_quadform_is_dense_quadratic_in_inverse_density():
    # the oracle's sum_j c_j gamma_h(j) equals x~' T(h) x~ with T(h) dense
    # (h bounded)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(20)
    ctx = prepare_dataset(x)
    th = ThetaParams(k=1, t=0.1, xi=np.array([0.5]))
    got = quadform_approx_toeplitz(th, ctx, M=1024)

    from fexpsmc.fourier import half_grid, longmemory_autocovs

    lam = half_grid(1024)
    h = (2.0 - 2.0 * np.cos(lam)) ** th.d * np.exp(-cosine_series(th.xi, lam)) / TWO_PI
    gam = longmemory_autocovs(0.0, h, 20)
    T = build_toeplitz(gam)
    want = float(ctx.xtilde @ T @ ctx.xtilde)
    assert abs(got - want) < 1e-9 * abs(want)


def test_whittle_and_toeplitz_modes_agree_moderately():
    # the Whittle form is a Riemann sum of the T(h) form; on a well-behaved
    # series they agree to about a percent
    rng = np.random.default_rng(77)
    sim = SimConfig(kind="fracnoise", n=512, d=0.25, sigma2=1.0)
    x = simulate_series(sim, rng)
    ctx = prepare_dataset(x)
    for seed in range(5):
        r = np.random.default_rng(seed + 100)
        k = int(r.integers(0, 3))
        th = ThetaParams(k=k, t=float(r.normal()), xi=r.normal(scale=0.3, size=k))
        qw = _quadform(th, ctx)
        qt = quadform_approx_toeplitz(th, ctx)
        assert abs(qw - qt) / abs(qt) < 0.03, f"seed={seed}: {qw} vs {qt}"


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def test_barnes_g_special_values():
    got = _log_g(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.all(np.abs(got[:3]) < 1e-13)
    assert abs(got[3] - math.log(2.0)) < 1e-12


def test_barnes_g_functional_equation():
    # log G(x+1) - log G(x) = log Gamma(x) across the shift range
    x = np.linspace(0.1, 2.5, 40)
    resid = _log_g(x + 1.0) - _log_g(x) - [math.lgamma(v) for v in x]
    assert np.all(np.abs(resid) < 1e-10), x[np.abs(resid) >= 1e-10]


def test_barnes_g_matches_mpmath():
    mpmath.mp.dps = 30
    x = np.array([0.05, 0.3, 0.5, 0.75, 1.25, 1.9, 2.6, 3.7])
    want = np.array([float(mpmath.log(mpmath.barnesg(v))) for v in x])
    err = np.abs(_log_g(x) - want)
    assert np.all(err < 1e-11 * np.maximum(1.0, np.abs(want))), x[err >= 1e-11]


def test_zeta_table_is_scipys_zeta():
    # the Taylor coefficients of log G were computed from these doubles
    assert approx._ZETA == tuple(zeta(np.arange(2.0, 56.0)))


@given(st.floats(0.0, 0.5, exclude_min=True))
@example(5e-324)
@example(0.5)
def test_lgamma_below_one_half_matches_mpmath(x):
    # _log_g shifts an argument below 1/2 up by one with math.lgamma
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(x))
    eps = np.finfo(float).eps
    assert abs(math.lgamma(x) - want) <= 8.0 * eps * max(1.0, abs(want))


@pytest.mark.parametrize("grid", [np.linspace(0.0, 0.5, 26)[1:-1],
                                  np.linspace(0.5, 1.5, 21),
                                  np.linspace(1.5, 4.0, 26)[1:]])
def test_barnes_g_array_matches_mpmath(grid):
    mpmath.mp.dps = 30
    want = np.array([float(mpmath.log(mpmath.barnesg(x))) for x in grid])
    got = _log_g(grid)
    assert got.shape == grid.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    # each element gets the value it gets alone
    alone = [_log_g(grid[i:i + 1])[0] for i in range(grid.size)]
    assert np.array_equal(got, alone)


# ---------------------------------------------------------------------------
# Log-determinant approximation
# ---------------------------------------------------------------------------

def test_log_det_approx_at_d_zero_single_coefficient():
    # d = 0, k = 1: D_n = xi^2 / 4 (Barnes terms cancel: G(1)^2/G(1) = 1)
    th = ThetaParams(k=1, t=-800.0, xi=np.array([0.8]))
    assert abs(_log_det(th, 1000) - 0.8**2 / 4.0) < 1e-12


def test_log_det_approx_tracks_dense_log_determinant():
    # the asymptotic form approaches the true log|T(fbar)| at rate o(n)
    for d_true in (0.1, 0.3):
        th = ThetaParams(k=1,
                         t=math.log(2 * d_true / (1 - 2 * d_true)),
                         xi=np.array([0.4]))
        n = 256
        acf = _autocovs(*to_arrays([th]), n)[0]
        T = build_toeplitz(acf)
        sign, logdet = np.linalg.slogdet(T)
        assert sign > 0
        err = abs(_log_det(th, n) - logdet) / n
        assert err < 0.02, f"d={d_true}: per-row error {err}"


# ---------------------------------------------------------------------------
# Full approximate likelihood
# ---------------------------------------------------------------------------

def _toeplitz_form_log_lik(th, ctx, prior):
    """The approximate log likelihood with the T(h) form of the oracle as Q."""
    q = quadform_approx_toeplitz(th, ctx)
    return -0.5 * _log_det(th, ctx.n) - (prior.a + 0.5 * ctx.n) * math.log(
        prior.b + 0.5 * q)


def test_approx_log_lik_modes_agree_within_amplified_tolerance():
    # a relative difference delta between the Whittle and the T(h) form
    # moves the log likelihood by about (a + n/2) * delta; with delta ~ 1% at
    # n = 256 that is ~1.3 log units, so 2.0 is the honest bound here
    rng = np.random.default_rng(30)
    sim = SimConfig(kind="fracnoise", n=256, d=0.2)
    x = simulate_series(sim, rng)
    ctx = prepare_dataset(x)
    prior = PriorConfig()
    for seed in range(5):
        r = np.random.default_rng(seed)
        k = int(r.integers(0, 3))
        th = ThetaParams(k=k, t=float(r.normal()), xi=r.normal(scale=0.3, size=k))
        lw = approx_single(th, ctx, prior)
        lt = _toeplitz_form_log_lik(th, ctx, prior)
        assert abs(lw - lt) < 2.0, f"seed={seed}: {lw} vs {lt}"


def test_approx_log_lik_tracks_exact_up_to_constant():
    # theta-dependence of the approximation follows the exact marginal:
    # differences of log-likelihoods across thetas agree within ~1 unit
    rng = np.random.default_rng(31)
    sim = SimConfig(kind="fracnoise", n=512, d=0.25)
    x = simulate_series(sim, rng)
    ctx = prepare_dataset(x)
    prior = PriorConfig()
    thetas = [
        ThetaParams(k=0, t=math.log(0.5 / 0.5), xi=np.empty(0)),      # d = 1/4
        ThetaParams(k=0, t=math.log(0.8 / 1.2), xi=np.empty(0)),      # d = 0.2
        ThetaParams(k=1, t=0.0, xi=np.array([0.3])),
        ThetaParams(k=2, t=-0.5, xi=np.array([0.2, -0.1])),
    ]
    la = np.array([approx_single(th, ctx, prior) for th in thetas])
    le = np.array([exact_single(th, x, prior) for th in thetas])
    centred_a = la - la[0]
    centred_e = le - le[0]
    assert np.max(np.abs(centred_a - centred_e)) < 1.0


def _reference_log_lik(th, ctx, prior):
    """Scalar reference: oracle-free loop over the formula, with mpmath's G
    and the Whittle form summed over the whole (n - 1)-point grid."""
    q = _full_grid_whittle(th, ctx.x)
    if not math.isfinite(q):
        return -math.inf
    d = th.d
    j = np.arange(1, th.k + 1)
    dn = (d * d * math.log(ctx.n) + 0.25 * float(j @ th.xi**2) + d * float(j @ th.xi)
          + 2.0 * float(mpmath.log(mpmath.barnesg(1.0 - d)))
          - float(mpmath.log(mpmath.barnesg(1.0 - 2.0 * d))))
    return -0.5 * dn - (prior.a + 0.5 * ctx.n) * math.log(prior.b + 0.5 * q)


def test_approx_log_liks_matches_scalar_path_across_blocks(monkeypatch):
    mpmath.mp.dps = 30
    x = simulate_series(SimConfig(kind="fracnoise", n=96, d=0.3),
                        np.random.default_rng(17))
    ctx = prepare_dataset(x)
    prior = PriorConfig()
    rng = np.random.default_rng(18)
    thetas = [ThetaParams(k=k, t=float(rng.normal()), xi=0.4 * rng.standard_normal(k))
              for k in (0, 3, 1, 6, 0, 2, 5, 1)]
    # exp(800 cos lam) overflows near lam = 0: this particle scores -inf
    thetas.insert(4, ThetaParams(k=1, t=0.0, xi=np.array([-800.0])))
    monkeypatch.setattr(approx, "BLOCK_ROWS", 4)  # blocks of 4, 4 and 1
    got = approx_log_liks(*to_arrays(thetas), ctx, prior)
    assert got.shape == (len(thetas),)
    assert got[4] == -math.inf
    alone = [approx_single(th, ctx, prior) for th in thetas]
    assert np.array_equal(got, alone)
    want = np.array([_reference_log_lik(th, ctx, prior) for th in thetas])
    live = np.isfinite(want)
    assert np.array_equal(live, np.isfinite(got))
    assert np.allclose(got[live], want[live], rtol=1e-12, atol=0.0)


def test_approx_side_at_d_one_half_is_minus_inf():
    # t = 37 rounds d to 1/2 exactly: G(1 - 2d) = G(0) = 0, so D_n = inf
    pole = ThetaParams(k=1, t=37.0, xi=np.array([0.3]))
    assert pole.d == 0.5
    x = simulate_series(SimConfig(kind="fracnoise", n=64, d=0.3), np.random.default_rng(19))
    ctx = prepare_dataset(x)
    prior = PriorConfig()
    thetas = [ThetaParams(k=0, t=0.2, xi=np.empty(0)), pole,
              ThetaParams(k=2, t=-1.0, xi=np.array([0.5, -0.2]))]
    got = approx_log_liks(*to_arrays(thetas), ctx, prior)
    assert got[1] == -math.inf
    assert approx_single(pole, ctx, prior) == -math.inf
    assert _log_det(pole, 64) == math.inf
    assert got[[0, 2]].tolist() == [approx_single(th, ctx, prior)
                                     for th in (thetas[0], thetas[2])]
