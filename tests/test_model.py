"""Model densities, parameter containers and the hierarchical prior."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.integrate import quad

from fexpsmc import approx, exact, model
from fexpsmc.model import (PriorConfig, ThetaParams, arfima_sdf, fexp_sdf,
                           log_prior, sample_prior, to_arrays)
from particle_reference import log_prior as _direct_log_prior

TWO_PI = 2.0 * math.pi


def _log_prior(theta, prior):
    """log_prior of a population of one."""
    return float(log_prior(*to_arrays([theta]), prior)[0])


# ---------------------------------------------------------------------------
# Parameter container
# ---------------------------------------------------------------------------

def test_theta_validates_dimensions():
    with pytest.raises(ValueError):
        ThetaParams(k=2, t=0.0, xi=np.array([1.0]))
    with pytest.raises(ValueError):
        ThetaParams(k=0, t=math.inf, xi=np.empty(0))


def test_memory_parameter_is_half_sigmoid():
    for t in (-3.0, 0.0, 1.7):
        th = ThetaParams(k=0, t=t, xi=np.empty(0))
        assert abs(th.d - 0.5 / (1.0 + math.exp(-t))) < 1e-15


def test_memory_parameter_stable_at_extreme_t():
    assert ThetaParams(k=0, t=-800.0, xi=np.empty(0)).d == 0.0
    assert abs(ThetaParams(k=0, t=800.0, xi=np.empty(0)).d - 0.5) < 1e-15


def test_theta_copy_is_independent():
    th = ThetaParams(k=1, t=0.0, xi=np.array([1.0]))
    cp = th.copy()
    cp.xi[0] = 9.0
    assert th.xi[0] == 1.0


def test_theta_key_distinguishes_parameters():
    a = ThetaParams(k=1, t=0.0, xi=np.array([1.0]))
    b = ThetaParams(k=1, t=0.0, xi=np.array([1.0 + 1e-16]))
    c = ThetaParams(k=1, t=0.0, xi=np.array([2.0]))
    assert a.key() == b.key() or a.xi[0] != b.xi[0]
    assert a.key() != c.key()
    assert a.key() == a.copy().key()


# ---------------------------------------------------------------------------
# Spectral densities
# ---------------------------------------------------------------------------

def _fexp_sdf(d, xi, lam):
    """fexp_sdf of one row."""
    xi = np.asarray(xi, dtype=float)
    return fexp_sdf(np.array([xi.size]), np.array([d]), xi[None], lam)[0]


def test_fexp_sdf_hand_value():
    # at lam = pi/2: |1-e^{-i lam}|^2 = 2, cos(lam) = 0, cos(2 lam) = -1
    d, xi = 0.25, np.array([0.5, -0.3])
    got = _fexp_sdf(d, xi, np.array([math.pi / 2]))[0]
    want = 2.0 ** (-0.25) * math.exp(0.3) / TWO_PI
    assert abs(got - want) < 1e-14


def test_fexp_sdf_without_short_memory_is_pure_pole():
    lam = np.linspace(0.1, 3.1, 25)
    got = _fexp_sdf(0.3, np.empty(0), lam)
    want = (2.0 - 2.0 * np.cos(lam)) ** (-0.3) / TWO_PI
    assert np.max(np.abs(got - want)) < 1e-14


def test_fexp_sdf_integrates_to_fracdiff_variance():
    # 2 int_0^pi fbar = gamma(0) of fractional noise when xi = 0
    from fexpsmc.fourier import fracdiff_acf
    d = 0.2
    val, err = quad(lambda lam: _fexp_sdf(d, np.empty(0), np.array([lam]))[0],
                    0.0, math.pi, points=[0.0], limit=200)
    assert abs(2.0 * val - fracdiff_acf(d, 0)) < 1e-8


def _stacked_cosine_sums(k, xi, basis):
    """cosine_sums with every order, order 1 too, as one stacked product."""
    series = np.zeros((k.size, basis.shape[1]))
    for kk, rows in model.rows_by_order(k).items():
        if kk:
            series[rows] = np.matmul(xi[rows, None, :kk], basis[:kk])[:, 0]
    return series


@pytest.mark.parametrize("rows", [1, 2, 6, 64])
@pytest.mark.parametrize("orders", [(1,), (0, 1, 2, 1, 3)], ids=["order1", "mixed"])
def test_order_one_cosine_sums_are_the_stacked_product(rows, orders, monkeypatch):
    # order-1 rows are an elementwise product; they equal the stacked
    # product (up to the sign of a zero) and give the same likelihood and
    # autocovariance bits, exact and signed zeros among the coefficients
    rng = np.random.default_rng(rows)
    k = np.resize(np.array(orders), rows)
    xi = rng.normal(scale=2.0, size=(rows, 3)) * (np.arange(3) < k[:, None])
    xi[k == 1, 0] = np.resize([0.0, -0.0, 1.5, -0.7], int(np.sum(k == 1)))
    t = rng.normal(scale=1.5, size=rows)
    lam = np.linspace(0.0, math.pi, 301)
    basis = np.cos(np.outer(np.arange(1, 4), lam))
    assert np.array_equal(model.cosine_sums(k, xi, basis), _stacked_cosine_sums(k, xi, basis))
    x = np.random.default_rng(0).standard_normal(300)
    ctx, prior = approx.prepare_dataset(x), PriorConfig()
    new = approx.approx_log_liks(k, t, xi, ctx, prior), exact._autocovs(k, t, xi, 300)
    monkeypatch.setattr(approx, "cosine_sums", _stacked_cosine_sums)
    monkeypatch.setattr(exact, "cosine_sums", _stacked_cosine_sums)
    old = approx.approx_log_liks(k, t, xi, ctx, prior), exact._autocovs(k, t, xi, 300)
    assert new[0].tobytes() == old[0].tobytes()
    assert new[1].tobytes() == old[1].tobytes()


def test_arfima_sdf_matches_complex_polynomial_oracle():
    d, phi, theta_ma, sigma2 = 0.3, np.array([0.5]), np.array([0.2]), 2.0
    lam = np.linspace(0.2, 3.0, 9)
    z = np.exp(-1j * lam)
    want = (sigma2 / TWO_PI
            * np.abs(1.0 - np.exp(-1j * lam)) ** (-2.0 * d)
            * np.abs(1.0 + 0.2 * z) ** 2 / np.abs(1.0 - 0.5 * z) ** 2)
    got = arfima_sdf(d, phi, theta_ma, sigma2, lam)
    assert np.max(np.abs(got - want) / want) < 1e-13


def test_arfima_sdf_reduces_to_white_noise():
    lam = np.linspace(0.1, 3.0, 5)
    got = arfima_sdf(0.0, np.empty(0), np.empty(0), 3.0, lam)
    assert np.allclose(got, 3.0 / TWO_PI, rtol=1e-14)


# ---------------------------------------------------------------------------
# Prior density
# ---------------------------------------------------------------------------

def test_log_prior_hand_value_at_origin():
    prior = PriorConfig()
    th = ThetaParams(k=0, t=0.0, xi=np.empty(0))
    want = math.log(0.2) + math.log(0.25)  # P(k=0) and p(t=0) = 1/4
    assert abs(_log_prior(th, prior) - want) < 1e-14


def test_log_prior_k_one_includes_gaussian_term():
    prior = PriorConfig()
    x = 1.3
    th = ThetaParams(k=1, t=0.5, xi=np.array([x]))
    s = 1.0 / (1.0 + math.exp(-0.5))
    want = (math.log(0.2) + math.log(0.8)
            + math.log(s * (1.0 - s))
            - 0.5 * math.log(TWO_PI * 100.0) - 0.5 * x * x / 100.0)
    assert abs(_log_prior(th, prior) - want) < 1e-13


def test_log_prior_beyond_k_max_is_minus_inf():
    prior = PriorConfig(k_max=3)
    th = ThetaParams(k=4, t=0.0, xi=np.zeros(4))
    assert _log_prior(th, prior) == -math.inf


@given(k=st.integers(0, 8), t=st.floats(-40.0, 40.0),
       xi=st.lists(st.floats(-50.0, 50.0), min_size=8, max_size=8),
       geom_p=st.floats(0.01, 0.99), xi_var0=st.floats(1e-3, 1e3), beta=st.floats(0.0, 3.0))
def test_log_prior_is_bitwise_the_direct_formula(k, t, xi, geom_p, xi_var0, beta):
    # the cached per-order constants give the per-term arithmetic exactly,
    # at k = k_max, beyond it, and after the prior is changed in place
    prior = PriorConfig(k_max=6)
    th = ThetaParams(k=k, t=t, xi=np.array(xi[:k]))
    assert _log_prior(th, prior) == _direct_log_prior(th, prior)
    prior.geom_p, prior.xi_var0, prior.beta = geom_p, xi_var0, beta
    assert _log_prior(th, prior) == _direct_log_prior(th, prior)
    prior.k_max = 8
    assert _log_prior(th, prior) == _direct_log_prior(th, prior)


def test_prior_t_density_integrates_to_one():
    prior = PriorConfig()
    th = lambda t: ThetaParams(k=0, t=t, xi=np.empty(0))
    dens = lambda t: math.exp(_log_prior(th(t), prior)) / 0.2  # strip P(k=0)
    val, err = quad(dens, -40.0, 40.0, limit=200)
    assert abs(val - 1.0) < 1e-9


def test_prior_xi_variance_decays_with_order():
    prior = PriorConfig(xi_var0=100.0, beta=1.0)
    assert prior.xi_var(1) == 100.0
    assert abs(prior.xi_var(2) - 25.0) < 1e-13
    assert abs(prior.xi_var(5) - 4.0) < 1e-13


def test_birth_density_is_the_marginal_prior_factor():
    prior = PriorConfig()
    # adding the k-th coordinate shifts log_prior by exactly the birth
    # density, the N(0, v_2) log density of the new coordinate, plus the
    # order-prior step
    val = 0.37
    th0 = ThetaParams(k=1, t=0.2, xi=np.array([1.0]))
    th1 = ThetaParams(k=2, t=0.2, xi=np.array([1.0, val]))
    diff = _log_prior(th1, prior) - _log_prior(th0, prior)
    v = prior.xi_var0 * 2.0 ** (-2.0 * prior.beta)
    birth = -0.5 * math.log(2.0 * math.pi * v) - 0.5 * val * val / v
    assert abs(diff - (birth + math.log1p(-prior.geom_p))) < 1e-13


# ---------------------------------------------------------------------------
# Prior sampling
# ---------------------------------------------------------------------------

def test_sample_prior_marginals():
    prior = PriorConfig()
    rng = np.random.default_rng(123)
    n = 20_000
    ks = np.empty(n)
    ds = np.empty(n)
    xi1 = []
    for i in range(n):
        th = sample_prior(prior, rng)
        ks[i] = th.k
        ds[i] = th.d
        if th.k >= 1:
            xi1.append(th.xi[0])
    # k ~ Geometric(0.2) on {0,1,...}: mean 4, P(k=0) = 0.2
    assert abs(ks.mean() - 4.0) < 0.1
    assert abs((ks == 0).mean() - 0.2) < 0.01
    # d ~ U[0, 1/2]
    assert abs(ds.mean() - 0.25) < 0.004
    assert abs(np.quantile(ds, 0.5) - 0.25) < 0.01
    assert ds.min() >= 0.0 and ds.max() <= 0.5
    # xi_1 ~ N(0, 100)
    xi1 = np.array(xi1)
    assert abs(xi1.mean()) < 4.0 * 10.0 / math.sqrt(xi1.size)
    assert abs(xi1.std() - 10.0) < 0.2


def test_sample_prior_respects_fix_k_and_k_max():
    prior = PriorConfig(k_max=6)
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert sample_prior(prior, rng).k <= 6
    th = sample_prior(prior, rng, fix_k=3)
    assert th.k == 3 and th.xi.size == 3
    with pytest.raises(ValueError):
        sample_prior(prior, rng, fix_k=7)


def test_sample_prior_draws_the_truncated_geometric():
    # p(k) = geom_p (1 - geom_p)^k / (1 - (1 - geom_p)^(k_max + 1)) on 0..k_max,
    # the prior log_prior scores, not a clamp that piles the tail on k_max
    prior = PriorConfig(k_max=2)
    rng = np.random.default_rng(8)
    n = 20_000
    ks = np.array([sample_prior(prior, rng).k for _ in range(n)])
    q = 1.0 - prior.geom_p
    for k in range(3):
        p = prior.geom_p * q ** k / (1.0 - q ** 3)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(ks == k) - p) < 4.0 * se, f"k={k}"


class _CountingRng:
    """A Generator that counts calls per method."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("geom_p, k_max", [(1e-7, 0), (0.01, 3), (0.5, 5), (0.2, 50)])
def test_sample_prior_makes_a_bounded_number_of_draws(geom_p, k_max):
    # a redraw loop would need about 1e7 geometric draws per theta at
    # geom_p = 1e-7, k_max = 0
    prior = PriorConfig(geom_p=geom_p, k_max=k_max)
    for seed in range(200):
        rng = _CountingRng(seed)
        th = sample_prior(prior, rng)
        assert th.k <= k_max
        assert rng.calls["geometric"] == 1
        assert rng.calls["random"] <= 2  # d, and at most one tail redraw
        assert rng.calls["standard_normal"] == th.k


def test_sample_prior_tail_draw_has_the_truncated_law():
    # at geom_p = 0.01, k_max = 3 the first draw exceeds k_max with
    # probability 0.99^4 = 0.96, so this is mostly the inverse-CDF branch
    prior = PriorConfig(geom_p=0.01, k_max=3)
    rng = np.random.default_rng(17)
    n = 20_000
    counts = np.bincount([sample_prior(prior, rng).k for _ in range(n)], minlength=4)
    q = 1.0 - prior.geom_p
    p = prior.geom_p * q ** np.arange(4) / (1.0 - q ** 4)
    assert stats.chisquare(counts, n * p).pvalue > 1e-3


def test_sample_prior_keeps_the_redraw_loops_streams_where_it_never_redrew():
    # at the default prior the first geometric draw exceeds k_max = 50 with
    # probability 0.8^51, about 1e-5; the former sampler redrew the geometric
    # until k <= k_max and otherwise drew exactly as fix_k does
    prior = PriorConfig()
    for seed in range(3000):
        old_rng = np.random.default_rng(seed)
        k = int(old_rng.geometric(prior.geom_p) - 1)
        while k > prior.k_max:
            k = int(old_rng.geometric(prior.geom_p) - 1)
        old = sample_prior(prior, old_rng, fix_k=k)
        assert sample_prior(prior, np.random.default_rng(seed)).key() == old.key()


def test_sampled_draws_have_finite_positive_prior_density():
    prior = PriorConfig()
    rng = np.random.default_rng(5)
    for _ in range(500):
        th = sample_prior(prior, rng)
        assert math.isfinite(_log_prior(th, prior))
