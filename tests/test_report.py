"""Posterior summaries: quantiles, spectral bands, histograms."""

import math

import numpy as np
import pytest

from dense_reference import cosine_series
from fexpsmc.model import PriorConfig, ThetaParams, sample_prior
from fexpsmc.report import (d_histogram, frequency_grid, k_mass,
                            spectral_bands, summarize, weighted_quantile)


def _theta(k, t, *xi):
    return ThetaParams(k=k, t=t, xi=np.array(xi, dtype=float))


def _fbar(theta, lam):
    """The normalised FEXP density of one theta on lam, one frequency array."""
    with np.errstate(divide="ignore"):
        sing = (2.0 - 2.0 * np.cos(lam)) ** (-theta.d)
    return sing * np.exp(cosine_series(theta.xi, lam)) / (2.0 * np.pi)


def _reference_bands(thetas, weights, grid, quantiles):
    """spectral_bands one particle and one frequency at a time, each column's
    quantiles by searchsorted on its own weighted CDF."""
    curves = np.array([np.log(_fbar(th, grid)) for th in thetas])
    bands = np.empty((len(quantiles), grid.size))
    for g in range(grid.size):
        order = np.argsort(curves[:, g], kind="stable")
        cdf = np.cumsum(weights[order]) / weights.sum()
        idx = np.minimum(np.searchsorted(cdf, quantiles, side="left"), len(thetas) - 1)
        bands[:, g] = curves[order, g][idx]
    return np.exp(bands)


# ---------------------------------------------------------------------------
# Weighted quantiles
# ---------------------------------------------------------------------------

def test_weighted_quantile_uniform_weights_median():
    v = np.array([3.0, 1.0, 2.0])
    w = np.ones(3)
    assert weighted_quantile(v, w, 0.5) == 2.0
    assert weighted_quantile(v, w, 0.01) == 1.0
    assert weighted_quantile(v, w, 1.0) == 3.0


def test_weighted_quantile_point_mass():
    v = np.array([5.0, -1.0, 7.0])
    w = np.array([0.0, 1.0, 0.0])
    for q in (0.05, 0.5, 0.95):
        assert weighted_quantile(v, w, q) == -1.0


def test_weighted_quantile_respects_weights():
    # 90% of the mass on 0, 10% on 1: the 0.95 quantile is 1, the 0.5 is 0
    v = np.array([0.0, 1.0])
    w = np.array([0.9, 0.1])
    assert weighted_quantile(v, w, 0.5) == 0.0
    assert weighted_quantile(v, w, 0.95) == 1.0


def test_weighted_quantile_array_q():
    v = np.arange(10.0)
    w = np.ones(10)
    got = weighted_quantile(v, w, np.array([0.1, 0.5, 1.0]))
    assert got.shape == (3,)
    assert got[0] == 0.0 and got[2] == 9.0
    # (N, G) values: the quantiles of each column along axis 0
    cols = np.stack([v, -v, np.full(10, 2.0)], axis=1)
    got = weighted_quantile(cols, w, np.array([0.1, 0.5, 1.0]))
    assert got.shape == (3, 3)
    assert got[:, 0].tolist() == [0.0, 4.0, 9.0]
    assert got[:, 1].tolist() == [-9.0, -5.0, 0.0]
    assert got[:, 2].tolist() == [2.0, 2.0, 2.0]
    assert weighted_quantile(cols, w, 0.5).tolist() == [4.0, -5.0, 2.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weighted_quantile_rejects_non_finite_weights(bad):
    # NaN and +inf used to pass both checks and return the smallest value
    w = np.array([bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        weighted_quantile(np.array([1.0, 2.0, 3.0]), w, 0.5)
    thetas = [_theta(0, t) for t in (-1.0, 0.0, 1.0)]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        summarize(thetas, w)


def test_weighted_quantile_matches_numpy_on_large_uniform_sample():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(20_000)
    w = np.ones_like(v)
    for q in (0.1, 0.5, 0.9):
        got = weighted_quantile(v, w, q)
        want = np.quantile(v, q)
        assert abs(got - want) < 0.01


# ---------------------------------------------------------------------------
# Frequency grid and bands
# ---------------------------------------------------------------------------

def test_frequency_grid_is_geometric_and_bounded():
    g = frequency_grid(50, 1e-3)
    assert g.size == 50
    assert abs(g[0] - 1e-3) < 1e-15
    assert abs(g[-1] - math.pi) < 1e-12
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_spectral_bands_single_particle_collapse():
    th = _theta(1, 0.2, 0.5)
    grid, bands = spectral_bands([th], np.array([1.0]))
    want = _fbar(th, grid)
    for row in bands:
        assert np.allclose(row, want, rtol=1e-12)


def test_spectral_bands_two_particles_pick_correct_curves():
    a = _theta(0, -1.0)
    b = _theta(0, 1.0)
    grid, bands = spectral_bands([a, b], np.array([0.85, 0.15]),
                                 quantiles=(0.1, 0.5, 0.9))
    fa = _fbar(a, grid)
    fb = _fbar(b, grid)
    # 85% of the mass on a: the median follows a everywhere, while the outer
    # bands take the pointwise min/max (the light particle still carries 15%,
    # which covers both 10% tails)
    assert np.allclose(bands[0], np.minimum(fa, fb), rtol=1e-12)
    assert np.allclose(bands[1], fa, rtol=1e-12)
    assert np.allclose(bands[2], np.maximum(fa, fb), rtol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 6, 64, 1000])
def test_spectral_bands_match_the_per_particle_per_frequency_reference(N):
    # prior draws of every order up to k_max, some weights zero and some
    # curves tied (a repeated particle): the same bits as the reference
    rng = np.random.default_rng(N)
    thetas = [sample_prior(PriorConfig(geom_p=0.1), rng) for _ in range(N)]
    thetas[N // 2] = thetas[0].copy()
    weights = rng.uniform(size=N)
    weights[rng.uniform(size=N) < 0.3] = 0.0
    weights[0] = 0.5
    for grid in (frequency_grid(), frequency_grid(7, 0.5)):
        for quantiles in ((0.1, 0.5, 0.9), (0.0, 0.25, 1.0)):
            got_grid, bands = spectral_bands(thetas, weights, grid, quantiles)
            assert got_grid is grid
            want = _reference_bands(thetas, weights, grid, np.asarray(quantiles))
            assert np.array_equal(bands, want)


def test_spectral_bands_ordered():
    rng = np.random.default_rng(1)
    thetas = [_theta(0, float(rng.normal())) for _ in range(30)]
    w = rng.uniform(0.1, 1.0, 30)
    _, bands = spectral_bands(thetas, w)
    assert np.all(bands[0] <= bands[1] + 1e-15)
    assert np.all(bands[1] <= bands[2] + 1e-15)


# ---------------------------------------------------------------------------
# Histograms and order mass
# ---------------------------------------------------------------------------

def test_d_histogram_masses():
    thetas = [_theta(0, -2.0), _theta(0, -2.0), _theta(0, 2.0)]
    w = np.array([1.0, 1.0, 2.0])
    edges, mass = d_histogram(thetas, w, bins=10)
    assert edges.size == 11
    assert abs(mass.sum() - 1.0) < 1e-12
    assert edges[0] == 0.0 and abs(edges[-1] - 0.5) < 1e-15
    d_low = thetas[0].d
    d_high = thetas[2].d
    assert abs(mass[np.searchsorted(edges, d_low) - 1] - 0.5) < 1e-12
    assert abs(mass[np.searchsorted(edges, d_high) - 1] - 0.5) < 1e-12


def test_k_mass_sums_to_one():
    thetas = [_theta(0, 0.0), _theta(1, 0.0, 0.1), _theta(1, 0.5, -0.2)]
    w = np.array([2.0, 1.0, 1.0])
    km = k_mass(thetas, w)
    assert abs(sum(km.values()) - 1.0) < 1e-12
    assert abs(km[0] - 0.5) < 1e-12
    assert abs(km[1] - 0.5) < 1e-12


def test_summarize_matches_manual_computation():
    thetas = [_theta(0, -1.0), _theta(1, 0.0, 0.3), _theta(2, 1.0, 0.1, 0.2)]
    w = np.array([0.2, 0.5, 0.3])
    s = summarize(thetas, w)
    d = np.array([th.d for th in thetas])
    assert abs(s["mean_d"] - float(w @ d)) < 1e-12
    assert abs(s["var_d"] - float(w @ (d - w @ d) ** 2)) < 1e-12
    assert s["mode_k"] == 1
    assert abs(s["mean_k"] - (0.5 + 0.6)) < 1e-12
    assert set(s["k_mass"]) == {0, 1, 2}


def test_summarize_mode_tie_takes_smaller_order():
    thetas = [_theta(0, 0.0), _theta(3, 0.0, 0.1, 0.1, 0.1)]
    s = summarize(thetas, np.array([0.5, 0.5]))
    assert s["mode_k"] == 0
