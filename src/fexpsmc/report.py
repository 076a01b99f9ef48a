"""Posterior summaries: weighted quantiles, spectral bands, histograms.

All quantiles are inverses of the right-continuous weighted empirical CDF:
quantile(q) is the smallest sample value v with  sum_{v_i <= v} W_i >= q.
With a single particle every quantile equals its value; with two equal
weights the 10/90% band is the pointwise min/max of the two curves.
Spectral bands take the quantiles of every grid frequency at once, from
the population's log densities as one (particles, grid) array.
"""

import math

import numpy as np

from .model import fexp_sdf, memory_d, to_arrays

__all__ = [
    "weighted_quantile",
    "frequency_grid",
    "spectral_bands",
    "d_histogram",
    "k_mass",
    "summarize",
]

#: default 80% band: 10/50/90% quantiles
BAND_QUANTILES = (0.1, 0.5, 0.9)


def weighted_quantile(values, weights, q):
    """Weighted quantile(s) via the inverse right-continuous weighted CDF.

    ``values`` is 1-d, or (N, G) for the quantiles of each column along
    axis 0, with one weight per row.  A scalar q gives a float (a (G,)
    array for 2-d values); an array of levels adds a leading axis.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim not in (1, 2) or weights.shape != values.shape[:1] or values.size == 0:
        raise ValueError("values must be a nonempty 1-d or 2-d array with one weight per row")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    order = np.argsort(values, axis=0, kind="stable")
    cdf = np.cumsum(weights[order], axis=0) / total
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all((qs >= 0) & (qs <= 1)):
        raise ValueError("quantile levels must lie in [0, 1]")
    # smallest index with cdf >= q (right-continuous inverse): the count of
    # cdf < q, which is searchsorted(side="left") on a nondecreasing cdf
    idx = (cdf < qs.reshape((-1,) + (1,) * values.ndim)).sum(axis=1)
    idx = np.minimum(idx, values.shape[0] - 1)
    out = np.take_along_axis(values, np.take_along_axis(order, idx, axis=0), axis=0)
    if np.isscalar(q):
        out = out[0]
    return float(out) if out.ndim == 0 else out


def frequency_grid(n_points=200, lam_min=1e-3, lam_max=math.pi):
    """Log-spaced frequency grid on (0, pi], clear of the spectral pole."""
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if not 0.0 < lam_min < lam_max <= math.pi + 1e-12:
        raise ValueError("grid bounds must satisfy 0 < lam_min < lam_max <= pi")
    return np.geomspace(lam_min, lam_max, n_points)


def spectral_bands(thetas, weights, grid=None, quantiles=BAND_QUANTILES):
    """Pointwise weighted quantiles of fbar_theta over a frequency grid.

    Quantiles are computed on log fbar (equivalently on fbar -- the CDF
    inverse commutes with monotone maps) and returned on the density
    scale.  Returns (grid, bands) with bands of shape (len(quantiles), G).
    """
    if grid is None:
        grid = frequency_grid()
    k, t, xi = to_arrays(list(thetas))
    curves = np.log(fexp_sdf(k, memory_d(t), xi, grid))
    return grid, np.exp(weighted_quantile(curves, weights, np.asarray(quantiles)))


def d_histogram(thetas, weights, bins=40):
    """Weighted histogram of the memory parameter on [0, 1/2].

    Returns (edges, mass) with len(edges) = bins + 1 and mass summing to 1.
    """
    d = np.array([th.d for th in thetas])
    weights = np.asarray(weights, dtype=float)
    mass, edges = np.histogram(d, bins=bins, range=(0.0, 0.5), weights=weights)
    return edges, mass / weights.sum()


def k_mass(thetas, weights):
    """Posterior mass per model order as a dict {k: mass}, summing to 1."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    out = {}
    for th, w in zip(thetas, weights):
        out[th.k] = out.get(th.k, 0.0) + w / total
    return dict(sorted(out.items()))


def summarize(thetas, weights, quantile_levels=(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)):
    """Scalar posterior summaries of d and k under the given weights."""
    thetas = list(thetas)
    weights = np.asarray(weights, dtype=float)
    w = weights / weights.sum()
    d = np.array([th.d for th in thetas])
    k = np.array([th.k for th in thetas], dtype=float)
    mean_d = float(w @ d)
    var_d = float(w @ (d - mean_d) ** 2)
    km = k_mass(thetas, w)
    mode_k = max(km.items(), key=lambda item: (item[1], -item[0]))[0]
    return {
        "mean_d": mean_d,
        "var_d": var_d,
        "quantiles_d": {q: weighted_quantile(d, w, q) for q in quantile_levels},
        "mean_k": float(w @ k),
        "mode_k": int(mode_k),
        "k_mass": km,
    }
