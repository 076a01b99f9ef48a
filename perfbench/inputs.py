"""Workload inputs, generated without importing the package under test.

Fractional noise comes from circulant embedding (Davies-Harte) of its
closed-form autocovariance; an MA part is applied with ``np.convolve``.
A change to
``fexpsmc.simulate`` therefore cannot move any workload's input.
"""

import numpy as np
from scipy.special import gammaln

#: self-check: replicates x length of fractional noise averaged per lag
CHECK_REPLICATES = 256
CHECK_N = 2048
CHECK_LAGS = 11
#: allowed |mean sample autocovariance - expected| as a share of gamma(0);
#: the replicate-mean standard error at d = 0.3 is about 0.5% of gamma(0),
#: and the largest deviation seen over 40 seeds was 1.0%
CHECK_TOL = 0.05


def fracnoise_acov(d, n):
    """gamma(0..n-1) of (1 - B)^{-d} eps with unit innovation variance."""
    g = np.empty(n)
    g[0] = np.exp(gammaln(1.0 - 2.0 * d) - 2.0 * gammaln(1.0 - d))
    h = np.arange(n - 1)
    g[1:] = g[0] * np.cumprod((h + d) / (h + 1.0 - d))
    return g


def fracnoise(d, n, rng, size=None):
    """Exact fractional-noise draws by Davies-Harte circulant embedding.

    Returns shape (n,), or (size, n) when ``size`` is given.
    """
    acov = fracnoise_acov(d, n + 1)
    circ = np.concatenate([acov, acov[-2:0:-1]])        # length 2n
    eig = np.fft.fft(circ).real
    if eig.min() < -1e-10 * eig.max():
        raise ValueError(f"circulant embedding not nonnegative at d={d}")
    eig = np.clip(eig, 0.0, None)
    shape = (1 if size is None else size, circ.size)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = np.fft.fft(np.sqrt(eig / circ.size) * z, axis=-1).real[:, :n]
    return x[0] if size is None else x


def fima(n, d, theta, rng):
    """ARFIMA(0, d, q) draw: x = (1 + sum theta B^q) (1 - B)^{-d} eps."""
    q = len(theta)
    fn = fracnoise(d, n + q, rng)
    return np.convolve(fn, np.r_[1.0, theta], mode="valid") if q else fn


def self_check(seed):
    """Mean sample autocovariance of generated fractional noise against the closed form.

    Returns the largest deviation over lags 0..CHECK_LAGS-1 as a share of
    gamma(0).  The estimator sum_t x_t x_{t+h} / n has expectation
    gamma(h) (n - h) / n exactly, so no bias correction is involved.
    """
    d = 0.3
    rng = np.random.default_rng([seed, 999])
    x = fracnoise(d, CHECK_N, rng, size=CHECK_REPLICATES)
    h = np.arange(CHECK_LAGS)
    sample = np.array([np.mean(np.sum(x[:, : CHECK_N - l] * x[:, l:], axis=1)) for l in h]) / CHECK_N
    expected = fracnoise_acov(d, CHECK_LAGS) * (CHECK_N - h) / CHECK_N
    return float(np.max(np.abs(sample - expected)) / expected[0])
