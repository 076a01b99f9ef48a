"""Autocovariances of long-memory spectral densities.

Conventions
-----------
Autocovariance-style coefficients are defined without a 1/(2*pi) factor:

    gamma(l) = integral_{-pi}^{pi} f(lam) e^{i l lam} d lam.

Every density here has the form f(lam) = |1 - e^{-i lam}|^{-2d} g(lam) with
g bounded, smooth and even.  f is split into a singular part with known
closed-form coefficients (fractional-noise autocovariances) plus a bounded
remainder:

    |1-e^{-i lam}|^{-2d} g(lam)
        = g(0) |1-e^{-i lam}|^{-2d}
          + |1-e^{-i lam}|^{-2d} (g(lam) - g(0)),

where the second term extends continuously by 0 at lam = 0 whenever g is
smooth (it vanishes like lam^{2-2d}).  The remainder is integrated by the
M-point trapezoid rule on lam_j = 2 pi j / M, which for a 2 pi-periodic
integrand is spectrally accurate (the error is the aliasing of the
integrand's own Fourier coefficients) and integrates trigonometric
polynomials of degree < M exactly.  The integrand is even, so the rule is
the real cosine transform of its values on the half grid j = 0..M/2: one
inverse real FFT.

Callers sample g on :func:`half_grid` themselves and pass the samples, a
whole batch of densities at once: :func:`longmemory_autocovs` works along
the last axis, and each row is computed on its own, so it gets the same
bits in any batch.  A grid's constants, the frequencies and
log|1 - e^{-i lam_j}|^2, are computed once per grid size and shared
read-only by every caller.
"""

import functools
import math

import numpy as np

__all__ = ["default_grid_size", "half_grid", "fracdiff_acf", "longmemory_autocovs"]


def default_grid_size(n):
    """Smallest power of two >= 2 n."""
    M = 1
    while M < 2 * n:
        M *= 2
    return M


def _read_only(a):
    a.flags.writeable = False
    return a


#: grid sizes whose constants are kept; a process uses a few powers of two
_GRIDS_KEPT = 16


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def half_grid(M):
    """The half grid lam_j = 2 pi j / M, j = 0..M/2, of an even M, as a
    read-only array computed once per M."""
    return _read_only(2.0 * np.pi * np.arange(M // 2 + 1) / M)


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _log_weight(M):
    """log(2 - 2 cos lam_j) = log|1 - e^{-i lam_j}|^2 at j = 1..M/2 of
    :func:`half_grid` (M), read-only; the singular factor is exp(-d times
    it)."""
    return _read_only(np.log(2.0 - 2.0 * np.cos(half_grid(M)[1:])))


def fracdiff_acf(d, lags):
    """Autocovariances of fractional noise with unit innovation variance.

    Returns (1/(2 pi)) * int_{-pi}^{pi} |1 - e^{-i lam}|^{-2d} e^{i l lam} dlam
    for each requested lag:

        gamma*(0) = Gamma(1-2d) / Gamma(1-d)^2,
        gamma*(l+1) = gamma*(l) * (l + d) / (l + 1 - d).

    The ratio recurrence follows from gamma*(l) proportional to
    Gamma(l+d)/Gamma(l+1-d) and holds from l = 0; the l = 0 value is
    evaluated in log-Gamma space, and the later lags are one running product
    (``np.multiply.accumulate``) of gamma*(0) and the ratios.  At d = 0 this
    degenerates cleanly to (1, 0, 0, ...).

    Parameters
    ----------
    d : float in [0, 0.5), or an array of them
    lags : int or array of ints
        A scalar lag, or the lags 0..len-1 when an array is wanted; any
        nonnegative integer array is accepted.

    The result has shape d.shape + lags.shape; each d is its own running
    product, so it gets the same bits in any array.
    """
    d = np.asarray(d, dtype=float)
    if not np.all((d >= 0.0) & (d < 0.5)):
        raise ValueError(f"d must lie in [0, 0.5), got {d}")
    scalar = np.isscalar(lags)
    lag_arr = np.atleast_1d(np.asarray(lags, dtype=np.int64))
    if lag_arr.size and lag_arr.min() < 0:
        raise ValueError("lags must be nonnegative")
    lmax = int(lag_arr.max()) if lag_arr.size else 0
    dd = d[..., None]
    l = np.arange(float(lmax))
    acf = np.empty(d.shape + (lmax + 1,))
    acf[..., 0] = np.exp([math.lgamma(1.0 - 2.0 * v) - 2.0 * math.lgamma(1.0 - v)
                          for v in d.reshape(-1).tolist()]).reshape(d.shape)
    np.divide(l + dd, l + 1.0 - dd, out=acf[..., 1:])
    np.multiply.accumulate(acf, axis=-1, out=acf)
    out = acf[..., lag_arr[0]] if scalar else acf[..., lag_arr]
    return float(out) if out.ndim == 0 else out


def longmemory_autocovs(d, g, n):
    """Autocovariances gamma(0..n-1) of f(lam) = |1 - e^{-i lam}|^{-2d} g(lam).

    g holds the bounded factor sampled on :func:`half_grid` (M) along its
    last axis, M/2 + 1 values, and d the memory parameters in [0, 1/2), one
    per row of g.  The singular factor is integrated in closed form against
    g(0), and the remainder |1-e^{-i lam}|^{-2d} (g(lam) - g(0)), equal to 0
    at lam = 0, by the M-point trapezoid rule as one inverse real FFT.
    Returns shape d.shape + (n,).  At d = 0 the split is exact and the
    result is the rule applied to g alone.  Finite g gives finite values
    unless the sums overflow; the caller checks.
    """
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=float)
    M = 2 * (g.shape[-1] - 1)
    if not 1 <= n <= M:
        raise ValueError(f"need 1 <= n <= M, got n = {n} and M = {M}")
    g0 = g[..., :1]
    rem = np.zeros(g.shape)
    np.exp(np.multiply.outer(-d, _log_weight(M)), out=rem[..., 1:])
    rem[..., 1:] *= g[..., 1:] - g0
    return (2.0 * np.pi * g0 * fracdiff_acf(d, np.arange(n))
            + 2.0 * np.pi * np.fft.irfft(rem, M)[..., :n])
