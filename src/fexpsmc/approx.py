"""O(n)-per-evaluation approximate marginal log likelihood.

Two ingredients replace the exact O(n^2) computation:

* the inverse covariance T(fbar)^{-1} is approximated by the Toeplitz
  matrix T(h) of h = 1/(4 pi^2 fbar) -- a bounded function vanishing like
  lam^{2d} at 0 -- so the quadratic form becomes either

      sum_{j=0}^{n-1} c_j gamma_h(j)                     ("toeplitz" mode)

  with c_0 = sum x~_i^2, c_j = 2 sum_{i=1}^{n-j} x~_i x~_{i+j}, or its
  Riemann-sum twin over the Fourier frequencies lam_j = 2 pi j / n,

      (1/(2 pi n)) sum_{j=1}^{n-1} I(lam_j) / fbar(lam_j*)   ("whittle" mode)

  where I is the raw periodogram |sum_t x~_t e^{i t lam_j}|^2 of the
  centred data and lam_j* = min(lam_j, 2 pi - lam_j) folds the grid away
  from the spectral pole at 2 pi == 0;

* log|T(fbar)| is approximated by the closed-form asymptotic

      D_n = d^2 log n + (1/4) sum_j j xi_j^2 + d sum_j j xi_j
            + log( G(1-d)^2 / G(1-2d) )

  with Barnes' double-Gamma function G.

The approximate log likelihood is then

    log p~(x | theta) = -D_n / 2 - (a + n/2) log( b + Q/2 ),

exact up to a single theta-free additive constant, mirroring
:func:`fexpsmc.exact.exact_log_marglik`.
"""

import math

import numpy as np
from scipy.special import zeta

from . import _accel
from .fourier import fourier_coeffs_bounded

__all__ = [
    "DatasetContext",
    "prepare_dataset",
    "quadform_approx_toeplitz",
    "quadform_whittle",
    "log_barnes_g",
    "log_det_approx",
    "approx_log_lik",
]


class DatasetContext:
    """Per-dataset precomputations shared by every likelihood evaluation.

    Attributes
    ----------
    x : ndarray
        The raw series.
    xtilde : ndarray
        Mean-centred series.
    n : int
    c : ndarray, shape (n,)
        Lag-weight sums c_0 = sum x~^2, c_j = 2 sum_i x~_i x~_{i+j}.
    pgram : ndarray, shape (n - 1,)
        Raw periodogram |sum_t x~_t e^{i t lam_j}|^2 at lam_j = 2 pi j/n,
        j = 1..n-1 (exact Fourier frequencies, mixed-radix FFT).
    lam_star : ndarray, shape (n - 1,)
        Folded frequencies min(lam_j, 2 pi - lam_j).
    logweight : ndarray
        log(2 - 2 cos lam_j*), the log of the inverse singular factor.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        n = x.size
        if n < 8:
            raise ValueError(f"need at least 8 observations, got {n}")
        if not np.all(np.isfinite(x)):
            raise ValueError("series contains non-finite values")
        self.x = x
        self.n = n
        self.xtilde = x - x.mean()

        # lag-weight sums via one zero-padded FFT autocorrelation
        nfft = 1
        while nfft < 2 * n:
            nfft *= 2
        F = np.fft.rfft(self.xtilde, nfft)
        ac = np.fft.irfft(np.abs(F) ** 2, nfft)[:n]
        self.c = 2.0 * ac
        self.c[0] = ac[0]

        fx = np.fft.fft(self.xtilde)
        j = np.arange(1, n)
        lam = 2.0 * np.pi * j / n
        self.pgram = np.abs(fx[1:]) ** 2
        self.lam_star = np.minimum(lam, 2.0 * np.pi - lam)
        self.logweight = np.log(2.0 - 2.0 * np.cos(self.lam_star))
        self._cosbasis = np.empty((0, n - 1))

    def cos_basis(self, k):
        """Rows m = 1..k of cos(m * lam_star), grown lazily and cached."""
        have = self._cosbasis.shape[0]
        if k > have:
            m = np.arange(have + 1, k + 1)
            new = np.cos(np.outer(m, self.lam_star))
            self._cosbasis = np.vstack([self._cosbasis, new]) if have else new
        return self._cosbasis


def prepare_dataset(x):
    """Build the :class:`DatasetContext` for a series."""
    return DatasetContext(x)


def quadform_whittle(theta, ctx):
    """Riemann-sum approximation of x~' T(fbar)^{-1} x~ over Fourier frequencies."""
    xi = np.ascontiguousarray(theta.xi, dtype=float)
    basis = ctx.cos_basis(theta.k)
    return float(
        _accel.whittle_quadform(theta.d, xi, ctx.pgram, ctx.logweight, basis, ctx.n)
    )


def quadform_whittle_at(theta, pgram, lam_star, n):
    """Whittle quadratic form on explicitly supplied frequencies (test seam)."""
    inv_fbar = 2.0 * np.pi * (2.0 - 2.0 * np.cos(lam_star)) ** theta.d * np.exp(
        -_accel.cosine_series(np.asarray(theta.xi, float), lam_star)
    )
    return float(pgram @ inv_fbar) / (2.0 * np.pi * n)


def quadform_approx_toeplitz(theta, ctx, M=None):
    """Toeplitz-form approximation sum_j c_j gamma_h(j), h = 1/(4 pi^2 fbar).

    h is bounded (h(0) = 0 for d > 0) so its coefficients come from the
    bounded-path FFT rule; cost O(M log M) per theta.
    """
    d = theta.d
    xi = np.asarray(theta.xi, dtype=float)

    def h(lam):
        lam = np.asarray(lam, dtype=float)
        vals = (2.0 - 2.0 * np.cos(lam)) ** d * np.exp(
            -_accel.cosine_series(xi, lam)
        ) / (2.0 * np.pi)
        if d > 0.0:
            vals = np.where(np.abs(lam) < 1e-300, 0.0, vals)
        return vals

    gamma_h = fourier_coeffs_bounded(h, ctx.n, M=M)
    return float(ctx.c @ gamma_h)


# ---------------------------------------------------------------------------
# Barnes' G function
# ---------------------------------------------------------------------------

_ZETA_K = np.arange(3, 121)
_ZETA_V = zeta(_ZETA_K.astype(float) - 1.0)
_LOG_2PI = math.log(2.0 * math.pi)


def log_barnes_g(x):
    """log G(x) for real x > 0, accurate to ~1e-13 on (0, 4].

    G satisfies G(z + 1) = Gamma(z) G(z) with G(1) = G(2) = G(3) = 1,
    G(4) = 2.  The argument is shifted into [0.5, 1.5] by the functional
    equation and the Taylor series

        log G(1 + w) = (log(2 pi) - 1)/2 * w - (1 + gamma_E)/2 * w^2
                       + sum_{k >= 3} (-1)^{k-1} zeta(k-1) w^k / k,

    |w| <= 1/2, is summed to convergence.
    """
    if not x > 0.0:
        raise ValueError(f"log_barnes_g requires x > 0, got {x}")
    acc = 0.0
    while x > 1.5:
        x -= 1.0
        acc += math.lgamma(x)
    while x < 0.5:
        acc -= math.lgamma(x)
        x += 1.0
    w = x - 1.0
    total = 0.5 * (_LOG_2PI - 1.0) * w - 0.5 * (1.0 + np.euler_gamma) * w * w
    wp = w * w
    for k, zv in zip(_ZETA_K, _ZETA_V):
        wp *= w
        term = zv * wp / k
        total += term if (k % 2) else -term
        if abs(term) < 1e-17:
            break
    return acc + total


def log_det_approx(theta, n):
    """Asymptotic approximation D_n of log |T(fbar_theta)| for an n x n matrix.

    D_n = d^2 log n + (1/4) sum_j j xi_j^2 + d sum_j j xi_j
          + log G(1-d)^2 - log G(1-2d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = theta.d
    out = d * d * math.log(n)
    if theta.k:
        j = np.arange(1, theta.k + 1, dtype=float)
        out += 0.25 * float(j @ (theta.xi**2)) + d * float(j @ theta.xi)
    out += 2.0 * log_barnes_g(1.0 - d) - log_barnes_g(1.0 - 2.0 * d)
    return out


def approx_log_lik(theta, ctx, prior, mode="whittle", M=None):
    """Approximate log marginal likelihood (up to one theta-free constant).

    -D_n/2 - (a + n/2) log(b + Q/2) with Q from the selected quadratic-form
    mode ("whittle", the O(n) default, or "toeplitz").
    """
    if mode == "whittle":
        q = quadform_whittle(theta, ctx)
    elif mode == "toeplitz":
        q = quadform_approx_toeplitz(theta, ctx, M=M)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not math.isfinite(q):
        return -math.inf
    dn = log_det_approx(theta, ctx.n)
    return -0.5 * dn - (prior.a + 0.5 * ctx.n) * math.log(prior.b + 0.5 * q)
