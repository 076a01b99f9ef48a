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
  from the spectral pole at 2 pi == 0.  The data are real, so
  I(lam_j) = I(lam_{n-j}) and lam_j* = lam_{n-j}*: the sum is taken over
  the half grid j = 1..floor(n/2) with weights I_j + I_{n-j} (the Nyquist
  term j = n/2 of an even n once), which halves its cost;

* log|T(fbar)| is approximated by the closed-form asymptotic

      D_n = d^2 log n + (1/4) sum_j j xi_j^2 + d sum_j j xi_j
            + log( G(1-d)^2 / G(1-2d) )

  with Barnes' double-Gamma function G.

The approximate log likelihood is then

    log p~(x | theta) = -D_n / 2 - (a + n/2) log( b + Q/2 ),

exact up to a single theta-free additive constant, mirroring
:func:`fexpsmc.exact.exact_log_marglik`.

:func:`approx_log_liks` scores a whole population at once, which is how the
SMC sampler and the correction call it: per block of BLOCK_ROWS thetas the
Whittle form is one exp over a (rows, floor(n/2)) exponent matrix and one
product with the folded periodogram, and D_n is one vectorised Barnes-G
call for 1 - d and 1 - 2d together, with d computed once for both.  A
block costs O(rows * n * (1 + k_max)) flops for the exponents, where k_max
is the largest order in the block, and blocking bounds the temporaries to
BLOCK_ROWS x floor(n/2) doubles however many thetas are passed.  Every sum
runs within its own row, so a theta's value does not depend on the rest of
its batch; :func:`approx_log_lik` is the batch of one and agrees bit for
bit.
"""

import math

import numpy as np
from scipy.special import gammaln, zeta

from . import _accel
from .config import DataError
from .fourier import fourier_coeffs_bounded

__all__ = [
    "DatasetContext",
    "prepare_dataset",
    "quadform_approx_toeplitz",
    "quadform_whittle",
    "log_barnes_g",
    "log_det_approx",
    "approx_log_lik",
    "approx_log_liks",
]

#: thetas per block of the batched evaluator, which bounds its temporaries to
#: BLOCK_ROWS x floor(n/2) doubles whatever the population size
BLOCK_ROWS = 64


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
    lam_star : ndarray, shape (floor(n/2),)
        The folded grid: Fourier frequencies lam_j = 2 pi j/n, j = 1..floor(n/2),
        each standing for itself and for its mirror 2 pi - lam_j.
    pgram : ndarray, shape (floor(n/2),)
        Folded periodogram I_j + I_{n-j} of the raw periodogram
        I_j = |sum_t x~_t e^{i t lam_j}|^2; the Nyquist term of an even n
        (j = n/2, its own mirror) is I_{n/2} alone.
    logweight : ndarray, shape (floor(n/2),)
        log(2 - 2 cos lam_j*), the log of the inverse singular factor.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        n = x.size
        if n < 8:
            raise DataError(f"need at least 8 observations, got {n}")
        if not np.all(np.isfinite(x)):
            raise DataError("series contains non-finite values")
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

        # real data: |X_{n-j}| = |X_j|, so the half grid carries twice I_j
        # except at the Nyquist frequency of an even n
        self.pgram = np.abs(np.fft.rfft(self.xtilde)[1:]) ** 2
        self.pgram[:(n - 1) // 2] *= 2.0
        self.lam_star = 2.0 * np.pi * np.arange(1, n // 2 + 1) / n
        self.logweight = np.log(2.0 - 2.0 * np.cos(self.lam_star))
        self._cosbasis = np.empty((0, n // 2))

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


def _whittle_quadforms(thetas, d, ctx):
    """Whittle quadratic forms pgram . exp(d logweight - xi cos_basis) / n of
    a batch of thetas with memory parameters ``d``, on the folded grid.

    Each row's cosine series is its own length-k product and einsum sums
    each row on its own, so a theta gets the same bits in any batch: a
    padded BLAS matrix product rounds a row differently with its padding
    and its neighbours.
    """
    s = np.multiply.outer(d, ctx.logweight)
    basis = ctx.cos_basis(max(th.k for th in thetas))
    for row, th in zip(s, thetas):
        if th.k:
            row -= th.xi @ basis[:th.k]
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    return np.einsum("ij,j->i", s, ctx.pgram) / ctx.n


def quadform_whittle(theta, ctx):
    """Riemann-sum approximation of x~' T(fbar)^{-1} x~ over Fourier frequencies."""
    return float(_whittle_quadforms([theta], np.array([theta.d]), ctx)[0])


def quadform_approx_toeplitz(theta, ctx, M=None):
    """Toeplitz-form approximation sum_j c_j gamma_h(j), h = 1/(4 pi^2 fbar).

    h is bounded (h(0) = 0 for d > 0) so its coefficients come from the
    bounded-path FFT rule; cost O(M log M) per theta.  Returns inf when
    exp(-sum_j xi_j cos(j lam)) overflows on the grid, as the Whittle form
    does.
    """
    d = theta.d
    xi = np.asarray(theta.xi, dtype=float)

    def h(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="raise"):
            vals = (2.0 - 2.0 * np.cos(lam)) ** d * np.exp(
                -_accel.cosine_series(xi, lam)
            ) / (2.0 * np.pi)
        if d > 0.0:
            vals = np.where(np.abs(lam) < 1e-300, 0.0, vals)
        return vals

    try:
        gamma_h = fourier_coeffs_bounded(h, ctx.n, M=M)
    except FloatingPointError:
        return math.inf
    return float(ctx.c @ gamma_h)


# ---------------------------------------------------------------------------
# Barnes' G function
# ---------------------------------------------------------------------------

#: Taylor coefficients of log G(1 + w) for w^1 .. w^56; at |w| <= 1/2 the
#: first omitted term is about 1e-19
_K = np.arange(3, 57)
_TAYLOR = np.concatenate((
    [0.5 * (math.log(2.0 * math.pi) - 1.0), -0.5 * (1.0 + np.euler_gamma)],
    np.where(_K % 2, 1.0, -1.0) * zeta(_K - 1.0) / _K,
))


def log_barnes_g(x):
    """log G(x) for real x > 0 (scalar or array), accurate to ~1e-13 on (0, 4].

    G satisfies G(z + 1) = Gamma(z) G(z) with G(1) = G(2) = G(3) = 1,
    G(4) = 2.  Each argument is shifted into [0.5, 1.5] by the functional
    equation and the Taylor series

        log G(1 + w) = (log(2 pi) - 1)/2 * w - (1 + gamma_E)/2 * w^2
                       + sum_{k >= 3} (-1)^{k-1} zeta(k-1) w^k / k,

    |w| <= 1/2, is evaluated with a fixed number of terms: one cumulative
    product of powers times the coefficient vector, the same cost for every
    argument and, summed row by row, the same bits in any array.  A scalar
    argument returns a float.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"log_barnes_g requires x > 0, got {x}")
    z = arr.reshape(-1).copy()
    acc = np.zeros_like(z)
    low = z < 0.5
    acc[low] -= gammaln(z[low])
    z[low] += 1.0
    high = z > 1.5
    while high.any():
        z[high] -= 1.0
        acc[high] += gammaln(z[high])
        high = z > 1.5
    powers = np.cumprod(np.repeat((z - 1.0)[:, None], _TAYLOR.size, axis=1), axis=1)
    out = acc + np.einsum("ij,j->i", powers, _TAYLOR)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _log_det_approxs(thetas, d, n):
    """D_n of a batch of thetas with memory parameters ``d``, with G(1 - d)
    and G(1 - 2d) in one call.

    The xi_j sums run in order of j over columns zero-padded to the largest
    k, and trailing zeros leave a running sum unchanged, so a theta gets the
    same bits in any batch.
    """
    xi = np.zeros((len(thetas), 1 + max(th.k for th in thetas)))
    for row, th in zip(xi, thetas):
        row[1:1 + th.k] = th.xi
    j = np.arange(xi.shape[1], dtype=float)
    sq = np.cumsum(xi * xi * j, axis=1)[:, -1]
    lin = np.cumsum(xi * j, axis=1)[:, -1]
    x = np.concatenate((1.0 - d, 1.0 - 2.0 * d))
    # G(1 - 2d) -> 0 as d -> 1/2, so D_n -> inf and the likelihood -> -inf:
    # a d that rounds to 1/2 exactly gets that limit (G(1) stands in for G(0))
    pole = d >= 0.5 if d.max() >= 0.5 else None
    if pole is not None:
        x[d.size:][pole] = 1.0
    g = log_barnes_g(x)
    dn = d * d * math.log(n) + (0.25 * sq + d * lin) + (2.0 * g[:d.size] - g[d.size:])
    if pole is not None:
        dn[pole] = math.inf
    return dn


def log_det_approx(theta, n):
    """Asymptotic approximation D_n of log |T(fbar_theta)| for an n x n matrix.

    D_n = d^2 log n + (1/4) sum_j j xi_j^2 + d sum_j j xi_j
          + log G(1-d)^2 - log G(1-2d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(_log_det_approxs([theta], np.array([theta.d]), n)[0])


def approx_log_liks(thetas, ctx, prior, mode="whittle", M=None):
    """Approximate log marginal likelihoods of a population, as an array.

    -D_n/2 - (a + n/2) log(b + Q/2) with Q from the selected quadratic-form
    mode ("whittle", the O(n) default, or "toeplitz"); a non-finite Q gives
    -inf.  The thetas are taken in blocks of BLOCK_ROWS.  In whittle mode a
    block costs one exp over its (rows, floor(n/2)) exponents and one
    product with the folded periodogram; toeplitz mode computes Q theta by
    theta.  A theta gets the same value in any batch, alone included.
    """
    if mode not in ("whittle", "toeplitz"):
        raise ValueError(f"unknown mode {mode!r}")
    thetas = list(thetas)
    out = np.empty(len(thetas))
    for lo in range(0, len(thetas), BLOCK_ROWS):
        block = thetas[lo:lo + BLOCK_ROWS]
        d = np.array([th.d for th in block])
        if mode == "whittle":
            q = _whittle_quadforms(block, d, ctx)
        else:
            q = np.array([quadform_approx_toeplitz(th, ctx, M=M) for th in block])
        ok = np.isfinite(q)
        ll = -0.5 * _log_det_approxs(block, d, ctx.n) - (prior.a + 0.5 * ctx.n) * np.log(
            prior.b + 0.5 * np.where(ok, q, 0.0))
        out[lo:lo + len(block)] = np.where(ok, ll, -math.inf)
    return out


def approx_log_lik(theta, ctx, prior, mode="whittle", M=None):
    """Approximate log marginal likelihood (up to one theta-free constant);
    the batch of one of :func:`approx_log_liks`."""
    return float(approx_log_liks([theta], ctx, prior, mode=mode, M=M)[0])
