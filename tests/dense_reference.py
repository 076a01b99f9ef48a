"""Dense references for the tests: O(n^3) Toeplitz matrices and Cholesky
factors for the covariances the package handles in O(n^2) by the
Durbin-Levinson recursion, and the T(h) form of the approximate quadratic
form, the oracle for the package's Whittle form, on a cosine series of its
own.  Also the package's two likelihoods on a population of one theta,
for the oracles that score thetas one at a time."""

import math

import numpy as np
from scipy.linalg import toeplitz as scipy_toeplitz
from scipy.linalg.lapack import dpotrf

from fexpsmc.approx import approx_log_liks
from fexpsmc.exact import NotPositiveDefiniteError, exact_log_margliks
from fexpsmc.fourier import default_grid_size, half_grid, longmemory_autocovs
from fexpsmc.model import to_arrays


def approx_single(theta, ctx, prior):
    """:func:`fexpsmc.approx.approx_log_liks` of the population of one theta."""
    return float(approx_log_liks(*to_arrays([theta]), ctx, prior)[0])


def exact_single(theta, x, prior):
    """:func:`fexpsmc.exact.exact_log_margliks` of the population of one
    theta; raises :class:`NotPositiveDefiniteError` with the failing minor
    where the population form reports a nonzero info."""
    values, info, _ = exact_log_margliks(*to_arrays([theta]), x, prior)
    if info[0]:
        raise NotPositiveDefiniteError(info[0])
    return float(values[0])


def cosine_series(xi, lam):
    """sum_j xi_j cos(j lam) of one coefficient vector on the frequencies
    ``lam``, one matrix-vector product, apart from the package's cosine sums."""
    return np.cos(np.outer(np.arange(1, xi.size + 1), lam)).T @ xi


def build_toeplitz(acf, ridge=0.0):
    """Dense symmetric Toeplitz matrix T[i, j] = acf[|i - j|] (+ ridge on all entries).

    ``ridge`` adds a constant to every entry (a rank-one all-ones
    perturbation), as needed by the marginal-likelihood covariance
    T(fbar) + (1/g_mu) * ones.
    """
    acf = np.asarray(acf, dtype=float)
    if acf.ndim != 1 or acf.size < 1:
        raise ValueError("acf must be a nonempty 1-d array")
    T = scipy_toeplitz(acf)
    if ridge:
        T += ridge
    return T


def cholesky_lower(S):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Raises :class:`NotPositiveDefiniteError` with the index reported by
    LAPACK when S is not numerically positive definite, and with the order
    of the smallest leading minor holding a NaN or infinity when S is not
    finite (LAPACK passes a NaN pivot through without reporting it).
    """
    S = np.ascontiguousarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square matrix")
    rows, cols = np.nonzero(~np.isfinite(S))
    if rows.size:
        raise NotPositiveDefiniteError(np.maximum(rows, cols).min() + 1)
    L, info = dpotrf(S, lower=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return np.tril(L)


def lag_weight_sums(xtilde):
    """Lag-weight sums c_0 = sum x~_i^2, c_j = 2 sum_i x~_i x~_{i+j} of a
    centred series, by one zero-padded FFT autocorrelation."""
    n = xtilde.size
    nfft = default_grid_size(n)
    F = np.fft.rfft(xtilde, nfft)
    ac = np.fft.irfft(np.abs(F) ** 2, nfft)[:n]
    c = 2.0 * ac
    c[0] = ac[0]
    return c


def quadform_approx_toeplitz(theta, ctx, M=None):
    """T(h) form x~' T(h) x~ = sum_j c_j gamma_h(j) of the approximate
    quadratic form, h = 1/(4 pi^2 fbar), of the series of a DatasetContext.

    h is bounded (h(0) = 0 for d > 0), so its coefficients are the array
    quadrature at d = 0 on the half grid of M points (default
    default_grid_size(n)); cost O(M log M) per theta.  Returns inf when
    exp(-sum_j xi_j cos(j lam)) overflows on the grid, as the Whittle form
    does.
    """
    lam = half_grid(default_grid_size(ctx.n) if M is None else M)
    try:
        with np.errstate(over="raise"):
            h = (2.0 - 2.0 * np.cos(lam)) ** theta.d * np.exp(
                -cosine_series(np.asarray(theta.xi, dtype=float), lam)) / (2.0 * np.pi)
    except FloatingPointError:
        return math.inf
    return float(lag_weight_sums(ctx.xtilde) @ longmemory_autocovs(0.0, h, ctx.n))
