"""Exact Gaussian marginal likelihood through the Durbin-Levinson recursion.

With the conjugate prior 1/sigma^2 ~ Gamma(a, b) and
mu | sigma^2 ~ N(m_mu, sigma^2 / g_mu), both nuisance parameters integrate
out of the Gaussian likelihood in closed form, leaving the marginal

    p(x | theta) proportional to
        |Sigma|^{-1/2} * ( b + q/2 )^{-(a + n/2)},

    Sigma = T(fbar_theta) + (1/g_mu) * ones,
    q = (x - m_mu)' Sigma^{-1} (x - m_mu),

where T(fbar_theta) is the n x n Toeplitz autocovariance matrix of the
normalised FEXP density.  The omitted factor is independent of theta, so
these log values are exact up to one global additive constant -- all that
self-normalised weighting requires.

Sigma is never formed.  One Durbin-Levinson sweep over T whitens the two
columns u = x - m_mu and 1, which gives log|T| = sum log v_t and the
T^{-1} quadratic forms as sums of e_t^2 / v_t; the matrix determinant
lemma and Sherman-Morrison then add the rank-one term.  That is O(n^2)
time and O(n) memory.  The dense Cholesky factorisation stays as
``cholesky_lower``, the reference the tests compare against.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpotrf

from .fourier import fourier_coeffs_longmemory
from ._accel import cosine_series, durbin_levinson_whiten

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky_lower",
    "fbar_autocov",
    "exact_log_marglik",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A covariance that is not positive definite, carrying the 1-based index
    of the failing leading minor (as LAPACK ``dpotrf`` reports it)."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix not positive definite: leading minor {self.index} failed")


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


def fbar_autocov(theta, n, M=None):
    """Autocovariances gamma(0..n-1) of the normalised FEXP density at theta.

    gamma(l) = int fbar_theta(lam) e^{i l lam} dlam via the long-memory
    split; the bounded factor is g(lam) = exp(sum xi_j cos(j lam))/(2 pi).
    """
    xi = np.asarray(theta.xi, dtype=float)

    def smooth(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(cosine_series(xi, lam)) / (2.0 * np.pi)

    return fourier_coeffs_longmemory(theta.d, smooth, n, M=M)


def exact_log_marglik(theta, x, prior, M=None):
    """Exact log marginal likelihood of theta (up to one theta-free constant).

    O(n^2) time and O(n) memory.  Raises :class:`NotPositiveDefiniteError`
    when T(fbar_theta) is not numerically positive definite.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    acf = fbar_autocov(theta, n, M=M)
    e, v, info = durbin_levinson_whiten(acf, np.column_stack([x - prior.m_mu, np.ones(n)]))
    if info:
        raise NotPositiveDefiniteError(info)
    # G = [[u'T^-1 u, u'T^-1 1], [1'T^-1 u, 1'T^-1 1]]
    G = e.T @ (e / v[:, None])
    s = 1.0 + G[1, 1] / prior.g_mu
    logdet = float(np.sum(np.log(v))) + math.log(s)
    q = G[0, 0] - G[0, 1] ** 2 / (prior.g_mu * s)
    return -0.5 * logdet - (prior.a + 0.5 * n) * math.log(prior.b + 0.5 * q)
