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
time and O(n) memory.

:func:`exact_log_margliks` scores a whole population: it stacks the
autocovariances of a block of BLOCK_ROWS thetas and whitens the block in
one sweep, which pays the sweep's per-step Python cost once per block
instead of once per theta.  Blocking bounds the working set to a few
BLOCK_ROWS x n arrays however many thetas are passed.  A theta whose T is
not positive definite is reported by its failing index instead of
raising, and its neighbours are unaffected; a theta gets the same bits in
any batch, so :func:`exact_log_marglik`, the batch of one, agrees exactly.
"""

import math

import numpy as np

from ._accel import durbin_levinson_whiten
from .fourier import fourier_coeffs_longmemory
from .model import fexp_sdf

__all__ = [
    "NotPositiveDefiniteError",
    "fbar_autocov",
    "exact_log_marglik",
    "exact_log_margliks",
]

#: thetas per block of the batched evaluator, which bounds its working set to
#: a few BLOCK_ROWS x n arrays whatever the population size
BLOCK_ROWS = 32


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A covariance that is not positive definite, carrying the 1-based index
    of the failing leading minor (as LAPACK ``dpotrf`` reports it)."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix not positive definite: leading minor {self.index} failed")


def fbar_autocov(theta, n, M=None):
    """Autocovariances gamma(0..n-1) of the normalised FEXP density at theta.

    gamma(l) = int fbar_theta(lam) e^{i l lam} dlam via the long-memory
    split; the bounded factor is the d = 0 density,
    g(lam) = exp(sum xi_j cos(j lam))/(2 pi).
    """
    return fourier_coeffs_longmemory(theta.d, lambda lam: fexp_sdf(0.0, theta.xi, lam), n, M=M)


def _autocovs(thetas, n):
    """Autocovariances of each theta as the rows of a (len(thetas), n) array.

    At d = 1/2 the variance gamma(0) diverges, and when exp(sum_j xi_j
    cos(j lam)) overflows on the quadrature grid the autocovariances are not
    representable; either row is inf, which the recursion reports as a
    failed first leading minor.
    """
    acf = np.empty((len(thetas), n))
    for row, th in zip(acf, thetas):
        try:
            with np.errstate(over="raise"):
                row[:] = fbar_autocov(th, n) if th.d < 0.5 else math.inf
        except FloatingPointError:
            row[:] = math.inf
    return acf


def _log_marglik(e, v, n, prior):
    """Log marginal likelihood from the whitened columns e = L^{-1}[u, 1]
    and the innovation variances v of one theta."""
    # G = [[u'T^-1 u, u'T^-1 1], [1'T^-1 u, 1'T^-1 1]]
    G = e.T @ (e / v[:, None])
    s = 1.0 + G[1, 1] / prior.g_mu
    logdet = float(np.sum(np.log(v))) + math.log(s)
    q = G[0, 0] - G[0, 1] ** 2 / (prior.g_mu * s)
    return -0.5 * logdet - (prior.a + 0.5 * n) * math.log(prior.b + 0.5 * q)


def exact_log_margliks(thetas, x, prior):
    """Exact log marginal likelihoods of a population, without raising.

    Returns (values, info), two arrays over thetas.  info[i] is 0 when
    T(fbar) of thetas[i] is numerically positive definite, and values[i] is
    then its log marginal likelihood (up to one theta-free constant);
    otherwise info[i] is the 1-based index of the failing leading minor and
    values[i] is nan.  O(n^2) time per theta; the thetas are whitened in
    blocks of BLOCK_ROWS, one Durbin-Levinson sweep per block.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    thetas = list(thetas)
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    values = np.full(len(thetas), math.nan)
    info = np.zeros(len(thetas), dtype=int)
    for lo in range(0, len(thetas), BLOCK_ROWS):
        block = thetas[lo:lo + BLOCK_ROWS]
        e, v, bad = durbin_levinson_whiten(_autocovs(block, n), y)
        info[lo:lo + len(block)] = bad
        for i in np.flatnonzero(bad == 0):
            values[lo + i] = _log_marglik(e[i], v[i], n, prior)
    return values, info


def exact_log_marglik(theta, x, prior):
    """Exact log marginal likelihood of theta (up to one theta-free constant);
    the batch of one of :func:`exact_log_margliks`.

    O(n^2) time and O(n) memory.  Raises :class:`NotPositiveDefiniteError`
    when T(fbar_theta) is not numerically positive definite.
    """
    values, info = exact_log_margliks([theta], x, prior)
    if info[0]:
        raise NotPositiveDefiniteError(info[0])
    return float(values[0])
