"""Exact Gaussian marginal likelihood through fast Toeplitz solves.

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

Sigma is never formed.  All that is needed is log|T| and the 2 x 2 Gram
matrix G of the T^{-1} quadratic forms of the columns u = x - m_mu and 1;
the matrix determinant lemma and Sherman-Morrison then add the rank-one
term.  :func:`fexpsmc._accel.schur_solve` gives both in O(n log^2 n) time
per theta: log|T| from doubling Schur reflection coefficients, and
z = T^{-1}[u, 1] from the Gohberg-Semencul inverse, so G = [u, 1]' z.  A
theta of order k = 0 is fractional noise, ARFIMA(0, d, 0), whose
reflection coefficients and predictor are closed forms, so
:func:`fexpsmc._accel.fracnoise_solve` gives the same in O(n log n).  The
accuracy of either degrades with the condition of T, and nothing in them
checks that, so both also return the relative residual
||T z - y|| / ||y||.  A theta whose residual exceeds RESIDUAL_BOUND, or
whose factorisation failed, is whitened again by the O(n^2)
Durbin-Levinson sweep, which gives log|T| = sum log v_t and G from the
prediction errors, or the failing leading minor.

:func:`exact_log_margliks` scores a whole population, given as the arrays
(k, t, xi) of :mod:`fexpsmc.model`, in blocks of at most BLOCK_ELEMENTS / n
thetas, which bounds the working set to a few BLOCK_ELEMENTS doubles however
many thetas are passed.  A block's autocovariances are one array quadrature
(:func:`fexpsmc.fourier.longmemory_autocovs`) of exp(sum_j xi_j cos(j lam))
sampled on the half grid for all its rows, and the block's k = 0 rows and
its other rows are each solved at once, which pays the Schur recursion's
per-step Python cost once per block instead of once per theta.  A theta whose T is not positive definite is reported by its
failing index instead of raising, and its neighbours are unaffected; a theta
gets the same bits in any batch.
"""

import math

import numpy as np

from . import _accel
from .fourier import default_grid_size, half_grid, longmemory_autocovs
from .model import cosine_sums, memory_d

__all__ = ["NotPositiveDefiniteError", "exact_log_margliks"]

#: a block of the batched evaluator holds at most max(1, BLOCK_ELEMENTS // n)
#: thetas, which bounds its working set to about a dozen arrays of
#: BLOCK_ELEMENTS doubles whatever the population size: a block is 32 thetas
#: at n = 4096 and 6 at n = 20 000.  A block of 32 thetas at n = 20 000 raised
#: the peak RSS by 226 MB when the Schur solve took it in one pass.
BLOCK_ELEMENTS = 1 << 17

#: rows whose Schur solve leaves a relative residual above this are whitened
#: again by Durbin-Levinson.  On 7 x 32 prior draws at n = 1000, cond(T) from
#: 1 to 1e16, every row below it was within |DL - dense| + 7.5e-7 nats of a
#: dense slogdet/solve oracle; above it the Schur value drifted up to 100
#: nats off (residual 0.1 at cond 1.1e16) where Durbin-Levinson was 38 off.
#: The 534 distinct final particles of 12 fits on the benchmark's inputs had
#: residuals of at most 3.5e-13.  In 12 other such fits, the 35 distinct
#: k = 0 particles had closed-form residuals of at most 4.0e-13, and the 382
#: others Schur residuals of at most 9.6e-14.
RESIDUAL_BOUND = 1e-8


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A covariance that is not positive definite, carrying the 1-based index
    of the failing leading minor (as LAPACK ``dpotrf`` reports it)."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix not positive definite: leading minor {self.index} failed")


def _autocovs(k, t, xi, n):
    """Autocovariances gamma(0..n-1) of the normalised FEXP density of each
    row of the population (k, t, xi), as a (rows, n) array.

    gamma(l) = int fbar_theta(lam) e^{i l lam} dlam via the long-memory
    split; the bounded factor is the d = 0 density,
    g(lam) = exp(sum xi_j cos(j lam))/(2 pi), sampled on the half grid of
    M = default_grid_size(n) points.  At d = 1/2 the variance gamma(0)
    diverges, and when g overflows on the grid the autocovariances are not
    representable; either row is inf, which the recursion reports as a
    failed first leading minor.
    """
    lam = half_grid(default_grid_size(n))
    basis = np.cos(np.outer(np.arange(1.0, k.max(initial=0) + 1.0), lam))
    d = memory_d(t)
    pole = d >= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(cosine_sums(k, xi, basis)) / (2.0 * np.pi)
        acf = longmemory_autocovs(np.where(pole, 0.0, d), g, n)
    acf[pole | ~np.all(np.isfinite(acf), axis=1)] = math.inf
    return acf


def _gram(a, b):
    """Gram matrices G[r, i, j] = a_i . b_j of the (rows, c, n) arrays a and
    b, each row summed on its own."""
    return (a[:, :, None] * b[:, None]).sum(axis=-1)


def _log_margliks(G, logdet, n, prior):
    """Log marginal likelihoods from the Gram matrices G (rows, 2, 2) of the
    T^{-1} quadratic forms of [u, 1] and log|T| of each row."""
    # G = [[u'T^-1 u, u'T^-1 1], [1'T^-1 u, 1'T^-1 1]]
    s = 1.0 + G[:, 1, 1] / prior.g_mu
    q = G[:, 0, 0] - G[:, 0, 1] ** 2 / (prior.g_mu * s)
    return -0.5 * (logdet + np.log(s)) - (prior.a + 0.5 * n) * np.log(prior.b + 0.5 * q)


def _whitened_log_margliks(e, v, n, prior):
    """Log marginal likelihoods from Durbin-Levinson's whitened columns
    e = L^{-1}[u, 1] (rows, n, 2) and innovation variances v (rows, n)."""
    e = e.transpose(0, 2, 1)
    return _log_margliks(_gram(e, e / v[:, None]), np.log(v).sum(axis=1), n, prior)


def exact_log_margliks(k, t, xi, x, prior):
    """Exact log marginal likelihoods of the population (k, t, xi), without raising.

    Returns (values, info, ill), three arrays over rows.  info[i] is 0 when
    T(fbar) of row i is numerically positive definite, and values[i] is then
    its log marginal likelihood (up to one theta-free constant); otherwise
    info[i] is the 1-based index of the failing leading minor and values[i]
    is nan.  ill[i] is true where T was positive definite but too
    ill-conditioned for the fast solve, so that the value is
    Durbin-Levinson's.  O(n log^2 n) time per row, O(n log n) for a k = 0
    row and O(n^2) for a row handed to Durbin-Levinson; the rows are solved
    in blocks of at most BLOCK_ELEMENTS // n.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    values = np.full(k.size, math.nan)
    info = np.zeros(k.size, dtype=int)
    ill = np.zeros(k.size, dtype=bool)
    size = max(1, BLOCK_ELEMENTS // n)
    for lo in range(0, k.size, size):
        block = slice(lo, lo + size)
        acf = _autocovs(k[block], t[block], xi[block], n)
        z = np.empty((acf.shape[0], 2, n))
        logdet, resid = np.empty((2, acf.shape[0]))
        frac = k[block] == 0
        if frac.any():
            d = memory_d(t[block][frac])
            z[frac], logdet[frac], resid[frac] = _accel.fracnoise_solve(acf[frac], d, y)
        if not frac.all():
            z[~frac], logdet[~frac], resid[~frac] = _accel.schur_solve(acf[~frac], y)
        good = resid <= RESIDUAL_BOUND
        fast, slow = np.flatnonzero(good), np.flatnonzero(~good)
        values[lo + fast] = _log_margliks(_gram(y.T[None], z[fast]), logdet[fast], n, prior)
        if slow.size:
            e, v, bad = _accel.durbin_levinson_whiten(acf[slow], y)
            info[lo + slow] = bad
            ok = bad == 0
            ill[lo + slow[ok]] = True
            values[lo + slow[ok]] = _whitened_log_margliks(e[ok], v[ok], n, prior)
    return values, info, ill
