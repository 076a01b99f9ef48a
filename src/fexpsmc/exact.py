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
z = T^{-1}[u, 1] from the Gohberg-Semencul inverse, so G = [u, 1]' z.  Its
accuracy degrades with the condition of T, and nothing in it checks that,
so it also returns the relative residual ||T z - y|| / ||y||.  A theta whose
residual exceeds RESIDUAL_BOUND, or whose factorisation failed, is whitened
again by the O(n^2) Durbin-Levinson sweep, which gives log|T| = sum log v_t
and G from the prediction errors, or the failing leading minor.

:func:`exact_log_margliks` scores a whole population: it stacks the
autocovariances of a block of BLOCK_ROWS thetas and solves the block at
once, which pays the kernels' per-step Python cost once per block instead
of once per theta.  Blocking bounds the working set to a few BLOCK_ROWS x n
arrays however many thetas are passed.  A theta whose T is not positive
definite is reported by its failing index instead of raising, and its
neighbours are unaffected; a theta gets the same bits in any batch, so
:func:`exact_log_marglik`, the batch of one, agrees exactly.
"""

import math

import numpy as np

from . import _accel
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

#: rows whose Schur solve leaves a relative residual above this are whitened
#: again by Durbin-Levinson.  On 7 x 32 prior draws at n = 1000, cond(T) from
#: 1 to 1e16, every row below it was within |DL - dense| + 7.5e-7 nats of a
#: dense slogdet/solve oracle; above it the Schur value drifted up to 100
#: nats off (residual 0.1 at cond 1.1e16) where Durbin-Levinson was 38 off.
#: The 534 distinct final particles of 12 fits on the benchmark's inputs had
#: residuals of at most 3.5e-13.
RESIDUAL_BOUND = 1e-8


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
    return _log_marglik_gram(e.T @ (e / v[:, None]), float(np.sum(np.log(v))), n, prior)


def _log_marglik_gram(G, logdet, n, prior):
    """Log marginal likelihood from the Gram matrix G of the T^{-1} quadratic
    forms of [u, 1] and log|T| of one theta."""
    s = 1.0 + G[1, 1] / prior.g_mu
    logdet = logdet + math.log(s)
    q = G[0, 0] - G[0, 1] ** 2 / (prior.g_mu * s)
    return -0.5 * logdet - (prior.a + 0.5 * n) * math.log(prior.b + 0.5 * q)


def _exact_log_margliks(thetas, x, prior):
    """:func:`exact_log_margliks` and a third array over thetas, true where T
    was positive definite but too ill-conditioned for the Schur solve, so
    that the value is Durbin-Levinson's."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    thetas = list(thetas)
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    values = np.full(len(thetas), math.nan)
    info = np.zeros(len(thetas), dtype=int)
    ill = np.zeros(len(thetas), dtype=bool)
    for lo in range(0, len(thetas), BLOCK_ROWS):
        acf = _autocovs(thetas[lo:lo + BLOCK_ROWS], n)
        z, logdet, resid = _accel.schur_solve(acf, y)
        fast = resid <= RESIDUAL_BOUND
        # G[b, i, j] = y_i' z_j
        G = (z[:, None] * y.T[None, :, None]).sum(axis=-1)
        for i in np.flatnonzero(fast):
            values[lo + i] = _log_marglik_gram(G[i], float(logdet[i]), n, prior)
        slow = np.flatnonzero(~fast)
        if slow.size:
            e, v, bad = _accel.durbin_levinson_whiten(acf[slow], y)
            info[lo + slow] = bad
            ill[lo + slow] = bad == 0
            for i, row in enumerate(slow):
                if not bad[i]:
                    values[lo + row] = _log_marglik(e[i], v[i], n, prior)
    return values, info, ill


def exact_log_margliks(thetas, x, prior):
    """Exact log marginal likelihoods of a population, without raising.

    Returns (values, info), two arrays over thetas.  info[i] is 0 when
    T(fbar) of thetas[i] is numerically positive definite, and values[i] is
    then its log marginal likelihood (up to one theta-free constant);
    otherwise info[i] is the 1-based index of the failing leading minor and
    values[i] is nan.  O(n log^2 n) time per theta, O(n^2) for a theta the
    Schur solve hands to Durbin-Levinson; the thetas are solved in blocks of
    BLOCK_ROWS.
    """
    values, info, _ = _exact_log_margliks(thetas, x, prior)
    return values, info


def exact_log_marglik(theta, x, prior):
    """Exact log marginal likelihood of theta (up to one theta-free constant);
    the batch of one of :func:`exact_log_margliks`.

    O(n log^2 n) time and O(n) memory.  Raises :class:`NotPositiveDefiniteError`
    when T(fbar_theta) is not numerically positive definite.
    """
    values, info = exact_log_margliks([theta], x, prior)
    if info[0]:
        raise NotPositiveDefiniteError(info[0])
    return float(values[0])
