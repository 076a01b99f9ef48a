"""O(n)-per-evaluation approximate marginal log likelihood.

Two ingredients replace the exact O(n^2) computation:

* the inverse covariance T(fbar)^{-1} is approximated by the Toeplitz
  matrix T(h) of h = 1/(4 pi^2 fbar), and the quadratic form x~' T(h) x~
  by its Riemann sum over the Fourier frequencies lam_j = 2 pi j / n (the
  Whittle form),

      Q = (1/(2 pi n)) sum_{j=1}^{n-1} I(lam_j) / fbar(lam_j*),

  where I is the raw periodogram |sum_t x~_t e^{i t lam_j}|^2 of the
  centred data and lam_j* = min(lam_j, 2 pi - lam_j) folds the grid away
  from the spectral pole at 2 pi == 0.  The data are real, so
  I(lam_j) = I(lam_{n-j}) and lam_j* = lam_{n-j}*: the sum is taken over
  the half grid j = 1..floor(n/2) with weights I_j + I_{n-j} (the Nyquist
  term j = n/2 of an even n once), which halves its cost;

* log|T(fbar)| is approximated by the closed-form asymptotic

      D_n = d^2 log n + (1/4) sum_j j xi_j^2 + d sum_j j xi_j
            + log( G(1-d)^2 / G(1-2d) )

  with Barnes' double-Gamma function G.  Its Taylor coefficients need
  zeta(2..55), which is a literal table of scipy.special.zeta's doubles
  (each correctly rounded), and its functional-equation shifts use
  math.lgamma, so the module needs numpy alone.

The approximate log likelihood is then

    log p~(x | theta) = -D_n / 2 - (a + n/2) log( b + Q/2 ),

exact up to a single theta-free additive constant, mirroring
:func:`fexpsmc.exact.exact_log_margliks`.

:func:`approx_log_liks` scores a whole population at once, which is how the
SMC sampler and the correction call it.  It takes the population as arrays
(k, t, xi), xi zero-padded beyond each row's order (see
:mod:`fexpsmc.model`), and computes d for all rows once.  Per block of
BLOCK_ROWS rows Q is one exp over a (rows, floor(n/2)) exponent matrix and
one product with the folded periodogram, and D_n is one vectorised
Barnes-G call for 1 - d and 1 - 2d together.  A block costs
O(rows * n * (1 + k_max)) flops for the exponents, where k_max is the
largest order in the block, and blocking bounds the temporaries to
BLOCK_ROWS x floor(n/2) doubles however many rows are passed.  Every sum
runs within its own row, so a theta's value does not depend on the rest of
its batch or on the padding.
"""

import math

import numpy as np

from .config import DataError
from .model import cosine_sums, memory_d

__all__ = ["DatasetContext", "prepare_dataset", "approx_log_liks"]

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

        # real data: |X_{n-j}| = |X_j|, so the half grid carries twice I_j
        # except at the Nyquist frequency of an even n; a series large enough
        # to overflow |X_j|^2 is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            self.pgram = np.abs(np.fft.rfft(self.xtilde)[1:]) ** 2
            self.pgram[:(n - 1) // 2] *= 2.0
        if not np.all(np.isfinite(self.pgram)):
            raise DataError("series too large in magnitude: its periodogram overflows")
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


def _whittle_quadforms(k, xi, d, ctx):
    """Whittle quadratic forms pgram . exp(d logweight - xi cos_basis) / n of
    the rows (k, xi) with memory parameters ``d``, on the folded grid.

    The cosine series are :func:`fexpsmc.model.cosine_sums` and einsum sums
    each row on its own, so a theta gets the same bits in any batch.
    """
    s = np.multiply.outer(d, ctx.logweight)
    s -= cosine_sums(k, xi, ctx.cos_basis(int(k.max())))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    return np.einsum("ij,j->i", s, ctx.pgram) / ctx.n


# ---------------------------------------------------------------------------
# Barnes' G function
# ---------------------------------------------------------------------------

#: zeta(2) .. zeta(55) as the repr of scipy.special.zeta's doubles, each the
#: correctly rounded value; _TAYLOR is the same bits as when it called zeta
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
    1.0000000000002274, 1.0000000000001137, 1.0000000000000568, 1.0000000000000284,
    1.0000000000000142, 1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002, 1.0000000000000002,
    1.0, 1.0,
)
#: Taylor coefficients of log G(1 + w) for w^1 .. w^56; at |w| <= 1/2 the
#: first omitted term is about 1e-19
_K = np.arange(3, 57)
_TAYLOR = np.concatenate((
    [0.5 * (math.log(2.0 * math.pi) - 1.0), -0.5 * (1.0 + np.euler_gamma)],
    np.where(_K % 2, 1.0, -1.0) * np.array(_ZETA) / _K,
))

#: the multipliers of d in the Barnes-G arguments 1 - d and 1 - 2d
_ONE_TWO = np.array([1.0, 2.0])


def _lgamma(z):
    """log|Gamma| of each element of a 1-D array, by math.lgamma."""
    return np.fromiter(map(math.lgamma, z.tolist()), float, z.size)


def _log_g(z):
    """log G of each element of a 1-D array of positive values, accurate to
    ~1e-13 on (0, 4].

    G satisfies G(z + 1) = Gamma(z) G(z) with G(1) = G(2) = G(3) = 1,
    G(4) = 2.  Each argument is shifted into [0.5, 1.5] by the functional
    equation and the Taylor series

        log G(1 + w) = (log(2 pi) - 1)/2 * w - (1 + gamma_E)/2 * w^2
                       + sum_{k >= 3} (-1)^{k-1} zeta(k-1) w^k / k,

    |w| <= 1/2, is evaluated with a fixed number of terms: one cumulative
    product of powers times the coefficient vector, the same cost for every
    argument and, summed row by row, the same bits in any array.  The
    arguments are not checked: the likelihood passes 1 - d and 1 - 2d with
    d in [0, 1/2), the pole d = 1/2 set aside by its caller.
    """
    low = z < 0.5  # shifted up by one: log G(z) = log G(z + 1) - log Gamma(z)
    acc = np.zeros(z.size)
    acc[low] = -_lgamma(z[low])
    z = z + low
    high = z > 1.5
    while np.count_nonzero(high):
        z[high] -= 1.0
        acc[high] += _lgamma(z[high])
        high = z > 1.5
    powers = np.repeat((z - 1.0)[:, None], _TAYLOR.size, axis=1)
    np.multiply.accumulate(powers, axis=1, out=powers)
    return acc + np.einsum("ij,j->i", powers, _TAYLOR)


def _log_det_approxs(xi, d, n):
    """D_n of the rows xi (zero-padded) with memory parameters ``d``, with
    G(1 - d) and G(1 - 2d) in one call.

    The xi_j sums run in order of j behind a leading zero column, and
    trailing zeros leave a running sum unchanged, so a theta gets the same
    bits in any batch and at any padding.
    """
    j = np.arange(1.0, xi.shape[1] + 1.0)
    terms = np.zeros((2, d.size, 1 + j.size))  # j xi_j^2 and j xi_j
    np.multiply(xi, xi, out=terms[0, :, 1:])
    terms[0, :, 1:] *= j
    np.multiply(xi, j, out=terms[1, :, 1:])
    sq, lin = terms.cumsum(axis=2)[:, :, -1]
    x = 1.0 - np.multiply.outer(_ONE_TWO, d).ravel()
    # G(1 - 2d) -> 0 as d -> 1/2, so D_n -> inf and the likelihood -> -inf:
    # a d that rounds to 1/2 exactly gets that limit (G(1) stands in for G(0))
    pole = x == 0.0
    poles = np.count_nonzero(pole)
    if poles:
        x[pole] = 1.0
    g = _log_g(x)
    dn = d * d * math.log(n) + (0.25 * sq + d * lin) + (2.0 * g[:d.size] - g[d.size:])
    if poles:
        dn[pole[d.size:]] = math.inf
    return dn


def approx_log_liks(k, t, xi, ctx, prior):
    """Approximate log marginal likelihoods of the population (k, t, xi), as an array.

    -D_n/2 - (a + n/2) log(b + Q/2) with Q the Whittle form; a non-finite Q
    gives -inf.  The rows are taken in blocks of BLOCK_ROWS, and a block
    costs one exp over its (rows, floor(n/2)) exponents and one product
    with the folded periodogram.  A row gets the same value in any batch,
    alone included, and at any padding of xi.
    """
    d = memory_d(t)
    out = np.empty(k.size)
    for lo in range(0, k.size, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        q = _whittle_quadforms(k[rows], xi[rows], d[rows], ctx)
        ll = out[rows]
        np.subtract(-0.5 * _log_det_approxs(xi[rows], d[rows], ctx.n),
                    (prior.a + 0.5 * ctx.n) * np.log(prior.b + 0.5 * q), out=ll)
        ll[~np.isfinite(q)] = -math.inf
    return out
