"""Normalised FEXP model, priors and parameter containers.

The inferential model for the spectral density of a stationary Gaussian
series is the normalised FEXP family

    fbar_theta(lam) = (1/(2 pi)) |1 - e^{-i lam}|^{-2 d}
                      exp( sum_{j=1}^{k} xi_j cos(j lam) ),

parameterised by theta_k = (t, xi_1..xi_k) with t = logit(2 d) so that the
memory parameter d = sigmoid(t)/2 ranges over (0, 1/2).  The scale
exp(xi_0) = sigma^2 and the mean mu are handled analytically by the
conjugate prior in the likelihood modules, not carried in theta.

Prior:
    k      ~ Geometric(geom_p) on {0, 1, ..., k_max}
    d      ~ Uniform[0, 1/2]   => p(t) = sigmoid(t) (1 - sigmoid(t))
    xi_j   ~ Normal(0, xi_var0 * j^(-2 beta)),  j = 1..k, independent.

A population of thetas is also carried as arrays: orders ``k`` (N,),
``t`` (N,) and ``xi`` (N, w), row i holding its k[i] coefficients in its
first columns and zeros after them, with w at least the largest order
(:func:`to_arrays`, :func:`to_thetas`).  :func:`log_prior` scores such a
population row by row.  Its theta-free constants (log p(k), the variances
Var(xi_j) and the Gaussian normalisers) are tables computed once per prior
and width, and cached on the values of the prior fields they depend on; a
PriorConfig changed in place gets fresh tables, and log p(t) is one numpy
expression over the population.  d stays a per-element ``math`` call
(:func:`memory_d`): numpy's ``exp`` differs from ``math``'s in the last
bit for some doubles, and a ThetaParams must get the same d in a
population as alone.  :func:`sample_prior` draws d with
``Generator.random()``, the same double ``uniform()`` would return;
:func:`sample_population` makes n such draws in turn from one generator.
:func:`fexp_sdf` gives a population's densities on a grid, from
:func:`cosine_sums`, the one evaluator of sum_j xi_j cos(j lam), which the
likelihood modules share.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ThetaParams",
    "PriorConfig",
    "fexp_sdf",
    "arfima_sdf",
    "memory_d",
    "to_arrays",
    "to_thetas",
    "rows_by_order",
    "cosine_sums",
    "log_prior",
    "sample_prior",
    "sample_population",
]


def _d_of_t(t):
    # d = sigmoid(t)/2, stable for large |t|
    if t >= 0.0:
        return 0.5 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return 0.5 * e / (1.0 + e)


@dataclass
class ThetaParams:
    """FEXP parameter block: cosine order k, t = logit(2d), coefficients xi."""

    k: int
    t: float
    xi: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float).reshape(-1)
        if self.k != self.xi.size:
            raise ValueError(f"k={self.k} but xi has length {self.xi.size}")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    @property
    def d(self):
        return _d_of_t(self.t)

    def copy(self):
        return ThetaParams(self.k, self.t, self.xi.copy())

    def key(self):
        """Hashable identity used for memoising per-theta computations."""
        return (self.k, self.t, self.xi.tobytes())


@dataclass
class PriorConfig:
    """Hyperparameters of the hierarchical prior and conjugate scale/mean prior;
    the only owner of the ``prior.*`` config keys' defaults and range checks."""

    geom_p: float = 0.2       # success probability of the Geometric order prior
    xi_var0: float = 100.0    # prior variance of xi_1
    beta: float = 1.0         # smoothness decay: Var(xi_j) = xi_var0 * j^(-2 beta)
    a: float = 0.5            # Gamma(a, b) prior on 1/sigma^2
    b: float = 0.5
    g_mu: float = 0.1         # mu | sigma^2 ~ N(m_mu, sigma^2 / g_mu)
    m_mu: float = 0.0
    k_max: int = 50           # the model-order cap, which every sampler reads from here

    def __post_init__(self):
        if not 0.0 < self.geom_p < 1.0:
            raise ValueError("geom_p must lie in (0, 1)")
        for name in ("xi_var0", "a", "b", "g_mu"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")

    def xi_var(self, j):
        """Prior variance of xi_j (j >= 1)."""
        return self.xi_var0 * float(j) ** (-2.0 * self.beta)


def fexp_sdf(k, d, xi, lam):
    """Normalised FEXP spectral density of each row (k, xi), with memory
    parameter ``d`` (one per row), on the frequencies ``lam``, as a
    (rows, grid) array; the series sum_j xi_j cos(j lam) is :func:`cosine_sums`.

    Diverges at lam = 0 for d > 0; the caller keeps grids away from 0.
    """
    lam = np.asarray(lam, dtype=float)
    basis = np.cos(np.outer(np.arange(1, k.max(initial=0) + 1), lam))
    with np.errstate(divide="ignore"):
        sing = (2.0 - 2.0 * np.cos(lam)) ** -d[:, None]
    return sing * np.exp(cosine_sums(k, xi, basis)) / (2.0 * np.pi)


def arfima_sdf(d, phi, theta_ma, sigma2, lam):
    """ARFIMA(p, d, q) spectral density.

    f(lam) = (sigma2 / (2 pi)) |1 - e^{-i lam}|^{-2d}
             |1 + sum_q theta_q e^{-i q lam}|^2 / |1 - sum_p phi_p e^{-i p lam}|^2
    """
    lam = np.asarray(lam, dtype=float)
    z = np.exp(-1j * lam)
    ma = np.ones_like(z)
    for q, th in enumerate(np.atleast_1d(theta_ma), start=1):
        ma = ma + th * z ** q
    ar = np.ones_like(z)
    for p, ph in enumerate(np.atleast_1d(phi), start=1):
        ar = ar - ph * z ** p
    scale = sigma2 / (2.0 * np.pi)
    if d != 0.0:  # at d = 0 the singular factor is exactly 1
        with np.errstate(divide="ignore"):
            scale = scale * (2.0 - 2.0 * np.cos(lam)) ** (-d)
    return scale * np.abs(ma) ** 2 / np.abs(ar) ** 2


def memory_d(t):
    """d = sigmoid(t)/2 of each element of a 1-D array, as ThetaParams.d gives it."""
    return np.fromiter(map(_d_of_t, t.tolist()), float, t.size)


def _stack(ks, ts, xis):
    """Arrays (k, t, xi) of a population from per-particle orders, t values
    and coefficient vectors; xi is zero-padded to the largest order."""
    k = np.array(ks, dtype=np.int64)
    xi = np.zeros((k.size, int(k.max(initial=0))))
    for row, kj, x in zip(xi, ks, xis):
        row[:kj] = x
    return k, np.array(ts, dtype=float), xi


def rows_by_order(k):
    """{order: the positions of the rows of that order, ascending} of an
    order array ``k``, orders in order of first appearance."""
    rows = {}
    for j, kj in enumerate(k.tolist()):
        rows.setdefault(kj, []).append(j)
    return rows


def cosine_sums(k, xi, basis):
    """sum_j xi_j cos(j lam) of each row (k, xi) on a grid, as a (rows, grid)
    array, from ``basis``, whose row m - 1 is cos(m lam) for m = 1..max(k).

    Each row's series is its own length-k vector-matrix product (the rows of
    one order are one stacked product, the same BLAS call per row), so a
    theta gets the same bits in any batch and at any padding: a padded BLAS
    matrix product rounds a row differently with its padding and its
    neighbours.  Order-1 rows are one elementwise product instead: at inner
    dimension 1 numpy's stacked product leaves BLAS for a slower loop.  Only
    the sign of an exact zero can differ from the product's, and every
    caller takes exp of the series, which erases it.
    """
    series = np.zeros((k.size, basis.shape[1]))  # 0 at k = 0
    for kk, rows in rows_by_order(k).items():
        if kk == 1:
            series[rows] = xi[rows, :1] * basis[0]
        elif kk:
            series[rows] = np.matmul(xi[rows, None, :kk], basis[:kk])[:, 0]
    return series


def to_arrays(thetas):
    """A sequence of ThetaParams as population arrays (k, t, xi)."""
    return _stack([th.k for th in thetas], [th.t for th in thetas], [th.xi for th in thetas])


def to_thetas(k, t, xi):
    """Population arrays (k, t, xi) as a list of ThetaParams, each owning its xi."""
    return [ThetaParams(kj, tj, row[:kj].copy())
            for kj, tj, row in zip(k.tolist(), t.tolist(), xi)]


@lru_cache(maxsize=256)
def _prior_tables(geom_p, xi_var0, beta, k_max, w):
    """The theta-free parts of the log prior for orders up to w, each the
    double the per-term formula gives: a (w+1, w+1) table whose row k is
    log p(k) (-inf beyond k_max) followed by the normalisers
    -log(2 pi v_j)/2 for j = 1..k and zeros, and the variances
    v_j = Var(xi_j) for j = 1..w.

    Keyed on the prior fields they depend on, so a PriorConfig changed in
    place gets fresh tables; the cached arrays are read-only.
    """
    prior = PriorConfig(geom_p=geom_p, xi_var0=xi_var0, beta=beta)
    v = [prior.xi_var(j) for j in range(1, w + 1)]
    norm = [-0.5 * math.log(2.0 * math.pi * vj) for vj in v]
    table = np.zeros((w + 1, w + 1))
    for k in range(w + 1):
        table[k, 0] = math.log(geom_p) + k * math.log1p(-geom_p) if k <= k_max else -math.inf
        table[k, 1:k + 1] = norm[:k]
    v = np.array(v, dtype=float)
    table.flags.writeable = v.flags.writeable = False
    return table, v


def log_prior(k, t, xi, prior):
    """Log prior density of each row of the population (k, t, xi) under ``prior``.

    p(k) = geom_p (1-geom_p)^k;  p(t) = sigmoid(t)(1-sigmoid(t)) is the
    Uniform[0, 1/2] prior on d pushed through t = logit(2d) (Jacobian
    included), so log p(t) = -|t| - 2 log1p(exp(-|t|)), stable for large
    |t|;  xi_j ~ N(0, xi_var0 j^(-2 beta)).  A row is outside the support
    (-inf) when its order exceeds ``prior.k_max`` or a coordinate is not
    finite (its sum is then -inf or NaN).  Each row sums log p(k) + log p(t)
    and then its k Gaussian terms in order of j, by one row-wise cumulative
    sum whose padding terms are exact zeros, so a row gets the same bits in
    any population.
    """
    table, v = _prior_tables(prior.geom_p, prior.xi_var0, prior.beta, prior.k_max, xi.shape[1])
    terms = table[k]
    a = np.abs(t)
    terms[:, 0] -= a + 2.0 * np.log1p(np.exp(-a))  # the bits of += (-a - 2 log1p(exp(-a)))
    terms[:, 1:] -= 0.5 * xi * xi / v
    return np.fmax(terms.cumsum(axis=1)[:, -1], -math.inf)  # NaN -> -inf


def _draw(prior, rng, fix_k):
    """One prior draw as (k, t, xi)."""
    if fix_k is None:
        k = int(rng.geometric(prior.geom_p) - 1)  # numpy geometric lives on {1, 2, ...}
        if k > prior.k_max:
            # one inverse-CDF draw of the geometric truncated to 0..k_max; mixed
            # with the first draw's accepted part it is exactly the truncated law
            log_q = math.log1p(-prior.geom_p)
            mass = -math.expm1((prior.k_max + 1) * log_q)
            k = min(math.floor(math.log1p(-rng.random() * mass) / log_q), prior.k_max)
    else:
        k = int(fix_k)
        if not 0 <= k <= prior.k_max:
            raise ValueError(f"fix_k={fix_k} outside [0, k_max]")
    d = 0.5 * rng.random()
    # logit(2d); random() is half-open in [0, 1) so 2d < 1, and a zero draw
    # is mapped to the smallest positive float to keep t finite
    u = max(2.0 * d, 5e-324)
    t = math.log(u) - math.log1p(-u)
    xi = np.array([math.sqrt(prior.xi_var(j)) * rng.standard_normal() for j in range(1, k + 1)])
    return k, t, xi


def sample_prior(prior, rng, fix_k=None):
    """Draw theta from the prior (k optionally frozen at ``fix_k``)."""
    return ThetaParams(*_draw(prior, rng, fix_k))


def sample_population(prior, rng, n, fix_k=None):
    """n successive prior draws from ``rng``, as population arrays (k, t, xi);
    row j is the j-th ``sample_prior(prior, rng, fix_k)`` draw from ``rng``."""
    return _stack(*zip(*(_draw(prior, rng, fix_k) for _ in range(n))))
