"""Exact simulation of stationary Gaussian series and CSV data I/O.

Draws x ~ N(mu * 1, T(f)) for a model spectral density f.  Whenever the
even circulant embedding of T(f), of size 2L with L the smallest 5-smooth
integer >= n - 1 (Wood & Chan 1994), has no negative eigenvalue, the draw
is the first n values of an exact draw of the embedding, made by FFTs at
O(n log n) time (Davies & Harte 1987).  Otherwise, and at n = 1,
it falls back to the Durbin-Levinson innovations recursion: each x_t is
drawn from its exact Gaussian conditional given x_0..x_{t-1}, so the map
from the standard-normal draws z to x is the lower Cholesky factor of T(f)
and a given z yields the dense Cholesky draw up to rounding, at O(n^2) time
and O(n) memory.  Only the fallback raises NotPositiveDefiniteError: a
non-negative embedding makes T(f) positive semidefinite.  The
autocovariances of T(f) are the array quadrature of :mod:`fexpsmc.fourier`:
the model's density at d = 0 is sampled on the half grid of
default_grid_size(n) points, and a density that is not finite there is a
NumericalError naming the model.  Fractional noise has a constant such
density, so its autocovariances are the quadrature's closed-form part
alone, with the same bits.

A draw is a plan and a colouring.  The plan depends only on the model and
n: the embedding's eigenvalues when none is negative, else the lags
0..n-1 for Durbin-Levinson.  It is built on the first draw of a model and
length and kept read-only in a least-recently-used cache of at most
_PLAN_BYTES bytes (a plan of n = 16 384 takes 128 KiB), keyed on every
field but mu, so a SimConfig changed in place gets a fresh plan.  A later
draw of an equal model costs its standard normals and one colouring: at
n = 16 384 a fractional-noise draw took 2.0 ms cold and 1.2 ms warm, an
ARFIMA(0, d, 2) draw 3.4 ms and 1.1 ms (2-core x86 host, two BLAS
threads), with the same bits either way.

Supported model kinds: "fracnoise" (pure fractional noise), "fexp"
(fractional noise times an exponential cosine series, the density of
:func:`fexpsmc.model.fexp_sdf` as a population of one) and "arfima"
(fractional ARMA).  All share the memory parameter d in [0, 1/2).
"""
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .config import NumericalError
from .exact import NotPositiveDefiniteError
from .fourier import default_grid_size, fracdiff_acf, half_grid, longmemory_autocovs
from .model import arfima_sdf, fexp_sdf

__all__ = ["SimConfig", "model_autocov", "simulate_series", "write_series", "read_series"]


@dataclass
class SimConfig:
    """Generative model specification; the only owner of the ``model.*`` config
    keys' defaults and range checks."""

    kind: str = "fracnoise"   # fracnoise | fexp | arfima
    n: int = 1000
    d: float = 0.2
    sigma2: float = 1.0
    mu: float = 0.0
    xi: np.ndarray = field(default_factory=lambda: np.empty(0))      # fexp
    phi: np.ndarray = field(default_factory=lambda: np.empty(0))     # arfima AR
    theta_ma: np.ndarray = field(default_factory=lambda: np.empty(0))  # arfima MA

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float).reshape(-1)
        self.phi = np.asarray(self.phi, dtype=float).reshape(-1)
        self.theta_ma = np.asarray(self.theta_ma, dtype=float).reshape(-1)
        if self.kind not in ("fracnoise", "fexp", "arfima"):
            raise ValueError(f"kind must be fracnoise, fexp or arfima, got {self.kind!r}")
        if not 0.0 <= self.d < 0.5:
            raise ValueError("d must lie in [0, 0.5)")
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be positive and finite")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _smooth_factor(cfg, lam):
    """The bounded factor g with f(lam) = |1-e^{-i lam}|^{-2d} g(lam), the
    model's density at d = 0, on the frequencies lam."""
    if cfg.kind == "fracnoise":
        return np.full_like(lam, cfg.sigma2 / (2.0 * np.pi))
    if cfg.kind == "fexp":
        return cfg.sigma2 * fexp_sdf(np.array([cfg.xi.size]), np.zeros(1), cfg.xi[None], lam)[0]
    return arfima_sdf(0.0, cfg.phi, cfg.theta_ma, cfg.sigma2, lam)


def model_autocov(cfg, n, lags=None):
    """Autocovariances gamma(0..lags-1) of the configured model, gamma(0..n-1)
    when lags is None, by the array quadrature of :mod:`fexpsmc.fourier` on
    the half grid of default_grid_size(n) points.  lags may run up to that
    grid size, and lags 0..n-1 have the same bits whatever it is.
    NumericalError if g is not finite on the grid."""
    M = default_grid_size(n)
    lags = n if lags is None else lags
    if cfg.kind == "fracnoise":
        # a constant g: the quadrature's remainder is zero, and the
        # closed-form part alone has the bits of the whole sum
        if not 1 <= lags <= M:
            raise ValueError(f"need 1 <= n <= M, got n = {lags} and M = {M}")
        g0 = _smooth_factor(cfg, half_grid(M)[:1])
        return 2.0 * np.pi * g0 * fracdiff_acf(cfg.d, np.arange(lags))
    # a density that divides by zero or overflows is reported by the
    # non-finite check alone, not also by numpy's RuntimeWarnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = _smooth_factor(cfg, half_grid(M))
    if not np.all(np.isfinite(g)):
        raise NumericalError(f"model.kind = {cfg.kind}: the spectral density is not finite "
                             "on the quadrature grid")
    return longmemory_autocovs(cfg.d, g, lags)


#: bytes of draw plans kept; each plan is charged its array and _PLAN_OVERHEAD
_PLAN_BYTES = 16 << 20
#: bytes charged per plan for its key and bookkeeping
_PLAN_OVERHEAD = 1024


class _PlanCache:
    """Least-recently-used map from model keys to read-only draw plans,
    holding at most _PLAN_BYTES charged bytes; a plan charged more is not
    kept."""

    def __init__(self):
        self._plans = OrderedDict()   # key -> (plan, bytes), oldest first
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            hit = self._plans.get(key)
            if hit is None:
                return None
            self._plans.move_to_end(key)
            return hit[0]

    def put(self, key, plan, nbytes):
        with self._lock:
            if nbytes > _PLAN_BYTES or key in self._plans:
                return
            self._plans[key] = plan, nbytes
            self._bytes += nbytes
            while self._bytes > _PLAN_BYTES:
                self._bytes -= self._plans.popitem(last=False)[1][1]

    def clear(self):
        with self._lock:
            self._plans.clear()
            self._bytes = 0


_PLANS = _PlanCache()


def _plan(cfg):
    """(True, lam) with the embedding's eigenvalues lam when none is
    negative, else (False, acf) with the lags 0..n-1 for Durbin-Levinson;
    read-only, and built once per model and length."""
    key = (cfg.kind, cfg.n, cfg.d, cfg.sigma2,
           cfg.xi.tobytes(), cfg.phi.tobytes(), cfg.theta_ma.tobytes())
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    n = cfg.n
    L = _accel._fft_size(n - 1) if n > 1 else 0  # at n = 1 the embedding is empty
    acf = model_autocov(cfg, n, L + 1)
    lam = _accel.circulant_eigenvalues(acf) if L else None
    embedded = bool(L) and lam.min() >= 0.0
    a = np.ascontiguousarray(lam) if embedded else acf[:n].copy()
    a.flags.writeable = False
    plan = embedded, a
    _PLANS.put(key, plan, a.nbytes + _PLAN_OVERHEAD)
    return plan


def simulate_series(cfg, rng):
    """Draw one exact sample path x ~ N(mu, T(f)) of length n = cfg.n.

    T(f) is embedded in the even circulant of size 2L, with L the smallest
    5-smooth integer >= n - 1, whose first row takes lags 0..L from the
    quadrature grid of :func:`model_autocov` (n), so lags 0..n-1 are those
    of model_autocov(cfg, n).  When every eigenvalue of the embedding is
    >= 0, x is the first n values of a draw coloured from 2L standard
    normals by FFTs.  Otherwise, and at n = 1, it is coloured from n
    standard normals by Durbin-Levinson, the lower Cholesky factor of T(f);
    only there is :class:`NotPositiveDefiniteError` raised, when T(f) is not
    numerically positive definite.  The eigenvalues or lags are computed on
    the first draw of a model and length and reused by later ones.
    """
    embedded, a = _plan(cfg)
    if embedded:
        x = _accel.circulant_sample(a, rng.standard_normal(2 * (a.size - 1)), cfg.n)
    else:
        x, info = _accel.durbin_levinson_sample(a, rng.standard_normal(cfg.n))
        if info:
            raise NotPositiveDefiniteError(info)
    x += cfg.mu
    return x


def write_series(path, x, header="x"):
    """Write a series as single-column CSV (17 significant digits)."""
    x = np.asarray(x, dtype=float)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for v in x:
            fh.write(f"{v:.17g}\n")


def read_series(path, scale_by=1.0):
    """Read a single-column CSV series, tolerating one optional header line.

    Every value is multiplied by ``scale_by`` (e.g. 1e-3 to change units).
    Raises ValueError with the offending line number on parse failure.
    """
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: cannot parse {line!r}") from None
    if not values:
        raise ValueError(f"{path}: no numeric data found")
    out = np.array(values, dtype=float)
    if scale_by != 1.0:
        out = out * scale_by
    return out
