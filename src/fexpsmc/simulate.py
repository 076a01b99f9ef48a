"""Exact simulation of stationary Gaussian series and CSV data I/O.

Draws x ~ N(mu * 1, T(f)) for a model spectral density f by the
Durbin-Levinson innovations recursion: each x_t is drawn from its exact
Gaussian conditional given x_0..x_{t-1}.  The map from the standard-normal
draws z to x is the lower Cholesky factor of T(f), so a given z yields the
dense Cholesky draw up to rounding, at O(n^2) time and O(n) memory.

Supported model kinds: "fracnoise" (pure fractional noise), "fexp"
(fractional noise times an exponential cosine series) and "arfima"
(fractional ARMA).  All share the memory parameter d in [0, 1/2).
"""

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .exact import NotPositiveDefiniteError
from .fourier import fourier_coeffs_longmemory
from .model import arfima_sdf, fexp_sdf

__all__ = ["SimConfig", "model_autocov", "simulate_series", "write_series", "read_series"]


@dataclass
class SimConfig:
    """Generative model specification."""

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
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.d < 0.5:
            raise ValueError("d must lie in [0, 0.5)")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _smooth_factor(cfg):
    """The bounded factor g with f(lam) = |1-e^{-i lam}|^{-2d} g(lam): the
    model's density at d = 0."""
    if cfg.kind == "fracnoise":
        return lambda lam: np.full_like(np.asarray(lam, float), cfg.sigma2 / (2.0 * np.pi))
    if cfg.kind == "fexp":
        return lambda lam: cfg.sigma2 * fexp_sdf(0.0, cfg.xi, lam)
    return lambda lam: arfima_sdf(0.0, cfg.phi, cfg.theta_ma, cfg.sigma2, lam)


def model_autocov(cfg, n, M=None):
    """Autocovariances gamma(0..n-1) of the configured model."""
    return fourier_coeffs_longmemory(cfg.d, _smooth_factor(cfg), n, M=M)


def simulate_series(cfg, rng, M=None):
    """Draw one exact sample path x ~ N(mu, T(f)) of length cfg.n.

    Raises :class:`NotPositiveDefiniteError` when T(f) is not numerically
    positive definite.
    """
    acf = model_autocov(cfg, cfg.n, M=M)
    z = rng.standard_normal(cfg.n)
    x, info = _accel.durbin_levinson_sample(acf, z)
    if info:
        raise NotPositiveDefiniteError(info)
    return x + cfg.mu


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
