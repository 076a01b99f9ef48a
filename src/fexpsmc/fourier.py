"""Fourier coefficients of spectral densities.

Conventions
-----------
Autocovariance-style coefficients are defined without a 1/(2*pi) factor:

    gamma_g(l) = integral_{-pi}^{pi} g(lam) e^{i l lam} d lam.

Bounded integrands are handled on the uniform grid lam_j = -pi + j*Delta,
j = 0..M, Delta = 2*pi/M, by a single FFT.  Because the integrand is
2*pi-periodic, the trapezoid sum with the two half-weighted endpoints
folded together is spectrally accurate (the error is the aliasing of the
integrand's own Fourier coefficients), and it integrates trigonometric
polynomials of degree < M exactly.

Long-memory integrands |1 - e^{-i lam}|^{-2d} * g(lam) are split into a
singular part with known closed-form coefficients (fractional-noise
autocovariances) plus a bounded remainder:

    |1-e^{-i lam}|^{-2d} g(lam)
        = g(0) |1-e^{-i lam}|^{-2d}
          + |1-e^{-i lam}|^{-2d} (g(lam) - g(0)),

where the second term extends continuously by 0 at lam = 0 whenever g is
smooth (it vanishes like lam^{2-2d}).
"""

import math

import numpy as np

from .config import NumericalError

__all__ = [
    "fourier_coeffs_bounded",
    "fracdiff_acf",
    "fourier_coeffs_longmemory",
]

#: default relative bound on the discarded imaginary residue
IMAG_TOL = 1e-8


def default_grid_size(n):
    """Smallest power of two >= 2 n."""
    M = 1
    while M < 2 * n:
        M *= 2
    return M


def fourier_coeffs_bounded(g, n, M=None):
    """Coefficients gamma_g(l) = int_{-pi}^{pi} g(lam) e^{i l lam} dlam, l = 0..n-1.

    Parameters
    ----------
    g : callable
        Vectorised bounded integrand on [-pi, pi].
    n : int
        Number of coefficients (n >= 1).
    M : int, optional
        Grid resolution; must be a power of two >= 2. Defaults to the
        smallest power of two >= 2 n.

    The assembled coefficients are complex only through rounding (for even
    g) or genuine asymmetry of g; the real part is returned and the
    imaginary residue is required to stay below ``IMAG_TOL`` relative to
    the coefficient scale.  A non-finite g on the grid raises NumericalError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if M is None:
        M = default_grid_size(n)
    if M < 2 or M & (M - 1):
        raise ValueError(f"M = {M} is not a power of two >= 2")
    lam = -np.pi + 2.0 * np.pi * np.arange(M + 1) / M
    gv = np.asarray(g(lam), dtype=float)
    if gv.shape != lam.shape:
        raise ValueError("g must return one value per grid node")
    if not np.all(np.isfinite(gv)):
        raise NumericalError("g produced non-finite values on the grid")
    # periodic trapezoid: fold the two half-weighted endpoints, one FFT
    s = gv[:M].astype(complex)
    s[0] = 0.5 * (gv[0] + gv[M])
    F = np.fft.ifft(s) * M
    vals = (2.0 * np.pi / M) * (-1.0) ** np.arange(n) * F[:n]
    scale = max(np.max(np.abs(vals.real)), 1e-300)
    resid = np.max(np.abs(vals.imag))
    if resid > IMAG_TOL * scale:
        raise ValueError(
            f"imaginary residue {resid:.3e} exceeds {IMAG_TOL:.0e} of the "
            f"coefficient scale {scale:.3e}; integrand looks asymmetric"
        )
    return vals.real.copy()


def fracdiff_acf(d, lags):
    """Autocovariances of fractional noise with unit innovation variance.

    Returns (1/(2 pi)) * int_{-pi}^{pi} |1 - e^{-i lam}|^{-2d} e^{i l lam} dlam
    for each requested lag:

        gamma*(0) = Gamma(1-2d) / Gamma(1-d)^2,
        gamma*(l+1) = gamma*(l) * (l + d) / (l + 1 - d).

    The ratio recurrence follows from gamma*(l) proportional to
    Gamma(l+d)/Gamma(l+1-d) and holds from l = 0; the l = 0 value is
    evaluated in log-Gamma space.  At d = 0 this degenerates cleanly to
    (1, 0, 0, ...).

    Parameters
    ----------
    d : float in [0, 0.5)
    lags : int or array of ints
        A scalar lag, or the lags 0..len-1 when an array is wanted; any
        nonnegative integer array is accepted.
    """
    if not 0.0 <= d < 0.5:
        raise ValueError(f"d must lie in [0, 0.5), got {d}")
    scalar = np.isscalar(lags)
    lag_arr = np.atleast_1d(np.asarray(lags, dtype=np.int64))
    if lag_arr.size and lag_arr.min() < 0:
        raise ValueError("lags must be nonnegative")
    lmax = int(lag_arr.max()) if lag_arr.size else 0
    # the recurrence on Python floats: the same IEEE operations as on numpy
    # scalars, at about half the cost
    d = float(d)
    g = float(np.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d)))
    seq = [g]
    for l in range(lmax):
        g = g * (l + d) / (l + 1.0 - d)
        seq.append(g)
    out = np.array(seq)[lag_arr]
    return float(out[0]) if scalar else out


def fourier_coeffs_longmemory(d, g, n, M=None):
    """Coefficients of f(lam) = |1 - e^{-i lam}|^{-2d} g(lam), l = 0..n-1.

    g must be bounded, smooth and even with a finite value at 0; the
    singular factor is integrated in closed form against g(0) and the
    remainder |1-e^{-i lam}|^{-2d} (g(lam) - g(0)) -- continuous, equal to
    0 at lam = 0 -- goes through :func:`fourier_coeffs_bounded`.

    At d = 0 the split is exact and reduces to the bounded path alone.
    """
    if not 0.0 <= d < 0.5:
        raise ValueError(f"d must lie in [0, 0.5), got {d}")
    g0 = float(np.asarray(g(np.array([0.0])))[0])

    def remainder(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            sing = (2.0 - 2.0 * np.cos(lam)) ** (-d)
            vals = sing * (np.asarray(g(lam), dtype=float) - g0)
        return np.where(np.abs(lam) < 1e-300, 0.0, vals)

    bounded = fourier_coeffs_bounded(remainder, n, M=M)
    return 2.0 * np.pi * g0 * fracdiff_acf(d, np.arange(n)) + bounded
