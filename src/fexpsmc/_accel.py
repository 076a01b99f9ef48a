"""Numerical hot kernels with optional numba acceleration.

Every kernel exists in two interchangeable implementations: a numba
``@njit`` version and a pure-numpy version.  The active backend is chosen
at import time: setting the environment variable ``FEXPSMC_DISABLE_NUMBA``
to a non-empty value other than ``0`` forces the numpy path, as does an
unavailable numba installation.  Both paths produce identical results up
to floating-point rounding; the test suite runs against whichever backend
is active and also calls both Durbin-Levinson twins directly (without
numba, the ``njit`` fallback runs the numba source as plain Python).

One Durbin-Levinson innovations kernel serves both the exact likelihood
(whitening, ``durbin_levinson_whiten``) and simulation (colouring,
``durbin_levinson_sample``).  The Whittle quadratic form has no kernel
here: :mod:`fexpsmc.approx` evaluates it for a whole batch of thetas with
numpy array operations.

Kernels are module-level functions taking plain arrays (numba does not
compile methods, so no ``self`` anywhere).
"""

import math
import os

import numpy as np

_flag = os.environ.get("FEXPSMC_DISABLE_NUMBA", "0")
_want_numba = _flag in ("", "0")

try:
    if not _want_numba:
        raise ImportError("numba disabled by FEXPSMC_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # no-op decorator fallback
        if len(args) == 1 and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Cosine series evaluation: out_j = sum_m xi_m * cos((m+1) * lam_j)
# ---------------------------------------------------------------------------


def _cosine_series_np(xi, lam):
    if xi.shape[0] == 0:
        return np.zeros_like(lam)
    m = np.arange(1, xi.shape[0] + 1)
    return np.cos(np.outer(m, lam)).T @ xi


@njit(cache=True, nogil=True)
def _cosine_series_nb(xi, lam):
    n = lam.shape[0]
    k = xi.shape[0]
    out = np.zeros(n)
    for j in range(n):
        s = 0.0
        for m in range(k):
            s += xi[m] * math.cos((m + 1) * lam[j])
        out[j] = s
    return out


# ---------------------------------------------------------------------------
# Durbin-Levinson innovations recursion.
#
# T(acf) = L D L' with L unit lower triangular: row t of L^{-1} is
# (-phi_t reversed, 1), where phi_t holds the coefficients of the best
# linear predictor of x_t from x_{t-1}, .., x_0, and D = diag(v) holds the
# innovation (one-step prediction error) variances.  The classical
# Durbin-Levinson recursion updates (phi_t, v_t) from (phi_{t-1}, v_{t-1})
# in O(t), so one sweep costs O(n^2) time and O(n) memory.  The same sweep
# serves two uses, applied column by column to the (n, c) array y:
#
# * whitening (colour=False): out = L^{-1} y, the prediction errors
#   e_t = y_t - phi_t' (y_{t-1}, .., y_0);
# * colouring (colour=True): out = L D^{1/2} y, i.e.
#   x_t = phi_t' (x_{t-1}, .., x_0) + sqrt(v_t) y_t, which is the lower
#   Cholesky factor of T applied to y, so y ~ N(0, I) draws x ~ N(0, T).
#
# Returns (out, v, info).  info is 0 on success; otherwise the sweep stopped
# at the first nonpositive or non-finite v_t and info = t + 1 is the 1-based
# index of the failing leading minor of T (the index LAPACK dpotrf reports),
# with out and v filled only before it.
# ---------------------------------------------------------------------------


def _durbin_levinson_np(acf, y, colour):
    n, c = y.shape
    out = np.empty((n, c))
    v = np.empty(n)
    phi = np.zeros(n)
    # reversed copies make each past window a contiguous slice:
    # racf[n-t:n-1] = acf[t-1..1] and rev[n-t:] = (src_{t-1}, .., src_0)
    racf = acf[n - 1::-1].copy()
    rev = np.empty((n, c)) if colour else y[::-1].copy()
    vt = acf[0]
    for t in range(n):
        if t:
            kappa = (acf[t] - phi[:t - 1] @ racf[n - t:n - 1]) / vt
            phi[:t - 1] -= kappa * phi[:t - 1][::-1]
            phi[t - 1] = kappa
            vt *= 1.0 - kappa * kappa
        if not (vt > 0.0 and math.isfinite(vt)):
            return out, v, t + 1
        v[t] = vt
        pred = phi[:t] @ rev[n - t:]
        if colour:
            rev[n - 1 - t] = out[t] = pred + math.sqrt(vt) * y[t]
        else:
            out[t] = y[t] - pred
    return out, v, 0


@njit(cache=True, nogil=True)
def _durbin_levinson_nb(acf, y, colour):
    n, c = y.shape
    out = np.empty((n, c))
    v = np.empty(n)
    phi = np.zeros(n)
    src = out if colour else y
    vt = acf[0]
    for t in range(n):
        if t:
            num = acf[t]
            for j in range(t - 1):
                num -= phi[j] * acf[t - 1 - j]
            kappa = num / vt
            # phi_j and phi_{t-2-j} update from each other: do both at once
            for j in range(t // 2):
                a = phi[j]
                b = phi[t - 2 - j]
                phi[j] = a - kappa * b
                phi[t - 2 - j] = b - kappa * a
            phi[t - 1] = kappa
            vt *= 1.0 - kappa * kappa
        if not (vt > 0.0 and math.isfinite(vt)):
            return out, v, t + 1
        v[t] = vt
        sd = math.sqrt(vt)
        for col in range(c):
            pred = 0.0
            for j in range(t):
                pred += phi[j] * src[t - 1 - j, col]
            if colour:
                out[t, col] = pred + sd * y[t, col]
            else:
                out[t, col] = y[t, col] - pred
    return out, v, 0


if HAVE_NUMBA:
    cosine_series = _cosine_series_nb
    _durbin_levinson = _durbin_levinson_nb
else:
    cosine_series = _cosine_series_np
    _durbin_levinson = _durbin_levinson_np


def durbin_levinson_whiten(acf, y):
    """Prediction errors e = L^{-1} y of the columns of y (shape (n, c)) and
    the innovation variances v of T(acf), as (e, v, info)."""
    return _durbin_levinson(acf, y, False)


def durbin_levinson_sample(acf, z):
    """Coloured draw x = L D^{1/2} z for one standard-normal vector z, as
    (x, info); x ~ N(0, T(acf)) when info is 0."""
    x, _, info = _durbin_levinson(acf, z.reshape(-1, 1), True)
    return x[:, 0], info
