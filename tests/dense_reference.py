"""Dense O(n^3) references for the Toeplitz covariances the package handles
in O(n^2) by the Durbin-Levinson recursion."""

import numpy as np
from scipy.linalg import toeplitz as scipy_toeplitz
from scipy.linalg.lapack import dpotrf

from fexpsmc.exact import NotPositiveDefiniteError


def build_toeplitz(acf, ridge=0.0):
    """Dense symmetric Toeplitz matrix T[i, j] = acf[|i - j|] (+ ridge on all entries).

    ``ridge`` adds a constant to every entry (a rank-one all-ones
    perturbation), as needed by the marginal-likelihood covariance
    T(fbar) + (1/g_mu) * ones.
    """
    acf = np.asarray(acf, dtype=float)
    if acf.ndim != 1 or acf.size < 1:
        raise ValueError("acf must be a nonempty 1-d array")
    T = scipy_toeplitz(acf)
    if ridge:
        T += ridge
    return T


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
