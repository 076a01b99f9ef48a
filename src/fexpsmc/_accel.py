"""Numerical hot kernels, in numpy.

One Durbin-Levinson innovations kernel serves both the exact likelihood
(whitening, ``durbin_levinson_whiten``, a batch of autocovariance rows
against one right-hand side) and simulation (colouring,
``durbin_levinson_sample``, the one-row case); it sweeps all rows of a
batch together.  The Whittle quadratic form has no kernel here:
:mod:`fexpsmc.approx` evaluates it for a whole batch of thetas with numpy
array operations.
"""

import math

import numpy as np

#: the only backend; perfbench/worker.py records it with every benchmark run
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Cosine series evaluation: out_j = sum_m xi_m * cos((m+1) * lam_j)
# ---------------------------------------------------------------------------


def cosine_series(xi, lam):
    if xi.shape[0] == 0:
        return np.zeros_like(lam)
    m = np.arange(1, xi.shape[0] + 1)
    return np.cos(np.outer(m, lam)).T @ xi


# ---------------------------------------------------------------------------
# Durbin-Levinson innovations recursion, over B rows of autocovariances.
#
# T(acf) = L D L' with L unit lower triangular: row t of L^{-1} is
# (-phi_t reversed, 1), where phi_t holds the coefficients of the best
# linear predictor of x_t from x_{t-1}, .., x_0, and D = diag(v) holds the
# innovation (one-step prediction error) variances.  The classical
# Durbin-Levinson recursion updates (phi_t, v_t) from (phi_{t-1}, v_{t-1})
# in O(t), so one sweep costs O(n^2) time and O(n) memory per row.  The
# same sweep serves two uses, applied column by column to the (n, c) array y:
#
# * whitening (colour=False): out[b] = L_b^{-1} y, the prediction errors
#   e_t = y_t - phi_t' (y_{t-1}, .., y_0), for every row b of acf with the
#   same y;
# * colouring (colour=True): out[b] = L_b D_b^{1/2} y, i.e.
#   x_t = phi_t' (x_{t-1}, .., x_0) + sqrt(v_t) y_t, which is the lower
#   Cholesky factor of T applied to y, so y ~ N(0, I) draws x ~ N(0, T).
#
# acf has shape (B, n).  Returns (out, v, info) with shapes (B, n, c),
# (B, n) and (B,).  info[b] is 0 on success; otherwise v_t of row b was
# nonpositive or non-finite first at t = info[b] - 1, the 1-based index of
# the failing leading minor of T (the index LAPACK dpotrf reports), and
# out[b] and v[b] are meaningful only before it.
#
# The kernel moves all B rows one step at a time, so the Python cost
# of a step is paid once per batch.  A step is one array update of the B
# coefficient vectors and stacked matmuls for the predictions and for the
# numerators of the next kappa; a stacked matmul makes one BLAS call per
# row.  The scalar recursion for kappa_t and v_t (and x_t when colouring)
# runs on Python floats row by row.  So a row gets the same bits in any
# batch, alone included, and a failed row, frozen at kappa = 0, leaves the
# others alone.  Colouring predicts each column of x with a dot, as the
# numerator is, so one matmul per step gives both; whitening predicts all
# c columns of y with one matrix-vector product.
# ---------------------------------------------------------------------------


def _durbin_levinson(acf, y, colour):
    B, n = acf.shape
    c = y.shape[1]
    v = np.empty((B, n))
    # phi = buf[:, 1:] with buf[:, 0] = -1: phi_t is still 0, so
    # phi_j -= kappa * phi_{t-1-j} over j <= t also sets phi_t = kappa
    buf = np.zeros((B, n + 1))
    buf[:, 0] = -1.0
    phi = buf[:, 1:]
    phi4 = phi.reshape(B, 1, 1, n)
    kappa = np.zeros((B, 1))
    # reversed copies make each past window a contiguous slice [n - t:]:
    # acf_t, .., acf_1 in the last row of win, src_{t-1}, .., src_0 in rev
    win = np.zeros((B, c + 1 if colour else 1, n, 1))
    win[:, -1, 1:, 0] = acf[:, :0:-1]
    if colour:
        # x_t of row b, column j sits at xs[(b (c + 1) + j) n + n - 1 - t]
        xs = win.reshape(-1)
        ys = y.tolist()
    else:
        rev = y[::-1].copy()
        pred = np.empty((B, n, 1, 1, c))
    acft = acf.T.copy()
    info = [0] * B
    vt = acft[0].tolist()
    sd = [0.0] * B
    live = []
    for b, w in enumerate(vt):
        if w > 0.0 and w < math.inf:
            live.append(b)
            sd[b] = math.sqrt(w)
        else:
            info[b] = 1
    v[:, 0] = vt
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(n):
            # phi holds phi_t: predict src_t, then step to phi_{t+1}
            p = phi4[..., :t]
            if colour:
                pn = (p @ win[:, :, n - t:]).reshape(B, c + 1).tolist()
                for b in live:
                    for j in range(c):
                        xs[(b * (c + 1) + j) * n + n - 1 - t] = pn[b][j] + sd[b] * ys[t][j]
                num = [row[c] for row in pn]
            else:
                pred[:, t] = p @ rev[n - t:]
                num = (p @ win[:, :, n - t:]).reshape(B).tolist()
            if t == n - 1:
                break
            at = acft[t + 1].tolist()
            failed = False
            for b in live:
                k = (at[b] - num[b]) / vt[b]
                w = vt[b] * (1.0 - k * k)
                if w > 0.0 and w < math.inf:
                    kappa[b] = k
                    vt[b] = v[b, t + 1] = w
                    if colour:
                        sd[b] = math.sqrt(w)
                else:
                    info[b] = t + 2
                    kappa[b] = 0.0
                    failed = True
            if failed:
                live = [b for b in live if not info[b]]
            phi[:, :t + 1] -= kappa * buf[:, t::-1]
    if colour:
        out = np.ascontiguousarray(win[:, :c, ::-1, 0].transpose(0, 2, 1))
    else:
        out = y - pred.reshape(B, n, c)
    return out, v, np.array(info)


def durbin_levinson_whiten(acf, y):
    """Prediction errors e[b] = L_b^{-1} y of the columns of y (shape (n, c))
    and the innovation variances v[b] of T(acf[b]) for every row of acf
    (shape (B, n)), as (e, v, info) with shapes (B, n, c), (B, n), (B,)."""
    return _durbin_levinson(acf, y, False)


def durbin_levinson_sample(acf, z):
    """Coloured draw x = L D^{1/2} z for one standard-normal vector z, as
    (x, info); x ~ N(0, T(acf)) when info is 0."""
    x, _, info = _durbin_levinson(acf.reshape(1, -1), z.reshape(-1, 1), True)
    return x[0, :, 0], int(info[0])
