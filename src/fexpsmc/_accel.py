"""Numerical hot kernels, in numpy.

Toeplitz kernels serve the exact likelihood and simulation.
``schur_solve`` solves a batch of autocovariance rows against one
right-hand side in O(n log^2 n) per row: doubling Schur reflection
coefficients and the Gohberg-Semencul inverse.  ``fracnoise_solve`` does
the same for rows of fractional noise in O(n log n), from closed-form
reflection coefficients and predictor; both end in one Gohberg-Semencul
helper.  Their temporaries grow with the batch, which the caller bounds:
the exact likelihood passes blocks of at most ``exact.BLOCK_ELEMENTS // n``
rows.  Each reports its rows' residuals, and the exact likelihood
re-solves the rows they cannot vouch for with the O(n^2) Durbin-Levinson
innovations kernel: whitening, ``durbin_levinson_whiten``.  All sweep the
rows of a batch together.
Simulation draws by circulant embedding (``circulant_eigenvalues``,
``circulant_sample``, of size 2L for a 5-smooth L >= n - 1) at
O(n log n); only a draw whose embedding has a negative eigenvalue is
coloured by the Durbin-Levinson kernel (``durbin_levinson_sample``, the
one-row case).  The Whittle quadratic form has no kernel here:
:mod:`fexpsmc.approx` evaluates it for a whole batch of thetas with numpy
array operations.
"""

import math

import numpy as np

#: the only backend; perfbench/worker.py records it with every benchmark run
BACKEND = "numpy"


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


# ---------------------------------------------------------------------------
# Circulant embedding draws (Davies & Harte 1987, Biometrika 74:95-101;
# Wood & Chan 1994, JCGS 3:409-432).
#
# The symmetric circulant C of first row c = (acf_0, .., acf_L,
# acf_{L-1}, .., acf_1), of size m = 2L, holds T(acf_0..acf_{n-1}) as its
# leading n x n block for any L >= n - 1.  simulate_series takes
# L = _fft_size(n - 1), the smallest 5-smooth L, since numpy's FFT is slow
# on lengths with large prime factors: at n = 16 384 the minimal
# m = 2 (n - 1) = 2 3 43 127 took 1.00 ms per rfft against 0.37 ms at
# m = 32 768 on a 2-core x86 host (Wood & Chan allow any m >= 2 (n - 1)).
# C = F* diag(lam) F / m with lam = rfft(c) extended evenly, and lam is
# real because c is even.  When every lam_k >= 0, a Hermitian spectrum w
# with E|w_k|^2 = lam_k, independent but for w_{m-k} = conj(w_k), gives
# sqrt(m) irfft(w, m) ~ N(0, C), so its first n values are an exact
# N(0, T) draw, at the cost of two FFTs of length m.  A negative lam_k
# means C is no covariance, although T may be one; the caller then colours
# by Durbin-Levinson instead.
# ---------------------------------------------------------------------------


def circulant_eigenvalues(acf):
    """Eigenvalues lam_0..lam_L of the even circulant embedding, of size
    m = 2L, of the lags acf_0..acf_L (L >= 1); the other m - L - 1 are
    lam_{m-k} = lam_k."""
    return np.fft.rfft(np.concatenate([acf, acf[-2:0:-1]])).real


def circulant_sample(lam, z, n):
    """First n values of the coloured draw of m = 2L standard normals z, from
    the embedding's eigenvalues lam (length L + 1, all >= 0, n <= L + 1);
    x ~ N(0, T(acf_0..acf_{n-1})) for lam = circulant_eigenvalues(acf).  The
    map z -> x is linear, with x = A z and A A' = T."""
    L = lam.size - 1
    m = 2 * L
    w = np.empty(L + 1, dtype=complex)
    w[0] = math.sqrt(lam[0]) * z[0]
    w[-1] = math.sqrt(lam[-1]) * z[1]
    # w_k = sqrt(lam_k / 2) (z_2k + i z_2k+1), built in place
    root = w.real[1:-1]
    np.multiply(lam[1:-1], 0.5, out=root)
    np.sqrt(root, out=root)
    np.multiply(root, z[3::2], out=w.imag[1:-1])
    root *= z[2::2]
    return math.sqrt(m) * np.fft.irfft(w, m)[:n]


# ---------------------------------------------------------------------------
# Superfast Toeplitz solve, over B rows of autocovariances.
#
# The Schur algorithm finds the reflection coefficients kappa_t of
# Durbin-Levinson from a generator pair instead of the predictors: w(z) =
# sum_{i>=1} acf_i z^i and u(z) = sum_{i>=0} acf_i z^i.  Step t multiplies u
# by z, takes kappa_t = w_t / u_t and maps [w; u] to
# [w - kappa_t u; u - kappa_t w], which zeroes w_t.  In [w; u] order step t
# is the polynomial matrix theta_t(z) = [[1, -kappa_t z], [-kappa_t, z]],
# which is also the Levinson step of the predictor pair: the product
# Theta(z) = theta_m .. theta_1 maps [1; 1] to the order-m prediction error
# filter a(z) = 1 - phi_1 z - .. - phi_m z^m and its reversal.  Theta's
# second row is its first row reversed, [R, S](z) = z^m [Q, P](1/z), so
# only the first row [P, Q] is kept.
#
# Steps 1..m read only the generator coefficients 0..m.  A node of s steps
# therefore runs its first h = ceil(s/2) steps on the leading h + 1
# coefficients, applies that half's Theta to its coefficients 0..s by FFT
# products (a cyclic product of size >= s + 1 is exact on h..s, the second
# half's window), runs the second half and joins the halves' first rows,
# Theta = Theta_right Theta_left (Ammar & Gragg 1988, SIAM J. Matrix Anal.
# Appl. 9:61-76).  Nodes of at most SCHUR_LEAF steps run the classical steps
# on all B rows at once; a leaf keeps [w, P, Q] in one coefficient-major
# array and [u, R, S] in another, so a step is five numpy calls.  The
# recursion costs O(n log^2 n) per row, and every FFT size is a function of
# n only.  A node frees what it no longer needs before it recurses, which
# keeps the working set to about a dozen B x n arrays of doubles.
#
# With a = P + Q of the root (n - 1 steps), c = (1, -phi_1, .., -phi_{n-1})
# and c~ = (0, c_{n-1}, .., c_1), the Gohberg-Semencul formula
#
#     T^{-1} = (L(c) L(c)' - L(c~) L(c~)') / v_{n-1},
#
# with L(.) the lower triangular Toeplitz matrix of a first column, solves
# T z = y, one row at a time, by FFT correlations and convolutions of size
# >= 2n - 1.  log|T| = sum_t log v_t with v_0 = acf_0 and
# v_t = v_{t-1} (1 - kappa_t^2), accumulated in Durbin-Levinson's order.  Nothing checks that the steps stayed stable, so
# each row reports its residual max_j ||T z_j - y_j|| / ||y_j|| from one
# circulant-embedded product, or inf when some v_t is not in (0, inf).
# Every operation runs within its row, so a row gets the same bits in any
# batch, alone included.
# ---------------------------------------------------------------------------

#: Schur steps per leaf.  A leaf step costs the same five numpy calls at any
#: width, so wider leaves trade FFT nodes for leaf flops.  Leaves of 24, 48
#: and 96 steps solved a row in 6.96, 6.89 and 7.81 ms at n = 3000, B = 6,
#: and in 1.84, 1.57 and 1.53 ms at n = 1000, B = 16 (fastest of 15
#: interleaved runs; 2-core x86 host, one BLAS thread).
SCHUR_LEAF = 48

def _fft_size(m):
    """Smallest 2^i 3^j 5^k >= m, a fast length for numpy's FFT (at n = 3000
    and B = 6 the solve ran 11 % faster than on powers of two)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < m:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _schur_leaf(g):
    """Classical Schur steps on the windows g = [w, u] (B, 2, s + 1) of all
    rows at once: (kappa (B, s), [P, Q] of Theta (B, 2, s + 1))."""
    B, _, m = g.shape
    s = m - 1
    # x holds w, P, Q and y holds u, R, S, coefficient first and rows last,
    # so each step's window is one contiguous block.  Coefficient i of y
    # sits at y[s + i - j] after j steps, so multiplying by z moves no data.
    x = np.zeros((m, 3, B))
    x[:, 0] = g[:, 0].T
    x[0, 1] = 1.0
    y = np.zeros((m + s, 3, B))
    y[s:, 0] = g[:, 1].T
    y[s, 2] = 1.0
    kappa = np.empty((s, B))
    tx = np.empty_like(x)
    ty = np.empty_like(x)
    for j in range(1, m):
        yj = y[s - j:m + s - j]
        k = kappa[j - 1]
        np.divide(x[j, 0], y[s, 0], out=k)
        np.multiply(k, yj, out=tx)
        np.multiply(k, x, out=ty)
        x -= tx
        yj -= ty
    return kappa.T, x[:, 1:].transpose(2, 1, 0)


def _schur(g):
    """Reflection coefficients, as a list of (B, .) blocks in step order, and
    [P, Q] of Theta (B, 2, s + 1) of the s steps on the windows g = [w, u]
    (B, 2, s + 1), which it may overwrite."""
    # w_0 is zero in exact arithmetic and never read; make it exactly zero
    g[:, 0, 0] = 0.0
    s = g.shape[2] - 1
    if s <= SCHUR_LEAF:
        kappa, theta = _schur_leaf(g)
        return [kappa], theta
    h = (s + 1) // 2
    kappa, left = _schur(g[..., :h + 1])
    size = _fft_size(s + 1)
    # [P, Q] of the left half and, reversed, [R, S] = z^h [Q, P](1/z), whose
    # transform is the phase e^{-2 pi i h f / size} times conj([Q, P])
    fl = np.fft.rfft(left, size)
    del left
    f = np.arange(fl.shape[-1])
    phase = np.exp(-2j * math.pi / size * (h * f % size))
    fg = np.fft.rfft(g, size)
    g = np.empty_like(fg)
    g[:, 0] = fl[:, 0] * fg[:, 0] + fl[:, 1] * fg[:, 1]
    g[:, 1] = phase * (fl[:, 1].conj() * fg[:, 0] + fl[:, 0].conj() * fg[:, 1])
    del fg
    g = np.fft.irfft(g, size)[..., h:s + 1].copy()
    right_kappa, right = _schur(g)
    del g
    fr = np.fft.rfft(right, size)
    theta = fl[:, ::-1].conj()
    theta *= phase
    theta *= fr[:, 1, None]
    theta += fr[:, 0, None] * fl
    del fl, fr
    return kappa + right_kappa, np.fft.irfft(theta, size)[..., :s + 1]


def _gohberg_semencul(acf, kappa, a, y):
    """Solutions z[b] = T(acf[b])^{-1} y of every row from its reflection
    coefficients kappa[b] (B, n - 1) and order-(n - 1) prediction error
    filter a[b] (B, n), with log|T(acf[b])| and the relative residual, as
    :func:`schur_solve` returns them.  One row at a time: the solve needs no
    more temporaries for a block.  The caller ignores floating-point
    errors."""
    B, n = acf.shape
    v = np.empty((B, n))
    v[:, 0] = acf[:, 0]
    v[:, 1:] = 1.0 - kappa * kappa
    np.multiply.accumulate(v, axis=1, out=v)
    yt = np.ascontiguousarray(y.T)
    logdet = np.log(v).sum(axis=1)
    size = _fft_size(2 * n - 1)
    fy = np.fft.rfft(yt, size)
    z = np.empty((B, yt.shape[0], n))
    resid = np.empty((B, yt.shape[0]))
    h = np.zeros((2, n))
    emb = np.zeros(size)
    for b in range(B):
        h[0] = a[b]
        h[1, 1:] = a[b, :0:-1]
        fh = np.fft.rfft(h, size)
        # L(c)' y and L(c~)' y, (2, c, n)
        p = np.fft.irfft(fh.conj()[:, None] * fy, size)[..., :n]
        fp = np.fft.rfft(p, size)
        z[b] = np.fft.irfft(fh[0] * fp[0] - fh[1] * fp[1], size)[:, :n] / v[b, -1]
        # T z by the circulant embedding of T
        emb[:n] = acf[b]
        emb[size - n + 1:] = acf[b, :0:-1]
        tz = np.fft.irfft(np.fft.rfft(emb) * np.fft.rfft(z[b], size), size)[:, :n]
        resid[b] = np.linalg.norm(tz - yt, axis=-1) / np.linalg.norm(yt, axis=-1)
    resid = resid.max(axis=1)
    resid[~np.all((v > 0.0) & (v < math.inf), axis=1)] = math.inf
    return z, logdet, resid


def schur_solve(acf, y):
    """Solutions z[b] = T(acf[b])^{-1} y of the columns of y (shape (n, c))
    for every row of acf (shape (B, n), B >= 1), with log|T(acf[b])| and the
    relative residual, as (z, logdet, resid) with shapes (B, c, n), (B,),
    (B,).  resid[b] is inf when T(acf[b]) failed to factor.  The temporaries
    are about a dozen B x n arrays; the caller bounds B."""
    with np.errstate(all="ignore"):
        # w = u but for w_0; _schur frees the array after its first half
        kappa, theta = _schur(np.stack([acf, acf], axis=1))
        a = theta[:, 0] + theta[:, 1]
        a[:, 0] = 1.0
        del theta
        return _gohberg_semencul(acf, np.concatenate(kappa, axis=1), a, y)


# ---------------------------------------------------------------------------
# Fractional noise in closed form (Hosking 1981, Biometrika 68:165-176).
#
# For ARFIMA(0, d, 0), the FEXP model of order k = 0, the reflection
# coefficients are kappa_t = d / (t - d), so v_t = v_{t-1} (1 - kappa_t^2)
# with v_0 = acf_0, and the order-m predictor, m = n - 1, is
#
#     phi_1 = m d / (m - d),
#     phi_j / phi_{j-1} = (m - j + 1)(j - 1 - d) / (j (m - d - j + 1)),
#
# every factor positive for 0 <= d < 1/2.  Each is one running product
# along the row, so only the Gohberg-Semencul solve is left, and the
# residual checks the closed forms against the quadrature's acf.
# ---------------------------------------------------------------------------


def fracnoise_solve(acf, d, y):
    """:func:`schur_solve` of rows of fractional noise: acf[b] (shape (B, n),
    B >= 1) the autocovariances of ARFIMA(0, d[b], 0), whose reflection
    coefficients and order-(n - 1) predictor are closed forms.  Same
    (z, logdet, resid); a row gets the same bits in any batch."""
    B, n = acf.shape
    m = n - 1
    d = d[:, None]
    t = np.arange(1.0, n)
    with np.errstate(all="ignore"):
        # a = (1, -phi_1, .., -phi_m): -phi_1, then the ratios
        a = np.empty((B, n))
        a[:, 0] = 1.0
        a[:, 1:2] = -m * d / (m - d)
        j = t[1:]
        a[:, 2:] = (m - j + 1.0) * (j - 1.0 - d) / (j * (m - d - j + 1.0))
        np.multiply.accumulate(a, axis=1, out=a)
        return _gohberg_semencul(acf, d / (t - d), a, y)
