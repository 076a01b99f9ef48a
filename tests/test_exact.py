"""Exact Gaussian marginal likelihood: hand-computed, eigen-based and dense
slogdet/solve oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fexpsmc import _accel, exact, simulate
from dense_reference import build_toeplitz, cholesky_lower, exact_single
from fexpsmc.exact import NotPositiveDefiniteError
from fexpsmc.fourier import fracdiff_acf
from fexpsmc.model import PriorConfig, ThetaParams, sample_prior, to_arrays
from fexpsmc.simulate import SimConfig, simulate_series

TWO_PI = 2.0 * math.pi


def _acf(th, n):
    """The autocovariances the exact likelihood runs on, for one theta."""
    return exact._autocovs(*to_arrays([th]), n)[0]


# ---------------------------------------------------------------------------
# Dense Cholesky reference (tests/dense_reference.py)
# ---------------------------------------------------------------------------

def test_cholesky_lower_matches_numpy():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    S = A @ A.T + 6.0 * np.eye(6)
    L = cholesky_lower(S)
    assert np.allclose(L, np.linalg.cholesky(S), atol=1e-12)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_cholesky_lower_reports_failing_minor():
    S = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(S)
    assert exc.value.index == 3
    assert isinstance(exc.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cholesky_lower_rejects_non_finite_matrix(bad):
    # dpotrf reports no failing minor for a NaN pivot; the index is the
    # smallest leading minor holding the bad entry, as the recursion reports
    S = build_toeplitz(np.array([1.0, 0.5, bad, 0.0]))
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(S)
    assert exc.value.index == 3
    S = np.eye(4)
    S[3, 3] = bad
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_lower(S)
    assert exc.value.index == 4


def test_cholesky_lower_rejects_nonsquare():
    with pytest.raises(ValueError):
        cholesky_lower(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Model autocovariances
# ---------------------------------------------------------------------------

def test_fbar_autocov_pure_pole_is_fracdiff():
    th = ThetaParams(k=0, t=0.0, xi=np.empty(0))  # d = 1/4
    got = _acf(th, 12)
    want = fracdiff_acf(0.25, np.arange(12))
    assert np.max(np.abs(got - want)) < 1e-10


def test_fbar_autocov_short_memory_only():
    # d = 0, xi = (0.5,): gamma(l) = I_l-type integral of e^{0.5 cos lam}/(2 pi)
    from scipy.special import iv
    t_tiny = -800.0  # d = 0 numerically
    th = ThetaParams(k=1, t=t_tiny, xi=np.array([0.5]))
    got = _acf(th, 128)[:8]  # the grid of M = 256 points
    want = iv(np.arange(8), 0.5)
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# Marginal likelihood: 2x2 hand computation
# ---------------------------------------------------------------------------

def test_exact_log_marglik_two_point_hand_value():
    # white noise (d -> 0, k = 0): T = I; g_mu = 1 makes Sigma = I + ones,
    # i.e. [[2, 1], [1, 2]], |Sigma| = 3.  With x = (1, -1), m_mu = 0:
    # Sigma^{-1} = (1/3)[[2, -1], [-1, 2]], q = x' Sigma^{-1} x = 2.
    # a = b = 1/2: log p = -1/2 log 3 - (1/2 + 1) log(1/2 + 1).
    prior = PriorConfig(a=0.5, b=0.5, g_mu=1.0, m_mu=0.0)
    th = ThetaParams(k=0, t=-800.0, xi=np.empty(0))
    x = np.array([1.0, -1.0])
    want = -0.5 * math.log(3.0) - 1.5 * math.log(1.5)
    got = exact_single(th, x, prior)
    assert abs(got - want) < 1e-10


def test_exact_log_marglik_matches_eigen_oracle():
    # dense-inverse oracle assembled independently of the Cholesky path
    rng = np.random.default_rng(42)
    prior = PriorConfig()
    n = 32
    x = rng.standard_normal(n) * 1.4 + 0.3
    for seed in range(5):
        r = np.random.default_rng(seed)
        k = int(r.integers(0, 4))
        th = ThetaParams(
            k=k,
            t=float(r.normal(scale=1.0)),
            xi=r.normal(scale=0.4, size=k),
        )
        acf = _acf(th, n)
        sigma = build_toeplitz(acf) + np.full((n, n), 1.0 / prior.g_mu)
        evals, evecs = np.linalg.eigh(sigma)
        assert evals.min() > 0
        xc = x - prior.m_mu
        y = evecs.T @ xc
        q = float(np.sum(y * y / evals))
        want = -0.5 * float(np.sum(np.log(evals))) \
            - (prior.a + 0.5 * n) * math.log(prior.b + 0.5 * q)
        got = exact_single(th, x, prior)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want)), f"seed={seed}"


def test_exact_log_marglik_time_reversal_invariance():
    # a stationary Gaussian marginal is invariant under reversing the series
    rng = np.random.default_rng(9)
    prior = PriorConfig()
    x = rng.standard_normal(24)
    th = ThetaParams(k=1, t=0.3, xi=np.array([0.4]))
    assert abs(exact_single(th, x, prior)
               - exact_single(th, x[::-1], prior)) < 1e-9


def test_exact_log_marglik_shrinks_with_mean_shift():
    # moving m_mu toward the sample mean cannot decrease the fit
    rng = np.random.default_rng(10)
    x = rng.standard_normal(30) + 2.0
    th = ThetaParams(k=0, t=0.0, xi=np.empty(0))
    near = exact_single(th, x, PriorConfig(m_mu=2.0, g_mu=10.0))
    far = exact_single(th, x, PriorConfig(m_mu=-3.0, g_mu=10.0))
    assert near > far


def test_exact_log_marglik_needs_two_points():
    with pytest.raises(ValueError):
        exact_single(ThetaParams(k=0, t=0.0, xi=np.empty(0)),
                          np.array([1.0]), PriorConfig())


# ---------------------------------------------------------------------------
# Edge cases of the Durbin-Levinson path: d -> 1/2, large |xi|, non-PD acf
# ---------------------------------------------------------------------------

def _dense_log_marglik(acf, x, prior):
    """The marginal from LAPACK's slogdet and solve of the dense Sigma."""
    n = x.size
    sigma = build_toeplitz(acf, ridge=1.0 / prior.g_mu)
    u = x - prior.m_mu
    q = float(u @ np.linalg.solve(sigma, u))
    return -0.5 * np.linalg.slogdet(sigma)[1] - (prior.a + 0.5 * n) * math.log(prior.b + 0.5 * q)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("xi", [(), (3.0,), (-3.0, 1.5, -0.8)])
@pytest.mark.parametrize("d", [0.45, 0.49, 0.499])
def test_exact_log_marglik_edge_cases_match_eigen_oracle(d, xi, n):
    # the oracle is dense slogdet/solve: an eigendecomposition of Sigma is
    # itself 2e-8 relative off at cond(T) = 7e9
    prior = PriorConfig()
    x = np.random.default_rng(n).standard_normal(n) * 1.4 + 0.3
    th = ThetaParams(k=len(xi), t=math.log(2.0 * d / (1.0 - 2.0 * d)), xi=np.array(xi))
    want = _dense_log_marglik(_acf(th, n), x, prior)
    got = exact_single(th, x, prior)
    assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("acf", [[1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
                                 [1.0, 0.99, 0.0, 0.0],
                                 [-1.0, 0.0, 0.0]])
def test_non_positive_definite_acf_raises_lapack_index(acf, monkeypatch):
    acf = np.array(acf)
    n = acf.size
    with pytest.raises(NotPositiveDefiniteError) as dense:
        cholesky_lower(build_toeplitz(acf))
    monkeypatch.setattr(exact, "_autocovs", lambda k, t, xi, n: np.tile(acf, (k.size, 1)))
    # n - 1 is 5-smooth at these n, so the draw's embedding takes the n lags
    monkeypatch.setattr(simulate, "model_autocov", lambda cfg, n, lags=None: acf)
    with pytest.raises(NotPositiveDefiniteError) as lik:
        exact_single(ThetaParams(k=0, t=0.0, xi=np.empty(0)),
                          np.arange(n, dtype=float), PriorConfig())
    with pytest.raises(NotPositiveDefiniteError) as draw:
        simulate_series(SimConfig(n=n), np.random.default_rng(0))
    assert lik.value.index == draw.value.index == dense.value.index


def test_non_finite_acf_raises_instead_of_nan(monkeypatch):
    # LAPACK's dpotrf passes a NaN through; the recursion stops at it
    acf = np.array([1.0, 0.5, math.nan, 0.0])
    monkeypatch.setattr(exact, "_autocovs", lambda k, t, xi, n: np.tile(acf, (k.size, 1)))
    with pytest.raises(NotPositiveDefiniteError) as err:
        exact_single(ThetaParams(k=0, t=0.0, xi=np.empty(0)), np.ones(4),
                          PriorConfig())
    assert err.value.index == 3


# ---------------------------------------------------------------------------
# Batched evaluator: one sweep per block of thetas
# ---------------------------------------------------------------------------

def _mixed_population():
    # k = 0..5, d from near 0 to near 1/2, one large |xi|
    ts = [-3.0, 0.0, 1.5, -1.0, 3.5, 0.4, -0.3, 2.0, 5.0]
    xis = [(), (0.4,), (-0.6, 0.3), (1.2, -0.5, 0.2), (), (3.0,),
           (0.5, -0.4, 0.3, -0.2, 0.1), (-1.0, 0.2), (0.7, 0.1, -0.3)]
    return [ThetaParams(k=len(xi), t=t, xi=np.array(xi)) for t, xi in zip(ts, xis)]


def _margliks(thetas, x, prior):
    """(values, info, ill) of exact_log_margliks on a list of thetas."""
    return exact.exact_log_margliks(*to_arrays(thetas), x, prior)


def test_exact_log_margliks_match_single_calls_across_blocks(monkeypatch):
    monkeypatch.setattr(exact, "BLOCK_ELEMENTS", 4 * 96)  # blocks of 4, 4 and 1
    prior = PriorConfig()
    x = np.random.default_rng(11).standard_normal(96) * 1.4 + 0.3
    thetas = _mixed_population()
    values, info, _ = _margliks(thetas, x, prior)
    assert np.array_equal(info, np.zeros(len(thetas)))
    for th, got in zip(thetas, values):
        assert got == exact_single(th, x, prior)
        want = _dense_log_marglik(_acf(th, 96), x, prior)
        assert abs(got - want) < 1e-10 * abs(want)


def test_exact_log_margliks_report_failed_rows_and_leave_the_rest(monkeypatch):
    # one non-positive-definite and one NaN autocovariance row in a batch:
    # each reports the single call's index, the other rows keep their bits
    prior = PriorConfig()
    n = 40
    x = np.random.default_rng(12).standard_normal(n)
    thetas = _mixed_population()
    clean, _, _ = _margliks(thetas, x, prior)
    not_pd = np.zeros(n)
    not_pd[:2] = [1.0, 2.0]
    with_nan = _acf(thetas[5], n)
    with_nan[7] = math.nan
    bad = {thetas[2].t: not_pd, thetas[5].t: with_nan}  # the rows' t are distinct
    real = exact._autocovs

    def autocovs(k, t, xi, n):
        acf = real(k, t, xi, n)
        for row, tj in zip(acf, t.tolist()):
            if tj in bad:
                row[:] = bad[tj]
        return acf

    monkeypatch.setattr(exact, "_autocovs", autocovs)
    values, info, _ = _margliks(thetas, x, prior)
    for i, th in enumerate(thetas):
        if th.t in bad:
            with pytest.raises(NotPositiveDefiniteError) as err:
                exact_single(th, x, prior)
            assert info[i] == err.value.index
            assert math.isnan(values[i])
        else:
            assert info[i] == 0
            assert values[i] == clean[i]
    assert info[2] == 2 and info[5] == 8


def test_exact_side_at_d_one_half_is_a_failed_row():
    # t = 37 rounds d to 1/2 exactly, where gamma(0) diverges
    pole = ThetaParams(k=0, t=37.0, xi=np.empty(0))
    assert pole.d == 0.5
    prior = PriorConfig()
    x = np.random.default_rng(13).standard_normal(32)
    with pytest.raises(NotPositiveDefiniteError) as err:
        exact_single(pole, x, prior)
    assert err.value.index == 1
    thetas = _mixed_population()[:3]
    values, info, _ = _margliks([thetas[0], pole, *thetas[1:]], x, prior)
    assert info.tolist() == [0, 1, 0, 0]
    assert values[[0, 2, 3]].tolist() == [exact_single(th, x, prior) for th in thetas]


def test_exact_side_with_overflowing_short_memory_is_a_failed_row():
    # exp(sum xi_j cos j lam) overflows at lam = pi for xi_1 = -800: the
    # autocovariances are not representable, so the row fails at minor 1
    # without a RuntimeWarning, and the neighbour rows keep their bits
    blow_up = ThetaParams(k=1, t=0.0, xi=np.array([-800.0]))
    prior = PriorConfig()
    x = np.random.default_rng(14).standard_normal(48)
    thetas = _mixed_population()[:3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefiniteError) as err:
            exact_single(blow_up, x, prior)
        values, info, _ = _margliks([thetas[0], blow_up, *thetas[1:]], x, prior)
    assert err.value.index == 1
    assert info.tolist() == [0, 1, 0, 0]
    assert math.isnan(values[1])
    assert values[[0, 2, 3]].tolist() == [exact_single(th, x, prior) for th in thetas]


# ---------------------------------------------------------------------------
# Schur solve and its Durbin-Levinson fallback
# ---------------------------------------------------------------------------

def _count_dl_rows(monkeypatch):
    """Route _accel.durbin_levinson_whiten through a counter of the rows it
    whitens; returns the list the counts are appended to."""
    rows = []
    real = _accel.durbin_levinson_whiten

    def counted(acf, y):
        rows.append(acf.shape[0])
        return real(acf, y)

    monkeypatch.setattr(_accel, "durbin_levinson_whiten", counted)
    return rows


@pytest.mark.parametrize("n", [2, 3, 48, 49, 50, 97, 512])
def test_schur_solve_matches_dense_reference(n):
    # leaf-only (n - 1 <= SCHUR_LEAF) and doubling sizes, d up to 0.497
    thetas = _mixed_population()
    acf = exact._autocovs(*to_arrays(thetas), n)
    y = np.column_stack([np.random.default_rng(n).standard_normal(n), np.ones(n)])
    z, logdet, resid = _accel.schur_solve(acf, y)
    for b in range(len(thetas)):
        T = build_toeplitz(acf[b])
        want = np.linalg.solve(T, y)
        assert abs(logdet[b] - 2.0 * np.sum(np.log(np.diag(cholesky_lower(T))))) < 1e-10
        assert np.max(np.abs(z[b].T - want)) < 1e-10 * np.max(np.abs(want))
        assert resid[b] < 1e-10


def test_exact_log_marglik_is_the_batch_of_one_above_the_leaf(monkeypatch):
    # n = 700 runs several levels of the doubling recursion, every row on
    # the Schur path, in blocks of 4, 4 and 1
    monkeypatch.setattr(exact, "BLOCK_ELEMENTS", 4 * 700)
    dl_rows = _count_dl_rows(monkeypatch)
    assert 700 > 4 * _accel.SCHUR_LEAF
    prior = PriorConfig()
    x = np.random.default_rng(15).standard_normal(700) * 1.4 + 0.3
    thetas = _mixed_population()
    values, info, _ = _margliks(thetas, x, prior)
    assert np.array_equal(info, np.zeros(len(thetas)))
    for th, got in zip(thetas, values):
        assert got == exact_single(th, x, prior)
    assert dl_rows == []


def test_rows_past_the_residual_bound_get_durbin_levinson_values(monkeypatch):
    # with a bound no residual meets, every row is whitened again by
    # Durbin-Levinson: its value is the one the sweep gives, it is flagged
    # ill-conditioned when positive definite, and a failed row keeps its index
    prior = PriorConfig()
    n = 64
    x = np.random.default_rng(16).standard_normal(n)
    thetas = _mixed_population()[:4] + [ThetaParams(k=0, t=37.0, xi=np.empty(0))]
    fast, _, _ = _margliks(thetas, x, prior)
    monkeypatch.setattr(exact, "RESIDUAL_BOUND", -1.0)
    values, info, ill = _margliks(thetas, x, prior)
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    e, v, bad = _accel.durbin_levinson_whiten(exact._autocovs(*to_arrays(thetas), n), y)
    assert info.tolist() == bad.tolist() == [0, 0, 0, 0, 1]
    assert ill.tolist() == [True, True, True, True, False]
    dl = exact._whitened_log_margliks(e[:4], v[:4], n, prior)
    for i in range(4):
        assert values[i] == dl[i]
        assert abs(values[i] - fast[i]) < 1e-10 * abs(fast[i])
    assert math.isnan(values[4])


def test_prior_draws_are_no_further_from_dense_than_durbin_levinson():
    # 32 prior draws at n = 1000 (xi_1 has prior sd 10): cond(T) spans
    # 1e0..1e16 and some draws are not positive definite.  Whatever path a
    # row takes, its value is within Durbin-Levinson's own error (+1e-6
    # nats) of the dense slogdet/solve oracle.
    prior = PriorConfig()
    n = 1000
    rng = np.random.default_rng(0)
    thetas = [sample_prior(prior, rng) for _ in range(32)]
    x = np.random.default_rng(100).standard_normal(n)
    values, info, _ = _margliks(thetas, x, prior)
    acf = exact._autocovs(*to_arrays(thetas), n)
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    e, v, bad = _accel.durbin_levinson_whiten(acf, y)
    assert np.array_equal(info, bad)
    ok = np.flatnonzero(info == 0)
    assert ok.size >= 24
    dls = exact._whitened_log_margliks(e[ok], v[ok], n, prior)
    for i, dl in zip(ok, dls):
        dense = _dense_log_marglik(acf[i], x, prior)
        assert abs(values[i] - dense) <= abs(dl - dense) + 1e-6, f"draw {i}"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 700), d=st.floats(0.001, 0.499),
       xi=st.lists(st.floats(-10.0, 10.0), max_size=3), seed=st.integers(0, 2**16))
def test_exact_log_margliks_rows_are_finite_or_failed(n, d, xi, seed):
    # across the leaf size, d up to 0.499 and |xi| up to 10: a row is either
    # info 0 with a finite value or info > 0 with nan, and a finite row of
    # cond(T) < 1e10 matches the dense slogdet/solve oracle.  (The eigen
    # oracle is itself off by 2e-8 relative at cond(T) = 7e9: n = 506,
    # d = 0.0625, xi = (7, 7), where slogdet/solve and Durbin-Levinson agree
    # to 3e-10.)
    prior = PriorConfig()
    th = ThetaParams(k=len(xi), t=math.log(2.0 * d / (1.0 - 2.0 * d)), xi=np.array(xi))
    x = np.random.default_rng(seed).standard_normal(n) * 1.4 + 0.3
    values, info, _ = _margliks([th], x, prior)
    if info[0]:
        assert info[0] > 0 and math.isnan(values[0])
        return
    assert math.isfinite(values[0])
    acf = _acf(th, n)
    evals = np.linalg.eigvalsh(build_toeplitz(acf))
    if evals[0] > 0 and evals[-1] < 1e10 * evals[0]:
        want = _dense_log_marglik(acf, x, prior)
        assert abs(values[0] - want) < 1e-8 * abs(want)


# ---------------------------------------------------------------------------
# Fractional noise (k = 0) in closed form
# ---------------------------------------------------------------------------

def _fracnoise(d):
    """The k = 0 theta of memory d; t = -800 gives d = 0 exactly."""
    t = -800.0 if d == 0.0 else math.log(2.0 * d / (1.0 - 2.0 * d))
    return ThetaParams(k=0, t=t, xi=np.empty(0))


@pytest.mark.parametrize("n", [2, 3, 49, 50, 97, 512])
@pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 0.45, 0.499])
def test_fracnoise_solve_matches_schur_and_dense(d, n):
    # around SCHUR_LEAF = 48, d up to 0.499 (cond(T) = 1.6e5 at n = 512)
    prior = PriorConfig()
    th = _fracnoise(d)
    acf = _acf(th, n)[None]
    x = np.random.default_rng(n).standard_normal(n) * 1.4 + 0.3
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    z, logdet, resid = _accel.fracnoise_solve(acf, np.array([th.d]), y)
    zs, logdet_s, _ = _accel.schur_solve(acf, y)
    T = build_toeplitz(acf[0])
    assert abs(logdet[0] - logdet_s[0]) < 1e-10
    assert abs(logdet[0] - 2.0 * np.sum(np.log(np.diag(cholesky_lower(T))))) < 1e-10
    assert np.max(np.abs(z - zs)) < 1e-10 * np.max(np.abs(zs))
    assert np.max(np.abs(z[0].T - np.linalg.solve(T, y))) < 1e-10 * np.max(np.abs(zs))
    assert resid[0] < 1e-10
    # through the likelihood, which sends the row to this kernel
    values, info, ill = _margliks([th], x, prior)
    assert info[0] == 0 and not ill[0]
    assert values[0] == exact._log_margliks(exact._gram(y.T[None], z), logdet, n, prior)[0]
    want = _dense_log_marglik(acf[0], x, prior)
    assert abs(values[0] - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 50, 512])
def test_fracnoise_solve_at_d_zero_is_white_noise(n):
    # d = 0: every kappa_t and phi_j is 0, so T = gamma(0) I
    gamma0 = np.array([1.0, 2.5, 0.3])
    acf = np.zeros((3, n))
    acf[:, 0] = gamma0
    y = np.random.default_rng(n).standard_normal((n, 2))
    z, logdet, resid = _accel.fracnoise_solve(acf, np.zeros(3), y)
    want = y.T[None] / gamma0[:, None, None]
    assert np.max(np.abs(z - want)) < 1e-14 * np.max(np.abs(want))
    assert np.allclose(logdet, n * np.log(gamma0), rtol=1e-14, atol=1e-14)
    assert np.all(resid < 1e-14)


def _kernel_rows(monkeypatch):
    """Route both kernels through a log of (kernel, rows) calls, refusing a
    call with no rows."""
    calls = []
    for name in ("fracnoise_solve", "schur_solve"):
        real = getattr(_accel, name)

        def logged(acf, *args, real=real, name=name):
            assert acf.shape[0] > 0, f"{name} called with no rows"
            calls.append((name, acf.shape[0]))
            return real(acf, *args)

        monkeypatch.setattr(_accel, name, logged)
    return calls


def _value_alone(th, x, prior):
    """The row's value from its kernel called on the row alone."""
    n = x.size
    acf = _acf(th, n)[None]
    y = np.column_stack([x - prior.m_mu, np.ones(n)])
    if th.k:
        z, logdet, resid = _accel.schur_solve(acf, y)
    else:
        z, logdet, resid = _accel.fracnoise_solve(acf, np.array([th.d]), y)
    assert resid[0] <= exact.RESIDUAL_BOUND
    return exact._log_margliks(exact._gram(y.T[None], z), logdet, n, prior)[0]


_ZEROS = [_fracnoise(d) for d in (0.0, 0.05, 0.3, 0.45, 0.499)]


@pytest.mark.parametrize("population", ["all k = 0", "no k = 0", "mixed"])
def test_each_row_is_its_kernel_on_the_row_alone(population, monkeypatch):
    # k = 0 rows go to fracnoise_solve, the rest to schur_solve, each row
    # with the bits it gets alone, among k = 0 rows only or among the mixed
    # population's rows; n = 700 runs the doubling recursion
    prior = PriorConfig()
    n = 700
    x = np.random.default_rng(17).standard_normal(n) * 1.4 + 0.3
    mixed = _mixed_population()
    thetas = {"all k = 0": _ZEROS,
              "no k = 0": [th for th in mixed if th.k],
              "mixed": mixed[:4] + _ZEROS + mixed[4:]}[population]
    calls = _kernel_rows(monkeypatch)
    values, info, ill = _margliks(thetas, x, prior)
    assert not info.any() and not ill.any()
    zeros = sum(th.k == 0 for th in thetas)
    assert sorted(calls) == sorted(
        [("fracnoise_solve", zeros)] * bool(zeros)
        + [("schur_solve", len(thetas) - zeros)] * bool(len(thetas) - zeros))
    for th, got in zip(thetas, values):
        assert got == _value_alone(th, x, prior)


def test_empty_population_calls_no_kernel(monkeypatch):
    calls = _kernel_rows(monkeypatch)
    empty = (np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 0)))
    values, info, ill = exact.exact_log_margliks(*empty, np.ones(16), PriorConfig())
    assert values.shape == info.shape == ill.shape == (0,)
    assert calls == []
