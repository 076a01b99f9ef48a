"""Fourier-coefficient machinery: oracles are closed-form integrals, scipy
Bessel functions, and mpmath quadrature."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import iv as bessel_iv

from fexpsmc.fourier import (build_toeplitz, default_grid_size, endpoint_alpha0,
                             fourier_coeffs_bounded, fourier_coeffs_longmemory,
                             fracdiff_acf, hat_weight)

TWO_PI = 2.0 * math.pi


def test_default_grid_size():
    assert default_grid_size(1) == 2
    assert default_grid_size(64) == 128
    assert default_grid_size(65) == 256
    assert default_grid_size(1000) == 2048


# ---------------------------------------------------------------------------
# Hat-function transform: mpmath oracle across the branch point
# ---------------------------------------------------------------------------

def test_hat_weight_accurate_across_branch():
    mpmath.mp.dps = 40
    lams = np.geomspace(1e-8, 1.0, 60)
    for lam in lams:
        want = float(2 * (1 - mpmath.cos(mpmath.mpf(lam))) / mpmath.mpf(lam) ** 2)
        got = hat_weight(lam)
        assert abs(got - want) <= 1e-12 * want, f"lam={lam}: {got} vs {want}"
    assert hat_weight(0.0) == 1.0


def test_endpoint_alpha0_is_minus_half_hat():
    lam = np.linspace(0.0, 3.0, 7)
    assert np.allclose(endpoint_alpha0(lam), -0.5 * hat_weight(lam), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Spectral (periodic trapezoid) rule: exactness and convergence
# ---------------------------------------------------------------------------

def test_constant_density_gives_unit_mass():
    # g = 1/(2 pi): gamma(0) = 1 and all higher coefficients vanish
    coef = fourier_coeffs_bounded(lambda lam: np.full_like(lam, 1.0 / TWO_PI), 8, M=64)
    assert abs(coef[0] - 1.0) < 1e-14
    assert np.max(np.abs(coef[1:])) < 1e-14


def test_trig_polynomial_integrated_exactly():
    # g = (1 + cos lam)/(2 pi): gamma = (1, 1/2, 0, 0, ...)
    coef = fourier_coeffs_bounded(lambda lam: (1.0 + np.cos(lam)) / TWO_PI, 6, M=32)
    want = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(coef - want)) < 1e-14


def test_exponential_cosine_matches_bessel():
    # int e^{z cos lam} e^{i l lam} dlam / (2 pi) = I_l(z)
    z = 0.5
    coef = fourier_coeffs_bounded(lambda lam: np.exp(z * np.cos(lam)) / TWO_PI, 12, M=64)
    want = bessel_iv(np.arange(12), z)
    assert np.max(np.abs(coef - want)) < 1e-12


def test_spectral_rule_converges_in_grid_size():
    g = lambda lam: np.exp(np.cos(lam) - 0.3 * np.cos(2 * lam)) / TWO_PI
    c64 = fourier_coeffs_bounded(g, 16, M=64)
    c256 = fourier_coeffs_bounded(g, 16, M=256)
    assert np.max(np.abs(c64 - c256)) < 1e-12


def test_coefficients_are_linear_in_the_integrand():
    g1 = lambda lam: np.exp(0.3 * np.cos(lam))
    g2 = lambda lam: 1.0 / (1.2 + np.cos(lam))
    mix = lambda lam: 2.0 * g1(lam) - 0.7 * g2(lam)
    c = fourier_coeffs_bounded(mix, 10, M=128)
    c1 = fourier_coeffs_bounded(g1, 10, M=128)
    c2 = fourier_coeffs_bounded(g2, 10, M=128)
    assert np.max(np.abs(c - (2.0 * c1 - 0.7 * c2))) < 1e-12


def test_asymmetric_integrand_raises_on_imaginary_residue():
    with pytest.raises(ValueError, match="[Ii]maginary|asymmetric"):
        fourier_coeffs_bounded(lambda lam: np.exp(np.sin(lam)), 8, M=64)


def test_bad_grid_sizes_rejected():
    g = lambda lam: np.ones_like(lam)
    with pytest.raises(ValueError):
        fourier_coeffs_bounded(g, 4, M=48)  # not a power of two
    with pytest.raises(ValueError):
        fourier_coeffs_bounded(g, 0)


# ---------------------------------------------------------------------------
# Interpolated (piecewise-linear) rule: closed-form segment oracle
# ---------------------------------------------------------------------------

def _pw_linear_coeff_oracle(nodes, gv, l):
    """Integral of the piecewise-linear interpolant times cos(l lam).

    Per segment, int (a + b lam) cos(l lam) dlam has the primitive
    (a + b lam) sin(l lam)/l + b cos(l lam)/l^2; l = 0 reduces to the
    trapezoid area.
    """
    total = 0.0
    for j in range(len(nodes) - 1):
        x0, x1 = nodes[j], nodes[j + 1]
        y0, y1 = gv[j], gv[j + 1]
        b = (y1 - y0) / (x1 - x0)
        a = y0 - b * x0
        if l == 0:
            total += 0.5 * (y0 + y1) * (x1 - x0)
        else:
            def prim(x):
                return (a + b * x) * math.sin(l * x) / l + b * math.cos(l * x) / l ** 2
            total += prim(x1) - prim(x0)
    return total


def test_interpolated_rule_exact_for_piecewise_linear():
    rng = np.random.default_rng(7)
    M = 32
    nodes = -np.pi + TWO_PI * np.arange(M + 1) / M
    gv = rng.uniform(0.5, 2.0, M + 1)
    # an even integrand keeps the imaginary residue at rounding level
    gv = 0.5 * (gv + gv[::-1])
    g = lambda lam: np.interp(lam, nodes, gv)
    coef = fourier_coeffs_bounded(g, 10, M=M, rule="interpolated")
    for l in range(10):
        want = _pw_linear_coeff_oracle(nodes, gv, l)
        assert abs(coef[l] - want) < 1e-12 * max(1.0, abs(want)), f"l={l}"


def test_interpolated_rule_second_order_for_smooth_g():
    g = lambda lam: np.exp(0.4 * np.cos(lam)) / TWO_PI
    exact = bessel_iv(np.arange(6), 0.4)
    err = []
    for M in (64, 128, 256):
        c = fourier_coeffs_bounded(g, 6, M=M, rule="interpolated")
        err.append(np.max(np.abs(c - exact)))
    # halving the step divides the error by about four
    assert err[0] / err[1] > 3.0
    assert err[1] / err[2] > 3.0


def test_both_rules_agree_on_fine_grids():
    g = lambda lam: 1.0 / (1.5 + np.cos(lam))
    cs = fourier_coeffs_bounded(g, 8, M=4096, rule="spectral")
    ci = fourier_coeffs_bounded(g, 8, M=4096, rule="interpolated")
    assert np.max(np.abs(cs - ci)) < 1e-6


# ---------------------------------------------------------------------------
# Fractional-noise autocovariances
# ---------------------------------------------------------------------------

def test_fracdiff_acf_degenerates_at_d_zero():
    got = fracdiff_acf(0.0, np.arange(6))
    assert np.allclose(got, [1, 0, 0, 0, 0, 0], atol=0)


def test_fracdiff_acf_lag_zero_log_gamma():
    mpmath.mp.dps = 30
    for d in (0.05, 0.2, 0.35, 0.49):
        want = float(mpmath.gamma(1 - 2 * d) / mpmath.gamma(1 - d) ** 2)
        assert abs(fracdiff_acf(d, 0) - want) < 1e-13 * want


def test_fracdiff_acf_matches_quadrature():
    # direct numerical integral of the singular spectral density
    mpmath.mp.dps = 30
    d = 0.3
    got = fracdiff_acf(d, np.array([0, 1, 2, 5, 20]))
    for lag, g in zip([0, 1, 2, 5, 20], got):
        f = lambda lam: (2 * mpmath.sin(lam / 2)) ** (-2 * d) * mpmath.cos(lag * lam)
        want = float(mpmath.quad(f, [0, mpmath.pi]) / mpmath.pi)
        assert abs(g - want) < 1e-10 * abs(want), f"lag={lag}: {g} vs {want}"


def test_fracdiff_acf_recurrence_consistency_far_out():
    d = 0.45
    acf = fracdiff_acf(d, np.arange(10_001))
    # gamma(l+1)/gamma(l) = (l+d)/(l+1-d) by construction; check the
    # closed form Gamma(l+d)Gamma(1-d) / (Gamma(l+1-d)Gamma(d)) directly
    mpmath.mp.dps = 30
    for lag in (10, 100, 10_000):
        want = float(
            mpmath.gamma(1 - 2 * d)
            / (mpmath.gamma(1 - d) * mpmath.gamma(d))
            * mpmath.gamma(lag + d)
            / mpmath.gamma(lag + 1 - d)
        )
        # roundoff in the term-by-term product drifts roughly linearly in lag
        assert abs(acf[lag] - want) < 1e-13 * max(lag, 10) * abs(want)


def test_fracdiff_acf_validates_inputs():
    with pytest.raises(ValueError):
        fracdiff_acf(0.5, 0)
    with pytest.raises(ValueError):
        fracdiff_acf(-0.01, 0)
    with pytest.raises(ValueError):
        fracdiff_acf(0.2, np.array([-1]))


def test_fracdiff_acf_scalar_and_array_agree():
    d = 0.25
    arr = fracdiff_acf(d, np.arange(8))
    for lag in range(8):
        assert fracdiff_acf(d, lag) == arr[lag]


# ---------------------------------------------------------------------------
# Long-memory (singular) coefficients
# ---------------------------------------------------------------------------

def test_longmemory_reduces_to_bounded_at_d_zero():
    g = lambda lam: np.exp(0.3 * np.cos(lam)) / TWO_PI
    a = fourier_coeffs_longmemory(0.0, g, 10, M=128)
    b = fourier_coeffs_bounded(g, 10, M=128)
    assert np.max(np.abs(a - b)) < 1e-13


def test_longmemory_pure_pole_matches_closed_form():
    # g constant: the bounded remainder vanishes identically
    d = 0.35
    coef = fourier_coeffs_longmemory(d, lambda lam: np.full_like(lam, 1.0 / TWO_PI), 16, M=64)
    want = fracdiff_acf(d, np.arange(16))
    assert np.max(np.abs(coef - want)) < 1e-12 * want[0]


def test_longmemory_matches_mpmath_quadrature():
    # full singular integrand, oracle by adaptive quadrature
    mpmath.mp.dps = 25
    d, xi = 0.25, 0.4
    g = lambda lam: np.exp(xi * np.cos(lam)) / TWO_PI
    # the remainder integrand is only ~lam^{2-2d} smooth at the origin, so
    # the rule converges at O(M^{-(3-2d)}): ~2.7e-8 max rel error at M=1024
    got = fourier_coeffs_longmemory(d, g, 6, M=1024)
    for lag in range(6):
        f = lambda lam: ((2 * mpmath.sin(lam / 2)) ** (-2 * d)
                         * mpmath.e ** (xi * mpmath.cos(lam))
                         * mpmath.cos(lag * lam) / (2 * mpmath.pi))
        want = float(2 * mpmath.quad(f, [0, mpmath.pi]))
        assert abs(got[lag] - want) < 1e-7 * abs(want), f"lag={lag}"


def test_longmemory_rejects_bad_d():
    g = lambda lam: np.ones_like(lam)
    with pytest.raises(ValueError):
        fourier_coeffs_longmemory(0.5, g, 4)


# ---------------------------------------------------------------------------
# Toeplitz assembly
# ---------------------------------------------------------------------------

def test_build_toeplitz_layout_and_ridge():
    acf = np.array([2.0, 1.0, 0.5])
    T = build_toeplitz(acf)
    want = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    assert np.array_equal(T, want)
    Tr = build_toeplitz(acf, ridge=0.25)
    assert np.array_equal(Tr, want + 0.25)


def test_build_toeplitz_validates_shape():
    with pytest.raises(ValueError):
        build_toeplitz(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        build_toeplitz(np.zeros(0))
