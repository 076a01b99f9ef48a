"""Fourier-coefficient machinery: oracles are closed-form integrals, scipy
Bessel functions, and mpmath quadrature."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import iv as bessel_iv

from dense_reference import build_toeplitz
from fexpsmc.fourier import (default_grid_size, fourier_coeffs_bounded,
                             fourier_coeffs_longmemory, fracdiff_acf)

TWO_PI = 2.0 * math.pi


def test_default_grid_size():
    assert default_grid_size(1) == 2
    assert default_grid_size(64) == 128
    assert default_grid_size(65) == 256
    assert default_grid_size(1000) == 2048


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
# Dense Toeplitz reference (tests/dense_reference.py)
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
