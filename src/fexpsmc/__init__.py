"""Bayesian spectral-density inference for stationary Gaussian time series.

The package fits a semiparametric spectral model -- a fractional
long-memory pole times an exponential-cosine short-memory factor -- with
a trans-dimensional SMC sampler driven by a fast approximate likelihood,
and optionally reweights the resulting particles by the exact
Gaussian marginal likelihood.
"""

from .approx import (DatasetContext, approx_log_lik, log_barnes_g,
                     log_det_approx, prepare_dataset, quadform_approx_toeplitz,
                     quadform_whittle)
from .config import (ConfigError, DataError, NumericalError, RunConfig,
                     dump_document, load_config, parse_config)
from .correction import CorrectionResult, corrected_estimate, correction_weights
from .exact import (NotPositiveDefiniteError, cholesky_lower, exact_log_marglik,
                    fbar_autocov)
from .fourier import (build_toeplitz, fourier_coeffs_bounded,
                      fourier_coeffs_longmemory, fracdiff_acf)
from .mcmc import (KernelConfig, MoveStats, birth_death_step, calibrate_scales,
                   rw_metropolis_step, run_mcmc)
from .model import (PriorConfig, ThetaParams, arfima_sdf, eval_fbar, fexp_sdf,
                    log_prior, sample_prior)
from .report import (d_histogram, frequency_grid, k_mass, spectral_bands,
                     summarize, weighted_quantile)
from .simulate import (SimConfig, model_autocov, read_series, simulate_series,
                       write_series)
from .smc import ParticleSystem, SmcConfig, ess, multinomial_resample, run_smc

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CorrectionResult", "DataError", "DatasetContext",
    "KernelConfig", "MoveStats", "NotPositiveDefiniteError", "NumericalError",
    "ParticleSystem", "PriorConfig", "RunConfig", "SimConfig", "SmcConfig",
    "ThetaParams", "approx_log_lik", "arfima_sdf", "birth_death_step",
    "build_toeplitz", "calibrate_scales", "cholesky_lower",
    "corrected_estimate", "correction_weights", "d_histogram",
    "dump_document", "ess", "eval_fbar", "exact_log_marglik", "fbar_autocov",
    "fexp_sdf", "fourier_coeffs_bounded",
    "fourier_coeffs_longmemory", "fracdiff_acf", "frequency_grid",
    "k_mass", "load_config", "log_barnes_g", "log_det_approx",
    "log_prior", "model_autocov", "multinomial_resample", "parse_config",
    "prepare_dataset", "quadform_approx_toeplitz", "quadform_whittle",
    "read_series", "run_mcmc", "run_smc", "rw_metropolis_step",
    "sample_prior", "simulate_series", "spectral_bands", "summarize",
    "weighted_quantile", "write_series",
]
