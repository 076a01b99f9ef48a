"""Bayesian spectral-density inference for stationary Gaussian time series.

The package fits a semiparametric spectral model -- a fractional
long-memory pole times an exponential-cosine short-memory factor -- with
a trans-dimensional SMC sampler driven by a fast approximate likelihood,
and optionally reweights the resulting particles by the exact
Gaussian marginal likelihood.
"""

from .approx import approx_log_lik, prepare_dataset
from .config import ConfigError, DataError, NumericalError, RunConfig, load_config
from .correction import correction_weights
from .exact import NotPositiveDefiniteError, exact_log_marglik
from .mcmc import run_mcmc
from .model import PriorConfig, ThetaParams
from .report import spectral_bands, summarize
from .simulate import SimConfig, read_series, simulate_series, write_series
from .smc import SmcConfig, run_smc

__version__ = "0.1.0"

# what the README quick start and the CLI subcommands call
__all__ = [
    "ConfigError", "DataError", "NotPositiveDefiniteError", "NumericalError",
    "PriorConfig", "RunConfig", "SimConfig", "SmcConfig", "ThetaParams",
    "approx_log_lik", "correction_weights", "exact_log_marglik", "load_config",
    "prepare_dataset", "read_series", "run_mcmc", "run_smc", "simulate_series",
    "spectral_bands", "summarize", "write_series",
]
