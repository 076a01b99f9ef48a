"""Command-line interface.

Subcommands
-----------
simulate       draw a synthetic series from a configured model
fit            run the SMC sampler (plus optional exact-likelihood
               reweighting) on a data file and write posterior artifacts
report         recompute summary artifacts from a saved particles.csv
mcmc-baseline  run the plain MCMC chain and write thinned traces

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

import argparse
import csv
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .approx import approx_log_liks, prepare_dataset
from .config import (ConfigError, DataError, NumericalError, RunConfig,
                     dump_document, load_config)
from .correction import correction_weights
from .mcmc import run_mcmc
from .model import ThetaParams
from .report import d_histogram, frequency_grid, spectral_bands, summarize
from .simulate import read_series, simulate_series, write_series
from .smc import run_smc

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _load_run_config(args):
    mapping = load_config(args.config) if args.config else {}
    cfg = RunConfig(mapping)
    if getattr(args, "seed", None) is not None:
        cfg.override("smc.seed", args.seed)
        cfg.override("correction.seed", args.seed)
    if getattr(args, "scale_by", None) is not None:
        cfg.override("data.scale_by", args.scale_by)
    if getattr(args, "no_correction", False):
        cfg.override("correction.enabled", False)
    if getattr(args, "subsample", None) is not None:
        cfg.override("correction.subsample", args.subsample)
    if getattr(args, "threads", None) is not None:
        cfg.override("correction.threads", args.threads)
    return cfg


def _out_dir(args):
    out = Path(args.output or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_data(cfg):
    path = cfg["data.path"]
    if not path:
        raise ConfigError("data.path is required for this command")
    try:
        return read_series(path, scale_by=cfg["data.scale_by"])
    except (OSError, ValueError) as err:
        raise DataError(str(err)) from None


def _fmt(value):
    return _FLOAT_FMT % float(value)


def _write_particles(path, thetas, weights, log_w_corr=None):
    """Store the weighted population as CSV.

    Columns: index, k, d, t, weight, log_w_corr, xi_1..xi_K with K the
    largest order present; shorter coefficient vectors are padded with
    empty fields.  log_w_corr is empty for particles that were never
    reweighted against the exact likelihood.
    """
    kmax = max((th.k for th in thetas), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "k", "d", "t", "weight", "log_w_corr"]
                        + [f"xi_{j}" for j in range(1, kmax + 1)])
        for i, (th, w) in enumerate(zip(thetas, weights)):
            lw = ""
            if log_w_corr is not None and np.isfinite(log_w_corr[i]):
                lw = _fmt(log_w_corr[i])
            xi = [_fmt(v) for v in th.xi] + [""] * (kmax - th.k)
            writer.writerow([i, th.k, _fmt(th.d), _fmt(th.t), _fmt(w), lw] + xi)


def _read_particles(path):
    """Load a particles.csv back into (thetas, weights).

    A row that does not make a particle (a missing or unparsable field, k
    not matching the xi fields, a non-empty xi field beyond k, a non-finite
    t or xi) or whose weight is not a finite nonnegative number is a
    DataError naming the file and line.
    """
    thetas, weights = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:6] != ["index", "k", "d", "t", "weight", "log_w_corr"]:
                raise DataError(f"{path}: not a particles file (unexpected header)")
            for lineno, row in enumerate(reader, start=2):
                try:
                    k = int(row[1])
                    w = float(row[4])
                    xi = np.array([float(v) for v in row[6:6 + k]], dtype=float)
                    if not np.all(np.isfinite(xi)):
                        raise ValueError("xi must be finite")
                    if not (np.isfinite(w) and w >= 0.0):
                        raise ValueError(f"weight {w!r} is not a finite nonnegative number")
                    theta = ThetaParams(k=k, t=float(row[3]), xi=xi)
                    beyond = [j for j, v in enumerate(row[6 + k:], start=k + 1) if v.strip()]
                    if beyond:
                        raise ValueError(f"k={k} but xi_{beyond[0]} is not empty")
                    thetas.append(theta)
                except (IndexError, ValueError) as err:
                    raise DataError(f"{path}: line {lineno}: malformed particle row ({err})") from None
                weights.append(w)
    except OSError as err:
        raise DataError(f"cannot read particles {path}: {err}") from None
    if not thetas:
        raise DataError(f"{path}: no particles found")
    return thetas, np.asarray(weights)


def _write_table(path, header, columns):
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


def _write_report_artifacts(out, thetas, weights, cfg):
    total = float(np.sum(weights))
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("particle weights do not form a usable distribution")
    weights = np.asarray(weights, dtype=float) / total

    grid = frequency_grid(cfg["report.grid_points"], cfg["report.grid_min"])
    grid, bands = spectral_bands(thetas, weights, grid)
    _write_table(out / "bands.csv", ["lambda", "q10", "q50", "q90"],
                 [grid, bands[0], bands[1], bands[2]])

    edges, mass = d_histogram(thetas, weights, bins=cfg["report.bins"])
    _write_table(out / "hist.csv", ["bin_left", "bin_right", "mass"],
                 [edges[:-1], edges[1:], mass])

    stats = summarize(thetas, weights)
    doc = {
        "posterior.mean_d": stats["mean_d"],
        "posterior.var_d": stats["var_d"],
    }
    for q, val in stats["quantiles_d"].items():
        doc[f"posterior.d_q{int(round(100 * q)):02d}"] = float(val)
    doc["posterior.mean_k"] = stats["mean_k"]
    doc["posterior.mode_k"] = stats["mode_k"]
    for k, mass_k in stats["k_mass"].items():
        doc[f"posterior.k_mass.{k}"] = mass_k
    (out / "summary.txt").write_text(dump_document(doc))
    return stats


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    cfg = _load_run_config(args)
    seed = cfg["smc.seed"]
    sim = cfg.section("model")
    rng = np.random.default_rng(seed)
    x = simulate_series(sim, rng)
    out = _out_dir(args)
    series_path = out / "series.csv"
    write_series(series_path, x)
    meta = {f"model.{key}": value for key, value in asdict(sim).items()}
    meta["simulate.seed"] = seed
    (out / "series.meta").write_text(dump_document(meta))
    print(f"wrote {series_path} ({x.size} observations)")
    return 0


def _cmd_fit(args):
    cfg = _load_run_config(args)
    x = _read_data(cfg)
    corr_cfg = cfg.section("correction")
    if corr_cfg.enabled:
        corr_cfg.check_length(x.size)  # before the sampler, not after it
    prior, smc_cfg = cfg.section("prior"), cfg.section("smc")
    ps = run_smc(x, prior, smc_cfg)
    weights = np.exp(ps.log_weights)

    corr = None
    log_w_corr = None
    if corr_cfg.enabled:
        corr = correction_weights(ps.thetas, x, prior, corr_cfg)
        weights = np.zeros(len(ps.thetas))
        weights[corr.indices] = corr.weights
        log_w_corr = np.full(len(ps.thetas), -np.inf)
        log_w_corr[corr.indices] = corr.log_w_raw

    out = _out_dir(args)
    _write_particles(out / "particles.csv", ps.thetas, weights, log_w_corr)

    diag = {
        "run.command": "fit",
        "run.seed": smc_cfg.seed,
        "run.n_observations": int(x.size),
        "smc.N": smc_cfg.N,
        "smc.M": smc_cfg.M,
        "smc.iterations": len(ps.gamma_schedule),
        "smc.gamma_schedule": list(ps.gamma_schedule),
        "smc.ess_trace": list(ps.ess_trace),
        "smc.distinct_after_resample": list(ps.distinct_after_resample),
        "smc.rw_accept_rates": list(ps.rw_rates),
        "smc.bd_accept_rates": list(ps.bd_rates),
        "smc.loglik_evals": list(ps.loglik_evals),
        "smc.loglik_minus_inf": list(ps.loglik_minus_inf),
        "smc.log_evidence": ps.log_evidence,
        "correction.enabled": bool(corr is not None),
    }
    if corr is not None:
        diag["correction.n_weighted"] = int(corr.indices.size)
        diag["correction.n_unique"] = int(corr.n_unique)
        diag["correction.n_failed"] = int(corr.n_failed)
        diag["correction.n_ill_conditioned"] = int(corr.n_ill_conditioned)
        diag["correction.ess_fraction"] = float(corr.ess_fraction)
    (out / "diagnostics.txt").write_text(dump_document(diag))

    stats = _write_report_artifacts(out, ps.thetas, weights, cfg)
    print(
        f"fit: {len(ps.gamma_schedule)} tempering steps, "
        f"mean d = {stats['mean_d']:.4f}, mode k = {stats['mode_k']}"
        + (f", correction ESS fraction = {corr.ess_fraction:.3f}" if corr else "")
    )
    return 0


def _cmd_report(args):
    cfg = _load_run_config(args)
    thetas, weights = _read_particles(args.particles)
    out = _out_dir(args)
    stats = _write_report_artifacts(out, thetas, weights, cfg)
    print(f"report: {len(thetas)} particles, mean d = {stats['mean_d']:.4f}, "
          f"mode k = {stats['mode_k']}")
    return 0


def _cmd_mcmc_baseline(args):
    cfg = _load_run_config(args)
    prior, mcmc_cfg = cfg.section("prior"), cfg.section("mcmc")
    if mcmc_cfg.gamma > 0.0:
        ctx = prepare_dataset(_read_data(cfg))
        logliks = lambda k, t, xi: approx_log_liks(k, t, xi, ctx, prior)
    else:
        logliks = lambda k, t, xi: np.zeros(k.size)  # chain targets the prior alone
    res = run_mcmc(logliks, prior, mcmc_cfg, cfg["smc.seed"])
    out = _out_dir(args)
    steps = np.arange(res["k"].size) * mcmc_cfg.thin
    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "k", "d", "t"])
        for s, k, d, t in zip(steps, res["k"], res["d"], res["t"]):
            writer.writerow([int(s), int(k), _fmt(d), _fmt(t)])
    stats = res["stats"]
    diag = {
        "run.command": "mcmc-baseline",
        "run.seed": cfg["smc.seed"],
        "mcmc.steps": mcmc_cfg.steps,
        "mcmc.gamma": float(mcmc_cfg.gamma),
        "mcmc.thin": mcmc_cfg.thin,
        "mcmc.rw_accept_rate": stats.rw_rate(),
        "mcmc.bd_accept_rate": stats.bd_rate(),
    }
    (out / "diagnostics.txt").write_text(dump_document(diag))
    print(f"mcmc-baseline: {res['k'].size} stored states, "
          f"RW acceptance = {stats.rw_rate():.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fexpsmc",
        description="Bayesian spectral-density inference for stationary "
                    "(possibly long-memory) Gaussian time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--output", metavar="DIR", help="output directory (default: .)")

    p_sim = sub.add_parser("simulate", help="draw a synthetic series from a model")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="run the SMC sampler on a data file")
    common(p_fit)
    p_fit.add_argument("--scale-by", dest="scale_by", type=float,
                       help="multiply the input series by this factor")
    p_fit.add_argument("--no-correction", dest="no_correction", action="store_true",
                       help="skip the exact-likelihood reweighting")
    p_fit.add_argument("--subsample", type=int,
                       help="reweight only this many particles")
    p_fit.add_argument("--threads", type=int,
                       help="worker threads for exact evaluations")
    p_fit.set_defaults(func=_cmd_fit)

    p_rep = sub.add_parser("report", help="rebuild summaries from particles.csv")
    common(p_rep)
    p_rep.add_argument("particles", help="path to a particles.csv from a fit run")
    p_rep.set_defaults(func=_cmd_report)

    p_mcmc = sub.add_parser("mcmc-baseline", help="run a plain MCMC chain")
    common(p_mcmc)
    p_mcmc.set_defaults(func=_cmd_mcmc_baseline)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as err:
        # NotPositiveDefiniteError subclasses LinAlgError
        print(f"numerical error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
