"""Config grammar, CLI round trips, exit codes, artifact reproducibility."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fexpsmc
from fexpsmc.cli import _read_particles, _write_particles, main
from fexpsmc.config import (REPORT_LIMIT, ConfigError, RunConfig, dump_document,
                            format_value, parse_config)
from fexpsmc.correction import N_GUARD, CorrectionConfig
from fexpsmc.mcmc import McmcConfig
from fexpsmc.model import PriorConfig, ThetaParams
from fexpsmc.simulate import SimConfig, simulate_series, write_series
from fexpsmc.smc import SmcConfig

# ---------------------------------------------------------------------------
# Config grammar
# ---------------------------------------------------------------------------

def test_parse_config_types_and_comments():
    doc = """
    # a comment
    flag.on = true
    flag.off = false
    count = 12

    rate = 0.25
    coeffs = 1.0, -2.5, 3.0
    name = series.csv
    """
    got = parse_config(doc)
    assert got == {
        "flag.on": True,
        "flag.off": False,
        "count": 12,
        "rate": 0.25,
        "coeffs": [1.0, -2.5, 3.0],
        "name": "series.csv",
    }


def test_parse_config_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate.*'a'"):
        parse_config("a = 1\nb = 2\na = 3\n")


def test_parse_config_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\nnot a key value pair\n")


def test_parse_config_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= 5\n")


def test_dump_parse_round_trip():
    doc = {
        "a.flag": True,
        "a.count": 7,
        "a.rate": 0.1 + 0.2,  # not exactly representable in decimal
        "a.list": [1.5, -2.25],
        "a.name": "hello",
    }
    text = dump_document(doc)
    back = parse_config(text)
    assert back == doc
    assert dump_document(back) == text


def test_format_value_handles_numpy_scalars():
    assert format_value(np.float64(0.5)) == "0.5"
    assert format_value(np.int64(3)) == "3"
    assert format_value(np.bool_(True)) == "true"
    assert format_value(np.array([1.0, 2.0])) == "1.0, 2.0"
    assert "np." not in format_value(np.float64(-184.25))


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------

def test_runconfig_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys: smc.walkers"):
        RunConfig({"smc.walkers": 10})


def test_runconfig_rejects_the_removed_quadratic_form_mode():
    # the Whittle form is the only approximate quadratic form: smc.mode is gone
    with pytest.raises(ConfigError, match="unknown config keys: smc.mode"):
        RunConfig({"smc.mode": "whittle"})


@pytest.mark.parametrize("key, value", [
    ("smc.c", 1.5),
    ("smc.N", 1),
    ("model.d", 0.7),
    ("prior.geom_p", 0.0),
    ("mcmc.thin", 0),
    ("smc.seed", 1.5),
    ("model.xi", "bananas"),
    ("correction.subsample", 0),
    # a bool is not a number, and a float must be finite
    ("correction.subsample", True),
    ("smc.M", True),
    ("prior.k_max", True),
    ("data.scale_by", False),
    ("prior.xi_var0", math.inf),
    ("prior.beta", math.nan),
    ("prior.a", math.inf),
    ("mcmc.tau", math.inf),
    ("model.mu", -math.inf),
    ("model.theta_ma", [0.2, math.nan]),
    ("model.xi", [True]),
])
def test_runconfig_rejects_bad_values(key, value):
    with pytest.raises(ConfigError, match="invalid value"):
        RunConfig({key: value})


def test_runconfig_names_the_dotted_key_the_section_refuses():
    with pytest.raises(ConfigError, match=r"invalid value: smc\.c must lie in \(0, 1\)"):
        RunConfig({"smc.c": 1.5})
    with pytest.raises(ConfigError, match=r"invalid value: prior\.b must be positive"):
        RunConfig({"prior.b": 0.0})
    with pytest.raises(ConfigError, match=r"invalid value: model\.kind must be"):
        RunConfig({"model.kind": "walk"})
    with pytest.raises(ConfigError, match=r"invalid value: mcmc\.tau must be positive"):
        RunConfig({"mcmc.tau": 0.0})
    with pytest.raises(ConfigError, match=r"invalid value: correction\.threads must be >= 1"):
        RunConfig({"correction.threads": 0})


def test_runconfig_key_set():
    assert set(RunConfig({}).values) == {
        "data.path", "data.scale_by",
        "model.kind", "model.n", "model.d", "model.sigma2", "model.mu",
        "model.xi", "model.phi", "model.theta_ma",
        "prior.geom_p", "prior.xi_var0", "prior.beta", "prior.a", "prior.b",
        "prior.g_mu", "prior.m_mu", "prior.k_max",
        "smc.N", "smc.M", "smc.c", "smc.seed",
        "correction.enabled", "correction.subsample", "correction.threads",
        "correction.seed", "correction.force_large_n",
        "mcmc.steps", "mcmc.tau", "mcmc.thin", "mcmc.gamma", "mcmc.fix_k",
        "report.grid_points", "report.grid_min", "report.bins",
    }


def test_runconfig_sections_are_the_dataclass_defaults():
    cfg = RunConfig({})
    for name, want in (("prior", PriorConfig()), ("smc", SmcConfig()), ("model", SimConfig()),
                       ("mcmc", McmcConfig()), ("correction", CorrectionConfig())):
        got = cfg.section(name)
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f"{name}.{f.name}"


def test_runconfig_defaults_round_trip_through_the_grammar():
    # an optional key left unset (None) has no spelling; omitting it keeps it unset
    cfg = RunConfig({})
    text = dump_document({k: v for k, v in cfg.values.items() if v is not None})
    assert RunConfig(parse_config(text)).values == cfg.values


def test_runconfig_defaults_and_override():
    cfg = RunConfig({})
    assert cfg["smc.N"] == 1000
    cfg.override("smc.N", 50)
    assert cfg["smc.N"] == 50
    with pytest.raises(ConfigError):
        cfg.override("smc.N", 1)  # revalidated
    with pytest.raises(ConfigError):
        cfg.override("nonsense.key", 1)


def test_runconfig_coerces_coefficient_lists():
    cfg = RunConfig({"model.xi": 0.3})
    assert cfg["model.xi"] == [0.3]
    cfg = RunConfig({"model.phi": ""})  # serialised empty list
    assert cfg["model.phi"] == []


# ---------------------------------------------------------------------------
# Particle file round trip
# ---------------------------------------------------------------------------

def test_particles_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    thetas = [
        ThetaParams(k=0, t=-0.123456789123456789, xi=np.empty(0)),
        ThetaParams(k=2, t=0.75, xi=rng.standard_normal(2)),
        ThetaParams(k=1, t=1.0 / 3.0, xi=np.array([np.pi])),
    ]
    weights = np.array([0.25, 0.5, 0.25])
    path = tmp_path / "particles.csv"
    _write_particles(path, thetas, weights)
    back_thetas, back_w = _read_particles(path)
    assert np.array_equal(back_w, weights)
    for orig, back in zip(thetas, back_thetas):
        assert back.k == orig.k
        assert back.t == orig.t  # %.17g round-trips float64 exactly
        assert np.array_equal(back.xi, orig.xi)


# ---------------------------------------------------------------------------
# End-to-end CLI runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulate a small series and fit it once; reused across tests."""
    ws = tmp_path_factory.mktemp("cli")
    sim_cfg = ws / "sim.cfg"
    sim_cfg.write_text(
        "model.kind = fracnoise\n"
        "model.n = 64\n"
        "model.d = 0.25\n"
    )
    code = main(["simulate", "--config", str(sim_cfg), "--seed", "5",
                 "--output", str(ws / "data")])
    assert code == 0

    fit_cfg = ws / "fit.cfg"
    fit_cfg.write_text(
        f"data.path = {ws / 'data' / 'series.csv'}\n"
        "smc.N = 40\n"
        "smc.M = 2\n"
        "smc.seed = 11\n"
    )
    code = main(["fit", "--config", str(fit_cfg), "--output", str(ws / "fit")])
    assert code == 0
    return ws


def test_simulate_writes_series_and_meta(workspace):
    series = workspace / "data" / "series.csv"
    meta = workspace / "data" / "series.meta"
    assert series.exists() and meta.exists()
    values = [float(v) for v in series.read_text().split()[1:]]  # skip header
    assert len(values) == 64
    meta_doc = parse_config(meta.read_text())
    assert meta_doc["model.n"] == 64
    assert meta_doc["simulate.seed"] == 5


def test_fit_writes_all_artifacts(workspace):
    fit = workspace / "fit"
    for name in ("particles.csv", "diagnostics.txt", "bands.csv",
                 "hist.csv", "summary.txt"):
        assert (fit / name).exists(), name


def test_fit_diagnostics_document(workspace):
    diag = parse_config((workspace / "fit" / "diagnostics.txt").read_text())
    assert list(diag) == [
        "run.command", "run.seed", "run.n_observations",
        "smc.N", "smc.M", "smc.iterations", "smc.gamma_schedule", "smc.ess_trace",
        "smc.distinct_after_resample", "smc.rw_accept_rates", "smc.bd_accept_rates", "smc.loglik_evals",
        "smc.loglik_minus_inf", "smc.log_evidence",
        "correction.enabled", "correction.n_weighted", "correction.n_unique",
        "correction.n_failed", "correction.n_ill_conditioned", "correction.ess_fraction",
    ]
    assert diag["run.command"] == "fit"
    assert diag["smc.N"] == 40
    assert diag["correction.enabled"] is True
    assert diag["correction.n_weighted"] == 40
    assert 1 <= diag["correction.n_unique"] <= diag["correction.n_weighted"]
    assert 0 <= diag["correction.n_ill_conditioned"] <= diag["correction.n_unique"]
    assert 0.0 < diag["correction.ess_fraction"] <= 1.0
    sched = diag["smc.gamma_schedule"]
    sched = sched if isinstance(sched, list) else [sched]
    assert sched[-1] == 1.0
    assert np.isfinite(diag["smc.log_evidence"])
    # per iteration: proposals scored, and how many of them scored -inf
    evals, minus_inf = (v if isinstance(v, list) else [v] for v in
                        (diag["smc.loglik_evals"], diag["smc.loglik_minus_inf"]))
    assert len(evals) == len(minus_inf) == len(sched)
    assert all(e >= m >= 0 for e, m in zip(evals, minus_inf))
    assert sum(evals) > 0
    # per iteration: the distinct ancestors the resample kept
    distinct = diag["smc.distinct_after_resample"]
    distinct = distinct if isinstance(distinct, list) else [distinct]
    assert len(distinct) == len(sched)
    assert all(1 <= v <= diag["smc.N"] for v in distinct)


def test_fit_summary_masses_and_moments(workspace):
    summary = parse_config((workspace / "fit" / "summary.txt").read_text())
    k_masses = [v for key, v in summary.items() if key.startswith("posterior.k_mass.")]
    assert abs(sum(k_masses) - 1.0) < 1e-9
    assert 0.0 <= summary["posterior.mean_d"] < 0.5
    assert summary["posterior.var_d"] >= 0.0
    assert summary["posterior.d_q10"] <= summary["posterior.d_q50"] <= summary["posterior.d_q90"]


def test_report_reproduces_fit_artifacts(workspace, capsys):
    out = workspace / "rep"
    code = main(["report", str(workspace / "fit" / "particles.csv"),
                 "--output", str(out)])
    assert code == 0
    assert "particles" in capsys.readouterr().out
    assert (out / "bands.csv").read_bytes() == \
        (workspace / "fit" / "bands.csv").read_bytes()
    got = parse_config((out / "summary.txt").read_text())
    want = parse_config((workspace / "fit" / "summary.txt").read_text())
    assert set(got) == set(want)
    for key, val in want.items():
        if isinstance(val, float):
            assert got[key] == pytest.approx(val, rel=1e-12), key
        else:
            assert got[key] == val, key


def test_fit_repeated_run_is_byte_identical(workspace):
    out2 = workspace / "fit2"
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--output", str(out2)])
    assert code == 0
    for name in ("particles.csv", "bands.csv", "hist.csv",
                 "summary.txt", "diagnostics.txt"):
        assert (out2 / name).read_bytes() == \
            (workspace / "fit" / name).read_bytes(), name


def test_fit_no_correction_flag(workspace):
    out = workspace / "fit_nc"
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--no-correction", "--output", str(out)])
    assert code == 0
    diag = parse_config((out / "diagnostics.txt").read_text())
    assert diag["correction.enabled"] is False
    assert "correction.n_weighted" not in diag
    # the log_w_corr column is empty on every row
    rows = (out / "particles.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[5] == "" for row in rows)


def test_fit_subsample_flag(workspace):
    out = workspace / "fit_sub"
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--subsample", "10", "--output", str(out)])
    assert code == 0
    diag = parse_config((out / "diagnostics.txt").read_text())
    assert diag["correction.n_weighted"] == 10
    rows = (out / "particles.csv").read_text().strip().splitlines()[1:]
    n_weighted = sum(1 for row in rows if float(row.split(",")[4]) > 0)
    assert n_weighted <= 10


def test_single_particle_report_collapses_bands(tmp_path):
    pf = tmp_path / "particles.csv"
    _write_particles(pf, [ThetaParams(k=1, t=0.3, xi=np.array([0.4]))],
                     np.array([1.0]))
    code = main(["report", str(pf), "--output", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "bands.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, q10, q50, q90 = row.split(",")
        assert q10 == q50 == q90


def test_mcmc_baseline_prior_chain(tmp_path, capsys):
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text("mcmc.steps = 500\nmcmc.thin = 5\nmcmc.gamma = 0.0\n")
    code = main(["mcmc-baseline", "--config", str(cfg), "--seed", "9",
                 "--output", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "step,k,d,t"
    assert len(rows) == 1 + 100  # 500 steps thinned by 5
    steps = [int(r.split(",")[0]) for r in rows[1:]]
    assert steps == list(range(0, 500, 5))
    diag = parse_config((tmp_path / "diagnostics.txt").read_text())
    assert diag["run.command"] == "mcmc-baseline"
    assert diag["mcmc.gamma"] == 0.0


def test_mcmc_baseline_with_data(workspace, tmp_path):
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text(
        f"data.path = {workspace / 'data' / 'series.csv'}\n"
        "mcmc.steps = 200\nmcmc.gamma = 1.0\n"
    )
    code = main(["mcmc-baseline", "--config", str(cfg), "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_2_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("smc.walkers = 10\n")
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_fit_with_the_removed_smc_mode_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text((workspace / "fit.cfg").read_text() + "smc.mode = whittle\n")
    assert main(["fit", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert "unknown config keys: smc.mode" in capsys.readouterr().err


def test_exit_2_invalid_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("smc.c = 1.5\n")
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "smc.c" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["report.bins", "report.grid_points"])
def test_exit_2_report_key_above_its_bound(key, tmp_path, capsys):
    # the bound is checked with the config, before any particle file is read
    assert RunConfig({key: REPORT_LIMIT})[key] == REPORT_LIMIT
    with pytest.raises(ConfigError, match=rf"invalid value: {key} = {REPORT_LIMIT + 1} "):
        RunConfig({key: REPORT_LIMIT + 1})
    cfg = tmp_path / "report.cfg"
    cfg.write_text(f"{key} = {REPORT_LIMIT + 1}\n")
    argv = ["report", str(tmp_path / "missing.csv"), "--config", str(cfg)]
    assert main(argv + ["--output", str(tmp_path)]) == 2
    assert f"{key} = {REPORT_LIMIT + 1} is out of range" in capsys.readouterr().err


def test_exit_2_fit_without_data_path(capsys):
    assert main(["fit"]) == 2
    assert "data.path" in capsys.readouterr().err


def test_exit_3_missing_data_file(tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data.path = {tmp_path / 'nope.csv'}\n")
    assert main(["fit", "--config", str(cfg)]) == 3
    assert "data error" in capsys.readouterr().err


def test_exit_3_garbled_data_line(tmp_path, capsys):
    data = tmp_path / "series.csv"
    data.write_text("1.0\n2.0\nwat\n4.0\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data.path = {data}\n")
    assert main(["fit", "--config", str(cfg)]) == 3
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "mcmc-baseline"])
@pytest.mark.parametrize("values, message", [
    ([0.1, -0.4, 0.3, 0.9, -1.2], "at least 8"),
    ([0.1, -0.4, 0.3, float("nan"), -1.2, 0.5, 0.2, -0.8, 1.1], "non-finite"),
    ([1e160, -1e160] * 8, "periodogram overflows"),
], ids=["five_points", "nan", "overflow"])
def test_exit_3_series_unusable_for_the_likelihood(command, values, message, tmp_path, capsys):
    data = tmp_path / "series.csv"
    data.write_text("".join(f"{v}\n" for v in values))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.path = {data}\nsmc.N = 4\nsmc.M = 0\nmcmc.steps = 2\n")
    assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_exit_2_mcmc_fix_k_above_prior_k_max(tmp_path, capsys):
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text("mcmc.fix_k = 60\nmcmc.steps = 2\nmcmc.gamma = 0.0\n")
    assert main(["mcmc-baseline", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert "prior.k_max" in capsys.readouterr().err


def test_exit_2_exact_guard_is_checked_before_the_sampler(tmp_path, monkeypatch, capsys):
    from fexpsmc import cli

    def fail(*args, **kwargs):
        raise AssertionError("run_smc called on a series the correction refuses")

    monkeypatch.setattr(cli, "run_smc", fail)
    data = tmp_path / "series.csv"
    data.write_text("1.0\n" * (N_GUARD + 1))
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data.path = {data}\nsmc.N = 4\nsmc.M = 0\n")
    assert main(["fit", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert "correction.force_large_n" in capsys.readouterr().err


def test_exit_3_report_on_non_particle_file(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b,c\n1,2,3\n")
    assert main(["report", str(junk), "--output", str(tmp_path)]) == 3
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("1,2,0.25,0.0,0.5,,0.1", "k=2 but xi has length 1"),
    ("1,0,0.25,inf,0.5,", "t must be finite"),
    ("1,0,0.25,0.0,-1.0,", "weight -1.0 is not a finite nonnegative number"),
    ("1,1,0.25,0.0,0.5,,nan", "xi must be finite"),
    ("1,1,0.25,0.0,0.5,,0.5,0.7", "k=1 but xi_2 is not empty"),
], ids=["k_without_its_xi", "infinite_t", "negative_weight", "nan_xi", "xi_beyond_k"])
def test_exit_3_report_on_a_malformed_particle_row(row, message, tmp_path, capsys):
    pf = tmp_path / "particles.csv"
    pf.write_text("index,k,d,t,weight,log_w_corr,xi_1,xi_2\n"
                  "0,1,0.25,0.0,0.5,,0.3,\n"
                  + row + "\n")
    assert main(["report", str(pf), "--output", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"{pf}: line 3: malformed particle row" in err
    assert message in err


def test_exit_4_degenerate_weights(tmp_path, capsys):
    pf = tmp_path / "particles.csv"
    _write_particles(pf, [ThetaParams(k=0, t=0.0, xi=np.empty(0)),
                          ThetaParams(k=0, t=0.5, xi=np.empty(0))],
                     np.zeros(2))
    assert main(["report", str(pf), "--output", str(tmp_path)]) == 4
    assert "numerical error" in capsys.readouterr().err


def test_exit_4_nan_log_likelihood(workspace, tmp_path, monkeypatch, capsys):
    from fexpsmc import smc
    monkeypatch.setattr(smc, "approx_log_liks",
                        lambda k, t, xi, ctx, prior: np.full(k.size, np.nan))
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--output", str(tmp_path)])
    assert code == 4
    assert "NaN" in capsys.readouterr().err


def test_exit_4_tempering_schedule_stuck(workspace, tmp_path, monkeypatch, capsys):
    from fexpsmc import smc
    monkeypatch.setattr(smc, "MAX_ITERS", 1)
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--output", str(tmp_path)])
    assert code == 4
    assert "tempering schedule did not reach gamma = 1 in 1 iterations" in capsys.readouterr().err


@pytest.fixture
def wide_prior_series(tmp_path):
    # with xi_1 ~ N(0, 1e12) most prior draws overflow exp(xi_1 cos lam) on
    # the Whittle grid, so their approximate log likelihood is -inf
    path = tmp_path / "series.csv"
    write_series(path, simulate_series(SimConfig(n=300, d=0.25), np.random.default_rng(0)))
    return f"data.path = {path}\nprior.xi_var0 = 1e12\n"


def test_exit_4_too_few_finite_logliks_for_the_tempering_solve(wide_prior_series, tmp_path,
                                                               capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(wide_prior_series + "smc.N = 20\nsmc.M = 0\n")
    assert main(["fit", "--config", str(cfg), "--seed", "0", "--output", str(tmp_path)]) == 4
    assert "of 20 particles have a finite log likelihood" in capsys.readouterr().err


def test_exit_4_no_finite_loglik_at_all(tmp_path, capsys):
    # at this seed every one of the 4 initial draws scores -inf
    sim = tmp_path / "sim.cfg"
    sim.write_text("model.kind = arfima\nmodel.n = 1000\nmodel.d = 0.25\nmodel.theta_ma = 0.4\n")
    assert main(["simulate", "--config", str(sim), "--seed", "3", "--output", str(tmp_path)]) == 0
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data.path = {tmp_path / 'series.csv'}\nsmc.N = 4\nsmc.M = 1\n"
                   "prior.xi_var0 = 1e12\ncorrection.enabled = false\n")
    assert main(["fit", "--config", str(cfg), "--seed", "0", "--output", str(tmp_path)]) == 4
    assert "only 0 of 4 particles have a finite log likelihood" in capsys.readouterr().err


def test_exit_4_mcmc_baseline_from_a_zero_density_start(wide_prior_series, tmp_path, capsys):
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text(wide_prior_series + "mcmc.gamma = 1.0\nmcmc.steps = 2\n")
    assert main(["mcmc-baseline", "--config", str(cfg), "--seed", "0",
                 "--output", str(tmp_path)]) == 4
    assert "zero target density" in capsys.readouterr().err


_DENSITY_NOT_FINITE = pytest.mark.parametrize("kind, model", [
    ("arfima", "model.phi = 1.0\n"),   # an AR unit root: f(0) divides by zero
    ("fexp", "model.xi = 800.0\n"),    # exp(800 cos lam) overflows
], ids=["arfima_unit_root", "fexp_overflow"])


@_DENSITY_NOT_FINITE
def test_exit_4_simulate_density_not_finite_on_the_grid(tmp_path, capsys, kind, model):
    sim = tmp_path / "sim.cfg"
    sim.write_text(f"model.kind = {kind}\nmodel.n = 64\n" + model)
    with np.errstate(divide="ignore", over="ignore"):
        code = main(["simulate", "--config", str(sim), "--output", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert f"numerical error: model.kind = {kind}:" in err and "not finite" in err
    assert not (tmp_path / "series.csv").exists()


@_DENSITY_NOT_FINITE
def test_simulate_density_not_finite_warns_nothing(tmp_path, capsys, kind, model):
    # the non-finite check alone reports the density: no RuntimeWarning
    # precedes the typed line on stderr
    sim = tmp_path / "sim.cfg"
    sim.write_text(f"model.kind = {kind}\nmodel.n = 64\n" + model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(sim), "--output", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"numerical error: model.kind = {kind}:")


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Package surface
# ---------------------------------------------------------------------------

def test_public_names_resolve_and_readme_quick_start_imports():
    for name in fexpsmc.__all__:
        assert hasattr(fexpsmc, name), name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("from fexpsmc import (")
    statement = readme[start:readme.index(")", start) + 1]
    exec(statement, {})
    # every documented config key is a live option
    blocks = readme.split("```ini\n")[1:]
    assert blocks
    for block in blocks:
        RunConfig(parse_config(block[:block.index("```")], source="README.md"))
    # read by the benchmark harness in perfbench/
    for name in ("prepare_dataset", "read_series", "SimConfig", "simulate_series"):
        assert hasattr(fexpsmc, name), name
    assert fexpsmc._accel.BACKEND == "numpy"
