"""Config grammar, CLI round trips, exit codes, artifact reproducibility."""

from pathlib import Path

import numpy as np
import pytest

import fexpsmc
from fexpsmc.cli import _read_particles, _write_particles, main
from fexpsmc.config import (ConfigError, RunConfig, dump_document,
                            format_value, parse_config)
from fexpsmc.model import ThetaParams

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


@pytest.mark.parametrize("key, value", [
    ("smc.c", 1.5),
    ("smc.N", 1),
    ("model.d", 0.7),
    ("prior.geom_p", 0.0),
    ("mcmc.thin", 0),
    ("smc.mode", "nope"),
    ("model.xi", "bananas"),
    ("correction.subsample", 0),
])
def test_runconfig_rejects_bad_values(key, value):
    with pytest.raises(ConfigError, match="invalid value"):
        RunConfig({key: value})


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
    assert diag["run.command"] == "fit"
    assert diag["smc.N"] == 40
    assert diag["correction.enabled"] is True
    assert diag["correction.n_weighted"] == 40
    assert 1 <= diag["correction.n_unique"] <= diag["correction.n_weighted"]
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


def test_exit_2_invalid_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("smc.c = 1.5\n")
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "smc.c" in capsys.readouterr().err


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
], ids=["five_points", "nan"])
def test_exit_3_series_unusable_for_the_likelihood(command, values, message, tmp_path, capsys):
    data = tmp_path / "series.csv"
    data.write_text("".join(f"{v}\n" for v in values))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.path = {data}\nsmc.N = 4\nsmc.M = 0\nmcmc.steps = 2\n")
    assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_exit_2_exact_guard_is_checked_before_the_sampler(tmp_path, monkeypatch, capsys):
    from fexpsmc import cli

    def fail(*args, **kwargs):
        raise AssertionError("run_smc called on a series the correction refuses")

    monkeypatch.setattr(cli, "run_smc", fail)
    data = tmp_path / "series.csv"
    data.write_text("1.0\n" * (cli.N_GUARD + 1))
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data.path = {data}\nsmc.N = 4\nsmc.M = 0\n")
    assert main(["fit", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert "correction.force_large_n" in capsys.readouterr().err


def test_exit_3_report_on_non_particle_file(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b,c\n1,2,3\n")
    assert main(["report", str(junk), "--output", str(tmp_path)]) == 3
    assert "header" in capsys.readouterr().err


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
                        lambda thetas, ctx, prior, mode: np.full(len(thetas), np.nan))
    code = main(["fit", "--config", str(workspace / "fit.cfg"),
                 "--output", str(tmp_path)])
    assert code == 4
    assert "NaN" in capsys.readouterr().err


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
    # read by the benchmark harness in perfbench/
    for name in ("prepare_dataset", "read_series", "SimConfig", "simulate_series"):
        assert hasattr(fexpsmc, name), name
    assert fexpsmc._accel.BACKEND == "numpy"
