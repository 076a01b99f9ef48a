"""What the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/worker.py`` times a ``fexpsmc fit`` by wrapping the two stage
calls ``cli`` makes through its module globals, and reads fields of their
arguments and results; ``perfbench/layers.py`` times the report layers by
the names of ``spectral_bands`` and ``summarize``, which ``cli`` calls once
each per fit through its globals; ``perfbench/run.py`` writes
``correction.threads = 1`` into every fit config.  ``run.py`` also times a set-up probe (its
``SETUP_CODE``: import the package, read and prepare a series), and the
draws worker calls ``simulate_series`` on each workload's generating model.
A change to the package that drops one of these breaks the benchmark, not
the package's own tests, so these tests run a tiny fit through the worker's
own ``StageTimer`` and ``_distinct``, the probe as ``run.py`` runs it, and
``draw_round`` twice at the benchmark's draw lengths on each workload's
model (all imported read-only), and check each of them.

ROADMAP item 1's benchmark change deletes ``correction.threads`` and
``_accel.BACKEND`` from the harness; this test changes with it.
"""

import collections
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fexpsmc
from fexpsmc import cli
from fexpsmc.simulate import SimConfig, simulate_series, write_series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import worker

    return worker


@pytest.fixture
def perfbench(monkeypatch):
    """The harness's own modules, imported read-only: (run, workloads)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import run
    import workloads

    return run, workloads


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_fit_exposes_what_the_benchmark_worker_reads(worker, tmp_path, monkeypatch):
    series = tmp_path / "series.csv"
    write_series(series, simulate_series(SimConfig(n=64, d=0.25), np.random.default_rng(2)))
    config = tmp_path / "fit.cfg"
    config.write_text(f"data.path = {series}\nsmc.N = 4\nsmc.M = 1\nsmc.seed = 7\n"
                      "correction.seed = 8\ncorrection.threads = 1\n")
    calls = collections.Counter()
    for name in ("spectral_bands", "summarize"):
        monkeypatch.setattr(cli, name, _counted(calls, name, getattr(cli, name)))
    stage = worker.StageTimer(cli)
    stage.install()
    try:
        rc = cli.main(["fit", "--config", str(config), "--output", str(tmp_path / "fit")])
    finally:
        stage.uninstall()
    assert rc == 0
    assert calls == {"spectral_bands": 1, "summarize": 1}
    assert cli.run_smc is stage.inner["run_smc"]  # uninstall restored the globals

    smc_s, args, ps = stage.last["run_smc"]
    assert smc_s > 0.0
    assert (args[2].N, args[2].M) == (4, 1)
    assert len(ps.gamma_schedule) >= 1 and ps.gamma_schedule[-1] == 1.0

    corr_s, args, corr = stage.last["correction_weights"]
    thetas = list(args[0])
    assert len(thetas) == 4 and all(callable(th.key) for th in thetas)
    assert 1 <= worker._distinct(thetas, corr.indices) <= corr.indices.size == 4
    assert corr.n_failed == 0
    assert 0.0 < corr.ess_fraction <= 1.0

    diag = worker._read_document(tmp_path / "fit" / "diagnostics.txt")
    summary = worker._read_document(tmp_path / "fit" / "summary.txt")
    assert math.isfinite(float(diag["smc.log_evidence"]))
    assert int(diag["correction.n_failed"]) == 0
    assert 0.0 < float(summary["posterior.mean_d"]) < 0.5
    assert worker._weight_sum(tmp_path / "fit" / "particles.csv") == pytest.approx(1.0, abs=1e-9)

    assert fexpsmc._accel.BACKEND == "numpy"


def test_setup_probe_reads_and_prepares_a_series(perfbench, tmp_path):
    run, _ = perfbench
    series = tmp_path / "series.csv"
    write_series(series, simulate_series(SimConfig(n=64, d=0.25), np.random.default_rng(3)))
    src = Path(fexpsmc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", run.SETUP_CODE, str(src), str(series)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(fexpsmc.__file__).resolve()


@pytest.mark.parametrize("name", ["smc_short", "correct_exact"])
def test_draw_round_at_the_benchmark_lengths(name, worker, perfbench, monkeypatch):
    # the benchmark's own lengths and models: every draw passes the worker's
    # checks, and a repeat reproduces its hashes, as _check_repeats requires;
    # both lengths draw by circulant embedding, not by the O(n^2) fallback
    _, workloads = perfbench
    model = workloads.WORKLOADS[name].model.sim_config()
    plan = {"dense_n": workloads.DENSE_N, "innov_n": workloads.INNOV_N, "model": model,
            "draw_seed": [5]}
    calls = collections.Counter()
    monkeypatch.setattr(fexpsmc._accel, "durbin_levinson_sample",
                        _counted(calls, "durbin_levinson_sample",
                                 fexpsmc._accel.durbin_levinson_sample))
    records = worker.draw_round(fexpsmc, plan, 0)
    assert [rec["path"] for rec in records] == ["dense", "innov"]
    for rec in records:
        assert rec["fails"] == []
        assert rec["draw_s"] > 0.0 and len(rec["sha256"]) == 64
    again = worker.draw_round(fexpsmc, plan, 1)
    worker._check_repeats(records + again)
    assert [rec["fails"] for rec in records + again] == [[]] * 4
    assert calls == {}
