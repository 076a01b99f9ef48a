"""What the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/worker.py`` times a ``fexpsmc fit`` by wrapping the two stage
calls ``cli`` makes through its module globals, and reads fields of their
arguments and results; ``perfbench/run.py`` writes ``correction.threads = 1``
into every fit config.  A change to the package that drops one of these
breaks the benchmark, not the package's own tests, so this test runs a tiny
fit through the worker's own ``StageTimer`` and ``_distinct`` (imported
read-only) and checks each of them.

ROADMAP item 1's benchmark change deletes ``correction.threads`` and
``_accel.BACKEND`` from the harness; this test changes with it.
"""

import math
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


def test_fit_exposes_what_the_benchmark_worker_reads(worker, tmp_path):
    series = tmp_path / "series.csv"
    write_series(series, simulate_series(SimConfig(n=64, d=0.25), np.random.default_rng(2)))
    config = tmp_path / "fit.cfg"
    config.write_text(f"data.path = {series}\nsmc.N = 4\nsmc.M = 1\nsmc.seed = 7\n"
                      "correction.seed = 8\ncorrection.threads = 1\n")
    stage = worker.StageTimer(cli)
    stage.install()
    try:
        rc = cli.main(["fit", "--config", str(config), "--output", str(tmp_path / "fit")])
    finally:
        stage.uninstall()
    assert rc == 0
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
