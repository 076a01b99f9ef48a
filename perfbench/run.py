"""fexpsmc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload smc_short --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  The series to fit are generated here
from ``--seed`` (``inputs.py``, no fexpsmc code).  Two worker processes
(``worker.py``), one for fits and one for draws, then take turns running
rounds until ``--seconds`` is used up, fits getting FIT_SHARE of the
time.  Seven set-up probes are spread over the same window: each is a
fresh interpreter that imports fexpsmc and reads and prepares the first
series; ``setup_s`` is their median.  Every fit and draw is checked; a
failed check counts in ``failed`` and ``fail_frac``.  With ``--trace 1`` the
workers wrap every public fexpsmc function and the run reports per-layer
metrics instead (``layers.py``).

Detail lines (environment, one line per operation with its SHA-256s,
``mean_d`` and ``log_evidence``, every metric with its unit) come first;
the last line of standard output is the JSON result.  The full record is
also written to ``perfbench/results/``.  Exits 2 when the checkout holds
no fexpsmc sources, 3 when a process fails or the run takes longer than
``--seconds`` plus DEADLINE_MARGIN_S.
"""

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import inputs
import layers
from workloads import DENSE_N, INNOV_N, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
#: share of the measured time given to the fits worker (the rest: draws)
FIT_SHARE = 0.6
#: time past ``--seconds`` for the last rounds, the set-up probes, the
#: workers' start and end and the result; every process of a run ends
#: within ``--seconds`` plus this
DEADLINE_MARGIN_S = 120.0

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import fexpsmc
if len(sys.argv) > 2:
    fexpsmc.prepare_dataset(fexpsmc.read_series(sys.argv[2]))
print(fexpsmc.__file__)
"""

END_TO_END = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("smc_moves_per_s", "1/s"),
    ("exact_evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("simulate_dense_s", "s"),
    ("simulate_innov_s", "s"),
]


class RunError(Exception):
    """A process of the run failed; no result is printed."""


def _environment():
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(2, nproc))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    record = {"nproc": nproc, "blas_threads": int(threads), "numpy": np.__version__,
              "scipy": scipy.__version__, "python": platform.python_version(),
              "correction_threads": 1}
    return env, record


def _deadline_left(deadline):
    left = deadline - time.perf_counter()
    if left <= 1.0:
        raise RunError("out of time")
    return left


def _setup_probe(env, series, deadline):
    args = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")] + ([str(series)] if series else [])
    t0 = time.perf_counter()
    proc = subprocess.run(args, env=env, capture_output=True, text=True,
                          timeout=_deadline_left(deadline))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunError(f"setup probe failed:\n{proc.stderr}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to((ROOT / "src").resolve()):
        raise RunError(f"fexpsmc imported from {proc.stdout.strip()}, not from the checkout")
    return elapsed


class Worker:
    """A ``worker.py`` process that runs one round per request."""

    def __init__(self, mode, plan_path, env, deadline):
        self.mode, self.deadline, self.workdir = mode, deadline, plan_path.parent
        self.log = open(self.workdir / f"{mode}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, str(plan_path)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.rounds = []          # wall time of each round, seen from here
        self.used = 0.0
        self._expect("ready")

    def _expect(self, word):
        ready, _, _ = select.select([self.proc.stdout], [], [], _deadline_left(self.deadline))
        line = self.proc.stdout.readline().strip() if ready else ""
        if line != word:
            log = Path(self.log.name).read_text()[-3000:]
            raise RunError(f"{self.mode} worker: expected {word!r}, got {line!r}\n{log}")

    def round(self):
        t0 = time.perf_counter()
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        self._expect("done")
        self.rounds.append(time.perf_counter() - t0)
        self.used += self.rounds[-1]

    def finish(self):
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        self._expect("finished")
        self.proc.wait(timeout=_deadline_left(self.deadline))
        return json.loads((self.workdir / f"result-{self.mode}.json").read_text())

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def _interleave(workers, shares, min_rounds, seconds, probe):
    """Alternate rounds so each worker's samples span the whole run.

    The next round goes to the worker furthest below its share of the time
    used; rounds stop once every worker has its minimum and the next round
    would end after ``seconds``.  The SETUP_PROBES set-up probes are spread
    evenly over the run; returns their times.
    """
    t0 = time.perf_counter()
    setup = []
    while True:
        elapsed = time.perf_counter() - t0
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
            continue
        short = [m for m in workers if len(workers[m].rounds) < min_rounds[m]]
        w = workers[min(short or workers, key=lambda m: workers[m].used / shares[m])]
        if not short and elapsed + statistics.median(w.rounds) > seconds:
            break
        w.round()
    return setup + [probe() for _ in range(SETUP_PROBES - len(setup))]


def _typical(records, value):
    """Mean over inputs of the median ``value`` among that input's repeats."""
    by_input = {}
    for r in records:
        v = value(r)
        if v is not None:
            by_input.setdefault(r.get("input"), []).append(v)
    return statistics.fmean(map(statistics.median, by_input.values())) if by_input else float("nan")


def _end_to_end(setup, fits, draws):
    """Operations that failed a check still count here: their times were measured."""
    fitted = [r for r in fits["records"] if not r["traced"] and "smc_s" in r]
    drawn = [r for r in draws["records"] if not r["traced"] and "draw_s" in r]

    def draw_s(path):
        return _typical(drawn, lambda r: r["draw_s"] if r["path"] == path else None)

    return {
        "setup_s": statistics.median(setup),
        "fit_s": _typical(fitted, lambda r: r["fit_s"]),
        "smc_moves_per_s": 1.0 / _typical(fitted, lambda r: r["smc_s"] / r["moves"]),
        "exact_evals_per_s": 1.0 / _typical(fitted, lambda r: r["corr_s"] / r["corr_unique"]),
        "peak_rss_mb": fits["peak_rss_mb"],
        "simulate_dense_s": draw_s("dense"),
        "simulate_innov_s": draw_s("innov"),
    }


def _overhead(fits):
    """Traced over untraced wall time of the first input's fit, minus one.

    A traced run makes two untraced fits of that input (a warm-up and round
    0) and the faster is the baseline, so first-call costs do not bias it.
    """
    first = [r for r in fits["records"] if r.get("input") == 0 and "fit_s" in r]
    untraced = min(r["fit_s"] for r in first if not r["traced"])
    return min(r["fit_s"] for r in first if r["traced"]) / untraced - 1.0


def _write_inputs(wl, seed, workdir):
    """The workload's series and fit configs, from the seed alone."""
    m = wl.model
    out = []
    for i in range(wl.inputs):
        x = inputs.fima(wl.n, m.d, m.theta, np.random.default_rng([seed, wl.key, 0, i]))
        series = workdir / f"series{i}.csv"
        series.write_text("x\n" + "".join(f"{v:.17g}\n" for v in x))
        smc_seed, corr_seed = (int(v) for v in np.random.SeedSequence(
            [seed, wl.key, 1, i]).generate_state(2) % 2**31)
        config = workdir / f"fit{i}.cfg"
        config.write_text(
            f"data.path = {series}\nsmc.N = {wl.N}\nsmc.M = {wl.M}\nsmc.seed = {smc_seed}\n"
            f"correction.seed = {corr_seed}\ncorrection.threads = 1\n"
            + (f"correction.subsample = {wl.subsample}\n" if wl.subsample else ""))
        out.append({"series": str(series), "config": str(config),
                    "smc_seed": smc_seed, "correction_seed": corr_seed})
    return out


def run(args):
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    if not (ROOT / "src" / "fexpsmc" / "__init__.py").is_file():
        print(f"no fexpsmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env, env_record = _environment()
    workdir = HERE / ".work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        fit_inputs = _write_inputs(wl, args.seed, workdir)
        check_dev = inputs.self_check(args.seed)
        plan = {
            "root": str(ROOT), "workdir": str(workdir), "trace": bool(args.trace),
            "inputs": fit_inputs, "d": wl.model.d, "d_tol": wl.d_tol, "model": wl.model.sim_config(),
            "dense_n": DENSE_N, "innov_n": INNOV_N, "draw_seed": [args.seed, wl.key, 2],
        }
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        workers = {}
        try:
            for mode in ("fits", "draws"):
                workers[mode] = Worker(mode, plan_path, env, deadline)
            setup = _interleave(workers, {"fits": FIT_SHARE, "draws": 1.0 - FIT_SHARE},
                                {"fits": 2 * wl.inputs, "draws": 2}, args.seconds,
                                lambda: _setup_probe(env, fit_inputs[0]["series"], deadline))
            results = {mode: w.finish() for mode, w in workers.items()}
        finally:
            for w in workers.values():
                w.close()

        ops = results["fits"]["records"] + results["draws"]["records"]
        failed = sum(1 for op in ops if op["fails"])
        env_record["backend"] = results["fits"]["backend"]
        e2e = _end_to_end(setup, results["fits"], results["draws"])
        e2e["fail_frac"] = failed / len(ops)
        correct = failed == 0 and check_dev <= inputs.CHECK_TOL
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env_record,
                  "input_self_check": {"max_dev_frac": check_dev, "tol": inputs.CHECK_TOL},
                  "inputs": fit_inputs, "setup_probes_s": setup,
                  "operations": ops, "end_to_end": e2e}
        units = dict(END_TO_END, fail_frac="1")
        if args.trace:
            workers = [layers.WorkerSpans(results[mode], np.load(workdir / f"spans-{mode}.npz"))
                       for mode in ("fits", "draws")]
            metrics = layers.compute(workers, _overhead(results["fits"]))
            units.update(layers.spec())
            record["per_layer"] = metrics
        else:
            metrics = {name: e2e[name] for name, _ in END_TO_END}
        missing = [name for name, value in metrics.items() if not math.isfinite(value)]
        if missing:
            raise RunError(f"no operation completed far enough to measure {missing}")

        out = HERE / "results"
        out.mkdir(exist_ok=True)
        (out / f"{wl.name}-s{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        if args.trace:
            for mode in ("fits", "draws"):
                shutil.copy(workdir / f"spans-{mode}.npz", out / f"{wl.name}-spans-{mode}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(env_record))
    print(f"input self-check: max |mean sample acov - gamma| / gamma(0) = {check_dev:.4g}"
          f" (tolerance {inputs.CHECK_TOL})")
    for op in ops:
        keep = {k: op[k] for k in ("op", "input", "path", "round", "traced", "fit_s", "draw_s",
                                   "corr_s", "sha256", "mean_d", "log_evidence", "iterations",
                                   "fails") if k in op}
        print("operation " + json.dumps(keep))
    for name, value in (metrics | {"fail_frac": e2e["fail_frac"]}).items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (RunError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
