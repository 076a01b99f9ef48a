"""One measuring process of a benchmark run: ``fits`` or ``draws``.

Started by ``run.py`` as ``python3 perfbench/worker.py {fits|draws} PLAN.json``
with the checkout's ``src`` on PYTHONPATH and BLAS threads pinned.  It runs
one round each time ``run.py`` asks (fits cycle through the inputs; every
repeat uses the same inputs and seeds) and checks every output.  At the end
it writes one JSON result next to the plan: per-round timings and checks,
its own peak RSS and, in a traced run, the spans and per-call observations
that ``layers.py`` turns into per-layer metrics.
"""

import csv
import hashlib
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer

perf = time.perf_counter


def _import_package(root):
    src = str(Path(root) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fexpsmc

    if not Path(fexpsmc.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"fexpsmc imported from {fexpsmc.__file__}, not from {src}")
    return fexpsmc


def _peak_rss_mb():
    """Peak resident set size of this process alone, in MB.

    Not ``ru_maxrss``: Linux carries that over from the parent across exec,
    so it would report ``run.py``'s own peak when that is larger.  ``VmHWM``
    belongs to this process's address space only.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_document(path):
    """Parse a ``key = value`` artifact into {key: raw string}."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _weight_sum(path):
    """Sum of the ``weight`` column of a particles.csv."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return math.fsum(float(row["weight"]) for row in rows)


def _distinct(thetas, indices):
    return len({thetas[i].key() for i in indices})


class StageTimer:
    """Times the two top-level stage calls a fit makes through ``cli``."""

    STAGES = ("run_smc", "correction_weights")

    def __init__(self, cli):
        self.cli = cli
        self.inner = {}
        self.last = {}

    def install(self):
        for name in self.STAGES:
            fn = getattr(self.cli, name)
            self.inner[name] = fn
            setattr(self.cli, name, self._timed(name, fn))

    def uninstall(self):
        for name, fn in self.inner.items():
            setattr(self.cli, name, fn)

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            self.last[name] = (perf() - t0, args, result)
            return result

        return timed


def _observers(obs):
    """Per-call observations recorded next to the spans, keyed by function."""

    def observer(func, values):
        rows = obs.setdefault(func, [])
        return lambda idx, args, result: rows.append([idx, *values(args, result)])

    return {func: observer(func, values) for func, values in {
        "approx_log_lik": lambda a, r: [int(not math.isfinite(r))],
        # whittle_quadform(d, xi, pgram, ...): k = len(xi), n - 1 = len(pgram)
        "whittle_quadform": lambda a, r: [len(a[1]), len(a[2])],
        "rw_metropolis_step": lambda a, r: [int(r[3])],
        "birth_death_step": lambda a, r: [int(r[3])],
        "multinomial_resample": lambda a, r: [len(np.unique(r)), len(r)],
        "run_smc": lambda a, r: [len(r.gamma_schedule)],
        "correction_weights": lambda a, r: [int(r.indices.size), _distinct(list(a[0]), r.indices),
                                            int(r.n_failed), float(r.ess_fraction)],
        "exact_log_marglik": lambda a, r: [len(a[1])],
        "simulate_series": lambda a, r: [int(a[0].n)],
    }.items()}


def fit_round(cli, stage, plan, r, i):
    """One ``fexpsmc fit`` of input ``i`` as round ``r``, with its checks."""
    out = Path(plan["workdir"]) / f"fit{r}"
    argv = ["fit", "--config", plan["inputs"][i]["config"], "--output", str(out)]
    stage.last.clear()
    t0 = perf()
    rc = cli.main(argv)
    fit_s = perf() - t0
    rec = {"op": "fit", "input": i, "round": r, "fit_s": fit_s, "rc": rc, "fails": []}
    if rc != 0:
        rec["fails"].append(f"exit code {rc}")
        return rec

    rec["smc_s"], args, ps = stage.last["run_smc"]
    cfg = args[2]
    rec["moves"] = cfg.N * cfg.M * len(ps.gamma_schedule)
    rec["iterations"] = len(ps.gamma_schedule)
    rec["corr_s"], args, corr = stage.last["correction_weights"]
    rec["corr_unique"] = _distinct(list(args[0]), corr.indices)

    diag = _read_document(out / "diagnostics.txt")
    summary = _read_document(out / "summary.txt")
    rec["log_evidence"] = float(diag["smc.log_evidence"])
    rec["mean_d"] = float(summary["posterior.mean_d"])
    rec["n_failed"] = int(diag["correction.n_failed"])
    rec["sha256"] = {name: _sha256(out / name) for name in ("particles.csv", "summary.txt")}
    rec["weight_sum"] = _weight_sum(out / "particles.csv")
    if not math.isfinite(rec["log_evidence"]):
        rec["fails"].append("non-finite log evidence")
    if abs(rec["weight_sum"] - 1.0) > 1e-9:
        rec["fails"].append(f"weights sum to {rec['weight_sum']!r}")
    if rec["n_failed"]:
        rec["fails"].append(f"correction.n_failed = {rec['n_failed']}")
    if abs(rec["mean_d"] - plan["d"]) > plan["d_tol"]:
        rec["fails"].append(f"posterior mean d {rec['mean_d']:.4f} not within "
                            f"{plan['d_tol']} of {plan['d']}")
    return rec


def draw_round(fexpsmc, plan, r):
    """One simulate_series draw on each side of the dense limit, each checked."""
    records = []
    for path, n in (("dense", plan["dense_n"]), ("innov", plan["innov_n"])):
        rec = {"op": "draw", "path": path, "round": r, "fails": []}
        try:
            cfg = fexpsmc.SimConfig(n=n, **plan["model"])
            rng = np.random.default_rng(plan["draw_seed"] + [n])
            t0 = perf()
            x = fexpsmc.simulate_series(cfg, rng)
            rec["draw_s"] = perf() - t0
            rec["sha256"] = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
            if x.shape != (n,) or not np.all(np.isfinite(x)) or not np.std(x) > 0:
                rec["fails"].append(f"{path} draw is not {n} finite, non-constant values")
        except Exception:
            rec["fails"].append(traceback.format_exc())
        records.append(rec)
    return records


def _fit_op(cli, stage, plan, r, i):
    try:
        return fit_round(cli, stage, plan, r, i)
    except Exception:
        return {"op": "fit", "input": i, "round": r, "fails": [traceback.format_exc()]}


def _check_repeats(records):
    """Every repeat of an operation must reproduce its first run's hashes."""
    first = {}
    for rec in records:
        if "sha256" not in rec:
            continue
        key = (rec["op"], rec.get("path"), rec.get("input"))
        if first.setdefault(key, rec["sha256"]) != rec["sha256"]:
            rec["fails"].append("SHA-256 differs from the first repeat")


def main(mode, plan_path):
    """Serve rounds on request: read ``round`` or ``end`` lines from stdin,
    answer each round with one line on the original stdout."""
    plan = json.loads(Path(plan_path).read_text())
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")      # keeps the CLI's own output off the channel
    fexpsmc = _import_package(plan["root"])
    from fexpsmc import cli

    trace = plan["trace"]
    tracer = Tracer() if trace else None
    obs = {}
    records = []
    stage = StageTimer(cli)
    stage.install()
    if trace and mode == "fits":
        # an untraced warm-up of input 0 takes the first-call costs, so that
        # it and round 0 give trace.overhead_frac an unbiased baseline
        records.append(_fit_op(cli, stage, plan, "warmup", 0) | {"traced": False})
    reply.write("ready\n")
    r = 0
    while sys.stdin.readline().strip() == "round":
        traced = trace and (mode == "draws" or r > 0)
        if traced and not tracer.names:
            # the first fit of a traced run stays untraced: trace.overhead_frac
            stage.uninstall()
            tracer.install()
            tracer.observers.update(_observers(obs))
            stage.install()
        if traced:
            tracer.mark(r % len(plan["inputs"]) if mode == "fits" else 0)
        if mode == "fits":
            new = [_fit_op(cli, stage, plan, r, r % len(plan["inputs"]))]
        else:
            new = draw_round(fexpsmc, plan, r)
        for rec in new:
            rec["traced"] = bool(traced)
        records.extend(new)
        r += 1
        reply.write("done\n")
    _check_repeats(records)

    result = {
        "mode": mode,
        "records": records,
        "peak_rss_mb": _peak_rss_mb(),
        "backend": fexpsmc._accel.BACKEND,
    }
    if tracer is not None and tracer.names:
        spans = tracer.spans()
        np.savez(Path(plan["workdir"]) / f"spans-{mode}.npz", **spans,
                 mark_label=np.array([m[0] for m in tracer.marks], dtype=np.int64),
                 mark_start=np.array([m[1] for m in tracer.marks], dtype=np.int64))
        result["span_names"] = tracer.names
        result["observations"] = obs
    Path(plan["workdir"], f"result-{mode}.json").write_text(json.dumps(result))
    reply.write("finished\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
