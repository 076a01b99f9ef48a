"""Per-layer metrics of a traced run, computed from the workers' spans.

A timing is the median over calls plus ``.tail``: the highest of the
p99.9/p99/p90/p50 levels with at least ten calls beyond it (the maximum
below 20 calls).  ``.calls`` counts calls per cycle: one fit of each input
plus one round of draws.  Rounds of the same input repeat the same work, so
the median over them is an exact count.  Functions are selected by name and,
where a layer is one caller of a shared function, by the module the call
was looked up in.
A function that no longer exists reports 0 calls and 0 time.
"""

import numpy as np

from workloads import DENSE_LIMIT

TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# (metric prefix, function, call sites or None for all, unit, "dur" | "self", n filter)
TIMED = [
    ("approx.prepare_dataset", "prepare_dataset", None, "ms", "dur", None),
    ("approx.approx_log_lik", "approx_log_lik", None, "us", "dur", None),
    ("approx.log_det_approx", "log_det_approx", None, "us", "dur", None),
    ("approx.log_barnes_g", "log_barnes_g", None, "us", "dur", None),
    ("approx.quadform_whittle", "quadform_whittle", None, "us", "dur", None),
    ("accel.whittle_quadform", "whittle_quadform", None, "us", "dur", None),
    ("accel.cosine_series", "cosine_series", None, "us", "dur", None),
    ("accel.durbin_levinson_sample", "durbin_levinson_sample", None, "ms", "dur", None),
    ("model.log_prior", "log_prior", None, "us", "dur", None),
    ("mcmc.rw_metropolis_step", "rw_metropolis_step", None, "us", "self", None),
    ("mcmc.birth_death_step", "birth_death_step", None, "us", "self", None),
    ("mcmc.calibrate_scales", "calibrate_scales", None, "ms", "dur", None),
    ("smc.run_smc", "run_smc", None, "s", "dur", None),
    ("smc.solve_next_gamma", "solve_next_gamma", None, "ms", "dur", None),
    ("smc.multinomial_resample", "multinomial_resample", None, "ms", "dur", None),
    ("correction.correction_weights", "correction_weights", None, "s", "dur", None),
    ("exact.exact_log_marglik", "exact_log_marglik", None, "ms", "dur", None),
    ("exact.fbar_autocov", "fbar_autocov", None, "ms", "dur", None),
    ("exact.build_toeplitz", "build_toeplitz", ("exact",), "ms", "dur", None),
    ("exact.cholesky_lower", "cholesky_lower", ("exact",), "ms", "dur", None),
    ("fourier.fourier_coeffs_longmemory", "fourier_coeffs_longmemory", None, "ms", "dur", None),
    ("fourier.fracdiff_acf", "fracdiff_acf", None, "ms", "dur", None),
    ("simulate.model_autocov", "model_autocov", None, "ms", "dur", None),
    ("simulate.simulate_series.dense", "simulate_series", None, "ms", "dur", "dense"),
    ("simulate.simulate_series.innov", "simulate_series", None, "ms", "dur", "innov"),
    ("report.spectral_bands", "spectral_bands", None, "ms", "dur", None),
    ("report.summarize", "summarize", None, "ms", "dur", None),
    # self time of the fit subcommand: artifact I/O and config handling
    ("cli.fit", "main", ("cli",), "ms", "self", None),
]

# (name, unit): values computed from observations or whole spans
SCALARS = [
    ("approx.approx_log_lik.nonfinite", "count"),
    ("accel.whittle_quadform.bytes_computed", "B"),
    ("accel.whittle_quadform.flops_computed", "flop"),
    ("mcmc.rw_accept_rate", "1"),
    ("mcmc.bd_accept_rate", "1"),
    ("smc.run_smc.self_s", "s"),
    ("smc.iterations", "count"),
    ("smc.distinct_ancestors_frac", "1"),
    ("correction.weighted", "count"),
    ("correction.unique", "count"),
    ("correction.memo_hit_frac", "1"),
    ("correction.n_failed", "count"),
    ("correction.ess_fraction", "1"),
    ("exact.sigma_bytes_computed", "B"),
    ("trace.overhead_frac", "1"),
]


def spec():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for prefix, _, _, unit, kind, _ in TIMED:
        timing = f"{prefix}.{'self_' if kind == 'self' else ''}{unit}"
        out += [(f"{prefix}.calls", "count"), (timing, unit), (f"{timing}.tail", unit)]
    return out + SCALARS


def tail(values):
    n = len(values)
    if n == 0:
        return 0.0
    for q in TAIL_LEVELS:
        if n * (1.0 - q / 100.0) >= 10:
            return float(np.percentile(values, q))
    return float(np.max(values))


class WorkerSpans:
    """Spans and observations of one worker, indexed by function and round."""

    def __init__(self, result, arrays):
        self.names = [tuple(x) for x in result["span_names"]]
        self.name = arrays["name"]
        self.dur = arrays["end"] - arrays["start"]
        self.self = arrays["self"]
        idx = np.arange(self.name.size)
        self.round = np.searchsorted(arrays["mark_start"], idx, side="right") - 1
        self.labels = arrays["mark_label"]
        self.obs = {func: np.asarray(rows, dtype=float)
                    for func, rows in result["observations"].items() if rows}

    def mask(self, func, sites=None):
        ids = [i for i, (f, site) in enumerate(self.names)
               if f == func and (sites is None or site in sites)]
        return np.isin(self.name, ids)

    def observed(self, func):
        """Observation rows of ``func`` (first column: span index)."""
        return self.obs.get(func, np.empty((0, 1)))

    def per_round(self, span_idx, weights=None):
        """Per-cycle sum: for each round label (input), the median over its
        rounds of the per-round sum, summed over labels."""
        w = np.ones(len(span_idx)) if weights is None else weights
        rounds = self.round[np.asarray(span_idx, dtype=int)]
        per = np.array([w[rounds == r].sum() for r in range(self.labels.size)])
        return float(sum(np.median(per[self.labels == lab]) for lab in np.unique(self.labels)))


def _filter_n(ws, mask, path):
    rows = ws.observed("simulate_series")
    large = rows[:, 1] > DENSE_LIMIT if rows.size else np.empty(0, bool)
    keep = rows[large == (path == "innov"), 0].astype(int)
    out = np.zeros_like(mask)
    out[keep] = True
    return mask & out


def compute(workers, overhead_frac):
    """All per-layer metrics as {name: value}, units as in ``spec()``."""
    m = {}
    for prefix, func, sites, unit, kind, path in TIMED:
        values, calls = [], 0.0
        for ws in workers:
            mask = ws.mask(func, sites)
            if path is not None:
                mask = _filter_n(ws, mask, path)
            idx = np.flatnonzero(mask)
            values.append((ws.self if kind == "self" else ws.dur)[idx])
            calls += ws.per_round(idx) if idx.size else 0.0
        values = np.concatenate(values) * SCALE[unit]
        timing = f"{prefix}.{'self_' if kind == 'self' else ''}{unit}"
        m[f"{prefix}.calls"] = calls
        m[timing] = float(np.median(values)) if values.size else 0.0
        m[f"{timing}.tail"] = tail(values)

    def rows(func):
        return [(ws, ws.observed(func)) for ws in workers if ws.observed(func).size]

    def per_round(func, col):
        return sum(ws.per_round(r[:, 0], r[:, col]) for ws, r in rows(func))

    def pooled(func):
        return np.concatenate([r for _, r in rows(func)]) if rows(func) else np.empty((0, 5))

    def ratio(num, den):
        return float(num / den) if den else 0.0

    m["approx.approx_log_lik.nonfinite"] = per_round("approx_log_lik", 1)
    wq = pooled("whittle_quadform")       # k, n - 1
    m["accel.whittle_quadform.bytes_computed"] = (
        float(np.mean(8 * (wq[:, 1] + 2) * wq[:, 2])) if wq.size else 0.0)
    m["accel.whittle_quadform.flops_computed"] = (
        float(np.mean((wq[:, 1] + 1) * wq[:, 2])) if wq.size else 0.0)
    for name, func in (("rw", "rw_metropolis_step"), ("bd", "birth_death_step")):
        acc = pooled(func)
        m[f"mcmc.{name}_accept_rate"] = ratio(acc[:, 1].sum(), len(acc))
    smc_self = np.concatenate([ws.self[ws.mask("run_smc")] for ws in workers])
    m["smc.run_smc.self_s"] = float(np.median(smc_self)) if smc_self.size else 0.0
    m["smc.iterations"] = per_round("run_smc", 1)
    res = pooled("multinomial_resample")  # distinct, N
    m["smc.distinct_ancestors_frac"] = float(np.mean(res[:, 1] / res[:, 2])) if res.size else 0.0
    cw = pooled("correction_weights")      # weighted, unique, n_failed, ess_fraction
    m["correction.weighted"] = per_round("correction_weights", 1)
    m["correction.unique"] = per_round("correction_weights", 2)
    m["correction.memo_hit_frac"] = 1.0 - ratio(cw[:, 2].sum(), cw[:, 1].sum()) if cw.size else 0.0
    m["correction.n_failed"] = per_round("correction_weights", 3)
    m["correction.ess_fraction"] = float(np.median(cw[:, 4])) if cw.size else 0.0
    ex = pooled("exact_log_marglik")
    m["exact.sigma_bytes_computed"] = float(8 * ex[:, 1].max() ** 2) if ex.size else 0.0
    m["trace.overhead_frac"] = overhead_frac
    return m
