"""Flat dotted-key configuration documents.

Grammar (one entry per line)::

    # comment
    section.key = value

Values are parsed as, in order: booleans ``true``/``false``, integers,
floats, comma-separated float lists, and otherwise verbatim strings.
Unknown keys are rejected -- a misspelt key is a configuration error, not
a silent default.  The same format serialises the diagnostic and summary
documents so that every artifact of a run round-trips through one parser.
"""

import math

import numpy as np

__all__ = ["ConfigError", "DataError", "NumericalError", "parse_config", "load_config",
           "format_value", "dump_document", "RunConfig"]


class ConfigError(ValueError):
    """Invalid configuration: bad key, type, or value (CLI exit code 2)."""


class DataError(ValueError):
    """Unreadable or malformed input data (CLI exit code 3)."""


class NumericalError(ArithmeticError):
    """Numerical failure such as a Cholesky breakdown (CLI exit code 4)."""


def _parse_value(text):
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        try:
            return [float(part) for part in text.split(",")]
        except ValueError:
            pass
    return text


def parse_config(text, source="<config>"):
    """Parse a config document into an ordered {key: value} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}: line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text, source=str(path))


def format_value(value):
    """Serialise a value in the same grammar the parser accepts."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def dump_document(entries):
    """Serialise {key: value} (or (key, value) pairs) to config-grammar text."""
    items = entries.items() if hasattr(entries, "items") else entries
    return "".join(f"{k} = {format_value(v)}\n" for k, v in items)


# ---------------------------------------------------------------------------
# Typed run configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "data.path": None,
    "data.scale_by": 1.0,
    "model.kind": "fracnoise",
    "model.n": 1000,
    "model.d": 0.2,
    "model.sigma2": 1.0,
    "model.mu": 0.0,
    "model.xi": [],
    "model.phi": [],
    "model.theta_ma": [],
    "prior.geom_p": 0.2,
    "prior.xi_var0": 100.0,
    "prior.beta": 1.0,
    "prior.a": 0.5,
    "prior.b": 0.5,
    "prior.g_mu": 0.1,
    "prior.m_mu": 0.0,
    "prior.k_max": 50,
    "smc.N": 1000,
    "smc.M": 20,
    "smc.c": 0.5,
    "smc.seed": 0,
    "smc.mode": "whittle",
    "correction.enabled": True,
    "correction.subsample": None,
    "correction.threads": 1,
    "correction.seed": 0,
    "correction.force_large_n": False,
    "mcmc.steps": 10000,
    "mcmc.tau": 0.015,
    "mcmc.thin": 1,
    "mcmc.gamma": 1.0,
    "mcmc.fix_k": None,
    "report.grid_points": 200,
    "report.grid_min": 1e-3,
    "report.bins": 40,
}

#: optional integer keys and the smallest value each accepts
_OPTIONAL_INTS = {"correction.subsample": 1, "mcmc.fix_k": 0}


class RunConfig:
    """Validated, typed view over a flat config mapping with defaults."""

    def __init__(self, mapping=None):
        mapping = dict(mapping or {})
        unknown = sorted(set(mapping) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values = dict(_DEFAULTS)
        self.values.update(mapping)
        self._validate()

    def _validate(self):
        v = self.values
        checks = [
            ("data.scale_by", lambda x: isinstance(x, (int, float)) and x != 0),
            ("model.n", lambda x: isinstance(x, int) and x >= 1),
            ("model.d", lambda x: isinstance(x, (int, float)) and 0.0 <= x < 0.5),
            ("model.sigma2", lambda x: isinstance(x, (int, float)) and x > 0),
            ("prior.geom_p", lambda x: isinstance(x, (int, float)) and 0 < x < 1),
            ("prior.xi_var0", lambda x: isinstance(x, (int, float)) and x > 0),
            ("prior.a", lambda x: isinstance(x, (int, float)) and x > 0),
            ("prior.b", lambda x: isinstance(x, (int, float)) and x > 0),
            ("prior.g_mu", lambda x: isinstance(x, (int, float)) and x > 0),
            ("prior.k_max", lambda x: isinstance(x, int) and x >= 0),
            ("smc.N", lambda x: isinstance(x, int) and x >= 2),
            ("smc.M", lambda x: isinstance(x, int) and x >= 0),
            ("smc.c", lambda x: isinstance(x, (int, float)) and 0 < x < 1),
            ("smc.mode", lambda x: x in ("whittle", "toeplitz")),
            ("correction.threads", lambda x: isinstance(x, int) and x >= 1),
            ("mcmc.steps", lambda x: isinstance(x, int) and x >= 1),
            ("mcmc.tau", lambda x: isinstance(x, (int, float)) and x > 0),
            ("mcmc.thin", lambda x: isinstance(x, int) and x >= 1),
            ("mcmc.gamma", lambda x: isinstance(x, (int, float)) and 0 <= x <= 1),
            ("report.grid_points", lambda x: isinstance(x, int) and x >= 2),
            ("report.grid_min", lambda x: isinstance(x, (int, float)) and 0 < x < math.pi),
            ("report.bins", lambda x: isinstance(x, int) and x >= 1),
        ]
        for key, ok in checks:
            if not ok(v[key]):
                raise ConfigError(f"invalid value for {key}: {v[key]!r}")
        for key, low in _OPTIONAL_INTS.items():
            val = v[key]
            if val is not None and not (isinstance(val, int) and val >= low):
                raise ConfigError(f"invalid value for {key}: {val!r}")
        if v["mcmc.fix_k"] is not None and v["mcmc.fix_k"] > v["prior.k_max"]:
            raise ConfigError(f"mcmc.fix_k = {v['mcmc.fix_k']} exceeds "
                              f"prior.k_max = {v['prior.k_max']}")
        for key in ("model.xi", "model.phi", "model.theta_ma"):
            val = v[key]
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                v[key] = [float(val)]
            elif val == "":
                v[key] = []  # serialised empty list reads back as an empty string
            elif not isinstance(val, list):
                raise ConfigError(f"invalid value for {key}: {val!r}")

    def __getitem__(self, key):
        return self.values[key]

    def override(self, key, value):
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value
        self._validate()
