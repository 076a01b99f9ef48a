"""Flat dotted-key configuration documents.

Grammar (one entry per line)::

    # comment
    section.key = value

Values are parsed as, in order: booleans ``true``/``false``, integers,
floats, comma-separated float lists, and otherwise verbatim strings.
Unknown keys are rejected -- a misspelt key is a configuration error, not
a silent default.  The same format serialises the diagnostic and summary
documents so that every artifact of a run round-trips through one parser.

:class:`RunConfig` types a document.  PriorConfig, SmcConfig, SimConfig,
McmcConfig and CorrectionConfig own the defaults and range checks of the
``prior.*``, ``smc.*``, ``model.*``, ``mcmc.*`` and ``correction.*`` keys,
``_DEFAULTS`` those of the ``data.*`` and ``report.*`` keys that only the CLI
reads, and one type rule covers them all.
"""

import dataclasses
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

#: the largest report.grid_points and report.bins: the bands step holds a
#: (particles x grid_points) array and its temporaries, and hist.csv has one
#: row per bin
REPORT_LIMIT = 10_000

#: key -> (default, type, range check or None); a default of None makes it optional
_DEFAULTS = {
    "data.path": (None, str, None),
    "data.scale_by": (1.0, float, lambda x: x != 0),
    "report.grid_points": (200, int, lambda x: 2 <= x <= REPORT_LIMIT),
    "report.grid_min": (1e-3, float, lambda x: 0 < x < math.pi),
    "report.bins": (40, int, lambda x: 1 <= x <= REPORT_LIMIT),
}


def _sections():
    """The section classes by key prefix (imported here: their modules import this one)."""
    from .correction import CorrectionConfig
    from .mcmc import McmcConfig
    from .model import PriorConfig
    from .simulate import SimConfig
    from .smc import SmcConfig
    return {"prior": PriorConfig, "smc": SmcConfig, "model": SimConfig,
            "mcmc": McmcConfig, "correction": CorrectionConfig}


def _keys():
    """Every key -> (default, type, check); a section's class checks its ranges."""
    keys = dict(_DEFAULTS)
    for name, cls in _sections().items():
        for f in dataclasses.fields(cls):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            keys[f"{name}.{f.name}"] = (default, f.type, None)
    return keys


_WANT = {float: "a finite number", int: "an integer", bool: "true or false",
         str: "a string", np.ndarray: "a list of finite numbers"}


def _is_float(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _typed(key, value, kind):
    """The type rule: a bool is not a number, a float (also in a coefficient
    list) is finite, an int is an int.  A list comes back as a list of floats."""
    if kind is np.ndarray:
        if isinstance(value, str) and not value:
            value = []  # a serialised empty list reads back as an empty string
        value = [value] if _is_float(value) else value
        ok = isinstance(value, (list, tuple, np.ndarray)) and all(map(_is_float, value))
    elif kind is float:
        ok = _is_float(value)
    else:  # bool subclasses int, but true is not an integer
        ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"invalid value: {key} must be {_WANT[kind]}, got {value!r}")
    return [float(v) for v in value] if kind is np.ndarray else value


class RunConfig:
    """Validated, typed view over a flat config mapping with defaults."""

    def __init__(self, mapping=None):
        mapping = dict(mapping or {})
        self._keys = _keys()
        unknown = sorted(set(mapping) - set(self._keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values = {key: default for key, (default, _, _) in self._keys.items()}
        self.values.update(mapping)
        self._validate()

    def _validate(self):
        v = self.values
        for key, (default, kind, check) in self._keys.items():
            if v[key] is None and default is None:
                continue  # an optional key left unset
            v[key] = _typed(key, v[key], kind)
            if check is not None and not check(v[key]):
                raise ConfigError(f"invalid value: {key} = {v[key]!r} is out of range")
        if v["mcmc.fix_k"] is not None and v["mcmc.fix_k"] > v["prior.k_max"]:
            raise ConfigError(f"mcmc.fix_k = {v['mcmc.fix_k']} exceeds "
                              f"prior.k_max = {v['prior.k_max']}")
        for name in _sections():
            self.section(name)

    def section(self, name):
        """The keys of one prefix as its section object (``"prior"`` gives a
        PriorConfig, ...); a value the class refuses is a ConfigError naming the key."""
        cls = _sections()[name]
        kwargs = {f.name: self.values[f"{name}.{f.name}"] for f in dataclasses.fields(cls)}
        try:
            return cls(**kwargs)
        except ValueError as err:
            raise ConfigError(f"invalid value: {name}.{err}") from None

    def __getitem__(self, key):
        return self.values[key]

    def override(self, key, value):
        if key not in self._keys:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value
        self._validate()
