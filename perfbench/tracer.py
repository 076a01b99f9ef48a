"""In-memory span tracer over the public functions of fexpsmc.

``Tracer.install()`` replaces every module-level binding of a public
function of fexpsmc -- in every module where the name is looked up,
such as ``approx_log_lik`` in ``smc``, ``correction`` and ``cli`` -- with a
wrapper that records one span per call: the function's canonical name,
the module the call was looked up in (its *site*), start and end times,
and the enclosing span taken from a call stack.  Self time is a span's
duration minus its direct children's.  Spans stay in compact arrays until
``spans()`` is called.  Functions are matched by name, so a function a
later change removes or bypasses simply has no spans.  Numba dispatchers
(the ``_accel`` kernels when numba is installed) are wrapped like plain
functions: every caller reaches them from Python.

Only one thread may call traced functions (the stack is not shared-safe).
"""

import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "fexpsmc"


def _defining_module(val):
    """Module that defines ``val`` if it is a plain function or a numba
    dispatcher (which keeps the Python function as ``py_func``), else None."""
    fn = getattr(val, "py_func", val)
    return fn.__module__ if isinstance(fn, types.FunctionType) else None


class Tracer:
    def __init__(self):
        self.names = []          # span-name table: (function, site)
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.observers = {}      # function name -> f(span index, args, result)
        self.marks = []          # (label, first span index)

    def _name_id(self, func, site):
        key = (func, site)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, fn, func, site):
        nid = self._name_id(func, site)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        perf = time.perf_counter
        observers = self.observers

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            observe = observers.get(func)
            if observe is not None:
                observe(idx, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def mark(self, label):
        """Label the spans recorded from now on (e.g. one measured round)."""
        self.marks.append((label, len(self._name)))

    def install(self):
        """Wrap every binding of every public package function."""
        prefix = PACKAGE + "."
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(prefix))}
        canonical = {}
        for name, mod in modules.items():
            for attr, val in vars(mod).items():
                home = _defining_module(val)
                if (home in modules and not attr.startswith("_")
                        and not hasattr(val, "__wrapped_by_tracer__")):
                    # prefer the public name in the defining module
                    if id(val) not in canonical or name == home:
                        canonical[id(val)] = attr
        for name, mod in modules.items():
            site = name[len(prefix):] if name.startswith(prefix) else name
            for attr, val in list(vars(mod).items()):
                func = canonical.get(id(val))
                if func is not None:
                    setattr(mod, attr, self._wrap(val, func, site))

    def spans(self):
        """All spans as arrays: name id, parent index, start, end, self time."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "self": dur - child}

