"""Outside-in per-layer tracer for the ``tropocone`` package.

It wraps every public module-level function of every loaded
``tropocone.*`` module and swaps the wrapper in under every name that
holds the function in any of those modules: ``from .intlinalg import
smith_normal_form`` binds a second name, and patching only the defining
module would miss the calls made through it.  Each call is one span; a
function's self time is its spans' time minus the time of the wrapped
spans nested in them.  The library itself is not modified.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
import sys
import time
import types
from contextlib import contextmanager

# O(1) vector helpers: called in the innermost loops, too cheap to time
UNWRAPPED = frozenset({"dot", "vadd", "vsub", "vscale", "primitive",
                       "is_zero_vec", "gcd_vector", "sign_normalized"})


def load_package():
    """Import ``tropocone`` and every submodule; return the modules."""
    pkg = importlib.import_module("tropocone")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"tropocone.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "tropocone" or name.startswith("tropocone.")]


def _short(module_name):
    return module_name.rpartition(".")[2]


def _frozen(x):
    """A hashable copy of a nested list/tuple of integers."""
    if isinstance(x, (list, tuple)):
        return tuple(_frozen(y) for y in x)
    return x


class Tracer:
    """Per-function call counts and self times, plus a few layer counters
    (SNF input sizes, distinct double-description inputs, JSON bytes)."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.snf_cells = 0
        self.snf_max_cells = 0
        self.dd_inputs = set()
        self.bytes_read = 0
        self.bytes_written = 0
        self.functions = 0
        self._child = []      # per open span: time spent in nested spans
        self._bindings = []   # (module, name, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self, modules):
        targets = {}
        for m in modules:
            for name, obj in vars(m).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == m.__name__
                        and obj.__name__ == name
                        and not name.startswith("_")
                        and name not in UNWRAPPED):
                    targets[id(obj)] = (obj, f"{_short(m.__name__)}.{name}")
        wrappers = {k: self._wrap(fn, key) for k, (fn, key)
                    in targets.items()}
        for m in modules:
            for name, obj in list(vars(m).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._bindings.append((m, name, obj, w))
        self.functions = len(targets)
        self._bind(wrapped=True)

    def _bind(self, wrapped):
        for m, name, orig, wrapper in self._bindings:
            setattr(m, name, wrapper if wrapped else orig)

    @contextmanager
    def suspended(self):
        """Run the benchmark's own use of the library untraced."""
        self._bind(wrapped=False)
        try:
            yield
        finally:
            self._bind(wrapped=True)

    def _wrap(self, fn, key):
        hook = key.replace(".", "_")
        probe = getattr(self, "_probe_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        child = self._child
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        calls[key] = 0
        self_s[key] = 0.0

        def wrapper(*args, **kwargs):
            if probe is not None:
                args = probe(args)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = child.pop()
                calls[key] += 1
                self_s[key] += dt - nested
                if child:
                    child[-1] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- layer counters (each sees the positional arguments) ---------------

    def _probe_intlinalg_smith_normal_form(self, args):
        cells = args[0].rows * args[0].cols
        self.snf_cells += cells
        self.snf_max_cells = max(self.snf_max_cells, cells)
        return args

    def _probe_cone_dual_generators(self, args):
        normals = list(args[0])
        key = repr((_frozen(normals), args[1])).encode()
        self.dd_inputs.add(hashlib.blake2b(key, digest_size=8).hexdigest())
        return (normals,) + tuple(args[1:])

    def _after_io_json_dumps(self, text):
        self.bytes_written += len(text.encode())

    def _probe_io_json_loads(self, args):
        text = args[0]
        self.bytes_read += len(text.encode() if isinstance(text, str)
                               else text)
        return args

    # -- report --------------------------------------------------------------

    def report(self):
        """Plain counters, summable across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "snf_cells": self.snf_cells,
                "snf_max_cells": self.snf_max_cells,
                "dd_inputs": sorted(self.dd_inputs),
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "functions": self.functions,
                "bindings": len(self._bindings)}
