"""Span tracing of dshuffle's public functions, installed from outside the
package.

Each traced function is replaced by a wrapper at every binding a caller
uses: the defining module's global, every other dshuffle module that
imported the name directly (``relations.kernel`` and ``periodpoly.kernel``
are separate bindings of ``linalg.kernel``), the package namespace, and the
class attribute for ``Mat`` methods.  Functions that import a name at call
time (``lie.ds_solve`` imports ``kernel``) read the patched module attribute.

Every wrapped call appends one span (job, name, start, end, parent) to an
in-memory list; ``summary`` turns the list into per-name counts and times
once the pass is over, and ``write`` dumps it as TSV.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# Work counted at the call: cells of the matrix handed to rref.
CELLS = {"linalg.Mat.rref": lambda m: m.nrows * m.ncols}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.cells: list = []
        self.originals: dict = {}
        self.job = -1
        self._stack: list = []
        self._open: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.cells.append(0)
        self._open.append(0)
        spans, stack, opened, cells = self.spans, self._stack, self._open, self.cells
        work = CELLS.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            outer = not opened[nid]
            opened[nid] += 1
            if work is not None:
                cells[nid] += work(*args)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                opened[nid] -= 1
                stack.pop()
                spans[i] = (self.job, nid, t0, t1, parent, outer)

        return traced

    def install(self, names) -> None:
        """Wrap each named function at each of its bindings in the loaded
        package.  A name is layer.function, linalg.Mat.method, or
        numzeta.mpmath_zeta for the mpmath module's zeta, which numzeta calls
        as mp.zeta."""
        import mpmath
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dshuffle" or n.startswith("dshuffle."))]
        for name in names:
            layer, *path = name.split(".")
            if name == "numzeta.mpmath_zeta":
                owner, attr = mpmath, "zeta"
            elif path[0] == "Mat":
                owner = sys.modules["dshuffle.linalg"].Mat
                attr = "__matmul__" if path[1] == "matmul" else path[1]
            else:
                owner, attr = sys.modules[f"dshuffle.{layer}"], path[0]
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self.originals[name] = original
            setattr(owner, attr, wrapper)
            if isinstance(owner, type) or owner is mpmath:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def hit_ratios(self) -> dict:
        """hits / (hits + misses) of each traced cached function; 0 when unused."""
        out = {}
        for name, original in self.originals.items():
            if not hasattr(original, "cache_info"):
                continue
            info = original.cache_info()
            lookups = info.hits + info.misses
            out[name] = info.hits / lookups if lookups else 0.0
        return out

    def summary(self) -> dict:
        """Per traced name: calls, cells, busy_s (inclusive, outermost spans
        only, so recursion is not counted twice) and self_s (span minus the
        child spans it covers)."""
        n = len(self.names)
        calls, busy, own = [0] * n, [0] * n, [0] * n
        child = [0] * len(self.spans)
        for _, nid, t0, t1, parent, outer in self.spans:
            d = t1 - t0
            calls[nid] += 1
            if outer:
                busy[nid] += d
            if parent >= 0:
                child[parent] += d
        for i, (_, nid, t0, t1, _, _) in enumerate(self.spans):
            own[nid] += t1 - t0 - child[i]
        return {name: {"calls": calls[i], "cells": self.cells[i],
                       "busy_s": busy[i] / 1e9, "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tjob\tname\tstart_ns\tend_ns\tparent\n")
            for i, (job, nid, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{job}\t{self.names[nid]}\t{t0}\t{t1}\t{parent}\n")
