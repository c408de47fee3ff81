"""Outside tracer: spans around calls into euciso, installed from here.

The package itself is not instrumented.  `Tracer.install` wraps every
public module-level function of every euciso module and rebinds the
wrapper under each name, in each euciso module namespace, that held the
original.  Rebinding only the defining module would miss calls through
copies such as `from .groups import normal_form` in `fourier`,
`splitting` and `verify`.  `QuotientGroup.mul` and `inv` are wrapped at
class level with a call counter only: `mul` runs over a million times per
`dual-twistE8` pass and a span each would dominate what it measures.
`QuotientGroup.mult_table` gets a span under the name `groups.mult_table`.

Spans stay in memory as parallel arrays (name, parent, start, end) and are
written out by `save`.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

import euciso
from euciso import groups

# result sizes recorded next to a span: span name -> (attribute, measure)
RESULT_SIZES = {
    "reps.irreps": ("classes", len),
    "dual.enumerate_dual": ("labels", lambda atlas: len(atlas.labels)),
    "io.canonical_json": ("bytes", len),
}
COUNTED_METHODS = ("mul", "inv")


def euciso_modules() -> list:
    return [importlib.import_module(f"euciso.{info.name}")
            for info in pkgutil.iter_modules(euciso.__path__)]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter({f"groups.QuotientGroup.{m}": 0 for m in COUNTED_METHODS})
        self.sizes = Counter({f"{span}.{attr}": 0 for span, (attr, _) in RESULT_SIZES.items()})
        self.sizes["groups.mult_table.order"] = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        size = RESULT_SIZES.get(name)
        sizes = self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[f"{name}.{size[0]}"] += size[1](result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = euciso_modules()
        wrapped = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    short = module.__name__.removeprefix("euciso.")
                    wrapped[obj] = self._span(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, attr, wrapped[obj])

        cls = groups.QuotientGroup
        for method in COUNTED_METHODS:
            self._rebind(cls, method,
                         self._counter(f"groups.QuotientGroup.{method}", getattr(cls, method)))
        table_span = self._span("groups.mult_table", cls.mult_table)
        sizes = self.sizes

        @functools.wraps(cls.mult_table)
        def mult_table(q):
            if q._table is None:
                sizes["groups.mult_table.order"] += q.order
            return table_span(q)

        self._rebind(cls, "mult_table", mult_table)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def metrics(self) -> dict[str, float]:
        """Flat per-layer values.

        `<span>.calls` and `<span>.self_s` for every wrapped function,
        `<module>.self_s` summed over that module's spans, `.calls` of the
        counted methods, result sizes such as `reps.irreps.classes`, and
        `top_level_s`, the time inside spans that have no parent span.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        width = len(self.names)
        calls = np.bincount(a["name"], minlength=width)
        self_s = np.bincount(a["name"], weights=duration - child_time, minlength=width)
        out: dict[str, float] = {"top_level_s": float(duration[~has_parent].sum())}
        for i, name in enumerate(self.names):
            module_total = f"{name.split('.')[0]}.self_s"
            out[module_total] = out.get(module_total, 0.0) + float(self_s[i])
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update((f"{name}.calls", n) for name, n in self.counts.items())
        out.update(self.sizes)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
