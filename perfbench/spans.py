"""In-memory span recording around the public functions of each genbounds module.

Each public function is replaced, at every module attribute that holds it, by
a wrapper that records ``(name, start, end, parent)``.  The modules import
names from one another directly, so a function is patched at the name each
caller looks it up by, not only in the module that defines it.  Nothing in
the package itself is changed; :meth:`Tracer.uninstall` restores the
originals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

#: The package modules, one layer each.
LAYERS = ("problems", "posteriors", "divergences", "losses", "bounds", "harness", "cli")

#: Constructors traced as spans of their own: (module, class).
TRACED_CONSTRUCTORS = (("divergences", "DiscreteDist"), ("bounds", "BoundRequest"))

class Tracer:
    """Records spans while installed; spans stay in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # placeholder keeps span order = start order
        self._stack.append(index)
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def _wrap_function(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, index, parent, start)

        return traced

    def _wrap_generator(self, name: str, fn):
        """Each ``next`` is one span, so the span count is the count of items produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index, parent = self._enter()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    self._stack.pop()
                    self.spans.pop()
                    return
                except BaseException:
                    self._exit(name, index, parent, start)
                    raise
                self._exit(name, index, parent, start)
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, modules, original, replacement) -> None:
        """Replace ``original`` at every module attribute that is bound to it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("genbounds")
        modules = [package] + [importlib.import_module(f"genbounds.{m}") for m in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"genbounds.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(name, fn)
                else:
                    wrapper = self._wrap_function(name, fn)
                self._patch(modules, fn, wrapper)
        for layer, cls_name in TRACED_CONSTRUCTORS:
            cls = getattr(importlib.import_module(f"genbounds.{layer}"), cls_name)
            original = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self._wrap_function(f"{layer}.{cls_name}", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction and output ----------------------------------------------

    def take(self) -> list[tuple[str, float, float, int]]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken, self.spans = self.spans, []
        return taken


def summarize(recorded: list[tuple[str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus its child spans' durations; the spans
    of one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for _name, start, end, parent in recorded:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(recorded):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return out


def write(path, rounds: list[tuple[int, list[tuple[str, float, float, int]]]]) -> int:
    """Write spans as gzipped CSV rows ``round,name,start,end,parent``; returns the count."""
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("round,name,start,end,parent\n")
        for round_index, recorded in rounds:
            for name, start, end, parent in recorded:
                fh.write(f"{round_index},{name},{start!r},{end!r},{parent}\n")
            count += len(recorded)
    return count
