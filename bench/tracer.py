"""Span recording for the traced benchmark run, applied from outside.

``Tracer.install`` replaces every public function of the ``treematch``
modules, at every module that imported it, with a wrapper that records a
span, plus the few methods named in ``METHODS``; ``uninstall`` puts the
originals back.  The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# Methods whose cost the per-layer table needs; "__init__" spans are
# named after the class.
METHODS = (
    ("treematch.graph", "WeightedGraph", "__init__"),
    ("treematch.matroid", "GraphicMatroid", "prepare"),
    ("treematch.matroid", "PartitionMatroid", "prepare"),
)

# Argument parsing stays in cli.main's self time.
SKIP = {"treematch.cli.build_parser"}

# Counters taken from return values: span name -> (counter, amount).
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "pmst.greedy_augment": ("pmst.added_edges", lambda res: len(res.added_edges)),
    "oracle.enumerate_spanning_trees": ("oracle.trees_enumerated", int),
}


class Tracer:
    """Keeps spans in memory as ``[name, start, end, parent, instance]``;
    ``parent`` is the index of the enclosing span, or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package: str = "treematch") -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                qualified = f"{obj.__module__}.{obj.__qualname__}"
                if not obj.__module__.startswith(package + ".") or qualified in SKIP:
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                self._patch(mod, attr, wrappers[id(obj)])
        for module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            name = f"{module.rsplit('.', 1)[-1]}.{cls_name}"
            if method != "__init__":
                name += f".{method}"
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Per span name: summed self time in seconds, and call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        """One CSV line per span: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,instance\n")
            for name, start, end, parent, inst in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{inst}\n")
