"""Spans around calls into ``stackbrauer``'s public functions.

:class:`Tracer` replaces each traced function, in its own module and in every
module that imported it by name, with a wrapper that records a span
``(name, start, end, parent, op)``.  Spans are kept in memory and written out
once at the end.  A layer's self time is the time inside its spans minus the
time inside their child spans.  Functions that no longer exist are skipped,
so later versions of the library can be traced by the same code.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("abelian", "rootdata", "covers", "brauer", "cli")

#: Extra public names that are not plain functions in a module's ``__all__``.
EXTRA = {"abelian": ("unimodular_inverse", "FiniteAbelianGroup.from_cyclic_moduli")}


@dataclass
class Tracer:
    """Records spans while installed; a disabled tracer records nothing."""

    enabled: bool = True
    spans: list = field(default_factory=list)
    op: int = -1
    counters: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, probe):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, probes: dict) -> None:
        """Wrap every public function of the layer modules.

        ``probes`` maps a span name to ``probe(counters, args, result)``,
        run after the span closes to take counts from returned values.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stackbrauer" or n.startswith("stackbrauer."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"stackbrauer.{layer}")
            if mod is None:
                continue
            names = [n for n in getattr(mod, "__all__", ())
                     if callable(getattr(mod, n, None)) and not isinstance(getattr(mod, n), type)]
            for name in names + list(EXTRA.get(layer, ())):
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                span_name = f"{layer}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__, probes.get(span_name)))
                    self._patch(owner, attr, raw, wrapped)
                    continue
                wrapped = self._wrap(span_name, raw, probes.get(span_name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, key, raw, wrapped)

    def _patch(self, target, key, old, new) -> None:
        setattr(target, key, new)
        self._patches.append((target, key, old))

    def uninstall(self) -> None:
        for target, key, old in reversed(self._patches):
            setattr(target, key, old)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Names without spans read as zero.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, op in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, op])
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "op"],
                       "names": list(names), "spans": rows}, fh, separators=(",", ":"))
