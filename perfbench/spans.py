"""In-memory spans and the probes that record them from outside ``src/``.

A span is ``[name, start, end, parent, request, covered]``: ``parent`` is
the index of the enclosing span (or None), ``request`` the id shared by
every span of one operation, and ``covered`` the time inside the span
that calls too frequent to record one by one (CCA callbacks) spent. A
layer's self time is a span's duration minus its children's durations
and ``covered``.

Probes wrap only public seams: the CCA instance's callbacks after
``ScenarioSpec.build`` (the host looks them up per call), a
:class:`ResultStore` subclass handed to the harness, and the bound
methods of a :class:`ServiceClient`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.store import ResultStore

_NAME, _START, _END, _PARENT, _REQUEST, _COVERED = range(6)

#: The CCA callbacks the host calls; each is timed per call.
CCA_CALLBACKS = ("on_ack", "on_send", "on_loss", "on_timeout")


class Tracer:
    """Spans kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.request,
                  0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- reading spans back ---------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> List[float]:
        """Each span's duration minus its children and covered time."""
        own = [s[_END] - s[_START] - s[_COVERED] for s in self.spans]
        for span in self.spans:
            if span[_PARENT] is not None:
                own[span[_PARENT]] -= span[_END] - span[_START]
        return own

    def self_total(self, name: str) -> float:
        return sum(t for t, s in zip(self.self_times(), self.spans)
                   if s[_NAME] == name)

    def self_by_layer(self) -> Dict[str, float]:
        """Self time summed per layer (the name's first component)."""
        layers: Dict[str, float] = defaultdict(float)
        for own, span in zip(self.self_times(), self.spans):
            layers[span[_NAME].split(".")[0]] += own
        return dict(layers)

    def nesting_errors(self) -> List[str]:
        """Spans that end outside their parent or have negative self
        time (beyond clock resolution)."""
        errors = []
        for i, (own, span) in enumerate(zip(self.self_times(), self.spans)):
            if span[_END] is None or span[_END] < span[_START]:
                errors.append(f"span {i} {span[_NAME]} is not closed")
                continue
            if own < -1e-6:
                errors.append(f"span {i} {span[_NAME]} self time {own}")
            parent = span[_PARENT]
            if parent is not None:
                outer = self.spans[parent]
                if span[_START] < outer[_START] or span[_END] > outer[_END]:
                    errors.append(f"span {i} {span[_NAME]} leaves its "
                                  f"parent {outer[_NAME]}")
        return errors

    def write(self, path: str) -> None:
        origin = self.spans[0][_START] if self.spans else 0.0
        rows = [{"name": s[_NAME], "start": s[_START] - origin,
                 "end": s[_END] - origin, "parent": s[_PARENT],
                 "request": s[_REQUEST], "covered": s[_COVERED]}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "self_by_layer": self.self_by_layer()},
                      fh)
            fh.write("\n")


class CcaProbe:
    """Per-CCA call counts and time, summed over every wrapped scenario."""

    def __init__(self) -> None:
        # name -> callback -> [calls, seconds]
        self.stats: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: {cb: [0, 0.0] for cb in CCA_CALLBACKS})

    def wrap(self, scenario: Any, cca_names: List[str]) -> None:
        """Time the callbacks of each flow's CCA instance."""
        clock = time.perf_counter
        for flow, name in zip(scenario.flows, cca_names):
            cca = flow.sender.cca
            for callback in CCA_CALLBACKS:
                slot = self.stats[name][callback]
                fn = getattr(cca, callback)

                def timed(*args, _fn=fn, _slot=slot):
                    start = clock()
                    result = _fn(*args)
                    _slot[1] += clock() - start
                    _slot[0] += 1
                    return result
                setattr(cca, callback, timed)

    def seconds(self) -> float:
        return sum(slot[1] for per_cca in self.stats.values()
                   for slot in per_cca.values())


class TracingStore(ResultStore):
    """A ResultStore that records spans and counts around its I/O."""

    def __init__(self, root: str, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        self.catalog.record = tracer.wrap("store.catalog",
                                          self.catalog.record)

    def fetch(self, key: str):
        with self.tracer.span("store.fetch"):
            found, result = super().fetch(key)
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found, result

    def put(self, key: str, result: Any, meta: Optional[Dict] = None,
            task: str = "") -> str:
        with self.tracer.span("store.put"):
            return super().put(key, result, meta=meta, task=task)
