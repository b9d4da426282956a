"""Span tracing from outside the program, and the per-layer breakdown.

The traced run wraps the *public* entry points of each Figure-2 layer
(see :data:`WRAPPED`) with a recorder installed from this file only; the
program under test is not modified.  Each wrapped call becomes one span:
name, tag (the host for ``Network.send``, the app for
``Application.handle``), start, end, parent span and request id, kept in
per-thread lists in memory and written out as JSON when the run ends.

A span's self time is its duration minus the durations of its child
spans (children nest strictly inside their parent on one thread), so the
self times of all spans under a request's root span add up exactly to
the root's duration: the layers account for the traced request time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.alerting.engine import AlarmEngine
from repro.core.contracts import ContractGenerator, MethodContract
from repro.core.fleet import MonitorFleet
from repro.core.monitor import CloudMonitor, CloudStateProvider
from repro.core.probecache import ProbeCache
from repro.httpsim.app import Application
from repro.httpsim.network import Network
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.tracing import Tracer

ROOT = "client.request"


def _request_host(args: tuple) -> str:
    return args[1].host


def _app_name(args: tuple) -> str:
    return args[0].name


#: ``(class, method, layer, tag function)`` for every wrapped entry point.
#: ``Application.handle`` is layer ``None``: the cloud's apps belong to
#: ``cloud``, the monitor's own app (routing and middleware) to
#: ``httpsim``; :func:`layer_of` decides by the tag.
WRAPPED: Tuple[Tuple[type, str, Optional[str],
                     Optional[Callable[[tuple], str]]], ...] = (
    (Network, "send", "httpsim", _request_host),
    (Application, "handle", None, _app_name),
    (MonitorFleet, "handle", "fleet", None),
    (CloudMonitor, "monitor_request", "monitor", None),
    (CloudStateProvider, "context", "provider", None),
    (MethodContract, "check_pre", "contracts", None),
    (MethodContract, "applicable_cases", "contracts", None),
    (MethodContract, "snapshot", "contracts", None),
    (MethodContract, "check_post", "contracts", None),
    (ProbeCache, "get", "probecache", None),
    (ProbeCache, "put", "probecache", None),
    (ProbeCache, "invalidate", "probecache", None),
    (MetricsRegistry, "counter", "obs", None),
    (MetricsRegistry, "gauge", "obs", None),
    (MetricsRegistry, "histogram", "obs", None),
    (Tracer, "finish", "obs", None),
    (SLOEngine, "snapshot", "obs", None),
    (EventLog, "emit", "obs", None),
    (AlarmEngine, "evaluate", "alerting", None),
    (ContractGenerator, "all_contracts", "config", None),
)

#: Runtime layers in Figure-2 order, as printed in the breakdown table.
LAYERS = ("httpsim", "fleet", "monitor", "provider", "probecache",
          "contracts", "cloud", "obs", "alerting")

_LAYER_BY_SPAN = {f"{cls.__name__}.{method}": layer
                  for cls, method, layer, _ in WRAPPED}
_LAYER_BY_SPAN[ROOT] = "httpsim"


class _ThreadState:
    __slots__ = ("spans", "parent", "request", "active")

    def __init__(self):
        #: Rows ``[name, tag, start, end, parent index, request id]``.
        self.spans: List[list] = []
        self.parent = -1
        self.request = -1
        self.active = False


class Recorder:
    """Collects spans from the wrapped entry points, one list per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: ``next()`` on a count is atomic, so client threads share it
        #: without a lock.
        self._request_ids = itertools.count()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, function: Callable,
                 tag_of: Optional[Callable[[tuple], str]]) -> Callable:
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None or not state.active:
                return function(*args, **kwargs)
            spans = state.spans
            parent = state.parent
            row = [name, tag_of(args) if tag_of is not None else None,
                   0.0, 0.0, parent, state.request]
            state.parent = len(spans)
            spans.append(row)
            row[2] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                row[3] = clock()
                state.parent = parent

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Wrap every entry point in :data:`WRAPPED` inside this block."""
        originals = []
        try:
            for cls, method, _, tag_of in WRAPPED:
                original = cls.__dict__[method]
                originals.append((cls, method, original))
                setattr(cls, method, self._wrapper(
                    f"{cls.__name__}.{method}", original, tag_of))
            yield self
        finally:
            for cls, method, original in originals:
                setattr(cls, method, original)

    # -- scoping -----------------------------------------------------------

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Record the calling thread's wrapped calls inside this block."""
        state = self._state()
        state.active = True
        try:
            yield
        finally:
            state.active = False

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Do not record inside this block (the direct twin's requests)."""
        state = self._state()
        was, state.active = state.active, False
        try:
            yield
        finally:
            state.active = was

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The root span of one monitored request (``client.request``)."""
        state = self._state()
        state.request = next(self._request_ids)
        row = [ROOT, None, 0.0, 0.0, -1, state.request]
        state.parent = len(state.spans)
        state.spans.append(row)
        row[2] = time.perf_counter()
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            state.parent = -1
            state.request = -1

    def rows(self) -> List[list]:
        """Every span of every thread, parents re-indexed into one list."""
        merged: List[list] = []
        for state in self._states:
            offset = len(merged)
            for name, tag, start, end, parent, request in state.spans:
                merged.append([name, tag, start, end,
                               parent + offset if parent >= 0 else -1,
                               request])
        return merged

    def clear(self) -> None:
        for state in self._states:
            state.spans.clear()


def layer_of(name: str, tag: Optional[str], monitor_apps: frozenset) -> str:
    """The layer a span's self time belongs to."""
    if name == "Application.handle":
        return "httpsim" if tag in monitor_apps else "cloud"
    return _LAYER_BY_SPAN[name]


class Breakdown:
    """Per-span and per-layer totals over one traced phase."""

    def __init__(self, rows: List[list], monitor_apps: frozenset):
        self.rows = rows
        count = len(rows)
        durations = [row[3] - row[2] for row in rows]
        children = [0.0] * count
        in_context = [False] * count
        for index, row in enumerate(rows):
            parent = row[4]
            if parent >= 0:
                children[parent] += durations[index]
                in_context[index] = (
                    in_context[parent]
                    or rows[parent][0] == "CloudStateProvider.context")
        self.self_times = [durations[i] - children[i] for i in range(count)]
        self.requests = sum(1 for row in rows if row[0] == ROOT)
        self.root_total = sum(durations[i] for i in range(count)
                              if rows[i][0] == ROOT)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.probe_sends = 0
        self.keystone_probe_sends = 0
        self.forward_sends = 0
        for index, row in enumerate(rows):
            name, tag = row[0], row[1]
            key = (f"{name}[cloud]" if name == "Application.handle"
                   and tag not in monitor_apps else name)
            self.calls[key] += 1
            self.inclusive[key] += durations[index]
            self.exclusive[key] += self.self_times[index]
            self.layer_self[layer_of(name, tag, monitor_apps)] += \
                self.self_times[index]
            if name == "Network.send":
                if in_context[index]:
                    self.probe_sends += 1
                    if tag == "keystone":
                        self.keystone_probe_sends += 1
                elif (row[4] >= 0 and rows[row[4]][0]
                      == "CloudMonitor.monitor_request"):
                    self.forward_sends += 1

    def per_request_us(self, key: str, exclusive: bool = False) -> float:
        table = self.exclusive if exclusive else self.inclusive
        return table.get(key, 0.0) * 1e6 / self.requests

    def unaccounted_share(self) -> float:
        """|sum of layer self times - sum of root times| / root times.

        Zero up to rounding, because child spans nest in their parents.
        """
        total = sum(self.layer_self.values())
        return abs(total - self.root_total) / self.root_total

    def table(self) -> List[str]:
        """The per-layer self-time table, one line per layer."""
        lines = [f"{'layer':<12}{'self us/req':>14}{'share':>9}"]
        for layer in LAYERS:
            value = self.layer_self[layer] * 1e6 / self.requests
            lines.append(f"{layer:<12}{value:>14.1f}"
                         f"{self.layer_self[layer] / self.root_total:>9.1%}")
        total = sum(self.layer_self.values()) * 1e6 / self.requests
        lines.append(f"{'sum':<12}{total:>14.1f}"
                     f"{'':>9}  (traced request "
                     f"{self.root_total * 1e6 / self.requests:.1f} us/req, "
                     f"{self.requests} requests)")
        return lines

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write every span (with its self time) and the totals as JSON.

        Span rows are ``[name id, tag, start, end, parent, request, self]``
        with times in microseconds from the phase's first span.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted({row[0] for row in self.rows})
        name_ids = {name: index for index, name in enumerate(names)}
        origin = min((row[2] for row in self.rows), default=0.0)
        document = dict(header)
        document["span_names"] = names
        document["span_fields"] = ["name", "tag", "start_us", "end_us",
                                   "parent", "request", "self_us"]
        document["spans"] = [
            [name_ids[name], tag, round((start - origin) * 1e6, 3),
             round((end - origin) * 1e6, 3), parent, request,
             round(self.self_times[index] * 1e6, 3)]
            for index, (name, tag, start, end, parent, request)
            in enumerate(self.rows)]
        document["layers_self_us_per_request"] = {
            layer: value * 1e6 / self.requests
            for layer, value in self.layer_self.items()}
        document["spans_by_name"] = {
            key: {"calls": self.calls[key],
                  "inclusive_us": self.inclusive[key] * 1e6,
                  "self_us": self.exclusive[key] * 1e6}
            for key in sorted(self.calls)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
