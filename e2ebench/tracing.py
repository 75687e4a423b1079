"""Outside-in layer tracing: spans recorded around the stack's entry points.

:class:`SpanRecorder` patches public entry points of ``repro`` (class
methods and the wire codec functions the HTTP ends import by name) with
wrappers that record one span per call: an id, the parent span on the
same thread, the layer, the entry point, the thread, and start/end
``perf_counter_ns`` stamps. Spans stay in memory until the run writes
them out. Nothing under ``src/`` changes, and :meth:`uninstall` restores
every patched attribute, so timed (untraced) phases run the program
exactly as shipped.

A layer's self time is the sum over its spans of the span's duration
minus its child spans' durations (children run on the same thread,
nested inside the parent, so their durations never overlap).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps

import repro.api.client as client_module
import repro.serving.transport as transport_module
from repro.api.client import HttpClient
from repro.api.session import Session
from repro.api.wire import (
    BatchRequest,
    BatchResponse,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
)
from repro.costfuncs.fitting import CostFunctionFitter
from repro.feedback.recalibrator import FeedbackRecalibrator
from repro.optimizer.optimizer import Optimizer
from repro.sampling.estimator import SelectivityEstimator
from repro.service.service import PredictionService
from repro.serving.admission import AdmissionGate
from repro.serving.app import SessionApp

#: (owner, attribute, layer) for every traced entry point. Layers take
#: the ``src/repro`` module names; ``client`` is the caller's side of
#: the HTTP round trip, from which transport time is derived.
_METHODS = (
    (Session, "predict", "api.session"),
    (Session, "predict_batch", "api.session"),
    (Session, "observe", "api.session"),
    (PredictionService, "plan", "service"),
    (PredictionService, "prepare", "service"),
    (PredictionService, "predict_query", "service"),
    (PredictionService, "predict_batch", "service"),
    (Optimizer, "plan_sql", "optimizer"),
    (SelectivityEstimator, "estimate", "sampling"),
    (CostFunctionFitter, "fit_all", "costfuncs"),
    (FeedbackRecalibrator, "observe", "feedback"),
    (SessionApp, "handle_post", "serving.app"),
    (AdmissionGate, "handle_post", "serving.admission"),
    (HttpClient, "request_json", "client"),
) + tuple(
    (wire_type, method, "api.wire")
    for wire_type in (
        PredictRequest,
        BatchRequest,
        Observation,
        PredictResponse,
        BatchResponse,
        ObserveResponse,
    )
    for method in ("to_dict", "from_dict")
)

#: Module-level codec functions, patched by name where the server and
#: the client import them.
_FUNCTIONS = (
    (transport_module, "dumps", "transport.dumps"),
    (transport_module, "loads", "transport.loads"),
    (client_module, "dumps", "client.dumps"),
    (client_module, "loads", "client.loads"),
)


class SpanRecorder:
    """Records nested spans per thread while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, entry: str):
        spans = self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((
                    span_id, parent, layer, entry,
                    threading.get_ident(), start, end,
                ))

        return traced

    def install(self) -> None:
        """Patch every entry point; a recorder installs once."""
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        for owner, attribute, layer in _METHODS:
            original = owner.__dict__[attribute]
            entry = f"{owner.__name__}.{attribute}"
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, layer, entry))
            else:
                patched = self._wrap(original, layer, entry)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        for module, attribute, entry in _FUNCTIONS:
            original = getattr(module, attribute)
            self._patches.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, "api.wire", entry))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in ns from the first span)."""
        origin = min((span[5] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, entry, thread, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "entry": entry, "thread": thread,
                    "start_ns": start - origin, "end_ns": end - origin,
                }) + "\n")

    def summary(self) -> "TraceSummary":
        """Per-layer self time and call counts of the recorded spans."""
        children_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _, _, _, start, end in self.spans:
            if parent:
                children_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        server_roots_ns = 0
        for span_id, parent, layer, entry, _, start, end in self.spans:
            self_ns[layer] += end - start - children_ns[span_id]
            calls[layer] += 1
            # The server's share of a round trip: the admission gate's
            # whole span (it wraps the app, session and request decode)
            # plus the response encode the transport runs after it.
            if not parent and entry in (
                "AdmissionGate.handle_post", "transport.dumps"
            ):
                server_roots_ns += end - start
        return TraceSummary(dict(self_ns), dict(calls), server_roots_ns)


class TraceSummary:
    """Self time (ns) and calls per layer, plus the server's span total."""

    def __init__(self, self_ns, calls, server_roots_ns):
        self.self_ns = self_ns
        self.calls = calls
        self.server_roots_ns = server_roots_ns

    def total_ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6

    def mean_ms(self, layer: str) -> float:
        """Mean self time per call, or 0.0 when the layer made no calls."""
        calls = self.calls.get(layer, 0)
        return self.total_ms(layer) / calls if calls else 0.0

    def transport_ms(self) -> float:
        """Client round-trip self time not spent in the server's spans."""
        return self.total_ms("client") - self.server_roots_ns / 1e6
