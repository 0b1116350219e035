"""Traced runs: spans around the public calls into each layer, from outside.

Nothing in ``src/`` changes.  :func:`install` replaces selected public
methods with wrappers that record a span -- name, start, end, parent span,
thread and a key (session id, record type) -- into an in-memory
:class:`Recorder`.  Spans are written out once, when the run ends.  The
``serve-*`` server installs the same wrappers through ``serve_traced.py``
before handing off to the CLI's ``serve`` entry.

Times are ``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on Linux and
therefore comparable between the benchmark and its server process.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

from common import median

SCHEDULER_THREAD = "repro-tuning-service"

#: Per-layer metrics every traced run reports (0 where a layer is bypassed).
PER_LAYER = {
    "learning.tree_fit.calls": "count",
    "learning.tree_fit.s": "s",
    "learning.ensemble_fit.s": "s",
    "learning.predict.s": "s",
    "core.ask.s": "s",
    "core.tell.s": "s",
    "core.model.fit.s": "s",
    "core.model.condition.calls": "count",
    "core.model.condition.s": "s",
    "core.model.predict.s": "s",
    "core.phase.fit_s": "s",
    "core.phase.acquisition_s": "s",
    "core.phase.explore_path_s": "s",
    "core.conditions_per_decision": "ratio",
    "workloads.run.calls": "count",
    "workloads.run.s": "s",
    "session.ask.s.p50": "s",
    "session.ask.s.max": "s",
    "session.tell.s": "s",
    "session.checkpoint.calls": "count",
    "session.checkpoint.s": "s",
    "service.submit.s": "s",
    "service.poll.s": "s",
    "service.result.s": "s",
    "service.queue_wait_s": "s",
    "service.lock_hold_s": "s",
    "service.lock_hold_s.max": "s",
    "journal.append.calls": "count",
    "journal.append.s": "s",
    "journal.fsync.calls": "count",
    "journal.fsync.s": "s",
    "journal.bytes_per_tell": "bytes",
    "gateway.overhead_ms.submit": "ms",
    "gateway.overhead_ms.poll": "ms",
    "gateway.overhead_ms.result": "ms",
    "gateway.threads.peak": "count",
    "gateway.polls_per_session": "ratio",
    "gateway.poll_change_ratio": "ratio",
    "client.call_ms.submit": "ms",
    "client.call_ms.poll": "ms",
    "client.call_ms.result": "ms",
    "self_s.learning": "s",
    "self_s.core": "s",
    "self_s.workloads": "s",
    "self_s.session": "s",
    "self_s.service": "s",
    "self_s.journal": "s",
    "self_s.gateway": "s",
    "check.tree_fit_share_of_decision": "ratio",
    "check.slow_polls_overlapping_ask": "ratio",
    "trace.overhead_share": "ratio",
}

LAYERS = ("learning", "core", "workloads", "session", "service", "journal", "gateway", "client")


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, key]
        self.peaks: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, key=None, on_enter=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = [next(recorder._ids), name, 0.0, 0.0,
                    stack[-1][0] if stack else -1, threading.current_thread().name, None]
            if on_enter is not None:
                on_enter(recorder)
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if key is not None:
                span[6] = key(args, result)
            return result

        setattr(owner, attr, traced)

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "peaks": self.peaks}))

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (no parent)."""
        self.spans.append([next(self._ids), name, start, end, -1,
                           threading.current_thread().name, None])

    def mark_decision(self, start: float, end: float) -> None:
        """Record a post-bootstrap decision window (decide-* only)."""
        self.record("bench.decision", start, end)

    def wrap_http_client(self, client) -> None:
        """Span the public ``HttpClient`` calls of one client instance."""
        for route in ("submit", "poll", "result"):
            self.wrap(client, route, f"client.{route}")


def _session_of_self(args, result):
    return args[0].session_id


def _session_arg(args, result):
    return args[1] if len(args) > 1 else None


def _record_type(args, result):
    return args[1].get("type")


def _threads(recorder: Recorder) -> None:
    recorder.peak("gateway.threads", threading.active_count())


def install(recorder: Recorder, *, server: bool) -> None:
    """Wrap the public calls of every layer the process runs."""
    from repro.core.model import CostModel
    from repro.core.optimizer import BaseOptimizer
    from repro.learning.bagging import BaggingEnsemble
    from repro.learning.tree import RegressionTree
    from repro.workloads.base import TabulatedJob

    wrap = recorder.wrap
    wrap(RegressionTree, "fit", "learning.tree_fit")
    wrap(BaggingEnsemble, "fit", "learning.ensemble_fit")
    wrap(BaggingEnsemble, "predict_distribution", "learning.predict")
    wrap(BaseOptimizer, "ask", "core.ask")
    wrap(BaseOptimizer, "tell", "core.tell")
    wrap(CostModel, "fit_rows", "core.model.fit")
    wrap(CostModel, "condition_on_row", "core.model.condition")
    wrap(CostModel, "predict_rows", "core.model.predict")
    wrap(TabulatedJob, "run", "workloads.run")
    if not server:
        return
    from repro.service.client import LocalClient
    from repro.service.journal import TellJournal
    from repro.service.service import TuningService
    from repro.service.session import TuningSession

    wrap(TuningSession, "ask", "session.ask", key=_session_of_self)
    wrap(TuningSession, "tell", "session.tell", key=_session_of_self)
    wrap(TuningSession, "checkpoint", "session.checkpoint", key=_session_of_self)
    wrap(TuningService, "submit_spec", "service.submit", key=lambda args, result: result)
    wrap(TuningService, "poll", "service.poll", key=_session_arg)
    wrap(TuningService, "wait_for", "service.poll", key=_session_arg)
    wrap(TuningService, "result", "service.result", key=_session_arg)
    wrap(TellJournal, "append", "journal.append", key=_record_type)
    wrap(os, "fsync", "journal.fsync")
    for route in ("submit", "poll", "result", "cancel"):
        wrap(LocalClient, route, f"service.client.{route}", on_enter=_threads)


# -- analysis -------------------------------------------------------------------------
def _by_name(spans) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for span in spans:
        grouped.setdefault(span[1], []).append(span)
    return grouped


def _total(spans) -> float:
    return sum(span[3] - span[2] for span in spans)


def _self_times(spans) -> dict[str, float]:
    """Per-layer self time: span time minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
    layers: dict[str, float] = {}
    for span in spans:
        layer = span[1].split(".", 1)[0]
        own = span[3] - span[2] - child_time.get(span[0], 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def _lock_holds(spans) -> list[float]:
    """Scheduler-thread time per dispatch: ask, then tell + journal + checkpoint."""
    names = {"session.ask", "session.tell", "session.checkpoint", "journal.append"}
    ordered = sorted(
        (s for s in spans if s[5] == SCHEDULER_THREAD and s[1] in names and s[4] < 0),
        key=lambda s: s[2],
    )
    holds: list[float] = []
    for span in ordered:
        if span[1] == "session.ask" or not holds:
            holds.append(0.0)
        holds[-1] += span[3] - span[2]
    return holds


def layer_report(local: list, server: dict | None, context: dict) -> tuple[dict, list]:
    """Per-layer metrics plus the printable table rows.

    ``local`` are this process's spans; ``server`` the server's dump (serve-*);
    ``context`` carries what the workload observed (decisions, polls, phases).
    """
    program = local if server is None else server["spans"]
    client = local if server is not None else []
    by = _by_name(program)
    cby = _by_name(client)

    def total(name):
        return _total(by.get(name, []))

    def calls(name):
        return len(by.get(name, []))

    def p50_ms(spans):
        return 1e3 * median([s[3] - s[2] for s in spans]) if spans else 0.0

    decisions = context["decisions"]
    asks = [s[3] - s[2] for s in by.get("session.ask", [])]
    queue_waits = []
    first_ask: dict = {}
    for span in sorted(by.get("session.ask", []), key=lambda s: s[2]):
        first_ask.setdefault(span[6], span[2])
    for span in by.get("service.submit", []):
        if span[6] in first_ask:
            queue_waits.append(first_ask[span[6]] - span[3])
    holds = _lock_holds(program)
    overhead = {}
    for route in ("submit", "poll", "result"):
        seen = cby.get(f"client.{route}", []) + cby.get(f"client.keepalive.{route}", [])
        served = by.get(f"service.client.{route}", [])
        overhead[route] = p50_ms(seen) - p50_ms(served) if seen and served else 0.0
    tells = context.get("journal_tells", 0)
    metrics = {
        "learning.tree_fit.calls": calls("learning.tree_fit"),
        "learning.tree_fit.s": total("learning.tree_fit"),
        "learning.ensemble_fit.s": total("learning.ensemble_fit"),
        "learning.predict.s": total("learning.predict"),
        "core.ask.s": total("core.ask"),
        "core.tell.s": total("core.tell"),
        "core.model.fit.s": total("core.model.fit"),
        "core.model.condition.calls": calls("core.model.condition"),
        "core.model.condition.s": total("core.model.condition"),
        "core.model.predict.s": total("core.model.predict"),
        "core.phase.fit_s": context["phases"].get("fit", 0.0),
        "core.phase.acquisition_s": context["phases"].get("acquisition", 0.0),
        "core.phase.explore_path_s": context["phases"].get("explore_path", 0.0),
        "core.conditions_per_decision": (
            calls("core.model.condition") / decisions if decisions else 0.0
        ),
        "workloads.run.calls": calls("workloads.run"),
        "workloads.run.s": total("workloads.run"),
        "session.ask.s.p50": median(asks) if asks else 0.0,
        "session.ask.s.max": max(asks, default=0.0),
        "session.tell.s": total("session.tell"),
        "session.checkpoint.calls": calls("session.checkpoint"),
        "session.checkpoint.s": total("session.checkpoint"),
        "service.submit.s": total("service.submit"),
        "service.poll.s": total("service.poll"),
        "service.result.s": total("service.result"),
        "service.queue_wait_s": median(queue_waits) if queue_waits else 0.0,
        "service.lock_hold_s": sum(holds),
        "service.lock_hold_s.max": max(holds, default=0.0),
        "journal.append.calls": calls("journal.append"),
        "journal.append.s": total("journal.append"),
        "journal.fsync.calls": calls("journal.fsync"),
        "journal.fsync.s": total("journal.fsync"),
        "journal.bytes_per_tell": context.get("journal_tell_bytes", 0) / tells if tells else 0.0,
        "gateway.overhead_ms.submit": overhead["submit"],
        "gateway.overhead_ms.poll": overhead["poll"],
        "gateway.overhead_ms.result": overhead["result"],
        "gateway.threads.peak": (server or {}).get("peaks", {}).get("gateway.threads", 0),
        "gateway.polls_per_session": context.get("polls_per_session", 0.0),
        "gateway.poll_change_ratio": context.get("poll_change_ratio", 0.0),
        "client.call_ms.submit": p50_ms(cby.get("client.submit", [])),
        "client.call_ms.poll": p50_ms(cby.get("client.poll", [])),
        "client.call_ms.result": p50_ms(cby.get("client.result", [])),
    }
    selfs = _self_times(program)
    # The gateway has no span of its own: its time is what the client saw
    # minus what the in-process client inside the server spent.
    gateway_self = sum(
        _total(spans) for name, spans in cby.items() if name.startswith("client.")
    ) - sum(
        _total(spans) for name, spans in by.items() if name.startswith("service.client.")
    ) if client else 0.0
    for layer in LAYERS[:-1]:
        metrics[f"self_s.{layer}"] = gateway_self if layer == "gateway" else selfs.get(layer, 0.0)
    metrics["check.tree_fit_share_of_decision"] = _tree_fit_share(program)
    metrics["check.slow_polls_overlapping_ask"] = _slow_poll_overlap(program, context)
    rows = []
    for layer in LAYERS:
        busy = sum(_total(v) for k, v in {**by, **cby}.items()
                   if k.split(".", 1)[0] == layer)
        count = sum(len(v) for k, v in {**by, **cby}.items() if k.split(".", 1)[0] == layer)
        own = metrics.get(f"self_s.{layer}")
        rows.append((layer, count, busy, own))
    return metrics, rows


def _tree_fit_share(spans) -> float:
    """``RegressionTree.fit`` time inside decisions ÷ decision time.

    decide-* marks its decisions; in a server they are the scheduler thread's
    ``TuningSession.ask`` calls.
    """
    windows = sorted((s[2], s[3]) for s in spans if s[1] == "bench.decision")
    if not windows:
        windows = sorted((s[2], s[3]) for s in spans
                         if s[1] == "session.ask" and s[5] == SCHEDULER_THREAD)
    if not windows:
        return 0.0
    decided = sum(end - start for start, end in windows)
    starts = [start for start, _ in windows]
    inside = 0.0
    for span in spans:
        if span[1] != "learning.tree_fit":
            continue
        # Decision windows do not overlap: only the last one starting
        # before the fit can hold it.
        index = bisect.bisect_right(starts, span[2]) - 1
        if index >= 0 and span[2] <= windows[index][1]:
            inside += span[3] - span[2]
    return inside / decided if decided else 0.0


def _slow_poll_overlap(spans, context) -> float:
    """Share of the five slowest polls whose interval overlaps a scheduler-thread ask."""
    polls = context.get("poll_intervals") or []
    if not polls:
        return 0.0
    asks = [(s[2], s[3]) for s in spans
            if s[1] == "session.ask" and s[5] == SCHEDULER_THREAD]
    slowest = sorted(polls, key=lambda p: p[1] - p[0], reverse=True)[:5]
    hits = sum(1 for due, done in slowest if any(a < done and due < b for a, b in asks))
    return hits / len(slowest)
