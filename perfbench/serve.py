"""The ``serve-*`` workloads: ``python -m repro serve`` driven over HTTP.

The server is a child process started with the CLI defaults (1 worker, fifo
policy, threaded gateway) plus ``--journal`` at its default sync mode.  The
load comes from this process: at most two threads and two connections.
Before the window opens, each user runs a few untimed cheap sessions so that
the server's code paths are warm.

``serve-churn``: two closed-loop ``HttpClient`` users, one connection per
request (as ``sweep --server`` does).  Each submits a cheap spec (``rnd``,
``bo`` with 5 trees, ``lynceus`` LA=0 believer, round-robin over the five
service jobs), long-polls it with ``wait_s`` until it is terminal and
fetches the result.

``serve-contended``: back-to-back contention episodes until the window
closes.  Each episode submits one refit LA=2 session with the default
optimizer, whose budget leaves room for exactly one post-bootstrap decision;
it holds the service lock through that decision and then ends.  An open-loop
poller sends ``GET /v1/sessions/{id}`` at a fixed rate on one keep-alive
connection and times each poll from when it was due.  The main thread, a
closed-loop ``HttpClient`` user, submits one cheap session a quarter of a
second in and follows it to its result, then fetches the contender's result.

Every completed session's trace, decoded from the wire result, must equal an
in-process ``optimize()`` of the same spec and seed.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    SERVICE_JOBS,
    BenchError,
    Outcome,
    child_env,
    cleanup,
    median,
    percentile,
    proc_peak_rss_mb,
    run_dir,
    stop_process,
)
from decide import trace_of

#: Optimizer seeds the cheap specs draw from.
SPEC_SEEDS = tuple(range(4))
#: Long-poll leg used by the closed-loop users.
WAIT_S = 30.0
#: Servers set up before the window (the last one is measured) and after
#: it; ``setup_s`` is the median of all of them.  Spreading the set-ups over
#: the run keeps one slow stretch of the shared host from deciding it.
SETUPS_BEFORE = 5
SETUPS_AFTER = 4
#: Untimed cheap sessions each user runs before the window opens.
WARMUP_SESSIONS = 3
#: serve-churn's ``decision_s`` covers the model-based decisions only: an
#: ``rnd`` draw takes microseconds, and a median over a mix of the two
#: populations swings with the mix.
MODEL_KINDS = ("bo", "lynceus")
#: serve-churn reads the server's peak RSS when this many timed sessions
#: are done (at the end of the window if fewer are).
RSS_AFTER_SESSIONS = 400
#: serve-contended, per episode: poll rate, and when the polls start and the
#: cheap session is submitted.  Both come soon after the contender's submit
#: (its bootstrap takes milliseconds), so that what they wait for is nearly
#: the whole decision: a later start would subtract a constant from every
#: stall and magnify the host's speed swings in what is left.
POLL_HZ = 5.0
FIRST_POLL_AT_S = 0.25
CHEAP_SUBMIT_AT_S = 0.25
MIN_POLL_S = 2.0
#: serve-contended's contender: the default optimizer (refit, LA=2, K=5,
#: 10 trees) on a fixed job and seed, so that every episode stalls behind the
#: same decision.  Its budget (x1.4 instead of x3) leaves room for exactly
#: one post-bootstrap refit decision (~3.5 s here); the next ask() finds no
#: budget-viable candidate and ends the session in ~10 ms.  A contender that
#: must be cancelled instead would make the episode hang on a race: the
#: cancel can lose the lock handoff at each decision boundary, and in one
#: run it lost seven in a row until the session finished and the cancel got
#: a 409.
CONTENDER = ("cherrypick-spark-regression", 0)
CONTENDER_BUDGET_MULTIPLIER = 1.4
SERVER_START_TIMEOUT_S = 60.0


def cheap_kinds():
    from repro.service.api import OptimizerSpec

    return (
        OptimizerSpec("rnd"),
        OptimizerSpec("bo", {"n_estimators": 5}),
        OptimizerSpec("lynceus", {"lookahead": 0, "speculation": "believer"}),
    )


class SpecStream:
    """Seeded, thread-safe stream of cheap specs: kinds and jobs round-robin."""

    def __init__(self, seed: int, name: str) -> None:
        self._rng = random.Random(f"{name}/{seed}")
        self._kinds = cheap_kinds()
        self._index = 0
        self._lock = threading.Lock()

    def next(self):
        from repro.service.api import JobSpec

        with self._lock:
            index = self._index
            self._index += 1
            seed = self._rng.choice(SPEC_SEEDS)
        return JobSpec(
            job=SERVICE_JOBS[index % len(SERVICE_JOBS)],
            optimizer=self._kinds[index % len(self._kinds)],
            seed=seed,
        )


# -- the server ---------------------------------------------------------------------
class Server:
    """One ``repro serve`` child; ``setup_s`` is spawn -> first healthz 200."""

    def __init__(self, workdir: Path, index: int, trace_out: Path | None = None) -> None:
        self.journal = workdir / f"journal-{index}.jsonl"
        self.stdout_path = workdir / f"server-{index}.out"
        args = ["serve", "--port", "0", "--journal", str(self.journal)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(trace_out), *args]
        started = time.perf_counter()
        with open(self.stdout_path, "wb") as out, open(
            workdir / f"server-{index}.err", "wb"
        ) as err:
            self.proc = subprocess.Popen(
                command, stdout=out, stderr=err, env=child_env(), cwd=ROOT
            )
        try:
            self.url = self._await_url(started)
            parsed = urllib.parse.urlsplit(self.url)
            self.host, self.port = parsed.hostname, parsed.port
            self._await_health(started)
        except BaseException:
            stop_process(self.proc)
            raise
        self.setup_s = time.perf_counter() - started

    def _await_url(self, started: float) -> str:
        while time.perf_counter() - started < SERVER_START_TIMEOUT_S:
            text = self.stdout_path.read_text(errors="replace")
            if "listening on " in text:
                return text.split("listening on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"server did not start: {self.stdout_path.read_text()[-500:]}")

    def _await_health(self, started: float) -> None:
        while time.perf_counter() - started < SERVER_START_TIMEOUT_S:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/v1/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                connection.close()
        raise BenchError("server never answered /v1/healthz")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        code = stop_process(self.proc)
        if code != 0:
            raise BenchError(f"server exited with code {code}")


def start_servers(workdir: Path, trace_out: Path | None) -> tuple[Server, list[float]]:
    """Set up ``SETUPS_BEFORE`` servers, keep the last; returns it and all set-up times."""
    times = []
    for index in range(SETUPS_BEFORE):
        last = index == SETUPS_BEFORE - 1
        server = Server(workdir, index, trace_out if last else None)
        times.append(server.setup_s)
        if not last:
            server.stop()
    return server, times


def later_setups(workdir: Path) -> list[float]:
    """Set up and stop ``SETUPS_AFTER`` more servers once the window is over."""
    times = []
    for index in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER):
        server = Server(workdir, index)
        times.append(server.setup_s)
        server.stop()
    return times


# -- load limits ----------------------------------------------------------------------
class LoadGauge:
    """Peak threads and open connections of the load process (checked against nproc)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = 0
        self.peak_connections = 0
        self.peak_threads = 0

    def opened(self) -> None:
        with self._lock:
            self._open += 1
            self.peak_connections = max(self.peak_connections, self._open)
            self.peak_threads = max(self.peak_threads, threading.active_count())

    def closed(self) -> None:
        with self._lock:
            self._open -= 1

    @contextlib.contextmanager
    def connection(self):
        self.opened()
        try:
            yield
        finally:
            self.closed()


# -- correctness ------------------------------------------------------------------------
class Verifier:
    """Wire traces against an in-process ``optimize()`` of the same spec (memoised)."""

    def __init__(self) -> None:
        self._expected: dict[str, list] = {}
        self._jobs: dict = {}

    def expected(self, spec) -> list:
        from repro.service.api import resolve_spec

        key = json.dumps(spec.to_dict(), sort_keys=True)
        if key not in self._expected:
            job, optimizer, options, _ = resolve_spec(spec)
            self._expected[key] = trace_of(optimizer.optimize(job, **options).observations)
        return self._expected[key]

    def cno(self, result) -> float:
        from repro import load_job

        if result.job_name not in self._jobs:
            self._jobs[result.job_name] = load_job(result.job_name)
        return result.cno(self._jobs[result.job_name].optimal_cost(result.tmax))


# -- closed-loop users ---------------------------------------------------------------
class User:
    """A closed-loop ``HttpClient`` user: submit, long-poll to terminal, fetch."""

    def __init__(self, url: str, outcome: Outcome, lock: threading.Lock, gauge: LoadGauge,
                 wrap=None) -> None:
        from repro.service.client import HttpClient

        self.gauge = gauge
        self.client = HttpClient(url, timeout=120.0)
        if wrap is not None:
            wrap(self.client)
        self.outcome = outcome
        self.lock = lock
        self.sessions: list[dict] = []

    def call(self, route: str, fn, *args, **kwargs):
        """Time one client call, counting it as completed or failed."""
        began = time.perf_counter()
        try:
            with self.gauge.connection():  # HttpClient: one connection per call
                value = fn(*args, **kwargs)
        except Exception as error:  # counted as a failed operation
            with self.lock:
                self.outcome.fail(route, repr(error))
            return None, time.perf_counter() - began
        with self.lock:
            self.outcome.ok(route)
        return value, time.perf_counter() - began

    def one_session(self, spec) -> dict | None:
        began = time.perf_counter()
        submitted, submit_s = self.call("submit", self.client.submit, spec)
        if submitted is None:
            return None
        sid = submitted.session_id
        polls = []
        while True:
            snapshot, poll_s = self.call("poll", self.client.poll, sid, wait_s=WAIT_S)
            if snapshot is None:
                return None
            polls.append((poll_s, snapshot.status))
            if snapshot.terminal:
                break
        result, _ = self.call("result", self.client.result, sid)
        if result is None:
            return None
        record = {
            "spec": spec,
            "result": result,
            "submit_s": submit_s,
            "polls": polls,
            "phases": snapshot.metrics.get("phase_seconds") or {},
            "decisions": snapshot.metrics.get("decisions", 0),
            "session_s": time.perf_counter() - began,
            "done_at": time.perf_counter(),
        }
        self.sessions.append(record)
        return record

    def loop(self, specs: SpecStream, deadline: float, probe: "RssProbe") -> None:
        while time.perf_counter() < deadline:
            if self.one_session(specs.next()) is not None:
                probe.session_done()


class RssProbe:
    """The server's peak RSS once a fixed number of timed sessions is done.

    The server keeps every session, so its memory grows with the sessions it
    has served; reading it at a fixed count, not at the end of the window,
    keeps a faster server from reading as a bigger one.
    """

    def __init__(self, server: Server, after: int) -> None:
        self._server = server
        self._after = after
        self._done = 0
        self._lock = threading.Lock()
        self.value: float | None = None

    def session_done(self) -> None:
        with self._lock:
            self._done += 1
            if self._done == self._after:
                self.value = self._server.peak_rss_mb()


# -- open-loop keep-alive poller ---------------------------------------------------
class KeepAlivePoller:
    """Open-loop ``GET`` polls on one persistent connection, timed from due time.

    Poll ``k`` is due at ``start + k / hz``.  Once a poll sees the session
    terminal, the window closes: polls due before its end are still sent
    (the backlog drains), later ones are not.  The connection outlives the
    poller: serve-contended hands the same one to the poller of every episode.
    """

    def __init__(self, connection: http.client.HTTPConnection, hz: float, path: str,
                 outcome: Outcome, lock: threading.Lock) -> None:
        self.connection = connection
        self.period = 1.0 / hz
        self.path = path
        self.outcome = outcome
        self.lock = lock
        self.samples: list[dict] = []
        self.window_end: float | None = None
        self._thread = threading.Thread(target=self._loop, name="perfbench-keepalive")

    def start(self, at: float) -> None:
        self.start_at = at
        self._thread.start()

    def join(self) -> None:
        self._thread.join()

    def _loop(self) -> None:
        from repro.service.api import TERMINAL_STATUSES

        k = 0
        while True:
            due = self.start_at + k * self.period
            if self.window_end is not None and due >= self.window_end:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                self.connection.request("GET", self.path)
                response = self.connection.getresponse()
                body = json.loads(response.read())
                status = response.status
            except (OSError, http.client.HTTPException, ValueError) as error:
                with self.lock:
                    self.outcome.fail("keepalive-poll", repr(error))
                self.connection.close()
                self.window_end = time.perf_counter()
                return
            done = time.perf_counter()
            with self.lock:
                if 200 <= status < 300:
                    self.outcome.ok("keepalive-poll")
                else:
                    self.outcome.fail("keepalive-poll", f"HTTP {status}: {body}")
            self.samples.append({"due": due, "sent": sent, "done": done, "body": body})
            if self.window_end is None and (
                status >= 300 or body.get("status") in TERMINAL_STATUSES
            ):
                # Polls keep coming for at least MIN_POLL_S so that there is
                # always a sample, and those already due drain.
                self.window_end = max(done, self.start_at + MIN_POLL_S)
            k += 1


def _session_path(session_id: str) -> str:
    return f"/v1/sessions/{urllib.parse.quote(session_id, safe='')}"


# -- workloads -------------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    workdir = run_dir(workload)
    trace_out = workdir / "server-spans.json" if tracer is not None else None
    try:
        server, setup = start_servers(workdir, trace_out)
        try:
            if workload == "serve-churn":
                measured = _churn(server, seed, seconds, tracer)
            else:
                measured = _contended(server, seed, seconds, tracer)
            if measured.get("peak_rss_mb") is None:
                measured["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        if trace_out is not None:
            measured["server_spans"] = json.loads(trace_out.read_text())
        measured["journal_tells"], measured["journal_tell_bytes"] = _journal_tells(server.journal)
        setup += later_setups(workdir)
    finally:
        cleanup(workdir)
    measured["setup"] = sorted(setup)
    return _finish(workload, measured)


def _journal_tells(path: Path) -> tuple[int, int]:
    """Tell records in a journal and the bytes they take."""
    tells = size = 0
    for line in path.read_bytes().splitlines():
        if json.loads(line).get("type") == "tell":
            tells += 1
            size += len(line) + 1
    return tells, size


def _poll_stats(status_runs: list[list[str]]) -> tuple[int, int]:
    """Polls, and polls whose status differs from the previous one seen."""
    polls = changes = 0
    for statuses in status_runs:
        previous = None
        for status in statuses:
            polls += 1
            changes += status != previous
            previous = status
    return polls, changes


def _add_phases(total: dict, phases: dict) -> None:
    for name, value in phases.items():
        total[name] = total.get(name, 0.0) + value


def _warm_up(users: list[User], seed: int, workload: str) -> list[dict]:
    """Untimed cheap sessions before the window; returned for verification only."""
    specs = SpecStream(seed, f"{workload}/warm-up")
    warmed = []
    for user in users:
        for _ in range(WARMUP_SESSIONS):
            user.one_session(specs.next())
        warmed += user.sessions
        user.sessions = []
    return warmed


def _churn(server: Server, seed: int, seconds: float, tracer) -> dict:
    outcome, lock, gauge = Outcome(), threading.Lock(), LoadGauge()
    specs = SpecStream(seed, "serve-churn")
    wrap = tracer.wrap_http_client if tracer is not None else None
    users = [User(server.url, outcome, lock, gauge, wrap) for _ in range(2)]
    warmed = _warm_up(users, seed, "serve-churn")
    probe = RssProbe(server, RSS_AFTER_SESSIONS)
    started = time.perf_counter()
    deadline = started + seconds
    helper = threading.Thread(target=users[1].loop, args=(specs, deadline, probe))
    helper.start()
    try:
        users[0].loop(specs, deadline, probe)
    finally:
        helper.join()
    sessions = users[0].sessions + users[1].sessions
    window = max((s["done_at"] for s in sessions), default=deadline) - started
    polls = [p[0] for s in sessions for p in s["polls"]]
    n_polls, changes = _poll_stats([[p[1] for p in s["polls"]] for s in sessions])
    phases: dict = {}
    for session in sessions:
        _add_phases(phases, session["phases"])
    return {
        "phases": phases,
        "decisions_total": sum(s["decisions"] for s in sessions),
        "polls_per_session": n_polls / max(1, len(sessions)),
        "poll_change_ratio": changes / max(1, n_polls),
        "outcome": outcome,
        "sessions": sessions,
        "warmed": warmed,
        "window": window,
        "submit": [s["submit_s"] for s in sessions],
        "session": [s["session_s"] for s in sessions],
        "poll_ms": (1e3 * median(polls), 1e3 * percentile(polls, 0.99)),
        "n_polls": len(polls),
        "late": [],
        "peak_rss_mb": probe.value,
        "threads": gauge.peak_threads,
        "connections": gauge.peak_connections,
    }


def contender_spec():
    from repro.service.api import JobSpec

    job, seed = CONTENDER
    return JobSpec(job=job, seed=seed, budget_multiplier=CONTENDER_BUDGET_MULTIPLIER)


def _episode(user: User, connection, specs: SpecStream, outcome: Outcome,
             lock: threading.Lock, tracer) -> dict:
    """One contention episode: the contender's decision, open-loop polls, one cheap session."""
    began = time.perf_counter()
    spec = contender_spec()
    contender, _ = user.call("submit-contender", user.client.submit, spec)
    if contender is None:
        raise BenchError(f"contender submit failed: {outcome.errors}")
    poller = KeepAlivePoller(
        connection, POLL_HZ, _session_path(contender.session_id), outcome, lock
    )
    poller.start(began + FIRST_POLL_AT_S)
    time.sleep(max(0.0, began + CHEAP_SUBMIT_AT_S - time.perf_counter()))
    try:
        user.one_session(specs.next())
    finally:
        poller.join()
    if tracer is not None:
        for sample in poller.samples:
            tracer.record("client.keepalive.poll", sample["sent"], sample["done"])
    if not poller.samples or poller.samples[-1]["body"].get("status") != "done":
        raise BenchError(f"contender did not finish under the polls: {outcome.errors}")
    result, _ = user.call("result-contender", user.client.result, contender.session_id)
    if result is None:
        raise BenchError(f"contender result failed: {outcome.errors}")
    final = poller.samples[-1]["body"].get("metrics", {})
    return {
        "samples": poller.samples,
        "polls": [s["done"] - s["due"] for s in poller.samples],
        "late": [s["sent"] - s["due"] for s in poller.samples],
        "statuses": [s["body"].get("status") for s in poller.samples],
        "contender": {"spec": spec, "result": result},
        "decisions": final.get("decisions", 0),
        "phases": final.get("phase_seconds") or {},
    }


def _contended(server: Server, seed: int, seconds: float, tracer) -> dict:
    outcome, lock, gauge = Outcome(), threading.Lock(), LoadGauge()
    specs = SpecStream(seed, "serve-contended")
    wrap = tracer.wrap_http_client if tracer is not None else None
    user = User(server.url, outcome, lock, gauge, wrap)
    warmed = _warm_up([user], seed, "serve-contended")
    connection = http.client.HTTPConnection(server.host, server.port, timeout=300)
    gauge.opened()
    episodes: list[dict] = []
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while not episodes or time.perf_counter() < deadline:
            episodes.append(_episode(user, connection, specs, outcome, lock, tracer))
    finally:
        connection.close()
        gauge.closed()
    window = time.perf_counter() - started
    n_polls, changes = _poll_stats(
        [e["statuses"] for e in episodes] + [[p[1] for p in s["polls"]] for s in user.sessions]
    )
    phases: dict = {}
    for part in [e["phases"] for e in episodes] + [s["phases"] for s in user.sessions]:
        _add_phases(phases, part)
    return {
        "phases": phases,
        "decisions_total": sum(e["decisions"] for e in episodes)
        + sum(s["decisions"] for s in user.sessions),
        "polls_per_session": n_polls / (len(episodes) + len(user.sessions)),
        "poll_change_ratio": changes / max(1, n_polls),
        "outcome": outcome,
        "sessions": user.sessions,
        "warmed": warmed,
        "contenders": [e["contender"] for e in episodes],
        "window": window,
        "submit": [s["submit_s"] for s in user.sessions],
        "session": [s["session_s"] for s in user.sessions],
        # Per episode, then the median over episodes: one episode that ran
        # during a slow stretch of the shared host then moves the run's
        # figure no more than any other.
        "poll_ms": (
            1e3 * median([median(e["polls"]) for e in episodes]),
            1e3 * median([percentile(e["polls"], 0.99) for e in episodes]),
        ),
        "n_polls": sum(len(e["polls"]) for e in episodes),
        "late": [late for e in episodes for late in e["late"]],
        "poll_samples": [sample for e in episodes for sample in e["samples"]],
        "threads": gauge.peak_threads,
        "connections": gauge.peak_connections,
    }


def _finish(workload: str, measured: dict) -> dict:
    outcome: Outcome = measured["outcome"]
    verifier = Verifier()
    decisions: list[float] = []
    n_decisions = 0
    cnos, costs = [], []
    checked = (
        [(s, "warm-up") for s in measured["warmed"]]
        + [(s, "timed") for s in measured["sessions"]]
        + [(s, "contender") for s in measured.get("contenders", [])]
    )
    contender_decisions: list[float] = []
    for session, role in checked:
        spec = session["spec"]
        outcome.ok("verify")
        try:
            result = session["result"].optimization_result()
        except (KeyError, TypeError, ValueError) as error:
            outcome.mismatch("verify", f"undecodable result: {error!r}")
            continue
        if trace_of(result.observations) != verifier.expected(spec):
            outcome.mismatch(
                "verify", f"trace of {spec.job}/{spec.optimizer.name}/seed {spec.seed} differs"
            )
        if role == "contender":
            # The refit decision it held the lock through; the closing ask()
            # that ends the session takes ~10 ms and is left out.
            contender_decisions.extend(result.next_config_seconds[:1])
        if role != "timed":
            continue
        n_decisions += len(result.next_config_seconds)
        if spec.optimizer.name in MODEL_KINDS:
            decisions.extend(result.next_config_seconds)
        cnos.append(verifier.cno(result))
        costs.append(result.budget_spent)
    if not measured["sessions"]:
        raise BenchError(f"no session completed: {outcome.errors}")
    window = measured["window"]
    if workload == "serve-contended":
        # The decisions that matter here are the contender's: everybody
        # waited behind them.
        decisions = contender_decisions
        n_decisions = len(decisions)
        job, seed = CONTENDER
        measured["contender"] = {
            "job": job,
            "seed": seed,
            "budget_multiplier": CONTENDER_BUDGET_MULTIPLIER,
            "episodes": len(decisions),
            "decision_s": [round(d, 3) for d in decisions],
        }
    nproc = len(os.sched_getaffinity(0))
    if max(measured["threads"], measured["connections"]) > nproc:
        raise BenchError(
            f"load generator used {measured['threads']} threads and "
            f"{measured['connections']} connections on {nproc} cores"
        )
    poll_p50, poll_p99 = measured["poll_ms"]
    metrics = {
        "setup_s": (median(measured["setup"]), "s"),
        "decisions_per_s": (n_decisions / window, "1/s"),
        "sessions_per_s": (len(measured["sessions"]) / window, "1/s"),
        "session_s.p50": (median(measured["session"]), "s"),
        "submit_ms.p50": (1e3 * median(measured["submit"]), "ms"),
        "poll_ms.p50": (poll_p50, "ms"),
        "poll_ms.p99": (poll_p99, "ms"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    extra = {
        "decision_s.p50": (median(decisions), "s"),
        "decision_s.p90": (percentile(decisions, 0.9), "s"),
        "session_s.p90": (percentile(measured["session"], 0.9), "s"),
        "submit_ms.p90": (1e3 * percentile(measured["submit"], 0.9), "ms"),
        "cno.p50": (median(cnos), "ratio"),
        "search_cost_usd.p50": (median(costs), "$"),
    }
    counts = {
        "sessions": len(measured["sessions"]),
        "warm-up sessions": len(measured["warmed"]),
        "decisions": n_decisions,
        "decision_s samples": len(decisions),
        "polls": measured["n_polls"],
        "window_s": window,
        "setups": len(measured["setup"]),
        "threads": measured["threads"],
        "connections": measured["connections"],
    }
    if measured["late"]:
        counts["poll_late_ms.p99"] = 1e3 * percentile(measured["late"], 0.99)
        counts["poll_late_ms.max"] = 1e3 * max(measured["late"])
    if "contender" in measured:
        counts["contender"] = measured["contender"]
    return {
        "metrics": metrics,
        "extra": extra,
        "counts": counts,
        "outcome": outcome,
        "measured": measured,
    }
