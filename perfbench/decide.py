"""The ``decide-*`` workloads: the library ask/tell loop, in-process.

``decide-refit`` runs ``LynceusOptimizer()`` with every default (refit
speculation, lookahead 2, K=5, 10 trees) over Scout jobs and cuts each
session after its first post-bootstrap decision.  ``decide-believer`` runs
complete sessions at budget x6 with ``speculation="believer"`` over the five
Scout/CherryPick jobs the service benchmarks use.  The service, gateway and
journal are bypassed.

Each session's exploration trace must equal the one pinned in ``pins.json``
for its job and optimizer seed (see ``pin.py``).
"""

from __future__ import annotations

import json
import random
import time

from common import (
    BENCH_DIR,
    PINS,
    SERVICE_JOBS,
    SETUP_REPEATS,
    BenchError,
    Outcome,
    median,
    percentile,
    self_peak_rss_mb,
    timed_setup_child,
)

#: Scout jobs whose first refit decision ``decide-refit`` (and the
#: ``serve-contended`` contender) draws from.
REFIT_JOBS = (
    "scout-hadoop-wordcount",
    "scout-hadoop-sort",
    "scout-hadoop-terasort",
    "scout-hadoop-kmeans",
    "scout-hadoop-bayes",
    "scout-hadoop-pagerank",
    "scout-hadoop-nutchindexing",
    "scout-hadoop-join",
    "scout-hadoop-scan",
    "scout-hadoop-aggregation",
    "scout-spark-als",
    "scout-spark-kmeans",
    "scout-spark-lr",
    "scout-spark-pagerank",
    "scout-spark-terasort",
    "scout-spark-sort",
    "scout-spark-wordcount",
    "scout-spark-naive-bayes",
)
REFIT_SEEDS = (0,)
#: Post-bootstrap decisions after which a ``decide-refit`` session is cut.
REFIT_CUT = 1

BELIEVER_SEEDS = tuple(range(8))
BELIEVER_BUDGET_MULTIPLIER = 6.0

#: ``start()`` and progress reads take about a millisecond and a microsecond,
#: and on this kind of shared VM such short operations run up to 2x faster
#: for stretches of seconds.  So each set-up process times them for this many
#: planned sessions (all of decide-refit's pool), the set-up processes run
#: both before and after the window, and each figure is the median over the
#: processes of that process's percentile.  ``start()`` is the median of
#: SUBMIT_REPEATS fresh optimizers; POLL_REPEATS progress reads follow each,
#: after one untimed read.
SUBMIT_SESSIONS = len(REFIT_JOBS)
#: Set-up processes run before the window; the rest run after it.
SETUPS_BEFORE = 3
SUBMIT_REPEATS = 5
POLL_REPEATS = 20

MODES = {
    "decide-refit": {"params": {}, "budget_multiplier": 3.0, "cut": REFIT_CUT},
    "decide-believer": {
        "params": {"speculation": "believer"},
        "budget_multiplier": BELIEVER_BUDGET_MULTIPLIER,
        "cut": None,
    },
}


def pin_key(job: str, seed: int) -> str:
    return f"{job}/{seed}"


def trace_of(observations) -> list:
    """An exploration trace in its JSON form (what ``pins.json`` stores)."""
    return json.loads(
        json.dumps(
            [
                [o.config.as_dict(), o.cost, o.runtime_seconds, o.timed_out, o.bootstrap]
                for o in observations
            ]
        )
    )


def plan(workload: str, seed: int, n: int) -> list[tuple[str, int]]:
    """The first ``n`` ``(job, optimizer seed)`` sessions of a run."""
    rng = random.Random(f"{workload}/{seed}")
    sessions: list[tuple[str, int]] = []
    if workload == "decide-refit":
        pool = [(job, s) for job in REFIT_JOBS for s in REFIT_SEEDS]
        while len(sessions) < n:
            rng.shuffle(pool)
            sessions.extend(pool)
    else:
        # Whole rounds, one session per job, so every run sees the same mix.
        while len(sessions) < n:
            jobs = list(SERVICE_JOBS)
            rng.shuffle(jobs)
            sessions.extend((job, rng.choice(BELIEVER_SEEDS)) for job in jobs)
    return sessions[:n]


def make_optimizer(workload: str):
    from repro import LynceusOptimizer

    return LynceusOptimizer(**MODES[workload]["params"])


def progress_snapshot(state) -> dict:
    """What a status poll reports about a live session (no service involved)."""
    return {
        "n_explorations": state.n_explorations,
        "budget_spent": state.budget_spent,
        "budget_remaining": state.budget_remaining,
        "n_untested": state.optimizer_state.n_untested,
        "decisions": len(state.decision_seconds),
        "phase_seconds": state.phase_timings.as_dict(),
    }


def timed_polls(state, polls: list[float]) -> None:
    # The first read after start() is ~4x slower and swings 2x from process
    # to process; it stays untimed so that p99 is not a draw from it.
    progress_snapshot(state)
    for _ in range(POLL_REPEATS):
        began = time.perf_counter()
        progress_snapshot(state)
        polls.append(time.perf_counter() - began)


def start_options(workload: str, seed: int) -> dict:
    return {"budget_multiplier": MODES[workload]["budget_multiplier"], "seed": seed}


def time_submits(workload: str, jobs: dict, sessions) -> tuple[list[float], list[float]]:
    """``start()`` times (median of fresh optimizers) and progress reads per session."""
    submits: list[float] = []
    polls: list[float] = []
    for job_name, seed in sessions:
        starts = []
        for _ in range(SUBMIT_REPEATS):
            optimizer = make_optimizer(workload)
            began = time.perf_counter()
            state = optimizer.start(jobs[job_name], **start_options(workload, seed))
            starts.append(time.perf_counter() - began)
        submits.append(median(starts))
        timed_polls(state, polls)
    return submits, polls


def run_session(workload: str, job, seed: int, tracer=None) -> dict:
    """One session: ``start``, then ask/tell until done or cut."""
    mode = MODES[workload]
    optimizer = make_optimizer(workload)
    began = time.perf_counter()
    state = optimizer.start(job, **start_options(workload, seed))
    decisions: list[float] = []
    while True:
        bootstrap = bool(state.bootstrap_queue)
        asked = time.perf_counter()
        config = optimizer.ask(state)
        elapsed = time.perf_counter() - asked
        if config is None:
            break
        if not bootstrap:
            decisions.append(elapsed)
            if tracer is not None:
                tracer.mark_decision(asked, asked + elapsed)
        optimizer.tell(state, job.run(config))
        if mode["cut"] is not None and len(decisions) >= mode["cut"]:
            break
    session_s = time.perf_counter() - began
    result = optimizer.finish(state)
    return {
        "session_s": session_s,
        "decisions": decisions,
        "trace": trace_of(state.optimizer_state.observations),
        "cno": result.cno(job.optimal_cost(result.tmax)),
        "search_cost": result.budget_spent,
        "phases": dict(state.phase_timings.seconds),
    }


def setup_code(workload: str, sessions: list[tuple[str, int]]) -> str:
    """A fresh process: set up the first session, then time submits and polls."""
    params = MODES[workload]["params"]
    multiplier = MODES[workload]["budget_multiplier"]
    job, seed = sessions[0]
    return (
        "from repro import LynceusOptimizer, load_job\n"
        f"job = load_job({job!r})\n"
        f"optimizer = LynceusOptimizer(**{params!r})\n"
        f"state = optimizer.start(job, budget_multiplier={multiplier!r}, seed={seed!r})\n"
        "optimizer.ask(state)\n"
        "print('ready', flush=True)\n"
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import decide\n"
        f"sessions = {sessions!r}\n"
        "jobs = {name: load_job(name) for name, _ in sessions}\n"
        f"print(json.dumps(decide.time_submits({workload!r}, jobs, sessions)))\n"
    )


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Run one ``decide-*`` workload; returns metrics, outcome and notes."""
    from repro import load_job

    pins = json.loads(PINS.read_text())[workload]
    sessions = plan(workload, seed, 200)
    code = setup_code(workload, sessions[:SUBMIT_SESSIONS])
    children = [timed_setup_child(code) for _ in range(SETUPS_BEFORE)]
    jobs = {name: load_job(name) for name in {job for job, _ in sessions}}
    outcome = Outcome()
    records = []
    started = time.perf_counter()
    for index, (job_name, opt_seed) in enumerate(sessions):
        if index % _round(workload) == 0 and time.perf_counter() - started >= seconds:
            break
        try:
            record = run_session(workload, jobs[job_name], opt_seed, tracer)
        except Exception as error:  # a failed session is counted, not fatal
            outcome.fail("session", f"{job_name}/{opt_seed}: {error!r}")
            continue
        record["key"] = pin_key(job_name, opt_seed)
        records.append(record)
    window = time.perf_counter() - started
    children += [timed_setup_child(code) for _ in range(SETUP_REPEATS - SETUPS_BEFORE)]
    setup = [elapsed for elapsed, _ in children]
    timed = [json.loads(printed) for _, printed in children]
    for record in records:
        pinned = pins.get(record["key"])
        if pinned is None:
            raise BenchError(f"no pinned trace for {record['key']}; run perfbench/pin.py")
        if record["trace"] != pinned:
            outcome.mismatch("session", f"{record['key']}: trace differs from its pin")
        outcome.ok("session")
    decisions = [d for record in records for d in record["decisions"]]
    outcome.ok("decision", len(decisions))
    outcome.ok("submit", sum(len(submits) for submits, _ in timed))
    outcome.ok("poll", sum(len(polls) for _, polls in timed))

    def across(which: int, q: float) -> float:
        """Median over the set-up processes of one process's ``q``-quantile."""
        return median([percentile(child[which], q) for child in timed])

    if not decisions:
        raise BenchError("no decision completed in the window")
    metrics = {
        "setup_s": (median(setup), "s"),
        "decisions_per_s": (len(decisions) / window, "1/s"),
        "sessions_per_s": (len(records) / window, "1/s"),
        "session_s.p50": (median([r["session_s"] for r in records]), "s"),
        "submit_ms.p50": (1e3 * across(0, 0.5), "ms"),
        "poll_ms.p50": (1e3 * across(1, 0.5), "ms"),
        "poll_ms.p99": (1e3 * across(1, 0.99), "ms"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    extra = {
        "decision_s.p50": (median(decisions), "s"),
        "decision_s.p90": (percentile(decisions, 0.9), "s"),
        "session_s.p90": (percentile([r["session_s"] for r in records], 0.9), "s"),
        "submit_ms.p90": (1e3 * across(0, 0.9), "ms"),
        "cno.p50": (median([r["cno"] for r in records]), "ratio"),
        "search_cost_usd.p50": (median([r["search_cost"] for r in records]), "$"),
    }
    counts = {
        "sessions": len(records),
        "decisions": len(decisions),
        "polls": sum(len(polls) for _, polls in timed),
        "window_s": window,
        "threads": 1,
        "connections": 0,
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "counts": counts,
        "outcome": outcome,
        "records": records,
    }


def _round(workload: str) -> int:
    """Sessions per round: believer runs whole rounds over its five jobs."""
    return len(SERVICE_JOBS) if workload == "decide-believer" else 1
