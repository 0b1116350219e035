"""The repo benchmark: one command, four workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decide-refit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
the workload untraced, then again with span wrappers around the public
calls into every layer, each for half of ``--seconds`` (so a traced run
takes about as long as an untraced one), and prints the per-layer table, the
tracing overhead (traced minus untraced) and the two trace cross-checks.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md`` for what each workload exercises.
"""

from __future__ import annotations

import argparse
import signal
import sys

import common

# Bytecode for the program goes under .perfbench_tmp/, never into src/.
sys.pycache_prefix = str(common.PYCACHE)
sys.dont_write_bytecode = False

WORKLOADS = ("decide-refit", "decide-believer", "serve-churn", "serve-contended")
HEADLINE = {
    "decide-refit": "session_s.p50",
    "decide-believer": "session_s.p50",
    "serve-churn": "session_s.p50",
    "serve-contended": "poll_ms.p99",
}


def run_workload(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    if workload.startswith("decide-"):
        import decide

        return decide.run(workload, seed, seconds, tracer)
    import serve

    return serve.run(workload, seed, seconds, tracer)


def report(workload: str, seed: int, result: dict, title: str) -> None:
    outcome = result["outcome"]
    counts = result["counts"]
    rows = [(name, value, unit, "") for name, (value, unit) in result["metrics"].items()]
    rows += [(name, value, unit, "(not bounded)") for name, (value, unit) in result["extra"].items()]
    rows.append(("failed_share", outcome.failed / max(1, outcome.attempted), "ratio",
                 f"{outcome.failed}/{outcome.attempted}"))
    common.print_table(f"{title}: {workload} seed={seed}", rows)
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for line in outcome.report_lines():
        print("  " + line)


def layer_context(workload: str, result: dict) -> dict:
    """What the layer analysis needs from the workload's own observations."""
    if workload.startswith("decide-"):
        phases: dict[str, float] = {}
        for record in result["records"]:
            for name, value in record["phases"].items():
                phases[name] = phases.get(name, 0.0) + value
        return {"decisions": result["counts"]["decisions"], "phases": phases}
    measured = result["measured"]
    context = {
        "phases": measured["phases"],
        "decisions": measured["decisions_total"],
        "journal_tells": measured["journal_tells"],
        "journal_tell_bytes": measured["journal_tell_bytes"],
        "polls_per_session": measured["polls_per_session"],
        "poll_change_ratio": measured["poll_change_ratio"],
    }
    if "poll_samples" in measured:
        context["poll_intervals"] = [(s["due"], s["done"]) for s in measured["poll_samples"]]
    return context


def traced(workload: str, seed: int, seconds: float) -> int:
    import tracing

    seconds /= 2  # the untraced reference and the traced run share the window
    plain = run_workload(workload, seed, seconds)
    report(workload, seed, plain, "untraced")
    recorder = tracing.Recorder()
    if workload.startswith("decide-"):
        tracing.install(recorder, server=False)
    result = run_workload(workload, seed, seconds, recorder)
    report(workload, seed, result, "traced")
    server = result.get("measured", {}).get("server_spans")
    metrics, rows = tracing.layer_report(
        recorder.spans, server, layer_context(workload, result)
    )
    headline = HEADLINE[workload]
    metrics["trace.overhead_share"] = (
        result["metrics"][headline][0] / plain["metrics"][headline][0] - 1.0
    )
    print("== per-layer (busy = span time, self = minus child spans)")
    print(f"  {'layer':<10} {'spans':>8} {'busy_s':>12} {'self_s':>12}")
    for layer, count, busy, own in rows:
        shown = f"{own:12.4f}" if own is not None else f"{'(spans gateway+server)':>12}"
        print(f"  {layer:<10} {count:>8} {busy:12.4f} {shown}")
    common.print_table(
        "per-layer metrics",
        [(name, float(metrics[name]), unit, "") for name, unit in tracing.PER_LAYER.items()],
    )
    print("== tracing overhead (traced - untraced)")
    for name, (value, unit) in plain["metrics"].items():
        delta = result["metrics"][name][0] - value
        print(f"  {name:<20} {value:12.6g} -> {result['metrics'][name][0]:12.6g} {unit:<5} "
              f"delta {delta:+.6g}")
    checks = []
    if workload == "decide-refit":
        share = metrics["check.tree_fit_share_of_decision"]
        checks.append(f"tree_fit share of decision time {share:.3f} (>= 0.80: "
                      f"{'PASS' if share >= 0.8 else 'FAIL'})")
    if workload.startswith("serve-"):
        share = metrics["check.tree_fit_share_of_decision"]
        checks.append(f"tree_fit share of scheduler-thread ask time {share:.3f} (reported)")
    if workload == "serve-contended":
        share = metrics["check.slow_polls_overlapping_ask"]
        checks.append(f"slowest polls overlapping a scheduler-thread ask {share:.2f} "
                      f"(== 1: {'PASS' if share == 1.0 else 'FAIL'})")
    for line in checks:
        print("== cross-check: " + line)
    outcome = common.Outcome()
    for part in (plain["outcome"], result["outcome"]):
        for route, (attempted, failed) in part.routes.items():
            counts = outcome.routes.setdefault(route, [0, 0])
            counts[0] += attempted
            counts[1] += failed
    common.emit_result(
        outcome.failed == 0,
        outcome,
        {name: (float(metrics[name]), unit) for name, unit in tracing.PER_LAYER.items()},
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Servers are stopped with SIGINT, the CLI's clean-shutdown path.  A
    # shell that starts this command in the background ignores SIGINT, and
    # children inherit an ignored signal; a handled one is reset on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        common.require_program()
        common.TMP.mkdir(parents=True, exist_ok=True)
        if args.trace:
            return traced(args.workload, args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds)
    except common.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, result, "untraced")
    outcome = result["outcome"]
    common.emit_result(outcome.failed == 0, outcome, result["metrics"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
