"""Regenerate ``pins.json``: the exploration traces the decide-* workloads check.

Run from the root of the checkout::

    python3 perfbench/pin.py            # both workloads
    python3 perfbench/pin.py decide-refit

A pin is the trace (configuration, cost, runtime, timed-out flag, bootstrap
flag per observation) of one ``(job, optimizer seed)`` session, produced by
the same ``run_session`` the benchmark times.  Traces are deterministic, so
pins only change when the optimizer's decisions change -- which the
project's golden-trace invariant forbids.
"""

from __future__ import annotations

import json
import sys
import time

import common
import decide


def main(argv: list[str]) -> int:
    common.require_program()
    from repro import load_job

    workloads = argv or list(decide.MODES)
    pins = json.loads(common.PINS.read_text()) if common.PINS.exists() else {}
    for workload in workloads:
        if workload == "decide-refit":
            pool = [(j, s) for j in decide.REFIT_JOBS for s in decide.REFIT_SEEDS]
        else:
            pool = [(j, s) for j in common.SERVICE_JOBS for s in decide.BELIEVER_SEEDS]
        traces = {}
        for job_name, seed in pool:
            began = time.perf_counter()
            record = decide.run_session(workload, load_job(job_name), seed)
            traces[decide.pin_key(job_name, seed)] = record["trace"]
            print(
                f"{workload} {job_name}/{seed}: {len(record['trace'])} observations, "
                f"decisions {[round(d, 3) for d in record['decisions']][:4]}, "
                f"{time.perf_counter() - began:.1f}s",
                flush=True,
            )
        pins[workload] = traces
        common.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
