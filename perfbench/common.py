"""Shared plumbing for the benchmark: paths, statistics, child processes, output.

Every path the benchmark touches lives inside the checkout it runs from:
the program under ``src/``, the benchmark under ``perfbench/`` and scratch
files (journals, bytecode cache, trace dumps) under ``.perfbench_tmp/``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
PINS = BENCH_DIR / "pins.json"

#: Children must not write bytecode into ``src/``: the cache goes here.
PYCACHE = TMP / "pycache"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The five Scout/CherryPick jobs the service benchmarks use.
SERVICE_JOBS = (
    "scout-spark-kmeans",
    "scout-hadoop-wordcount",
    "scout-spark-pagerank",
    "cherrypick-tpch",
    "cherrypick-tpcds",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead server, ...)."""


def require_program() -> None:
    """Fail before measuring anything when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    # The server's "listening on" line must reach its stdout file at once.
    env["PYTHONUNBUFFERED"] = "1"
    # Users run with warm bytecode; keep it warm here too, under TMP.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Measure the program's defaults, whatever the caller's environment says.
    env.pop("REPRO_OBSERVABILITY", None)
    return env


def run_dir(tag: str) -> Path:
    """A fresh scratch directory for one run, removed by :func:`cleanup`."""
    path = TMP / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics -----------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``; NaN when empty."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = q * (len(data) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 0.5)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- child processes ------------------------------------------------------------
def stop_process(proc: subprocess.Popen, *, grace_s: float = 30.0,
                 interrupts: int = 3) -> int:
    """Interrupt a child, wait for it, and kill it if it will not stop.

    SIGINT is the CLI's clean-shutdown path.  It is sent up to ``interrupts``
    times, ``grace_s / interrupts`` apart: the threaded gateway swallows a
    SIGINT that lands while it is starting a handler thread (see
    ``perfbench/README.md``, defect 3), as pressing Ctrl-C once can be.
    """
    for _ in range(interrupts):
        if proc.poll() is not None:
            break
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s / interrupts)
        except subprocess.TimeoutExpired:
            continue
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    return proc.returncode


def timed_setup_child(code: str, *, timeout_s: float = 60.0) -> tuple[float, str]:
    """Seconds from spawning ``python -c code`` until it prints ``ready``.

    Returns them with whatever the child printed after that line.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        rest, errors = proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed: {errors[-2000:]}")
    return elapsed, rest


# -- output -----------------------------------------------------------------------
class Outcome:
    """Attempted/failed operation counts per route plus failure messages."""

    def __init__(self) -> None:
        self.routes: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def ok(self, route: str, n: int = 1) -> None:
        self.routes.setdefault(route, [0, 0])[0] += n

    def fail(self, route: str, message: str) -> None:
        counts = self.routes.setdefault(route, [0, 0])
        counts[0] += 1
        counts[1] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{route}: {message}")

    def mismatch(self, route: str, message: str) -> None:
        """A completed operation whose output failed its correctness check."""
        self.routes.setdefault(route, [0, 0])[1] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{route}: {message}")

    @property
    def attempted(self) -> int:
        return sum(counts[0] for counts in self.routes.values())

    @property
    def failed(self) -> int:
        return sum(counts[1] for counts in self.routes.values())

    def report_lines(self) -> list[str]:
        lines = ["route                      attempted  completed  failed"]
        for route, (attempted, failed) in sorted(self.routes.items()):
            lines.append(
                f"{route:<26} {attempted:>9}  {attempted - failed:>9}  {failed:>6}"
            )
        lines.extend(f"FAILED {message}" for message in self.errors)
        return lines


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    """``rows`` are ``(name, value, unit, note)``."""
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {unit:<6} {note}")


def emit_result(correct: bool, outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> None:
    """The last line of stdout: the machine-readable result."""
    payload = {
        "correct": bool(correct),
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)
