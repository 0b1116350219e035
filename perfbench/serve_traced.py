"""Launch ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS.json serve --port 0 --journal J

The wrappers record into memory; the spans are written to ``SPANS.json``
once the CLI's ``serve`` returns (after its clean SIGINT shutdown).
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder, server=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
