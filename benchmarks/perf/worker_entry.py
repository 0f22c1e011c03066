"""Start the documented ``python -m repro worker <url>`` for the redis arm.

A pass-through: the only thing it adds is that, with ``--trace-out FILE``,
the benchmark's wrappers are installed first and the worker's spans are
written to FILE when it exits — the worker's half of every turn.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[1])  # the `perf` package's parent

from perf import adapter  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("url")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    adapter.ensure_importable()
    recorder = None
    if args.trace_out is not None:
        from perf import trace

        recorder = trace.Recorder()
        trace.install(recorder, adapter.TARGETS, adapter.HOOKS)
    try:
        return adapter.worker_main(["worker", args.url])
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
