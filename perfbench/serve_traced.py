"""``repro serve`` with the campaign-layer spans installed.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/serve_traced.py [repro serve flags]

Installs the wrappers of :mod:`tracing` in the server process before it
forks its workers, so every worker records the layers of the jobs it
executes.  After each job a worker rewrites ``DIR/worker-<pid>.json``
with its cumulative layer totals, its job count and the schedule-cache
size, which the benchmark reads from outside.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out_dir = os.environ["PERFBENCH_TRACE_DIR"]
    tracer = tracing.install()
    tracer.active = True

    from repro.campaigns.engine import schedule_cache_info
    from repro.service import worker

    execute_job = worker.execute_job
    jobs = [0]

    def traced_execute_job(*args, **kwargs):
        try:
            return execute_job(*args, **kwargs)
        finally:
            jobs[0] += 1
            dump = dict(
                tracer.snapshot(),
                jobs=jobs[0],
                schedule_cache=list(schedule_cache_info()),
            )
            path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(dump, handle)
            os.replace(path + ".tmp", path)

    worker.execute_job = traced_execute_job

    from repro.service.cli import main as serve_main

    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
