"""The process that runs a workload's jobs: one closed-loop client calling
``limitops.cli.main``, each call starting only after the last returned.

Usage: python3 perfbench/worker.py

It reads one JSON command per line on standard input and answers each with
one JSON line on standard output; whatever the CLI itself prints goes to
standard error. Commands:

* ``{"op": "job", "argv": [...], "out": PATH}``: one CLI call with
  ``--out PATH``; answers its start and end (``time.monotonic``), seconds,
  exit code, and traceback if it raised.
* ``{"op": "cpus", "cpus": [...]}``: run on these cores from now on.
* ``{"op": "trace", "on": true}`` / ``false``: install or remove the tracer.
* ``{"op": "layers"}``: the tracer's totals since the last ``layers`` or
  ``trace`` command, which resets them.
* ``{"op": "exit"}``: the lane and the peak resident memory of this
  process; then it exits.

Payloads stay on disk for the caller to check, so checking never inflates
this process's memory.
"""

import json
import os
import resource
import sys
import time
import traceback

import numpy
import scipy

import limitops._kernels
import limitops.cli
from tracing import Tracer


def run_job(argv, out):
    t0 = time.monotonic()
    error = None
    try:
        code = limitops.cli.main(argv + ["--out", out])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing job is a failed job, not a failed benchmark
        code = None
        error = traceback.format_exc(limit=-3)
    t1 = time.monotonic()
    return {"t0": t0, "t1": t1, "seconds": t1 - t0, "code": code, "error": error}


def main():
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    tracer = None
    while True:
        line = sys.stdin.readline()
        if not line:
            return 1
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "job":
            reply = run_job(cmd["argv"], cmd["out"])
        elif op == "cpus":
            os.sched_setaffinity(0, cmd["cpus"])
            reply = {}
        elif op == "trace":
            if tracer is not None:
                tracer.remove()
                tracer = None
            if cmd["on"]:
                tracer = Tracer()
                tracer.install()
            reply = {}
        elif op == "layers":
            reply = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                     "count": dict(tracer.count), "peak": dict(tracer.peak)}
            tracer.reset()
        elif op == "exit":
            replies.write(json.dumps({
                "lane": {"numba": bool(limitops._kernels.USING_NUMBA),
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }) + "\n")
            return 0
        else:
            raise ValueError(f"unknown command {op!r}")
        replies.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    sys.exit(main())
