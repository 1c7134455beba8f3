"""One fresh process running one `chdf` subcommand in-process.

Usage: python3 perfbench/worker.py JOB.json

The job names the source tree, the subcommand argv, a mode and a report
path.  Modes:

  plain  one monotonic clock read per step at the driver->step boundary
         (for `chdf steady`: at the stationary solve and at each Newton
         linear solve); nothing else is instrumented.
  setup  as plain, but stops the process at the first boundary.
  trace  wraps the public functions of every chdf module in spans
         (see tracing.py) and writes the spans out when the command ends.

All clocks are CLOCK_MONOTONIC, which is shared between processes, so the
parent can subtract the time it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _StopAtFirstStep(Exception):
    pass


def _boundary_clock(marks: list, fn, stop: bool):
    def timed(*args, **kwargs):
        marks.append(clock())
        if stop:
            raise _StopAtFirstStep
        return fn(*args, **kwargs)
    return timed


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from chdf import cli, diagnostics, driver

    mode = job["mode"]
    marks: list[float] = []
    krylov_marks: list[float] = []
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer(clock)
        tracing.install(tracer)
    elif job["argv"][0] == "run":
        driver.coupled_time_step = _boundary_clock(
            marks, driver.coupled_time_step, mode == "setup")
    else:
        diagnostics.stationary_solve = _boundary_clock(
            marks, diagnostics.stationary_solve, mode == "setup")
        diagnostics._krylov_solve = _boundary_clock(
            krylov_marks, diagnostics._krylov_solve, False)

    error = ""
    t_start = clock()
    try:
        rc = cli.main(job["argv"])
    except _StopAtFirstStep:
        rc = 0
    except Exception:  # the parent counts this run as failed
        rc = 1
        error = traceback.format_exc()
    t_return = clock()
    sys.stdout.flush()

    report = {
        "rc": rc, "error": error, "t_start": t_start, "t_return": t_return,
        "marks": marks, "krylov_marks": krylov_marks,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
