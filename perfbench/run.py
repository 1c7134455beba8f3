"""Benchmark of the chdf solver: one workload, one seed, one run.

Usage (from the repository root):

  python3 perfbench/run.py --workload stripe-64 --seed 1 --seconds 40 --trace 0

Every instance is a fresh process (perfbench/worker.py) running `chdf run`
or `chdf steady` in-process through `chdf.cli.main` on inputs generated from
the seed (perfbench/workloads.py).  Instances repeat until the next one would
end after --seconds.  Each instance's outputs are checked
(perfbench/checks.py); a nonzero exit, a raised error or a failed check
counts as a failed run.

--trace 0 reports the end-to-end metrics from untraced instances.
--trace 1 alternates untraced and traced instances and reports per-layer
metrics from the traced ones (perfbench/tracing.py), plus the tracing
overhead on run_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment
and the sample counts.  Scratch files go under .perfbench_work/ in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

DEADLINE_S = 165.0        # a run must end within 180 s
MIN_SETUP_SAMPLES = 5
PINNED_THREADS = {
    "CHDF_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = {"setup_s": "s", "step_ms.p50": "ms", "step_ms.p90": "ms",
              "run_s": "s", "peak_rss_mb": "MiB"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_references(workload: str, seed: int) -> dict:
    """Stored outputs of one seed, keyed by input index ("0", "1", ...)."""
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        by_seed = json.load(fh).get(workload, {})
    return by_seed.get("any", by_seed.get(str(seed), {}))


class Bench:
    """Runs, checks and times the instances of one benchmark run."""

    def __init__(self, wl: workloads.Workload, seed: int, workdir: str):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.t0 = clock()
        self.references = load_references(wl.name, seed)
        self.env = {**os.environ, **PINNED_THREADS}
        self.attempted = 0
        self.failures: list[str] = []
        self.configs: dict[int, str] = {}
        self.first_output: dict[int, dict] = {}   # per input, first good run
        self.count = 0
        from chdf.driver import read_snapshot   # after the source check
        self.read_snapshot = read_snapshot

    def remaining(self) -> float:
        return DEADLINE_S - (clock() - self.t0)

    def config(self, k: int) -> str:
        if k not in self.configs:
            self.configs[k] = workloads.write_inputs(
                self.wl, self.seed, k, os.path.join(self.workdir, f"input{k}"))
        return self.configs[k]

    def instance(self, mode: str, k: int) -> dict | None:
        """Run one worker on input k; return its report, or None if it failed."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}-input{k}"
        outdir = os.path.join(self.workdir, tag)
        os.makedirs(outdir)
        job = {"src": SRC, "mode": mode, "report": os.path.join(outdir, "report.json"),
               "argv": [self.wl.command, self.config(k), "--output-dir", outdir]}
        job_path = os.path.join(outdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        self.attempted += 1
        t_spawn = clock()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return self._fail(tag, "timed out")
        try:
            with open(job["report"], encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return self._fail(tag, f"no report, exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
        if proc.returncode != 0 or report["rc"] != 0:
            return self._fail(tag, f"exit {proc.returncode}/{report['rc']}: "
                              f"{(report['error'] or proc.stderr).strip()[-300:]}")
        bounds = self._boundaries(report)
        if not bounds:
            return self._fail(tag, "no step boundary was reached")
        report["setup_s"] = bounds[0] - t_spawn
        if mode != "setup":
            problems = self._check(outdir, proc.stdout, k)
            if problems:
                return self._fail(tag, "; ".join(problems[:5]))
            report["steps_ms"] = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
            report["run_s"] = bounds[-1] - bounds[0]
        shutil.rmtree(outdir)
        return report

    def _boundaries(self, report: dict) -> list[float]:
        """Step boundaries: first step start, each later step start, return.

        For `chdf steady` a step is one Newton iteration of the stationary
        solve: the first starts at the solve, later ones at their linear
        solve.
        """
        if report.get("trace"):
            keys = report["trace"]["keys"]
            first = "step.step" if self.wl.command == "run" else "diagnostics.stationary"
            marks = [s[1] for s in report["trace"]["spans"] if keys[s[0]] == first][:1]
        elif self.wl.command == "run":
            marks = report["marks"]
        else:
            marks = report["marks"][:1] + report["krylov_marks"][1:]
        return marks + [report["t_return"]] if marks else []

    def _check(self, outdir: str, stdout: str, k: int) -> list[str]:
        wl = self.wl
        reference = self.references.get(str(k))
        mean0 = None
        if wl.name != "stripe-64":
            phi, psi = workloads.initial_fields(wl, self.seed, k)
            mean0 = (float(phi.mean()), float(psi.mean()))
        if wl.command == "run":
            problems, final = checks.check_run_outputs(
                outdir, wl.steps, mean0, self.read_snapshot)
            if final is not None and reference is not None:
                problems += checks.compare_ledger_row(final, reference)
        else:
            problems, final = checks.check_steady_outputs(
                outdir, stdout, mean0, workloads.DOMAIN, workloads.SEEDED_MODEL,
                self.read_snapshot)
            if final is not None and reference is not None:
                problems += checks.compare_steady(final, reference)
        if final is not None and not problems:
            # Same input, same program: every instance must agree exactly.
            first = self.first_output.setdefault(k, final)
            if final != first:
                problems.append("output differs from an earlier instance on this input")
        return problems

    def _fail(self, tag: str, why: str):
        self.failures.append(f"{tag}: {why}")
        return None

    def repeat(self, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
        """Run rounds of `modes` while the next round is expected to fit."""
        rounds: list[list[dict]] = []
        start = clock()
        while True:
            t = clock()
            k = len(rounds) % self.wl.inputs
            got = [self.instance(m, k) for m in modes]
            took = clock() - t
            if any(r is None for r in got):
                break
            rounds.append(got)
            elapsed = clock() - start
            if elapsed + took > seconds or self.remaining() < 2.0 * took:
                break
        return rounds


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    plain = [r[0] for r in bench.repeat(("plain",), seconds)]
    setups = [r["setup_s"] for r in plain]
    while plain and len(setups) < MIN_SETUP_SAMPLES and bench.remaining() > 10.0:
        probe = bench.instance("setup", len(setups) % bench.wl.inputs)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    if not plain:
        return {}, {}
    steps = [ms for r in plain for ms in r["steps_ms"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "step_ms.p50": statistics.median(steps),
        "step_ms.p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
        "run_s": statistics.median(r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["maxrss_kib"] / 1024.0 for r in plain),
    }
    samples = {"instances": len(plain), "setup_samples": len(setups),
               "step_samples": len(steps),
               "steps_beyond_p90": sum(s > metrics["step_ms.p90"] for s in steps),
               "run_s": [r["run_s"] for r in plain]}
    return metrics, samples


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    rounds = bench.repeat(("plain", "trace"), seconds)
    if not rounds:
        return {}, {}
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    totals: dict[str, float] = {}
    for r in traced:
        for k, v in tracing.span_totals(r["trace"]).items():
            totals[k] = totals.get(k, 0.0) + v
    per = (totals.get("step.step.calls", 0.0) if bench.wl.command == "run"
           else float(len(traced)))
    overhead = (statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain) - 1.0)
    metrics = tracing.layer_metrics(totals, max(per, 1.0), overhead)
    return metrics, {"instances": len(traced), "normalised_per": per,
                     "spans": sum(len(r["trace"]["spans"]) for r in traced)}


def environment() -> dict:
    import numpy
    import scipy
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(), "cpus_usable": affinity,
        "threads": PINNED_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "note": ("A 128x128 float64 field is 128 KiB and a 64x64 one 32 KiB, "
                 "far below the last-level cache, so no bandwidth or roofline "
                 "metric is taken; byte counts are computed from array sizes, "
                 "not measured."),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chdf", "__init__.py")):
        print(f"perfbench: no chdf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    bench = Bench(wl, args.seed, workdir)
    if args.trace:
        values, samples = per_layer(bench, args.seconds)
        units = tracing.LAYER_METRICS
    else:
        values, samples = end_to_end(bench, args.seconds)
        units = END_TO_END
    failed = len(bench.failures)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "references": sorted(bench.references),
        "failed_frac": failed / max(bench.attempted, 1),
        "failures": bench.failures, "samples": samples,
        "environment": environment(),
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
