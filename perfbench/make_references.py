"""Record the reference outputs the benchmark checks runs against.

Usage (from the repository root):

  python3 perfbench/make_references.py --seeds 0-63 [--out FILE]

Runs each workload once per seed on the current sources, with the same
output checks as a benchmark run minus the reference comparison, and
updates FILE (default perfbench/references.json) with the final ledger row
(time loops) or the printed stationary values (steady).  stripe-64 has no
random input and is stored once under "any".  Seeds without a stored
reference are still checked against every invariant in checks.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range a-b")
    parser.add_argument("--out", default=os.path.join(HERE, "references.json"))
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)

    refs = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            refs = json.load(fh)
    for wl in workloads.WORKLOADS.values():
        seeds = ["any"] if wl.name == "stripe-64" else [str(s) for s in range(lo, hi + 1)]
        for seed in seeds:
            workdir = os.path.join(run.ROOT, ".perfbench_work",
                                   f"reference-{wl.name}-{seed}-{os.getpid()}")
            shutil.rmtree(workdir, ignore_errors=True)
            bench = run.Bench(wl, 0 if seed == "any" else int(seed), workdir)
            bench.references = {}
            for k in range(wl.inputs):
                if bench.instance("plain", k) is None:
                    print(f"{wl.name} seed {seed}: {bench.failures}", file=sys.stderr)
                    return 1
                out = bench.first_output[k]
                if wl.command == "run":
                    out = {name: out[name] for name in checks.LEDGER_CHECKED}
                refs.setdefault(wl.name, {}).setdefault(seed, {})[str(k)] = out
                print(f"{wl.name} seed {seed} input {k}: {out}", flush=True)
            shutil.rmtree(workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
