"""Steadiness report: run every workload in two sets of seeded runs and
compare the sets.

    python3 bench/steadiness.py [--out bench/baseline.json]

There are two sets of ten runs for every workload in BENCHMARK.json, with
seeds 1, 2, 3, ... in the order the runs are made. Each run is
`bench/run.py --trace 0` in a fresh process with its own seed, workloads
interleaved so that a slow spell of the machine touches all of them.
For every end-to-end metric and workload the report prints each set's
median and quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median, and the metric's bound from BENCHMARK.json. It flags:

  UNRESOLVED  a set whose spread is wider than the bound: a change of that
              size in this metric cannot be told from noise;
  DRIFT       a second set whose median is worse than the first set's by
              more than the bound.

With --out it writes the medians and quartiles, the seeds, the request-class
mix, the interpreter version, the assert mode and the CPU count as JSON.
Exit status 1 if anything was flagged or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS, RUNS, FIRST_SEED = 2, 10, 1


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seeds = {w: [[FIRST_SEED + (s * RUNS + i) * len(names) + k for i in range(RUNS)]
                 for s in range(SETS)] for k, w in enumerate(names)}
    values = {w: [{m: [] for m in e2e} for _ in range(SETS)] for w in names}
    bad_runs = 0
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                seed = seeds[w][s][i]
                res = _run(w, seed, spec["run_seconds"])
                if not res["correct"]:
                    bad_runs += 1
                    print(f"incorrect output: {w} seed {seed}", file=sys.stderr)
                for m in e2e:
                    values[w][s][m].append(res["metrics"][m]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " + ", ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in e2e), file=sys.stderr, flush=True)

    flagged = 0
    report = {}
    print(f"{'workload':<9} {'metric':<12} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  flag")
    for w in names:
        report[w] = {}
        for m, meta in e2e.items():
            sets = [_summary(values[w][s][m]) for s in range(SETS)]
            report[w][m] = {"unit": meta["unit"], "bound": meta["bound"], "sets": sets}
            sign = 1 if meta["better"] == "lower" else -1
            for s, st in enumerate(sets):
                flags = []
                if st["spread"] > meta["bound"]:
                    flags.append("UNRESOLVED")
                base = sets[0]["median"]
                if s and base and sign * (st["median"] - base) / base > meta["bound"]:
                    flags.append("DRIFT")
                flagged += bool(flags)
                print(f"{w:<9} {m:<12} {s + 1:>3} {st['median']:>11.4g} {st['q1']:>11.4g} "
                      f"{st['q3']:>11.4g} {st['spread']:>7.3f} {meta['bound']:>6}  {' '.join(flags)}")
    if args.out:
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(ROOT / "bench"))
        import workloads

        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "asserts": "on" if sys.flags.optimize == 0 else "off",
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "workloads": {
                w: {
                    "why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
                    "seeds": seeds[w],
                    "classes_per_pass": workloads.WORKLOADS[w](seeds[w][0][0]).classes,
                    "metrics": report[w],
                }
                for w in names
            },
        }, indent=1) + "\n")
    return 1 if flagged or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
