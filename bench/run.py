"""Run one workload of the urnwait benchmark and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src. The run
sends the workload's request list in passes, closed loop, until --seconds of
requests have been timed, checks every output outside the timed region, and
prints a readable report followed by one JSON line:

  --trace 0  the end-to-end metrics, measured without tracing;
  --trace 1  one untraced pass, then traced passes, and the per-layer
             metrics with the tracing overhead. Spans are written to
             .bench_out/trace-<workload>.jsonl.

Exit status 0 when the run completed (the JSON line says whether outputs
were correct), 1 without the library's sources, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _import_library():
    if not (SRC / "urnwait" / "__init__.py").is_file():
        sys.exit(f"error: no urnwait package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import urnwait

    if Path(urnwait.__file__).resolve().parent != (SRC / "urnwait").resolve():
        sys.exit(f"error: imported urnwait from {urnwait.__file__}, not {SRC}")
    import urnwait.cli  # noqa: F401  (compiled here, not in a timed set-up)

    return urnwait


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["tables", "simulate", "estimate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    """Run a workload and return the result object that run.py prints last."""
    urnwait = _import_library()
    import harness
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name](seed, reduced)
    exec(wl.warmup, {"urnwait": urnwait})
    setup: list[float] = []
    checker = harness.Checker(wl.requests)

    passes: list[list[harness.Outcome]] = []
    statuses: list[str] = []
    cli_bytes = 0
    rss_after_first_pass = None

    def one_pass():
        nonlocal cli_bytes, rss_after_first_pass
        base = len(passes) * len(wl.requests)
        outcomes = harness.run_pass(
            wl.requests, None if tracer is None else lambda i: setattr(tracer, "request", base + i)
        )
        # Each pass does the same work, so the peak after the first pass is
        # the workload's, whatever the number of passes. Later passes would
        # only add what the c=5000 probes grow the log-factorial table by.
        if rss_after_first_pass is None:
            rss_after_first_pass = harness.peak_rss_mb()
        statuses.extend(checker.verdicts(outcomes))  # outside the timed region
        if tracer is not None:
            cli_bytes += sum(
                len(o.output.out.encode()) for o in outcomes
                if isinstance(o.output, harness.CliResult)
            )
        for o in outcomes:
            o.output = None
        passes.append(outcomes)
        # Set-up samples are taken between passes, so that they fall at
        # different moments of the run like the passes do.
        if not trace and len(setup) < SETUP_REPEATS:
            setup.extend(harness.measure_setup(str(SRC), wl.warmup, 1))
        return sum(o.latency for o in outcomes)

    tracer = None
    untraced = one_pass() if trace else None
    if trace:
        tracer = Tracer()
        tracer.install()
        passes.clear()
    try:
        timed = 0.0
        while timed < seconds or not passes:
            timed += one_pass()
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not trace and len(setup) < SETUP_REPEATS:
        setup.extend(harness.measure_setup(str(SRC), wl.warmup, SETUP_REPEATS - len(setup)))
    # Figures per pass, averaged over the passes. The machine's speed swings
    # by up to 2x for seconds at a time; a median pooled over the whole run
    # jumps with the share of the run spent slow, a mean moves in proportion.
    wall = statistics.fmean(sum(o.latency for o in p) for p in passes)
    attempted = len(statuses)
    failed = sum(s != harness.OK for s in statuses)
    correct = not any(s in (harness.WRONG, harness.ERROR) for s in statuses)

    print(f"workload {name}, seed {seed}: {len(passes)} {'traced ' if trace else ''}passes of "
          f"{len(wl.requests)} requests, closed loop, 1 client")
    for status in (harness.DEADLINE, harness.ERROR, harness.WRONG):
        n = statuses.count(status)
        if n:
            print(f"  {n} requests {status}")

    if trace:
        entries = len(urnwait.kernel._LOG_FACT)
        metrics = tracer.metrics(len(passes), entries, cli_bytes)
        metrics["trace.wall_s"] = wall
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead"] = wall / untraced
        # Calibrated cost of one aggregated wrapper, taken out of self times.
        call_in, call_out = tracer.call_cost()
        metrics["trace.call_in_ns"] = call_in * 1e9
        metrics["trace.call_out_ns"] = call_out * 1e9
        tracer.write_spans(ROOT / ".bench_out" / f"trace-{name}.jsonl")
        units = _units("per_layer")
    else:
        cuts = [statistics.quantiles([o.latency for o in p], n=100, method="inclusive")
                for p in passes]
        p50 = statistics.fmean(c[49] for c in cuts)
        p99 = statistics.fmean(c[98] for c in cuts)
        outcomes = [o for p in passes for o in p]
        for q in (0.50, 0.99):
            cls, lo, hi = harness.percentile_class(outcomes, q)
            print(f"  p{q * 100:.0f} falls in {cls} (ranks {lo:.3f}..{hi:.3f})")
        print(f"  fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted})")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "req_p50_ms": p50 * 1e3,
            "req_p99_ms": p99 * 1e3,
            "max_relerr": wl.worst_relerr,
            "peak_rss_mb": rss_after_first_pass,
        }
        units = _units("end_to_end")
    for k, v in metrics.items():
        print(f"  {k:<42} {v:.6g} {units.get(k, '')}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
