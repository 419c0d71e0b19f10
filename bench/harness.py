"""Closed-loop request runner: one process, one thread, one client.

A workload is a fixed list of requests. One pass sends them in order, each
only after the previous one has returned, and times each with a wall clock.
Every request carries a deadline, enforced in-process with an interval
timer, so a request that hangs costs exactly its deadline and the pass goes
on. Outputs are checked after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

OK, DEADLINE, ERROR, WRONG = "ok", "deadline", "error", "wrong"


class DeadlineExceeded(Exception):
    """Raised inside a request by the interval timer."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Request:
    """One call into the library or the CLI.

    check returns None when the output is right, else a short reason. It
    runs outside the timed region.
    """

    cls: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    deadline: float


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """urnwait.cli.main(argv) in-process, with stdout and stderr captured."""
    import urnwait.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = urnwait.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Outcome:
    cls: str
    latency: float
    status: str
    output: object


def run_pass(requests: list[Request], before: Callable[[int], None] | None = None) -> list[Outcome]:
    """Send every request once, in order, and time each one.

    before(i), if given, runs ahead of the i-th request, outside its timing.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    try:
        for i, req in enumerate(requests):
            if before is not None:
                before(i)
            output = None
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, req.deadline)
                    output = req.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = OK
            except DeadlineExceeded:
                status = DEADLINE
            except Exception as exc:  # a request that raises is a failure
                status, output = ERROR, exc
            latency = time.perf_counter() - t0
            if status == DEADLINE:
                latency = req.deadline
            outcomes.append(Outcome(req.cls, latency, status, output))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcomes


def freeze(obj):
    """A hashable, comparable image of an output, for pass-to-pass checks."""
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__,) + tuple(
            freeze(getattr(obj, f)) for f in obj.__dataclass_fields__
        )
    if isinstance(obj, float) and obj != obj:
        return "nan"  # NaN hashes by identity, so two equal outputs would differ
    return obj


class Checker:
    """Checks outputs, fully on first sight and by comparison afterwards.

    Every pass sends the same requests, so an output equal to the one seen
    in an earlier pass for the same request gets that pass's verdict. An
    output that differs is checked again, and also counts as wrong when the
    request is meant to be deterministic, which all of them are.
    """

    def __init__(self, requests: list[Request]):
        self.requests = requests
        self.seen: dict[int, tuple[int, str | None]] = {}

    def verdicts(self, outcomes: list[Outcome]) -> list[str]:
        statuses = []
        for i, (req, oc) in enumerate(zip(self.requests, outcomes)):
            if oc.status != OK:
                statuses.append(oc.status)
                continue
            key = hash(freeze(oc.output))
            if i in self.seen and self.seen[i][0] == key:
                reason = self.seen[i][1]
            else:
                try:
                    reason = req.check(oc.output)
                except Exception as exc:  # a check that cannot run is a failure
                    reason = f"check raised {exc!r}"
                if i in self.seen:
                    reason = reason or "output differs from an earlier pass"
                self.seen[i] = (key, reason)
            if reason is not None:
                print(f"  wrong: {req.cls}: {reason}", file=sys.stderr)
            statuses.append(OK if reason is None else WRONG)
        return statuses


def percentile_class(outcomes: list[Outcome], q: float) -> tuple[str, float, float]:
    """The request class at quantile q of latency, and its span of ranks.

    The span runs from the 5th to the 95th percentile of the ranks, as shares
    of all requests, at which the class appears in latency order. A
    percentile well inside its class's span does not jump between classes
    when the seed changes.
    """
    ordered = sorted(outcomes, key=lambda o: o.latency)
    n = len(ordered)
    cls = ordered[round(q * (n - 1))].cls
    ranks = [i / (n - 1) for i, o in enumerate(ordered) if o.cls == cls]
    return cls, ranks[int(0.05 * len(ranks))], ranks[int(0.95 * (len(ranks) - 1))]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(src: str, warmup: str, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import urnwait and warm up."""
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        f"import urnwait, urnwait.cli; {warmup}"
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times
