"""Span tracing at the library's module boundaries, installed from outside.

Each public function of the traced modules is replaced by a wrapper in every
namespace that holds it: its own module, the package, any module that bound
it with ``from ... import``, and module-level dispatch dicts such as
``distributions._PMF``. Nothing in the library changes on disk.

A wrapper times its call and charges the duration to its parent, so each
function's self time is its duration minus the time its traced children
cover. Calls into the hot functions (the kernel and the per-value pmfs,
millions per pass) are only counted and timed in aggregate; every other call
is also kept as a span (id, name, start, end, parent id, request id) and the
spans are written out when the run ends.

The wrappers' own cost is not the program's and is taken out of the self
times. The parent is charged for the child's whole wrapper, up to the end of its
bookkeeping and its hook, which the clock reads see. Two parts no clock
read sees: the wrapper's cost inside the child's t0..t1, taken off the
child, and the call into and out of the wrapper, added to the parent's
charge. Both are calibrated at install on a wrapped no-op, as multiples of
the wrapper's fixed pre-call bookkeeping, which every call times. So the
correction follows the machine's speed from call to call.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "kernel",
    "distributions",
    "modes",
    "approximations",
    "estimation",
    "urn_simulator",
    "cli",
    "_enumeration",
)

# Private functions that are layer boundaries in their own right: the
# __debug__ dual-form check, and the trial loops the CLI imports directly.
EXTRA = {
    "distributions": ("_maxnh_pmf_binom",),
    "urn_simulator": ("_urn_trial", "_bernoulli_trial"),
}

PER_VALUE_PMFS = ("nb_pmf", "maxnb_pmf", "minnb_pmf", "nh_pmf", "maxnh_pmf", "minnh_pmf")

# Aggregated only: called per pmf value or per likelihood point.
HOT = {f"kernel.{n}" for n in (
    "log_factorial", "falling_factorial", "falling_factorial_exact", "log_binomial",
    "signed_log_add", "signed_log_mul", "signed_log_div", "signed_log_scale",
)} | {f"distributions.{n}" for n in PER_VALUE_PMFS + ("_maxnh_pmf_binom", "pmf", "exact_pmf")} | {
    "approximations.gamma_approx_density",
    "approximations.halfnormal_approx_density",
    "estimation.loglik_kernel",
    "estimation.loglik_grad",
    "estimation.loglik_hess",
    "estimation.phi",
}

# Calls of a wrapped no-op per calibration round, and rounds; the median
# round is used.
CALIBRATION_CALLS, CALIBRATION_REPEATS = 20_000, 7

# Stopping rule -> balls drawn per trial beyond y, as a multiple of c.
_C_MULTIPLE = {"maxnh": 2, "maxnb": 2, "minnh": 1, "minnb": 1, "nh": 1, "nb": 1}
_TABLE_SIZES = {15: "N15", 250: "N250", 10_000: "N1e4", 100_000: "N1e5"}


def _public_functions(module) -> dict[str, object]:
    names = [
        n for n, v in vars(module).items()
        if callable(v) and not isinstance(v, type) and not n.startswith("_")
        and getattr(v, "__module__", None) == module.__name__
    ]
    names += EXTRA.get(module.__name__.rsplit(".", 1)[1], ())
    return {n: getattr(module, n) for n in names}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child seconds, kept span id]
        self.open: Counter = Counter()  # open kept spans per name and per layer
        # calls, total, self, and the time of the wrapper's pre-call bookkeeping
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.request = -1
        self._next_id = 0
        self._patched: list[tuple[dict, object, object]] = []
        # Calibration, by whether the wrapper keeps a span: the wrapper's cost
        # inside t0..t1 and outside the parent's charge, each as a multiple
        # of the timed pre-call bookkeeping, and that bookkeeping's mean time.
        self.cost: dict[bool, tuple[float, float, float]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import urnwait

        self.cost = {}  # the calibration wrappers must subtract nothing
        self.cost = {keep: self._calibrate(keep) for keep in (False, True)}
        modules = [importlib.import_module(f"urnwait.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for n, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        namespaces = [vars(m) for m in [urnwait, *modules]] + [
            vars(m) for name, m in sys.modules.items()
            if name.startswith("urnwait.") and m not in modules
        ]
        for ns in namespaces:
            dicts = [ns] + [v for k, v in ns.items() if isinstance(v, dict) and k.startswith("_")]
            for d in dicts:
                for key, value in list(d.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((d, key, value))
                        d[key] = hit[1]

    def uninstall(self) -> None:
        for d, key, value in reversed(self._patched):
            d[key] = value
        self._patched.clear()

    def _calibrate(self, keep: bool):
        """Time a wrapped no-op against the bare one, under a parent frame."""

        def noop(a, b):
            return None

        name = f"_calibrate.{keep}"
        wrapped = self._wrap(name, noop, keep)
        agg = self.agg[name]
        clock, r = time.perf_counter, range(CALIBRATION_CALLS)
        inside, outside, gauge = [], [], []
        for _ in range(CALIBRATION_REPEATS):
            t = clock()
            for _ in r:
                pass
            loop = clock() - t
            t = clock()
            for _ in r:
                noop(1, 2)
            bare = clock() - t - loop
            frame = [0.0, -1]
            own, pre = agg[1], agg[3]
            self.stack.append(frame)
            t = clock()
            for _ in r:
                wrapped(1, 2)
            traced = clock() - t - loop
            self.stack.pop()
            g = agg[3] - pre
            inside.append(max(0.0, agg[1] - own - bare) / g)
            outside.append(max(0.0, traced - frame[0]) / g)
            gauge.append(g / CALIBRATION_CALLS)
        del self.agg[name]
        self.spans.clear()
        self._next_id = 0
        return statistics.median(inside), statistics.median(outside), statistics.median(gauge)

    def call_cost(self) -> tuple[float, float]:
        """Calibrated cost in seconds of one aggregated wrapper call, inside
        and outside."""
        k_in, k_out, gauge = self.cost[False]
        return k_in * gauge, k_out * gauge

    def _wrap(self, name: str, fn, keep: bool | None = None):
        layer = name.split(".", 1)[0]
        if keep is None:
            keep = name not in HOT
        k_in, k_out, gauge = self.cost.get(keep, (0.0, 0.0, 1.0))
        gauge_max = 10 * gauge  # a call preempted in its bookkeeping
        agg = self.agg[name]
        hook = _HOOKS.get(name)
        stack, open_ = self.stack, self.open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            ta = clock()
            parent = stack[-1] if stack else None
            if keep:
                sid = self._next_id
                self._next_id += 1
                open_[name] += 1
                open_[layer] += 1
            else:
                sid = parent[1] if parent else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                pre = min(t0 - ta, gauge_max)
                dur = max(0.0, t1 - t0 - k_in * pre)
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                agg[3] += pre
                if keep:
                    open_[name] -= 1
                    open_[layer] -= 1
                    self.spans.append(
                        (sid, name, t0, t0 + dur, parent[1] if parent else -1, self.request)
                    )
                if parent is not None:
                    parent[0] += t1 - ta + k_out * pre
            if hook is not None:
                hook(self, args, result, dur)
            if parent is not None:
                parent[0] += clock() - t1  # the bookkeeping above and the hook
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for sid, name, t0, t1, parent, req in self.spans:
                f.write(json.dumps([sid, name, t0, t1, parent, req]) + "\n")

    def _layer_self(self, layer: str) -> float:
        return sum(a[2] for n, a in self.agg.items() if n.split(".", 1)[0] == layer)

    def metrics(self, passes: int, logfact_entries: int, cli_bytes: int) -> dict[str, float]:
        """Per-layer metrics, each a per-pass figure except the table length."""
        a, c = self.agg, self.counters

        def calls(*names):
            return sum(a[n][0] for n in names if n in a)

        def total(name):
            return a[name][1] if name in a else 0.0

        def self_s(*names):
            return sum(a[n][2] for n in names if n in a)

        def ratio(x, y):
            return x / y if y else 0.0

        kernel_names = [n for n in a if n.startswith("kernel.")]
        pmf_names = [f"distributions.{n}" for n in PER_VALUE_PMFS]
        sim_s = self._layer_self("urn_simulator")
        out = {
            "kernel.calls": calls(*kernel_names),
            "kernel.self_s": self._layer_self("kernel"),
            "kernel.log_factorial.calls": calls("kernel.log_factorial"),
            "kernel.falling_factorial.calls": calls("kernel.falling_factorial"),
            "kernel.falling_factorial.product_terms": c["product_terms"],
            "kernel.signed_log_add.calls": calls("kernel.signed_log_add"),
            "kernel.signed_log_add.cancel_zero": c["cancel_zero"],
            "distributions.self_s": self._layer_self("distributions"),
            "distributions.pmf.calls": calls(*pmf_names),
            "distributions.pmf.self_s": self_s(*pmf_names, "distributions.pmf"),
            "distributions.dualcheck_s": total("distributions._maxnh_pmf_binom"),
            "distributions.support.self_s": self_s("distributions.support"),
            "distributions.pmf_table.calls": calls("distributions.pmf_table"),
            "distributions.pmf_table.rows": c["table_rows"],
            "distributions.pmf_per_row": ratio(c["pmf_in_table"], c["table_rows"]),
            **{f"distributions.pmf_table.s.{s}": c[f"table_s.{s}"] for s in _TABLE_SIZES.values()},
            "distributions.cdf.self_s": self_s("distributions.cdf"),
            "modes.unimodal_m_range.s": total("modes.unimodal_m_range"),
            "modes.tables_per_scan": ratio(c["tables_in_scan"], calls("modes.unimodal_m_range")),
            "modes.self_s": self._layer_self("modes"),
            "approximations.convergence_sweep.s": total("approximations.convergence_sweep"),
            "approximations.self_s": self._layer_self("approximations"),
            "estimation.mle.calls": calls("estimation.mle"),
            "estimation.loglik_kernel.calls": calls("estimation.loglik_kernel"),
            "estimation.loglik_grad.calls": calls("estimation.loglik_grad"),
            "estimation.evals_per_mle": ratio(c["evals_in_mle"], calls("estimation.mle")),
            "estimation.mle.fallbacks": c["mle_fallbacks"],
            "estimation.self_s": self._layer_self("estimation"),
            "urn_simulator.trials": c["trials"],
            "urn_simulator.draws": c["draws"],
            "urn_simulator.trials_per_s": ratio(c["trials"], sim_s),
            "urn_simulator.draws_per_s": ratio(c["draws"], sim_s),
            "urn_simulator.self_s": sim_s,
            "cli.requests": calls("cli.main"),
            "cli.self_s": self._layer_self("cli"),
            "cli.bytes_out": cli_bytes,
            "enumeration.self_s": self._layer_self("_enumeration"),
        }
        per_pass_exempt = {
            "distributions.pmf_per_row", "modes.tables_per_scan", "estimation.evals_per_mle",
            "urn_simulator.trials_per_s", "urn_simulator.draws_per_s",
        }
        out = {k: (v if k in per_pass_exempt else v / passes) for k, v in out.items()}
        out["kernel.logfact_entries"] = logfact_entries
        return out


# -- counters read off arguments and results ---------------------------------


def _falling_factorial(tr: Tracer, args, result, dur) -> None:
    z, k = args
    integer = isinstance(z, int) or (isinstance(z, float) and z.is_integer())
    if k > 0 and not (integer and int(z) >= 0):
        tr.counters["product_terms"] += k


def _signed_log_add(tr: Tracer, args, result, dur) -> None:
    a, b = args
    if a.sign != 0 and b.sign != 0 and result.sign == 0:
        tr.counters["cancel_zero"] += 1


def _per_value_pmf(tr: Tracer, args, result, dur) -> None:
    if tr.open["distributions.pmf_table"]:
        tr.counters["pmf_in_table"] += 1


def _pmf_table(tr: Tracer, args, result, dur) -> None:
    tr.counters["table_rows"] += len(result.ys)
    if tr.open["modes.unimodal_m_range"]:
        tr.counters["tables_in_scan"] += 1
    size = _TABLE_SIZES.get(getattr(result.params, "N", None))
    if size is not None:
        tr.counters[f"table_s.{size}"] += dur


def _likelihood_eval(gradient: bool):
    def hook(tr: Tracer, args, result, dur) -> None:
        if tr.open["estimation.mle"]:
            tr.counters["evals_in_mle"] += 1
            tr.counters["grads_in_this_mle"] += gradient
    return hook


def _mle(tr: Tracer, args, result, dur) -> None:
    # phi < 0 returns before any gradient; the bisection path takes dozens.
    # One or two gradient calls mean the golden-section fallback finished it.
    if 1 <= tr.counters.pop("grads_in_this_mle", 0) <= 2:
        tr.counters["mle_fallbacks"] += 1


def _count_draws(tr: Tracer, scheme: str, c: int, ys_counts) -> None:
    k = _C_MULTIPLE[scheme]
    for y, n in ys_counts:
        tr.counters["trials"] += n
        tr.counters["draws"] += n * (y + k * c)


def _single_trial(scheme_of):
    def hook(tr: Tracer, args, result, dur) -> None:
        if tr.open["urn_simulator"]:
            return  # counted by the outermost simulator call
        params = args[0]
        _count_draws(tr, scheme_of(args), params.c, [(result.y, 1)])
    return hook


def _empirical_pmf(tr: Tracer, args, result, dur) -> None:
    if tr.open["urn_simulator"]:
        return
    scheme, params, config = args
    counts = [(y, round(p * config.trials)) for y, p in zip(result.ys, result.probs)]
    _count_draws(tr, scheme.value, params.c, [(y, n) for y, n in counts if n])


_HOOKS = {
    "kernel.falling_factorial": _falling_factorial,
    "kernel.signed_log_add": _signed_log_add,
    **{f"distributions.{n}": _per_value_pmf for n in PER_VALUE_PMFS},
    "distributions.pmf_table": _pmf_table,
    "estimation.loglik_kernel": _likelihood_eval(False),
    "estimation.loglik_grad": _likelihood_eval(True),
    "estimation.mle": _mle,
    "urn_simulator.draw_until_both": _single_trial(lambda a: "maxnh"),
    "urn_simulator.draw_until_either": _single_trial(lambda a: "minnh"),
    "urn_simulator.draw_until_c_successes": _single_trial(lambda a: "nh"),
    "urn_simulator.bernoulli_scheme": _single_trial(lambda a: a[1].value),
    "urn_simulator._urn_trial": _single_trial(lambda a: a[2].value),
    "urn_simulator._bernoulli_trial": _single_trial(lambda a: a[2].value),
    "urn_simulator.empirical_pmf": _empirical_pmf,
}
