"""Per-layer tracing for the feemarket benchmark.

A ``Tracer`` wraps the public entry points of the six package modules from
outside the package: while a trace is active, every module attribute (and
every adaptive generator's ``arrivals`` method) that names one of the listed
functions is replaced by a wrapper that records a span and updates counts.
Because the package's modules import each other's functions by name, the
wrapper is installed in every namespace that holds the function, so the
engine's own lookup of ``select_block`` and the verifiers' lookups of
``check_avg_block_size`` or ``welfare`` are traced too.

A span is ``(name, start_ns, end_ns, parent_index, iteration)``.  Spans stay in
memory and are written out once the run ends.  A layer's self time is the sum
over its spans of the span's duration minus the durations of its direct
children; spans nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

GENERATORS = (
    "random_family",
    "c_below_two",
    "eip_c2_failure",
    "log_range",
    "discount_mix",
    "patience_global",
    "three_resources",
    "adaptive_price_adversary",
)

# (layer, module, functions).  Each layer's ``_s`` metric is its self time.
ENGINE = "mechanisms.engine"
LAYERS = (
    (ENGINE, "mechanisms", ("run_price_based", "multi_resource_mechanism")),
    ("mechanisms.greedy", "mechanisms", ("greedy_online",)),
    ("mechanisms.replay", "mechanisms", ("replay_log_prices",)),
    ("adversary.select", "adversary", ("select_block",)),
    ("core.identity", "core", ("welfare_via_threshold_integral",)),
    ("core.avg_block", "core", ("check_avg_block_size", "measured_slackness")),
    ("core.welfare", "core", ("welfare",)),
    (
        "core.jsonl",
        "core",
        (
            "scenario_to_jsonl",
            "scenario_from_jsonl",
            "schedule_to_json",
            "schedule_from_json",
            "trace_to_jsonl",
        ),
    ),
    ("benchmarks.opt_fractional", "benchmarks", ("opt_fractional",)),
    ("benchmarks.threshold", "benchmarks", ("check_threshold_dominance",)),
    ("benchmarks.welfare_dom", "benchmarks", ("check_welfare_dominance",)),
    ("benchmarks.greedy_check", "benchmarks", ("greedy_dominance_check",)),
    ("scenarios.generate", "scenarios", GENERATORS),
    ("cli.command", "cli", ("main",)),
)
ARRIVALS = "scenarios.arrivals"

# Per-layer metrics in report order: (name, unit, better).
METRICS = (
    ("mechanisms.engine_s", "s", "lower"),
    ("mechanisms.engine_self_s", "s", "lower"),
    ("mechanisms.runs", "count", "lower"),
    ("mechanisms.blocks", "count", "lower"),
    ("mechanisms.pool_max", "count", "lower"),
    ("mechanisms.pool_mean", "count", "lower"),
    ("mechanisms.greedy_s", "s", "lower"),
    ("mechanisms.replay_s", "s", "lower"),
    ("adversary.select_s", "s", "lower"),
    ("adversary.select_calls", "count", "lower"),
    ("adversary.eligible", "count", "lower"),
    ("adversary.admitted", "count", "lower"),
    ("adversary.admit_ratio", "ratio", "higher"),
    ("core.identity_s", "s", "lower"),
    ("core.avg_block_s", "s", "lower"),
    ("core.windows", "count", "lower"),
    ("core.welfare_s", "s", "lower"),
    ("core.jsonl_s", "s", "lower"),
    ("core.jsonl_bytes", "bytes", "lower"),
    ("benchmarks.opt_fractional_s", "s", "lower"),
    ("benchmarks.threshold_s", "s", "lower"),
    ("benchmarks.welfare_dom_s", "s", "lower"),
    ("benchmarks.greedy_check_s", "s", "lower"),
    ("benchmarks.thetas_checked", "count", "lower"),
    ("scenarios.generate_s", "s", "lower"),
    ("scenarios.arrivals_s", "s", "lower"),
    ("scenarios.txs", "count", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.rows", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts that must repeat exactly across traced iterations and traced runs.
EXACT_COUNTS = (
    "mechanisms.blocks",
    "mechanisms.pool_max",
    "adversary.eligible",
    "adversary.admitted",
    "benchmarks.thetas_checked",
    "core.windows",
    "core.jsonl_bytes",
    "cli.rows",
)

# Metrics of building inputs: they add one set-up (the median over set-up
# repetitions) to one iteration, since generation runs in either.
SETUP_METRICS = ("scenarios.generate_s", "scenarios.txs")


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _count_select(tracer, args, kwargs, result):
    eligible = _arg(args, kwargs, 0, "eligible")
    tracer.counts["adversary.select_calls"] += 1
    tracer.counts["adversary.eligible"] += len(eligible)
    tracer.counts["adversary.admitted"] += len(result)


def _count_generate(tracer, args, kwargs, result):
    scenario = getattr(result, "scenario", result)
    tracer.counts["scenarios.txs"] += len(getattr(scenario, "transactions", ()))


def _count_arrivals(tracer, args, kwargs, result):
    tracer.counts["scenarios.txs"] += len(result)


def _count_threshold(tracer, args, kwargs, result):
    tracer.counts["benchmarks.thetas_checked"] += result.thetas_checked


def _defer(kind, pick):
    def count(tracer, args, kwargs, result):
        tracer.deferred.append((kind, pick(args, kwargs, result)))

    return count


COUNTERS = {
    "run_price_based": _defer("engine", lambda a, k, r: r),
    "multi_resource_mechanism": _defer("engine", lambda a, k, r: r),
    "select_block": _count_select,
    "check_avg_block_size": _defer(
        "windows", lambda a, k, r: (_arg(a, k, 0, "schedule"), _arg(a, k, 1, "scenario"))
    ),
    "check_threshold_dominance": _count_threshold,
    "scenario_to_jsonl": _defer("bytes", lambda a, k, r: r),
    "schedule_to_json": _defer("bytes", lambda a, k, r: r),
    "trace_to_jsonl": _defer("bytes", lambda a, k, r: r),
    "scenario_from_jsonl": _defer("bytes", lambda a, k, r: _arg(a, k, 0, "text")),
    "schedule_from_json": _defer("bytes", lambda a, k, r: _arg(a, k, 0, "text")),
    "arrivals": _count_arrivals,
}
COUNTERS.update(dict.fromkeys(GENERATORS, _count_generate))


def _pool_sizes(result) -> list[int]:
    """Pending-pool size at each block's selection, rebuilt from the realized
    scenario and the trace: arrivals so far minus executions before it."""
    arrivals = Counter(t.arrival for t in result.scenario.transactions)
    pool = 0
    sizes = []
    for rec in result.trace.records:
        pool += arrivals.get(rec.time, 0)
        sizes.append(pool)
        pool -= len(rec.executed)
    return sizes


class Tracer:
    """Installs span-recording wrappers into the ``feemarket`` modules while
    a trace is active and aggregates the spans into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.iteration: object = None
        self.counts: Counter = Counter()
        self.deferred: list = []
        self._plan = self._build_plan()

    def _wrap(self, layer, fn, count):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.iteration)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _build_plan(self):
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name == "feemarket" or name.startswith("feemarket.")
        }
        plan = []  # (owner, attribute, original, wrapper)
        for layer, modname, funcs in LAYERS:
            for fname in funcs:
                orig = getattr(mods[modname], fname)
                wrapper = self._wrap(layer, orig, COUNTERS.get(fname))
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            plan.append((mod, attr, orig, wrapper))
        for cls in vars(mods["scenarios"]).values():
            if isinstance(cls, type) and "arrivals" in vars(cls):
                orig = vars(cls)["arrivals"]
                plan.append((cls, "arrivals", orig, self._wrap(ARRIVALS, orig, COUNTERS["arrivals"])))
        return plan

    @contextmanager
    def active(self, iteration):
        """Trace the calls made inside the block as iteration ``iteration``."""
        self.iteration = iteration
        for owner, attr, _orig, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _wrapper in self._plan:
                setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # Aggregation (run after the timed region)
    # ------------------------------------------------------------------

    def take(self) -> tuple[list, dict]:
        """Close the current iteration: return its spans and its metrics
        (self time per layer in seconds, the engine's busy time, counts)."""
        spans = list(self.spans)
        self.spans.clear()
        counts = Counter(self.counts)
        self.counts.clear()
        pools: list[int] = []
        for kind, obj in self.deferred:
            if kind == "engine":
                counts["mechanisms.runs"] += 1
                counts["mechanisms.blocks"] += len(obj.trace.records)
                pools.extend(_pool_sizes(obj))
            elif kind == "windows":
                schedule, scenario = obj
                support = schedule.support()
                if support is not None:
                    n = support[1] - support[0] + 1
                    counts["core.windows"] += scenario.m * n * (n + 1) // 2
            else:
                counts["core.jsonl_bytes"] += len(obj.encode())
        self.deferred.clear()
        children = [0] * len(spans)
        for _name, start, end, parent, _it in spans:
            if parent >= 0:
                children[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        engine_ns = 0  # engine runs never nest, so their spans add up
        for i, (name, start, end, _parent, _it) in enumerate(spans):
            self_ns[name] += end - start - children[i]
            if name == ENGINE:
                engine_ns += end - start
        metrics = {f"{name}_s": ns / 1e9 for name, ns in self_ns.items()}
        metrics["mechanisms.engine_s"] = engine_ns / 1e9
        metrics["mechanisms.engine_self_s"] = self_ns[ENGINE] / 1e9
        metrics.update(counts)
        metrics["mechanisms.pool_max"] = max(pools, default=0)
        metrics["mechanisms.pool_mean"] = sum(pools) / len(pools) if pools else 0.0
        return spans, metrics


def write_spans(path, iterations) -> None:
    """Write ``{iteration: spans}`` as JSON lines, one span per line."""
    with open(path, "w") as fh:
        for spans in iterations.values():
            for name, start, end, parent, it in spans:
                fh.write(json.dumps([name, start, end, parent, it]) + "\n")
