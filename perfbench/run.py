#!/usr/bin/env python3
"""feemarket benchmark: three verified-run workloads, their end-to-end
metrics, and a traced run that times each package layer.

Run from the repository root:

  python3 perfbench/run.py --workload suite_all --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py                  # every workload, each in a fresh process
  python3 perfbench/run.py --trace 1        # the same, traced: per-layer metrics
  python3 perfbench/run.py --self-test      # exact counts repeat across two traced runs

A single-workload run prints its metrics by name and unit, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md).  The run measures the package under
``src/`` of the checkout it sits in, and fails without a result when that is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("random_run_verify", "light_load_verify", "suite_all")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
SETUP_REPS = 3
MIN_SAMPLES = 3
MIN_TRACED = 2
# End-to-end metrics, reported with --trace 0: (name, unit).  The ref_
# metrics are iteration times at the reference machine speed (speed.py).
END_TO_END = (
    ("setup_s", "s"),
    ("ref_wall_s", "s"),
    ("ref_blocks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

clock = time.perf_counter_ns


def _import_package(probe) -> float:
    """Import ``feemarket`` from this checkout's src/; return seconds taken,
    at the reference speed when ``probe`` is given."""
    package = SRC / "feemarket"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout that has src/")
    sys.path.insert(0, str(SRC))
    with probe.sampling() if probe else contextlib.nullcontext():
        start = clock()
        import feemarket
        import feemarket.cli  # noqa: F401  (not imported by the package itself)

        elapsed = (clock() - start) / 1e9
    if Path(feemarket.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported feemarket from {feemarket.__file__}, not {package}")
    return probe.normalize(elapsed) if probe else elapsed


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "git": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _high(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples above it.  Below 20
    samples no percentile at or above the median has that, so report the
    max and say so."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        k = n - 10
        return ordered[k - 1], f"p{100 * k / n:.1f} of {n} samples (10 above it)"
    return ordered[-1], f"max of {n} samples (fewer than 20, so no upper percentile has 10 above it)"


class Ops:
    """Operations attempted and failed: exit codes, verifier flags, replay
    and identity comparisons, output digests and exact-count checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _measure(name: str, seed: int, seconds: float, probe, import_s: float) -> dict:
    import spans
    import workloads

    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE))
    try:
        wl = workloads.REGISTRY[name](seed, workdir)
        traced = probe is None
        tracer = spans.Tracer() if traced else None
        ops = Ops()
        trace_log: dict = {}

        def timed(fn, tag, trace_it, sample=False):
            gc.collect()
            with contextlib.ExitStack() as stack:
                if trace_it:
                    stack.enter_context(tracer.active(tag))
                if sample:
                    stack.enter_context(probe.sampling())
                start = clock()
                result = fn()
                wall = (clock() - start) / 1e9
            layer = None
            if trace_it:
                trace_log[tag], layer = tracer.take()
            return wall, result, layer

        setup_walls, setup_layers = [], []
        for rep in range(SETUP_REPS):
            wall, _, layer = timed(wl.setup, f"setup{rep}", traced, sample=not traced)
            setup_walls.append(probe.normalize(wall) if probe else wall)
            setup_layers.append(layer)

        reference = workloads.PINNED[name] if seed == DEFAULT_SEED else None

        def iteration(tag, trace_it, sample=False):
            nonlocal reference
            wall, out, layer = timed(wl.iterate, tag, trace_it, sample)
            checks, fingerprint, rows = wl.check(out)
            for label, ok in checks.items():
                ops.record(f"iteration {tag}: {label}", ok)
            if reference is None:
                reference = fingerprint  # held-out seed: later iterations must match
            else:
                for key, value in fingerprint.items():
                    ops.record(f"iteration {tag}: {key} matches", value == reference[key])
            if layer is not None:
                layer["cli.rows"] = rows
            return wall, layer

        iteration("warmup", False)
        walls, ref_walls, traced_walls, layers = [], [], [], []
        start = clock()
        it = 0
        while True:
            # Stop once another iteration would end nearer past the budget
            # than short of it, so a run measures about ``seconds``.
            elapsed = (clock() - start) / 1e9
            ends_late = bool(walls) and elapsed + walls[-1] / 2 >= seconds
            if traced and len(layers) >= MIN_TRACED and ends_late:
                break
            if not traced and len(walls) >= MIN_SAMPLES and ends_late:
                break
            walls.append(iteration(it, False, sample=not traced)[0])
            if probe:
                ref_walls.append(probe.normalize(walls[-1]))
            it += 1
            if traced:
                wall, layer = iteration(it, True)
                traced_walls.append(wall)
                layers.append(layer)
                it += 1

        report = {"ops": ops, "walls": walls}
        if traced:
            report["layers"] = _layer_metrics(spans, wl, ops, layers, setup_layers)
            report["layers"]["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls)
            )
            report["traced_walls"] = traced_walls
            spans.write_spans(STATE / f"spans-{name}-seed{seed}.jsonl", trace_log)
        else:
            report["raw"] = _timings(walls, wl.blocks)
            report["hi_label"] = _high(ref_walls)[1]
            ref = _timings(ref_walls, wl.blocks, prefix="ref_")
            # Printed, not bounded: a run has too few iterations for a tail
            # percentile, and their max follows the host, not the code.
            report["ref_hi"] = ref.pop("ref_wall_s.hi")
            report["metrics"] = {
                "setup_s": import_s + statistics.median(setup_walls),
                **ref,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timings(walls: list[float], blocks: int, prefix: str = "") -> dict:
    wall_s = statistics.median(walls)
    return {
        f"{prefix}wall_s": wall_s,
        f"{prefix}wall_s.hi": _high(walls)[0],
        f"{prefix}blocks_per_s": blocks / wall_s,
    }


def _layer_metrics(spans, wl, ops, layers, setup_layers) -> dict:
    for key in spans.EXACT_COUNTS:
        values = {layer.get(key, 0) for layer in layers}
        ops.record(f"{key} repeats exactly across traced iterations", len(values) == 1)
    ops.record(
        "mechanisms.blocks equals the workload's block count",
        layers[0].get("mechanisms.blocks") == wl.blocks,
    )

    def value(metric, unit, group):
        values = [layer.get(metric, 0) for layer in group]
        # Times are medians; counts repeat exactly, so the first will do.
        return statistics.median(values) if unit == "s" else values[0]

    out = {}
    for metric, unit, _better in spans.METRICS:
        out[metric] = value(metric, unit, layers)
        if metric in spans.SETUP_METRICS:
            out[metric] += value(metric, unit, setup_layers)
    eligible = out["adversary.eligible"]
    out["adversary.admit_ratio"] = out["adversary.admitted"] / eligible if eligible else 0.0
    return out


def run_workload(args) -> int:
    os.environ.pop("FEEMARKET_THREADS", None)
    import speed

    # Traced runs report raw per-layer times, so only untraced runs sample
    # the machine's speed.
    probe = None if args.trace else speed.Probe()
    import_s = _import_package(probe)
    import spans
    import workloads

    env = _environment()
    report = _measure(args.workload, args.seed, args.seconds, probe, import_s)
    ops = report["ops"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"samples {len(report['walls'])} untraced iterations after 1 warm-up: "
        + " ".join(f"{w:.4f}" for w in report["walls"]) + " s"
    )
    if args.trace:
        units = {m: u for m, u, _ in spans.METRICS}
        metrics = report["layers"]
        traced_wall = statistics.median(report["traced_walls"])
        print(f"traced iterations {len(report['traced_walls'])}, median wall {traced_wall:.4f} s")
        shares = {
            m: v / traced_wall
            for m, v in metrics.items()
            if units[m] == "s" and m not in ("mechanisms.engine_s", "trace.overhead_s")
        }
        top = max(shares, key=shares.get)
        predicted = workloads.REGISTRY[args.workload].predicted_top
        print(
            f"largest self-time share {top} {100 * shares[top]:.1f}% "
            f"(predicted {predicted}: {'held' if top == predicted else 'NOT held'})"
        )
        print("core.windows is computed as m*n*(n+1)/2 per check_avg_block_size call")
    else:
        units = dict(END_TO_END)
        metrics = report["metrics"]
        raw = report["raw"]
        print(
            f"wall_s.hi and ref_wall_s.hi are the {report['hi_label']}; "
            "they are printed, not bounded"
        )
        print(
            "raw (not speed-normalized): "
            f"wall_s {raw['wall_s']:.6g} s, wall_s.hi {raw['wall_s.hi']:.6g} s, "
            f"blocks_per_s {raw['blocks_per_s']:.6g} 1/s"
        )
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'ref_wall_s.hi':30s} {report['ref_hi']:.6g} s (not bounded)")
    failed = len(ops.failures)
    print(f"  {'ops_failed_ratio':30s} {failed / ops.attempted:.6g} ({failed} of {ops.attempted})")
    for label in ops.failures:
        print(f"FAILED {label}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, echo: bool) -> dict | None:
    """Run one workload in a fresh process and return its result line."""
    env = {k: v for k, v in os.environ.items() if k != "FEEMARKET_THREADS"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        result = _child(workload, args.seed, args.seconds, args.trace, echo=True)
        ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def self_test(args) -> int:
    """BENCHMARK.json must list what the benchmark reports, and two traced
    runs of each workload must report identical exact counts."""
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = (
        tuple(w["name"] for w in spec["workloads"]),
        tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
        tuple((m["name"], m["unit"], m["better"]) for m in spec["per_layer"]),
    )
    ok = listed == (WORKLOADS, END_TO_END, spans.METRICS)
    print(f"self-test BENCHMARK.json lists the reported workloads and metrics: {'ok' if ok else 'FAIL'}")
    for workload in WORKLOADS:
        first, second = (_child(workload, args.seed, 1, 1, echo=False) for _ in range(2))
        if first is None or second is None or not (first["correct"] and second["correct"]):
            print(f"self-test {workload}: FAIL (a traced run failed)")
            ok = False
            continue
        for key in spans.EXACT_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            same = a == b
            ok = ok and same
            print(f"self-test {workload} {key}: {a} vs {b} {'ok' if same else 'FAIL'}")
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
