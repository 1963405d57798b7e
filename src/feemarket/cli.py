"""Batch runner and reporting front end.

Subcommands:
  run     -- run a mechanism on a scenario file or a builtin construction;
             writes trace.jsonl, schedule.json and summary.json.
  verify  -- check threshold and welfare dominance of a schedule against a
             benchmark schedule (or the computed fractional optimum).
  suite   -- run the named check suites across seeds and emit a CSV of
             (suite, seed, metric, value, bound, pass) rows; a row's pass
             is its stated relation of value to bound.

Exit codes: 0 pass, 1 check failure, 2 usage or input error.  Every random
draw is seeded: suite --seeds numbers its random instances, and the
random inclusion order's seed is part of its policy config
({"policy": "random", "seed": 7}).  Reruns with identical inputs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter, ge, le, lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import benchmarks, core, mechanisms, scenarios
from .adversary import ValueAscending, policy_from_config
from .core import FeeMarketError, Scenario
from .mechanisms import MechanismParams, params_from_config

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CSV_COLUMNS = ["suite", "seed", "metric", "value", "bound", "pass"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _atomic_write(path: Path, data: Iterable[str]) -> None:
    """Write the strings of ``data`` to ``path`` in turn, as UTF-8,
    through a temporary file that replaces ``path`` once all are written.
    Mode "x" creates that file, never an existing one, with the mode
    ``open(path, "w")`` would give ``path``: 0o666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


Relation = Callable[[float, float], bool]


@dataclass
class Row:
    """A suite's claim: ``value`` stands in the relation ``holds`` to ``bound``."""

    suite: str
    seed: int
    metric: str
    value: float
    holds: Relation
    bound: float

    @property
    def passed(self) -> bool:
        return self.holds(self.value, self.bound)

    def as_list(self) -> list[str]:
        return [
            self.suite,
            str(self.seed),
            self.metric,
            _fmt(self.value),
            _fmt(self.bound),
            "1" if self.passed else "0",
        ]


def rows_to_csv(rows: list[Row]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in sorted(rows, key=lambda r: (r.suite, r.seed, r.metric)):
        w.writerow(r.as_list())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Suite bodies (also used directly by the acceptance tests)
# ---------------------------------------------------------------------------

LOAD_FACTORS = (0.5, 1.0, 2.0, 5.0)
ETA = 0.125


def _params(B: float, c: float, discounted: bool = False) -> MechanismParams:
    return MechanismParams(
        B=float(B), c=c, eta=ETA, p_min=1.0, p_1=1.0, discounted_eligibility=discounted
    )


def theorem_params(B: int = 100) -> MechanismParams:
    return _params(B, 3.0)


def _v_max(scn: Scenario, p: MechanismParams) -> float:
    """The largest unit value of ``scn``, at least ``p.p_1``."""
    return max(max(map(attrgetter("unit_value"), scn.transactions), default=p.p_1), p.p_1)


def _within(measured: float, bound: float) -> bool:
    """The slackness verdict of ``run`` and the theorems suite: 1e-9 relative slack."""
    return measured <= bound * (1 + 1e-9)


def run_theorem_case(
    seed: int, horizon: int = 500, B: int = 100
) -> tuple[mechanisms.RunResult, core.Schedule, MechanismParams, int, Scenario]:
    """One positive-check instance: random family + mechanism run + fractional
    optimum.  Returns (run, benchmark, params, gamma, scenario)."""
    params = theorem_params(B=B)
    v_lo = math.exp(params.eta) * params.p_min
    v_hi = 1e6 * params.p_min
    load = LOAD_FACTORS[seed % len(LOAD_FACTORS)]
    scn = scenarios.random_family(
        seed=seed,
        horizon=horizon,
        value_range=(v_lo, v_hi),
        q_max=B,
        load_factor=load,
        B=B,
        eta=params.eta,
        p_min=params.p_min,
    )
    gamma = mechanisms.theorem_gamma(params, v_max=v_hi, q_max=B, delta_prime=0)
    run = mechanisms.run_price_based(scn, params, ValueAscending(), horizon + gamma)
    bench = benchmarks.opt_fractional(scn, B, horizon)
    return run, bench, params, gamma, scn


def suite_theorems(seeds: int, horizon: int = 200) -> list[Row]:
    def one(seed: int) -> list[Row]:
        run, bench, params, gamma, scn = run_theorem_case(seed, horizon=horizon)
        v_max = _v_max(scn, params)
        wrep = benchmarks.check_welfare_dominance(
            run.schedule, bench, scn, horizon, gamma, params.eta
        )
        trep = benchmarks.check_threshold_dominance(
            run.schedule, bench, scn, horizon, gamma, params.eta, bench_limit=params.B
        )
        delta = mechanisms.theorem_slackness(params, v_max)
        slackness = core.measured_slackness(run.schedule, scn, params.B)
        bound_lp = math.log(v_max) + params.eta * (params.c - 1.0)
        first = run.trace.first_nonempty()
        worst_lp = max(
            (r.log_prices[0] for r in run.trace.records if first is not None and r.time > first),
            default=-math.inf,
        )
        return [
            Row("theorems", seed, "welfare_alg", wrep.alg_welfare, ge, wrep.required),
            Row("theorems", seed, "threshold_violations", float(trep.violation_count), le, 0.0),
            Row("theorems", seed, "slackness_measured", slackness, _within, delta),
            Row("theorems", seed, "max_log_price", worst_lp, le, bound_lp + 1e-9),
        ]

    return [row for seed in range(seeds) for row in one(seed)]


# ---------------------------------------------------------------------------
# Builtin constructions at their canonical parameters (read by run and suite)
# ---------------------------------------------------------------------------

LARGE_B = 6400  # target size of the c <= 2 constructions, in gas units
LOG_RANGE_L = math.exp(2.0)
C2_PARAMS = _params(LARGE_B, 2.0)
PARTIAL_PATIENCE_PARAMS = _params(1, 2.0, discounted=True)


def _optimum_ratio(bundle, result) -> dict:
    """Welfare over the run against the adaptive construction's optimum."""
    audit = bundle.audit()
    if not audit.get("optimum"):
        return {}
    sw = core.welfare(result.schedule, result.scenario, len(result.trace.records))
    return {"ratio": sw / audit["optimum"], "audit": audit}


def _t_star_ratio(bundle, result) -> dict:
    """Welfare over [1, 2 t*] against the high demand's value over t* blocks
    (neither field when the run ends before the price doubles)."""
    t_star = scenarios.measure_t_star(result, bundle.params[0])
    if not t_star:
        return {}
    sw = core.welfare(result.schedule, result.scenario, 2 * t_star)
    return {"t_star": t_star, "ratio": sw / (bundle.notes["optimum_per_block"] * t_star)}


@dataclass(frozen=True)
class Construction:
    """A builtin construction: its bundle (whose scenario, mechanism
    parameters, policy and horizon define the canonical run) and the summary
    fields that score a run of it."""

    build: Callable[[], scenarios.ScenarioBundle]
    score: Callable[..., dict] = _optimum_ratio


def c_below_two(c: float) -> Construction:
    """The c < 2 construction against the mechanism capped at c * B."""
    return Construction(lambda: scenarios.c_below_two(_params(LARGE_B, c), 1200, eps=0.005))


BUILTINS: dict[str, Construction] = {
    "eip_c2_failure": Construction(
        lambda: scenarios.eip_c2_failure(C2_PARAMS, eps=0.01), score=_t_star_ratio
    ),
    "log_range": Construction(lambda: scenarios.log_range(C2_PARAMS, H=100.0, L=LOG_RANGE_L)),
    "c_below_two": c_below_two(1.5),
    "discount_mix": Construction(
        lambda: scenarios.discount_mix(PARTIAL_PATIENCE_PARAMS, rho_min=0.01, K=8)
    ),
    "patience_global": Construction(
        lambda: scenarios.patience_global(PARTIAL_PATIENCE_PARAMS, p=60)
    ),
    "three_resources": Construction(lambda: scenarios.three_resources(300)),
}


def suite_lower_bounds() -> list[Row]:
    """One pass over the deterministic constructions; every row has seed 0."""
    rows: list[Row] = []

    def add(metric: str, value: float, holds: Relation, bound: float) -> None:
        rows.append(Row("lower_bounds", 0, metric, value, holds, bound))

    def ratio_of(con: Construction) -> float:
        bundle = con.build()
        return con.score(bundle, bundle.run())["ratio"]

    # c < 2 family against the capped mechanism
    for c in (1.25, 1.5, 1.75):
        loss = 1.0 - ratio_of(c_below_two(c))
        add(f"c_below_two_loss_c{c}", loss, ge, min(1.0 / 8.0, (2.0 - c) / 3.0) - 0.01)
    # c = 2 failure
    add("c2_failure_ratio", ratio_of(BUILTINS["eip_c2_failure"]), lt, 0.5)
    # log range: the climb is within one block of the expected climb
    bundle = BUILTINS["log_range"].build()
    notes = bundle.notes
    climb = scenarios.measure_climb(bundle.run(), bundle.params[0], LOG_RANGE_L, notes["decay"])
    expected = notes["expected_climb"]
    add("log_range_climb", float(climb), lambda v, _: abs(v - expected) <= 1.0, expected + 1.0)
    # partially patient constructions (modified mechanism)
    add("discount_mix_loss", 1.0 - ratio_of(BUILTINS["discount_mix"]), ge, 1 / 20 - 0.01)
    add("patience_global_loss", 1.0 - ratio_of(BUILTINS["patience_global"]), ge, 1 / 10 - 0.02)
    # three resources
    add("three_resources_ratio", ratio_of(BUILTINS["three_resources"]), le, 5 / 6 + 0.05)
    # interactive price adversary (its report also requires identical transcripts)
    rep = scenarios.adaptive_price_adversary(_params(1, 2.0), gamma=2, delta=1, H=2.0**64)
    add("price_adversary_fraction", rep.fraction, lambda *_: rep.passed, rep.bound)
    return rows


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FeeMarketError(f"{path}: {exc}") from exc


# Characters read per chunk of a scenario file.
_CHUNK = 1 << 16

# The characters str.splitlines ends a line at; "\r" ends one unless "\n"
# follows it, when the pair ends it.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(fh) -> Iterator[str]:
    """The lines of the text file ``fh``, without their breaks, exactly as
    ``fh.read().splitlines()`` gives them, read ``_CHUNK`` characters at a
    time.  A chunk's unterminated last line, or one that ends in "\r" and
    so may end in "\r\n", is carried into the next chunk."""
    tail = ""
    while chunk := fh.read(_CHUNK):
        text = tail + chunk
        lines = text.splitlines()
        end = text[-1]
        if end == "\r":
            tail = lines.pop() + end
        elif end in _BREAKS:
            tail = ""
        else:
            tail = lines.pop()
        yield from lines
    yield from tail.splitlines()


def _read_scenario(path: str) -> Scenario:
    """The scenario file at ``path``, parsed a chunk at a time, so only the
    stream and one chunk's lines are held, never the file's whole text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return core._scenario_from_lines(_lines(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise FeeMarketError(f"{path}: {exc}") from exc


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise FeeMarketError(f"{path}: {exc}") from exc


def cmd_run(args) -> int:
    out = Path(args.out)
    con = BUILTINS.get(args.scenario)
    if con is not None:
        if args.mechanism is not None or args.policy is not None:
            raise FeeMarketError(
                f"builtin {args.scenario} runs its own mechanism and policy;"
                " --mechanism and --policy are for file scenarios"
            )
        bundle = con.build()
    else:
        scn = _read_scenario(args.scenario)
        if not args.mechanism:
            raise FeeMarketError("--mechanism config required for file scenarios")
        params = params_from_config(_load_json(args.mechanism))
        policy = policy_from_config(_load_json(args.policy)) if args.policy else ValueAscending()
        bundle = scenarios.ScenarioBundle(scn, (params,), policy, horizon=100)
    result = bundle.run(args.horizon)
    summary = _summarize(result, bundle.params)
    if con is not None:
        summary.update(con.score(bundle, result))

    _atomic_write(out / "trace.jsonl", core._trace_lines(result.trace))
    _atomic_write(out / "schedule.json", (core.schedule_to_json(result.schedule), "\n"))
    _atomic_write(out / "scenario.jsonl", core._scenario_lines(result.scenario))
    _atomic_write(out / "summary.json", (json.dumps(summary, sort_keys=True, indent=2), "\n"))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_PASS


def _summarize(result, params_list: Sequence[MechanismParams]) -> dict:
    scn, horizon = result.scenario, len(result.trace.records)
    sw = core.welfare(result.schedule, scn, horizon)
    bound = max(mechanisms.theorem_slackness(p, _v_max(scn, p)) for p in params_list)
    measured = core.measured_slackness(result.schedule, scn, [p.B for p in params_list])
    return {
        "blocks": horizon,
        "welfare": sw,
        # A record's sizes are the schedule's block sizes, summed alike.
        "max_block": max(max(r.sizes) for r in result.trace.records),
        "slackness_measured": measured,
        "slackness_bound": bound,
        "slackness_ok": _within(measured, bound),
    }


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.horizon < 1:
        raise FeeMarketError(f"horizon must be >= 1, got {args.horizon}")
    scn = _read_scenario(args.scenario)
    alg = core.schedule_from_json(_read(args.schedule))
    core.validate_schedule(alg, scn)
    if args.benchmark == "opt_fractional":
        bench = benchmarks.opt_fractional(scn, args.bench_limit, args.horizon)
    else:
        bench = core.schedule_from_json(_read(args.benchmark))
        core.validate_schedule(bench, scn)
    reports = {
        "threshold": benchmarks.check_threshold_dominance(
            alg, bench, scn, args.horizon, args.gamma, args.eta,
            bench_limit=args.bench_limit, bench_slack=args.bench_slack,
        ),
        "welfare": benchmarks.check_welfare_dominance(
            alg, bench, scn, args.horizon, args.gamma, args.eta
        ),
    }
    report = {name: rep.to_json() for name, rep in reports.items()}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        _atomic_write(Path(args.out), (text,))
    print(text, end="")
    return EXIT_PASS if all(rep.passed for rep in reports.values()) else EXIT_FAIL


# ---------------------------------------------------------------------------
# suite subcommand
# ---------------------------------------------------------------------------


def cmd_suite(args) -> int:
    if args.seeds < 0:
        raise FeeMarketError(f"seeds must be >= 0, got {args.seeds}")
    if args.horizon < 1:
        raise FeeMarketError(f"horizon must be >= 1, got {args.horizon}")
    rows: list[Row] = []
    if args.name in ("theorems", "all"):
        rows.extend(suite_theorems(args.seeds, horizon=args.horizon))
    if args.name in ("lower_bounds", "all") and args.seeds > 0:
        rows.extend(suite_lower_bounds())
    text = rows_to_csv(rows)
    if args.out:
        _atomic_write(Path(args.out), (text,))
    else:
        sys.stdout.write(text)
    return EXIT_PASS if all(r.passed for r in rows) else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="feemarket", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a mechanism on a scenario")
    run_p.add_argument("--scenario", required=True, help="scenario JSONL file or builtin name")
    run_p.add_argument("--mechanism", help="mechanism config JSON file")
    run_p.add_argument("--policy", help="inclusion policy config JSON file")
    run_p.add_argument(
        "--horizon",
        type=int,
        help="blocks to run (default: a builtin's own horizon, or 100 for a file scenario)",
    )
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(fn=cmd_run)

    ver_p = sub.add_parser("verify", help="dominance checks against a benchmark")
    ver_p.add_argument("--scenario", required=True)
    ver_p.add_argument("--schedule", required=True, help="algorithm schedule JSON")
    ver_p.add_argument("--benchmark", required=True, help="schedule JSON or 'opt_fractional'")
    ver_p.add_argument("--horizon", type=int, required=True)
    ver_p.add_argument("--gamma", type=int, required=True)
    ver_p.add_argument("--eta", type=float, required=True)
    ver_p.add_argument("--bench-limit", type=float, required=True)
    ver_p.add_argument("--bench-slack", type=float, default=0.0)
    ver_p.add_argument("--out")
    ver_p.set_defaults(fn=cmd_verify)

    suite_p = sub.add_parser("suite", help="run a check suite across seeds")
    suite_p.add_argument("--name", choices=["theorems", "lower_bounds", "all"], required=True)
    suite_p.add_argument("--seeds", type=int, required=True)
    suite_p.add_argument("--horizon", type=int, default=200)
    suite_p.add_argument("--out", help="output path (stdout if omitted)")
    suite_p.set_defaults(fn=cmd_suite)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The cyclic collector is paused while it runs and
    restored afterwards: a run builds one acyclic record per transaction,
    entry and block, which reference counting frees, so collections would
    only rescan them."""
    ap = build_parser()
    args = ap.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except FeeMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
