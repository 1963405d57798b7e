"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``setup`` (repeatable), runs
one timed unit of work in ``iterate`` and checks the outputs in ``check``
(untimed).  All three use the theorem parameters ``cli.theorem_params()``
(B=100, c=3, eta=0.125, p_min=p_1=1) and, where a horizon extension applies,
Gamma = theorem_gamma(v_max=1e6, q_max=100) = 114.

Every package function is looked up through its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from feemarket import adversary, benchmarks, cli, core, mechanisms, scenarios

B = 100
Q_MAX = 100
V_MAX = 1e6

# Outputs pinned for the default seed, 1.  These bytes must stay identical across
# performance changes; a mismatch is a failed operation.
PINNED = {
    "random_run_verify": {
        "trace.jsonl": "2017f26acb6f3230f898b0df98fcbbd57b691bb36f658212b86c3339f51002e5",
        "schedule.json": "1d7fed5a4bcaf514e1feffb62bcfb8c4b8ffa484a8538b3ccd3b06071d2a92ef",
        "summary.json": "e210fddd6c07c8afb7bd71a6d211a2aad3c006f247159a462e7c133de5b75b37",
    },
    "light_load_verify": {
        "flags": "threshold=1 welfare_dominance=1 avg_block_size=1 greedy=1",
        "welfare": "14473692989.8",
    },
    "suite_all": {
        "suite.csv": "621dfcafe17d5fcc57ab3d2d4867ca705c855cab1456531366cbeb41b57367af",
    },
}


def _family(seed: int, horizon: int, load_factor: float) -> core.Scenario:
    params = cli.theorem_params()
    return scenarios.random_family(
        seed=seed,
        horizon=horizon,
        value_range=(math.exp(params.eta) * params.p_min, V_MAX),
        q_max=Q_MAX,
        load_factor=load_factor,
        B=B,
        eta=params.eta,
        p_min=params.p_min,
    )


def _gamma(params: mechanisms.MechanismParams) -> int:
    return mechanisms.theorem_gamma(params, v_max=V_MAX, q_max=Q_MAX)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``feemarket`` in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _take(path: Path) -> bytes:
    """Read an output and delete it, so a later iteration that fails to
    write it cannot pass on stale bytes."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    path.unlink()
    return data


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RandomRunVerify:
    """``feemarket run`` then ``feemarket verify`` on a twice-overloaded
    random stream, then a bit-exact replay of the written trace."""

    name = "random_run_verify"
    horizon = 5000
    # At load 2.0 (four arrivals per block) the pool's live entries and the
    # engine's not-yet-compacted removed entries grow at nearly the same
    # rate, so whether the engine compacts its pool flips with the seed and
    # its scan work ranges 11.7M-22.8M entries over seeds 20-31.  At 2.5
    # (five per block) the pool never compacts after the first blocks and
    # the scan work is 22.4M-23.2M entries on every seed.
    load_factor = 2.5
    predicted_top = "mechanisms.engine_self_s"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.out = workdir / "out"

    @property
    def blocks(self) -> int:
        return self.horizon + self.gamma

    def setup(self) -> None:
        self.params = cli.theorem_params()
        self.gamma = _gamma(self.params)
        self.scenario = _family(self.seed, self.horizon, self.load_factor)
        (self.dir / "scenario.jsonl").write_text(core.scenario_to_jsonl(self.scenario))
        (self.dir / "mechanism.json").write_text(
            json.dumps(mechanisms.params_to_config(self.params))
        )
        (self.dir / "policy.json").write_text(
            json.dumps(adversary.policy_to_config(adversary.ValueAscending()))
        )

    def iterate(self) -> dict:
        run_code, run_out = _cli([
            "run",
            "--scenario", str(self.dir / "scenario.jsonl"),
            "--mechanism", str(self.dir / "mechanism.json"),
            "--policy", str(self.dir / "policy.json"),
            "--horizon", str(self.horizon + self.gamma),
            "--out", str(self.out),
        ])
        verify_code, verify_out = _cli([
            "verify",
            "--scenario", str(self.out / "scenario.jsonl"),
            "--schedule", str(self.out / "schedule.json"),
            "--benchmark", "opt_fractional",
            "--horizon", str(self.horizon),
            "--gamma", str(self.gamma),
            "--eta", repr(self.params.eta),
            "--bench-limit", str(B),
        ])
        return {
            "run_code": run_code,
            "verify_code": verify_code,
            "stdout": run_out + verify_out,
            "replay_ok": self._replay_matches(self.out / "trace.jsonl"),
        }

    def _replay_matches(self, path: Path) -> bool:
        """Replay the written executions and compare every posted price with
        the written one, exactly.  Replay reads only the executions, so the
        rebuilt records carry nothing else."""
        posted = []
        records = []
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                posted.append(row["p"])
                executed = tuple((e["id"], e["frac"]) for e in row["executed"])
                records.append(core.BlockRecord(row["t"], (), (), executed, (), 0.0))
        replayed = mechanisms.replay_log_prices(
            [self.params], core.RunTrace(records), self.scenario
        )
        return len(replayed) == len(posted) and all(
            math.exp(lp[0]) == p for lp, p in zip(replayed, posted)
        )

    def check(self, out: dict) -> tuple[dict, dict, int]:
        files = {name: _take(self.out / name) for name in
                 ("trace.jsonl", "schedule.json", "summary.json", "scenario.jsonl")}
        ops = {
            "run exits 0": out["run_code"] == 0,
            "verify exits 0": out["verify_code"] == 0,
            "replay is bit-exact": out["replay_ok"],
        }
        fingerprint = {name: _digest(files[name]) for name in PINNED[self.name]}
        rows = out["stdout"].count("\n") + sum(d.count(b"\n") for d in files.values())
        return ops, fingerprint, rows


class LightLoadVerify:
    """A half-loaded random stream: run, then every verifier through library
    calls, the welfare identity, the greedy check and the replay."""

    name = "light_load_verify"
    horizon = 4000
    load_factor = 0.5
    predicted_top = "core.identity_s"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    @property
    def blocks(self) -> int:
        return self.horizon + self.gamma

    def setup(self) -> None:
        self.params = cli.theorem_params()
        self.gamma = _gamma(self.params)
        self.scenario = _family(self.seed, self.horizon, self.load_factor)

    def iterate(self) -> dict:
        scn, p, T, gamma = self.scenario, self.params, self.horizon, self.gamma
        run = mechanisms.run_price_based(scn, p, adversary.ValueAscending(), T + gamma)
        bench = benchmarks.opt_fractional(scn, B, T)
        trep = benchmarks.check_threshold_dominance(
            run.schedule, bench, scn, T, gamma, p.eta, bench_limit=B
        )
        wrep = benchmarks.check_welfare_dominance(run.schedule, bench, scn, T, gamma, p.eta)
        v_max = max(max((t.unit_value for t in scn.transactions), default=p.p_1), p.p_1)
        delta = mechanisms.theorem_slackness(p, v_max)
        srep = core.check_avg_block_size(run.schedule, scn, p.B, core.constant_slack(delta))
        welfare = core.welfare(run.schedule, scn, T + gamma)
        identity = core.welfare_via_threshold_integral(run.schedule, scn, T + gamma)
        greedy_ok = benchmarks.greedy_dominance_check(scn, B, T)
        replayed = mechanisms.replay_log_prices([p], run.trace, scn)
        return {
            "threshold": trep.passed,
            "welfare_dominance": wrep.passed,
            "avg_block_size": srep.passed,
            "greedy": greedy_ok,
            "welfare": welfare,
            "identity": identity,
            "replay_ok": replayed == [r.log_prices for r in run.trace.records],
        }

    def check(self, out: dict) -> tuple[dict, dict, int]:
        flags = ("threshold", "welfare_dominance", "avg_block_size", "greedy")
        ops = {f"{flag} passes": out[flag] for flag in flags}
        ops["welfare identity within 1e-9"] = (
            abs(out["identity"] - out["welfare"]) <= 1e-9 * abs(out["welfare"])
        )
        ops["replay is bit-exact"] = out["replay_ok"]
        fingerprint = {
            "flags": " ".join(f"{flag}={int(out[flag])}" for flag in flags),
            "welfare": f"{out['welfare']:.12g}",
        }
        return ops, fingerprint, 0


class SuiteAll:
    """The acceptance command ``feemarket suite --name all --seeds 2
    --horizon 60``.  Its inputs are fixed by the suite, whatever the seed."""

    name = "suite_all"
    predicted_top = "adversary.select_s"
    # Blocks the price engine simulates in one suite run, as counted by the
    # traced run (mechanisms.blocks), which checks it.
    blocks = 5501

    def __init__(self, seed: int, workdir: Path) -> None:
        self.csv = workdir / "suite.csv"

    def setup(self) -> None:
        self.csv.parent.mkdir(parents=True, exist_ok=True)

    def iterate(self) -> dict:
        code, stdout = _cli([
            "suite", "--name", "all", "--seeds", "2", "--horizon", "60",
            "--out", str(self.csv),
        ])
        return {"code": code, "stdout": stdout}

    def check(self, out: dict) -> tuple[dict, dict, int]:
        data = _take(self.csv)
        ops = {"suite exits 0": out["code"] == 0}
        rows = out["stdout"].count("\n") + data.count(b"\n")
        return ops, {"suite.csv": _digest(data)}, rows


REGISTRY = {w.name: w for w in (RandomRunVerify, LightLoadVerify, SuiteAll)}
