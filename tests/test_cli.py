"""CLI: exit codes, file formats, determinism of outputs."""

import gc
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from feemarket import MechanismParams, Scenario, Transaction, run_price_based
from feemarket import cli, core
from feemarket.cli import BUILTINS, main, theorem_params
from feemarket.core import ScenarioError, scenario_from_jsonl, scenario_to_jsonl, trace_to_jsonl
from feemarket.adversary import SeededRandom, policy_to_config
from feemarket.mechanisms import params_to_config, theorem_gamma
from feemarket.scenarios import random_family


def _id_order_stream():
    """30 transactions in id order that arrive at blocks 1-5 in turn, so the
    stream is not in (arrival, id) order."""
    return Scenario(
        transactions=[
            Transaction(id=i, arrival=1 + i % 5, size=(10 + 7 * (i % 4),), unit_value=1.5 + i % 3)
            for i in range(30)
        ],
    )


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.jsonl"
    path.write_text(scenario_to_jsonl(_id_order_stream()))
    return path


@pytest.fixture
def mech_file(tmp_path):
    params = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(params_to_config(params)))
    return path


def test_run_file_scenario(tmp_path, scenario_file, mech_file, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
        "--horizon", "10", "--out", str(out),
    ])
    assert rc == 0
    for name in ("trace.jsonl", "schedule.json", "summary.json", "scenario.jsonl"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["welfare"] > 0
    assert summary["slackness_ok"]


def test_run_file_scenario_default_horizon_is_100(tmp_path, scenario_file, mech_file):
    # a file scenario carries no horizon, so without --horizon the run is 100 blocks
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["blocks"] == 100
    assert len((out / "trace.jsonl").read_text().splitlines()) == 100


def test_run_horizon_help_names_both_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "--horizon HORIZON blocks to run"
        " (default: a builtin's own horizon, or 100 for a file scenario)"
    ) in text


def test_run_reproducible_byte_identical(tmp_path, scenario_file, mech_file):
    args = lambda o: [
        "run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
        "--horizon", "10", "--out", o,
    ]
    assert main(args(str(tmp_path / "a"))) == 0
    assert main(args(str(tmp_path / "b"))) == 0
    for name in ("trace.jsonl", "schedule.json", "summary.json", "scenario.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_builtin_c2_failure(tmp_path):
    out = tmp_path / "c2"
    rc = main(["run", "--scenario", "eip_c2_failure", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ratio"] < 0.5
    assert abs(summary["t_star"] - math.log(2) / (0.01 * 0.125) / 2) <= 1.0


@pytest.mark.parametrize("horizon", [1, 50, 200])
def test_run_builtin_c2_failure_short_run_has_no_t_star(tmp_path, horizon):
    # the price doubles near block 555, so a shorter run has not measured t*
    out = tmp_path / "c2"
    assert main(["run", "--scenario", "eip_c2_failure", "--horizon", str(horizon),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blocks"] == horizon
    assert "t_star" not in summary and "ratio" not in summary


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_runs_its_bundle_horizon(tmp_path, name):
    """A builtin's default run is its bundle's horizon, and a static stream
    has no arrival past it."""
    bundle = BUILTINS[name].build()
    assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["blocks"] == bundle.horizon
    if name == "eip_c2_failure":
        assert max(t.arrival for t in bundle.scenario.transactions) == bundle.horizon


def _stream(name, tmp_path):
    """A stream the package builds (a random family, a builtin's realized
    stream, or a family read back from its file) or a hand-built one out of
    (arrival, id) order."""
    family = random_family(3, 40, (1.14, 1e3), 20, 2.5, B=100, eta=0.125)
    if name == "random_family":
        return family
    if name == "file":
        path = tmp_path / "family.jsonl"
        path.write_text(scenario_to_jsonl(family))
        return scenario_from_jsonl(path.read_text())
    if name == "id_order":
        return _id_order_stream()
    if name == "late_first":
        return Scenario([Transaction(0, 2, (5,), 1.0), Transaction(1, 1, (5,), 1.0)])
    return BUILTINS[name].build().run().scenario


@pytest.mark.parametrize(
    "name", ["random_family", *sorted(BUILTINS), "file", "id_order", "late_first"]
)
def test_stream_equals_its_file_round_trip(tmp_path, name):
    """A stream is plain data: its file holds all of it, in its order."""
    scn = _stream(name, tmp_path)
    assert scenario_from_jsonl(scenario_to_jsonl(scn)) == scn


def test_run_empty_scenario(tmp_path):
    scn = Scenario([])
    path = tmp_path / "empty.jsonl"
    path.write_text(scenario_to_jsonl(scn))
    mech = tmp_path / "m.json"
    mech.write_text(json.dumps(params_to_config(
        MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0))))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--mechanism", str(mech),
               "--horizon", "5", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["welfare"] == 0.0


def test_run_file_scenario_needs_a_mechanism_config_per_resource(tmp_path, mech_file, capsys):
    path = tmp_path / "four.jsonl"
    path.write_text(scenario_to_jsonl(Scenario([Transaction(0, 1, (1, 1, 0, 1), 1.0)], m=4)))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--mechanism", str(mech_file),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need 4 parameter sets for 4 resources, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--mechanism", "--policy"])
def test_run_builtin_rejects_file_flags_exit_2(tmp_path, mech_file, flag, capsys):
    """A builtin runs its own mechanism and policy, so either config file is
    an error, not silently ignored; even a valid one."""
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": "value_asc"}))
    value = {"--mechanism": str(mech_file), "--policy": str(policy)}[flag]
    out = tmp_path / "o"
    assert main(["run", "--scenario", "log_range", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: builtin log_range runs its own mechanism and policy;"
        " --mechanism and --policy are for file scenarios"
    ]
    assert not out.exists()


def test_run_null_mechanism_config_exit_2(tmp_path, scenario_file, capsys):
    mech = tmp_path / "mech.json"
    mech.write_text("null")
    rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: mechanism config must be a JSON object, got None\n"
    )


def test_run_without_mechanism_exit_2(tmp_path, scenario_file, capsys):
    rc = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --mechanism config required for file scenarios\n"


@pytest.mark.parametrize("role", ["scenario", "schedule", "benchmark"])
def test_verify_missing_file_names_path_first_exit_2(
    tmp_path, scenario_file, mech_file, role, capsys
):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
          "--horizon", "40", "--out", str(out)])
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    files = {"scenario": scenario_file, "schedule": out / "schedule.json"}
    files["benchmark"] = files["schedule"]
    files[role] = missing
    assert main(_verify_args(files["scenario"], files["schedule"], files["benchmark"])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {missing}: ")


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_verify_non_positive_horizon_exit_2_before_reading(tmp_path, horizon, capsys):
    missing = tmp_path / "missing.json"
    assert main(_verify_args(missing, missing, missing, horizon=horizon)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: horizon must be >= 1, got {horizon}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["verify", "--scenario", "s", "--schedule", "s", "--benchmark", "opt_fractional",
     "--horizon", "1", "--gamma", "0", "--eta", "0.1", "--bench-limit", "1"],
    ["suite", "--name", "theorems", "--seeds", "0"],
])
def test_format_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_run_malformed_scenario_exit_2(tmp_path, mech_file, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"m": 1}\n{oops\n')
    rc = main(["run", "--scenario", str(bad), "--mechanism", str(mech_file),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ("[1, 2]\n", 1),
    ('{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": 2.0, "sens": "patient"}\n', 2),
    ('{"m": 1}\n{"t": 1, "id": 0.7, "q": [5], "v": 2.0}\n', 2),
    ('{"m": 1}\n\n{"t": 1, "id": 0, "q": [5.9], "v": 2.0}\n', 3),
    ('{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": "1.5"}\n', 2),
    ('{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": true}\n', 2),
    ('{"m": 1, "B": [100.0]}\n', 1),
    ('{"m": 0}\n', 1),
    ('{"m": 1.5}\n', 1),
    ('{}\n', 1),
    ('{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": 2.0}\n\n'
     '{"t": 2, "id": 0, "q": [5], "v": 2.0}\n', 4),
    ('{"m": true}\n', 1),
    ('{"m": 1, "T": 50}\n', 1),
    ('{"m": 1}\n{"t": true, "id": 0, "q": [5], "v": 2.0}\n', 2),
    ('{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": 2.0, "arrival": 3}\n', 2),
    ('{"m": 1}\n\n'
     '{"t": 1, "id": 0, "q": [5], "v": 2.0, "sens": {"kind": "discount", "rho": 0.5, "p": 2}}\n', 3),
])
def test_run_bad_scenario_line_exit_2(tmp_path, mech_file, text, line, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    rc = main(["run", "--scenario", str(bad), "--mechanism", str(mech_file),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {line}: ")


def test_verify_event_size_not_matching_m_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"m": 1}\n{"t": 1, "id": 0, "q": [5, 7], "v": 2.0}\n')
    sched = tmp_path / "sched.json"
    sched.write_text('{"integral": true, "entries": []}')
    assert main(_verify_args(bad, sched)) == 2
    assert capsys.readouterr().err == (
        "error: line 2: bad event record (tx 0: size has 2 resources, scenario has 1)\n"
    )


@pytest.mark.parametrize("text,message", [
    ('{"m": 0}\n', "line 1: bad header (m must be at least 1, got 0)"),
    ('{"m": true}\n', "line 1: bad header (m must be an integer, got True)"),
    (
        '{"m": 1}\n{"t": 1, "id": 0, "q": [5], "v": 2.0}\n'
        '{"t": 1, "id": 0, "q": [5], "v": 2.0}\n',
        "line 3: bad event record (duplicate transaction id 0)",
    ),
])
def test_verify_bad_scenario_names_its_line_exit_2(tmp_path, text, message, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    sched = tmp_path / "sched.json"
    sched.write_text('{"integral": true, "entries": []}')
    assert main(_verify_args(bad, sched)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_nan_tip_policy_exit_2(tmp_path, scenario_file, mech_file, capsys):
    policy = tmp_path / "tip.json"
    policy.write_text('{"policy": "tip", "tips": {"0": NaN}}')
    rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
               "--policy", str(policy), "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "tip must be finite" in capsys.readouterr().err


_MECH = {"B": 100, "c": 2, "eta": 0.125, "p_min": 1, "p_1": 1}


@pytest.mark.parametrize("config", [
    [100, 2, 0.125, 1, 1],
    "mech",
    {k: v for k, v in _MECH.items() if k != "B"},
    {**_MECH, "B": None},
    {**_MECH, "B": "100"},
    {**_MECH, "eta": True},
    {**_MECH, "p_1": 10**400},
    {**_MECH, "discounted_eligibility": "false"},
    {**_MECH, "discounted_eligibility": 0},
    {**_MECH, "discounted_eligibility": None},
])
def test_run_malformed_mechanism_config_exit_2(tmp_path, scenario_file, config, capsys):
    mech = tmp_path / "mech.json"
    mech.write_text(json.dumps(config))
    rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [
    ["tip"],
    None,
    {"policy": "tip", "tips": {"0": None}},
    {"policy": "tip", "tips": {"0": "1.5"}},
    {"policy": "tip", "tips": {"0": True}},
    {"policy": "tip", "tips": {"1_0": 2.0}},
    {"policy": "tip", "tips": {" 3 ": 2.0}},
    {"policy": "tip", "tips": {"+3": 2.0}},
    {"policy": "tip", "tips": {"\u0663": 2.0}},
    {"policy": "tip", "tips": {"7": 1.0, "07": 2.0}},
])
def test_run_malformed_policy_config_exit_2(tmp_path, scenario_file, mech_file, config, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(config))
    rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
               "--policy", str(policy), "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, config, key", [
    ("--mechanism", {**_MECH, "discounted_eligibilty": True}, "discounted_eligibilty"),
    ("--policy", {"policy": "tip", "tip": {"3": 1.0}}, "tip"),
    ("--policy", {"policy": "value_asc", "tips": {"3": 1.0}}, "tips"),
    ("--mechanism", {**_MECH, "update_rule": "linear"}, "update_rule"),
])
def test_run_unknown_config_key_exit_2(tmp_path, scenario_file, mech_file, flag, config, key,
                                       capsys):
    """A misspelled or misplaced key would otherwise run on its default."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if flag == "--mechanism":
        args = ["--mechanism", str(path)]
    else:
        args = ["--mechanism", str(mech_file), "--policy", str(path)]
    rc = main(["run", "--scenario", str(scenario_file), *args,
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {flag[2:]} config has unknown key {key!r}"]
    assert not (tmp_path / "o").exists()


def test_verify_pass_and_fail(tmp_path, scenario_file, mech_file):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
          "--horizon", "40", "--out", str(out)])
    rc = main([
        "verify", "--scenario", str(scenario_file),
        "--schedule", str(out / "schedule.json"),
        "--benchmark", "opt_fractional",
        "--horizon", "8", "--gamma", "32", "--eta", "0.125",
        "--bench-limit", "100",
    ])
    assert rc == 0
    # an empty algorithm schedule cannot dominate a nonempty benchmark
    empty = tmp_path / "empty_sched.json"
    empty.write_text('{"integral": true, "entries": []}')
    rc = main([
        "verify", "--scenario", str(scenario_file),
        "--schedule", str(empty),
        "--benchmark", "opt_fractional",
        "--horizon", "8", "--gamma", "0", "--eta", "0.125",
        "--bench-limit", "100",
    ])
    assert rc == 1


def test_verify_insufficient_gamma_fails_with_violations(tmp_path, capsys):
    out = tmp_path / "c2"
    main(["run", "--scenario", "eip_c2_failure", "--horizon", "200", "--out", str(out)])
    rc = main([
        "verify", "--scenario", str(out / "scenario.jsonl"),
        "--schedule", str(out / "schedule.json"),
        "--benchmark", "opt_fractional",
        "--horizon", "150", "--gamma", "0", "--eta", "0.125",
        "--bench-limit", "6400",
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    threshold = report["threshold"]
    assert not threshold["pass"]
    assert threshold["violation_count"] >= 1
    assert set(threshold["first_violation"]) == {"theta", "lhs", "rhs"}
    assert "violations" not in threshold


def test_run_overfull_stream_slackness_verdict(tmp_path):
    # three size-50 txs a block at B=100: the summary bounds the average
    # block size by theorem_slackness and the run stays within it
    scn = Scenario([
        Transaction(id=i, arrival=1 + i // 3, size=(50,), unit_value=100.0) for i in range(150)
    ])
    (tmp_path / "scenario.jsonl").write_text(scenario_to_jsonl(scn))
    params = MechanismParams(B=100.0, c=3.0, eta=0.125, p_min=1.0, p_1=1.0)
    (tmp_path / "mech.json").write_text(json.dumps(params_to_config(params)))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(tmp_path / "scenario.jsonl"), "--mechanism",
                 str(tmp_path / "mech.json"), "--horizon", "50", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slackness_bound"] == pytest.approx(8 * math.log(100) + 2)
    assert summary["slackness_ok"] is True


def test_verify_over_limit_benchmark_exit_2(tmp_path, capsys):
    # two blocks of 150 over a limit of 100 fail in [1, 1], [2, 2] and [1, 2]
    scn = Scenario([
        Transaction(id=i, arrival=1, size=(75,), unit_value=2.0) for i in range(4)
    ])
    (tmp_path / "scenario.jsonl").write_text(scenario_to_jsonl(scn))
    (tmp_path / "bench.json").write_text(json.dumps({"integral": True, "entries": [
        {"id": i, "t": 1 + i // 2, "frac": 1.0} for i in range(4)
    ]}))
    args = _verify_args(tmp_path / "scenario.jsonl", tmp_path / "bench.json",
                        tmp_path / "bench.json", gamma="0")
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: benchmark violates its declared size constraint in 3 window(s); first: "
        "{'resource': 0, 'window': [1, 1], 'lhs': 150.0, 'rhs': 100.0}\n"
    )


def _verify_args(scenario, schedule, benchmark="opt_fractional", **flags):
    opts = {"horizon": "8", "gamma": "32", "eta": "0.125", "bench-limit": "100"}
    opts.update(flags)
    args = ["verify", "--scenario", str(scenario), "--schedule", str(schedule),
            "--benchmark", str(benchmark)]
    for name, value in opts.items():
        args += [f"--{name}", value]
    return args


def _malformed(entries, how):
    bad = [dict(e) for e in entries]
    integral = True
    if how == "early":
        for e in bad:
            e["t"] = 1
    elif how == "fraction":
        bad[0]["frac"] = 7.0
    elif how == "fractional_id":
        bad[0]["id"] += 0.7
    elif how == "integral_flag":
        integral = "no"
    elif how == "string_fraction":
        bad[0]["frac"] = "1.0"
    elif how == "bool_fraction":
        bad[0]["frac"] = True
    else:
        bad.append({"id": 9999, "t": bad[-1]["t"], "frac": 1.0})
    return json.dumps({"integral": integral, "entries": bad})


@pytest.mark.parametrize("role", ["schedule", "benchmark"])
@pytest.mark.parametrize("how", [
    "early", "fraction", "unknown_id", "fractional_id", "integral_flag", "string_fraction",
    "bool_fraction",
])
def test_verify_malformed_schedule_exit_2(tmp_path, scenario_file, mech_file, how, role, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
          "--horizon", "40", "--out", str(out)])
    good = out / "schedule.json"
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed(json.loads(good.read_text())["entries"], how))
    capsys.readouterr()
    if role == "schedule":
        args = _verify_args(scenario_file, bad)
    else:
        args = _verify_args(scenario_file, good, benchmark=bad)
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("flag,value", [
    ("eta", "inf"), ("eta", "nan"), ("eta", "-1"), ("gamma", "-100"), ("bench-slack", "nan"),
    ("bench-limit", "nan"), ("bench-limit", "inf"), ("bench-limit", "0"),
])
def test_verify_bad_numeric_flag_exit_2(tmp_path, scenario_file, mech_file, flag, value, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
          "--horizon", "40", "--out", str(out)])
    capsys.readouterr()
    # at horizon 200 a gamma of -100 still leaves a valid window [1, 100]
    args = _verify_args(scenario_file, out / "schedule.json", horizon="200", **{flag: value})
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_trace_jsonl_fields(tmp_path, scenario_file, mech_file):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
          "--horizon", "6", "--out", str(out)])
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert set(first) == {"t", "p", "B_t", "executed", "Q", "cum_welfare"}
    assert first["t"] == 1 and first["B_t"] == 200.0


def test_suite_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["suite", "--name", "theorems", "--seeds", "3", "--horizon", "60",
                 "--out", str(a)]) == 0
    assert main(["suite", "--name", "theorems", "--seeds", "3", "--horizon", "60",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_zero_seeds_header_only(tmp_path, capsys):
    rc = main(["suite", "--name", "theorems", "--seeds", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "suite,seed,metric,value,bound,pass\n"


@pytest.mark.parametrize("name", ["theorems", "lower_bounds", "all"])
@pytest.mark.parametrize("flags, message", [
    (["--seeds", "-1"], "error: seeds must be >= 0, got -1"),
    (["--seeds", "1", "--horizon", "-5"], "error: horizon must be >= 1, got -5"),
])
def test_suite_bad_seeds_or_horizon_exit_2(tmp_path, name, flags, message, capsys):
    out = tmp_path / "suite.csv"
    assert main(["suite", "--name", name, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and captured.out == ""
    assert not out.exists()


def test_run_non_finite_parameter_exit_2(tmp_path, scenario_file, capsys):
    mech = tmp_path / "nan.json"
    mech.write_text('{"B": 100, "c": 2, "eta": NaN, "p_min": 1, "p_1": 1}')
    rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "eta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_non_finite_resource_count_exit_2(tmp_path, mech_file, capsys):
    bad = tmp_path / "nan_m.jsonl"
    bad.write_text('{"m": NaN}\n')
    rc = main(["run", "--scenario", str(bad), "--mechanism", str(mech_file),
               "--horizon", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 1: bad header (m must be an integer, got nan)\n"


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_run_non_positive_horizon_exit_2(tmp_path, scenario_file, mech_file, horizon, capsys):
    for scenario, mech in (("log_range", []), (str(scenario_file), ["--mechanism", str(mech_file)])):
        out = tmp_path / horizon / Path(scenario).name
        rc = main(["run", "--scenario", scenario, *mech, "--horizon", horizon, "--out", str(out)])
        assert rc == 2
        assert "horizon must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_import_leaves_numpy_unloaded():
    # numpy would cost a cold `import feemarket` most of its time
    code = "import feemarket, feemarket.cli, sys; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_run_outputs_get_the_mode_open_gives(tmp_path, scenario_file, mech_file):
    # 0o666 less the umask, as a plain open(path, "w") gives, not the 0o600
    # of the temporary file they are written through
    old = os.umask(0o022)
    try:
        rc = main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
                   "--horizon", "10", "--out", str(tmp_path / "out")])
    finally:
        os.umask(old)
    assert rc == 0
    for name in ("trace.jsonl", "schedule.json", "summary.json", "scenario.jsonl"):
        assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == 0o644


def test_run_and_verify_name_their_files_encoding(tmp_path, scenario_file, mech_file):
    # a file opened in the locale's encoding would raise an EncodingWarning,
    # an error here; a file scenario, the mechanism config, the schedule and
    # every output are opened as UTF-8
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cli = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
           "-m", "feemarket.cli"]
    out = tmp_path / "out"
    for args in (
        ["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
         "--horizon", "10", "--out", str(out)],
        _verify_args(out / "scenario.jsonl", out / "schedule.json",
                     out=str(tmp_path / "verify.json")),
    ):
        done = subprocess.run([*cli, *args], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
    assert json.loads((tmp_path / "verify.json").read_text())


@pytest.mark.parametrize("scenario", ["file", "log_range"])
def test_run_seed_flag_is_gone(tmp_path, scenario_file, mech_file, scenario, capsys):
    """The random order's seed is its policy config's; run has no --seed."""
    args = ["--scenario", "log_range"]
    if scenario == "file":
        args = ["--scenario", str(scenario_file), "--mechanism", str(mech_file)]
    with pytest.raises(SystemExit) as exc:
        main(["run", *args, "--seed", "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_random_order_seed_comes_from_the_policy_config(tmp_path, scenario_file, mech_file):
    """A file scenario under {"policy": "random", "seed": s} runs as the
    library runs it under SeededRandom(seed=s), and the written scenario
    file is the input, without a seed."""
    scn = _id_order_stream()
    params = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
    traces = {}
    for seed in (0, 7):
        policy = tmp_path / f"random{seed}.json"
        policy.write_text(json.dumps(policy_to_config(SeededRandom(seed=seed))))
        out = tmp_path / f"out{seed}"
        assert main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
                     "--policy", str(policy), "--horizon", "10", "--out", str(out)]) == 0
        run = run_price_based(scn, params, SeededRandom(seed=seed), 10)
        traces[seed] = (out / "trace.jsonl").read_text()
        assert traces[seed] == trace_to_jsonl(run.trace)
        assert (out / "scenario.jsonl").read_bytes() == scenario_file.read_bytes()
    assert traces[0] != traces[7]
    # a config without a seed is seed 0
    (tmp_path / "bare.json").write_text('{"policy": "random"}')
    assert main(["run", "--scenario", str(scenario_file), "--mechanism", str(mech_file),
                 "--policy", str(tmp_path / "bare.json"), "--horizon", "10",
                 "--out", str(tmp_path / "bare")]) == 0
    assert (tmp_path / "bare" / "trace.jsonl").read_text() == traces[0]


OLD_SEED_MESSAGE = (
    "error: line 1: bad header (the random order's seed now goes in the policy config,"
    ' as {"policy": "random", "seed": 3})\n'
)
OLD_TARGET_MESSAGE = (
    "error: line 1: bad header (the target size B now goes in the mechanism config,"
    " not the header)\n"
)


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("header,message", [
    ('{"m": 1, "seed": 3}', OLD_SEED_MESSAGE),
    ('{"m": 1, "B": [100.0]}', OLD_TARGET_MESSAGE),
    ('{"m": 1, "B": [3.5]}', OLD_TARGET_MESSAGE),
])
def test_old_header_exit_2(tmp_path, mech_file, command, header, message, capsys):
    """A header that still carries the random order's seed or a target size
    is an error: read silently, the seed would run the random order at
    another seed, and the B would look like the target the run posts, which
    is the mechanism config's."""
    old = tmp_path / "old.jsonl"
    old.write_text(header + '\n{"t": 1, "id": 0, "q": [5], "v": 2.0}\n')
    sched = tmp_path / "sched.json"
    sched.write_text('{"integral": true, "entries": []}')
    if command == "run":
        argv = ["run", "--scenario", str(old), "--mechanism", str(mech_file),
                "--horizon", "3", "--out", str(tmp_path / "o")]
    else:
        argv = _verify_args(old, sched)
    assert main(argv) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name", ["eip_c2_failure", "log_range", "c_below_two", "discount_mix", "patience_global"]
)
def test_adaptive_export_reruns_as_file_scenario(tmp_path, name, capsys):
    """A builtin run's exported stream (an adaptive one's realized stream),
    run again as a file scenario with the builtin's mechanism, effective
    policy and block count, gives the same bytes."""
    bundle = BUILTINS[name].build()
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", name, "--out", str(a)]) == 0
    (tmp_path / "mech.json").write_text(json.dumps(params_to_config(bundle.params[0])))
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_config(bundle.policy)))
    blocks = json.loads((a / "summary.json").read_text())["blocks"]
    assert main([
        "run", "--scenario", str(a / "scenario.jsonl"),
        "--mechanism", str(tmp_path / "mech.json"), "--policy", str(tmp_path / "policy.json"),
        "--horizon", str(blocks), "--out", str(b),
    ]) == 0
    for f in ("trace.jsonl", "schedule.json", "scenario.jsonl"):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


# SHA-256 of the outputs of ``feemarket run --scenario <name>`` with default flags.
BUILTIN_RUN_DIGESTS = {
    "eip_c2_failure": {
        "trace.jsonl": "f3288556d7ee04944bbac6d7c4fb2dc735ad7bce2930ca78af882c2ab6f86922",
        "schedule.json": "78ed9bd8249693f9e3fc682831fe03579fda2a218850bcb14c934a16406fd86e",
        "summary.json": "f296ccb41e24bdbcb25362cd7a02d3445d8e6f8da2df765b0d67feb35ab8d40d",
    },
    "log_range": {
        "trace.jsonl": "0609503f30a132adc8f046f5c5f35382dd598a0c3e686c1cf3ac176f1945094a",
        "schedule.json": "43f1f0d7cf4bc01a1e605e82116cc72468fa75293c0ccee2b64163d3d27277a7",
        "summary.json": "b8e510f81696f86a76c8a1be01c1b97da5afee1b90dfc892402938dd6b5e3d30",
    },
    "c_below_two": {
        "trace.jsonl": "64092b42f7c043f2b0d0e056e18c2b19cdc5a8a54d24331a008084d825ec8c56",
        "schedule.json": "5f71e390c5ea13bdcacf16c8382bc39b5d36e05723c9e41363bfdb243c018d0a",
        "summary.json": "844ed242a7c202b6973c56d8976038fb9a8d01a37ff1d13d6c37242f4439b3b0",
    },
    "discount_mix": {
        "trace.jsonl": "3e8c1a89a33d44ca4404af11075147539b3c9a74cc84541661034ae9d7505cbe",
        "schedule.json": "ce7722ac681beb84301095d4ebf7c83799a84315c7bb69204a33886e1a3d1067",
        "summary.json": "3e2d6c629b790ea13dfa7d9524a7b7d68819118b63481baf1ebe3756f7416b76",
    },
    "patience_global": {
        "trace.jsonl": "982d9530a3004504982aa2a38efdb646892fce99d3aa263a212d682d19fc23ce",
        "schedule.json": "41f07a22a132ddbc0cab96e83a2ae3c41145f1c0031bed7a5786bd8cd852da62",
        "summary.json": "a0c91e4d21b4ff2f91df87c412bce03fe226aab456fd2b81032d38f22ccf09a1",
    },
    "three_resources": {
        "trace.jsonl": "f05b1283b97fb5803f7df908ae7c58e371fd76873214d23a87a58c74960aef63",
        "schedule.json": "8d9df79652b85367a1cfc978aceb61704421e302642406784c7cc1e9d9f6d9d2",
        "summary.json": "2c1e020e90fd84731ae2f5241d255961fc524e33881c1978d6e35ee2c9b4c807",
    },
}


@pytest.mark.parametrize("name", sorted(BUILTIN_RUN_DIGESTS))
def test_builtin_run_bytes_pinned(tmp_path, name, capsys):
    assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in BUILTIN_RUN_DIGESTS[name]}
    assert digests == BUILTIN_RUN_DIGESTS[name]


def test_lower_bounds_suite_csv_pinned(tmp_path):
    out = tmp_path / "lb.csv"
    assert main(["suite", "--name", "lower_bounds", "--seeds", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f27d9896e582cb0ec2d0fbca82ca154d2fc9057233886b3d1d91a737df752bb3"
    )


def test_acceptance_suite_csv_pinned(tmp_path):
    # the acceptance command; the same digest pins perfbench's suite_all workload
    out = tmp_path / "suite.csv"
    args = ["suite", "--name", "all", "--seeds", "2", "--horizon", "60", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "621dfcafe17d5fcc57ab3d2d4867ca705c855cab1456531366cbeb41b57367af"
    )


# SHA-256 of the outputs of ``feemarket run`` on an overloaded file scenario:
# random_family (seed 1, T = 600, load 2.5, theorem parameters) run for
# T + Gamma blocks, so low-value transactions pile up in the pending pool.
OVERLOADED_RUN_DIGESTS = {
    "value_asc": {
        "trace.jsonl": "47c3d7365dc7008c769f77f45fc1d1e5105a2de3986f548adfb0a13140c3053f",
        "schedule.json": "7d7122ac12e465c358030c17cfc6f701243629cf770e92b33e6c606b892c47d4",
        "summary.json": "4166bcd78b11079b78c9bad57f33843eeeadf6faefaf7c5f30019dca8384ea48",
    },
    "random": {
        "trace.jsonl": "0c019a414809564f93ad4e93b40a0df7bf573c140548f55092873686d644a7ca",
        "schedule.json": "8589f90cfb1970e7b0adfd31251a5991037055ce8ea295ae8737bf35af5ed9b9",
        "summary.json": "b448d03fd4288ea4afaff49f8f10beff51f58bdb40091858eec2bdca38a5933e",
    },
    "value_desc": {
        "trace.jsonl": "3117d6a760f34f45f7be7e13e1543f8dfec6b4265893f0830e1cca397d6320b7",
        "schedule.json": "520fac7300ce7c0e547d1dfff4aea360ea6fd2dcb84c07dda119ac069a38191c",
        "summary.json": "707da38274a39d9cd1e87d609aea8617b6a6831dc6ce630d03fdf496e1fbd6f3",
    },
    # Tips 1 / v rank the transactions of this scenario as value_asc does,
    # so the bytes are the same.
    "tip": {
        "trace.jsonl": "47c3d7365dc7008c769f77f45fc1d1e5105a2de3986f548adfb0a13140c3053f",
        "schedule.json": "7d7122ac12e465c358030c17cfc6f701243629cf770e92b33e6c606b892c47d4",
        "summary.json": "4166bcd78b11079b78c9bad57f33843eeeadf6faefaf7c5f30019dca8384ea48",
    },
}


@pytest.mark.parametrize("policy", sorted(OVERLOADED_RUN_DIGESTS))
def test_overloaded_run_bytes_pinned(tmp_path, policy, capsys):
    params = theorem_params()
    scn = random_family(
        seed=1, horizon=600, value_range=(math.exp(params.eta), 1e6), q_max=100,
        load_factor=2.5, B=100, eta=params.eta,
    )
    (tmp_path / "scenario.jsonl").write_text(scenario_to_jsonl(scn))
    (tmp_path / "mech.json").write_text(json.dumps(params_to_config(params)))
    policy_config = {"policy": policy}
    if policy == "random":
        # the scenario header carried random_family's seed, 1, before the
        # policy config did
        policy_config["seed"] = 1
    if policy == "tip":
        policy_config["tips"] = {str(t.id): 1.0 / t.unit_value for t in scn.transactions}
    (tmp_path / "policy.json").write_text(json.dumps(policy_config))
    horizon = 600 + theorem_gamma(params, v_max=1e6, q_max=100)
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", str(tmp_path / "scenario.jsonl"),
        "--mechanism", str(tmp_path / "mech.json"), "--policy", str(tmp_path / "policy.json"),
        "--horizon", str(horizon), "--out", str(out),
    ]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in OVERLOADED_RUN_DIGESTS[policy]}
    assert digests == OVERLOADED_RUN_DIGESTS[policy]


# SHA-256 of ``feemarket verify --benchmark opt_fractional``'s report on the
# value_asc run above (T = 600, eta = 0.125), keyed by (gamma, bench limit):
# at the theorem's Gamma every threshold passes; at gamma 0 against a
# benchmark allowed 110 a block, 259 thresholds fail, so the report carries
# a first violation and its count.
VERIFY_REPORT_DIGESTS = {
    (114, 100): (0, "309fc1ec4a061db45b0061ec7f91b1f373ea8907d72857af3f00a2be74d588b3"),
    (0, 110): (1, "58cac834840b69b08091f82f8f8b20177703418629fb88f43763dac9c6a7ea02"),
}


@pytest.fixture(scope="module")
def overloaded_run(tmp_path_factory):
    params = theorem_params()
    scn = random_family(
        seed=1, horizon=600, value_range=(math.exp(params.eta), 1e6), q_max=100,
        load_factor=2.5, B=100, eta=params.eta,
    )
    tmp = tmp_path_factory.mktemp("overloaded")
    (tmp / "scenario.jsonl").write_text(scenario_to_jsonl(scn))
    (tmp / "mech.json").write_text(json.dumps(params_to_config(params)))
    horizon = 600 + theorem_gamma(params, v_max=1e6, q_max=100)
    assert main(["run", "--scenario", str(tmp / "scenario.jsonl"), "--mechanism",
                 str(tmp / "mech.json"), "--horizon", str(horizon), "--out", str(tmp)]) == 0
    return tmp


@pytest.mark.parametrize("gamma, limit", sorted(VERIFY_REPORT_DIGESTS))
def test_verify_report_bytes_pinned(overloaded_run, tmp_path, gamma, limit, capsys):
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(_verify_args(overloaded_run / "scenario.jsonl", overloaded_run / "schedule.json",
                           horizon="600", gamma=str(gamma), **{"bench-limit": str(limit)},
                           out=str(report)))
    data = report.read_bytes()
    assert capsys.readouterr().out == data.decode()
    assert (rc, hashlib.sha256(data).hexdigest()) == VERIFY_REPORT_DIGESTS[gamma, limit]


@pytest.fixture
def collector():
    """Restores the cyclic collector's state the test found."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("outcome", [0, 1, 2, "raise"])
def test_main_pauses_and_restores_collector(collecting, outcome, collector, monkeypatch, capsys):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "raise":
            raise RuntimeError("boom")
        if outcome == 2:
            raise cli.FeeMarketError("bad input")
        return outcome

    monkeypatch.setattr(cli, "cmd_suite", command)
    gc.enable() if collecting else gc.disable()
    argv = ["suite", "--name", "theorems", "--seeds", "0"]
    if outcome == "raise":
        with pytest.raises(RuntimeError, match="boom"):
            main(argv)
    else:
        assert main(argv) == outcome
    assert seen == [False]
    assert gc.isenabled() is collecting


def test_main_restores_collector_after_real_commands(tmp_path, scenario_file, collector, capsys):
    gc.enable()
    empty = tmp_path / "empty.json"
    empty.write_text('{"integral": true, "entries": []}')
    assert main(["suite", "--name", "theorems", "--seeds", "0"]) == 0
    assert gc.isenabled()
    assert main(_verify_args(scenario_file, empty, gamma="0")) == 1
    assert gc.isenabled()
    assert main(_verify_args(scenario_file, empty, horizon="0")) == 2
    assert gc.isenabled()
    gc.disable()
    assert main(_verify_args(scenario_file, empty, gamma="0")) == 1
    assert not gc.isenabled()


def test_cyclic_garbage_does_not_grow_with_input(tmp_path, collector, capsys):
    """With the collector off, run and verify leave the same cyclic garbage
    (argparse's parser) on 200 and on 2,000 transactions: the records they
    build per transaction form no cycles, so pausing the collector while a
    command runs costs no memory that grows with the input."""
    params = theorem_params()
    (tmp_path / "mech.json").write_text(json.dumps(params_to_config(params)))

    def garbage(horizon):
        scn = random_family(
            seed=1, horizon=horizon, value_range=(math.exp(params.eta), 1e6), q_max=100,
            load_factor=2.5, B=100, eta=params.eta,
        )
        path = tmp_path / f"scenario{horizon}.jsonl"
        path.write_text(scenario_to_jsonl(scn))
        out = tmp_path / f"out{horizon}"
        gc.collect()
        assert main(["run", "--scenario", str(path), "--mechanism", str(tmp_path / "mech.json"),
                     "--horizon", str(2 * horizon), "--out", str(out)]) == 0
        assert main(_verify_args(path, out / "schedule.json", horizon=str(horizon),
                                 gamma=str(horizon))) in (0, 1)
        return len(scn.transactions), gc.collect()

    gc.disable()
    garbage(40)  # first calls fill caches, once
    (small, small_garbage), (large, large_garbage) = garbage(40), garbage(400)
    assert (small, large) == (200, 2000)
    assert small_garbage == large_garbage


# ---------------------------------------------------------------------------
# Chunked scenario reading and line-by-line writing
# ---------------------------------------------------------------------------

# Every line boundary of str.splitlines, CRLF, and text between them.
_PIECES = ["a", "bc", " ", "", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
           "\x85", "\u2028", "\u2029"]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
       st.sampled_from([1, 2, 3, 7, 64]))
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunked_lines_match_splitlines(tmp_path, text, chunk):
    path = tmp_path / "text"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    # newline=None reads "\r" and "\r\n" as "\n"; newline="" keeps them,
    # so a "\r" at a chunk's end may pair with the next chunk's "\n"
    for newline in (None, ""):
        with open(path, encoding="utf-8", newline=newline) as fh:
            want = fh.read().splitlines()
        with open(path, encoding="utf-8", newline=newline) as fh, \
                mock.patch.object(cli, "_CHUNK", chunk):
            assert list(cli._lines(fh)) == want


def _event_line(t, i, q, v, template):
    if template:
        return f'{{"t": {t}, "id": {i}, "q": [{q}], "v": {v}, "sens": {{"kind": "patient"}}}}'
    return json.dumps({"id": i, "t": t, "q": [q], "v": v})


_events = st.builds(
    _event_line, st.integers(1, 4), st.integers(0, 8), st.integers(1, 60),
    st.sampled_from([1.5, 2.0, 3.25, 1e6]), st.booleans(),
)
_scenario_texts = st.builds(
    lambda lines, breaks, end: "".join(
        ln + br for ln, br in zip(lines, breaks)
    ).rstrip("\r\n\v\f\x1c") + end,
    st.lists(st.one_of(_events, st.sampled_from(["", "  ", "{oops"])), min_size=1, max_size=12)
    .map(lambda events: ['{"m": 1}', *events]),
    st.lists(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c"]), min_size=13, max_size=13),
    st.sampled_from(["", "\n", "\r\n", "\r"]),
)


@given(_scenario_texts, st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_and_verify_read_a_file_as_its_whole_text(tmp_path, mech_file, capsys, text, chunk):
    # the same stream as scenario_from_jsonl of the whole text, or the same
    # error on the same line, whatever the line breaks and chunk size
    path, canon = tmp_path / "scenario.jsonl", tmp_path / "canon.jsonl"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    sched = tmp_path / "sched.json"
    sched.write_text('{"integral": true, "entries": []}')
    try:
        scn, error = scenario_from_jsonl(path.read_text()), None
    except ScenarioError as exc:
        error = f"error: {exc}\n"
    out = tmp_path / "out"
    with mock.patch.object(cli, "_CHUNK", chunk):
        run_rc = main(["run", "--scenario", str(path), "--mechanism", str(mech_file),
                       "--horizon", "6", "--out", str(out)])
        run_err = capsys.readouterr().err
        verify_rc = main(_verify_args(path, sched))
        verify = capsys.readouterr()
    if error is not None:
        assert (run_rc, run_err) == (2, error)
        assert (verify_rc, verify.err) == (2, error)
        return
    assert run_rc == 0 and run_err == ""
    assert (out / "scenario.jsonl").read_text() == scenario_to_jsonl(scn)
    canon.write_text(scenario_to_jsonl(scn))
    want_rc = main(_verify_args(canon, sched))
    assert (verify_rc, verify.out) == (want_rc, capsys.readouterr().out)


def test_run_missing_scenario_file_names_path_first_exit_2(tmp_path, mech_file, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["run", "--scenario", str(missing), "--mechanism", str(mech_file),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {missing}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_utf8_file_names_path_first_exit_2(tmp_path, scenario_file, mech_file, command,
                                               capsys):
    # the scenario reader decodes a chunk at a time, so the error comes from
    # inside the parse; the schedule reader's comes from its one read
    bad = tmp_path / "bad.jsonl"
    lines = scenario_file.read_bytes().splitlines(keepends=True)
    bad.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
    if command == "run":
        args = ["run", "--scenario", str(bad), "--mechanism", str(mech_file),
                "--out", str(tmp_path / "o")]
    else:
        args = _verify_args(scenario_file, bad)
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert "can't decode byte 0xff" in err[0]
    assert not (tmp_path / "o").exists()


def test_scenario_file_read_and_write_hold_one_chunk_beyond_the_stream(tmp_path):
    # the whole text, its line list or the joined output would each cost
    # about the file's size; reading and writing a chunk at a time costs a
    # small fraction of it
    scn = random_family(1, 4000, (1.2, 1e6), 100, 2.5, B=100, eta=0.125)
    assert len(scn.transactions) >= 20_000
    path, copy = tmp_path / "scenario.jsonl", tmp_path / "copy.jsonl"
    path.write_text(scenario_to_jsonl(scn))
    size = path.stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        read = cli._read_scenario(str(path))
        stream, peak = tracemalloc.get_traced_memory()
        assert peak - stream <= size // 4, (peak - stream, size)
        tracemalloc.reset_peak()
        cli._atomic_write(copy, core._scenario_lines(read))
        peak = tracemalloc.get_traced_memory()[1]
        assert peak - stream <= size // 4, (peak - stream, size)
    finally:
        tracemalloc.stop()
    assert read == scn
    assert copy.read_bytes() == path.read_bytes()
