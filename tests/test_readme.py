"""The README's library quick-start runs against the current API, its
config examples parse, and its table of suite claims matches the suite."""

import json
import re
from operator import ge, le, lt
from pathlib import Path

from feemarket import cli
from feemarket.adversary import SeededRandom, TipPriority, policy_from_config, policy_to_config
from feemarket.core import Scenario, scenario_from_jsonl
from feemarket.mechanisms import MechanismParams, params_from_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "WelfareReport(passed=True" in capsys.readouterr().out


def _file_format(name: str) -> str:
    """The text of the "File formats" bullet for ``name``."""
    section = README.read_text().split("### File formats", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^- \*\*{re.escape(name)}\*\*(.*?)(?=^- |\Z)", section, re.S | re.M)[1]


def test_readme_mechanism_config_example_parses():
    example = re.search(r"`(\{.*?\})`", _file_format("Mechanism config"), re.S)[1]
    assert params_from_config(json.loads(example)) == MechanismParams(
        B=100.0, c=2.0, eta=0.125, p_min=1e-18, p_1=1e-9, discounted_eligibility=False
    )


def test_readme_policy_config_examples_parse():
    text = _file_format("Policy config")
    example = re.search(r"`(\{.*?\})`", text, re.S)[1]
    assert policy_from_config(json.loads(example)) == TipPriority(tips={7: 1.0})
    names = re.findall(r"`(\w+)`", re.search(r"`\s+or\s+(.*?)\.", text, re.S)[1])
    assert names == ["value_asc", "value_desc", "random"]
    for name in names:
        # the random order's config always carries its seed, 0 when absent
        seed = {"seed": 0} if name == "random" else {}
        assert policy_to_config(policy_from_config({"policy": name})) == {"policy": name, **seed}
    random_example = re.search(r"`(\{\"policy\": \"random\".*?\})`", text, re.S)[1]
    assert policy_from_config(json.loads(random_example)) == SeededRandom(seed=7)


def test_readme_scenario_header_example_parses():
    header = re.search(r"header `(\{.*?\})`", _file_format("Scenario"), re.S)[1]
    assert scenario_from_jsonl(header + "\n") == Scenario()


def test_readme_suite_claims_match_rows():
    section = README.read_text().split("- **Suite CSV**", 1)[1].split("\n- **", 1)[0]
    table = {}
    for line in re.findall(r"^  \| (`.*)\|$", section, re.M):
        names, relation, _bound = (cell.strip() for cell in line.split(" | "))
        for name in re.findall(r"`(\w+(?:\.\d+)?)`", names):
            table[name] = relation
    rows = cli.suite_theorems(1, horizon=60) + cli.suite_lower_bounds()
    assert set(table) == {r.metric for r in rows}
    symbols = {ge: "≥", le: "≤", lt: "<", cli._within: "≤ bound·(1+10⁻⁹)"}
    for r in rows:
        if r.holds in symbols:
            assert table[r.metric] == symbols[r.holds], r.metric
