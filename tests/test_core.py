"""Core accounting: welfare, threshold quantities, size verifiers, serialization."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feemarket import (
    PATIENT,
    AdaptiveScenario,
    BlockRecord,
    Discount,
    InvalidScheduleError,
    MechanismParams,
    Patience,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
    UnsupportedSensitivityError,
    ValueAscending,
    check_avg_block_size,
    check_threshold_dominance,
    check_welfare_dominance,
    greedy_online,
    max_block_size,
    multi_resource_mechanism,
    opt_fractional,
    opt_integral_small,
    quantity_above,
    quantity_curve,
    run_price_based,
    validate_schedule,
    welfare,
    welfare_via_threshold_integral,
)
from feemarket.core import (
    block_sizes,
    measured_slackness,
    scenario_from_jsonl,
    scenario_to_jsonl,
    schedule_from_json,
    schedule_to_json,
)
from feemarket.cli import PARTIAL_PATIENCE_PARAMS
from feemarket.scenarios import patience_global

from oracles import brute_window_check


def scn_of(*txs: Transaction) -> Scenario:
    return Scenario(list(txs))


def full(*pairs) -> Schedule:
    return Schedule([ScheduleEntry(tx=i, time=t, fraction=1.0) for i, t in pairs], integral=True)


class TestTransaction:
    def test_value_patient(self):
        t = Transaction(id=0, arrival=3, size=(10,), unit_value=2.0)
        assert t.value_at(3) == 2.0
        assert t.value_at(100) == 2.0

    def test_value_discount(self):
        t = Transaction(id=0, arrival=2, size=(10,), unit_value=8.0, sensitivity=Discount(rho=0.5))
        assert t.value_at(2) == 8.0
        assert t.value_at(3) == 4.0
        assert t.value_at(5) == 1.0

    def test_value_patience_window(self):
        t = Transaction(id=0, arrival=2, size=(10,), unit_value=8.0, sensitivity=Patience(window=3))
        assert t.value_at(5) == 8.0
        assert t.value_at(6) == 0.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            Transaction(id=0, arrival=0, size=(1,), unit_value=1.0)
        with pytest.raises(ValueError):
            Transaction(id=0, arrival=1, size=(0, 0), unit_value=1.0)
        with pytest.raises(ValueError):
            Transaction(id=0, arrival=1, size=(1,), unit_value=-1.0)
        with pytest.raises(ValueError):
            Transaction(id=0, arrival=1, size=(1.5,), unit_value=1.0)  # gas units
        with pytest.raises(ValueError):
            Discount(rho=1.0)

    @pytest.mark.parametrize("fields,message", [
        ({"arrival": 0}, "tx 7: arrival must be >= 1, got 0"),
        ({"arrival": 0, "size": ()}, "tx 7: arrival must be >= 1, got 0"),
        ({"size": ()}, "tx 7: sizes must be nonnegative integer gas units, got ()"),
        ({"size": (3, -1)}, "tx 7: sizes must be nonnegative integer gas units, got (3, -1)"),
        ({"size": (1.5,)}, "tx 7: sizes must be nonnegative integer gas units, got (1.5,)"),
        ({"size": (2, 1.0)}, "tx 7: sizes must be nonnegative integer gas units, got (2, 1.0)"),
        ({"size": (0, 0)}, "tx 7: at least one size entry must be positive"),
        ({"size": (False,)}, "tx 7: at least one size entry must be positive"),
        ({"size": (0,), "unit_value": math.nan}, "tx 7: at least one size entry must be positive"),
        ({"unit_value": math.nan}, "tx 7: unit value must be finite and >= 0"),
        ({"unit_value": math.inf}, "tx 7: unit value must be finite and >= 0"),
        ({"unit_value": -1.0}, "tx 7: unit value must be finite and >= 0"),
        ({"size": [5]}, "tx 7: sizes must be nonnegative integer gas units, got [5]"),
        ({"size": (0,)}, "tx 7: at least one size entry must be positive"),
        ({"size": (-3,)}, "tx 7: sizes must be nonnegative integer gas units, got (-3,)"),
        ({"unit_value": True}, "tx 7: unit value must be a number, got True"),
        ({"unit_value": False}, "tx 7: unit value must be a number, got False"),
        ({"arrival": 1.5}, "tx 7: arrival must be an integer, got 1.5"),
        ({"arrival": 2.0}, "tx 7: arrival must be an integer, got 2.0"),
        ({"arrival": 0.5}, "tx 7: arrival must be an integer, got 0.5"),
        ({"arrival": "1"}, "tx 7: arrival must be an integer, got '1'"),
        ({"arrival": -2}, "tx 7: arrival must be >= 1, got -2"),
        ({"id": 1.5}, "id must be an integer, got 1.5"),
        ({"id": "a"}, "id must be an integer, got 'a'"),
        ({"id": 2.0, "arrival": 0}, "id must be an integer, got 2.0"),
        ({"sensitivity": "x"}, "tx 7: unknown sensitivity 'x'"),
        ({"sensitivity": None}, "tx 7: unknown sensitivity None"),
        ({"sensitivity": 0.5, "unit_value": -1.0}, "tx 7: unit value must be finite and >= 0"),
        ({"unit_value": "2.0"}, "tx 7: unit value must be a number, got '2.0'"),
        ({"unit_value": None}, "tx 7: unit value must be a number, got None"),
        ({"unit_value": 1j}, "tx 7: unit value must be a number, got 1j"),
    ])
    def test_rejection_messages(self, fields, message):
        with pytest.raises(ValueError) as exc:
            Transaction(**{"id": 7, "arrival": 1, "size": (5,), "unit_value": 1.0, **fields})
        assert str(exc.value) == message

    @pytest.mark.parametrize("make,message", [
        (lambda: Patience(window=1.5), "patience window must be an integer, got 1.5"),
        (lambda: Patience(window="3"), "patience window must be an integer, got '3'"),
        (lambda: Patience(window=-1), "patience window must be >= 0, got -1"),
        (lambda: Patience(window=True), "patience window must be an integer, got True"),
        (lambda: Discount(rho=False), "rho must be a number, got False"),
        (lambda: Discount(rho="0.5"), "rho must be a number, got '0.5'"),
        (lambda: Discount(rho=None), "rho must be a number, got None"),
        (lambda: Discount(rho=True), "discount factor must be in [0, 1), got True"),
        (lambda: Discount(rho=1.0), "discount factor must be in [0, 1), got 1.0"),
    ])
    def test_sensitivity_rejection_messages(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_bool_sizes_accepted(self):
        assert Transaction(id=True, arrival=1, size=(1,), unit_value=0.0).id is True
        assert Transaction(id=7, arrival=1, size=(True, False), unit_value=0.0).size == (True, False)
        assert Transaction(id=7, arrival=1, size=(True,), unit_value=0.0).size == (True,)


# One instance of each frozen record: its field values in field order, and
# a second valid value for each field.
RECORDS = [
    (Transaction, (7, 2, (5, 3), 1.5, Discount(rho=0.25)), (8, 3, (5, 4), 2.5, PATIENT)),
    (ScheduleEntry, (7, 3, 0.5), (8, 4, 1.0)),
    (
        BlockRecord,
        (3, (0.5,), (100.0,), ((7, 1.0),), (5.0,), 7.5),
        (4, (0.25,), (50.0,), (), (0.0,), 0.0),
    ),
]


class TestRecords:
    """Transaction, ScheduleEntry and BlockRecord store their fields through
    their slots; they must behave as the generated dataclass methods would."""

    @pytest.mark.parametrize("cls,values,others", RECORDS)
    def test_fields_are_frozen(self, cls, values, others):
        record = cls(*values)
        for f, other in zip(dataclasses.fields(cls), others):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, other)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        assert tuple(getattr(record, f.name) for f in dataclasses.fields(cls)) == values

    @pytest.mark.parametrize("cls,values,others", RECORDS)
    def test_eq_hash_and_repr_are_field_wise(self, cls, values, others):
        names = [f.name for f in dataclasses.fields(cls)]
        record = cls(*values)
        same = cls(**dict(zip(names, values)))
        assert record == same and hash(record) == hash(same) == hash(values)
        assert record != values
        assert repr(record) == (
            f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        )
        for name, other in zip(names, others):
            assert record != dataclasses.replace(record, **{name: other})

    def test_replace_runs_the_checks(self):
        t = Transaction(7, 2, (5,), 1.5)
        assert dataclasses.replace(t, arrival=4) == Transaction(7, 4, (5,), 1.5)
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(t, arrival=0)
        assert str(exc.value) == "tx 7: arrival must be >= 1, got 0"

    def test_sensitivity_defaults_to_patient(self):
        assert dataclasses.fields(Transaction)[4].default is PATIENT
        assert Transaction(7, 2, (5,), 1.5).sensitivity is PATIENT
        assert Transaction(id=7, arrival=2, size=(5,), unit_value=1.5).sensitivity is PATIENT


class TestWelfare:
    def test_single_term(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=2.0))
        assert welfare(full((0, 1)), scn, 1) == 20.0

    def test_empty(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=2.0))
        assert welfare(Schedule([], integral=True), scn, 7) == 0.0

    def test_three_txs_brute_force(self):
        # independent oracle: sum of q*v over the set = 5*1 + 5*3 + 10*2 = 40
        txs = [
            Transaction(id=0, arrival=1, size=(5,), unit_value=1.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=3.0),
            Transaction(id=2, arrival=1, size=(10,), unit_value=2.0),
        ]
        expected = sum(t.q * t.unit_value for t in txs)
        scn = scn_of(*txs)
        assert welfare(full((0, 1), (1, 1), (2, 2)), scn, 2) == expected == 40.0

    def test_discount_credits_execution_time(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(4,), unit_value=1.0, sensitivity=Discount(rho=0.5))
        )
        assert welfare(full((0, 3)), scn, 3) == pytest.approx(4 * 0.25)

    def test_patience_expired_contributes_zero(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(4,), unit_value=1.0, sensitivity=Patience(window=2))
        )
        assert welfare(full((0, 4)), scn, 4) == 0.0

    def test_unknown_id(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        with pytest.raises(InvalidScheduleError):
            welfare(full((9, 1)), scn, 1)

    def test_window_cutoff(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=2.0))
        assert welfare(full((0, 5)), scn, 4) == 0.0

    def test_blocks_before_one_not_counted(self):
        """Welfare counts blocks 1..horizon only, as the threshold-integral
        identity does, even on a schedule that ``validate_schedule`` rejects."""
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(10,), unit_value=2.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=3.0),
        )
        s = full((0, 0), (1, 1))
        assert welfare(s, scn, 5) == welfare_via_threshold_integral(s, scn, 5) == 15.0


class TestQuantityAbove:
    def setup_method(self):
        self.scn = scn_of(
            Transaction(id=0, arrival=1, size=(5,), unit_value=1.0),
            Transaction(id=1, arrival=1, size=(7,), unit_value=3.0),
            Transaction(id=2, arrival=2, size=(11,), unit_value=2.0),
        )
        self.sched = full((0, 1), (1, 1), (2, 2))

    def test_zero_threshold_is_total(self):
        assert quantity_above(self.sched, self.scn, 0.0, (1, 2)) == 23.0

    def test_above_max_is_zero(self):
        assert quantity_above(self.sched, self.scn, 3.5, (1, 2)) == 0.0

    def test_mid_threshold_filter_and_sum(self):
        # only unit values >= 1.5 qualify: sizes 7 + 11
        assert quantity_above(self.sched, self.scn, 1.5, (1, 2)) == 18.0

    def test_inclusive(self):
        assert quantity_above(self.sched, self.scn, 2.0, (1, 2)) == 18.0

    def test_window(self):
        assert quantity_above(self.sched, self.scn, 0.0, (2, 2)) == 11.0


class TestThresholdIntegral:
    def test_single_step(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=2.0))
        assert welfare_via_threshold_integral(full((0, 1)), scn, 1) == 20.0

    def test_two_values_by_hand(self):
        # (3-1)*5 + 1*10 = 20, equal to welfare
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(5,), unit_value=1.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=3.0),
        )
        s = full((0, 1), (1, 1))
        assert welfare_via_threshold_integral(s, scn, 1) == pytest.approx(20.0, rel=1e-12)
        assert welfare(s, scn, 1) == pytest.approx(20.0, rel=1e-12)

    def test_empty(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        assert welfare_via_threshold_integral(Schedule([]), scn, 3) == 0.0

    def test_rejects_time_sensitive(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(1,), unit_value=1.0, sensitivity=Discount(rho=0.1))
        )
        with pytest.raises(UnsupportedSensitivityError):
            welfare_via_threshold_integral(full((0, 1)), scn, 1)


PARAMS = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)


class TestNaNArguments:
    """A NaN horizon, window end or theta compares false with everything, so
    it once made a verifier pass or read 0.0, or an engine or optimum fail in
    ``range``; each raises a ValueError that names it."""

    scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=1.0))
    s = full((0, 1))

    @pytest.mark.parametrize("call, message", [
        (lambda s, scn: check_threshold_dominance(s, s, scn, math.nan, 0, 0.1, 100.0),
         "horizon must be >= 1, got nan"),
        (lambda s, scn: check_welfare_dominance(s, s, scn, math.nan, 0, 0.1),
         "horizon must be >= 1, got nan"),
        (lambda s, scn: welfare(s, scn, math.nan), "horizon must be >= 1, got nan"),
        (lambda s, scn: welfare_via_threshold_integral(s, scn, math.nan),
         "horizon must be >= 1, got nan"),
        (lambda s, scn: quantity_curve(s, scn, (math.nan, 5)),
         "window ends must be numbers, got (nan, 5)"),
        (lambda s, scn: quantity_curve(s, scn, (1, math.nan)),
         "window ends must be numbers, got (1, nan)"),
        (lambda s, scn: quantity_curve(s, scn, (1, 5))(math.nan), "theta must be a number, got nan"),
        (lambda s, scn: quantity_above(s, scn, math.nan, (1, 5)), "theta must be a number, got nan"),
        (lambda s, scn: run_price_based(scn, PARAMS, ValueAscending(), math.nan),
         "horizon must be >= 1, got nan"),
        (lambda s, scn: multi_resource_mechanism(scn, [PARAMS], ValueAscending(), math.nan),
         "horizon must be >= 1, got nan"),
        (lambda s, scn: greedy_online(scn, 100.0, math.nan), "horizon must be >= 1, got nan"),
        (lambda s, scn: opt_fractional(scn, 100.0, math.nan), "horizon must be >= 1, got nan"),
        (lambda s, scn: opt_integral_small(scn, 100.0, math.nan),
         "horizon must be >= 1, got nan"),
    ])
    def test_nan_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(self.s, self.scn)
        assert str(exc.value) == message

    def test_threshold_check_rejects_a_horizon_below_one(self):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            check_threshold_dominance(self.s, self.s, self.scn, 0, 0, 0.1, 100.0)


class TestAvgBlockSize:
    def make(self, sizes):
        txs = []
        entries = []
        for t, q in enumerate(sizes, start=1):
            if q:
                txs.append(Transaction(id=t, arrival=t, size=(q,), unit_value=1.0))
                entries.append(ScheduleEntry(tx=t, time=t, fraction=1.0))
        return Schedule(entries, integral=True), scn_of(*txs)

    def test_alternating_double_blocks_pass_with_slack_one(self):
        sched, scn = self.make([20, 0, 20, 0])
        report = check_avg_block_size(sched, scn, 10.0, 1)
        assert report.passed
        # oracle: enumerate all 10 windows of [1, 4]
        sizes = {1: 20.0, 3: 20.0}
        assert brute_window_check(sizes, 10.0, 1, 1, 4) == []

    def test_single_double_block_fails_zero_slack(self):
        sched, scn = self.make([20])
        report = check_avg_block_size(sched, scn, 10.0, 0)
        assert not report.passed
        assert report.violation_count == 1
        assert (report.first_violation.start, report.first_violation.end) == (1, 1)

    def test_empty_passes(self):
        sched, _ = self.make([0, 0])
        scn = scn_of(Transaction(id=99, arrival=1, size=(1,), unit_value=1.0))
        assert check_avg_block_size(sched, scn, 10.0, 0).passed

    def test_matches_window_oracle(self):
        sizes = [13, 0, 7, 20, 5, 0, 18]
        sched, scn = self.make(sizes)
        for slack in (0, 1, 2):
            mine = check_avg_block_size(sched, scn, 10.0, slack)
            oracle = brute_window_check(
                {t: float(q) for t, q in enumerate(sizes, 1)}, 10.0, slack, 1, 7
            )
            assert mine.violation_count == len(oracle)
            first = mine.first_violation
            assert (first and (first.start, first.end)) == min(
                oracle, key=lambda w: (w[1] - w[0], w[0]), default=None
            )

    @pytest.mark.parametrize("B", [0.0, -10.0, float("inf"), float("nan"), [10.0, 10.0]])
    def test_bad_targets_rejected(self, B):
        sched, scn = self.make([20, 0])
        with pytest.raises(ValueError):
            check_avg_block_size(sched, scn, B, 0)

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_non_finite_slack_rejected(self, slack):
        # a NaN or +inf slack passed every window, -inf failed every one
        sched, scn = self.make([20, 0])
        with pytest.raises(ValueError) as exc:
            check_avg_block_size(sched, scn, 10.0, slack)
        assert str(exc.value) == f"slack must be finite, got {slack}"
        # a negative finite slack tightens the bound
        sched, scn = self.make([10, 10])
        assert check_avg_block_size(sched, scn, 10.0, 0.0).violation_count == 0
        assert check_avg_block_size(sched, scn, 10.0, -0.5).violation_count == 3

    def test_measured_slackness(self):
        sched, scn = self.make([20, 0, 20, 0])
        assert measured_slackness(sched, scn, 10.0) == pytest.approx(1.0)

    def test_zero_slack_iff_all_windows_within_target(self):
        # pass with zero slack exactly when every block and every window
        # average stays at or below the target
        sched, scn = self.make([10, 9, 10, 10])
        assert check_avg_block_size(sched, scn, 10.0, 0).passed
        sched, scn = self.make([10, 11, 9])  # one block over
        assert not check_avg_block_size(sched, scn, 10.0, 0).passed
        sched, scn = self.make([10, 10, 10, 10, 10, 1])
        assert check_avg_block_size(sched, scn, 10.0, 0).passed

    def test_every_window_failing_checks_in_linear_memory(self):
        # n blocks of 101 against B=100 fail in all n(n+1)/2 windows; one
        # object per window would need about 400 MiB, over the child's cap
        n = 1500
        code = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from feemarket import Scenario, Schedule, ScheduleEntry, Transaction, check_avg_block_size
txs = [Transaction(id=t, arrival=t, size=(101,), unit_value=1.0) for t in range(1, {n} + 1)]
sched = Schedule([ScheduleEntry(t, t, 1.0) for t in range(1, {n} + 1)], integral=True)
rep = check_avg_block_size(sched, Scenario(txs), 100.0, 0.0)
print(json.dumps([rep.violation_count, rep.first_violation.to_json()]))
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert json.loads(out.stdout) == [
            n * (n + 1) // 2, {"resource": 0, "window": [1, 1], "lhs": 101.0, "rhs": 100.0}
        ]


class TestMaxBlockSize:
    def test_empty(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        assert max_block_size(Schedule([]), scn) == (0.0,)

    def test_max(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(10,), unit_value=1.0),
            Transaction(id=1, arrival=2, size=(20,), unit_value=1.0),
            Transaction(id=2, arrival=3, size=(5,), unit_value=1.0),
        )
        assert max_block_size(full((0, 1), (1, 2), (2, 3)), scn) == (20.0,)

    def test_multi_resource_componentwise(self):
        scn = Scenario(
            m=2,
            transactions=[
                Transaction(id=0, arrival=1, size=(3, 7), unit_value=1.0),
                Transaction(id=1, arrival=2, size=(8, 2), unit_value=1.0),
            ],
        )
        assert max_block_size(full((0, 1), (1, 2)), scn) == (8.0, 7.0)


class TestScheduleValidation:
    def test_before_arrival(self):
        scn = scn_of(Transaction(id=0, arrival=5, size=(1,), unit_value=1.0))
        with pytest.raises(InvalidScheduleError):
            validate_schedule(full((0, 4)), scn)

    def test_fraction_sum(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        s = Schedule(
            [ScheduleEntry(0, 1, 0.7), ScheduleEntry(0, 2, 0.7)], integral=False
        )
        with pytest.raises(InvalidScheduleError):
            validate_schedule(s, scn)

    def test_integral_flag(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        s = Schedule([ScheduleEntry(0, 1, 0.5)], integral=True)
        with pytest.raises(InvalidScheduleError):
            validate_schedule(s, scn)

    def test_ok(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        validate_schedule(
            Schedule([ScheduleEntry(0, 1, 0.5), ScheduleEntry(0, 3, 0.5)]), scn
        )


class TestResourceCount:
    """Building a scenario whose transaction has another resource count than
    the scenario raises, with the message the engine and the reader give."""

    @pytest.mark.parametrize("m,size,other,bad", [
        (1, (4, 7), (3,), 0),
        (1, (3,), (4, 7), 1),
        (2, (4,), (3, 3), 0),
        (2, (3, 3), (4, 1, 1), 1),
    ])
    def test_wrong_resource_count_rejected(self, m, size, other, bad):
        txs = [Transaction(0, 1, size, 2.0), Transaction(1, 1, other, 1.0)]
        with pytest.raises(ScenarioError) as exc:
            Scenario(txs, m=m)
        n = len(txs[bad].size)
        assert str(exc.value) == f"tx {bad}: size has {n} resources, scenario has {m}"


class TestScenarioContract:
    """A scenario is an immutable, checked stream with its index built once."""

    tx0 = Transaction(0, 1, (5,), 1.0)
    tx1 = Transaction(1, 1, (5,), 2.0)

    def test_stream_cannot_be_edited(self):
        # an edit in place would leave an index that names the old tx 0
        scn = Scenario([self.tx0])
        assert scn.index() == {0: self.tx0}
        with pytest.raises(TypeError):
            scn.transactions[0] = self.tx1
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.transactions = [self.tx1]
        assert scn.transactions == (self.tx0,)
        assert scn.index() == {0: self.tx0}

    def test_replace_keeps_the_index(self):
        scn = Scenario([self.tx0, self.tx1])
        moved = dataclasses.replace(scn, m=1)
        assert moved == scn
        assert moved._index is scn._index

    def test_replace_with_another_resource_count_rechecks_the_stream(self):
        # the index holds the same transactions, but they were checked
        # against another m
        scn = Scenario([self.tx0, self.tx1])
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(scn, m=2)
        assert str(exc.value) == "tx 0: size has 1 resources, scenario has 2"

    def test_replace_with_another_stream_reindexes(self):
        scn = Scenario([self.tx0])
        other = dataclasses.replace(scn, transactions=[self.tx1])
        assert other.index() == {1: self.tx1}
        assert scn.index() == {0: self.tx0}
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(scn, transactions=[self.tx0, Transaction(0, 2, (5,), 3.0)])
        assert str(exc.value) == "duplicate transaction id 0"

    def test_index_that_does_not_hold_the_stream_is_rebuilt(self):
        scn = Scenario([self.tx0], _index={1: self.tx1})
        assert scn.index() == {0: self.tx0}

    def test_generator_is_not_a_scenario_field(self):
        gen = patience_global(PARTIAL_PATIENCE_PARAMS, p=4).scenario.generator
        with pytest.raises(TypeError):
            Scenario(generator=gen)
        adaptive = AdaptiveScenario(gen)
        assert adaptive.m == 1
        assert AdaptiveScenario(gen, m=4).m == 4

    @pytest.mark.parametrize("m", [True, False, 0, -1, 1.0, "1", None])
    def test_bad_resource_count_rejected(self, m):
        # the scenario reader reads a JSON 1.0 as 1; the library takes ints only
        for make in (lambda: Scenario(m=m), lambda: AdaptiveScenario(None, m=m)):
            with pytest.raises(ScenarioError) as exc:
                make()
            assert str(exc.value) == f"resource count m must be an integer >= 1, got {m!r}"

    def test_resource_count_is_keyword_only(self):
        with pytest.raises(TypeError):
            Scenario((), 2)
        with pytest.raises(TypeError):
            AdaptiveScenario(None, 2)

    def test_stream_types_carry_no_horizon(self):
        # how long to run is the run's choice (a builtin's is its bundle's),
        # the random order's seed is its policy's (SeededRandom.seed), and
        # the target size is the run's MechanismParams.B
        names = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert names(Scenario) == ["m", "transactions", "_index"]
        assert names(AdaptiveScenario) == ["m", "generator"]

    def test_index_is_read_only(self):
        # a write through the index would let the verifiers see a tx 5 that
        # the stream does not hold
        scn = Scenario([Transaction(0, 1, (5,), 1.0)])
        with pytest.raises(TypeError):
            scn.index()[5] = Transaction(5, 1, (5,), 9.0)
        assert dict(scn.index()) == {0: scn.transactions[0]}
        with pytest.raises(InvalidScheduleError):
            validate_schedule(Schedule([ScheduleEntry(5, 1, 1.0)]), scn)


class TestUnknownIds:
    """Every schedule verifier names the first unknown id among the entries
    it reads; an entry outside a verifier's time filter is never looked up."""

    scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=1.0))
    ok = full((0, 1))

    @pytest.mark.parametrize("verify", [
        lambda s, scn: validate_schedule(s, scn),
        lambda s, scn: welfare(s, scn, 9),
        lambda s, scn: quantity_curve(s, scn, (1, 9)),
        lambda s, scn: quantity_above(s, scn, 0.5, (2, 2)),
        lambda s, scn: welfare_via_threshold_integral(s, scn, 9),
        lambda s, scn: block_sizes(s, scn),
        lambda s, scn: max_block_size(s, scn),
        lambda s, scn: check_avg_block_size(s, scn, 100.0, 0.0),
        lambda s, scn: measured_slackness(s, scn, 100.0),
        lambda s, scn: check_threshold_dominance(s, full((0, 1)), scn, 5, 0, 0.1, 100.0),
        lambda s, scn: check_threshold_dominance(full((0, 1)), s, scn, 5, 0, 0.1, 100.0),
        lambda s, scn: check_welfare_dominance(s, full((0, 1)), scn, 5, 4, 0.1),
        lambda s, scn: check_welfare_dominance(full((0, 1)), s, scn, 5, 0, 0.1),
    ])
    def test_unknown_id_inside_filter_raises(self, verify):
        with pytest.raises(InvalidScheduleError) as exc:
            verify(full((0, 1), (98, 2), (99, 3)), self.scn)
        assert str(exc.value) == "entry references unknown transaction id 98"

    @pytest.mark.parametrize("evaluate", [
        lambda s, scn: welfare(s, scn, 2),
        lambda s, scn: quantity_curve(s, scn, (1, 2))(0.5),
        lambda s, scn: quantity_above(s, scn, 0.5, (1, 2)),
        lambda s, scn: welfare_via_threshold_integral(s, scn, 2),
    ])
    def test_unknown_id_outside_filter_ignored(self, evaluate):
        assert evaluate(full((0, 1), (99, 9)), self.scn) == 10.0

    def test_welfare_filter_is_the_horizon(self):
        s = full((0, 1), (99, 9))
        assert welfare(s, self.scn, 8) == 10.0
        with pytest.raises(InvalidScheduleError, match="unknown transaction id 99"):
            welfare(s, self.scn, 9)

    def test_threshold_check_order(self):
        """An unknown id in the algorithm's schedule is named; with one in
        each schedule, the benchmark's comes first, from its size pre-check."""
        alg, bench = full((0, 1), (98, 2)), full((0, 1), (97, 2))
        with pytest.raises(InvalidScheduleError, match="unknown transaction id 98"):
            check_threshold_dominance(alg, self.ok, self.scn, 5, 0, 0.1, 100.0)
        with pytest.raises(InvalidScheduleError, match="unknown transaction id 97"):
            check_threshold_dominance(alg, bench, self.scn, 5, 0, 0.1, 100.0)


class TestSerialization:
    def test_scenario_roundtrip(self):
        scn = Scenario(
            transactions=[
                Transaction(id=0, arrival=1, size=(5,), unit_value=1.5),
                Transaction(id=1, arrival=2, size=(7,), unit_value=2.5, sensitivity=Discount(rho=0.25)),
                Transaction(id=2, arrival=2, size=(9,), unit_value=0.5, sensitivity=Patience(window=4)),
            ],
        )
        back = scenario_from_jsonl(scenario_to_jsonl(scn))
        assert back.m == scn.m == 1
        assert list(back.transactions) == sorted(scn.transactions, key=lambda t: (t.arrival, t.id))

    def test_scenario_bad_line_number(self):
        text = scenario_to_jsonl(scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0)))
        broken = text.splitlines()
        broken[1] = "{not json"
        with pytest.raises(ScenarioError, match="line 2"):
            scenario_from_jsonl("\n".join(broken))

    def test_missing_header(self):
        with pytest.raises(ScenarioError):
            scenario_from_jsonl('{"t": 1, "id": 0, "q": [1], "v": 1.0}\n')

    @pytest.mark.parametrize("m", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_resource_count_rejected(self, m):
        with pytest.raises(ScenarioError, match=r"^line 1: bad header \(m must be an integer"):
            scenario_from_jsonl(f'{{"m": {m}}}\n')

    def test_schedule_roundtrip(self):
        s = Schedule([ScheduleEntry(3, 1, 0.25), ScheduleEntry(4, 2, 1.0)], integral=False)
        assert schedule_from_json(schedule_to_json(s)) == s

    def test_integral_floats_read_as_ints(self):
        header = '{"m": 1.0}\n'
        scn = scenario_from_jsonl(header + '{"t": 3.0, "id": 4.0, "q": [5.0], "v": 1.0}\n')
        t = scn.transactions[0]
        assert (t.arrival, t.id, t.size) == (3, 4, (5,))
        assert all(type(x) is int for x in (t.arrival, t.id, *t.size))
        s = schedule_from_json('{"integral": true, "entries": [{"id": 4.0, "t": 3.0, "frac": 1}]}')
        assert s.entries == [ScheduleEntry(4, 3, 1.0)]

    @pytest.mark.parametrize("line,match", [
        ('{"t": 1, "id": 0.7, "q": [5], "v": 1.0}', "integers"),
        ('{"t": 1, "id": 0, "q": [5.9], "v": 1.0}', "integers"),
        ('{"t": 1.5, "id": 0, "q": [5], "v": 1.0}', "integers"),
        ('{"t": 1, "id": "0", "q": [5], "v": 1.0}', "integers"),
        ('{"t": 1, "id": 0, "q": 5, "v": 1.0}', "not iterable"),
        ('{"t": 1, "id": 0, "q": [Infinity], "v": 1.0}', "infinity"),
        ('{"t": 1, "id": 0, "q": [5], "v": 1.0, "sens": "patient"}', "sens must be an object"),
        ('{"t": 1, "id": 0, "q": [5], "v": 1.0, "sens": {"kind": "x"}}', "unknown sensitivity"),
        ('{"t": 1, "id": 0, "q": [5], "v": 1.0, "sens": {"kind": "patience", "p": 1.5}}',
         "patience window must be an integer"),
        # true and false are not integers, though they equal 1 and 0
        ('{"t": true, "id": 0, "q": [5], "v": 1.0}', "integers, got t=True"),
        ('{"t": 1, "id": false, "q": [5], "v": 1.0}', "integers, got t=1, id=False"),
        ('{"t": 1, "id": 0, "q": [true], "v": 1.0}', r"integers, got .*q=\[True\]"),
        ('{"t": 1, "id": 0, "q": [5], "v": 1.0, "sens": {"kind": "patience", "p": true}}',
         "patience window must be an integer, got True"),
        # a misspelled or misplaced key would otherwise read as its default
        ('{"t": 1, "id": 0, "q": [5], "v": 2.0, "sense": {"kind": "discount", "rho": 0.5}}',
         "event has unknown key 'sense'"),
        ('{"t": 1, "id": 0, "q": [5], "v": 2.0, "sens": {"kind": "patience", "p": 3, "rho": 0.2}}',
         "sens has unknown key 'rho'"),
        ('{"t": 1, "id": 0, "q": [5], "v": 2.0, "sens": {"kind": "patient", "p": 3}}',
         "sens has unknown key 'p'"),
    ])
    def test_bad_event_names_its_line(self, line, match):
        text = '{"m": 1}\n\n' + line + "\n"
        with pytest.raises(ScenarioError, match=f"^line 3: bad event record .*{match}"):
            scenario_from_jsonl(text)

    @pytest.mark.parametrize("text,message", [
        # the writer's one-resource template line under a two-resource header
        (
            '{"m": 2}\n\n'
            '{"t": 1, "id": 4, "q": [5], "v": 2.5, "sens": {"kind": "patient"}}\n',
            "line 3: bad event record (tx 4: size has 1 resources, scenario has 2)",
        ),
        # a line read through json.loads, after a good one
        (
            '{"m": 1}\n'
            '{"t": 1, "id": 0, "q": [5], "v": 2.5, "sens": {"kind": "patient"}}\n'
            '{"t": 1, "id": 1, "q": [5, 7], "v": 2.5}\n',
            "line 3: bad event record (tx 1: size has 2 resources, scenario has 1)",
        ),
        (
            '{"m": 2}\n'
            '{"t": 1, "id": 0, "q": [5, 7, 1], "v": 2.5, "sens": {"kind": "patient"}}\n',
            "line 2: bad event record (tx 0: size has 3 resources, scenario has 2)",
        ),
        (
            '\n{"m": 2}\n{"t": 1, "id": 0, "q": [5], "v": 2.5}\n',
            "line 3: bad event record (tx 0: size has 1 resources, scenario has 2)",
        ),
    ])
    def test_event_size_must_match_header(self, text, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_jsonl(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("header,message", [
        ('{"m": 0}', "bad header (m must be at least 1, got 0)"),
        ('{"m": -3.0}', "bad header (m must be at least 1, got -3)"),
        ('{"m": true}', "bad header (m must be an integer, got True)"),
        ('{"m": 1.5}', "bad header (m must be an integer, got 1.5)"),
        ("{}", "expected header with m"),
    ])
    def test_bad_resource_count_names_the_header_line(self, header, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_jsonl("\n" + header + "\n")
        assert str(exc.value) == f"line 2: {message}"

    @pytest.mark.parametrize("second", [
        '{"t": 2, "id": 4, "q": [5], "v": 2.5, "sens": {"kind": "patient"}}',  # template
        '{"t": 2, "id": 4, "q": [5], "v": 2.5}',  # read by json.loads
    ])
    def test_repeated_id_names_its_second_line(self, second):
        text = (
            '{"m": 1}\n'
            '{"t": 1, "id": 4, "q": [3], "v": 1.5, "sens": {"kind": "patient"}}\n'
            '{"t": 1, "id": 5, "q": [3], "v": 1.5}\n\n' + second + "\n"
            '{"t": 1, "id": 6, "q": "bad", "v": 1.5}\n'
        )
        with pytest.raises(ScenarioError) as exc:
            scenario_from_jsonl(text)
        assert str(exc.value) == "line 5: bad event record (duplicate transaction id 4)"

    @pytest.mark.parametrize("header,match", [
        ("[1, 2]", "expected header"),
        ('"m"', "expected header"),
        ('{"m": "1"}', r"m must be an integer, got '1'\)$"),
        ('{"m": null}', r"m must be an integer, got None\)$"),
        ('{"m": [1]}', r"m must be an integer, got \[1\]\)$"),
        ('{"m": 1, "b": [100]}', r"header has unknown key 'b'\)$"),
        ('{"m": 1, "T": 50}', r"header has unknown key 'T'\)$"),
        ('{"m": 1, "seed": 0}', "the random order's seed now goes in the policy"),
        # a file older than both moves names the seed, whose loss changes a run
        ('{"m": 1, "B": [100], "seed": 0}', "the random order's seed now goes in the policy"),
        # read silently, a file's B would look like the run's target
        ('{"m": 1, "B": 100}', "the target size B now goes in the mechanism config, not the header"),
        ('{"m": 4, "B": [8.0, 1.0, 1.0, 1.0]}', r"mechanism config, not the header\)$"),
        ('{"m": 1, "B": [NaN]}', r"mechanism config, not the header\)$"),
    ])
    def test_bad_header_names_its_line(self, header, match):
        with pytest.raises(ScenarioError, match=f"^line 2: .*{match}"):
            scenario_from_jsonl("\n" + header + "\n")

    @pytest.mark.parametrize("text,match", [
        ('{"integral": false, "entries": [{"id": 1.7, "t": 1, "frac": 1.0}]}', "integers"),
        ('{"integral": false, "entries": [{"id": 1, "t": 2.5, "frac": 1.0}]}', "integers"),
        ('{"integral": "no", "entries": []}', "integral must be true or false"),
        ('{"integral": 1, "entries": []}', "integral must be true or false"),
        ('{"integral": false, "entries": [{"id": 1e400, "t": 1, "frac": 1.0}]}', "infinity"),
        ('{"integral": false, "entries": [{"id": false, "t": 1, "frac": 1.0}]}', "integers"),
        ('{"integral": false, "entries": [{"id": 1, "t": true, "frac": 1.0}]}', "integers"),
        ('{"integral": false, "entries": [{"id": 1, "t": 1, "frac": 1.0, "fraction": 0.5}]}',
         "schedule entry has unknown key 'fraction'"),
        # in place of frac, the misspelling leaves frac missing
        ('{"integral": false, "entries": [{"id": 1, "t": 1, "fraction": 0.5}]}', "^bad schedule JSON: 'frac'$"),
        ('{"integral": false, "entries": [], "horizon": 5}', "schedule has unknown key 'horizon'"),
    ])
    def test_bad_schedule_rejected(self, text, match):
        with pytest.raises(InvalidScheduleError, match=match):
            schedule_from_json(text)


# Readers share the immutable values a stream repeats.  Arrivals past 256
# are used, since CPython shares smaller ints by itself.


def test_scenario_reader_shares_one_tuple_per_size():
    # a one-resource file takes the template path, three_resources' export
    # ({"m": 4}) the json.loads path
    from feemarket.cli import BUILTINS

    one = Scenario([Transaction(i, 1 + i // 4, (1 + i % 3,), 2.5) for i in range(24)])
    four = BUILTINS["three_resources"].build().run().scenario
    for scn in (one, four):
        sizes = [t.size for t in scenario_from_jsonl(scenario_to_jsonl(scn)).transactions]
        assert len(set(map(id, sizes))) == len(set(sizes)) < len(sizes)


@pytest.mark.parametrize("m", [1, 2])
def test_scenario_reader_shares_a_blocks_arrival(m):
    txs = [Transaction(i, 1000 + i // 3, (5,) * m, 2.5) for i in range(9)]
    got = scenario_from_jsonl(scenario_to_jsonl(Scenario(txs, m=m))).transactions
    assert [t.arrival for t in got] == [t.arrival for t in txs]
    for block in (got[0:3], got[3:6], got[6:9]):
        assert block[0].arrival is block[1].arrival is block[2].arrival


def test_schedule_reader_shares_a_blocks_t_and_one_whole_fraction():
    schedule = Schedule([
        ScheduleEntry(0, 1000, 1.0),
        ScheduleEntry(1, 1000, 0.5),
        ScheduleEntry(2, 1000, 1.0),
        ScheduleEntry(3, 1001, 1.0),
    ])
    got = schedule_from_json(schedule_to_json(schedule))
    assert got == schedule
    e = got.entries
    assert e[0].time is e[1].time is e[2].time
    assert e[0].fraction is e[2].fraction is e[3].fraction
