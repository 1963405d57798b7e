"""Offline optima against brute-force oracles; dominance checkers."""

import math
import random

import pytest

from feemarket import (
    BenchmarkConstraintError,
    InvalidScheduleError,
    MechanismParams,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    TooLargeError,
    Transaction,
    ValueAscending,
    check_threshold_dominance,
    check_welfare_dominance,
    greedy_dominance_check,
    opt_fractional,
    opt_integral_small,
    replay_log_prices,
    run_price_based,
    theorem_gamma,
    validate_schedule,
    welfare,
)
from feemarket.benchmarks import ThresholdViolation
from feemarket.scenarios import random_family

from oracles import brute_fractional_opt, brute_knapsack, brute_threshold_quantity


def scn_of(*txs):
    return Scenario(list(txs))


def random_micro(rng):
    n = rng.randint(1, 6)
    T = rng.randint(1, 4)
    B = rng.randint(2, 4)
    txs = [
        Transaction(
            id=i,
            arrival=rng.randint(1, T),
            size=(rng.randint(1, 4),),
            unit_value=round(rng.uniform(0.5, 5.0), 3),
        )
        for i in range(n)
    ]
    return scn_of(*txs), B, T


class TestOptFractional:
    def test_two_blocks_by_hand(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(10,), unit_value=5.0),
            Transaction(id=1, arrival=1, size=(10,), unit_value=3.0),
        )
        s = opt_fractional(scn, 10.0, 2)
        by_time = {(e.tx, e.time) for e in s.entries}
        assert by_time == {(0, 1), (1, 2)}
        assert welfare(s, scn, 2) == pytest.approx(80.0)

    def test_splits_oversized(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(20,), unit_value=1.0))
        s = opt_fractional(scn, 10.0, 2)
        assert [(e.time, e.fraction) for e in s.entries] == [(1, 0.5), (2, 0.5)]
        assert welfare(s, scn, 2) == pytest.approx(20.0)

    @pytest.mark.parametrize("B", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_cap_rejected(self, B):
        # an infinite cap would give an empty schedule, and a NaN cap would
        # pass greedy_dominance_check with nothing scheduled on either side
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=5.0))
        with pytest.raises(ValueError, match="must be positive and finite"):
            opt_fractional(scn, B, 3)
        with pytest.raises(ValueError, match="must be positive and finite"):
            greedy_dominance_check(scn, B, 3)

    def test_matches_exhaustive_on_micro_instances(self):
        rng = random.Random(7)
        for _ in range(120):
            scn, B, T = random_micro(rng)
            mine = welfare(opt_fractional(scn, B, T), scn, T)
            oracle = brute_fractional_opt(scn, B, T)
            assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_per_block_usage_exact(self):
        rng = random.Random(3)
        scn, B, T = random_micro(rng)
        s = opt_fractional(scn, B, T)
        validate_schedule(s, scn)
        idx = scn.index()
        for t in range(1, T + 1):
            used = sum(e.fraction * idx[e.tx].q for e in s.entries if e.time == t)
            pending = sum(
                idx[i].q for i in idx if idx[i].arrival <= t
            ) - sum(e.fraction * idx[e.tx].q for e in s.entries if e.time < t)
            assert used == pytest.approx(min(B, max(pending, 0.0)), abs=1e-9)


class TestOptIntegralSmall:
    def test_forced_assignment_equal_sizes(self):
        txs = [
            Transaction(id=i, arrival=1, size=(10,), unit_value=float(10 - i))
            for i in range(5)
        ]
        scn = scn_of(*txs)
        s = opt_integral_small(scn, 10.0, 3)
        assert sorted(e.tx for e in s.entries) == [0, 1, 2]
        assert welfare(s, scn, 3) == pytest.approx(10 * (10 + 9 + 8))

    def test_knapsack_example(self):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(6,), unit_value=3.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=2.9),
            Transaction(id=2, arrival=1, size=(5,), unit_value=2.9),
        )
        s = opt_integral_small(scn, 10.0, 1)
        assert sorted(e.tx for e in s.entries) == [1, 2]
        assert welfare(s, scn, 1) == pytest.approx(29.0)

    def test_nan_cap_rejected(self):
        # nothing fits a NaN cap, so the optimum was the empty schedule
        scn = scn_of(Transaction(id=0, arrival=1, size=(6,), unit_value=3.0))
        with pytest.raises(ValueError, match="B must not be NaN, got nan"):
            opt_integral_small(scn, math.nan, 2)

    def test_matches_subset_enumeration(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 12)
            B = rng.randint(5, 30)
            sizes = [rng.randint(1, 10) for _ in range(n)]
            vals = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
            scn = scn_of(
                *[
                    Transaction(id=i, arrival=1, size=(sizes[i],), unit_value=vals[i])
                    for i in range(n)
                ],
            )
            mine = welfare(opt_integral_small(scn, B, 1), scn, 1)
            assert mine == pytest.approx(brute_knapsack(sizes, vals, B), rel=1e-9, abs=1e-9)

    def test_relaxation_dominance_on_micro_instances(self):
        rng = random.Random(200)
        for _ in range(200):
            scn, B, T = random_micro(rng)
            frac = welfare(opt_fractional(scn, B, T), scn, T)
            integ = welfare(opt_integral_small(scn, B, T), scn, T)
            assert integ <= frac + 1e-9 * max(1.0, frac)

    def test_guards(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(1,), unit_value=1.0))
        with pytest.raises(TooLargeError):
            opt_integral_small(scn, 10.0, 13)
        big = scn_of(Transaction(id=0, arrival=1, size=(10_001,), unit_value=1.0))
        with pytest.raises(TooLargeError):
            opt_integral_small(big, 10.0, 1)

    @pytest.mark.parametrize("txs,message", [
        (
            [Transaction(0, 1, (4, 7), 2.0), Transaction(1, 1, (3,), 1.0)],
            "tx 0: size has 2 resources, scenario has 1",
        ),
        (
            [Transaction(0, 1, (3,), 2.0), Transaction(0, 1, (3,), 2.0)],
            "duplicate transaction id 0",
        ),
    ], ids=["resource-count", "repeated-id"])
    def test_bad_stream_rejected(self, txs, message):
        with pytest.raises(ScenarioError) as exc:
            opt_integral_small(scn_of(*txs), 10.0, 2)
        assert str(exc.value) == message

    def test_lexicographic_tie_break(self):
        txs = [
            Transaction(id=i, arrival=1, size=(5,), unit_value=2.0) for i in (4, 1, 3, 2)
        ]
        scn = scn_of(*txs)
        s = opt_integral_small(scn, 10.0, 1)
        assert sorted(e.tx for e in s.entries) == [1, 2]


class TestThresholdDominance:
    def test_empty_benchmark_passes(self, std_params, tiny_scenario):
        res = run_price_based(tiny_scenario, std_params, ValueAscending(), 4)
        rep = check_threshold_dominance(
            res.schedule, Schedule([]), tiny_scenario, 2, 2, 0.125, bench_limit=100.0
        )
        assert rep.passed

    def test_matches_pointwise_oracle(self, std_params):
        scn = random_family(
            seed=5, horizon=40, value_range=(math.exp(0.125), 100.0), q_max=20,
            load_factor=2.0, B=100, eta=0.125,
        )
        gamma = theorem_gamma(std_params, v_max=100.0, q_max=20.0)
        res = run_price_based(scn, std_params, ValueAscending(), 40 + gamma)
        bench = opt_fractional(scn, 100.0, 40)
        rep = check_threshold_dominance(
            res.schedule, bench, scn, 40, gamma, 0.125, bench_limit=100.0
        )
        assert rep.passed
        # cross-check a sample of thetas against the direct filter-and-sum oracle
        values = sorted({t.unit_value for t in scn.transactions})[::7]
        for theta in values:
            lhs = brute_threshold_quantity(bench, scn, theta, 1, 40)
            rhs = brute_threshold_quantity(
                res.schedule, scn, theta * math.exp(-0.125), 1, 40 + gamma
            )
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_unknown_algorithm_id_is_invalid_schedule(self, tiny_scenario):
        alg = Schedule([ScheduleEntry(9999, 1, 1.0)], integral=True)
        with pytest.raises(InvalidScheduleError, match="unknown transaction id 9999"):
            check_threshold_dominance(
                alg, Schedule([]), tiny_scenario, 2, 2, 0.125, bench_limit=100.0
            )

    def test_benchmark_constraint_precondition(self, tiny_scenario):
        bad = Schedule(
            [ScheduleEntry(0, 1, 1.0), ScheduleEntry(1, 1, 1.0), ScheduleEntry(2, 2, 1.0)],
            integral=True,
        )
        with pytest.raises(BenchmarkConstraintError):
            check_threshold_dominance(
                Schedule([]), bad, tiny_scenario, 2, 0, 0.125, bench_limit=10.0
            )

    def test_violation_reported(self, tiny_scenario):
        bench = Schedule([ScheduleEntry(0, 1, 1.0)], integral=True)  # 50 units at v=5
        alg = Schedule([ScheduleEntry(1, 1, 1.0)], integral=True)  # 60 units at v=3
        rep = check_threshold_dominance(
            alg, bench, tiny_scenario, 1, 0, 0.125, bench_limit=100.0
        )
        assert not rep.passed
        assert rep.violation_count == 1
        assert rep.first_violation == ThresholdViolation(theta=5.0, lhs=50.0, rhs=0.0)

    def test_violation_is_strictly_above_the_slack(self):
        # with rhs = 0 the bound is exactly 1e-12: a benchmark quantity equal
        # to it passes, and the next float up fails
        scn = Scenario([Transaction(0, 1, (1,), 2.0)])
        at = Schedule([ScheduleEntry(0, 1, 1e-12)])
        above = Schedule([ScheduleEntry(0, 1, math.nextafter(1e-12, 1.0))])
        passed = check_threshold_dominance(Schedule([]), at, scn, 1, 0, 0.125, 100.0)
        assert (passed.violation_count, passed.thetas_checked) == (0, 1)
        failed = check_threshold_dominance(Schedule([]), above, scn, 1, 0, 0.125, 100.0)
        assert failed.first_violation == ThresholdViolation(
            theta=2.0, lhs=math.nextafter(1e-12, 1.0), rhs=0.0
        )


class TestWelfareDominance:
    def test_empty_bench_sentinel(self, tiny_scenario):
        rep = check_welfare_dominance(Schedule([]), Schedule([]), tiny_scenario, 1, 0, 0.125)
        assert rep.passed and rep.ratio == math.inf

    def test_identity_at_zero_eta_limit(self, tiny_scenario):
        s = Schedule([ScheduleEntry(0, 1, 1.0)], integral=True)
        rep = check_welfare_dominance(s, s, tiny_scenario, 1, 0, 1e-12)
        assert rep.passed
        assert rep.ratio == pytest.approx(1.0)

    def test_threshold_pass_implies_welfare_pass(self, std_params):
        # mirror of the step-function integration argument, checked on runs
        for seed in range(6):
            scn = random_family(
                seed=seed, horizon=30, value_range=(math.exp(0.125), 50.0), q_max=30,
                load_factor=2.0, B=100, eta=0.125,
            )
            gamma = theorem_gamma(std_params, v_max=50.0, q_max=30.0)
            res = run_price_based(scn, std_params, ValueAscending(), 30 + gamma)
            bench = opt_fractional(scn, 100.0, 30)
            trep = check_threshold_dominance(
                res.schedule, bench, scn, 30, gamma, 0.125, bench_limit=100.0
            )
            wrep = check_welfare_dominance(res.schedule, bench, scn, 30, gamma, 0.125)
            assert not trep.passed or wrep.passed

    def test_gamma_monotone(self, std_params):
        scn = random_family(
            seed=3, horizon=30, value_range=(math.exp(0.125), 50.0), q_max=30,
            load_factor=2.0, B=100, eta=0.125,
        )
        gamma = theorem_gamma(std_params, v_max=50.0, q_max=30.0)
        res = run_price_based(scn, std_params, ValueAscending(), 30 + gamma + 5)
        bench = opt_fractional(scn, 100.0, 30)
        for extra in (0, 5):
            rep = check_threshold_dominance(
                res.schedule, bench, scn, 30, gamma + extra, 0.125, bench_limit=100.0
            )
            assert rep.passed


class TestGreedyDominance:
    def test_single_tx(self):
        scn = scn_of(Transaction(id=0, arrival=1, size=(10,), unit_value=1.0))
        assert greedy_dominance_check(scn, 10.0, 1)

    def test_seeded_instances(self):
        for seed in range(25):
            scn = random_family(
                seed=seed, horizon=25, value_range=(1.2, 40.0), q_max=50,
                load_factor=(0.5, 1.0, 2.0, 5.0)[seed % 4], B=50, eta=0.125,
            )
            assert greedy_dominance_check(scn, 50.0, 25)

    def test_adversarial_small_cap_construction(self):
        # the construction that defeats sub-doubled caps does not defeat the
        # uncapped greedy, whose blocks may reach 2B
        from feemarket.scenarios import c_below_two

        bundle = c_below_two(
            MechanismParams(B=64.0, c=1.9, eta=0.125, p_min=1.0, p_1=1.0), 200, eps=0.01
        )
        assert greedy_dominance_check(bundle.scenario, 64.0, 200)


def test_offline_optima_reject_adaptive_scenario():
    # an adaptive scenario has no static stream to optimize over; an empty
    # benchmark would pass every dominance check against it
    from feemarket.scenarios import c_below_two

    scn = c_below_two(
        MechanismParams(B=64.0, c=1.5, eta=0.125, p_min=1.0, p_1=1.0), 40, 0.01
    ).scenario
    message = (
        "an adaptive scenario has no stream until it runs;"
        " pass the run's realized stream, RunResult.scenario"
    )
    params = MechanismParams(B=64.0, c=1.5, eta=0.125, p_min=1.0, p_1=1.0)
    res = run_price_based(scn, params, ValueAscending(), 40)
    for offline in (
        lambda: opt_fractional(scn, 64.0, 40),
        lambda: opt_integral_small(scn, 64.0, 8),
        lambda: welfare(res.schedule, scn, 40),
        lambda: validate_schedule(res.schedule, scn),
        lambda: replay_log_prices([params], res.trace, scn),
    ):
        with pytest.raises(ScenarioError) as exc:
            offline()
        assert str(exc.value) == message
