"""Price-posting engine, greedy baseline, closed forms, purity and determinism."""

import math

import pytest

from feemarket import (
    AdaptiveScenario,
    CapacityViolationError,
    Discount,
    InfeasibleParametersError,
    MechanismParams,
    OversizedTransactionError,
    Patience,
    Scenario,
    ScenarioError,
    Transaction,
    ValueAscending,
    ValueDescending,
    eip_next_price,
    greedy_dominance_check,
    greedy_online,
    max_block_size,
    multi_resource_mechanism,
    replay_log_prices,
    run_price_based,
    theorem_gamma,
    theorem_slackness,
    validate_schedule,
)
from feemarket.adversary import SeededRandom
from feemarket.mechanisms import params_from_config, params_to_config


def scn_of(*txs):
    return Scenario(list(txs))


class TestNextPrice:
    def test_target_block_keeps_price(self, std_params):
        lp = math.log(7.0)
        assert eip_next_price(std_params, lp, 100) == lp

    def test_full_block_derived_value(self):
        # 100 * e^{1/8} = 113.3148453066826...
        p = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1e-18, p_1=100.0)
        lp = eip_next_price(p, math.log(100.0), 200)
        assert math.exp(lp) == pytest.approx(100.0 * math.exp(0.125), rel=1e-12)

    def test_floor_clamps(self, std_params):
        lp = eip_next_price(std_params, math.log(std_params.p_min), 0)
        assert lp == math.log(std_params.p_min)

    def test_capacity_contract(self, std_params):
        with pytest.raises(CapacityViolationError):
            eip_next_price(std_params, 0.0, 201)

    def test_ethereum_parameters_accepted(self):
        MechanismParams(B=15e6, c=2.0, eta=0.125, p_min=1e-18, p_1=1e-9)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MechanismParams(B=0, c=2, eta=0.1, p_min=1, p_1=1)
        with pytest.raises(ValueError):
            MechanismParams(B=1, c=1.0, eta=0.1, p_min=1, p_1=1)
        with pytest.raises(ValueError):
            MechanismParams(B=1, c=2, eta=0.1, p_min=2, p_1=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["B", "c", "eta", "p_min", "p_1"])
    def test_non_finite_rejected(self, field, value):
        fields = dict(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MechanismParams(**fields)

    @pytest.mark.parametrize("field", ["B", "c", "eta", "p_min", "p_1"])
    def test_bool_rejected(self, field):
        # params_from_config rejects a JSON true; the library agrees
        fields = dict(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        fields[field] = True
        with pytest.raises(ValueError) as exc:
            MechanismParams(**fields)
        assert str(exc.value) == f"{field} must be a number, got True"

    def test_config_roundtrip(self, std_params):
        assert params_from_config(params_to_config(std_params)) == std_params


class TestRunPriceBased:
    def test_no_arrivals_price_decays_to_floor(self):
        params = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=math.e)
        scn = scn_of(Transaction(id=0, arrival=100, size=(1,), unit_value=5.0))
        res = run_price_based(scn, params, ValueAscending(), 20)
        prices = res.trace.prices()
        # ln p drops by eta per empty block until the floor
        assert prices[0] == pytest.approx(math.e)
        assert prices[8] == pytest.approx(1.0)
        assert prices[19] == pytest.approx(1.0)
        assert all(not r.executed for r in res.trace.records)

    def test_excess_demand_rises_until_values_exceeded(self):
        # perpetual demand at value e^{0.5}; hand-simulated: price rises by
        # eta*(c-1) = 0.25 per full block from ln p = 0: blocks full while
        # ln p <= 0.5, i.e. blocks 1,2,3; then empty/full oscillation.
        params = MechanismParams(B=10.0, c=2.0, eta=0.25, p_min=1.0, p_1=1.0)
        v = math.exp(0.5)
        txs = [
            Transaction(id=i, arrival=1 + i // 4, size=(5,), unit_value=v)
            for i in range(40)
        ]
        scn = scn_of(*txs)
        res = run_price_based(scn, params, ValueAscending(), 5)
        sizes = res.trace.sizes()
        assert sizes[0] == 20.0 and sizes[1] == 20.0 and sizes[2] == 20.0
        lps = res.trace.log_prices()
        assert lps[1] == pytest.approx(0.25)
        assert lps[2] == pytest.approx(0.5)
        assert lps[3] == pytest.approx(0.75)  # above every value: block 4 empty
        assert sizes[3] == 0.0

    def test_eligibility_inclusive_at_price(self):
        params = MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=2.0, p_1=2.0)
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(5,), unit_value=2.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=1.999999),
        )
        res = run_price_based(scn, params, ValueAscending(), 1)
        assert [i for i, _ in res.trace.records[0].executed] == [0]

    def test_schedule_validates_and_is_integral(self, tiny_scenario, std_params):
        res = run_price_based(tiny_scenario, std_params, ValueDescending(), 4)
        assert res.schedule.integral
        validate_schedule(res.schedule, tiny_scenario)

    def test_trace_sizes_match_executions(self, tiny_scenario, std_params):
        res = run_price_based(tiny_scenario, std_params, ValueDescending(), 4)
        idx = tiny_scenario.index()
        for rec in res.trace.records:
            assert rec.sizes[0] == sum(idx[i].q * f for i, f in rec.executed)

    def test_purity_replay_bit_exact(self, std_params):
        import random

        rng = random.Random(11)
        txs = [
            Transaction(
                id=i,
                arrival=rng.randint(1, 30),
                size=(rng.randint(1, 100),),
                unit_value=math.exp(rng.uniform(0.2, 6.0)),
            )
            for i in range(200)
        ]
        scn = scn_of(*txs)
        for policy in (ValueAscending(), ValueDescending(), SeededRandom(seed=5)):
            res = run_price_based(scn, std_params, policy, 40)
            replayed = replay_log_prices([std_params], res.trace, scn)
            assert replayed == [r.log_prices for r in res.trace.records]

    def test_determinism(self, std_params):
        import random

        rng = random.Random(2)
        txs = [
            Transaction(id=i, arrival=rng.randint(1, 10), size=(rng.randint(1, 80),),
                        unit_value=rng.uniform(1.2, 9.0))
            for i in range(60)
        ]
        a = run_price_based(scn_of(*txs), std_params, SeededRandom(seed=9), 15)
        b = run_price_based(scn_of(*txs), std_params, SeededRandom(seed=9), 15)
        assert a.schedule == b.schedule
        assert a.trace.records == b.trace.records
        c = run_price_based(scn_of(*txs), std_params, SeededRandom(seed=10), 15)
        assert a.schedule != c.schedule or a.trace.records != c.trace.records

    def test_requires_single_resource(self, std_params):
        scn = Scenario(m=2)
        with pytest.raises(ScenarioError):
            run_price_based(scn, std_params, ValueAscending(), 1)

    def test_discounted_eligibility_excludes_decayed(self):
        # block 1 is filled by the high-value blocker, the price dips back to
        # the floor by block 3; by then the decayed value 0.81 is below the
        # floor, so the aware variant never schedules it while the plain one
        # takes it at its raw declared value.
        def build():
            return scn_of(
                Transaction(id=0, arrival=1, size=(20,), unit_value=2.0),
                Transaction(id=1, arrival=1, size=(10,), unit_value=1.0, sensitivity=Discount(rho=0.1)),
            )

        aware = MechanismParams(
            B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0, discounted_eligibility=True
        )
        plain = MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        res_aware = run_price_based(build(), aware, ValueDescending(), 3)
        res_plain = run_price_based(build(), plain, ValueDescending(), 3)
        executed_aware = [i for r in res_aware.trace.records for i, _ in r.executed]
        executed_plain = {i: r.time for r in res_plain.trace.records for i, _ in r.executed}
        assert 1 not in executed_aware
        assert executed_plain.get(1) == 3

    def test_discounted_waits_for_the_price_to_fall(self):
        # Priced out at arrival, the decaying transaction stays in the scan
        # (its value is still above the floor) and is taken once the price,
        # falling by e^-0.125 per empty block, drops below its value.
        params = MechanismParams(
            B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=4.0, discounted_eligibility=True
        )
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(10,), unit_value=3.0, sensitivity=Discount(rho=0.05)),
        )
        res = run_price_based(scn, params, ValueDescending(), 8)
        assert [(r.time, i) for r in res.trace.records for i, _ in r.executed] == [(5, 0)]

    def test_patience_eligibility_window(self):
        params = MechanismParams(
            B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0, discounted_eligibility=True
        )
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(30,), unit_value=1.0),
            Transaction(id=1, arrival=1, size=(10,), unit_value=5.0, sensitivity=Patience(window=1)),
        )
        res = run_price_based(scn, params, ValueDescending(), 4)
        times = {i: r.time for r in res.trace.records for i, _ in r.executed}
        assert times.get(1) == 1  # would otherwise wait behind nothing; scheduled in window


class TestPriceBasedState:
    def test_state_sees_only_executed_history(self, std_params):
        scn = scn_of(
            Transaction(id=0, arrival=1, size=(150,), unit_value=2.0),
            Transaction(id=1, arrival=1, size=(50,), unit_value=9.0),
        )
        first, second = run_price_based(scn, std_params, ValueAscending(), 2).trace.records
        lp0 = math.log(std_params.p_1)
        assert first.log_prices == (lp0,)
        assert first.capacities == (std_params.max_block,)
        assert first.sizes == (200.0,)  # full block
        assert second.log_prices == (eip_next_price(std_params, lp0, 200.0),)


class TestMultiResource:
    def test_m1_reduces_exactly(self, std_params):
        import random

        rng = random.Random(4)
        txs = [
            Transaction(id=i, arrival=rng.randint(1, 8), size=(rng.randint(1, 90),),
                        unit_value=rng.uniform(1.1, 7.0))
            for i in range(50)
        ]
        scn = scn_of(*txs)
        a = run_price_based(scn, std_params, ValueAscending(), 12)
        b = multi_resource_mechanism(scn, [std_params], ValueAscending(), 12)
        assert a.schedule == b.schedule
        assert a.trace.records == b.trace.records

    def test_zero_demand_all_floors(self):
        params = [
            MechanismParams(B=10.0, c=2.0, eta=0.25, p_min=1.0, p_1=math.e),
            MechanismParams(B=5.0, c=2.0, eta=0.5, p_min=0.5, p_1=1.0),
        ]
        scn = Scenario(m=2)
        res = multi_resource_mechanism(scn, params, ValueAscending(), 20)
        last = res.trace.records[-1]
        assert math.exp(last.log_prices[0]) == pytest.approx(1.0)
        assert math.exp(last.log_prices[1]) == pytest.approx(0.5)

    def test_bundle_eligibility(self):
        # tx pays for its bundle iff v*q1 covers the posted cost
        params = [
            MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0),
            MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=3.0, p_1=3.0),
        ]
        scn = Scenario(
            m=2,
            transactions=[
                Transaction(id=0, arrival=1, size=(10, 10), unit_value=4.1),  # 41 >= 10+30
                Transaction(id=1, arrival=1, size=(10, 10), unit_value=3.9),  # 39 < 40
            ],
        )
        res = multi_resource_mechanism(scn, params, ValueDescending(), 1)
        assert [i for i, _ in res.trace.records[0].executed] == [0]

    def test_dimension_mismatch(self):
        # a 1-resource transaction cannot enter a 2-resource scenario
        with pytest.raises(ScenarioError) as exc:
            Scenario(
                m=2,
                transactions=[Transaction(id=0, arrival=1, size=(5,), unit_value=2.0)],
            )
        assert str(exc.value) == "tx 0: size has 1 resources, scenario has 2"

    def test_discounted_eligibility_must_agree(self):
        # the engine reads one eligibility rule for every resource
        params = [
            MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0),
            MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0,
                            discounted_eligibility=True),
        ]
        scn = Scenario(m=2)
        for ordered in (params, params[::-1]):
            with pytest.raises(ValueError, match="discounted_eligibility differs"):
                multi_resource_mechanism(scn, ordered, ValueAscending(), 1)


class TestGreedy:
    def test_exact_fit_stream(self):
        txs = [Transaction(id=t, arrival=t, size=(10,), unit_value=2.0) for t in range(1, 6)]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 5)
        for rec in res.trace.records:
            assert [i for i, _ in rec.executed] == [rec.time]
        assert sum(res.trace.sizes()) == 50.0

    def test_cumulative_rule_overshoot(self):
        # three 0.6B-size equal-value txs at t=1: block 1 takes two, block 2 one
        txs = [Transaction(id=i, arrival=1, size=(6,), unit_value=1.0) for i in range(3)]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 2)
        assert len(res.trace.records[0].executed) == 2
        assert len(res.trace.records[1].executed) == 1

    def test_price_bookkeeping_is_lowest_scheduled_value(self):
        txs = [
            Transaction(id=0, arrival=1, size=(5,), unit_value=9.0),
            Transaction(id=1, arrival=1, size=(5,), unit_value=4.0),
            Transaction(id=2, arrival=1, size=(5,), unit_value=2.0),
        ]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 1)
        assert math.exp(res.trace.records[0].log_prices[0]) == pytest.approx(4.0)

    def test_zero_value_block_posts_log_zero(self):
        # a block whose lowest admitted value is 0.0 posts ln 0 = -inf
        scn = scn_of(Transaction(id=0, arrival=1, size=(5,), unit_value=0.0))
        res = greedy_online(scn, 10.0, 2)
        assert res.trace.records[0].executed == ((0, 1.0),)
        assert res.trace.records[0].log_prices == (-math.inf,)
        assert greedy_dominance_check(scn, 10.0, 2)

    def test_oversized_rejected_with_diagnostic(self):
        scn = scn_of(Transaction(id=7, arrival=1, size=(11,), unit_value=1.0))
        with pytest.raises(OversizedTransactionError, match="tx 7"):
            greedy_online(scn, 10.0, 1)

    def test_max_block_at_most_2B(self):
        import random

        rng = random.Random(8)
        txs = [
            Transaction(id=i, arrival=rng.randint(1, 20), size=(rng.randint(1, 10),),
                        unit_value=rng.uniform(0.5, 5.0))
            for i in range(300)
        ]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 25)
        assert max_block_size(res.schedule, scn)[0] <= 20.0
        validate_schedule(res.schedule, scn)

    def test_max_block_early_exit_uses_fit_tolerance(self):
        # 1.15 * 100 is 114.99999999999999: 61 + 54 fits under the 1e-9
        # tolerance of the fit test, so the early exit must not stop at 61.
        txs = [
            Transaction(id=0, arrival=1, size=(61,), unit_value=4.0),
            Transaction(id=1, arrival=1, size=(54,), unit_value=2.0),
        ]
        scn = scn_of(*txs)
        res = greedy_online(scn, 100.0, 2, max_block=1.15 * 100)
        assert res.trace.records[0].executed == ((0, 1.0), (1, 1.0))

    @pytest.mark.parametrize("B", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_target_rejected(self, B):
        scn = scn_of(Transaction(id=0, arrival=1, size=(5,), unit_value=1.0))
        with pytest.raises(ValueError, match="target size must be positive and finite"):
            greedy_online(scn, B, 1)

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
    def test_bad_max_block_rejected(self, cap):
        # every comparison with a NaN cap is false, so the run would be uncapped
        scn = scn_of(Transaction(id=0, arrival=1, size=(5,), unit_value=1.0))
        with pytest.raises(ValueError, match="max_block must be positive"):
            greedy_online(scn, 10.0, 1, max_block=cap)

    def test_deficit_persists_no_catch_up(self):
        # one small tx at t=1, nothing else until a flood at t=3: the early
        # shortfall is never made up, so block 3 stays around B, not 2B+.
        txs = [Transaction(id=0, arrival=1, size=(2,), unit_value=1.0)] + [
            Transaction(id=i, arrival=3, size=(5,), unit_value=1.0) for i in range(1, 9)
        ]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 3)
        assert res.trace.sizes()[2] == 10.0

    def test_tie_break_earlier_arrival_then_id(self):
        txs = [
            Transaction(id=5, arrival=2, size=(10,), unit_value=3.0),
            Transaction(id=4, arrival=1, size=(10,), unit_value=3.0),
            Transaction(id=3, arrival=2, size=(10,), unit_value=3.0),
        ]
        scn = scn_of(*txs)
        res = greedy_online(scn, 10.0, 3)
        order = [i for r in res.trace.records for i, _ in r.executed]
        assert order == [4, 3, 5]


class TestClosedForms:
    def test_gamma_worked_example(self):
        # eta=1, c=3, q_max=B so c'=2, p_1=p_min, v_max/p_min=e, slack 0:
        # ceil(max(0, 1 + 2 + 1)) = 4
        p = MechanismParams(B=1.0, c=3.0, eta=1.0, p_min=1.0, p_1=1.0)
        assert theorem_gamma(p, v_max=math.e, q_max=1.0) == 4

    def test_gamma_additive_in_slack(self):
        p = MechanismParams(B=1.0, c=3.0, eta=1.0, p_min=1.0, p_1=1.0)
        base = theorem_gamma(p, v_max=math.e, q_max=1.0, delta_prime=0)
        assert theorem_gamma(p, v_max=math.e, q_max=1.0, delta_prime=5) == base + 5

    def test_gamma_branch_selection_on_grid(self):
        # with p_1 = v_max and q_max = B, c = 3 the first argument never wins
        for vmax in (math.e, 10.0, 1e3, 1e6):
            p = MechanismParams(B=1.0, c=3.0, eta=0.5, p_min=1.0, p_1=vmax)
            first = math.log(vmax) / 0.5
            second = math.log(vmax) / (0.5 * 1.0) + 2.0 + 1.0
            assert second > first
            assert theorem_gamma(p, v_max=vmax, q_max=1.0) == math.ceil(second - 1e-9)

    def test_gamma_infeasible(self):
        p = MechanismParams(B=1.0, c=2.0, eta=1.0, p_min=1.0, p_1=1.0)
        with pytest.raises(InfeasibleParametersError):
            theorem_gamma(p, v_max=math.e, q_max=1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["v_max", "q_max", "delta_prime"])
    def test_gamma_rejects_non_finite_arguments(self, name, x):
        # max(first, nan) kept first, so a NaN v_max or q_max gave 0
        p = MechanismParams(B=100.0, c=3.0, eta=0.125, p_min=1.0, p_1=1.0)
        args = {"v_max": 1e6, "q_max": 100.0, "delta_prime": 0, name: x}
        with pytest.raises(ValueError) as exc:
            theorem_gamma(p, **args)
        assert str(exc.value) == f"{name} must be finite, got {x}"

    @pytest.mark.parametrize("v_max", [math.nan, math.inf, 0.5])
    def test_slackness_rejects_v_max_not_finite_or_below_floor(self, v_max):
        # an infinite bound would let every measured slackness pass
        p = MechanismParams(B=1.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        with pytest.raises(ValueError) as exc:
            theorem_slackness(p, v_max)
        assert str(exc.value) == f"v_max must be finite and >= p_min = 1.0, got {v_max}"

    def test_slackness_worked_examples(self):
        p = MechanismParams(B=1.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        assert theorem_slackness(p, math.e) == pytest.approx(9.0)
        assert theorem_slackness(p, 1.0) == pytest.approx(1.0)  # c - 1
        eth = MechanismParams(B=15e6, c=2.0, eta=0.125, p_min=1e-18, p_1=1e-9)
        assert theorem_slackness(eth, 1e-9) == pytest.approx(8 * math.log(1e9) + 1.0)


# The two online engines, each run for 3 blocks.
ENGINES = {
    "price": lambda scn, p: run_price_based(scn, p, ValueAscending(), 3),
    "greedy": lambda scn, p: greedy_online(scn, p.B, 3),
}


class TestAdaptiveInterface:
    def test_generator_single_run_guard(self):
        from feemarket.scenarios import patience_global

        params = MechanismParams(B=1.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)
        bundle = patience_global(params, p=4)
        run_price_based(bundle.scenario, params, ValueAscending(), 8)
        with pytest.raises(ScenarioError):
            run_price_based(bundle.scenario, params, ValueAscending(), 8)

    def test_generator_failure_wrapped(self, std_params):
        class Broken:
            def arrivals(self, t, previous):
                raise RuntimeError("boom")

        scn = AdaptiveScenario(Broken())
        with pytest.raises(ScenarioError, match="t=1"):
            run_price_based(scn, std_params, ValueAscending(), 2)

    # Each generator emits the listed transactions at their block; a batch's
    # resource counts and ids are checked before its arrival blocks.
    GENERATOR_FAULTS = {
        "": (
            {2: [Transaction(0, 1, (10,), 2.0)]},
            "generator emitted tx 0 with arrival 1 at block 2",
        ),
        "-repeated-id": (
            {1: [Transaction(0, 1, (10,), 2.0)], 2: [Transaction(0, 2, (10,), 2.0)]},
            "duplicate transaction id 0",
        ),
        "-resource-count": (
            {2: [Transaction(0, 2, (10,), 2.0), Transaction(1, 2, (10, 5), 2.0)]},
            "tx 1: size has 2 resources, scenario has 1",
        ),
    }

    @pytest.mark.parametrize("engine,emitted,message", [
        pytest.param(engine, emitted, message, id=name + fault)
        for fault, (emitted, message) in GENERATOR_FAULTS.items()
        for name, engine in ENGINES.items()
    ])
    def test_generator_arrival_must_be_current_block(self, std_params, engine, emitted, message):
        class Emit:
            def arrivals(self, t, previous):
                return emitted.get(t, [])

        scn = AdaptiveScenario(Emit())
        with pytest.raises(ScenarioError) as exc:
            engine(scn, std_params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad,message", [
        (Transaction(0, 9, (10,), 2.0), "duplicate transaction id 0"),
        (Transaction(1, 9, (10, 5), 2.0), "tx 1: size has 2 resources, scenario has 1"),
    ], ids=["repeated-id", "resource-count"])
    def test_static_stream_checked_when_built(self, bad, message):
        # no engine is handed the stream: it is checked before any block,
        # even though the bad transaction arrives after a 3-block horizon
        with pytest.raises(ScenarioError) as exc:
            scn_of(Transaction(0, 1, (10,), 2.0), bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
    def test_realized_stream_is_a_scenario(self, std_params, engine):
        emitted = {1: [Transaction(0, 1, (10,), 2.0)], 3: [Transaction(5, 3, (20,), 3.0)]}

        class Emit:
            def arrivals(self, t, previous):
                return emitted.get(t, [])

        res = engine(AdaptiveScenario(Emit()), std_params)
        realized = res.scenario
        assert type(realized) is Scenario
        assert realized.m == 1
        assert len(res.trace.records) == 3
        assert realized.transactions == (*emitted[1], *emitted[3])
        assert realized.index() == {0: emitted[1][0], 5: emitted[3][0]}
