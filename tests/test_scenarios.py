"""Scenario generators: determinism, branch logic, construction mechanics."""

import math
from dataclasses import replace

import pytest

from feemarket import (
    MechanismParams,
    Scenario,
    ScenarioError,
    Transaction,
    ValueAscending,
    ValueDescending,
    opt_integral_small,
    run_price_based,
    welfare,
)
from feemarket.core import PATIENT, BlockRecord
from feemarket.scenarios import (
    _AdaptiveGenerator,
    adaptive_price_adversary,
    c_below_two,
    discount_mix,
    eip_c2_failure,
    log_range,
    measure_climb,
    measure_t_star,
    patience_global,
    random_family,
    three_resources,
    three_resources_params,
)
from feemarket.mechanisms import InfeasibleParametersError

ETA = 0.125
# The parameters the one-resource constructions are built against and run under.
UNIT = MechanismParams(B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
PARTIAL = replace(UNIT, discounted_eligibility=True)
C15 = MechanismParams(B=64.0, c=1.5, eta=ETA, p_min=1.0, p_1=1.0)


def drive(bundle, horizon, pick):
    """Feed an adaptive generator synthetic executed-block feedback."""
    gen = bundle.scenario.generator
    txs, pending, prev = [], [], None
    for t in range(1, horizon + 1):
        arr = gen.arrivals(t, prev)
        txs.extend(arr)
        pending.extend(arr)
        chosen = pick(t, pending)
        pending = [x for x in pending if x.id not in chosen]
        prev = BlockRecord(
            time=t,
            log_prices=(0.0,),
            capacities=(0.0,),
            executed=tuple((i, 1.0) for i in sorted(chosen)),
            sizes=(0.0,),
            cumulative_welfare=0.0,
        )
    return Scenario(txs, m=bundle.scenario.m), gen.audit


class TestRandomFamily:
    def test_zero_load_empty(self):
        scn = random_family(1, 50, (2.0, 10.0), 10, 0.0, B=100, eta=ETA)
        assert scn.transactions == ()

    def test_deterministic(self):
        a = random_family(9, 100, (2.0, 10.0), 50, 2.0, B=100, eta=ETA)
        b = random_family(9, 100, (2.0, 10.0), 50, 2.0, B=100, eta=ETA)
        assert a.transactions == b.transactions
        c = random_family(10, 100, (2.0, 10.0), 50, 2.0, B=100, eta=ETA)
        assert a.transactions != c.transactions

    @pytest.mark.parametrize("load", [math.nan, math.inf, -math.inf, -1.0])
    def test_load_factor_must_be_finite_and_non_negative(self, load):
        # a NaN load once drew an empty stream, and an infinite one overflowed
        with pytest.raises(ValueError) as exc:
            random_family(1, 10, (2.0, 10.0), 10, load, B=100, eta=ETA)
        assert str(exc.value) == f"load_factor must be finite and >= 0, got {load}"

    @pytest.mark.parametrize("name", ["eta", "p_min"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_eta_and_p_min_must_be_finite(self, name, x):
        # a NaN eta skipped the value-floor check
        with pytest.raises(ValueError) as exc:
            random_family(1, 10, (0.5, 10.0), 10, 1.0, B=100, **{"eta": ETA, name: x})
        assert str(exc.value) == f"{name} must be finite, got {x}"

    def test_load_concentration(self):
        scn = random_family(4, 1000, (2.0, 10.0), 100, 2.0, B=100, eta=ETA)
        total = sum(t.q for t in scn.transactions)
        assert abs(total - 2.0 * 100 * 1000) <= 0.05 * 2.0 * 100 * 1000

    def test_value_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            random_family(1, 10, (1.0, 10.0), 10, 1.0, B=100, eta=ETA)


class TestCBelowTwo:
    def test_rejects_c_out_of_range(self):
        with pytest.raises(InfeasibleParametersError):
            c_below_two(replace(C15, c=2.0), 100, 0.01)
        with pytest.raises(InfeasibleParametersError):
            c_below_two(replace(C15, c=3.0), 100, 0.01)

    def test_branch_flag_matches_count_predicate(self):
        for c, picker in ((1.5, "greens"), (1.5, "reds")):
            bundle = c_below_two(replace(C15, c=c), 40, 0.01)
            gen = bundle.scenario.generator

            def pick(t, pending):
                pool = [
                    x.id
                    for x in pending
                    if (gen.tags.get(x.id) == "green") == (picker == "greens")
                ]
                return set(pool[:1])

            _, audit = drive(bundle, 40, pick)
            if picker == "greens":
                assert audit["greens_first_half"] == 20
                assert audit["branch"] == "II"
            else:
                assert audit["greens_first_half"] == 0
                assert audit["branch"] == "I"

    def test_single_tx_per_block_first_half(self):
        res = c_below_two(C15, 40, 0.01).run(20)
        for rec in res.trace.records:
            assert len(rec.executed) <= 1

    def test_case1_optimum_on_miniature(self):
        # reported case-I optimum (all double-value blocks) is the exact DP
        # optimum of the realized stream when the greens stay whole-value;
        # force case I (no greens executed) and compare.
        bundle = c_below_two(replace(C15, c=1.9), 8, 0.01)
        gen = bundle.scenario.generator

        def pick(t, pending):
            reds = [x.id for x in pending if gen.tags.get(x.id) != "green"]
            return set(reds[:1])

        scn, audit = drive(bundle, 8, pick)
        assert audit["branch"] == "I"
        dp = welfare(opt_integral_small(scn, 64.0, 8), scn, 8)
        # greens are per-unit 2 at size just over c*B/2 < B, so the true DP
        # optimum replaces second-half greens with size-B value-2 arrivals
        assert dp >= audit["optimum"] * 0.9


@pytest.mark.parametrize(
    "build, branch_block, key, tag",
    [
        (lambda: c_below_two(C15, 8, 0.01), 5, "greens_first_half", "green"),
        (lambda: discount_mix(PARTIAL, 0.2, 1, 12), 5, "hasty_executed", "hasty"),
    ],
)
def test_audit_empty_until_branch_then_fixed(build, branch_block, key, tag):
    # Every tagged transaction executes as soon as it can, except that the
    # block before the branch executes none: the branch block sees one
    # tagged execution fewer than the block after it, and the audit must
    # not follow the later count.
    bundle = build()
    gen = bundle.scenario.generator
    audits = []

    def pick(t, pending):
        audits.append(dict(gen.audit))
        return set() if t == branch_block - 1 else {x.id for x in pending if x.id in gen.tags}

    drive(bundle, bundle.horizon, pick)
    first = audits[branch_block - 1]
    assert audits[: branch_block - 1] == [{}] * (branch_block - 1)
    assert first and all(a == first for a in audits[branch_block:])
    assert first[key] == branch_block - 2 < gen.executed[tag]


class TestC2Failure:
    def setup_method(self):
        self.params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)

    def test_requires_c2(self):
        bad = MechanismParams(B=6400.0, c=1.9, eta=ETA, p_min=1.0, p_1=1.0)
        with pytest.raises(ValueError):
            eip_c2_failure(bad, 0.01)

    def test_blocks_close_just_over_target_while_cheap(self):
        bundle = eip_c2_failure(self.params, 0.01)
        res = bundle.run(60)
        limit = math.log(2.0 * self.params.p_min)
        for rec in res.trace.records:
            if rec.log_prices[0] <= limit + 1e-12:
                assert rec.sizes[0] == bundle.notes["low_size"]

    def test_climb_arithmetic(self):
        # per-block log increment eta*eps = 1.25e-3; ln 2 needs ~554.5 blocks
        bundle = eip_c2_failure(self.params, 0.01)
        assert bundle.notes["expected_climb"] == pytest.approx(math.log(2) / 0.00125)
        hor = math.ceil(bundle.notes["expected_climb"]) + 5
        res = bundle.run(hor)
        t_star = measure_t_star(res, self.params)
        assert abs(t_star - bundle.notes["expected_climb"] / 2.0) <= 1.0

    def test_decay_prefix_when_p1_high(self):
        params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=math.exp(1.0))
        bundle = eip_c2_failure(params, 0.01)
        assert bundle.notes["decay"] == 8
        assert min(t.arrival for t in bundle.scenario.transactions) == 9


class TestLogRange:
    def test_climb_and_slackness(self):
        params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        bundle = log_range(params, H=100.0, L=math.e)
        res = bundle.run()
        climb = measure_climb(res, params, math.e, bundle.notes["decay"])
        assert abs(climb - bundle.notes["expected_climb"]) <= 1.0
        sizes = res.trace.sizes()[:climb]
        assert set(sizes) == {params.c * params.B}
        slack = sum(sizes) / params.B - climb
        assert slack == climb * (params.c - 1.0)

    def test_only_low_values_during_climb(self):
        params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        L = math.e
        bundle = log_range(params, H=100.0, L=L)
        res = bundle.run()
        climb = measure_climb(res, params, L, 0)
        idx = res.scenario.index()
        for rec in res.trace.records[:climb]:
            assert all(idx[i].unit_value == L * params.p_min for i, _ in rec.executed)
        # welfare ratio during the climb is L/H
        sw = sum(idx[i].q * idx[i].unit_value for rec in res.trace.records[:climb] for i, _ in rec.executed)
        opt = bundle.notes["optimum_per_block"] * climb * 2  # blocks are c*B = 2B full
        assert sw / opt == pytest.approx(L / 100.0 / 2 * 2, rel=1e-9)

    def test_requires_range(self):
        params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        with pytest.raises(ValueError):
            log_range(params, H=2.0, L=2.0)


class TestDiscountMix:
    def test_horizon_satisfies_decay_bound(self):
        bundle = discount_mix(PARTIAL, rho_min=0.01, K=1, gamma_delta=1)
        p = bundle.notes["p"]
        assert (1 - 0.01) ** p <= 0.5
        assert p == math.ceil(math.log(2) / -math.log(0.99))  # ceil(68.97) = 69

    def test_branch_optima_match_dp_miniatures(self):
        # both branches, driven synthetically, against the exact solver
        bundle = discount_mix(PARTIAL, rho_min=0.2, K=1, gamma_delta=12)
        gen = bundle.scenario.generator
        T = bundle.horizon

        def pick_hasty(t, pending):
            return set(x.id for x in pending if gen.tags.get(x.id) == "hasty")

        scn, audit = drive(bundle, T, pick_hasty)
        assert audit["branch"] == "I"
        dp = welfare(opt_integral_small(scn, 1.0, T), scn, T)
        assert dp == pytest.approx(audit["optimum"], rel=1e-9)

        bundle = discount_mix(PARTIAL, rho_min=0.2, K=1, gamma_delta=12)
        scn, audit = drive(bundle, bundle.horizon, lambda t, p: set())
        assert audit["branch"] == "II"
        dp = welfare(opt_integral_small(scn, 1.0, T), scn, T)
        assert dp == pytest.approx(audit["optimum"], rel=1e-9)


class TestPatienceGlobal:
    def test_branch_optima_match_dp_miniatures(self):
        bundle = patience_global(PARTIAL, p=5)
        gen = bundle.scenario.generator
        T = bundle.horizon

        def pick_red(t, pending):
            return set(x.id for x in pending if gen.tags.get(x.id) == "red")

        scn, audit = drive(bundle, T, pick_red)
        assert audit["branch"] == "I"
        dp = welfare(opt_integral_small(scn, 1.0, T), scn, T)
        assert dp == pytest.approx(audit["optimum"], rel=1e-9)  # 3p - 2

        bundle = patience_global(PARTIAL, p=5)
        scn, audit = drive(bundle, T, lambda t, p: set())
        assert audit["branch"] == "II"
        dp = welfare(opt_integral_small(scn, 1.0, T), scn, T)
        assert dp == pytest.approx(audit["optimum"], rel=1e-9)  # 4p - 1

    def test_expired_green_contributes_nothing(self):
        bundle = patience_global(PARTIAL, p=3)
        gen = bundle.scenario.generator
        T = bundle.horizon
        scn, _ = drive(bundle, T, lambda t, p: set())
        green = next(t for t in scn.transactions if t.unit_value == 1.0)
        assert green.value_at(1 + 3) == 1.0
        assert green.value_at(2 + 3) == 0.0


class TestThreeResources:
    def test_pigeonhole_on_trace(self):
        bundle = three_resources(60)
        T = bundle.horizon
        res = bundle.run()
        audit = bundle.audit()
        half = min(audit["alloc_xz"], audit["alloc_yz"])
        # Z throughput over the first t blocks is capped near t, so one
        # bundle type is at roughly half allocation or less
        delta_z = 8 * math.log(1 / 0.05) / ETA  # generous slackness bound
        assert half <= (60 + delta_z) / 2

    def test_miniature_optimum_matches_dp(self):
        bundle = three_resources(4)
        gen = bundle.scenario.generator
        T = bundle.horizon

        def pick_xz(t, pending):
            xz = [x.id for x in pending if gen.tags.get(x.id) == "xz"]
            return set(xz[:1])

        scn, audit = drive(bundle, T, pick_xz)
        assert audit["starved"] == "Y"
        # the optimum's caps are the benchmark's choice: here the targets
        # the construction is run under
        caps = [p.B for p in three_resources_params()]
        dp = welfare(opt_integral_small(scn, caps, T), scn, T)
        assert dp == pytest.approx(audit["optimum"], rel=1e-9)

    def test_bundles_carry_value_on_anchor(self):
        bundle = three_resources(3)
        gen = bundle.scenario.generator
        arr = gen.arrivals(1, None)
        assert all(t.size[0] > 0 for t in arr)


class TestPriceAdversary:
    def test_collision_and_fraction(self):
        params = MechanismParams(B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        rep = adaptive_price_adversary(params, gamma=2, delta=1, H=2.0**64)
        assert rep.r == pytest.approx(2.0)
        assert rep.m < rep.m_prime
        assert rep.price_transcripts_identical
        assert rep.fraction <= rep.bound * (1 + 1e-9)
        assert rep.passed

    def test_infeasible_H(self):
        params = MechanismParams(B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        with pytest.raises(InfeasibleParametersError):
            adaptive_price_adversary(params, gamma=2, delta=1, H=4.0)

    def test_replay_identical_transcripts(self):
        params = MechanismParams(B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        rep = adaptive_price_adversary(params, gamma=1, delta=1, H=2.0**16)
        assert rep.price_transcripts_identical

    def test_rejects_a_fractional_target(self):
        # a truncated target once scaled the profiles to size 1 and read a
        # fraction of 1.625, above 1
        params = MechanismParams(B=1.5, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
        with pytest.raises(ValueError, match="target size must be an integer number of gas units"):
            adaptive_price_adversary(params, gamma=2, delta=1, H=2.0**64)


def per_call_txs(self, t, n, size, v, sens=PATIENT, tag=None):
    """The per-transaction emission a batch replaces: one id, one tag
    record and one count per transaction."""
    out = []
    for _ in range(n):
        tid = self._next_id
        self._next_id += 1
        if tag is not None:
            self.tags[tid] = tag
            self.emitted[tag] += 1
        out.append(Transaction(tid, t, size, v, sens))
    return out


def generator_state(gen):
    return gen._next_id, gen.tags, gen.emitted, gen.executed, gen.audit


class TestBatchedEmission:
    def test_batch_equals_single_emissions(self):
        batch, single = _AdaptiveGenerator(), _AdaptiveGenerator()
        for gen in (batch, single):
            gen._next_id = 5
        out = batch._txs(3, 4, (7,), 1.5, tag="dust")
        ref = [tx for _ in range(4) for tx in per_call_txs(single, 3, 1, (7,), 1.5, tag="dust")]
        assert out == ref and [tx.id for tx in out] == [5, 6, 7, 8]
        assert batch._txs(3, 2, (1,), 2.0) == per_call_txs(single, 3, 2, (1,), 2.0)
        executed = BlockRecord(3, (0.0,), (10.0,), ((6, 1.0), (9, 1.0), (8, 1.0)), (14.0,), 0.0)
        for gen in (batch, single):
            gen._started = True
            gen._emit = lambda t: []
            gen.arrivals(4, executed)
        assert generator_state(batch) == generator_state(single)
        assert batch.tags == dict.fromkeys([5, 6, 7, 8], "dust")
        assert batch.emitted == {"dust": 4} and batch.executed == {"dust": 2}

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_batch_uses_no_id(self, n):
        gen = _AdaptiveGenerator()
        assert gen._txs(1, n, (1,), 1.0, tag="dust") == []
        assert generator_state(gen) == (0, {}, {}, {}, {})
        assert [tx.id for tx in gen._txs(1, 1, (1,), 1.0)] == [0]

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: c_below_two(C15, 40, 0.01), id="c_below_two"),
            pytest.param(
                lambda: discount_mix(PARTIAL, rho_min=0.2, K=1, gamma_delta=12),
                id="discount_mix",
            ),
            pytest.param(lambda: patience_global(PARTIAL, p=6), id="patience_global"),
            pytest.param(lambda: three_resources(4), id="three_resources"),
        ],
    )
    def test_runs_match_per_call_emission(self, make):
        """Each construction's run emits the same transactions in the same
        blocks, and ends with the same ids, tags, counts and audit, when
        every batch is emitted one transaction at a time."""
        runs = []
        for per_call in (False, True):
            bundle = make()
            gen = bundle.scenario.generator
            if per_call:
                gen._txs = per_call_txs.__get__(gen)
            res = bundle.run()
            runs.append((res.scenario.transactions, res.trace.records, generator_state(gen)))
        assert runs[0] == runs[1]
        assert runs[0][0]

    def test_dust_count_follows_the_per_transaction_loop(self):
        """Once branch II is taken each block brings dust until the dust
        emitted but not executed reaches the target, as emitting one at a
        time while it is below the target would."""
        bundle = c_below_two(C15, 40, 0.01)
        gen = bundle.scenario.generator

        def loop_count(pending):
            n = 0
            while pending + n < gen.dust_target:
                n += 1
            return n

        counts = []

        def pick(t, pending):
            if t > 20:
                dust = [x.id for x in pending if gen.tags.get(x.id) == "dust"]
                counts.append(len(dust))
                return set(dust[: t % 7])
            return {x.id for x in pending if gen.tags.get(x.id) == "green"}

        scn, audit = drive(bundle, 40, pick)
        assert audit["branch"] == "II"
        arrived = [sum(1 for x in scn.transactions if x.arrival == t) for t in range(21, 41)]
        # block t's pool holds what block t-1 left pending plus block t's arrivals
        left = [0] + [max(0, c - t % 7) for t, c in zip(range(21, 41), counts)]
        assert arrived == [loop_count(p) for p in left[:-1]]
        assert arrived[0] == gen.dust_target and 0 in arrived


@pytest.mark.parametrize(
    "make, params",
    [
        (lambda p: c_below_two(p, 8, eps=0.05), C15),
        (lambda p: eip_c2_failure(p, 0.01), replace(C15, c=2.0)),
        (lambda p: log_range(p, H=100.0, L=math.e), replace(C15, c=2.0)),
        (lambda p: discount_mix(p, rho_min=0.5, K=1), PARTIAL),
        (lambda p: patience_global(p, p=3), UNIT),
    ],
    ids=["c_below_two", "eip_c2_failure", "log_range", "discount_mix", "patience_global"],
)
def test_bundle_runs_under_the_params_it_was_built_against(make, params):
    bundle = make(params)
    assert bundle.params == (params,)
    assert bundle.run().trace.records[0].capacities == (params.max_block,)


class TestAdaptiveReuseGuard:
    def test_second_run_raises(self):
        bundle = patience_global(UNIT, p=3)
        params = UNIT
        run_price_based(bundle.scenario, params, ValueAscending(), 6)
        with pytest.raises(ScenarioError):
            run_price_based(bundle.scenario, params, ValueAscending(), 6)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: c_below_two(C15, 8, eps=0.05), id="c_below_two"),
            pytest.param(lambda: discount_mix(UNIT, rho_min=0.5, K=1), id="discount_mix"),
            pytest.param(lambda: patience_global(UNIT, p=3), id="patience_global"),
            pytest.param(lambda: three_resources(2), id="three_resources"),
        ],
    )
    def test_every_generator_is_single_run(self, make):
        bundle = make()
        bundle.run()
        with pytest.raises(ScenarioError, match="single-run"):
            bundle.run()


class TestGlobalDiscountProbe:
    def test_measured_ratio_reported(self):
        # single shared discount rate: no loss floor is asserted, only that
        # the value-aware variant stays within the exact optimum on a
        # miniature (measured empirically; no closed-form bound exists here)
        from feemarket.core import Discount

        rho = 0.05
        txs = [
            Transaction(
                id=i, arrival=1 + i % 6, size=(1,),
                unit_value=1.0 + (i % 3), sensitivity=Discount(rho=rho),
            )
            for i in range(12)
        ]
        scn = Scenario(txs)
        mp = MechanismParams(
            B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0, discounted_eligibility=True
        )
        res = run_price_based(scn, mp, ValueDescending(), 12)
        # upper-bound the run with the exact solver at the mechanism's own
        # capacity (earlier execution beats the tighter-cap optimum here)
        opt = welfare(opt_integral_small(scn, mp.max_block, 12), scn, 12)
        ratio = welfare(res.schedule, scn, 12) / opt
        assert 0.0 < ratio <= 1.0 + 1e-9
