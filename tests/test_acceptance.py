"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all;
a failing criterion also fails its test).  The positive-theorem fixtures are
shared across criteria 1-4, so the 100 mechanism runs execute once.
"""

import math
import random
import time

import pytest

from feemarket import (
    MechanismParams,
    Scenario,
    Schedule,
    ScheduleEntry,
    Transaction,
    ValueAscending,
    ValueDescending,
    check_avg_block_size,
    check_threshold_dominance,
    check_welfare_dominance,
    greedy_online,
    max_block_size,
    multi_resource_mechanism,
    opt_fractional,
    opt_integral_small,
    run_price_based,
    theorem_slackness,
    welfare,
    welfare_via_threshold_integral,
)
from feemarket.cli import main as cli_main, run_theorem_case
from feemarket.scenarios import (
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

from oracles import brute_fractional_opt, brute_knapsack
from test_scenarios import drive

ETA = 0.125
N_THEOREM = 100
T_THEOREM = 500
B_THEOREM = 100


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def theorem_runs():
    """The 100 positive-check instances shared by criteria 1-4."""
    t0 = time.time()
    runs = [run_theorem_case(seed, horizon=T_THEOREM, B=B_THEOREM) for seed in range(N_THEOREM)]
    return runs, time.time() - t0


def test_criterion_1_welfare_dominance(theorem_runs):
    runs, elapsed = theorem_runs
    ok = 0
    for run, bench, params, gamma, scn in runs:
        rep = check_welfare_dominance(
            run.schedule, bench, scn, T_THEOREM, gamma, params.eta
        )
        ok += rep.passed
    report(
        "1 welfare dominance",
        ok == N_THEOREM and elapsed < 60.0,
        f"{ok}/{N_THEOREM} pass, runs took {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_threshold_dominance(theorem_runs):
    runs, _ = theorem_runs
    violations = 0
    for run, bench, params, gamma, scn in runs:
        rep = check_threshold_dominance(
            run.schedule, bench, scn, T_THEOREM, gamma, params.eta, bench_limit=B_THEOREM
        )
        violations += rep.violation_count
    report("2 threshold dominance", violations == 0, f"{violations} violations")


def _trace_registry(theorem_runs):
    """Every price-mechanism trace the acceptance suite generates."""
    runs, _ = theorem_runs
    out = [(r.schedule, scn, p) for r, _b, p, _g, scn in runs]
    params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
    bundle = eip_c2_failure(params, eps=0.01)
    res = run_price_based(bundle.scenario, params, bundle.policy, 600)
    out.append((res.schedule, res.scenario, params))
    bundle = log_range(params, H=100.0, L=math.e)
    res = run_price_based(bundle.scenario, params, bundle.policy, bundle.horizon)
    out.append((res.schedule, res.scenario, params))
    for c in (1.25, 1.5, 1.75):
        pc = MechanismParams(B=6400.0, c=c, eta=ETA, p_min=1.0, p_1=1.0)
        bundle = c_below_two(pc, 400, eps=0.005)
        res = run_price_based(bundle.scenario, pc, ValueDescending(), 400)
        out.append((res.schedule, res.scenario, pc))
    return out


def test_criterion_3_slackness_everywhere(theorem_runs):
    bad_windows = 0
    checked = 0
    for sched, scn, params in _trace_registry(theorem_runs):
        v_max = max(
            max((t.unit_value for t in scn.transactions), default=params.p_1),
            params.p_1,
        )
        delta = theorem_slackness(params, v_max)
        rep = check_avg_block_size(sched, scn, params.B, delta)
        bad_windows += rep.violation_count
        checked += 1
    report(
        "3 slackness bound on every trace",
        bad_windows == 0,
        f"{checked} traces, {bad_windows} violating windows",
    )


def test_criterion_4_price_bound(theorem_runs):
    runs, _ = theorem_runs
    worst_excess = -math.inf
    ok = True
    for run, _bench, params, _gamma, scn in runs:
        v_max = max(
            max((t.unit_value for t in scn.transactions), default=params.p_1),
            params.p_1,
        )
        bound = math.log(v_max) + params.eta * (params.c - 1.0)
        first = run.trace.first_nonempty()
        if first is None:
            continue
        for rec in run.trace.records:
            if rec.time > first:
                worst_excess = max(worst_excess, rec.log_prices[0] - bound)
                if rec.log_prices[0] > bound + 1e-9:
                    ok = False
    report("4 price bound after first nonempty block", ok, f"max log excess {worst_excess:.2e}")


def test_criterion_5_greedy_warmup():
    n = 500
    horizon = 40
    B = 50
    dominated = 0
    max_block_ok = True
    window_checked = 0
    window_ok = True
    for seed in range(n):
        load = (0.5, 1.0, 2.0, 5.0)[seed % 4]
        scn = random_family(
            seed=seed, horizon=horizon, value_range=(1.2, 50.0), q_max=B,
            load_factor=load, B=B, eta=ETA,
        )
        greedy = greedy_online(scn, float(B), horizon + 1)
        opt = opt_fractional(scn, float(B), horizon)
        sw_g = welfare(greedy.schedule, scn, horizon + 1)
        sw_o = welfare(opt, scn, horizon)
        dominated += sw_g >= sw_o - 1e-9 * abs(sw_o)
        if scn.transactions and max_block_size(greedy.schedule, scn)[0] > 2 * B:
            max_block_ok = False
        # never-empty check: arrivals always strictly outpace the target
        arrived = {}
        tot = 0.0
        for t in range(1, horizon + 2):
            tot += sum(x.q for x in scn.transactions if x.arrival == t)
            arrived[t] = tot
        if all(arrived[t] >= (t + 1) * B + 1 for t in range(1, horizon + 2)):
            window_checked += 1
            sizes = greedy.trace.sizes()
            prefix = [0.0]
            for s in sizes:
                prefix.append(prefix[-1] + s)
            for z in range(1, horizon + 2):
                for start in range(0, horizon + 2 - z):
                    w = prefix[start + z] - prefix[start]
                    if not ((z - 1) * B <= w < (z + 1) * B):
                        window_ok = False
    report(
        "5 greedy warm-up",
        dominated == n and max_block_ok and window_checked > 0 and window_ok,
        f"{dominated}/{n} dominance, max block <= 2B: {max_block_ok}, "
        f"{window_checked} never-empty instances window-checked",
    )


def test_criterion_6_welfare_integral_identity():
    rng = random.Random(123)
    worst = 0.0
    n = 1000
    for _ in range(n):
        horizon = rng.randint(1, 8)
        txs = [
            Transaction(
                id=i, arrival=rng.randint(1, horizon), size=(rng.randint(1, 60),),
                unit_value=round(rng.uniform(0.0, 50.0), 4),
            )
            for i in range(rng.randint(1, 12))
        ]
        scn = Scenario(txs)
        entries = []
        for t in txs:
            budget = 1.0
            for _k in range(rng.randint(0, 2)):
                f = min(round(rng.uniform(0.05, 1.0), 4), budget)
                if f <= 0:
                    break
                entries.append(
                    ScheduleEntry(tx=t.id, time=rng.randint(t.arrival, horizon + 2), fraction=f)
                )
                budget -= f
        sched = Schedule(entries)
        lhs = welfare(sched, scn, horizon)
        rhs = welfare_via_threshold_integral(sched, scn, horizon)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report("6 welfare-integral identity", worst <= 1e-9, f"{n} schedules, worst rel err {worst:.2e}")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(77)
    frac_ok = True
    for _ in range(150):
        n, T, B = rng.randint(1, 6), rng.randint(1, 4), rng.randint(2, 4)
        txs = [
            Transaction(id=i, arrival=rng.randint(1, T), size=(rng.randint(1, 4),),
                        unit_value=round(rng.uniform(0.5, 5.0), 3))
            for i in range(n)
        ]
        scn = Scenario(txs)
        mine = welfare(opt_fractional(scn, B, T), scn, T)
        if abs(mine - brute_fractional_opt(scn, B, T)) > 1e-9 * max(1.0, mine):
            frac_ok = False
    knap_ok = True
    for _ in range(60):
        n, B = rng.randint(1, 12), rng.randint(5, 30)
        sizes = [rng.randint(1, 10) for _ in range(n)]
        vals = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
        scn = Scenario(
            transactions=[
                Transaction(id=i, arrival=1, size=(sizes[i],), unit_value=vals[i])
                for i in range(n)
            ],
        )
        mine = welfare(opt_integral_small(scn, B, 1), scn, 1)
        if abs(mine - brute_knapsack(sizes, vals, B)) > 1e-9 * max(1.0, mine):
            knap_ok = False
    relax_ok = True
    for seed in range(200):
        r2 = random.Random(seed)
        n, T, B = r2.randint(1, 6), r2.randint(1, 4), r2.randint(2, 5)
        txs = [
            Transaction(id=i, arrival=r2.randint(1, T), size=(r2.randint(1, 4),),
                        unit_value=round(r2.uniform(0.5, 5.0), 3))
            for i in range(n)
        ]
        scn = Scenario(txs)
        if welfare(opt_integral_small(scn, B, T), scn, T) > welfare(
            opt_fractional(scn, B, T), scn, T
        ) + 1e-9:
            relax_ok = False
    report(
        "7 oracle equivalence",
        frac_ok and knap_ok and relax_ok,
        f"fractional {frac_ok}, knapsack {knap_ok}, relaxation {relax_ok}",
    )


def test_criterion_8_c2_failure():
    params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
    eps = 0.01
    bundle = eip_c2_failure(params, eps)
    hor = math.ceil(bundle.notes["expected_climb"]) + 10
    res = run_price_based(bundle.scenario, params, bundle.policy, hor)
    t_star = measure_t_star(res, params)
    expected = math.log(2.0) / (eps * ETA) / 2.0
    sw = welfare(res.schedule, res.scenario, 2 * t_star)  # gamma = t_star
    ratio = sw / (bundle.notes["optimum_per_block"] * t_star)
    report(
        "8 c=2 failure",
        ratio < 0.5 and abs(t_star - expected) <= 1.0,
        f"ratio {ratio:.4f} < 0.5, T* = {t_star} vs {expected:.2f}",
    )


def test_criterion_9_c_below_two():
    ok = True
    details = []
    for c in (1.25, 1.5, 1.75):
        B, T = 6400, 2000
        bound = min(1.0 / 8.0, (2.0 - c) / 3.0) - 0.01
        params = MechanismParams(B=float(B), c=c, eta=ETA, p_min=1.0, p_1=1.0)
        bundle = c_below_two(params, T, eps=0.005)
        res = run_price_based(bundle.scenario, params, ValueDescending(), T)
        loss_eip = 1.0 - welfare(res.schedule, res.scenario, T) / bundle.audit()["optimum"]
        bundle = c_below_two(params, T, eps=0.005)
        g = greedy_online(bundle.scenario, float(B), T, max_block=c * B)
        loss_greedy = 1.0 - welfare(g.schedule, g.scenario, T) / bundle.audit()["optimum"]
        details.append(f"c={c}: eip {loss_eip:.3f}, greedy {loss_greedy:.3f} >= {bound:.3f}")
        ok = ok and loss_eip >= bound and loss_greedy >= bound
    report("9 c<2 lower bound", ok, "; ".join(details))


def test_criterion_10_log_range():
    params = MechanismParams(B=6400.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
    L = math.e
    bundle = log_range(params, H=100.0, L=L)
    res = run_price_based(bundle.scenario, params, bundle.policy, bundle.horizon)
    climb = measure_climb(res, params, L, bundle.notes["decay"])
    expected = math.log(L / params.p_min) / ((params.c - 1.0) * ETA)
    sizes = res.trace.sizes()[:climb]
    slack = sum(sizes) / params.B - climb
    report(
        "10 log-range climb",
        abs(climb - expected) <= 1.0 and slack == climb * (params.c - 1.0),
        f"climb {climb} vs {expected:.2f}, slackness {slack} == {climb * (params.c - 1.0)}",
    )


def test_criterion_11_price_adversary():
    params = MechanismParams(B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0)
    rep = adaptive_price_adversary(params, gamma=2, delta=1, H=2.0**64)
    report(
        "11 price-based adversary",
        rep.passed and rep.m < rep.m_prime and rep.price_transcripts_identical,
        f"fraction {rep.fraction:.4f} <= {rep.bound:.4f}, collision m={rep.m} m'={rep.m_prime}, "
        f"transcripts identical: {rep.price_transcripts_identical}",
    )


def test_criterion_12_partial_patience():
    mp = MechanismParams(
        B=1.0, c=2.0, eta=ETA, p_min=1.0, p_1=1.0, discounted_eligibility=True
    )
    bundle = discount_mix(mp, rho_min=0.01, K=8)
    T = bundle.horizon
    res = run_price_based(bundle.scenario, mp, ValueDescending(), T)
    loss_d = 1.0 - welfare(res.schedule, res.scenario, T) / bundle.audit()["optimum"]
    bundle = patience_global(mp, p=60)
    T = bundle.horizon
    res = run_price_based(bundle.scenario, mp, ValueDescending(), T)
    loss_p = 1.0 - welfare(res.schedule, res.scenario, T) / bundle.audit()["optimum"]

    # construction optima match the exact solver on miniatures (both branches)
    dp_ok = True
    bundle = discount_mix(mp, rho_min=0.2, K=1, gamma_delta=12)
    gen = bundle.scenario.generator
    Tm = bundle.horizon
    scn, audit = drive(bundle, Tm, lambda t, pending: {
        x.id for x in pending if gen.tags.get(x.id) == "hasty"
    })
    dp_ok &= abs(welfare(opt_integral_small(scn, 1.0, Tm), scn, Tm) - audit["optimum"]) <= 1e-9
    bundle = discount_mix(mp, rho_min=0.2, K=1, gamma_delta=12)
    scn, audit = drive(bundle, Tm, lambda t, p: set())
    dp_ok &= abs(welfare(opt_integral_small(scn, 1.0, Tm), scn, Tm) - audit["optimum"]) <= 1e-9
    for picker in ("reds", "none"):
        bundle = patience_global(mp, p=5)
        gen = bundle.scenario.generator
        Tm = bundle.horizon
        pick = (
            (lambda t, pending: {x.id for x in pending if gen.tags.get(x.id) == "red"})
            if picker == "reds"
            else (lambda t, p: set())
        )
        scn, audit = drive(bundle, Tm, pick)
        dp_ok &= abs(welfare(opt_integral_small(scn, 1.0, Tm), scn, Tm) - audit["optimum"]) <= 1e-9
    report(
        "12 partial patience",
        loss_d >= 1 / 20 - 0.01 and loss_p >= 1 / 10 - 0.02 and dp_ok,
        f"discount loss {loss_d:.3f} >= {1 / 20 - 0.01:.3f}, "
        f"patience loss {loss_p:.3f} >= {1 / 10 - 0.02:.3f}, miniature optima match: {dp_ok}",
    )


def test_criterion_13_three_resources():
    bundle = three_resources(300)
    T = bundle.horizon
    res = multi_resource_mechanism(
        bundle.scenario, three_resources_params(ETA), ValueAscending(), T
    )
    ratio = welfare(res.schedule, res.scenario, T) / bundle.audit()["optimum"]
    report(
        "13 three-resource ceiling",
        ratio <= 5.0 / 6.0 + 0.05,
        f"ratio {ratio:.4f} <= {5 / 6 + 0.05:.4f}",
    )


def test_criterion_14_determinism(tmp_path):
    args = lambda out: [
        "suite", "--name", "all", "--seeds", "2", "--horizon", "60", "--out", out,
    ]
    rc1 = cli_main(args(str(tmp_path / "a.csv")))
    rc2 = cli_main(args(str(tmp_path / "b.csv")))
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    run_args = lambda out: ["run", "--scenario", "log_range", "--out", out]
    cli_main(run_args(str(tmp_path / "r1")))
    cli_main(run_args(str(tmp_path / "r2")))
    files_identical = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in ("trace.jsonl", "schedule.json", "summary.json", "scenario.jsonl")
    )
    report(
        "14 determinism",
        rc1 == rc2 == 0 and identical and files_identical,
        f"suite CSV identical: {identical}, run outputs identical: {files_identical}",
    )
