"""Property-based checks of the accounting invariants."""

import math

from hypothesis import given, settings, strategies as st

from feemarket import (
    MechanismParams,
    Scenario,
    Schedule,
    ScheduleEntry,
    Transaction,
    check_avg_block_size,
    eip_next_price,
    quantity_above,
    select_block,
    validate_schedule,
    welfare,
    welfare_via_threshold_integral,
)
from feemarket.adversary import TipPriority, ValueAscending, ValueDescending


@st.composite
def patient_instances(draw):
    """A scenario plus a valid fractional schedule over it."""
    n = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 6))
    txs = [
        Transaction(
            id=i,
            arrival=draw(st.integers(1, horizon)),
            size=(draw(st.integers(1, 50)),),
            unit_value=draw(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
            ),
        )
        for i in range(n)
    ]
    scn = Scenario(capacities=(100.0,), transactions=txs)
    entries = []
    for t in txs:
        k = draw(st.integers(0, 2))
        if k == 0:
            continue
        times = sorted(
            draw(
                st.lists(
                    st.integers(t.arrival, horizon + 3), min_size=k, max_size=k, unique=True
                )
            )
        )
        budget = 1.0
        for when in times:
            f = draw(st.floats(0.01, 1.0))
            f = min(f, budget)
            if f <= 0:
                break
            entries.append(ScheduleEntry(tx=t.id, time=when, fraction=f))
            budget -= f
    return scn, Schedule(entries), horizon


@given(patient_instances())
@settings(max_examples=150, deadline=None)
def test_welfare_integral_identity(case):
    scn, sched, horizon = case
    validate_schedule(sched, scn)
    lhs = welfare(sched, scn, horizon)
    rhs = welfare_via_threshold_integral(sched, scn, horizon)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(patient_instances(), st.floats(0.0, 120.0), st.floats(0.0, 120.0))
@settings(max_examples=150, deadline=None)
def test_quantity_above_monotone_in_theta(case, a, b):
    scn, sched, horizon = case
    lo, hi = min(a, b), max(a, b)
    assert quantity_above(sched, scn, lo, (1, horizon)) >= quantity_above(
        sched, scn, hi, (1, horizon)
    )


@given(patient_instances(), st.floats(0.0, 120.0), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_quantity_above_additive_over_windows(case, theta, split):
    scn, sched, horizon = case
    hi = horizon + 3
    mid = min(split, hi - 1)
    total = quantity_above(sched, scn, theta, (1, hi))
    left = quantity_above(sched, scn, theta, (1, mid))
    right = quantity_above(sched, scn, theta, (mid + 1, hi))
    assert abs(total - (left + right)) <= 1e-9 * max(1.0, total)


@given(patient_instances(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_avg_block_size_monotone_in_slack(case, d1, d2):
    scn, sched, _ = case
    lo, hi = min(d1, d2), max(d1, d2)
    if check_avg_block_size(sched, scn, 60.0, lo).passed:
        assert check_avg_block_size(sched, scn, 60.0, hi).passed


@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.floats(0.1, 9.0)), min_size=0, max_size=14
    ),
    st.integers(20, 120),
    st.sampled_from(["asc", "desc", "tip"]),
)
@settings(max_examples=200, deadline=None)
def test_select_block_maximality_and_capacity(specs, cap, policy_name):
    eligible = [
        Transaction(id=i, arrival=1, size=(q,), unit_value=v)
        for i, (q, v) in enumerate(specs)
    ]
    policy = {
        "asc": ValueAscending(),
        "desc": ValueDescending(),
        "tip": TipPriority({i: (i * 37 % 11) / 7.0 for i in range(len(specs))}),
    }[policy_name]
    chosen = select_block(eligible, (float(cap),), policy)
    by_id = {t.id: t for t in eligible}
    used = sum(by_id[i].q for i in chosen)
    assert used <= cap + 1e-9
    residual = cap - used
    for t in eligible:
        if t.id not in chosen:
            assert t.q > residual + 1e-9
    # highest-priority transaction that fits alone is always included
    if isinstance(policy, TipPriority) and eligible:
        order = sorted(eligible, key=lambda t: (-policy.tips.get(t.id, 0.0), t.id))
        if order[0].q <= cap:
            assert order[0].id in chosen


@given(
    st.floats(0.01, 2.0),
    st.floats(1.1, 4.0),
    st.floats(-20.0, 20.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_price_floor_always_respected(eta, c, log_p, fill):
    params = MechanismParams(B=100.0, c=c, eta=eta, p_min=math.exp(-5.0), p_1=1.0)
    lp = max(math.log(params.p_min), log_p)
    nxt = eip_next_price(params, lp, fill * params.max_block)
    assert nxt >= math.log(params.p_min)
