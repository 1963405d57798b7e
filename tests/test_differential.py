"""The fast paths against their direct forms in ``oracles``, bit for bit:
the O(n) window check, the O(n log n) welfare identity, the one-pass
threshold curves and check, block sizes, the fractional optimum's heap,
block assembly, the
engine's bisected pending pool, the greedy baseline's heap, and the template
JSON writers and per-line readers."""

import json
import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from feemarket import (
    PATIENT,
    BlockRecord,
    Discount,
    InvalidScheduleError,
    MechanismParams,
    Patience,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    TipPriority,
    Transaction,
    ValueAscending,
    ValueDescending,
    check_avg_block_size,
    check_threshold_dominance,
    greedy_online,
    multi_resource_mechanism,
    opt_fractional,
    quantity_curve,
    welfare_via_threshold_integral,
)
from feemarket import core
from feemarket.adversary import SeededRandom, _pool_entry, block_rng, select_block
from feemarket.cli import C2_PARAMS
from feemarket.core import (
    LOG_EPS,
    scenario_from_jsonl,
    scenario_to_jsonl,
    schedule_from_json,
    schedule_to_json,
    trace_to_jsonl,
)
from feemarket.mechanisms import OversizedTransactionError, replay_log_prices
from feemarket.scenarios import eip_c2_failure

from oracles import (
    all_thetas_threshold_check,
    all_windows_block_check,
    fsum_threshold_quantity,
    per_entry_block_sizes,
    per_value_identity,
    reference_opt_fractional,
    reference_greedy_online,
    reference_scenario_from_jsonl,
    reference_scenario_to_jsonl,
    reference_schedule_from_json,
    reference_schedule_to_json,
    reference_select_block,
    reference_trace_to_jsonl,
    rescanning_engine,
)


def bits(x: float) -> str:
    return x.hex()


@st.composite
def block_schedules(draw):
    """A schedule over up to three resources with integral or fractional
    entries.  In ``tied`` mode every block carries exactly B_j on each
    resource, so O(n^2) windows tie at the bound and at the maximum."""
    m = draw(st.sampled_from([1, 1, 2, 3]))
    targets = [draw(st.sampled_from([1.0, 7.0, 10.0, 100.0, 3.3])) for _ in range(m)]
    n = draw(st.integers(1, 24))
    tied = draw(st.booleans())
    txs, entries = [], []
    for t in range(1, n + 1):
        if tied:
            parts = draw(st.integers(1, 3))
            for _ in range(parts):
                i = len(txs)
                size = tuple(max(1, round(b)) for b in targets)
                txs.append(Transaction(id=i, arrival=1, size=size, unit_value=1.0))
                entries.append(ScheduleEntry(i, t, 1.0 / parts))
            continue
        for _ in range(draw(st.integers(0, 3))):
            i = len(txs)
            size = tuple(draw(st.sampled_from([0, 1, 3, 7, 10, 33, 100])) for _ in range(m))
            if not any(size):
                size = (1,) + size[1:]
            frac = draw(
                st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.1]), st.floats(0.01, 1.0))
            )
            txs.append(Transaction(id=i, arrival=1, size=size, unit_value=1.0))
            entries.append(ScheduleEntry(i, t, frac))
    scn = Scenario(txs, m=m)
    B = targets if m > 1 else targets[0]
    return scn, Schedule(entries), B


@given(
    block_schedules(),
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, math.nan, math.inf, -math.inf]),
        st.floats(-1.0, 3.0),
    ),
)
@settings(max_examples=200, deadline=None)
def test_window_check_matches_all_windows(case, delta):
    # The window passes take any delta, NaN and +-inf too; the public check
    # rejects a non-finite one and reports what they find for the others.
    scn, sched, B = case
    lo, columns = core._block_prefix_sums(sched, scn, B)
    count, first = core._window_violations(lo, columns, delta)
    max_slackness = core._max_slackness(columns)
    passed, violations, max_slack = all_windows_block_check(sched, scn, B, delta)
    assert (count == 0) == passed
    assert count == len(violations)
    firsts = [first] if first else []
    assert [
        (v.resource, v.start, v.end, bits(v.total), bits(v.bound)) for v in firsts
    ] == [(j, s, e, bits(total), bits(bound)) for j, s, e, total, bound in violations[:1]]
    assert bits(max_slackness) == bits(max_slack)
    if math.isfinite(delta):
        report = check_avg_block_size(sched, scn, B, delta)
        assert (report.violation_count, report.first_violation) == (count, first)
    assert bits(core.measured_slackness(sched, scn, B)) == bits(max_slackness)


def test_max_slackness_needs_its_rounding_band():
    # The window of the float maximum is not the window of the largest float
    # running-minimum gap here; only the band around that gap finds it.
    sizes = [3, 10, 10, 1, 10, 7, 33, 3, 33, 3, 3]
    placed = [(1, 1 / 3), (2, 1 / 3), (2, 0.1), (3, 1 / 3), (4, 0.1561917472876797),
              (4, 0.1), (4, 1 / 3), (5, 1.0), (5, 0.1), (6, 1.0), (6, 0.1)]
    scn = Scenario(
        transactions=[Transaction(id=i, arrival=1, size=(q,), unit_value=1.0)
                      for i, q in enumerate(sizes)],
    )
    sched = Schedule([ScheduleEntry(i, t, f) for i, (t, f) in enumerate(placed)])
    want = all_windows_block_check(sched, scn, 3.3, 0.0)[2]
    assert bits(core.measured_slackness(sched, scn, 3.3)) == bits(want)


@st.composite
def patient_schedules(draw):
    """Fractional schedules over patient transactions with shared values."""
    n = draw(st.integers(1, 30))
    horizon = draw(st.integers(1, 8))
    values = st.one_of(
        st.sampled_from([0.0, 1.0, 2.5, 1e6, 1.0 / 3.0]), st.floats(0.0, 1e6)
    )
    txs = [
        Transaction(
            id=i,
            arrival=draw(st.integers(1, horizon)),
            size=(draw(st.integers(1, 100)),),
            unit_value=draw(values),
        )
        for i in range(n)
    ]
    entries = [
        ScheduleEntry(
            t.id,
            draw(st.integers(t.arrival, horizon + 2)),
            draw(st.one_of(st.just(1.0), st.floats(0.001, 1.0))),
        )
        for t in txs
        if draw(st.booleans())
    ]
    return Scenario(txs), Schedule(entries), horizon


@given(patient_schedules())
@settings(max_examples=200, deadline=None)
def test_identity_matches_per_value_scan(case):
    scn, sched, horizon = case
    assert bits(welfare_via_threshold_integral(sched, scn, horizon)) == bits(
        per_value_identity(sched, scn, horizon)
    )


_SPLITS = st.one_of(
    st.sampled_from([1.0, 1.0, 1.0 / 3.0, 0.1, 1.0 - 1e-12, 0.5]), st.floats(0.001, 1.0)
)


@st.composite
def threshold_schedules(draw):
    """A stream with repeated unit values and two fractional schedules over
    blocks 0..horizon + 3, so some entries fall outside any window; one
    schedule in five names an unknown id in one of its entries."""
    n = draw(st.integers(1, 12))
    values = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 1.0 / 3.0, 1e6]), st.floats(0.0, 1e6))
    txs = [
        Transaction(i, draw(st.integers(1, 4)), (draw(st.sampled_from([1, 3, 7, 10, 33, 100])),),
                    draw(values))
        for i in range(n)
    ]
    horizon = draw(st.integers(1, 6))

    def schedule():
        entries = [
            ScheduleEntry(
                draw(st.integers(0, n - 1)), draw(st.integers(0, horizon + 3)), draw(_SPLITS)
            )
            for _ in range(draw(st.integers(0, 14)))
        ]
        if entries and draw(st.sampled_from([False, False, False, False, True])):
            i = draw(st.integers(0, len(entries) - 1))
            entries[i] = ScheduleEntry(n + 7, entries[i].time, entries[i].fraction)
        return Schedule(entries)

    return Scenario(txs), schedule(), schedule(), horizon


def _outcome(f, *args):
    """f's result, or the type and message of the error it raises."""
    try:
        return f(*args)
    except InvalidScheduleError as exc:
        return type(exc), str(exc)


@given(threshold_schedules(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_quantity_curve_matches_fsum_at_and_between_breakpoints(case, a, k):
    scn, sched, _other, _horizon = case
    window = (a, a + k)
    curve = _outcome(quantity_curve, sched, scn, window)
    index = scn.index()
    try:
        values = sorted({index[e.tx].unit_value for e in sched.entries if a <= e.time <= a + k})
    except KeyError:
        want = _outcome(fsum_threshold_quantity, sched, scn, 0.0, *window)
        assert curve == want and isinstance(want, tuple)
        return
    thetas = [-1.0, 0.0, math.inf, *values]
    thetas += [math.nextafter(v, d) for v in values for d in (-math.inf, math.inf)]
    thetas += [(u + v) / 2 for u, v in zip(values, values[1:])]
    for theta in thetas:
        assert bits(curve(theta)) == bits(fsum_threshold_quantity(sched, scn, theta, *window))


@given(threshold_schedules(), st.integers(0, 3), st.sampled_from([0.125, 0.01, 1.0]))
@settings(max_examples=200, deadline=None)
def test_threshold_check_matches_all_thetas_fsum(case, gamma, eta):
    scn, alg, bench, horizon = case
    want = _outcome(all_thetas_threshold_check, alg, bench, scn, horizon, gamma, eta)
    got = _outcome(check_threshold_dominance, alg, bench, scn, horizon, gamma, eta, 1e9)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    first = got.first_violation
    got = (got.violation_count, first and (first.theta, first.lhs, first.rhs), got.thetas_checked)
    assert got == want
    if first is not None:
        assert list(map(bits, got[1])) == list(map(bits, want[1]))


@given(st.one_of(
    threshold_schedules().map(lambda case: (case[0], case[1])),
    block_schedules().map(lambda case: (case[0], case[1])),
))
@settings(max_examples=200, deadline=None)
def test_block_sizes_match_per_entry_sums(case):
    scn, sched = case
    got = _outcome(core.block_sizes, sched, scn)
    want = _outcome(per_entry_block_sizes, sched, scn)
    if isinstance(want, dict):
        got = [(t, list(map(bits, row))) for t, row in got.items()]
        want = [(t, list(map(bits, row))) for t, row in want.items()]
    assert got == want


@given(
    threshold_schedules().map(lambda case: case[0]),
    st.sampled_from([1.0, 3.3, 7.5, 10.0, 100.0]),
    st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_opt_fractional_matches_index_lookup_heap(scn, B, horizon):
    assert schedule_to_json(opt_fractional(scn, B, horizon)) == schedule_to_json(
        reference_opt_fractional(scn, B, horizon)
    )


# Adjacent floats whose logs are equal: the engine's pool key must order
# them by value, as select_block does.
_TIED_VALUES = [1e6, math.nextafter(1e6, math.inf), 12345.678, math.nextafter(12345.678, math.inf)]
assert math.log(_TIED_VALUES[0]) == math.log(_TIED_VALUES[1])


def _value_on_floor(p: float) -> float:
    """The least value still eligible at posted price p: its ln is exactly
    the floor ln p - LOG_EPS, and the next float down is priced out."""
    floor = math.log(p) - LOG_EPS
    v = math.exp(floor)
    while math.log(v) >= floor:
        v = math.nextafter(v, -math.inf)
    v = math.nextafter(v, math.inf)
    assert math.log(v) == floor
    return v


# Block 1 posts p_1 = 2.0, which puts the eligibility floor exactly on
# ln _ON_FLOOR: the bisects must keep that value and drop _BELOW_FLOOR.
_ON_FLOOR = _value_on_floor(2.0)
_BELOW_FLOOR = math.nextafter(_ON_FLOOR, -math.inf)


def tip_policies(n: int):
    """Tip orders over ids below n: distinct tips, tied tips, no tips, and
    tips drawn per id from negative, zero and explicitly default values (an
    int 0, 0.0 and -0.0 all rank as a missing tip), so that runs of one
    size and one tip are common."""
    drawn = st.dictionaries(st.integers(0, n - 1), st.sampled_from([-2.5, -1, 0, 0.0, -0.0, 3.0]))
    return st.one_of(
        st.sampled_from(
            [
                TipPriority({i: (i * 37 % 11) / 7.0 for i in range(n)}),
                TipPriority({i: float(i % 3) for i in range(0, n, 2)}),
                TipPriority({}),
            ]
        ),
        st.builds(TipPriority, drawn),
    )


@st.composite
def engine_cases(draw):
    """Overloaded static streams: shared, log-tied and floor-edge values,
    every sensitivity, one to three resources, every inclusion policy with
    the tips of ``tip_policies``, p_1 at or above the floor.  The sizes
    come from a small shared set, so each size's pool holds several
    entries, and small sizes let one block admit several entries of one
    size; with several resources a size may be 0 on any resource, resource
    0 included, and now and then resource 0 is an anchor whose capacity
    never binds."""
    m = draw(st.sampled_from([1, 1, 2, 3]))
    B = draw(st.sampled_from([10, 50]))
    horizon = draw(st.integers(1, 12))
    vector = st.tuples(*[st.integers(0, B)] * m).filter(any)
    small = st.tuples(*[st.integers(0, 3)] * m).filter(any)
    shapes = draw(st.lists(st.one_of(vector, small), min_size=1, max_size=4))
    anchor = m > 1 and draw(st.booleans())
    value = st.sampled_from(
        [0.0, 1.0, 1.2, 2.0, 2.0, 5.0, 5.0, 40.0, *_TIED_VALUES, _ON_FLOOR, _BELOW_FLOOR]
    )
    sensitivity = st.one_of(
        st.just(PATIENT),
        st.builds(Discount, st.sampled_from([0.05, 0.3])),
        st.builds(Patience, st.integers(0, 3)),
    )
    txs = []
    for i in range(draw(st.integers(0, 40))):
        size = draw(st.sampled_from(shapes))
        txs.append(
            Transaction(
                id=i,
                arrival=draw(st.integers(1, horizon)),
                size=size,
                unit_value=draw(value),
                sensitivity=draw(sensitivity),
            )
        )
    c = draw(st.sampled_from([1.5, 2.0, 3.0]))
    aware = draw(st.booleans())
    # p_1 above the floor lets the price fall onto a priced-out decaying tx
    p_1 = draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 2.0, 3.0]))
    targets = [1000.0 if anchor and j == 0 else float(B) for j in range(m)]
    params = [
        MechanismParams(B=b, c=c, eta=0.125, p_min=1.0, p_1=p_1, discounted_eligibility=aware)
        for b in targets
    ]
    policy = draw(
        st.one_of(
            st.sampled_from([ValueAscending(), ValueDescending(), SeededRandom()]),
            tip_policies(40),
        )
    )
    if isinstance(policy, SeededRandom):
        policy = SeededRandom(seed=draw(st.integers(0, 2**64)))
    scn = Scenario(txs, m=m)
    return scn, params, policy, horizon + draw(st.integers(0, 4))


@given(engine_cases())
@settings(max_examples=200, deadline=None)
def test_engine_matches_rescanning_engine(case):
    scn, params, policy, horizon = case
    run = multi_resource_mechanism(scn, params, policy, horizon)
    assert run.trace.records == rescanning_engine(scn, params, policy, horizon).records
    assert [(e.tx, e.time) for e in run.schedule.entries] == [
        (cid, rec.time) for rec in run.trace.records for cid, _f in rec.executed
    ]
    assert replay_log_prices(params, run.trace, scn) == [r.log_prices for r in run.trace.records]


def test_tip_order_matches_rescanning_engine_on_the_c2_failure_stream():
    """Every block of the c = 2 failure stream adds a transaction that never
    fits to one long run of one size, which the tip order's merge drops on
    its bound: 1,115 blocks match the rescanning engine, record for record."""
    bundle = eip_c2_failure(C2_PARAMS, eps=0.005)
    assert bundle.horizon == 1115
    reference = rescanning_engine(bundle.scenario, bundle.params, bundle.policy, bundle.horizon)
    assert bundle.run().trace.records == reference.records


@pytest.mark.parametrize(
    "x_arrival,x_value,y_arrival,block",
    [(3, 100.0, 3, 3), (1, 1.5, 13, 13)],
    ids=["arrives", "becomes_eligible"],
)
def test_tip_merge_bound_covers_entries_that_join_a_long_run(x_arrival, x_value, y_arrival, block):
    """Twenty size-8 transactions form a run too long to enter the tip
    merge at its head, so it enters at a bound on its size's tips, found
    in block 1.  Tx 20, also of size 8 and tipped 10, joins the run later:
    by arriving at block 3, or by becoming eligible at block 13 as the
    price falls.  The bound must cover it, so it comes before tx 21,
    tipped 5, which arrives in the same block."""
    txs = [Transaction(id=i, arrival=1, size=(8,), unit_value=100.0) for i in range(20)]
    txs.append(Transaction(id=20, arrival=x_arrival, size=(8,), unit_value=x_value))
    txs.append(Transaction(id=21, arrival=y_arrival, size=(7,), unit_value=100.0))
    scn = Scenario(txs)
    params = [MechanismParams(B=10, c=1.5, eta=0.125, p_min=1.0, p_1=2.0)]
    policy = TipPriority({20: 10.0, 21: 5.0})
    run = multi_resource_mechanism(scn, params, policy, block + 1)
    assert [cid for cid, _f in run.trace.records[block - 1].executed] == [20, 21]
    assert run.trace.records == rescanning_engine(scn, params, policy, block + 1).records


def test_tip_order_takes_a_long_runs_head_when_one_entry_fits():
    """One run of ten size-5 entries, in value order, and room for one:
    the tip order admits the run's highest tip, not its first entry."""
    txs = [Transaction(id=i, arrival=1, size=(5,), unit_value=float(i + 1)) for i in range(10)]
    policy = TipPriority({6: 3.0})
    assert select_block(txs, (7.0,), policy) == [6] == reference_select_block(txs, (7.0,), policy)


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_floor_on_a_value_keeps_it_eligible(policy):
    """Posting p_1 = 2.0 puts the floor exactly on ln _ON_FLOOR: the suffix
    (ascending) and prefix (descending) pool slices keep that transaction
    and drop the next value down."""
    values = [_BELOW_FLOOR, _ON_FLOOR, 2.0, 5.0, 1.0]
    txs = [Transaction(id=i, arrival=1, size=(1,), unit_value=v) for i, v in enumerate(values)]
    scn = Scenario(txs)
    params = [MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=2.0)]
    run = multi_resource_mechanism(scn, params, policy, 1)
    assert run.trace.records == rescanning_engine(scn, params, policy, 1).records
    executed = [i for i, _f in run.trace.records[0].executed]
    assert executed == ([3, 2, 1] if isinstance(policy, ValueDescending) else [1, 2, 3])


def _bundle_bar(p_1s, size):
    """The posted cost of ``size`` at block 1 less the tolerance, as the
    rescanning engine computes it."""
    cost = 0.0
    for p, q in zip(p_1s, size):
        cost += math.exp(math.log(p)) * q
    return cost * (1.0 - LOG_EPS)


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_bundle_cost_on_a_value_keeps_it_eligible(policy):
    """With several resources, block 1 puts the bar exactly on v * q_0 of
    ``on``: the bisected suffix (ascending) and prefix (descending) of its
    size's pool keep it and drop the next value down."""
    p_1s, size = (2.0, 3.0), (2, 1)
    on = _bundle_bar(p_1s, size) / 2
    below = math.nextafter(on, -math.inf)
    assert on * 2 == _bundle_bar(p_1s, size) > below * 2
    values = [below, on, 5.0, 1.0]
    txs = [Transaction(id=i, arrival=1, size=size, unit_value=v) for i, v in enumerate(values)]
    txs.append(Transaction(id=4, arrival=1, size=(1, 2), unit_value=9.0))
    scn = Scenario(txs, m=2)
    params = [MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=p) for p in p_1s]
    run = multi_resource_mechanism(scn, params, policy, 1)
    assert run.trace.records == rescanning_engine(scn, params, policy, 1).records
    executed = [i for i, _f in run.trace.records[0].executed]
    assert executed == ([4, 2, 1] if isinstance(policy, ValueDescending) else [1, 2, 4])


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_several_resources_decaying_entries(policy):
    """Discounted eligibility on two resources: tx 0 is priced out at
    arrival and taken once the prices fall below its decayed value; tx 1
    fails even at the floor prices and tx 3's patience runs out first."""
    params = [
        MechanismParams(B=10.0, c=2.0, eta=0.125, p_min=1.0, p_1=4.0, discounted_eligibility=True)
        for _ in range(2)
    ]
    txs = [
        Transaction(id=0, arrival=1, size=(5, 5), unit_value=7.0, sensitivity=Discount(0.05)),
        Transaction(id=1, arrival=1, size=(5, 5), unit_value=1.5, sensitivity=Discount(0.3)),
        Transaction(id=2, arrival=1, size=(5, 5), unit_value=9.0),
        Transaction(id=3, arrival=1, size=(5, 5), unit_value=5.0, sensitivity=Patience(2)),
    ]
    scn = Scenario(txs, m=2)
    run = multi_resource_mechanism(scn, params, policy, 10)
    assert run.trace.records == rescanning_engine(scn, params, policy, 10).records
    assert [(r.time, i) for r in run.trace.records for i, _f in r.executed] == [(1, 2), (4, 0)]


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_one_resource_decaying_entries_mix_sizes(policy):
    """Discounted eligibility on one resource: decaying entries of sizes 4
    and 6 join the pool's size runs in value order.  In block 1 the
    ascending fill takes four entries and leaves decaying tx 0, which no
    longer fits; the descending fill skips decaying tx 3 and then takes tx 8
    of size 2.  Tx 1 fails even at the floor and is never taken."""
    params = [
        MechanismParams(B=9.0, c=2.0, eta=0.125, p_min=1.0, p_1=3.0, discounted_eligibility=True)
    ]
    specs = [
        (1, 6, 7.0, Discount(0.05)),
        (1, 4, 1.5, Discount(0.3)),
        (1, 6, 5.0, PATIENT),
        (1, 4, 4.0, Patience(2)),
        (1, 4, 6.0, PATIENT),
        (2, 4, 3.5, Discount(0.05)),
        (2, 6, 2.0, PATIENT),
        (2, 6, 3.2, Discount(0.05)),
        (1, 2, 3.5, PATIENT),
    ]
    txs = [
        Transaction(id=i, arrival=t, size=(q,), unit_value=v, sensitivity=s)
        for i, (t, q, v, s) in enumerate(specs)
    ]
    scn = Scenario(txs)
    run = multi_resource_mechanism(scn, params, policy, 10)
    assert run.trace.records == rescanning_engine(scn, params, policy, 10).records
    executed = [[i for i, _f in r.executed] for r in run.trace.records]
    if isinstance(policy, ValueDescending):
        assert executed[:2] == [[0, 4, 2, 8], [3, 5]]
    else:
        assert executed[:2] == [[8, 3, 2, 4], [5, 0]]
    assert [r.time for r in run.trace.records if r.executed] == [1, 2, 5, 8]


@pytest.mark.parametrize(
    "policy",
    [ValueAscending(), ValueDescending(), TipPriority({i: float(i % 2) for i in range(0, 120, 3)})],
)
def test_one_resource_size_runs_follow_the_price(policy):
    """A seeded one-resource stream of three sizes at 2.5 times the target
    load: the price climbs and falls, so each size's most eligible entry
    moves as entries arrive and leave, and the groups holding eligible
    entries change from block to block.  Under the tip order most tips tie,
    so the id decides across the size groups."""
    rng = random.Random(3)
    values = [1.0, 1.1, 1.3, 1.6, 2.0, 2.5, 4.0]
    txs = [
        Transaction(
            id=i, arrival=1 + i // 4, size=(rng.choice([3, 5, 8]),), unit_value=rng.choice(values)
        )
        for i in range(120)
    ]
    scn = Scenario(txs)
    params = [MechanismParams(B=8.0, c=2.0, eta=0.25, p_min=1.0, p_1=1.0)]
    run = multi_resource_mechanism(scn, params, policy, 40)
    assert run.trace.records == rescanning_engine(scn, params, policy, 40).records
    assert max(r.log_prices[0] for r in run.trace.records) > math.log(2.0)


def pool_events(run, scn, policy):
    """What each block's executions did to the pending pool, in the
    engine's per-size pool-key order (``_pool_entry``): the blocks in which
    some size's executed entries are not one contiguous range of its pending
    entries (``scattered``), in which a size's every pending entry executed
    (``emptied``), and in which a size's most eligible entry executed while
    others of its size stayed pending (``best_left``).  The most eligible
    entry is a size's last in that order, or its first under
    ValueDescending."""
    descending = isinstance(policy, ValueDescending)
    index = scn.index()
    pending: set[int] = set()
    events = {"scattered": [], "emptied": [], "best_left": []}
    for rec in run.trace.records:
        pending |= {t.id for t in scn.transactions if t.arrival == rec.time}
        taken = {i for i, _f in rec.executed}
        by_size: dict = {}
        for i in sorted(pending, key=lambda i: _pool_entry(index[i], descending, None)[:3]):
            by_size.setdefault(index[i].size, []).append(i in taken)
        for flags in by_size.values():
            hits = [k for k, hit in enumerate(flags) if hit]
            if not hits:
                continue
            if hits[-1] - hits[0] + 1 != len(hits):
                events["scattered"].append(rec.time)
            if len(hits) == len(flags):
                events["emptied"].append(rec.time)
            elif flags[0 if descending else -1]:
                events["best_left"].append(rec.time)
        pending -= taken
    return events


def run_against_rescanning(scn, params, policy, horizon):
    run = multi_resource_mechanism(scn, params, policy, horizon)
    assert run.trace.records == rescanning_engine(scn, params, policy, horizon).records
    return run, pool_events(run, scn, policy)


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_one_resource_block_takes_a_long_run_of_one_size(policy):
    """Over a hundred entries of one size execute in one block, as in the
    c < 2 construction's dust phase; under the ascending order the range
    starts past the priced-out entries at 1.0, under the descending order
    at the size's head.  A second, rarer size shares the blocks.  Under
    either value order each size's executed entries are one contiguous
    range of its pending entries."""
    values = [1.0, 1.3, 1.3, 1.6, 2.0]
    txs = [
        Transaction(
            id=i,
            arrival=1 + i // 250,
            size=(30,) if i % 13 == 0 else (10,),
            unit_value=values[i % 5],
        )
        for i in range(750)
    ]
    scn = Scenario(txs)
    params = [MechanismParams(B=1000.0, c=1.5, eta=0.125, p_min=1.0, p_1=1.2)]
    run, events = run_against_rescanning(scn, params, policy, 10)
    index = scn.index()
    dust = [sum(index[i].size == (10,) for i, _f in r.executed) for r in run.trace.records]
    assert dust[:2] == [120, 120] and sum(n >= 100 for n in dust) >= 4
    assert events["scattered"] == []


@pytest.mark.parametrize(
    "policy", [TipPriority({1: 3.0, 6: 2.0, 10: 1.0, 17: 4.0, 13: 0.5}), SeededRandom(seed=4)]
)
def test_one_resource_scattered_admissions_leave_one_by_one(policy):
    """Under the tip and random orders a block may take entries of one size
    that are not adjacent in the pool (block 1 of the tip order takes ids
    1, 6 and 10, all of size 5), so they leave one by one; later blocks
    take adjacent ones, which leave by one slice."""
    txs = [
        Transaction(
            id=i, arrival=1 + i // 12, size=(5,) if i % 4 else (4,), unit_value=1.0 + i / 10
        )
        for i in range(24)
    ]
    scn = Scenario(txs)
    params = [MechanismParams(B=10.0, c=1.5, eta=0.125, p_min=1.0, p_1=1.0)]
    run, events = run_against_rescanning(scn, params, policy, 14)
    assert 1 in events["scattered"]
    assert len(events["scattered"]) < sum(1 for r in run.trace.records if r.executed)


@pytest.mark.parametrize(
    "policy", [ValueAscending(), ValueDescending(), TipPriority({3: 1.0, 8: 2.0})]
)
def test_one_resource_block_empties_a_size(policy):
    """Block 2 takes every pending entry of one size while another size
    stays pending; the size is pooled again when its next entries arrive at
    block 3."""
    specs = [
        (1, 6, 2.0), (1, 6, 2.5), (1, 9, 1.5), (1, 9, 1.1), (1, 9, 3.0),
        (3, 6, 1.8), (3, 6, 4.0), (3, 9, 2.2), (5, 6, 1.2), (5, 6, 1.4),
    ]
    txs = [
        Transaction(id=i, arrival=t, size=(q,), unit_value=v)
        for i, (t, q, v) in enumerate(specs)
    ]
    scn = Scenario(txs)
    params = [MechanismParams(B=12.0, c=1.5, eta=0.125, p_min=1.0, p_1=1.0)]
    _run, events = run_against_rescanning(scn, params, policy, 10)
    assert events["emptied"][0] == 2


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending()])
def test_one_resource_block_takes_a_sizes_best_entry(policy):
    """A block takes a size's most eligible entry and leaves others of its
    size pending: under the ascending order the rest are priced out, under
    the descending order they do not fit.  The size's next most eligible
    entry must then stand for it, also once a later arrival outranks it
    and while another size holds eligible entries."""
    specs = [
        (1, 4, 1.05), (1, 4, 1.5), (1, 4, 3.0), (1, 4, 1.0),
        (1, 7, 2.0), (1, 7, 1.2), (2, 4, 5.0), (2, 7, 1.02),
        (3, 4, 1.3), (4, 7, 6.0), (4, 4, 1.01), (6, 4, 2.5),
    ]
    txs = [
        Transaction(id=i, arrival=t, size=(q,), unit_value=v)
        for i, (t, q, v) in enumerate(specs)
    ]
    scn = Scenario(txs)
    params = [MechanismParams(B=6.0, c=1.5, eta=0.5, p_min=1.0, p_1=1.1)]
    _run, events = run_against_rescanning(scn, params, policy, 16)
    assert len(events["best_left"]) >= 2


@st.composite
def greedy_cases(draw):
    """Static one-resource streams with tied values, every sensitivity, now
    and then an oversized transaction, uncapped or capped blocks.  With
    B = 100 the caps 0.29 * B and 1.15 * B round just below 29 and 115,
    which sizes sum to and only the fit tolerance admits."""
    B = draw(st.sampled_from([10, 100]))
    quantity = st.sampled_from([q for q in (1, 2, 5, 14, 15, 29, 54, 61, 100) if q <= B])
    horizon = draw(st.integers(1, 12))
    value = st.sampled_from([0.0, 0.5, 1.0, 1.2, 2.0, 1.0 / 3.0, 40.0])
    sensitivity = st.one_of(
        st.just(PATIENT),
        st.builds(Discount, st.sampled_from([0.05, 0.3])),
        st.builds(Patience, st.integers(0, 3)),
    )
    txs = []
    for i in range(draw(st.integers(0, 20))):
        size = B + 1 if draw(st.integers(0, 49)) == 0 else draw(quantity)
        txs.append(
            Transaction(
                id=i,
                arrival=draw(st.integers(1, horizon)),
                size=(size,),
                unit_value=draw(value),
                sensitivity=draw(sensitivity),
            )
        )
    cap = draw(st.sampled_from([None, None, 0.29 * B, 1.15 * B, 1.5 * B, 2.0 * B]))
    scn = Scenario(txs)
    return scn, float(B), horizon + draw(st.integers(0, 4)), cap


@given(greedy_cases())
@settings(max_examples=200, deadline=None)
def test_greedy_matches_resorting_greedy(case):
    scn, B, horizon, cap = case
    try:
        trace, schedule = reference_greedy_online(scn, B, horizon, cap)
    except OversizedTransactionError:
        with pytest.raises(OversizedTransactionError):
            greedy_online(scn, B, horizon, max_block=cap)
        return
    run = greedy_online(scn, B, horizon, max_block=cap)
    assert run.trace.records == trace.records
    assert [bits(r.cumulative_welfare) for r in run.trace.records] == [
        bits(r.cumulative_welfare) for r in trace.records
    ]
    assert run.schedule == schedule


@st.composite
def block_cases(draw):
    """Eligible sets for one block: tie-heavy values, sizes around and above
    non-integer caps, up to four resources, every inclusion policy with
    the tips of ``tip_policies``, shuffled or in pool order.  The sizes
    sometimes come from a small shared set, so that many transactions
    repeat one size."""
    m = draw(st.sampled_from([1, 1, 2, 3, 4]))
    caps = tuple(
        draw(st.sampled_from([1.15 * 100, 0.29 * 100, 100.0, 61.0, 7.5, 0.5, 1.0]))
        for _ in range(m)
    )
    value = st.sampled_from([0.0, 1.0, 2.0, 2.0, 1.0 / 3.0, *_TIED_VALUES])
    quantity = st.sampled_from([1, 2, 14, 15, 29, 54, 61, 100, 115, 130])
    vector = st.tuples(quantity, *[st.one_of(st.just(0), quantity)] * (m - 1))
    if draw(st.booleans()):
        vector = st.sampled_from(draw(st.lists(vector, min_size=1, max_size=3)))
    txs = []
    for i in range(draw(st.integers(0, 30))):
        txs.append(Transaction(id=i, arrival=1, size=draw(vector), unit_value=draw(value)))
    policy = draw(
        st.one_of(
            st.sampled_from([ValueAscending(), ValueDescending(), SeededRandom()]),
            tip_policies(30),
        )
    )
    if draw(st.booleans()):
        txs = draw(st.permutations(txs))
    else:
        descending = isinstance(policy, ValueDescending)
        txs.sort(key=lambda t: _pool_entry(t, descending, None)[:3])
    return txs, caps, policy, draw(st.integers(0, 3))


@given(block_cases())
@settings(max_examples=400, deadline=None)
def test_select_block_matches_reference(case):
    txs, caps, policy, seed = case
    shuffled = isinstance(policy, SeededRandom)
    got = select_block(txs, caps, policy, block_rng(seed, 7) if shuffled else None)
    want = reference_select_block(txs, caps, policy, block_rng(seed, 7) if shuffled else None)
    assert got == want


ALL_POLICIES = [ValueAscending(), ValueDescending(), SeededRandom(), TipPriority({})]


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("m", [1, 2])
def test_select_block_rejects_repeated_id(policy, m):
    """The returned ids could not say which copy of a repeated id was
    admitted, so select_block rejects the input, as the engine does."""
    txs = [
        Transaction(id=i, arrival=1, size=(q,) * m, unit_value=v)
        for i, q, v in [(4, 1, 1.0), (2, 3, 2.0), (4, 2, 1.0)]
    ]
    with pytest.raises(ValueError, match="duplicate transaction id 4"):
        select_block(txs, (10.0,) * m, policy, block_rng(3, 7))


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_select_block_matches_reference_where_it_once_diverged(policy):
    """Three copies of id 0 once came out [0, 0] under the tip order and [0]
    under the random one, where the reference scan took [0] and [0, 0]: the
    value pre-sort and the rank that stood in for the id decided between the
    copies.  Repeated ids are now rejected; with the ids made distinct,
    select_block agrees with the reference."""
    specs = [(6, 3.0), (3, 2.0), (3, 1.0)]
    same = [Transaction(id=0, arrival=1, size=(q,), unit_value=v) for q, v in specs]
    with pytest.raises(ValueError, match="duplicate transaction id 0"):
        select_block(same, (6.0,), policy, block_rng(3, 7))
    for ids in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        txs = [
            Transaction(id=i, arrival=1, size=t.size, unit_value=t.unit_value)
            for i, t in zip(ids, same)
        ]
        got = select_block(txs, (6.0,), policy, block_rng(3, 7))
        assert got == reference_select_block(txs, (6.0,), policy, block_rng(3, 7))


@pytest.mark.parametrize("sizes", [[1], [1, 2]])
@pytest.mark.parametrize(
    "policy", [ValueAscending(), ValueDescending(), TipPriority({i: i % 3 for i in range(40)})]
)
def test_full_block_stops_below_one(policy, sizes):
    """The cap 0.29 * 100 rounds just below 29, so the residual can end just
    below 1, where the fit tolerance would still pass a size-1 unit: the
    block is full there.  Both the merge of several size runs and the loop
    over the last run must stop, under the value orders and the tip order."""
    txs = [
        Transaction(id=i, arrival=1, size=(sizes[i % len(sizes)],), unit_value=1.0 + i % 3)
        for i in range(40)
    ]
    cap = (0.29 * 100,)
    got = select_block(txs, cap, policy)
    assert got == reference_select_block(txs, cap, policy)


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 2.0, 1.7976931348623157e308, *_TIED_VALUES]),
            st.floats(0.0, 1e308),
        ),
        max_size=30,
    ),
    st.sampled_from([ValueAscending(), ValueDescending()]),
)
@settings(max_examples=300, deadline=None)
def test_pool_order_is_value_policy_order(values, policy):
    """The engine fills a one-resource value-order block straight from its
    pool slice, so the pool key must sort into the policy's own order: the
    reference's admission order under an unbounded capacity."""
    txs = [Transaction(id=i, arrival=1, size=(1,), unit_value=v) for i, v in enumerate(values)]
    descending = isinstance(policy, ValueDescending)
    pool = sorted(txs, key=lambda t: _pool_entry(t, descending, None)[:3])
    assert [t.id for t in pool] == reference_select_block(txs, (math.inf,), policy)


# Floats at the edges of the format: zero, the smallest subnormal, the
# smallest normal, near the largest finite value, and the non-finite ones.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
NON_FINITE = [math.inf, -math.inf, math.nan]
finite = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
any_float = st.one_of(finite, st.sampled_from(NON_FINITE))
unit_values = st.one_of(
    st.sampled_from([v for v in EDGE_FLOATS if v >= 0.0]),
    st.floats(0.0, 1e308),
    st.integers(0, 10**6),  # an int value is written as json writes an int
)
sensitivities = st.one_of(
    st.just(PATIENT),
    st.builds(Discount, rho=st.floats(0.0, 0.99)),
    st.builds(Patience, window=st.integers(0, 50)),
)
# Bools pass as sizes and arrivals; the writer writes them as the ints they
# equal, since the reader rejects true and false as integers.
size_entries = st.one_of(st.integers(0, 2**70), st.booleans())


@st.composite
def scenarios(draw, patient_share=None):
    m = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
    txs = []
    for i in ids:
        size = draw(st.lists(size_entries, min_size=m, max_size=m))
        if not any(size):
            size[0] = 1
        txs.append(
            Transaction(
                id=i,
                arrival=draw(st.one_of(st.integers(1, 10**6), st.just(True))),
                size=tuple(size),
                unit_value=draw(unit_values),
                sensitivity=draw(sensitivities),
            )
        )
    return Scenario(txs, m=m)


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_scenario_writer_matches_json_dumps(scn):
    assert scenario_to_jsonl(scn) == reference_scenario_to_jsonl(scn)


@st.composite
def traces(draw):
    m = draw(st.sampled_from([1, 1, 2, 3]))
    records = []
    for t in range(1, draw(st.integers(0, 6)) + 1):
        executed = tuple(
            (draw(st.one_of(st.integers(0, 2**40), st.booleans())), draw(any_float))
            for _ in range(draw(st.integers(0, 4)))
        )
        records.append(
            BlockRecord(
                time=t,
                log_prices=tuple(
                    draw(st.one_of(st.floats(-800.0, 709.0), st.sampled_from([-math.inf, math.nan])))
                    for _ in range(m)
                ),
                capacities=tuple(draw(st.one_of(any_float, st.integers(0, 10**6))) for _ in range(m)),
                executed=executed,
                sizes=tuple(draw(st.one_of(any_float, st.integers(0, 10**6))) for _ in range(m)),
                cumulative_welfare=draw(any_float),
            )
        )
    return RunTrace(records)


@given(traces())
@settings(max_examples=200, deadline=None)
def test_trace_writer_matches_json_dumps(trace):
    assert trace_to_jsonl(trace) == reference_trace_to_jsonl(trace)


@st.composite
def schedules(draw):
    entries = [
        ScheduleEntry(
            draw(st.one_of(st.integers(0, 2**40), st.booleans())),
            draw(st.integers(1, 10**6)),
            draw(st.one_of(any_float, st.integers(0, 1))),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    return Schedule(entries, integral=draw(st.one_of(st.booleans(), st.integers(0, 1))))


@given(schedules())
@settings(max_examples=200, deadline=None)
def test_schedule_writer_matches_json_dumps(schedule):
    assert schedule_to_json(schedule) == reference_schedule_to_json(schedule)


@given(
    scenarios(),
    schedules().filter(
        lambda s: type(s.integral) is bool and all(math.isfinite(e.fraction) for e in s.entries)
    ),
)
@settings(max_examples=150, deadline=None)
def test_scenario_and_schedule_round_trip(scn, schedule):
    back = scenario_from_jsonl(scenario_to_jsonl(scn))
    assert back.m == scn.m
    assert back.transactions == scn.transactions
    assert schedule_from_json(schedule_to_json(schedule)) == schedule


def test_template_taken_only_for_exact_types(monkeypatch):
    """Lines whose fields all have their exact types skip json.dumps; the
    others fall back to it."""
    calls = []

    def dumps(obj):
        calls.append(obj)
        return json.dumps(obj)

    monkeypatch.setattr(core, "json", SimpleNamespace(dumps=dumps, loads=json.loads))
    patient = Transaction(3, 1, (7,), 2.5)
    scn = Scenario([patient])
    assert scenario_to_jsonl(scn).splitlines()[1] == (
        '{"t": 1, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}'
    )
    assert len(calls) == 1  # the header
    for odd in (
        Transaction(4, 1, (7,), 2.5, Discount(0.5)),
        Transaction(4, 1, (7, 1), 2.5),
        Transaction(4, 1, (True,), 2.5),
        Transaction(4, 1, (7,), 2),
    ):
        calls.clear()
        scenario_to_jsonl(Scenario([odd], m=len(odd.size)))
        assert len(calls) == 2
    calls.clear()
    record = BlockRecord(1, (0.0,), (300.0,), ((3, 1.0),), (7.0,), 17.5)
    assert trace_to_jsonl(RunTrace([record])) == (
        '{"t": 1, "p": 1.0, "B_t": 300.0, "executed": [{"id": 3, "frac": 1.0}], '
        '"Q": 7.0, "cum_welfare": 17.5}\n'
    )
    assert schedule_to_json(Schedule([ScheduleEntry(3, 1, 1.0)], integral=True)) == (
        '{"integral": true, "entries": [{"id": 3, "t": 1, "frac": 1.0}]}'
    )
    assert calls == []
    for odd in (
        BlockRecord(1, (0.0,), (300.0,), ((True, 1.0),), (7.0,), 17.5),
        BlockRecord(1, (0.0,), (300.0,), ((3, 1),), (7.0,), 17.5),
        BlockRecord(1, (0.0,), (300,), ((3, 1.0),), (7.0,), 17.5),
        BlockRecord(1, (0.0,), (300.0,), ((3, 1.0),), (7.0,), math.inf),
        BlockRecord(1, (0.0, 0.0), (300.0, 300.0), ((3, 1.0),), (7.0, 1.0), 17.5),
    ):
        calls.clear()
        assert trace_to_jsonl(RunTrace([odd])) == reference_trace_to_jsonl(RunTrace([odd]))
        assert len(calls) == 1


# Replacement field values for the reader tests: integral, fractional and
# out-of-range numbers, numeric and other strings, nulls, bools, lists,
# objects and non-finite numbers.
ODD_VALUES = [
    0, 1, -1, 5.0, 0.7, 1.7, 2**70, 10**400, 1e300, "5", "1.5", "x", None, True, False, [],
    [5], [5.9], [5.0], [0], [0, 0], [1, 2], [-1], [True], [False], ["100"], {}, "patient",
    {"kind": "patient"}, {"kind": "patient", "extra": 1}, {"kind": "discount", "rho": 0.5},
    {"kind": "discount", "rho": 1.5}, {"kind": "discount", "rho": "0.5"},
    {"kind": "discount", "rho": False}, {"kind": "patience", "p": 3},
    {"kind": "patience", "p": 2.5}, {"kind": "patience", "p": -1}, {"kind": "nope"},
    math.nan, math.inf, -math.inf,
]
ODD_LINES = ["[1, 2]", '"x"', "null", "5", "{", '{"t": 1', "{}", "\u3000", "  "]


def outcome(read, text, describe):
    """What ``read`` makes of ``text``: ``describe`` of its result, or its
    error's type and message."""
    try:
        result = read(text)
    except Exception as exc:  # compared below, not swallowed
        return type(exc), str(exc)
    return describe(result)


def describe_scenario(scn):
    return (
        scn.m,
        [
            (t.id, t.arrival, t.size, tuple(map(type, t.size)), bits(t.unit_value), t.sensitivity)
            for t in scn.transactions
        ],
    )


@st.composite
def mutated_scenario_texts(draw):
    scn = Scenario(
        transactions=[
            Transaction(i, 1 + i % 3, (1 + i,), 0.5 + i, draw(sensitivities)) for i in range(4)
        ],
    )
    lines = reference_scenario_to_jsonl(scn).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "\t"])))
    row = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.strip()]))
    obj = json.loads(lines[row])
    how = draw(st.sampled_from(["set", "delete", "line"]))
    if how == "line":
        lines[row] = draw(st.sampled_from(ODD_LINES))
    else:
        key = draw(st.sampled_from(sorted(obj)))
        if how == "delete":
            del obj[key]
        else:
            obj[key] = draw(st.sampled_from(ODD_VALUES))
        lines[row] = json.dumps(obj)
    return "\n".join(lines) + "\n"


@given(mutated_scenario_texts())
@settings(max_examples=600, deadline=None)
def test_scenario_reader_matches_per_line_reference(text):
    got = outcome(scenario_from_jsonl, text, describe_scenario)
    assert got == outcome(reference_scenario_from_jsonl, text, describe_scenario)
    if isinstance(got[0], type):
        assert got[0] is ScenarioError, got


def test_scenario_reader_counts_blank_lines():
    text = '{"m": 1}\n\n   \n{"t": 1, "id": 0.7, "q": [5], "v": 1.0}\n'
    for read in (scenario_from_jsonl, reference_scenario_from_jsonl):
        with pytest.raises(ScenarioError, match=r"^line 4: bad event record \(t, id and q"):
            read(text)


def template_line(t="2", i="3", q="7", v="2.5"):
    """An event line in the form the scenario writer's f-string emits."""
    return f'{{"t": {t}, "id": {i}, "q": [{q}], "v": {v}, "sens": {{"kind": "patient"}}}}'


def template_text(*lines):
    """A scenario text with ``lines`` between two template lines."""
    return "\n".join(
        ['{"m": 1}', template_line(i="0"), *lines, template_line(i="9")]
    ) + "\n"


# Number tokens for the template's fields: non-ASCII digits (int() reads
# them, json does not), leading zeros, signs, incomplete fractions, bare
# integers, digits past int()'s limit and past the float range, exponents in
# either case, underscores (int() and float() read them, json does not).
NUMBER_TOKENS = [
    "\u0663", "1\u0663", "\uff11", "\u0660.5", "1\u0663.5", "1.\u0665", "1e\u0665",
    "0", "00", "07", "-0", "-3", "+3", "0.0", "-0.0", "-1.5", "00.5", "-",
    "1.", ".5", "1.e5", "5", "2", "1e400", "-1e400", "1" + "0" * 400, "1" + "0" * 400 + ".0",
    "1E+5", "1e-5", "1e5", "2.5E-3", "5e-324", "1e+", "1_0", "1_0.5", "1.0_0", "1e1_0",
    "1" * 4301, "2" * 4302, "NaN", "Infinity", "-Infinity", "true", "null", '"5"', "[5]",
    "5 ", " 5", "5\t", "0x10",
]
# Whole-line mutations: extra and missing spaces, swapped keys, duplicate
# keys, trailing and embedded line breaks and other whitespace.
LINE_MUTATIONS = [
    '{"t":  2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2,  "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [ 7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"} }',
    '{"t":2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind":"patient"}}',
    '{"t": 2,"id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"id": 3, "t": 2, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "sens": {"kind": "patient"}, "v": 2.5}',
    '{"t": 2, "t": 4, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}, "id": 4}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient", "kind": "nope"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}\r',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}\r\n',
    '{"t": 2, "id": 3, "q": [7],\r "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}\x85',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}} ',
    ' {"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}\t',
    '{"t": 2, "id": 3, "q": [7, 0], "v": 2.5, "sens": {"kind": "patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "patient"}}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5, "sens": {"kind": "Patient"}}',
    '{"t": 2, "id": 3, "q": [7], "v": 2.5}',
]


def test_template_mutations_match_per_line_reference():
    """Every number token in every field of a template line, and every
    whole-line mutation, reads as the json.loads reference reads it: the
    same records, or the same error type and message."""
    texts = [
        template_text(template_line(**{field: token}))
        for field in ("t", "i", "q", "v")
        for token in NUMBER_TOKENS
    ]
    texts += [template_text(line) for line in LINE_MUTATIONS]
    # Two over-long fields: the error names the first in line order.
    texts.append(template_text(template_line(t="1" * 4301, i="2" * 4302)))
    for text in texts:
        got = outcome(scenario_from_jsonl, text, describe_scenario)
        assert got == outcome(reference_scenario_from_jsonl, text, describe_scenario), text[:200]
    # A bare 400-digit v is an int too large for a float; with ".0" it is a
    # float that overflows to inf.
    for v, message in (("1" + "0" * 400, "v is out of range"), ("1e400", "unit value must be finite")):
        with pytest.raises(ScenarioError, match=f"^line 3: bad event record \\(.*{message}"):
            scenario_from_jsonl(template_text(template_line(v=v)))


template_tokens = st.one_of(
    st.integers(0, 10**20).map(str),
    st.floats(0.0, 1e308).map(repr),
    st.sampled_from(NUMBER_TOKENS),
)


@st.composite
def edited_template_texts(draw):
    """A template line with drawn field tokens and up to three character
    edits: an insertion, a deletion or a replacement at a drawn position."""
    line = template_line(*(draw(template_tokens) for _ in range(4)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(list(' \t\r-+._eE0159\u0663"{}[],:')))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert":
            line = line[:pos] + char + line[pos:]
        else:
            line = line[:pos] + (char if how == "replace" else "") + line[pos + 1 :]
    return template_text(line)


@given(edited_template_texts())
@settings(max_examples=600, deadline=None)
def test_edited_template_lines_match_per_line_reference(text):
    got = outcome(scenario_from_jsonl, text, describe_scenario)
    assert got == outcome(reference_scenario_from_jsonl, text, describe_scenario)


def counting_json(calls):
    """A stand-in for core's json module that records each loads call."""

    def loads(text):
        calls.append(text)
        return json.loads(text)

    return SimpleNamespace(dumps=json.dumps, loads=loads)


@st.composite
def template_scenarios(draw):
    """Scenarios whose every event line the writer emits from its template:
    one resource, exact int fields, a finite float value, patient."""
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n, unique=True))
    txs = [
        Transaction(
            i,
            draw(st.integers(1, 2**70)),
            (draw(st.integers(1, 2**70)),),
            draw(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 1e308))),
        )
        for i in ids
    ]
    return Scenario(txs)


@given(template_scenarios())
@settings(max_examples=200, deadline=None)
def test_template_lines_read_without_json_loads(scn):
    """The reader parses every line the writer's template emits without
    json.loads; only the header goes through it."""
    calls = []
    text = scenario_to_jsonl(scn)
    with mock.patch.object(core, "json", counting_json(calls)):
        got = describe_scenario(scenario_from_jsonl(text))
    assert calls == text.splitlines()[:1]
    assert got == describe_scenario(reference_scenario_from_jsonl(text))


def test_other_lines_read_with_json_loads(monkeypatch):
    """Each line the writer emits through json.dumps is read through
    json.loads, as is each line the template pattern leaves out."""
    calls = []
    monkeypatch.setattr(core, "json", counting_json(calls))
    for odd in (
        Transaction(4, 1, (7,), 2.5, Discount(0.5)),
        Transaction(4, 1, (7,), 2.5, Patience(3)),
        Transaction(4, 1, (7, 1), 2.5),
        Transaction(4, 1, (7,), 2),
    ):
        calls.clear()
        scenario_from_jsonl(
            scenario_to_jsonl(Scenario([odd], m=len(odd.size)))
        )
        assert len(calls) == 2
    # A bool size or arrival is written as the int it equals, which is the
    # template's form, so only the header goes through json.loads.
    for odd in (Transaction(4, 1, (True,), 2.5), Transaction(4, True, (7,), 2.5)):
        calls.clear()
        scn = Scenario([odd])
        assert scenario_from_jsonl(scenario_to_jsonl(scn)) == scn
        assert len(calls) == 1
    for line in ("", "  ", template_line(v="5"), template_line(i="07"), LINE_MUTATIONS[0]):
        calls.clear()
        outcome(scenario_from_jsonl, template_text(line), describe_scenario)
        assert len(calls) == 1 + bool(line.strip())


@st.composite
def mutated_schedule_texts(draw):
    entries = [{"id": i, "t": 1 + i, "frac": 1.0 / (1 + i)} for i in range(draw(st.integers(1, 4)))]
    obj = {"integral": False, "entries": entries}
    how = draw(st.sampled_from(["integral", "set", "delete"]))
    if how == "integral":
        obj["integral"] = draw(st.sampled_from(ODD_VALUES))
    else:
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(["id", "t", "frac"]))
        if how == "delete":
            del entry[key]
        else:
            entry[key] = draw(st.sampled_from(ODD_VALUES))
    return json.dumps(obj)


@given(mutated_schedule_texts())
@settings(max_examples=400, deadline=None)
def test_schedule_reader_matches_reference(text):
    def describe(s):
        return s.integral, [(e.tx, e.time, type(e.tx), type(e.time), bits(e.fraction)) for e in s.entries]

    got = outcome(schedule_from_json, text, describe)
    assert got == outcome(reference_schedule_from_json, text, describe)
    if isinstance(got[0], type):
        assert got[0] is InvalidScheduleError, got
