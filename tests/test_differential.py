"""The fast paths against their direct forms in ``oracles``, bit for bit:
the O(n) window check, the O(n log n) welfare identity, block assembly and
the engine's bisected pending pool."""

import math

from hypothesis import given, settings, strategies as st

from feemarket import (
    PATIENT,
    Discount,
    MechanismParams,
    Patience,
    Scenario,
    Schedule,
    ScheduleEntry,
    TipPriority,
    Transaction,
    ValueAscending,
    ValueDescending,
    check_avg_block_size,
    multi_resource_mechanism,
    welfare_via_threshold_integral,
)
from feemarket.adversary import SeededRandom, block_rng, select_block
from feemarket.mechanisms import _pool_key

from oracles import (
    all_windows_block_check,
    per_value_identity,
    reference_select_block,
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
    scn = Scenario(capacities=tuple(targets), transactions=txs)
    B = targets if m > 1 else targets[0]
    return scn, Schedule(entries), B


@given(
    block_schedules(),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5]), st.floats(-1.0, 3.0)),
)
@settings(max_examples=200, deadline=None)
def test_window_check_matches_all_windows(case, delta):
    scn, sched, B = case
    report = check_avg_block_size(sched, scn, B, delta)
    passed, violations, max_slack = all_windows_block_check(sched, scn, B, delta)
    assert report.passed == passed
    assert [
        (v.resource, v.start, v.end, bits(v.total), bits(v.bound)) for v in report.violations
    ] == [(j, s, e, bits(total), bits(bound)) for j, s, e, total, bound in violations]
    assert bits(report.max_slackness) == bits(max_slack)


def test_max_slackness_needs_its_rounding_band():
    # The window of the float maximum is not the window of the largest float
    # running-minimum gap here; only the band around that gap finds it.
    sizes = [3, 10, 10, 1, 10, 7, 33, 3, 33, 3, 3]
    placed = [(1, 1 / 3), (2, 1 / 3), (2, 0.1), (3, 1 / 3), (4, 0.1561917472876797),
              (4, 0.1), (4, 1 / 3), (5, 1.0), (5, 0.1), (6, 1.0), (6, 0.1)]
    scn = Scenario(
        capacities=(3.3,),
        transactions=[Transaction(id=i, arrival=1, size=(q,), unit_value=1.0)
                      for i, q in enumerate(sizes)],
    )
    sched = Schedule([ScheduleEntry(i, t, f) for i, (t, f) in enumerate(placed)])
    want = all_windows_block_check(sched, scn, 3.3, 0.0)[2]
    assert bits(check_avg_block_size(sched, scn, 3.3, 0.0).max_slackness) == bits(want)


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
    return Scenario(capacities=(100.0,), transactions=txs), Schedule(entries), horizon


@given(patient_schedules())
@settings(max_examples=200, deadline=None)
def test_identity_matches_per_value_scan(case):
    scn, sched, horizon = case
    assert bits(welfare_via_threshold_integral(sched, scn, horizon)) == bits(
        per_value_identity(sched, scn, horizon)
    )


@st.composite
def engine_cases(draw):
    """Overloaded static streams: shared values, every sensitivity, one or
    three resources, every inclusion policy."""
    m = draw(st.sampled_from([1, 1, 3]))
    B = draw(st.sampled_from([10, 50]))
    horizon = draw(st.integers(1, 12))
    value = st.sampled_from([0.0, 1.0, 1.2, 2.0, 5.0, 40.0])
    sensitivity = st.one_of(
        st.just(PATIENT),
        st.builds(Discount, st.sampled_from([0.05, 0.3])),
        st.builds(Patience, st.integers(0, 3)),
    )
    txs = []
    for i in range(draw(st.integers(0, 40))):
        size = tuple(draw(st.integers(1 if j == 0 else 0, B)) for j in range(m))
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
    params = [
        MechanismParams(B=float(B), c=c, eta=0.125, p_min=1.0, p_1=1.0, discounted_eligibility=aware)
        for _ in range(m)
    ]
    policy = draw(
        st.sampled_from(
            [
                ValueAscending(),
                ValueDescending(),
                SeededRandom(),
                TipPriority({i: (i * 37 % 11) / 7.0 for i in range(40)}),
            ]
        )
    )
    scn = Scenario(capacities=(float(B),) * m, transactions=txs, seed=draw(st.integers(0, 5)))
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


# Adjacent floats whose logs are equal, so the engine's (ln v, id) pool
# order differs from (v, id) order on them.
_TIED_VALUES = [1e6, math.nextafter(1e6, math.inf), 12345.678, math.nextafter(12345.678, math.inf)]
assert math.log(_TIED_VALUES[0]) == math.log(_TIED_VALUES[1])


@st.composite
def block_cases(draw):
    """Eligible sets for one block: tie-heavy values, sizes around and above
    non-integer caps, up to four resources, shuffled or in pool order."""
    m = draw(st.sampled_from([1, 1, 2, 3, 4]))
    caps = tuple(
        draw(st.sampled_from([1.15 * 100, 0.29 * 100, 100.0, 61.0, 7.5, 0.5, 1.0]))
        for _ in range(m)
    )
    value = st.sampled_from([0.0, 1.0, 2.0, 2.0, 1.0 / 3.0, *_TIED_VALUES])
    quantity = st.sampled_from([1, 2, 14, 15, 29, 54, 61, 100, 115, 130])
    txs = []
    for i in range(draw(st.integers(0, 30))):
        extra = tuple(draw(st.one_of(st.just(0), quantity)) for _ in range(m - 1))
        txs.append(
            Transaction(id=i, arrival=1, size=(draw(quantity), *extra), unit_value=draw(value))
        )
    if draw(st.booleans()):
        txs = draw(st.permutations(txs))
    else:
        txs.sort(key=_pool_key)
    policy = draw(
        st.sampled_from(
            [
                ValueAscending(),
                ValueDescending(),
                SeededRandom(),
                TipPriority({i: (i * 37 % 11) / 7.0 for i in range(0, 30, 2)}),
            ]
        )
    )
    return txs, caps, policy, draw(st.integers(0, 3))


@given(block_cases())
@settings(max_examples=400, deadline=None)
def test_select_block_matches_reference(case):
    txs, caps, policy, seed = case
    shuffled = isinstance(policy, SeededRandom)
    got = select_block(txs, caps, policy, block_rng(seed, 7) if shuffled else None)
    want = reference_select_block(txs, caps, policy, block_rng(seed, 7) if shuffled else None)
    assert got == want
