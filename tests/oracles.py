"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's algorithms: the fractional optimum is
found by exhaustive enumeration over integer unit assignments (exact because
the feasible region's constraint matrix has consecutive ones, so it is
totally unimodular and an integer optimum exists), knapsacks by subset
enumeration, and window checks by direct enumeration of all windows.

The last four oracles are the direct forms of the library's fast paths:
the all-windows block-size check, the threshold-integral identity with one
full scan per distinct value, block assembly that sorts by tuple keys and
fit-tests every eligible transaction, and a price engine that rescans its
whole pending pool every block.  The fast paths must match them bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from feemarket.adversary import (
    SeededRandom,
    TipPriority,
    ValueAscending,
    ValueDescending,
    block_rng,
)
from feemarket.core import LOG_EPS, BlockRecord, RunTrace, Scenario, Schedule
from feemarket.mechanisms import eip_next_price


def brute_force_welfare(schedule: Schedule, scenario: Scenario, horizon: int) -> float:
    """Plain sum over entries; the independent definition of welfare."""
    index = {t.id: t for t in scenario.transactions}
    total = 0.0
    for e in schedule.entries:
        if e.time <= horizon:
            t = index[e.tx]
            total += e.fraction * t.size[0] * t.value_at(e.time)
    return total


def brute_fractional_opt(scenario: Scenario, B: int, horizon: int) -> float:
    """Exhaustive fractional optimum with per-block cap B.

    Enumerates integer unit amounts y_i in [0, q_i] per transaction (an
    integer optimum exists; see module docstring) and checks feasibility of
    serving y with release times via the tail condition: for every arrival
    time tau, the total committed units of transactions arriving at or after
    tau must fit in the blocks tau..horizon.
    """
    txs = [t for t in scenario.transactions if t.arrival <= horizon]
    arrivals = sorted({t.arrival for t in txs})

    def feasible(y: Sequence[int]) -> bool:
        for tau in arrivals:
            tail = sum(
                yi for yi, t in zip(y, txs) if t.arrival >= tau
            )
            if tail > B * (horizon - tau + 1):
                return False
        return True

    best = 0.0
    for y in itertools.product(*[range(t.size[0] + 1) for t in txs]):
        if feasible(y):
            val = sum(yi * t.unit_value for yi, t in zip(y, txs))
            best = max(best, val)
    return best


def brute_knapsack(sizes: Sequence[int], unit_values: Sequence[float], cap: float) -> float:
    """Single-block optimum by subset enumeration (<= ~20 items)."""
    n = len(sizes)
    best = 0.0
    for mask in range(1 << n):
        tot = 0
        val = 0.0
        for i in range(n):
            if mask >> i & 1:
                tot += sizes[i]
                val += sizes[i] * unit_values[i]
        if tot <= cap:
            best = max(best, val)
    return best


def brute_window_check(
    sizes_by_time: dict[int, float], B: float, delta: float, lo: int, hi: int
) -> list[tuple[int, int]]:
    """All violating windows [t0, t1] within [lo, hi], by direct enumeration."""
    bad = []
    for t0 in range(lo, hi + 1):
        for t1 in range(t0, hi + 1):
            k = t1 - t0 + 1
            total = sum(sizes_by_time.get(t, 0.0) for t in range(t0, t1 + 1))
            if total > (k + delta) * B * (1 + 1e-9):
                bad.append((t0, t1))
    return bad


def brute_threshold_quantity(
    schedule: Schedule, scenario: Scenario, theta: float, lo: int, hi: int
) -> float:
    index = {t.id: t for t in scenario.transactions}
    return sum(
        e.fraction * index[e.tx].size[0]
        for e in schedule.entries
        if lo <= e.time <= hi and index[e.tx].unit_value >= theta
    )


def all_windows_block_check(
    schedule: Schedule, scenario: Scenario, B: float | Sequence[float], delta: float
) -> tuple[bool, list[tuple[int, int, int, float, float]], float]:
    """The average-block-size check over all O(n^2) windows of the support.

    Returns (passed, violations, max_slackness); a violation is
    (resource, start, end, total, bound), listed by resource, then window
    length, then start.  Window totals are differences of sequential prefix
    sums, as in the library.
    """
    index = {t.id: t for t in scenario.transactions}
    m = scenario.m
    targets = (
        tuple(float(b) for b in B) if isinstance(B, (list, tuple)) else (float(B),) * m
    )
    sizes: dict[int, list[float]] = {}
    for e in schedule.entries:
        row = sizes.setdefault(e.time, [0.0] * m)
        for j in range(m):
            row[j] += e.fraction * index[e.tx].size[j]
    if not sizes:
        return True, [], 0.0
    lo, hi = min(sizes), max(sizes)
    n = hi - lo + 1
    violations = []
    max_slack = 0.0
    for j in range(m):
        psum = [0.0]
        for t in range(lo, hi + 1):
            psum.append(psum[-1] + sizes.get(t, [0.0] * m)[j])
        for k in range(1, n + 1):
            sums = [psum[i + k] - psum[i] for i in range(n - k + 1)]
            max_slack = max(max_slack, max(sums) / targets[j] - k)
            bound = (k + delta) * targets[j]
            for i, total in enumerate(sums):
                if total > bound * (1.0 + 1e-9):
                    violations.append((j, lo + i, lo + i + k - 1, total, bound))
    return not violations, violations, max_slack


def per_value_identity(schedule: Schedule, scenario: Scenario, horizon: int) -> float:
    """Welfare as the area under the threshold-quantity curve, with one full
    scan of the schedule per distinct value (O(k * n))."""
    index = {t.id: t for t in scenario.transactions}
    values = sorted(
        {
            index[e.tx].unit_value
            for e in schedule.entries
            if e.time <= horizon and index[e.tx].unit_value > 0.0
        },
        reverse=True,
    )
    terms = []
    for j, v in enumerate(values):
        nxt = values[j + 1] if j + 1 < len(values) else 0.0
        quantity = math.fsum(
            e.fraction * index[e.tx].q
            for e in schedule.entries
            if 1 <= e.time <= horizon and index[e.tx].unit_value >= v
        )
        terms.append((v - nxt) * quantity)
    return math.fsum(terms)


def reference_select_block(eligible, capacity, policy, rng=None) -> list[int]:
    """Block assembly by one scan in policy order: sort by a tuple key, then
    fit-test every transaction until every residual drops below 1."""
    if isinstance(policy, ValueAscending):
        order = sorted(eligible, key=lambda t: (t.unit_value, t.id))
    elif isinstance(policy, ValueDescending):
        order = sorted(eligible, key=lambda t: (-t.unit_value, t.id))
    elif isinstance(policy, TipPriority):
        tips = policy.tips
        order = sorted(eligible, key=lambda t: (-tips.get(t.id, 0.0), t.id))
    elif isinstance(policy, SeededRandom):
        if rng is None:
            raise ValueError("SeededRandom policy requires a block RNG")
        order = sorted(eligible, key=lambda t: t.id)
        rng.shuffle(order)
    else:
        raise TypeError(f"unknown inclusion policy {policy!r}")
    residual = [float(c) for c in capacity]
    m = len(residual)
    chosen: list[int] = []
    if max(residual) < 1.0:
        return chosen
    for t in order:
        size = t.size
        if len(size) != m:
            raise ValueError(f"tx {t.id} has {len(size)} resources, capacity has {m}")
        if all(size[j] <= residual[j] + 1e-9 for j in range(m)):
            for j in range(m):
                residual[j] -= size[j]
            chosen.append(t.id)
            if max(residual) < 1.0:
                break
    return chosen


def rescanning_engine(scenario: Scenario, params_list, policy, horizon: int) -> RunTrace:
    """The price-posting engine on a static scenario, rescanning the whole
    pending pool for eligible transactions every block."""
    m = scenario.m
    caps = tuple(p.c * p.B for p in params_list)
    log_prices = [math.log(p.p_1) for p in params_list]
    aware = params_list[0].discounted_eligibility
    pool = []
    records = []
    cum = 0.0
    for t in range(1, horizon + 1):
        pool += [txn for txn in scenario.transactions if txn.arrival == t]
        prices = [math.exp(lp) for lp in log_prices]
        eligible = []
        for txn in pool:
            val = txn.value_at(t) if aware else txn.unit_value
            if m == 1:
                ok = val > 0.0 and math.log(val) >= log_prices[0] - LOG_EPS
            else:
                cost = 0.0
                for j in range(m):
                    cost += prices[j] * txn.size[j]
                ok = val * txn.size[0] >= cost * (1.0 - LOG_EPS)
            if ok:
                eligible.append(txn)
        rng = block_rng(scenario.seed, t) if isinstance(policy, SeededRandom) else None
        chosen = reference_select_block(eligible, caps, policy, rng)
        chosen_ids = set(chosen)
        done = {txn.id: txn for txn in pool if txn.id in chosen_ids}
        pool = [txn for txn in pool if txn.id not in done]
        sizes = [0.0] * m
        for cid in chosen:
            for j in range(m):
                sizes[j] += done[cid].size[j]
        cum += math.fsum(done[cid].q * done[cid].value_at(t) for cid in chosen)
        records.append(
            BlockRecord(
                time=t,
                log_prices=tuple(log_prices),
                capacities=caps,
                executed=tuple((cid, 1.0) for cid in chosen),
                sizes=tuple(sizes),
                cumulative_welfare=cum,
            )
        )
        for j in range(m):
            log_prices[j] = eip_next_price(params_list[j], log_prices[j], sizes[j])
    return RunTrace(records)
