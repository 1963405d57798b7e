"""Offline optima and dominance checkers.

``opt_fractional`` realizes the clairvoyant fractional benchmark with a
per-block cap: fill every block with the highest-value pending units,
splitting the marginal transaction.  For patient values an exchange argument
makes this welfare-optimal among all fractional schedules with that cap
(values never decay, so scheduling a lower-value unit while a higher-value
unit is pending is never beneficial).  ``opt_integral_small`` is an exact
integral solver for desk-scale oracle use, with hard input guards.

The two dominance checkers verify that a mechanism's schedule covers a
benchmark schedule: per value threshold (both quantity curves are step
functions of the threshold, so evaluating at the schedules' own value
breakpoints is exact and needs no quadrature) and in total welfare with the
``1 - e^{-eta}`` loss factor.  The benchmark's declared windowed-average
constraint is validated before any comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add, gt, mul

from .core import (
    REL_TOL,
    AdaptiveScenario,
    FeeMarketError,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    _block_prefix_sums,
    _per_resource,
    _suffix_sums,
    _window_violations,
    welfare,
)
from .mechanisms import greedy_online

__all__ = [
    "TooLargeError",
    "BenchmarkConstraintError",
    "opt_fractional",
    "opt_integral_small",
    "ThresholdViolation",
    "ThresholdReport",
    "WelfareReport",
    "check_threshold_dominance",
    "check_welfare_dominance",
    "greedy_dominance_check",
]


class TooLargeError(FeeMarketError):
    """Instance exceeds the exact solver's guards; use opt_fractional as an
    upper bound instead."""


class BenchmarkConstraintError(FeeMarketError):
    """The supplied benchmark schedule violates its declared size constraint."""


# ---------------------------------------------------------------------------
# Fractional optimum (per-block cap)
# ---------------------------------------------------------------------------


def opt_fractional(scenario: Scenario, B: float, horizon: int) -> Schedule:
    """Welfare-optimal fractional schedule with per-block cap ``B``.

    For t = 1..horizon, fills exactly min(B, pending size) with pending
    transactions in descending unit value (ties: earlier arrival, then
    smaller id), splitting the marginal transaction.  Remaining fractions
    stay pending.  Time sensitivities are ignored: this is the patient-value
    benchmark.  The heap carries each size, so no step reads the index, and
    only a split transaction keeps a remaining fraction.
    """
    if scenario.m != 1:
        raise ScenarioError("fractional benchmark requires a 1-resource scenario")
    if not 0 < B < math.inf:
        raise ValueError(f"cap must be positive and finite, got {B}")
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    import heapq

    by_time = scenario.arrivals_by_time()
    heap: list[tuple[float, int, int, int]] = []  # (-v, arrival, id, q); ids are distinct
    partial: dict[int, float] = {}  # the remaining fraction of a split transaction
    entries: list[ScheduleEntry] = []

    for t in range(1, horizon + 1):
        for txn in by_time.pop(t, ()):
            heapq.heappush(heap, (-txn.unit_value, txn.arrival, txn.id, txn.size[0]))
        residual = float(B)
        while heap and residual > 1e-12 * B:
            _negv, _arr, tid, q = heap[0]
            rem = partial.get(tid, 1.0)
            take = min(rem, residual / q)
            if take <= 0:
                heapq.heappop(heap)
                continue
            entries.append(ScheduleEntry(tx=tid, time=t, fraction=take))
            residual -= take * q
            rem -= take
            if rem <= 1e-12:
                partial.pop(tid, None)
                heapq.heappop(heap)
            else:
                partial[tid] = rem
                break  # block is full: the marginal split consumed the residual
    return Schedule(entries=entries, integral=False)


# ---------------------------------------------------------------------------
# Exact integral optimum for micro-instances
# ---------------------------------------------------------------------------

_MAX_TOTAL_SIZE = 10_000
_MAX_HORIZON = 12


def opt_integral_small(
    scenario: Scenario, B: float | Iterable[float], horizon: int
) -> Schedule:
    """Exact maximum-welfare integral schedule with per-block cap(s) ``B``.

    Branch-and-bound over per-block subsets with memoization on
    (block, multiset of pending transaction types); values are credited at
    execution time, so decaying sensitivities are handled exactly.  Guards:
    total size <= 10^4 and horizon <= 12, otherwise TooLargeError.  Ties
    break toward the lexicographically smallest scheduled id set.
    """
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > _MAX_HORIZON:
        raise TooLargeError(f"horizon {horizon} exceeds guard {_MAX_HORIZON}")
    txs = [t for t in scenario._index.values() if t.arrival <= horizon]
    total_size = sum(sum(t.size) for t in txs)
    if total_size > _MAX_TOTAL_SIZE:
        raise TooLargeError(f"total size {total_size} exceeds guard {_MAX_TOTAL_SIZE}")
    m = scenario.m
    caps = _per_resource(B, m)
    if len(caps) != m:
        raise ValueError(f"expected {m} caps, got {len(caps)}")
    if any(map(math.isnan, caps)):
        raise ValueError(f"B must not be NaN, got {B}")

    # Group interchangeable transactions into types; ids within a type are
    # consumed smallest-first, which realizes the lexicographic tie-break.
    type_key = lambda t: (t.arrival, t.size, t.unit_value, repr(t.sensitivity))
    groups: dict[tuple, list] = {}
    for t in txs:
        groups.setdefault(type_key(t), []).append(t)
    types = sorted(groups.values(), key=lambda g: min(x.id for x in g))
    for g in types:
        g.sort(key=lambda x: x.id)
    n_types = len(types)
    proto = [g[0] for g in types]

    def block_choices(
        t: int, avail: tuple[int, ...]
    ) -> list[tuple[tuple[int, ...], float]]:
        """All maximal feasible type-count vectors for one block, with value."""
        out: list[tuple[tuple[int, ...], float]] = []
        counts = [0] * n_types
        values = [
            proto[i].q * proto[i].value_at(t) if proto[i].arrival <= t else 0.0
            for i in range(n_types)
        ]

        def fits(i: int, used: list[float]) -> bool:
            return all(
                used[j] + proto[i].size[j] <= caps[j] + 1e-9 for j in range(m)
            )

        def rec(i: int, used: list[float], val: float) -> None:
            if i == n_types:
                # keep only maximal blocks: nothing available still fits
                for k in range(n_types):
                    if avail[k] > counts[k] and proto[k].arrival <= t and fits(k, used):
                        return
                out.append((tuple(counts), val))
                return
            if proto[i].arrival > t or avail[i] == 0:
                rec(i + 1, used, val)
                return
            max_c = avail[i]
            chosen = 0
            rec(i + 1, used, val)  # zero of this type
            new_used = list(used)
            while chosen < max_c:
                if not fits(i, new_used):
                    break
                for j in range(m):
                    new_used[j] += proto[i].size[j]
                chosen += 1
                counts[i] = chosen
                rec(i + 1, new_used, val + chosen * values[i])
            counts[i] = 0

        rec(0, [0.0] * m, 0.0)
        return out

    @lru_cache(maxsize=None)
    def best(t: int, avail: tuple[int, ...]) -> float:
        if t > horizon or not any(avail):
            return 0.0
        upper = sum(
            avail[i] * proto[i].q * proto[i].value_at(max(t, proto[i].arrival))
            for i in range(n_types)
            if proto[i].arrival <= horizon
        )
        if upper <= 0.0:
            return 0.0
        best_val = 0.0
        for counts, val in block_choices(t, avail):
            rest = tuple(avail[i] - counts[i] for i in range(n_types))
            best_val = max(best_val, val + best(t + 1, rest))
        return best_val

    # Reconstruct, preferring smaller id sets among ties.
    avail = tuple(len(g) for g in types)
    consumed = [0] * n_types
    entries: list[ScheduleEntry] = []
    for t in range(1, horizon + 1):
        target = best(t, avail)
        chosen_counts: tuple[int, ...] | None = None
        chosen_ids: list[int] | None = None
        for counts, val in block_choices(t, avail):
            rest = tuple(avail[i] - counts[i] for i in range(n_types))
            if abs(val + best(t + 1, rest) - target) <= 1e-9 * max(1.0, abs(target)):
                ids = []
                for i in range(n_types):
                    ids.extend(
                        x.id
                        for x in types[i][consumed[i] : consumed[i] + counts[i]]
                    )
                ids.sort()
                if chosen_ids is None or ids < chosen_ids:
                    chosen_ids = ids
                    chosen_counts = counts
        assert chosen_counts is not None
        for i in range(n_types):
            for k in range(chosen_counts[i]):
                entries.append(
                    ScheduleEntry(
                        tx=types[i][consumed[i] + k].id, time=t, fraction=1.0
                    )
                )
            consumed[i] += chosen_counts[i]
        avail = tuple(avail[i] - chosen_counts[i] for i in range(n_types))
    return Schedule(entries=entries, integral=True)


# ---------------------------------------------------------------------------
# Dominance checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdViolation:
    theta: float
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"theta": self.theta, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class ThresholdReport:
    """The number of violated thresholds and the lowest one."""

    violation_count: int
    first_violation: ThresholdViolation | None
    thetas_checked: int

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        first = self.first_violation
        return {
            "check": "threshold_dominance",
            "pass": self.passed,
            "violation_count": self.violation_count,
            "first_violation": None if first is None else first.to_json(),
            "thetas_checked": self.thetas_checked,
        }


@dataclass
class WelfareReport:
    passed: bool
    ratio: float
    alg_welfare: float
    required: float

    def to_json(self) -> dict:
        return {
            "check": "welfare_dominance",
            "pass": self.passed,
            "ratio": self.ratio,
            "lhs": self.alg_welfare,
            "rhs": self.required,
        }


def _check_extension(gamma: int, eta: float) -> None:
    """Reject a horizon extension or step size outside the theorem's range;
    a non-finite eta would make e^{-eta} void the comparison."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


def check_threshold_dominance(
    alg: Schedule,
    bench: Schedule,
    scenario: Scenario,
    horizon: int,
    gamma: int,
    eta: float,
    bench_limit: float,
    bench_slack: float = 0.0,
) -> ThresholdReport:
    """Check per-threshold coverage: for every value threshold theta,
    the benchmark's quantity at-or-above theta over [1, T] must not exceed
    the algorithm's quantity at-or-above theta*e^{-eta} over [1, T+Gamma].

    Both sides are step functions of theta with breakpoints only at scheduled
    unit values, so the union of both schedules' distinct values is an exact
    evaluation set.  One ``_suffix_sums`` pass per schedule gives its side's
    curve and its values; every theta's sides are read and compared in C.
    The benchmark must first satisfy its declared windowed-average
    constraint (bench_limit with constant slackness bench_slack).
    """
    _check_extension(gamma, eta)
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not (math.isfinite(bench_slack) and bench_slack >= 0):
        raise ValueError(f"bench_slack must be finite and >= 0, got {bench_slack}")
    count, first = _window_violations(
        *_block_prefix_sums(bench, scenario, bench_limit), float(bench_slack)
    )
    if count:
        raise BenchmarkConstraintError(
            f"benchmark violates its declared size constraint in "
            f"{count} window(s); first: {first.to_json()}"
        )
    seen: set[float] = set()
    bench_values, bench_q = _suffix_sums(bench, scenario, 1, horizon, seen)
    alg_values, alg_q = _suffix_sums(alg, scenario, 1, horizon + gamma, seen)
    thetas = sorted(seen)
    del seen
    lhs = list(map(bench_q.__getitem__, map(bisect_left, repeat(bench_values), thetas)))
    retained = map(mul, thetas, repeat(math.exp(-eta)))
    rhs = list(map(alg_q.__getitem__, map(bisect_left, repeat(alg_values), retained)))
    # lhs > rhs * (1 + REL_TOL) + 1e-12, in that order of operations
    covered = map(add, map(mul, rhs, repeat(1.0 + REL_TOL)), repeat(1e-12))
    failed = list(compress(range(len(thetas)), map(gt, lhs, covered)))
    first = next((ThresholdViolation(thetas[k], lhs[k], rhs[k]) for k in failed), None)
    return ThresholdReport(len(failed), first, thetas_checked=len(thetas))


def check_welfare_dominance(
    alg: Schedule,
    bench: Schedule,
    scenario: Scenario,
    horizon: int,
    gamma: int,
    eta: float,
) -> WelfareReport:
    """Check SW(alg, [1, T+Gamma]) >= e^{-eta} * SW(bench, [1, T]).

    The retained fraction is computed as e^{-eta} (never the first-order
    approximation 1 - eta) and the comparison carries 1e-9 relative slack.
    An empty benchmark passes with an infinite ratio sentinel.
    """
    _check_extension(gamma, eta)
    sw_alg = welfare(alg, scenario, horizon + gamma)
    sw_bench = welfare(bench, scenario, horizon)
    required = math.exp(-eta) * sw_bench * (1.0 - REL_TOL)
    passed = sw_alg >= required
    ratio = math.inf if sw_bench == 0.0 else sw_alg / sw_bench
    return WelfareReport(
        passed=passed,
        ratio=ratio,
        alg_welfare=sw_alg,
        required=required,
    )


def greedy_dominance_check(
    scenario: Scenario | AdaptiveScenario, B: float, horizon: int
) -> bool:
    """Greedy with one extra block covers the per-block-cap optimum:
    SW(greedy, [1, T+1]) >= SW(opt_fractional, [1, T]) up to 1e-9 relative.

    Adaptive scenarios are driven by the greedy run; the optimum is computed
    over the realized arrival stream.
    """
    greedy = greedy_online(scenario, B, horizon + 1)
    realized = greedy.scenario
    opt = opt_fractional(realized, B, horizon)
    sw_greedy = welfare(greedy.schedule, realized, horizon + 1)
    sw_opt = welfare(opt, realized, horizon)
    return sw_greedy >= sw_opt - REL_TOL * abs(sw_opt)
