"""Online scheduling mechanisms.

The price-posting engine runs the multiplicative base-fee update family: each
block posts a per-unit price and a capacity, an adversarial builder assembles
a maximal-by-inclusion subset of the eligible pending transactions, and the
price moves by ``exp(eta * (Q_t - B) / B)``
clamped at a floor.  Prices are stored and updated in log-space so the
multiplicative telescoping is exact up to additive float error, and
eligibility compares ln-values with a 1e-12 absolute tolerance, inclusive on
equality.

Price decisions depend only on executed history (never on pending contents):
the posted log-prices are a fold of ``eip_next_price`` over the executed
block sizes, starting from ln p_1.  The engine and ``replay_log_prices`` run
the same fold, the latter from a trace's executions alone, and must agree
bit-exactly.

Also here: the greedy online baseline (schedule by descending per-unit value
against a cumulative size target), a per-resource price generalization for
multi-resource blocks, and the closed-form extension/slackness bounds that the
verification suite checks runs against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

from .adversary import (
    InclusionPolicy,
    SeededRandom,
    TipPriority,
    ValueDescending,
    _assemble,
    _ln,
    _pool_entry,
    block_rng,
)
from .core import (
    LOG_EPS,
    BlockRecord,
    FeeMarketError,
    Patient,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
    _known_keys,
    _number,
)

__all__ = [
    "MechanismParams",
    "RunResult",
    "CapacityViolationError",
    "OversizedTransactionError",
    "InfeasibleParametersError",
    "eip_next_price",
    "run_price_based",
    "multi_resource_mechanism",
    "greedy_online",
    "theorem_gamma",
    "theorem_slackness",
    "replay_log_prices",
    "params_from_config",
    "params_to_config",
]


class CapacityViolationError(FeeMarketError):
    """A block size exceeded the posted capacity contract."""


class OversizedTransactionError(FeeMarketError):
    """Greedy ingestion rejected a transaction larger than the target size."""


class InfeasibleParametersError(FeeMarketError):
    """Closed-form bound undefined for these parameters."""


@dataclass(frozen=True)
class MechanismParams:
    """The five price-update parameters plus a variant flag.

    B: target block size; c: max-size multiplier (capacity is c*B);
    eta: step size; p_min: price floor; p_1: initial price.
    ``discounted_eligibility`` makes eligibility use the transaction's
    current (time-decayed) value instead of its declared value.
    """

    B: float
    c: float
    eta: float
    p_min: float
    p_1: float
    discounted_eligibility: bool = False

    def __post_init__(self) -> None:
        for name in ("B", "c", "eta", "p_min", "p_1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.B <= 0:
            raise ValueError(f"target size must be positive, got {self.B}")
        if self.c <= 1:
            raise ValueError(f"max-size multiplier must exceed 1, got {self.c}")
        if self.eta <= 0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.p_min <= 0:
            raise ValueError(f"price floor must be positive, got {self.p_min}")
        if self.p_1 < self.p_min:
            raise ValueError(f"initial price {self.p_1} below floor {self.p_min}")

    @property
    def max_block(self) -> float:
        return self.c * self.B


@dataclass
class RunResult:
    """A mechanism run: the schedule, the per-block trace, and the scenario
    whose arrival stream was realized (for adaptive inputs this is the
    post-hoc static export; for static inputs it is the input itself)."""

    schedule: Schedule
    trace: RunTrace
    scenario: Scenario


def params_to_config(params: MechanismParams) -> dict:
    return {
        "B": params.B,
        "c": params.c,
        "eta": params.eta,
        "p_min": params.p_min,
        "p_1": params.p_1,
        "discounted_eligibility": params.discounted_eligibility,
    }


def params_from_config(obj: Mapping) -> MechanismParams:
    """The parameters of a JSON config object.  ``B``, ``c``, ``eta``,
    ``p_min`` and ``p_1`` must be JSON numbers and ``discounted_eligibility``
    (default false) a boolean; a config of any other shape, or with any
    other key, raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"mechanism config must be a JSON object, got {obj!r}")
    required = ("B", "c", "eta", "p_min", "p_1")
    _known_keys(obj, (*required, "discounted_eligibility"), "mechanism config")
    missing = [name for name in required if name not in obj]
    if missing:
        raise ValueError(f"mechanism config lacks {', '.join(missing)}")
    discounted = obj.get("discounted_eligibility", False)
    if type(discounted) is not bool:
        raise ValueError(
            f"discounted_eligibility must be true or false, got {discounted!r}"
        )
    return MechanismParams(
        B=_number(obj["B"], "B"),
        c=_number(obj["c"], "c"),
        eta=_number(obj["eta"], "eta"),
        p_min=_number(obj["p_min"], "p_min"),
        p_1=_number(obj["p_1"], "p_1"),
        discounted_eligibility=discounted,
    )


def eip_next_price(params: MechanismParams, log_price: float, block_size: float) -> float:
    """Next log-price after a block of total size ``block_size``:
    ln p' = max(ln p_min, ln p + eta*(Q-B)/B)."""
    if block_size < 0:
        raise CapacityViolationError(f"negative block size {block_size}")
    if block_size > params.max_block * (1.0 + 1e-9):
        raise CapacityViolationError(
            f"block size {block_size} exceeds capacity {params.max_block}"
        )
    drift = params.eta * (block_size - params.B) / params.B
    return max(math.log(params.p_min), log_price + drift)


def _eligibility_bar(prices: Sequence[float], size: Sequence[int]) -> float:
    """The posted cost of a bundle less the eligibility tolerance: a
    several-resource transaction is eligible iff v * q_0 reaches it."""
    cost = 0.0
    for p, q in zip(prices, size):
        cost += p * q
    return cost * (1.0 - LOG_EPS)


class _Run:
    """The run skeleton both online engines share; each engine keeps only
    its pool, its block choice and its posted price.

    ``at(t)`` ingests block t's arrivals, from the static
    ``arrivals_by_time`` lookup or from the adaptive generator, which sees
    block t-1's record.  Every arrival is checked (resource count, unique
    id, and for generators an ``arrival`` equal to t) and its id recorded; a
    generator's arrivals are also kept in order, for the realized-stream
    export in ``result``.  ``close`` records block t from the transactions
    admitted in it, in admission order: sizes summed from 0.0, each executed
    whole, and the block's ``math.fsum`` of value added to the running
    welfare.  ``result`` derives the schedule from the records.
    """

    def __init__(self, scenario: Scenario, horizon: int) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.scenario = scenario
        self.m = scenario.m
        self.horizon = horizon
        self.gen = scenario.generator
        self.by_time = scenario.arrivals_by_time() if self.gen is None else {}
        self.ids: set[int] = set()
        self.realized: list[Transaction] = []
        self.records: list[BlockRecord] = []
        self.welfare = 0.0

    def at(self, t: int) -> Sequence[Transaction]:
        gen = self.gen
        if gen is None:
            arrivals = self.by_time.get(t, ())
        else:
            previous = self.records[-1] if self.records else None
            try:
                arrivals = gen.arrivals(t, previous)
            except FeeMarketError:
                raise
            except Exception as exc:  # generator bugs surface as scenario errors
                raise ScenarioError(f"adaptive generator failed at t={t}: {exc}") from exc
        m = self.m
        ids = self.ids
        for txn in arrivals:
            if len(txn.size) != m:
                raise ScenarioError(
                    f"tx {txn.id}: size has {len(txn.size)} resources, scenario has {m}"
                )
            if txn.id in ids:
                raise ScenarioError(f"duplicate transaction id {txn.id}")
            if gen is not None and txn.arrival != t:
                raise ScenarioError(
                    f"generator emitted tx {txn.id} with arrival {txn.arrival} at block {t}"
                )
            ids.add(txn.id)
        if gen is not None:
            self.realized.extend(arrivals)
        return arrivals

    def close(self, t: int, log_prices, caps, admitted: list[Transaction]) -> BlockRecord:
        executed = []
        terms = []
        if self.m == 1:
            size = 0.0
            for txn in admitted:
                q = txn.size[0]
                executed.append((txn.id, 1.0))
                size += q
                if type(txn.sensitivity) is Patient:
                    terms.append(q * txn.unit_value)
                else:
                    terms.append(q * txn.value_at(t))
            sizes = (size,)
        else:
            resources = range(self.m)
            acc = [0.0] * self.m
            for txn in admitted:
                size = txn.size
                executed.append((txn.id, 1.0))
                for j in resources:
                    acc[j] += size[j]
                terms.append(size[0] * txn.value_at(t))
            sizes = tuple(acc)
        self.welfare += math.fsum(terms)
        record = BlockRecord(
            time=t,
            log_prices=log_prices,
            capacities=caps,
            executed=tuple(executed),
            sizes=sizes,
            cumulative_welfare=self.welfare,
        )
        self.records.append(record)
        return record

    def result(self) -> RunResult:
        """The run's result; an adaptive run exports its realized stream."""
        scenario = self.scenario
        if self.gen is not None:
            scenario = Scenario(
                capacities=scenario.capacities,
                transactions=self.realized,
                horizon_hint=self.horizon,
                seed=scenario.seed,
            )
        entries = [
            ScheduleEntry(i, r.time, f) for r in self.records for i, f in r.executed
        ]
        return RunResult(
            schedule=Schedule(entries=entries, integral=True),
            trace=RunTrace(records=self.records),
            scenario=scenario,
        )


def _run_engine(
    scenario: Scenario,
    params_list: Sequence[MechanismParams],
    policy: InclusionPolicy,
    horizon: int,
) -> RunResult:
    m = scenario.m
    if len(params_list) != m:
        raise ValueError(f"need {m} parameter sets for {m} resources, got {len(params_list)}")
    run = _Run(scenario, horizon)

    caps = tuple(p.c * p.B for p in params_list)
    log_prices = tuple(math.log(p.p_1) for p in params_list)
    aware = params_list[0].discounted_eligibility
    if any(p.discounted_eligibility != aware for p in params_list):
        raise ValueError("discounted_eligibility differs between the resources' parameters")

    # The pool: ``groups`` keeps one list of entries per size, in _pool_key
    # order, the order _assemble takes each run of eligible entries in;
    # entries join and leave per group (see below) and an emptied group is
    # deleted.  An entry is (*_pool_key, q, txn), plus (-tip, id) under
    # TipPriority.  The eligibility test is monotone in v, so a group's
    # eligible entries are a suffix, or a prefix under ValueDescending,
    # found by bisection.  On one resource the test is ln v >= ln p - LOG_EPS
    # for every size, and ``best`` holds each group's most eligible entry
    # (its last, or its first under ValueDescending) in _pool_key order: one
    # bisection of ``best`` finds the groups that hold eligible entries, and
    # only those are visited.  On several, each block prices each size once
    # and tests v * q_0 >= cost * (1 - LOG_EPS).  With discounted
    # eligibility, an entry whose value can decay waits in ``decaying``
    # instead, is tested every block and, if eligible, joins the block's
    # runs as a run of its own.  It is dropped once it fails the test at the
    # floor prices, the least that can be posted: values never rise and no
    # posted log-price is below ln p_min.
    groups: dict[tuple[int, ...], list[tuple]] = {}
    best: list[tuple] = []
    decaying: dict[int, tuple] = {}
    dead_below = math.log(params_list[0].p_min) - LOG_EPS
    floor_prices = [math.exp(math.log(p.p_min)) for p in params_list]

    descending = isinstance(policy, ValueDescending)
    end = 0 if descending else -1
    tips = policy.tips if isinstance(policy, TipPriority) else None
    random_policy = isinstance(policy, SeededRandom)

    for t in range(1, horizon + 1):
        # Arrivals join the pool per size group: a group's arrivals, sorted,
        # are appended in one step when they all sort after its last entry,
        # as a same-valued generator batch usually does, and bisected in
        # otherwise.  ``best`` changes at most once per group.
        arriving: dict[tuple[int, ...], list[tuple]] = {}
        for entry in map(_pool_entry, run.at(t), repeat(descending), repeat(tips)):
            if aware and type(entry[4].sensitivity) is not Patient:
                decaying[entry[2]] = entry
            else:
                arriving.setdefault(entry[4].size, []).append(entry)
        for size, chunk in arriving.items():
            group = groups.setdefault(size, [])
            head = group[end] if group else None
            chunk.sort()
            if group and chunk[0] < group[-1]:
                for entry in chunk:
                    insort(group, entry)
            else:
                group += chunk
            if m == 1 and group[end] is not head:
                if head is not None:
                    del best[bisect_left(best, head)]
                insort(best, group[end])

        dead = []
        runs = []
        if m == 1:
            floor = log_prices[0] - LOG_EPS
            if descending:
                cut = (-floor, math.inf)
                for head in best[: bisect_left(best, cut)]:
                    group = groups[head[4].size]
                    runs.append((group, 0, bisect_left(group, cut)))
            else:
                cut = (floor,)
                for head in best[bisect_left(best, cut) :]:
                    group = groups[head[4].size]
                    runs.append((group, bisect_left(group, cut), len(group)))
            for entry in decaying.values():
                lnv = _ln(entry[4].value_at(t))
                if lnv >= floor:
                    runs.append(([entry], 0, 1))
                elif lnv < dead_below:
                    dead.append(entry[2])
        else:
            prices = [math.exp(lp) for lp in log_prices]
            for size, group in groups.items():
                q0, bar = size[0], _eligibility_bar(prices, size)
                if descending:
                    hi = bisect_left(group, True, key=lambda e: e[4].unit_value * q0 < bar)
                    runs.append((group, 0, hi))
                else:
                    lo = bisect_left(group, True, key=lambda e: e[4].unit_value * q0 >= bar)
                    runs.append((group, lo, len(group)))
            for entry in decaying.values():
                txn = entry[4]
                size = txn.size
                value = txn.value_at(t) * size[0]
                if value >= _eligibility_bar(prices, size):
                    runs.append(([entry], 0, 1))
                elif value < _eligibility_bar(floor_prices, size):
                    dead.append(entry[2])
        for i in dead:
            del decaying[i]
        rng = block_rng(scenario.seed, t) if random_policy else None
        admitted = _assemble(runs, caps, policy, rng)

        # Executed entries leave per size group.  Under the value orders a
        # group's admitted entries are one contiguous range of it, in pool
        # order, and leave by one slice; otherwise each leaves by bisection.
        # ``best`` changes at most once per group.
        taken: dict[tuple[int, ...], list[tuple]] = {}
        for entry in admitted:
            if decaying and decaying.pop(entry[2], None) is not None:
                continue
            taken.setdefault(entry[4].size, []).append(entry)
        for size, chunk in taken.items():
            group = groups[size]
            head = group[end]
            i = bisect_left(group, chunk[0])
            k = len(chunk)
            if group[i : i + k] == chunk:
                del group[i : i + k]
            else:
                for entry in chunk:
                    del group[bisect_left(group, entry)]
            if m == 1 and (not group or group[end] is not head):
                del best[bisect_left(best, head)]
                if group:
                    insort(best, group[end])
            if not group:
                del groups[size]
        sizes = run.close(t, log_prices, caps, [e[4] for e in admitted]).sizes
        log_prices = tuple(map(eip_next_price, params_list, log_prices, sizes))

    return run.result()


def run_price_based(
    scenario: Scenario,
    params: MechanismParams,
    policy: InclusionPolicy,
    horizon: int,
) -> RunResult:
    """Run the single-resource price-posting mechanism for ``horizon`` blocks.

    Each block posts (p_t, c*B), eligibility is v_i >= p_t (current value when
    ``discounted_eligibility`` is set), assembly is delegated to the inclusion
    policy, executed transactions leave the pending pool, and the price
    updates from the realized block size.  The mechanism never terminates on
    its own; the caller supplies the horizon.

    Cost: the pending pool is kept as one sorted list per size, and a sorted
    list of each size's most eligible entry names the sizes that hold
    eligible transactions, so a block visits only those.  A value-order
    block merges their eligible ranges by a heap, dropping a size once its
    head does not fit, and admits from the last size left by a plain loop:
    Python code runs per admitted transaction and per visited size, not per
    eligible one.  The pool changes per size: a size's arrivals that all
    sort after its pooled entries are appended in one step, and a size's
    executed entries leave by one slice where they are one contiguous range
    of it, as under the value orders they always are; the list of best
    entries changes at most once per size and block.  The tip order sorts
    the eligible entries by the ``(-tip, id)`` key each entry carries from
    its arrival, and the random order shuffles them; their executed entries
    leave by bisection one at a time where they are not adjacent.  Under
    ``discounted_eligibility`` the transactions whose value can decay are
    tested one by one every block.
    """
    if scenario.m != 1:
        raise ScenarioError("single-resource mechanism requires a 1-resource scenario")
    return _run_engine(scenario, [params], policy, horizon)


def multi_resource_mechanism(
    scenario: Scenario,
    params_list: Sequence[MechanismParams],
    policy: InclusionPolicy,
    horizon: int,
) -> RunResult:
    """Per-resource price ladders: one log-price per resource, each updated by
    its own eta_j*(Q_{t,j}-B_j)/B_j rule.

    A transaction is eligible iff its total value covers the posted cost of
    its bundle: v_i * q_{i,1} >= sum_j p_{j,t} * q_{i,j}.  With one resource
    this reduces exactly to the single-resource mechanism.  Every parameter
    set must agree on ``discounted_eligibility``.

    Cost: the pending pool is kept per size vector, as on one resource (see
    ``run_price_based``).  With several resources each block prices each of
    the G distinct sizes once and bisects for its eligible entries, and a
    value-order block is filled by a heap merge of those ranges, so a block
    costs O((G + admitted) log G) besides the sort the tip and random orders
    need; the tip order sorts by the ``(-tip, id)`` key each entry carries.
    Under ``discounted_eligibility`` the transactions whose value can decay
    are tested one by one every block.
    """
    return _run_engine(scenario, params_list, policy, horizon)


def greedy_online(
    scenario: Scenario,
    B: float,
    horizon: int,
    max_block: float | None = None,
) -> RunResult:
    """Greedy baseline: schedule pending transactions by descending per-unit
    value until the total size scheduled by time t reaches t*B.

    Ties break on earlier arrival, then smaller id; transactions are never
    split.  When the pool empties or nothing fits, the block closes early and
    the cumulative target is kept (the shortfall is never made up), so any Z
    consecutive blocks total less than (Z+1)*B.  With sizes at most B the max
    block size is at most 2B.  ``max_block`` optionally caps each block (used
    to study capped variants); transactions larger than B are rejected at
    ingestion.  ``B`` must be positive and finite, ``max_block`` positive.

    The trace's posted price for each block is the bookkeeping value: the
    lowest per-unit value scheduled in it (log 0 for empty blocks).
    """
    if scenario.m != 1:
        raise ScenarioError("greedy baseline requires a 1-resource scenario")
    if not 0 < B < math.inf:
        raise ValueError(f"target size must be positive and finite, got {B}")
    cap = math.inf if max_block is None else float(max_block)
    if not cap > 0:
        raise ValueError(f"max_block must be positive, got {max_block}")
    run = _Run(scenario, horizon)

    heap: list[tuple[float, int, int, Transaction]] = []  # (-v, arrival, id, tx)
    min_size_lb = math.inf
    virtual_cum = 0.0  # includes padding up to the running target
    caps = (cap,)

    for t in range(1, horizon + 1):
        for txn in run.at(t):
            if txn.q > B:
                raise OversizedTransactionError(
                    f"tx {txn.id}: size {txn.q} exceeds target block size {B}"
                )
            heapq.heappush(heap, (-txn.unit_value, txn.arrival, txn.id, txn))
            min_size_lb = min(min_size_lb, txn.q)

        target = t * B
        used = 0.0
        admitted: list[Transaction] = []
        stash: list[tuple[float, int, int, Transaction]] = []
        while virtual_cum < target - 1e-9 and heap:
            if used + min_size_lb > cap + 1e-9:
                break
            item = heapq.heappop(heap)
            txn = item[3]
            if used + txn.q > cap + 1e-9:
                stash.append(item)
                continue
            used += txn.q
            virtual_cum += txn.q
            admitted.append(txn)
        for item in stash:
            heapq.heappush(heap, item)
        if virtual_cum < target:
            virtual_cum = target

        # admission runs in descending value order: the last is the lowest
        log_p = _ln(admitted[-1].unit_value) if admitted else -math.inf
        run.close(t, (log_p,), caps, admitted)

    return run.result()


def theorem_slackness(params: MechanismParams, v_max: float) -> float:
    """Windowed-average slackness every run of the mechanism satisfies:
    (1/eta) * ln(v_max / p_min) + (c - 1), where v_max upper-bounds every
    per-unit value in the input as well as p_1."""
    if v_max < params.p_min:
        raise ValueError(f"v_max {v_max} below price floor {params.p_min}")
    return math.log(v_max / params.p_min) / params.eta + (params.c - 1.0)


def theorem_gamma(
    params: MechanismParams,
    v_max: float,
    q_max: float,
    delta_prime: int = 0,
) -> int:
    """Minimal integer horizon extension for welfare dominance.

    With c' = c - q_max/B, returns the ceiling of

        max{ (1/eta) ln(p_1/p_min),
             (1/(eta (c'-1))) ln(v_max/p_min) + (c-1) + (c-2)/(c'-1) } + delta'

    which is the extension granted to the mechanism when compared against any
    fractional schedule with windowed-average size limit B and slackness
    delta'.  Requires c > 1 + q_max/B and v_max >= e^eta * p_min.
    """
    if delta_prime < 0:
        raise ValueError(f"slackness must be >= 0, got {delta_prime}")
    c_prime = params.c - q_max / params.B
    if c_prime <= 1.0:
        raise InfeasibleParametersError(
            f"need c > 1 + q_max/B (c={params.c}, q_max/B={q_max / params.B})"
        )
    if v_max < params.p_min * math.exp(params.eta) * (1.0 - 1e-12):
        raise ValueError(
            f"v_max {v_max} below e^eta * p_min = {params.p_min * math.exp(params.eta)}"
        )
    first = math.log(params.p_1 / params.p_min) / params.eta
    second = (
        math.log(v_max / params.p_min) / (params.eta * (c_prime - 1.0))
        + (params.c - 1.0)
        + (params.c - 2.0) / (c_prime - 1.0)
    )
    return math.ceil(max(first, second) + delta_prime - 1e-9)


def replay_log_prices(
    params_list: Sequence[MechanismParams],
    trace: RunTrace,
    scenario: Scenario,
) -> list[tuple[float, ...]]:
    """Recompute every posted log-price from the executed history alone.

    Folds ``eip_next_price`` over the block sizes summed from the recorded
    executions (in admission order), as the engine does; the result must
    match the trace's posted prices bit-exactly.
    """
    index = scenario.index()
    log_prices = tuple(math.log(p.p_1) for p in params_list)
    out: list[tuple[float, ...]] = []
    for rec in trace.records:
        out.append(log_prices)
        sizes = [0.0] * len(params_list)
        for cid, frac in rec.executed:
            size = index[cid].size
            for j in range(len(sizes)):
                sizes[j] += frac * size[j]
        log_prices = tuple(map(eip_next_price, params_list, log_prices, sizes))
    return out
