"""Online scheduling mechanisms.

The price-posting engine runs the multiplicative base-fee update family: each
block posts a per-unit price and a capacity, an adversarial builder assembles
a maximal-by-inclusion subset of the eligible pending transactions, and the
price moves by ``exp(eta * (Q_t - B) / B)`` (or its linear approximation)
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
from typing import Mapping, Sequence

from .adversary import InclusionPolicy, SeededRandom, block_rng, select_block
from .core import (
    LOG_EPS,
    BlockRecord,
    FeeMarketError,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
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


EXPONENTIAL = "exponential"
LINEAR = "linear"


@dataclass(frozen=True)
class MechanismParams:
    """The five price-update parameters plus variant flags.

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
    update_rule: str = EXPONENTIAL
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
        if self.update_rule not in (EXPONENTIAL, LINEAR):
            raise ValueError(f"unknown update rule {self.update_rule!r}")

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
        "update_rule": params.update_rule,
        "discounted_eligibility": params.discounted_eligibility,
    }


def params_from_config(obj: Mapping) -> MechanismParams:
    return MechanismParams(
        B=float(obj["B"]),
        c=float(obj["c"]),
        eta=float(obj["eta"]),
        p_min=float(obj["p_min"]),
        p_1=float(obj["p_1"]),
        update_rule=str(obj.get("update_rule", EXPONENTIAL)),
        discounted_eligibility=bool(obj.get("discounted_eligibility", False)),
    )


def eip_next_price(params: MechanismParams, log_price: float, block_size: float) -> float:
    """Next log-price after a block of total size ``block_size``.

    Exponential rule: ln p' = max(ln p_min, ln p + eta*(Q-B)/B).
    Linear rule: p' = max(p_min, p * (1 + eta*(Q-B)/B)); a nonpositive
    multiplier clamps to the floor.
    """
    if block_size < 0:
        raise CapacityViolationError(f"negative block size {block_size}")
    if block_size > params.max_block * (1.0 + 1e-9):
        raise CapacityViolationError(
            f"block size {block_size} exceeds capacity {params.max_block}"
        )
    drift = params.eta * (block_size - params.B) / params.B
    floor = math.log(params.p_min)
    if params.update_rule == EXPONENTIAL:
        return max(floor, log_price + drift)
    factor = 1.0 + drift
    if factor <= 0.0:
        return floor
    return max(floor, log_price + math.log(factor))


class _Arrivals:
    """The arrival ingest both online engines share.

    Block t's arrivals come from the static ``arrivals_by_time`` lookup or
    from the adaptive generator, which sees block t-1's record.  Every
    arrival is checked (resource count, unique id, and for generators an
    ``arrival`` equal to t) and kept by id; a generator's arrivals are also
    kept in order, for the realized-stream export in ``result``.
    """

    def __init__(self, scenario: Scenario, horizon: int) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.scenario = scenario
        self.horizon = horizon
        self.gen = scenario.generator
        self.by_time = scenario.arrivals_by_time() if self.gen is None else {}
        self.txs: dict[int, Transaction] = {}
        self.realized: list[Transaction] = []

    def at(self, t: int, previous: BlockRecord | None) -> Sequence[Transaction]:
        gen = self.gen
        if gen is None:
            arrivals = self.by_time.get(t, ())
        else:
            try:
                arrivals = gen.arrivals(t, previous)
            except FeeMarketError:
                raise
            except Exception as exc:  # generator bugs surface as scenario errors
                raise ScenarioError(f"adaptive generator failed at t={t}: {exc}") from exc
        m = self.scenario.m
        txs = self.txs
        for txn in arrivals:
            if len(txn.size) != m:
                raise ScenarioError(
                    f"tx {txn.id}: size has {len(txn.size)} resources, scenario has {m}"
                )
            if txn.id in txs:
                raise ScenarioError(f"duplicate transaction id {txn.id}")
            if gen is not None and txn.arrival != t:
                raise ScenarioError(
                    f"generator emitted tx {txn.id} with arrival {txn.arrival} at block {t}"
                )
            txs[txn.id] = txn
        if gen is not None:
            self.realized.extend(arrivals)
        return arrivals

    def result(self, entries: list[ScheduleEntry], records: list[BlockRecord]) -> RunResult:
        """The run's result; an adaptive run exports its realized stream."""
        scenario = self.scenario
        if self.gen is not None:
            scenario = Scenario(
                capacities=scenario.capacities,
                transactions=self.realized,
                horizon_hint=self.horizon,
                seed=scenario.seed,
            )
        return RunResult(
            schedule=Schedule(entries=entries, integral=True),
            trace=RunTrace(records=records),
            scenario=scenario,
        )


def _pool_key(txn: Transaction) -> tuple[float, int]:
    """The pending pool's sort key (ln v, id); ln 0 is -inf.  Ids are unique,
    so the key locates one entry."""
    v = txn.unit_value
    return (math.log(v) if v > 0 else -math.inf, txn.id)


def _run_engine(
    scenario: Scenario,
    params_list: Sequence[MechanismParams],
    policy: InclusionPolicy,
    horizon: int,
) -> RunResult:
    m = scenario.m
    if len(params_list) != m:
        raise ValueError(f"need {m} parameter sets for {m} resources, got {len(params_list)}")
    ingest = _Arrivals(scenario, horizon)
    all_txs = ingest.txs

    caps = tuple(p.c * p.B for p in params_list)
    log_prices = tuple(math.log(p.p_1) for p in params_list)
    aware = params_list[0].discounted_eligibility

    # The pool, sorted by _pool_key; an executed transaction leaves it by
    # bisection.
    pending: list[tuple[float, int, Transaction]] = []

    entries: list[ScheduleEntry] = []
    records: list[BlockRecord] = []
    cum = 0.0
    prev: BlockRecord | None = None
    random_policy = isinstance(policy, SeededRandom)

    for t in range(1, horizon + 1):
        for txn in ingest.at(t, prev):
            insort(pending, (*_pool_key(txn), txn))

        if m == 1 and not aware:
            i = bisect_left(pending, (log_prices[0] - LOG_EPS,))
            eligible = [e[2] for e in pending[i:]]
        elif m == 1:
            lnp = log_prices[0]
            eligible = []
            for _lnv, _id, txn in pending:
                val = txn.value_at(t)
                if val > 0.0 and math.log(val) >= lnp - LOG_EPS:
                    eligible.append(txn)
        else:
            prices = [math.exp(lp) for lp in log_prices]
            eligible = []
            for _lnv, _id, txn in pending:
                val = txn.value_at(t) if aware else txn.unit_value
                cost = 0.0
                for j in range(m):
                    cost += prices[j] * txn.size[j]
                if val * txn.size[0] >= cost * (1.0 - LOG_EPS):
                    eligible.append(txn)

        rng = block_rng(scenario.seed, t) if random_policy else None
        chosen = select_block(eligible, caps, policy, rng)

        qsums = [0.0] * m
        executed: list[tuple[int, float]] = []
        block_terms: list[float] = []
        for cid in chosen:
            txn = all_txs[cid]
            executed.append((cid, 1.0))
            for j in range(m):
                qsums[j] += txn.size[j]
            block_terms.append(txn.size[0] * txn.value_at(t))
            entries.append(ScheduleEntry(tx=cid, time=t, fraction=1.0))
            del pending[bisect_left(pending, _pool_key(txn))]
        cum += math.fsum(block_terms)

        rec = BlockRecord(
            time=t,
            log_prices=log_prices,
            capacities=caps,
            executed=tuple(executed),
            sizes=tuple(qsums),
            cumulative_welfare=cum,
        )
        records.append(rec)
        prev = rec
        log_prices = tuple(map(eip_next_price, params_list, log_prices, qsums))

    return ingest.result(entries, records)


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
    this reduces exactly to the single-resource mechanism.
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
    ingestion.

    The trace's posted price for each block is the bookkeeping value: the
    lowest per-unit value scheduled in it (log 0 for empty blocks).
    """
    if scenario.m != 1:
        raise ScenarioError("greedy baseline requires a 1-resource scenario")
    if B <= 0:
        raise ValueError(f"target size must be positive, got {B}")
    ingest = _Arrivals(scenario, horizon)

    heap: list[tuple[float, int, int, Transaction]] = []  # (-v, arrival, id, tx)
    min_size_lb = math.inf

    entries: list[ScheduleEntry] = []
    records: list[BlockRecord] = []
    cum_welfare = 0.0
    virtual_cum = 0.0  # includes padding up to the running target
    prev: BlockRecord | None = None
    cap = math.inf if max_block is None else float(max_block)

    for t in range(1, horizon + 1):
        for txn in ingest.at(t, prev):
            if txn.q > B:
                raise OversizedTransactionError(
                    f"tx {txn.id}: size {txn.q} exceeds target block size {B}"
                )
            heapq.heappush(heap, (-txn.unit_value, txn.arrival, txn.id, txn))
            min_size_lb = min(min_size_lb, txn.q)

        target = t * B
        used = 0.0
        executed: list[tuple[int, float]] = []
        block_terms: list[float] = []
        lowest_v = math.inf
        stash: list[tuple[float, int, int, Transaction]] = []
        while virtual_cum < target - 1e-9 and heap:
            if cap - used < min_size_lb:
                break
            item = heapq.heappop(heap)
            txn = item[3]
            if used + txn.q > cap + 1e-9:
                stash.append(item)
                continue
            used += txn.q
            virtual_cum += txn.q
            executed.append((txn.id, 1.0))
            block_terms.append(txn.q * txn.value_at(t))
            entries.append(ScheduleEntry(tx=txn.id, time=t, fraction=1.0))
            lowest_v = min(lowest_v, txn.unit_value)
        for item in stash:
            heapq.heappush(heap, item)
        if virtual_cum < target:
            virtual_cum = target
        cum_welfare += math.fsum(block_terms)

        log_p = math.log(lowest_v) if executed else -math.inf
        rec = BlockRecord(
            time=t,
            log_prices=(log_p,),
            capacities=(cap,),
            executed=tuple(executed),
            sizes=(used,),
            cumulative_welfare=cum_welfare,
        )
        records.append(rec)
        prev = rec

    return ingest.result(entries, records)


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
