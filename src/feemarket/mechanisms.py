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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .adversary import InclusionPolicy, SeededRandom, _ln, _Pool, block_rng
from .core import (
    AdaptiveScenario,
    BlockRecord,
    FeeMarketError,
    Patient,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
    _index_stream,
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
            x = getattr(self, name)
            if type(x) is bool:
                raise ValueError(f"{name} must be a number, got {x!r}")
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
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
        if type(self.discounted_eligibility) is not bool:
            raise ValueError(
                f"discounted_eligibility must be a bool, got {self.discounted_eligibility!r}"
            )

    @property
    def max_block(self) -> float:
        return self.c * self.B


@dataclass
class RunResult:
    """A mechanism run: the schedule, the per-block trace (one record per
    block, so the run's horizon is their count), and the scenario whose
    arrival stream was realized (for an ``AdaptiveScenario`` the static
    ``Scenario`` of the arrivals its generator emitted; for a ``Scenario``
    the input itself).  A builtin's canonical run is its ``ScenarioBundle``'s
    scenario, params, policy and horizon, which ``ScenarioBundle.run`` runs."""

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
    return MechanismParams(
        B=_number(obj["B"], "B"),
        c=_number(obj["c"], "c"),
        eta=_number(obj["eta"], "eta"),
        p_min=_number(obj["p_min"], "p_min"),
        p_1=_number(obj["p_1"], "p_1"),
        discounted_eligibility=obj.get("discounted_eligibility", False),
    )


def eip_next_price(params: MechanismParams, log_price: float, block_size: float) -> float:
    """Next log-price after a block of total size ``block_size``:
    ln p' = max(ln p_min, ln p + eta*(Q-B)/B)."""
    if not block_size >= 0:
        raise CapacityViolationError(f"block size must be >= 0, got {block_size}")
    if block_size > params.max_block * (1.0 + 1e-9):
        raise CapacityViolationError(
            f"block size {block_size} exceeds capacity {params.max_block}"
        )
    drift = params.eta * (block_size - params.B) / params.B
    return max(math.log(params.p_min), log_price + drift)


class _Run:
    """The run skeleton both online engines share; each engine keeps only
    its pool, its block choice and its posted price.

    A static ``Scenario`` was checked when it was built; ``at(t)`` pops
    block t's arrivals.  For an ``AdaptiveScenario``, ``at(t)`` asks the
    generator, which sees block t-1's record, checks the batch and indexes
    it through ``core._index_stream``, and checks that each arrival is t;
    the index, in arrival order, is the realized stream, which ``result``
    freezes into a ``Scenario``.  ``close`` records block t from the
    transactions admitted in it, in admission order: sizes summed from 0.0,
    each executed whole, and the block's ``math.fsum`` of value added to the
    running welfare.  ``result`` derives the schedule from the records.
    """

    def __init__(self, scenario: Scenario | AdaptiveScenario, horizon: int) -> None:
        if not horizon >= 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.m = scenario.m
        self.scenario = scenario
        self.gen = scenario.generator if isinstance(scenario, AdaptiveScenario) else None
        if self.gen is None:
            self.by_time = scenario.arrivals_by_time()
        self.index: dict[int, Transaction] = {}  # an adaptive run's realized stream
        self.records: list[BlockRecord] = []
        self.welfare = 0.0

    def at(self, t: int) -> Sequence[Transaction]:
        gen = self.gen
        if gen is None:
            return self.by_time.pop(t, ())
        previous = self.records[-1] if self.records else None
        try:
            arrivals = gen.arrivals(t, previous)
        except FeeMarketError:
            raise
        except Exception as exc:  # generator bugs surface as scenario errors
            raise ScenarioError(f"adaptive generator failed at t={t}: {exc}") from exc
        _index_stream(self.index, arrivals, self.m)
        for txn in arrivals:
            if txn.arrival != t:
                raise ScenarioError(
                    f"generator emitted tx {txn.id} with arrival {txn.arrival} at block {t}"
                )
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
        """The run's result, with the static or realized stream it ran."""
        entries = [
            ScheduleEntry(i, r.time, f) for r in self.records for i, f in r.executed
        ]
        scenario, index = self.scenario, self.index
        if self.gen is not None:
            scenario = Scenario(tuple(index.values()), m=self.m, _index=index)
        return RunResult(
            schedule=Schedule(entries=entries, integral=True),
            trace=RunTrace(records=self.records),
            scenario=scenario,
        )


def _run_engine(
    scenario: Scenario | AdaptiveScenario,
    params_list: Sequence[MechanismParams],
    policy: InclusionPolicy,
    horizon: int,
) -> RunResult:
    m = scenario.m
    if len(params_list) != m:
        raise ValueError(f"need {m} parameter sets for {m} resources, got {len(params_list)}")
    run = _Run(scenario, horizon)

    caps = tuple(p.max_block for p in params_list)
    log_prices = tuple(math.log(p.p_1) for p in params_list)
    aware = params_list[0].discounted_eligibility
    if any(p.discounted_eligibility != aware for p in params_list):
        raise ValueError("discounted_eligibility differs between the resources' parameters")

    block = _Pool(policy, caps, aware, [math.log(p.p_min) for p in params_list]).block
    random_policy = isinstance(policy, SeededRandom)
    for t in range(1, horizon + 1):
        rng = block_rng(policy.seed, t) if random_policy else None
        record = run.close(t, log_prices, caps, block(t, run.at(t), log_prices, rng))
        log_prices = tuple(map(eip_next_price, params_list, log_prices, record.sizes))

    return run.result()


def run_price_based(
    scenario: Scenario | AdaptiveScenario,
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

    Cost: one ``adversary._Pool`` keeps the pending pool and builds every
    block; its docstring gives the cost of a block.
    """
    if scenario.m != 1:
        raise ScenarioError("single-resource mechanism requires a 1-resource scenario")
    return _run_engine(scenario, [params], policy, horizon)


def multi_resource_mechanism(
    scenario: Scenario | AdaptiveScenario,
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

    Cost: as on one resource, one ``adversary._Pool`` keeps the pending pool
    per size vector and builds every block; its docstring gives the cost.
    """
    return _run_engine(scenario, params_list, policy, horizon)


def greedy_online(
    scenario: Scenario | AdaptiveScenario,
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
    if not params.p_min <= v_max < math.inf:
        raise ValueError(f"v_max must be finite and >= p_min = {params.p_min}, got {v_max}")
    return (math.log(v_max) - math.log(params.p_min)) / params.eta + (params.c - 1.0)


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
    for name, x in (("v_max", v_max), ("q_max", q_max), ("delta_prime", delta_prime)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if delta_prime < 0:
        raise ValueError(f"delta_prime must be >= 0, got {delta_prime}")
    c_prime = params.c - q_max / params.B
    if c_prime <= 1.0:
        raise InfeasibleParametersError(
            f"need c > 1 + q_max/B (c={params.c}, q_max/B={q_max / params.B})"
        )
    if v_max < params.p_min * math.exp(params.eta) * (1.0 - 1e-12):
        raise ValueError(
            f"v_max {v_max} below e^eta * p_min = {params.p_min * math.exp(params.eta)}"
        )
    # A difference of logs: the ratios overflow for a tiny p_min.
    ln_p_min = math.log(params.p_min)
    first = (math.log(params.p_1) - ln_p_min) / params.eta
    second = (
        (math.log(v_max) - ln_p_min) / (params.eta * (c_prime - 1.0))
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
    index = scenario._index
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
