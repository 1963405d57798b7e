"""Domain types and exact accounting for block-fee scheduling.

Transactions carry a per-unit value on resource 1 (gas), so the total value of
executing transaction ``i`` at time ``t`` is ``q_i * v_i(t)`` where ``v_i(t)``
is the per-unit value under the transaction's time-sensitivity model.  A
schedule assigns (possibly fractional) portions of transactions to block
times; everything downstream -- welfare, threshold quantities, block-size
verifiers -- consumes schedules plus the scenario that defines the
transactions.

Sizes are unsigned integers (gas units).  Prices live in log-space wherever a
mechanism updates them multiplicatively; here we only need raw values.
Welfare sums use compensated summation (``math.fsum``); inequality checks
carry a 1e-9 relative slack because the contracts are inequalities, not
equalities.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, fields
from itertools import accumulate, compress, repeat
from json import JSONDecodeError
from operator import attrgetter, ge, is_, mul, sub, truediv
from types import MappingProxyType
from typing import Callable, NoReturn, Protocol, Union

__all__ = [
    "LOG_EPS",
    "REL_TOL",
    "FeeMarketError",
    "InvalidScheduleError",
    "ScenarioError",
    "UnsupportedSensitivityError",
    "Patient",
    "Discount",
    "Patience",
    "Sensitivity",
    "PATIENT",
    "Transaction",
    "ArrivalGenerator",
    "Scenario",
    "AdaptiveScenario",
    "ScheduleEntry",
    "Schedule",
    "BlockRecord",
    "RunTrace",
    "validate_schedule",
    "welfare",
    "quantity_above",
    "quantity_curve",
    "welfare_via_threshold_integral",
    "check_avg_block_size",
    "max_block_size",
    "block_sizes",
    "measured_slackness",
    "BlockSizeReport",
    "WindowViolation",
    "scenario_to_jsonl",
    "scenario_from_jsonl",
    "schedule_to_json",
    "schedule_from_json",
    "trace_to_jsonl",
]

# Absolute tolerance on ln-values for price-eligibility comparisons (inclusive).
LOG_EPS = 1e-12
# Relative slack applied to inequality checks.
REL_TOL = 1e-9

_is_instance = type.__instancecheck__


class FeeMarketError(Exception):
    """Base class for all toolkit errors."""


class InvalidScheduleError(FeeMarketError):
    """Schedule references unknown transactions or violates its invariants."""


class ScenarioError(FeeMarketError):
    """Malformed scenario data or a failing adaptive arrival generator."""


class UnsupportedSensitivityError(FeeMarketError):
    """Operation is only defined for patient (time-invariant) values."""


# ---------------------------------------------------------------------------
# Time-sensitivity models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Patient:
    """Value never decays; the transaction waits indefinitely."""


@dataclass(frozen=True, slots=True)
class Discount:
    """Per-block multiplicative decay: value is v*(1-rho)^(t - arrival)."""

    rho: float

    def __post_init__(self) -> None:
        try:
            if not (0.0 <= self.rho < 1.0):
                raise ValueError(f"discount factor must be in [0, 1), got {self.rho}")
        except TypeError:  # a rho that does not compare with floats
            raise ValueError(f"rho must be a number, got {self.rho!r}") from None
        if type(self.rho) is bool:
            raise ValueError(f"rho must be a number, got {self.rho!r}")


@dataclass(frozen=True, slots=True)
class Patience:
    """Full value for ``window`` blocks after arrival, zero afterwards."""

    window: int

    def __post_init__(self) -> None:
        if type(self.window) is bool or not isinstance(self.window, int):
            raise ValueError(f"patience window must be an integer, got {self.window!r}")
        if self.window < 0:
            raise ValueError(f"patience window must be >= 0, got {self.window}")


Sensitivity = Union[Patient, Discount, Patience]
PATIENT = Patient()
_SENSITIVITIES = (Patient, Discount, Patience)


def _slot_setters(cls: type) -> tuple[Callable[[object, object], None], ...]:
    """Each field's slot setter, in field order, for a frozen slots
    dataclass's own ``__init__``: the slot's member descriptor stores a
    value without the frozen ``__setattr__``."""
    return tuple(vars(cls)[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """One transaction: arrival block, per-resource size, per-unit value.

    ``size`` is a vector of unsigned integers, one entry per resource;
    single-resource instances use a 1-tuple.  ``unit_value`` is the value per
    unit of resource 1, so the total (undiscounted) value is
    ``size[0] * unit_value``.
    """

    id: int
    arrival: int
    size: tuple[int, ...]
    unit_value: float
    sensitivity: Sensitivity = PATIENT

    def __init__(
        self,
        id: int,
        arrival: int,
        size: tuple[int, ...],
        unit_value: float,
        sensitivity: Sensitivity = PATIENT,
    ) -> None:
        # Every check runs in C builtins; bool ids, sizes and arrivals pass,
        # as ints.  A positive int 1-tuple passes the first, direct
        # comparisons alone, and PATIENT its identity test.
        if type(id) is not int and not isinstance(id, int):
            raise ValueError(f"id must be an integer, got {id!r}")
        if type(arrival) is not int and not isinstance(arrival, int):
            raise ValueError(f"tx {id}: arrival must be an integer, got {arrival!r}")
        if arrival < 1:
            raise ValueError(f"tx {id}: arrival must be >= 1, got {arrival}")
        if not (type(size) is tuple and len(size) == 1 and type(size[0]) is int and size[0] > 0):
            if (
                not isinstance(size, tuple)
                or not size
                or not all(map(_is_instance, repeat(int), size))
                or min(size) < 0
            ):
                raise ValueError(
                    f"tx {id}: sizes must be nonnegative integer gas units, got {size}"
                )
            if max(size) <= 0:
                raise ValueError(f"tx {id}: at least one size entry must be positive")
        try:
            if not 0.0 <= unit_value < math.inf:
                raise ValueError(f"tx {id}: unit value must be finite and >= 0")
        except TypeError:  # a value that does not compare with floats
            raise ValueError(f"tx {id}: unit value must be a number, got {unit_value!r}") from None
        if type(unit_value) is bool:
            raise ValueError(f"tx {id}: unit value must be a number, got {unit_value!r}")
        if sensitivity is not PATIENT and type(sensitivity) not in _SENSITIVITIES:
            raise ValueError(f"tx {id}: unknown sensitivity {sensitivity!r}")
        set_id, set_arrival, set_size, set_unit_value, set_sensitivity = _TRANSACTION_SLOTS
        set_id(self, id)
        set_arrival(self, arrival)
        set_size(self, size)
        set_unit_value(self, unit_value)
        set_sensitivity(self, sensitivity)

    @property
    def q(self) -> int:
        """Resource-1 size (gas)."""
        return self.size[0]

    def value_at(self, t: int) -> float:
        """Per-unit value if executed at block ``t`` (>= arrival)."""
        sens = self.sensitivity
        if type(sens) is Patient:
            return self.unit_value
        if type(sens) is Discount:
            return self.unit_value * (1.0 - sens.rho) ** (t - self.arrival)
        # Patience
        return self.unit_value if t <= self.arrival + sens.window else 0.0


_TRANSACTION_SLOTS = _slot_setters(Transaction)


class ArrivalGenerator(Protocol):
    """Adaptive arrival stream: sees the previous block's executed outcome.

    Implementations must be deterministic functions of (their construction
    arguments, the execution history seen so far) and are single-run objects.
    """

    def arrivals(self, t: int, previous: "BlockRecord | None") -> list[Transaction]: ...


def _index_stream(index: dict, txs: Iterable[Transaction], m: int) -> dict:
    """Check each of ``txs`` against the stream in ``index`` so far and add
    it; return ``index``.  Raises ScenarioError on a size whose resource
    count is not ``m`` or on an id that an earlier transaction used."""
    for t_ in txs:
        if len(t_.size) != m:
            raise ScenarioError(
                f"tx {t_.id}: size has {len(t_.size)} resources, scenario has {m}"
            )
        if t_.id in index:
            raise ScenarioError(f"duplicate transaction id {t_.id}")
        index[t_.id] = t_
    return index


@dataclass(frozen=True)
class _Stream:
    """An arrival stream over ``m`` resources, an int of at least 1 given by
    keyword.  The stream carries no target size: a run's targets are its
    ``MechanismParams.B``, and an optimum's or a verifier's cap is its own
    argument."""

    m: int = field(default=1, kw_only=True)

    def __post_init__(self) -> None:
        m = self.m
        if type(m) is not int or m < 1:
            raise ScenarioError(f"resource count m must be an integer >= 1, got {m!r}")


@dataclass(frozen=True)
class Scenario(_Stream):
    """A static arrival stream over ``m`` resources, checked once.

    Building one checks the stream (ScenarioError on a size whose resource
    count is not the scenario's or on a repeated id), freezes it as a tuple
    and indexes it by id, so a scenario that exists is valid; ``index()``
    hands out a read-only view, and only the package's own loops read the
    dict ``_index``.  A file scenario's reader and an adaptive run hand over
    the checked index they built as ``_index``; one that does not hold
    exactly ``transactions``, or was checked against another ``m``, is
    ignored and the index is rebuilt.  How many
    blocks to run it for is the caller's choice (a builtin's is
    ``ScenarioBundle.horizon``), and a file keeps the stream's order, so
    every scenario equals its file round trip.
    """

    transactions: tuple[Transaction, ...] = ()
    _index: dict[int, Transaction] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        txs = tuple(self.transactions)
        index = self._index
        if index is None or len(index) != len(txs) or not all(map(is_, index.values(), txs)):
            index = _index_stream({}, txs, self.m)
        elif txs and len(txs[0].size) != self.m:
            # an index checked against another m: every size has that length
            index = _index_stream({}, txs, self.m)
        object.__setattr__(self, "transactions", txs)
        object.__setattr__(self, "_index", index)

    def index(self) -> Mapping[int, Transaction]:
        """Read-only id -> transaction view over the stream, in stream order."""
        return MappingProxyType(self._index)

    def arrivals_by_time(self) -> dict[int, list[Transaction]]:
        by_t: dict[int, list[Transaction]] = {}
        for t_ in self.transactions:
            by_t.setdefault(t_.arrival, []).append(t_)
        return by_t


@dataclass(frozen=True)
class AdaptiveScenario(_Stream):
    """An adaptive arrival generator over ``m`` resources.  The engines
    run it; a run's realized stream is a ``Scenario``
    (``RunResult.scenario``), which the verifiers and offline optima take.
    They all read a stream through ``index``, ``_index`` or
    ``arrivals_by_time``, which here raise a ScenarioError saying so."""

    generator: ArrivalGenerator

    def index(self) -> NoReturn:
        raise ScenarioError(
            "an adaptive scenario has no stream until it runs;"
            " pass the run's realized stream, RunResult.scenario"
        )

    arrivals_by_time = index
    _index = property(index)


# ---------------------------------------------------------------------------
# Schedules and run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class ScheduleEntry:
    tx: int
    time: int
    fraction: float

    def __init__(self, tx: int, time: int, fraction: float) -> None:
        set_tx, set_time, set_fraction = _SCHEDULE_ENTRY_SLOTS
        set_tx(self, tx)
        set_time(self, time)
        set_fraction(self, fraction)


_SCHEDULE_ENTRY_SLOTS = _slot_setters(ScheduleEntry)


@dataclass
class Schedule:
    """Assignment of transaction portions to block times.

    ``integral`` asserts that every fraction is 1 and each transaction
    appears at most once; fractional schedules allow x in (0, 1] with per-
    transaction totals <= 1.
    """

    entries: list[ScheduleEntry]
    integral: bool = False

    def support(self) -> tuple[int, int] | None:
        """(first, last) block time carrying any entry, or None if empty."""
        if not self.entries:
            return None
        times = [e.time for e in self.entries]
        return min(times), max(times)


@dataclass(frozen=True, slots=True, init=False)
class BlockRecord:
    """Per-block trace row: posted log-prices, capacities, executions.

    ``executed`` lists (transaction id, fraction) in admission order;
    ``sizes`` is the per-resource block size vector Q_t implied by them.
    """

    time: int
    log_prices: tuple[float, ...]
    capacities: tuple[float, ...]
    executed: tuple[tuple[int, float], ...]
    sizes: tuple[float, ...]
    cumulative_welfare: float

    def __init__(
        self,
        time: int,
        log_prices: tuple[float, ...],
        capacities: tuple[float, ...],
        executed: tuple[tuple[int, float], ...],
        sizes: tuple[float, ...],
        cumulative_welfare: float,
    ) -> None:
        set_time, set_prices, set_capacities, set_executed, set_sizes, set_welfare = (
            _BLOCK_RECORD_SLOTS
        )
        set_time(self, time)
        set_prices(self, log_prices)
        set_capacities(self, capacities)
        set_executed(self, executed)
        set_sizes(self, sizes)
        set_welfare(self, cumulative_welfare)


_BLOCK_RECORD_SLOTS = _slot_setters(BlockRecord)


@dataclass
class RunTrace:
    records: list[BlockRecord]

    def sizes(self, resource: int = 0) -> list[float]:
        return [r.sizes[resource] for r in self.records]

    def first_nonempty(self) -> int | None:
        for r in self.records:
            if r.executed:
                return r.time
        return None


def _unknown(tx: int) -> InvalidScheduleError:
    return InvalidScheduleError(f"entry references unknown transaction id {tx}")


def validate_schedule(schedule: Schedule, scenario: Scenario) -> None:
    """Raise InvalidScheduleError unless the schedule is well formed.

    Checks: known transaction ids, no entry before arrival, fractions in
    (0, 1], per-transaction totals <= 1, and the integral flag's meaning.
    """
    totals: dict[int, float] = {}
    seen_integral: set[int] = set()
    index = scenario._index
    for e in schedule.entries:
        t_ = index.get(e.tx)
        if t_ is None:
            raise _unknown(e.tx)
        if e.time < t_.arrival:
            raise InvalidScheduleError(
                f"tx {e.tx} scheduled at {e.time} before arrival {t_.arrival}"
            )
        if not (0.0 < e.fraction <= 1.0 + LOG_EPS):
            raise InvalidScheduleError(f"tx {e.tx}: fraction {e.fraction} outside (0, 1]")
        totals[e.tx] = totals.get(e.tx, 0.0) + e.fraction
        if schedule.integral:
            if e.fraction != 1.0:
                raise InvalidScheduleError(
                    f"integral schedule carries fraction {e.fraction} for tx {e.tx}"
                )
            if e.tx in seen_integral:
                raise InvalidScheduleError(f"integral schedule repeats tx {e.tx}")
            seen_integral.add(e.tx)
    for i, total in totals.items():
        if total > 1.0 + 1e-9:
            raise InvalidScheduleError(f"tx {i}: scheduled fractions sum to {total} > 1")


# ---------------------------------------------------------------------------
# Welfare and threshold-quantity accounting
# ---------------------------------------------------------------------------


def welfare(schedule: Schedule, scenario: Scenario, horizon: int) -> float:
    """Total value of portions executed in blocks 1..horizon.

    Each entry contributes ``fraction * q_i * v_i(t)`` where ``v_i(t)`` is the
    per-unit value at execution time under the transaction's sensitivity.
    """
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    index = scenario._index

    def terms() -> Iterator[float]:
        # the index lookup and value_at, inlined: this runs once per scheduled entry.
        for e in schedule.entries:
            t = e.time
            if 1 <= t <= horizon:
                t_ = index.get(e.tx)
                if t_ is None:
                    raise _unknown(e.tx)
                v = t_.unit_value if type(t_.sensitivity) is Patient else t_.value_at(t)
                yield e.fraction * t_.size[0] * v

    return math.fsum(terms())


def _suffix_sums(
    schedule: Schedule,
    scenario: Scenario,
    first: float,
    last: float,
    thetas: set[float] | None = None,
    patient: bool = False,
) -> tuple[list[float], list[float]]:
    """One pass over the entries with first <= time <= last: their
    ascending distinct unit values, and for each the resource-1 size at or
    above it, correctly rounded (a 0.0 ends the list).

    Every scheduled size is a float, so an exact integer multiple of 1/scale
    for the largest denominator ``scale`` among them; an entry with fraction
    1.0 adds its integer size (its float below 2**53), and only split
    entries use ``as_integer_ratio``.  One division rounds each integer
    suffix sum to the value ``math.fsum`` returns over the same sizes.  A
    set ``thetas`` gets every entry's unit value, in the window or not;
    ``patient`` rejects a window entry whose value is not patient."""
    index = scenario._index
    totals: dict[float, int] = {}  # unit value -> its entries' size, as an integer
    split: list[tuple[float, int, int]] = []  # (unit value, size as a ratio)
    for e in schedule.entries:
        inside = first <= e.time <= last
        if inside or thetas is not None:
            t_ = index.get(e.tx)
            if t_ is None:
                raise _unknown(e.tx)
            v = t_.unit_value
            if thetas is not None:
                thetas.add(v)
                if not inside:
                    continue
            if patient and type(t_.sensitivity) is not Patient:
                raise UnsupportedSensitivityError(
                    "threshold-integral identity holds for patient values only"
                )
            fraction = e.fraction
            if fraction == 1.0:
                totals[v] = totals.get(v, 0) + t_.size[0]
            else:
                split.append((v, *(fraction * t_.size[0]).as_integer_ratio()))
    scale = max((d for _v, _n, d in split), default=1)
    if scale > 1:
        totals = {v: n * scale for v, n in totals.items()}
    for v, n, d in split:
        totals[v] = totals.get(v, 0) + n * (scale // d)
    values = sorted(totals)
    suffix = list(accumulate(map(totals.__getitem__, reversed(values))))
    suffix = list(map(truediv, reversed(suffix), repeat(scale)))
    suffix.append(0.0)
    return values, suffix


def quantity_curve(
    schedule: Schedule, scenario: Scenario, window: tuple[int, int]
) -> Callable[[float], float]:
    """The threshold-quantity curve theta -> quantity_above(theta) of one
    window: one ``_suffix_sums`` pass over the schedule, then O(log n) per
    theta for the correctly rounded sum of the sizes at or above it.  A NaN
    window end or theta raises ValueError."""
    a, b = window
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"window ends must be numbers, got {window}")
    if a > b:
        raise ValueError(f"window start {a} exceeds end {b}")
    values, suffix = _suffix_sums(schedule, scenario, a, b)

    def curve(theta: float) -> float:
        if math.isnan(theta):
            raise ValueError(f"theta must be a number, got {theta}")
        return suffix[bisect_left(values, theta)]

    return curve


def quantity_above(
    schedule: Schedule,
    scenario: Scenario,
    theta: float,
    window: tuple[int, int],
) -> float:
    """Resource-1 size scheduled in the window with unit value >= theta.

    The comparison is inclusive; thresholds apply to declared per-unit values
    regardless of time sensitivity.
    """
    return quantity_curve(schedule, scenario, window)(theta)


def welfare_via_threshold_integral(
    schedule: Schedule, scenario: Scenario, horizon: int
) -> float:
    """Welfare of blocks 1..horizon as the area under the threshold-quantity
    curve, a step function with breakpoints at the distinct scheduled unit
    values v(1) > ... > v(k): the sum of (v(j) - v(j+1)) * quantity_above(v(j))
    with v(k+1) = 0, each quantity from one ``_suffix_sums`` pass.  Only
    defined for patient values; distinct values are deduplicated exactly on
    the float value.
    """
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values, suffix = _suffix_sums(schedule, scenario, 1, horizon, patient=True)
    # ascending, so value j's lower neighbour is value j - 1, and 0.0 below the least
    return math.fsum(map(mul, map(sub, values, [0.0, *values]), suffix))


# ---------------------------------------------------------------------------
# Block-size verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowViolation:
    resource: int
    start: int
    end: int
    total: float
    bound: float

    def to_json(self) -> dict:
        return {
            "resource": self.resource,
            "window": [self.start, self.end],
            "lhs": self.total,
            "rhs": self.bound,
        }


@dataclass
class BlockSizeReport:
    violation_count: int
    first_violation: WindowViolation | None
    max_slackness: float

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def constant_slack(delta: float) -> float:
    """The constant slackness delta, as ``check_avg_block_size`` takes it.

    ``slack`` was once a function of the window length; it is now the
    constant itself, and this returns it unchanged for callers written
    against the old form (``perfbench/workloads.py`` among them).
    """
    return float(delta)


def _block_columns(schedule: Schedule, scenario: Scenario) -> list[dict[int, float]]:
    """Per resource, its size in each block: one float per block, summed in
    entry order, so every column holds the same blocks in the same order."""
    index = scenario._index
    columns = []
    for j in range(scenario.m):
        out: dict[int, float] = {}
        for e in schedule.entries:
            t_ = index.get(e.tx)
            if t_ is None:
                raise _unknown(e.tx)
            time = e.time
            out[time] = out.get(time, 0.0) + e.fraction * t_.size[j]
        columns.append(out)
    return columns


def block_sizes(schedule: Schedule, scenario: Scenario) -> dict[int, tuple[float, ...]]:
    """Per-block size vectors Q_t implied by the schedule."""
    columns = _block_columns(schedule, scenario)
    return dict(zip(columns[0], zip(*map(dict.values, columns))))


def _per_resource(B: float | Iterable[float], m: int) -> tuple[float, ...]:
    """One float per resource: an iterable as given, a scalar repeated m times."""
    return tuple(float(b) for b in B) if isinstance(B, Iterable) else (float(B),) * m


# Relative width of the rounding band around the float window passes below:
# 32 units in the last place of the largest magnitude they handle, several
# times the rounding error their handful of float operations can add up to.
_BAND = 2.0**-48


def _band(D: list[float], cut: float) -> Iterator[tuple[int, int]]:
    """Each (i, j), i < j, with D[j] - D[i] >= cut, ordered by j then i.

    One running-minimum pass over D finds the ends j with
    D[j] - min(D[:j]) >= cut; only their starts are scanned.  A NaN cut
    admits no pair, a -inf cut every pair.
    """
    lows = accumulate(D, min)  # lows[j - 1] = min(D[:j])
    for j in compress(range(1, len(D)), map(ge, map(sub, D[1:], lows), repeat(cut))):
        dj = D[j]
        for i in range(j):
            if dj - D[i] >= cut:
                yield i, j


def _block_prefix_sums(
    schedule: Schedule, scenario: Scenario, B: float | Iterable[float]
) -> tuple[int, list[tuple[float, list[float]]]]:
    """(first block of the support, per resource j the pair (B_j, P)), where
    P[i] is the total size of the support's first i blocks, P[0] = 0."""
    targets = _per_resource(B, scenario.m)
    if len(targets) != scenario.m:
        raise ValueError(f"expected {scenario.m} targets, got {len(targets)}")
    if not all(0.0 < b < math.inf for b in targets):
        raise ValueError(f"targets must be positive and finite, got {targets}")
    columns = _block_columns(schedule, scenario)
    if not columns[0]:
        return 0, [(b, [0.0]) for b in targets]
    lo, hi = min(columns[0]), max(columns[0])
    return lo, [
        (b, list(accumulate(map(col.get, range(lo, hi + 1), repeat(0.0)), initial=0.0)))
        for b, col in zip(targets, columns)
    ]


def _window_violations(
    lo: int, columns: list[tuple[float, list[float]]], delta: float
) -> tuple[int, WindowViolation | None]:
    """(count, first) of the windows (i, j] of every resource whose total
    P[j] - P[i] exceeds (k + delta) * B_j * (1 + REL_TOL), k = j - i; first
    by resource, then k, then i, or None.

    With B' = B_j * (1 + REL_TOL) and D[i] = P[i] - i * B', a window
    violates about where D[j] - D[i] > delta * B'.  ``_band`` yields the
    windows within a rounding band of that, by j then i (so a k's first has
    the least i); only they get the exact float test.  A NaN or +inf delta
    makes the cut NaN and admits no window, -inf every window, as that test does.
    """
    scale = 1.0 + REL_TOL
    count, first = 0, None
    for resource, (bj, P) in enumerate(columns):
        n = len(P) - 1
        step = bj * scale
        D = list(map(sub, P, map(mul, range(len(P)), repeat(step))))
        cut = delta * step - _BAND * (2.0 * max(map(abs, P)) + (n + abs(delta)) * step)
        shortest = math.inf if first is None else 0  # an earlier resource's stays first
        for i, j in _band(D, cut):
            total = P[j] - P[i]
            bound = (j - i + delta) * bj
            if total > bound * scale:
                count += 1
                if j - i < shortest:
                    shortest = j - i
                    first = WindowViolation(resource, lo + i, lo + j - 1, total, bound)
    return count, first


def _max_slackness(columns: list[tuple[float, list[float]]]) -> float:
    """max(0, max over resources and windows (i, j] of
    (P[j] - P[i]) / B_j - (j - i)), bit for bit as that float expression.

    With E[i] = P[i] - i * B_j the window's slackness is about
    (E[j] - E[i]) / B_j.  A running-minimum pass finds the largest gap G;
    only windows whose gap lies within a rounding band of G can hold the
    float maximum, and only they (``_band``) are evaluated.  Where many
    windows tie (every block exactly B_j) the band holds O(n^2) of them.
    """
    best = 0.0
    for bj, P in columns:
        n = len(P) - 1
        if n == 0:
            continue
        E = list(map(sub, P, map(mul, range(len(P)), repeat(bj))))
        gap = max(map(sub, E[1:], accumulate(E, min)))
        for i, j in _band(E, gap - _BAND * (2.0 * max(map(abs, P)) + n * bj)):
            best = max(best, (P[j] - P[i]) / bj - (j - i))
    return best


def check_avg_block_size(
    schedule: Schedule,
    scenario: Scenario,
    B: float | Iterable[float],
    slack: float,
) -> BlockSizeReport:
    """Verify the windowed average-size limit with constant slackness delta.

    For every window [t0, t1] within the schedule's support and every
    resource j, checks sum_t Q_{t,j} <= (k + delta) * B_j with
    k = t1 - t0 + 1; equality is a pass, with 1e-9 relative slack.  The report
    counts the violating windows and keeps the first (by resource, k, t0).
    ``B`` is one target for every resource or one per resource.

    Count, first window and ``max_slackness`` come from ``_band`` walks over
    prefix sums; only windows in a rounding band of the bound (or maximum)
    get the all-windows check's float expression, so all match it bit for
    bit.  Memory is O(n) for n blocks; time is O(n) plus the windows in the
    band, which is O(n^2) when many windows fail or tie at B.  A NaN or
    infinite ``slack`` raises ValueError; a negative finite one is allowed.
    """
    delta = float(slack)
    if not math.isfinite(delta):
        raise ValueError(f"slack must be finite, got {slack}")
    lo, columns = _block_prefix_sums(schedule, scenario, B)
    count, first = _window_violations(lo, columns, delta)
    return BlockSizeReport(count, first, _max_slackness(columns))


def measured_slackness(
    schedule: Schedule, scenario: Scenario, B: float | Iterable[float]
) -> float:
    """Smallest constant slackness the schedule satisfies: max over windows of
    (window total / B_j) - k."""
    return _max_slackness(_block_prefix_sums(schedule, scenario, B)[1])


def max_block_size(schedule: Schedule, scenario: Scenario) -> tuple[float, ...]:
    """Component-wise maximum block size over all times."""
    return tuple(max(col.values(), default=0.0) for col in _block_columns(schedule, scenario))


# ---------------------------------------------------------------------------
# Serialization (JSON / JSON-lines)
# ---------------------------------------------------------------------------
#
# The writers emit the bytes json.dumps writes.  json.dumps formats an int
# with int.__repr__ and a finite float with float.__repr__, and str() of an
# exact int or float is that repr, so a line whose fields all have the exact
# type they should (and whose floats are finite) is one f-string.  Any other
# line goes through json.dumps: several resources, a discount or patience
# sensitivity, a non-finite float (json writes Infinity), an int or float
# subclass.  The scenario and schedule writers write a bool id, arrival,
# size or time as the int it stands for (``_unbool``), so that it reads back.
#
# The readers parse each line with one json.loads (but for the scenario
# reader's template lines, below) and build its records directly.  An
# integer field must hold a number equal to an integer: 5.0 reads as 5; 5.5,
# "5" and true are rejected.  A float field must hold a number: 5 reads as
# 5.0; "5" and true are rejected.  A key that the format does not name is
# rejected, in a header, an event, a sens object, a schedule or one of its
# entries.
#
# scenario_from_jsonl reads the line form scenario_to_jsonl's f-string writes
# without json.loads: _TEMPLATE_EVENT matches exactly that form, and a
# matched line's Transaction is built from the captured digits.  The pattern
# admits only what json.loads reads to the same values:
#   - ASCII digits: [0-9], never \d, which matches digits that int() reads
#     and json rejects;
#   - numbers without a plus sign, underscore or leading zero; the minus
#     the writer puts on a negative id or on -0.0 reads the same both ways;
#     t and q are positive, as a one-resource Transaction's are;
#   - a v with a fraction or an exponent: json reads a bare integer as an
#     int, which _number rejects when it is too large for a float, where
#     float() would return inf.
# Every other line (blank, another sensitivity, spacing or key order,
# several resources, NaN, ...) goes through json.loads as before, so the
# records, errors and line numbers are those of the json.loads path.

_PATIENT_JSON = {"kind": "patient"}
_EVENT_KEYS = ("t", "id", "q", "v", "sens")

_TEMPLATE_EVENT = re.compile(
    r'\{"t": ([1-9][0-9]*), "id": (-?(?:0|[1-9][0-9]*)), "q": \[([1-9][0-9]*)\], '
    r'"v": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    r'"sens": \{"kind": "patient"\}\}'
).fullmatch


def _integer(x, name: str) -> int:
    """``x`` as an int, if it is a JSON number equal to one (an int, or a
    float without a fraction; not a bool, a string or null)."""
    if type(x) is int:
        return x
    if type(x) is float and x.is_integer():
        return int(x)
    raise ValueError(f"{name} must be an integer, got {x!r}")


def _number(x, name: str) -> float:
    """``x`` as a float, if it is a JSON number (an int or a float; not a
    bool, a string or null)."""
    if type(x) is not float and type(x) is not int:
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} is out of range") from None


def _unbool(x):
    """A bool as the int it stands for, which the readers accept where they
    reject JSON true and false; anything else as it is."""
    return int(x) if type(x) is bool else x


def _known_keys(obj, keys, what: str) -> None:
    """Raise ValueError naming the first key of ``obj`` not in ``keys``."""
    for k in obj:
        if k not in keys:
            raise ValueError(f"{what} has unknown key {k!r}")


def _sens_to_json(s: Sensitivity) -> dict:
    if type(s) is Patient:
        return {"kind": "patient"}
    if type(s) is Discount:
        return {"kind": "discount", "rho": s.rho}
    return {"kind": "patience", "p": s.window}


_SENS_KEYS = {"patient": ("kind",), "discount": ("kind", "rho"), "patience": ("kind", "p")}


def _sens_from_json(d: object) -> Sensitivity:
    if type(d) is not dict:
        raise TypeError(f"sens must be an object, got {d!r}")
    kind = d.get("kind")
    if type(kind) is not str or kind not in _SENS_KEYS:
        raise ValueError(f"unknown sensitivity kind {kind!r}")
    _known_keys(d, _SENS_KEYS[kind], "sens")
    if kind == "patient":
        return PATIENT
    if kind == "discount":
        return Discount(rho=_number(d["rho"], "rho"))
    return Patience(window=_integer(d["p"], "patience window"))


def scenario_to_jsonl(scenario: Scenario) -> str:
    """One header line {m} then one line per arrival event, in the
    stream's order, so the file reads back as the same stream."""
    return "".join(_scenario_lines(scenario))


def _scenario_lines(scenario: Scenario) -> Iterator[str]:
    """The lines of ``scenario_to_jsonl``, each with its newline."""
    yield json.dumps({"m": scenario.m}) + "\n"
    for t_ in scenario.transactions:
        a, i, size, v = t_.arrival, t_.id, t_.size, t_.unit_value
        # A Transaction's unit value is finite.
        if (
            type(v) is float
            and type(a) is int
            and type(i) is int
            and type(t_.sensitivity) is Patient
            and len(size) == 1
            and type(size[0]) is int
        ):
            yield (
                f'{{"t": {a}, "id": {i}, "q": [{size[0]}], "v": {v}, '
                '"sens": {"kind": "patient"}}\n'
            )
        else:
            yield json.dumps(
                {
                    "t": _unbool(a),
                    "id": _unbool(i),
                    "q": list(map(_unbool, size)),
                    "v": v,
                    "sens": _sens_to_json(t_.sensitivity),
                }
            ) + "\n"


def scenario_from_jsonl(text: str) -> Scenario:
    """Parse ``scenario_to_jsonl`` output.  The text's lines are those of
    ``text.splitlines()``.  Blank lines are skipped but counted, so an error
    names the line of the text it comes from.  The header's ``m`` is an
    integer of at least 1, every event's size has ``m`` entries, and an id
    repeated on a later line is an error of that line.  The id index built
    while reading becomes the scenario's own.  The CLI reads a scenario
    file through the same parser a chunk at a time, so it never holds the
    file's whole text."""
    return _scenario_from_lines(text.splitlines())


def _scenario_from_lines(lines: Iterable[str]) -> Scenario:
    """The scenario of a scenario file's lines, without their line breaks,
    as ``scenario_from_jsonl`` reads them; ``lines`` is read once, in order."""
    rows = enumerate(lines, start=1)
    for no, ln in rows:
        if ln.strip():
            break
    else:
        raise ScenarioError("line 1: missing scenario header")
    try:
        header = json.loads(ln)
        if type(header) is not dict or "m" not in header:
            raise ScenarioError(f"line {no}: expected header with m")
        # Ignoring either would silently run an old file another way.
        if "seed" in header:
            raise ValueError(
                "the random order's seed now goes in the policy config, as"
                f' {{"policy": "random", "seed": {json.dumps(header["seed"])}}}'
            )
        if "B" in header:
            raise ValueError("the target size B now goes in the mechanism config, not the header")
        _known_keys(header, ("m",), "header")
        m = _integer(header["m"], "m")
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
    except JSONDecodeError as exc:
        raise ScenarioError(f"line {no}: invalid JSON ({exc.msg})") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"line {no}: bad header ({exc})") from exc
    loads, template = json.loads, _TEMPLATE_EVENT
    index: dict[int, Transaction] = {}  # in line order
    # Equal sizes share one tuple, and a line arriving with the line before
    # shares its int.
    share_size, last_t = {}.setdefault, None
    for no, ln in rows:
        try:
            hit = template(ln)
            if hit is not None:
                t, i, q, v = hit.groups()
                # Converted in line order, as json.loads would.
                t, i, q = int(t), int(i), int(q)
                if m != 1:
                    raise ValueError(f"tx {i}: size has 1 resources, scenario has {m}")
                if t != last_t:
                    last_t = t
                size = (q,)
                txn = Transaction(i, last_t, share_size(size, size), float(v), PATIENT)
            elif not ln.strip():
                continue
            else:
                obj = loads(ln)
                i, t, q = obj["id"], obj["t"], obj["q"]
                _known_keys(obj, _EVENT_KEYS, "event")
                ii, tt, size = int(i), int(t), tuple(map(int, q))
                # A bool equals the int it stands for; q is a list once
                # it equals one.
                if ii != i or tt != t or list(size) != q or bool in map(type, (i, t, *q)):
                    raise ValueError(
                        f"t, id and q must be integers, got t={t!r}, id={i!r}, q={q!r}"
                    )
                if len(size) != m:
                    raise ValueError(f"tx {ii}: size has {len(size)} resources, scenario has {m}")
                if tt != last_t:
                    last_t = tt
                sens = obj.get("sens", _PATIENT_JSON)
                txn = Transaction(
                    ii,
                    last_t,
                    share_size(size, size),
                    _number(obj["v"], "v"),
                    PATIENT if sens == _PATIENT_JSON else _sens_from_json(sens),
                )
            i = txn.id
            if i in index:
                raise ValueError(f"duplicate transaction id {i}")
            index[i] = txn
        except JSONDecodeError as exc:
            raise ScenarioError(f"line {no}: invalid JSON ({exc.msg})") from exc
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(f"line {no}: bad event record ({exc})") from exc
    return Scenario(tuple(index.values()), m=m, _index=index)


def schedule_to_json(schedule: Schedule) -> str:
    entries, integral = schedule.entries, schedule.integral
    parts = [
        f'{{"id": {i}, "t": {t}, "frac": {f}}}'
        for i, t, f in map(attrgetter("tx", "time", "fraction"), entries)
        if type(i) is int and type(t) is int and type(f) is float and -math.inf < f < math.inf
    ]
    if len(parts) == len(entries) and type(integral) is bool:
        return f'{{"integral": {"true" if integral else "false"}, "entries": [{", ".join(parts)}]}}'
    return json.dumps(
        {
            "integral": integral,
            "entries": [
                {"id": _unbool(e.tx), "t": _unbool(e.time), "frac": e.fraction}
                for e in entries
            ],
        }
    )


def schedule_from_json(text: str) -> Schedule:
    try:
        obj = json.loads(text)
        entries = []
        append = entries.append
        raw = obj["entries"]
        _known_keys(obj, ("integral", "entries"), "schedule")
        # An entry in the block of the entry before shares its t, and every
        # whole entry one 1.0.
        last_t, one = None, 1.0
        for e in raw:
            i, t = e["id"], e["t"]
            if len(e) != 3:  # one C-level test per entry; the key is named on failure
                _known_keys(e, ("id", "t", "frac"), "schedule entry")
            ii, tt = int(i), int(t)
            if ii != i or tt != t or type(i) is bool or type(t) is bool:
                raise ValueError(f"entry id and t must be integers, got id={i!r}, t={t!r}")
            if tt != last_t:
                last_t = tt
            f = _number(e["frac"], "frac")
            append(ScheduleEntry(ii, last_t, one if f == one else f))
        integral = obj["integral"]
        if type(integral) is not bool:
            raise TypeError(f"integral must be true or false, got {integral!r}")
        return Schedule(entries, integral)
    except (JSONDecodeError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidScheduleError(f"bad schedule JSON: {exc}") from exc


def trace_to_jsonl(trace: RunTrace) -> str:
    """One line per block: posted price, capacity, executions, sizes, welfare."""
    return "".join(_trace_lines(trace))


def _trace_lines(trace: RunTrace) -> Iterator[str]:
    """The lines of ``trace_to_jsonl``, each with its newline; a trace
    without records is one empty line."""
    if not trace.records:
        yield "\n"
    for r in trace.records:
        t, executed, w = r.time, r.executed, r.cumulative_welfare
        if len(r.log_prices) == 1:
            p, b, q = math.exp(r.log_prices[0]), r.capacities[0], r.sizes[0]
            parts = [
                f'{{"id": {i}, "frac": {f}}}'
                for i, f in executed
                if type(i) is int and type(f) is float and -math.inf < f < math.inf
            ]
            # A sum of floats is finite only if every term is.
            if (
                len(parts) == len(executed)
                and type(t) is int
                and type(b) is float
                and type(q) is float
                and type(w) is float
                and -math.inf < p + b + q + w < math.inf
            ):
                yield (
                    f'{{"t": {t}, "p": {p}, "B_t": {b}, "executed": [{", ".join(parts)}], '
                    f'"Q": {q}, "cum_welfare": {w}}}\n'
                )
                continue
        single = len(r.log_prices) == 1
        prices = [math.exp(lp) for lp in r.log_prices]
        yield json.dumps(
            {
                "t": t,
                "p": prices[0] if single else prices,
                "B_t": r.capacities[0] if single else list(r.capacities),
                "executed": [{"id": i, "frac": f} for i, f in executed],
                "Q": r.sizes[0] if single else list(r.sizes),
                "cum_welfare": w,
            }
        ) + "\n"
