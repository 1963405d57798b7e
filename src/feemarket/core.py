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
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Mapping, Protocol, Sequence, Union

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
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"discount factor must be in [0, 1), got {self.rho}")


@dataclass(frozen=True, slots=True)
class Patience:
    """Full value for ``window`` blocks after arrival, zero afterwards."""

    window: int

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"patience window must be >= 0, got {self.window}")


Sensitivity = Union[Patient, Discount, Patience]
PATIENT = Patient()


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.arrival < 1:
            raise ValueError(f"tx {self.id}: arrival must be >= 1, got {self.arrival}")
        if not self.size or any(not isinstance(q, int) or q < 0 for q in self.size):
            raise ValueError(
                f"tx {self.id}: sizes must be nonnegative integer gas units, got {self.size}"
            )
        if not any(q > 0 for q in self.size):
            raise ValueError(f"tx {self.id}: at least one size entry must be positive")
        if not (self.unit_value >= 0.0) or math.isinf(self.unit_value):
            raise ValueError(f"tx {self.id}: unit value must be finite and >= 0")

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


def tx(
    id: int,
    arrival: int,
    q: int | Sequence[int],
    v: float,
    sensitivity: Sensitivity = PATIENT,
) -> Transaction:
    """Convenience constructor; promotes a scalar size to a 1-tuple."""
    size = (int(q),) if isinstance(q, int) else tuple(int(x) for x in q)
    return Transaction(id=id, arrival=arrival, size=size, unit_value=float(v), sensitivity=sensitivity)


class ArrivalGenerator(Protocol):
    """Adaptive arrival stream: sees the previous block's executed outcome.

    Implementations must be deterministic functions of (their construction
    arguments, the execution history seen so far) and are single-run objects.
    """

    def arrivals(self, t: int, previous: "BlockRecord | None") -> list[Transaction]: ...


@dataclass
class Scenario:
    """Resource capacities plus an arrival stream (static or adaptive).

    ``capacities`` are the per-resource targets B_j.  Exactly one of
    ``transactions`` (static) or ``generator`` (adaptive) supplies arrivals.
    Adaptive runs export their realized stream post-hoc via the runner.
    """

    capacities: tuple[float, ...]
    transactions: list[Transaction] = field(default_factory=list)
    generator: "ArrivalGenerator | None" = None
    horizon_hint: int | None = None
    seed: int = 0
    _index: dict[int, Transaction] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        caps = self.capacities
        if not caps or any(not math.isfinite(b) or b <= 0 for b in caps):
            raise ScenarioError(f"capacities must be positive and finite, got {caps}")
        self.capacities = tuple(float(b) for b in caps)

    @property
    def m(self) -> int:
        return len(self.capacities)

    def index(self) -> dict[int, Transaction]:
        """id -> transaction map over the (realized) static stream."""
        if self._index is None or len(self._index) != len(self.transactions):
            idx: dict[int, Transaction] = {}
            for t_ in self.transactions:
                if t_.id in idx:
                    raise ScenarioError(f"duplicate transaction id {t_.id}")
                idx[t_.id] = t_
            self._index = idx
        return self._index

    def arrivals_by_time(self) -> dict[int, list[Transaction]]:
        by_t: dict[int, list[Transaction]] = {}
        for t_ in self.transactions:
            by_t.setdefault(t_.arrival, []).append(t_)
        return by_t


# ---------------------------------------------------------------------------
# Schedules and run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    tx: int
    time: int
    fraction: float


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


@dataclass(frozen=True, slots=True)
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

    @property
    def price(self) -> float:
        """Posted price on resource 1 in linear space."""
        return math.exp(self.log_prices[0])


@dataclass
class RunTrace:
    records: list[BlockRecord]

    def prices(self, resource: int = 0) -> list[float]:
        return [math.exp(r.log_prices[resource]) for r in self.records]

    def log_prices(self, resource: int = 0) -> list[float]:
        return [r.log_prices[resource] for r in self.records]

    def sizes(self, resource: int = 0) -> list[float]:
        return [r.sizes[resource] for r in self.records]

    def first_nonempty(self) -> int | None:
        for r in self.records:
            if r.executed:
                return r.time
        return None


def validate_schedule(schedule: Schedule, scenario: Scenario) -> None:
    """Raise InvalidScheduleError unless the schedule is well formed.

    Checks: known transaction ids, no entry before arrival, fractions in
    (0, 1], per-transaction totals <= 1, and the integral flag's meaning.
    """
    index = scenario.index()
    totals: dict[int, float] = {}
    seen_integral: set[int] = set()
    for e in schedule.entries:
        t_ = index.get(e.tx)
        if t_ is None:
            raise InvalidScheduleError(f"entry references unknown transaction id {e.tx}")
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
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    index = scenario.index()
    terms = []
    for e in schedule.entries:
        if e.time > horizon:
            continue
        t_ = index.get(e.tx)
        if t_ is None:
            raise InvalidScheduleError(f"entry references unknown transaction id {e.tx}")
        terms.append(e.fraction * t_.q * t_.value_at(e.time))
    return math.fsum(terms)


def quantity_curve(
    schedule: Schedule, scenario: Scenario, window: tuple[int, int]
) -> Callable[[float], float]:
    """The threshold-quantity curve theta -> quantity_above(theta) of one
    window, built once in O(n log n) and evaluated in O(log n).

    Every scheduled size is a float, so an exact integer multiple of
    1/scale for the largest denominator ``scale`` among them.  Walking the
    distinct unit values in descending order keeps the integer suffix sums;
    one division rounds each correctly, to the value ``math.fsum`` returns
    over the same sizes.
    """
    a, b = window
    if a > b:
        raise ValueError(f"window start {a} exceeds end {b}")
    index = scenario.index()
    groups: dict[float, list[tuple[int, int]]] = {}
    for e in schedule.entries:
        if not (a <= e.time <= b):
            continue
        t_ = index.get(e.tx)
        if t_ is None:
            raise InvalidScheduleError(f"entry references unknown transaction id {e.tx}")
        groups.setdefault(t_.unit_value, []).append((e.fraction * t_.q).as_integer_ratio())
    values = sorted(groups)
    scale = max((d for group in groups.values() for _n, d in group), default=1)
    suffix = [0.0] * (len(values) + 1)
    total = 0
    for i in range(len(values) - 1, -1, -1):
        for n, d in groups[values[i]]:
            total += n * (scale // d)
        suffix[i] = total / scale
    return lambda theta: suffix[bisect_left(values, theta)]


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
    """Welfare computed as the area under the threshold-quantity curve.

    The curve theta -> quantity_above(theta) is a step function whose
    breakpoints are the distinct scheduled unit values v(1) > ... > v(k), so
    the area is the finite sum of (v(j) - v(j+1)) * quantity_above(v(j)) with
    v(k+1) = 0.  Each quantity is the exact suffix sum of the sizes at or
    above v(j), correctly rounded (``quantity_curve``), so the whole identity
    costs O(n log n).  Only defined for patient values; distinct values are
    deduplicated exactly on the float value.
    """
    index = scenario.index()
    values: set[float] = set()
    for e in schedule.entries:
        if e.time > horizon:
            continue
        t_ = index.get(e.tx)
        if t_ is None:
            raise InvalidScheduleError(f"entry references unknown transaction id {e.tx}")
        if type(t_.sensitivity) is not Patient:
            raise UnsupportedSensitivityError(
                "threshold-integral identity holds for patient values only"
            )
        if t_.unit_value > 0.0:
            values.add(t_.unit_value)
    if not values:
        return 0.0
    ordered = sorted(values, reverse=True)
    quantity = quantity_curve(schedule, scenario, (1, horizon))
    terms = []
    for j, v in enumerate(ordered):
        nxt = ordered[j + 1] if j + 1 < len(ordered) else 0.0
        terms.append((v - nxt) * quantity(v))
    return math.fsum(terms)


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
    passed: bool
    violations: list[WindowViolation]
    max_slackness: float

    def to_json(self) -> dict:
        return {
            "check": "avg_block_size",
            "pass": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "max_slackness": self.max_slackness,
        }


def constant_slack(delta: float) -> float:
    """The constant slackness delta, as ``check_avg_block_size`` takes it.

    ``slack`` was once a function of the window length; it is now the
    constant itself, and this returns it unchanged for callers written
    against the old form (``perfbench/workloads.py`` among them).
    """
    return float(delta)


def block_sizes(schedule: Schedule, scenario: Scenario) -> dict[int, tuple[float, ...]]:
    """Per-block size vectors Q_t implied by the schedule."""
    index = scenario.index()
    m = scenario.m
    out: dict[int, list[float]] = {}
    for e in schedule.entries:
        t_ = index.get(e.tx)
        if t_ is None:
            raise InvalidScheduleError(f"entry references unknown transaction id {e.tx}")
        row = out.setdefault(e.time, [0.0] * m)
        for j in range(m):
            row[j] += e.fraction * t_.size[j]
    return {t: tuple(v) for t, v in out.items()}


def _per_resource(B: float | Iterable[float], m: int) -> tuple[float, ...]:
    """One float per resource: an iterable as given, a scalar repeated m times."""
    return tuple(float(b) for b in B) if isinstance(B, Iterable) else (float(B),) * m


# Relative width of the rounding band around the float window passes below:
# 32 units in the last place of the largest magnitude they handle, several
# times the rounding error their handful of float operations can add up to.
_BAND = 2.0**-48


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
    sizes = block_sizes(schedule, scenario)
    if not sizes:
        return 0, [(b, [0.0]) for b in targets]
    lo, hi = min(sizes), max(sizes)
    empty = (0.0,) * scenario.m
    rows = [sizes.get(t, empty) for t in range(lo, hi + 1)]
    return lo, [
        (b, list(accumulate((row[j] for row in rows), initial=0.0)))
        for j, b in enumerate(targets)
    ]


def _window_violations(
    lo: int, columns: list[tuple[float, list[float]]], delta: float
) -> list[WindowViolation]:
    """Every window (i, j] of every resource whose total P[j] - P[i] exceeds
    (k + delta) * B_j * (1 + REL_TOL), k = j - i, by resource, then k, then i.

    With B' = B_j * (1 + REL_TOL) and D[i] = P[i] - i * B', a window
    violates about where D[j] - D[i] > delta * B'.  One running-minimum pass
    over D finds the ends j that come within a rounding band of that; only
    their windows are tested, with the exact float expression.  A NaN or
    +inf delta admits no window, -inf every window, as the exact test does.
    """
    scale = 1.0 + REL_TOL
    violations: list[WindowViolation] = []
    for resource, (bj, P) in enumerate(columns):
        n = len(P) - 1
        step = bj * scale
        D = [p - i * step for i, p in enumerate(P)]
        cut = delta * step - _BAND * (2.0 * max(map(abs, P)) + (n + abs(delta)) * step)
        found = []
        low = D[0]
        for j in range(1, n + 1):
            dj = D[j]
            if dj - low > cut:
                for i in range(j):
                    if dj - D[i] > cut:
                        total = P[j] - P[i]
                        bound = (j - i + delta) * bj
                        if total > bound * scale:
                            found.append((j - i, i, total, bound))
            low = min(low, dj)
        found.sort()
        violations.extend(
            WindowViolation(resource, lo + i, lo + i + k - 1, total, bound)
            for k, i, total, bound in found
        )
    return violations


def _max_slackness(columns: list[tuple[float, list[float]]]) -> float:
    """max(0, max over resources and windows (i, j] of
    (P[j] - P[i]) / B_j - (j - i)), bit for bit as that float expression.

    With E[i] = P[i] - i * B_j the window's slackness is about
    (E[j] - E[i]) / B_j.  A running-minimum pass finds the largest gap G;
    only windows whose gap lies within a rounding band of G can hold the
    float maximum, and only they are evaluated.  Where many windows tie
    (every block exactly B_j) the band holds O(n^2) of them.
    """
    best = 0.0
    for bj, P in columns:
        n = len(P) - 1
        if n == 0:
            continue
        E = [p - i * bj for i, p in enumerate(P)]
        gaps = [-math.inf] * (n + 1)
        low = E[0]
        for j in range(1, n + 1):
            gaps[j] = E[j] - low
            low = min(low, E[j])
        cut = max(gaps) - _BAND * (2.0 * max(map(abs, P)) + n * bj)
        for j in range(1, n + 1):
            if gaps[j] >= cut:
                ej, pj = E[j], P[j]
                for i in range(j):
                    if ej - E[i] >= cut:
                        best = max(best, (pj - P[i]) / bj - (j - i))
    return best


def _avg_block_violations(
    schedule: Schedule, scenario: Scenario, B: float | Iterable[float], slack: float
) -> list[WindowViolation]:
    """The violations ``check_avg_block_size`` reports, without its
    max-slackness pass."""
    lo, columns = _block_prefix_sums(schedule, scenario, B)
    return _window_violations(lo, columns, float(slack))


def check_avg_block_size(
    schedule: Schedule,
    scenario: Scenario,
    B: float | Iterable[float],
    slack: float,
) -> BlockSizeReport:
    """Verify the windowed average-size limit with constant slackness delta.

    For every window [t0, t1] within the schedule's support and every
    resource j, checks sum_t Q_{t,j} <= (k + delta) * B_j with
    k = t1 - t0 + 1; equality is a pass, with 1e-9 relative slack.  An empty
    report (no violations) means pass.  ``B`` is one target for every
    resource or one per resource.

    Both the violations and ``max_slackness`` come from O(n) running-minimum
    passes over prefix sums.  Only the windows within a rounding band of the
    bound (or of the maximum) are re-evaluated with the float expression of
    the direct all-windows check, so the report is the one that check gives,
    bit for bit.
    """
    lo, columns = _block_prefix_sums(schedule, scenario, B)
    violations = _window_violations(lo, columns, float(slack))
    return BlockSizeReport(
        passed=not violations, violations=violations, max_slackness=_max_slackness(columns)
    )


def measured_slackness(
    schedule: Schedule, scenario: Scenario, B: float | Iterable[float]
) -> float:
    """Smallest constant slackness the schedule satisfies: max over windows of
    (window total / B_j) - k."""
    return check_avg_block_size(schedule, scenario, B, math.inf).max_slackness


def max_block_size(schedule: Schedule, scenario: Scenario) -> tuple[float, ...]:
    """Component-wise maximum block size over all times."""
    sizes = block_sizes(schedule, scenario).values()
    if not sizes:
        return (0.0,) * scenario.m
    return tuple(max(row[j] for row in sizes) for j in range(scenario.m))


# ---------------------------------------------------------------------------
# Serialization (JSON / JSON-lines)
# ---------------------------------------------------------------------------


def _sens_to_json(s: Sensitivity) -> dict:
    if type(s) is Patient:
        return {"kind": "patient"}
    if type(s) is Discount:
        return {"kind": "discount", "rho": s.rho}
    return {"kind": "patience", "p": s.window}


def _sens_from_json(d: Mapping) -> Sensitivity:
    kind = d.get("kind")
    if kind == "patient":
        return PATIENT
    if kind == "discount":
        return Discount(rho=float(d["rho"]))
    if kind == "patience":
        return Patience(window=int(d["p"]))
    raise ScenarioError(f"unknown sensitivity kind {kind!r}")


def scenario_to_jsonl(scenario: Scenario) -> str:
    """One header line {m, B, seed} then one line per arrival event."""
    lines = [
        json.dumps(
            {"m": scenario.m, "B": list(scenario.capacities), "seed": scenario.seed}
        )
    ]
    for t_ in sorted(scenario.transactions, key=lambda x: (x.arrival, x.id)):
        lines.append(
            json.dumps(
                {
                    "t": t_.arrival,
                    "id": t_.id,
                    "q": list(t_.size),
                    "v": t_.unit_value,
                    "sens": _sens_to_json(t_.sensitivity),
                }
            )
        )
    return "\n".join(lines) + "\n"


def scenario_from_jsonl(text: str) -> Scenario:
    lines = [ln for ln in text.splitlines()]
    header = None
    txs: list[Transaction] = []
    for no, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"line {no}: invalid JSON ({exc.msg})") from exc
        if header is None:
            if not {"m", "B", "seed"} <= obj.keys():
                raise ScenarioError(f"line {no}: expected header with m, B, seed")
            header = obj
            continue
        try:
            txs.append(
                Transaction(
                    id=int(obj["id"]),
                    arrival=int(obj["t"]),
                    size=tuple(int(x) for x in obj["q"]),
                    unit_value=float(obj["v"]),
                    sensitivity=_sens_from_json(obj.get("sens", {"kind": "patient"})),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ScenarioError(f"line {no}: bad event record ({exc})") from exc
    if header is None:
        raise ScenarioError("line 1: missing scenario header")
    scn = Scenario(
        capacities=tuple(float(b) for b in header["B"]),
        transactions=txs,
        seed=int(header["seed"]),
    )
    if scn.m != int(header["m"]):
        raise ScenarioError("header resource count does not match capacities")
    scn.index()  # validates id uniqueness
    return scn


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(
        {
            "integral": schedule.integral,
            "entries": [
                {"id": e.tx, "t": e.time, "frac": e.fraction} for e in schedule.entries
            ],
        }
    )


def schedule_from_json(text: str) -> Schedule:
    try:
        obj = json.loads(text)
        entries = [
            ScheduleEntry(tx=int(e["id"]), time=int(e["t"]), fraction=float(e["frac"]))
            for e in obj["entries"]
        ]
        return Schedule(entries=entries, integral=bool(obj["integral"]))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise InvalidScheduleError(f"bad schedule JSON: {exc}") from exc


def trace_to_jsonl(trace: RunTrace) -> str:
    """One line per block: posted price, capacity, executions, sizes, welfare."""
    lines = []
    for r in trace.records:
        single = len(r.log_prices) == 1
        prices = [math.exp(lp) for lp in r.log_prices]
        lines.append(
            json.dumps(
                {
                    "t": r.time,
                    "p": prices[0] if single else prices,
                    "B_t": r.capacities[0] if single else list(r.capacities),
                    "executed": [{"id": i, "frac": f} for i, f in r.executed],
                    "Q": r.sizes[0] if single else list(r.sizes),
                    "cum_welfare": r.cumulative_welfare,
                }
            )
        )
    return "\n".join(lines) + "\n"
