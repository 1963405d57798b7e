"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's algorithms: the fractional optimum is
found by exhaustive enumeration over integer unit assignments (exact because
the feasible region's constraint matrix has consecutive ones, so it is
totally unimodular and an integer optimum exists), knapsacks by subset
enumeration, and window checks by direct enumeration of all windows.

The remaining oracles are the direct forms of the library's fast paths:
the all-windows block-size check, the threshold-integral identity with one
full scan per distinct value, threshold quantities and the threshold check
as one ``math.fsum`` per theta, block sizes summed entry by entry, the
fractional optimum's heap as it read the index for every step, block
assembly that sorts by tuple keys and
fit-tests every eligible transaction, a price engine that rescans its whole
pending pool every block, a greedy baseline that re-sorts its whole pool
every block, and JSON(-lines) writers and readers that build one dict per
record and convert it field by field.  The fast paths must match them bit
for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Sequence

from feemarket.adversary import (
    SeededRandom,
    TipPriority,
    ValueAscending,
    ValueDescending,
    block_rng,
)
from feemarket.core import (
    LOG_EPS,
    PATIENT,
    BlockRecord,
    Discount,
    InvalidScheduleError,
    Patience,
    Patient,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
)
from feemarket.mechanisms import OversizedTransactionError, eip_next_price


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


def _lookup(index: dict, tx: int) -> Transaction:
    if tx not in index:
        raise InvalidScheduleError(f"entry references unknown transaction id {tx}")
    return index[tx]


def fsum_threshold_quantity(
    schedule: Schedule, scenario: Scenario, theta: float, lo: float, hi: float
) -> float:
    """Resource-1 size in [lo, hi] at unit value >= theta, by ``math.fsum``
    over the qualifying sizes; an unknown id in the window raises."""
    index = {t.id: t for t in scenario.transactions}
    return math.fsum(
        e.fraction * _lookup(index, e.tx).size[0]
        for e in schedule.entries
        if lo <= e.time <= hi and _lookup(index, e.tx).unit_value >= theta
    )


def all_thetas_threshold_check(
    alg: Schedule, bench: Schedule, scenario: Scenario, horizon: int, gamma: int, eta: float
) -> tuple[int, tuple[float, float, float] | None, int]:
    """(violation count, first (theta, lhs, rhs) or None, thetas checked) of
    the threshold check: every distinct unit value of either schedule is a
    theta, and each side is one ``fsum_threshold_quantity`` per theta.  An
    unknown id raises, the benchmark's first."""
    index = {t.id: t for t in scenario.transactions}
    thetas = sorted(
        {_lookup(index, e.tx).unit_value for s in (bench, alg) for e in s.entries}
    )
    retained = math.exp(-eta)
    failed = []
    for theta in thetas:
        lhs = fsum_threshold_quantity(bench, scenario, theta, 1, horizon)
        rhs = fsum_threshold_quantity(alg, scenario, theta * retained, 1, horizon + gamma)
        if lhs > rhs * (1.0 + 1e-9) + 1e-12:
            failed.append((theta, lhs, rhs))
    return len(failed), failed[0] if failed else None, len(thetas)


def per_entry_block_sizes(schedule: Schedule, scenario: Scenario) -> dict:
    """Per-block size vectors, each entry added to its block's row in turn."""
    index = {t.id: t for t in scenario.transactions}
    rows: dict[int, list[float]] = {}
    for e in schedule.entries:
        t_ = _lookup(index, e.tx)
        row = rows.setdefault(e.time, [0.0] * scenario.m)
        for j in range(scenario.m):
            row[j] += e.fraction * t_.size[j]
    return {t: tuple(row) for t, row in rows.items()}


def reference_opt_fractional(scenario: Scenario, B: float, horizon: int) -> Schedule:
    """The per-block-cap fractional optimum with a heap of (-v, arrival, id)
    keys that looks each step's transaction up in the index."""
    import heapq

    by_time = scenario.arrivals_by_time()
    heap: list[tuple[float, int, int]] = []
    partial: dict[int, float] = {}
    index = {t.id: t for t in scenario.transactions}
    entries: list[ScheduleEntry] = []
    for t in range(1, horizon + 1):
        for txn in by_time.get(t, ()):
            heapq.heappush(heap, (-txn.unit_value, txn.arrival, txn.id))
        residual = float(B)
        while heap and residual > 1e-12 * B:
            _negv, _arr, tid = heap[0]
            txn = index[tid]
            rem = partial.get(tid, 1.0)
            take = min(rem, residual / txn.q)
            if take <= 0:
                heapq.heappop(heap)
                continue
            entries.append(ScheduleEntry(tx=tid, time=t, fraction=take))
            residual -= take * txn.q
            rem -= take
            if rem <= 1e-12:
                partial.pop(tid, None)
                heapq.heappop(heap)
            else:
                partial[tid] = rem
                break
    return Schedule(entries=entries, integral=False)


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
        rng = block_rng(policy.seed, t) if isinstance(policy, SeededRandom) else None
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


def reference_greedy_online(
    scenario: Scenario, B: float, horizon: int, max_block: float | None = None
) -> tuple[RunTrace, Schedule]:
    """The greedy baseline on a static scenario, re-sorting the whole pending
    pool by (-v, arrival, id) every block and fit-testing every transaction
    in that order until the running target is met."""
    cap = math.inf if max_block is None else float(max_block)
    pool: list[Transaction] = []
    records = []
    entries = []
    cum = 0.0
    virtual_cum = 0.0
    for t in range(1, horizon + 1):
        for txn in scenario.transactions:
            if txn.arrival == t:
                if txn.q > B:
                    raise OversizedTransactionError(f"tx {txn.id} exceeds {B}")
                pool.append(txn)
        target = t * B
        used = 0.0
        chosen = []
        for txn in sorted(pool, key=lambda x: (-x.unit_value, x.arrival, x.id)):
            if virtual_cum >= target - 1e-9:
                break
            if used + txn.q <= cap + 1e-9:
                used += txn.q
                virtual_cum += txn.q
                chosen.append(txn)
        virtual_cum = max(virtual_cum, target)
        done = {txn.id for txn in chosen}
        pool = [txn for txn in pool if txn.id not in done]
        cum += math.fsum(txn.q * txn.value_at(t) for txn in chosen)
        lowest = min((txn.unit_value for txn in chosen), default=None)
        records.append(
            BlockRecord(
                time=t,
                # ln 0 = -inf, for an empty block and for a lowest value 0.0
                log_prices=(math.log(lowest) if lowest else -math.inf,),
                capacities=(cap,),
                executed=tuple((txn.id, 1.0) for txn in chosen),
                sizes=(used,),
                cumulative_welfare=cum,
            )
        )
        entries += [ScheduleEntry(txn.id, t, 1.0) for txn in chosen]
    return RunTrace(records), Schedule(entries, integral=True)


def _reference_sens_to_json(s) -> dict:
    if type(s) is Patient:
        return {"kind": "patient"}
    if type(s) is Discount:
        return {"kind": "discount", "rho": s.rho}
    return {"kind": "patience", "p": s.window}


def _reference_unbool(x):
    """The readers reject JSON true and false as integers, so the writers
    write a bool as the int it equals."""
    return 1 if x is True else 0 if x is False else x


def reference_scenario_to_jsonl(scenario: Scenario) -> str:
    """One json.dumps per line: the header, then each event in the stream's
    order."""
    lines = [json.dumps({"m": scenario.m})]
    for t_ in scenario.transactions:
        lines.append(
            json.dumps(
                {
                    "t": _reference_unbool(t_.arrival),
                    "id": _reference_unbool(t_.id),
                    "q": [_reference_unbool(x) for x in t_.size],
                    "v": t_.unit_value,
                    "sens": _reference_sens_to_json(t_.sensitivity),
                }
            )
        )
    return "\n".join(lines) + "\n"


def reference_schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(
        {
            "integral": schedule.integral,
            "entries": [
                {"id": _reference_unbool(e.tx), "t": _reference_unbool(e.time), "frac": e.fraction}
                for e in schedule.entries
            ],
        }
    )


def reference_trace_to_jsonl(trace: RunTrace) -> str:
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


def _reference_integer(x, name: str) -> int:
    if (
        isinstance(x, bool)
        or not isinstance(x, (int, float))
        or (isinstance(x, float) and not math.isfinite(x))
        or int(x) != x
    ):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _reference_known_keys(obj, keys, what: str) -> None:
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")


def _reference_number(x, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} is out of range") from None


def _reference_sens_from_json(d):
    if not isinstance(d, dict):
        raise TypeError(f"sens must be an object, got {d!r}")
    kind = d.get("kind")
    own = {"patient": [], "discount": ["rho"], "patience": ["p"]}
    if not isinstance(kind, str) or kind not in own:
        raise ValueError(f"unknown sensitivity kind {kind!r}")
    _reference_known_keys(d, ["kind", *own[kind]], "sens")
    if kind == "patient":
        return PATIENT
    if kind == "discount":
        return Discount(rho=_reference_number(d["rho"], "rho"))
    return Patience(window=_reference_integer(d["p"], "patience window"))


def reference_scenario_from_jsonl(text: str) -> Scenario:
    """One json.loads per non-blank line, then each field read and converted
    on its own."""
    header = None
    header_no = 0
    txs = []
    for no, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"line {no}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:  # an integer past int()'s digit limit
            what = "bad header" if header is None else "bad event record"
            raise ScenarioError(f"line {no}: {what} ({exc})") from exc
        if header is None:
            if not isinstance(obj, dict) or "m" not in obj:
                raise ScenarioError(f"line {no}: expected header with m")
            header = obj
            try:
                if "seed" in obj:
                    raise ValueError(
                        "the random order's seed now goes in the policy config, as"
                        ' {"policy": "random", "seed": ' + json.dumps(obj["seed"]) + "}"
                    )
                if "B" in obj:
                    raise ValueError(
                        "the target size B now goes in the mechanism config, not the header"
                    )
                _reference_known_keys(obj, ["m"], "header")
                m = _reference_integer(obj["m"], "m")
                if m < 1:
                    raise ValueError(f"m must be at least 1, got {m}")
            except (ValueError, TypeError, OverflowError) as exc:
                raise ScenarioError(f"line {no}: bad header ({exc})") from exc
            continue
        try:
            i, t, q = obj["id"], obj["t"], obj["q"]
            _reference_known_keys(obj, ["t", "id", "q", "v", "sens"], "event")
            ii, tt, size = int(i), int(t), tuple(int(x) for x in q)
            if (
                ii != i
                or tt != t
                or not isinstance(q, list)
                or list(size) != q
                or any(isinstance(x, bool) for x in (i, t, *q))
            ):
                raise ValueError(
                    f"t, id and q must be integers, got t={t!r}, id={i!r}, q={q!r}"
                )
            if len(size) != m:
                raise ValueError(f"tx {ii}: size has {len(size)} resources, scenario has {m}")
            txn = Transaction(
                id=ii,
                arrival=tt,
                size=size,
                unit_value=_reference_number(obj["v"], "v"),
                sensitivity=_reference_sens_from_json(obj.get("sens", {"kind": "patient"})),
            )
            if any(other.id == ii for other in txs):
                raise ValueError(f"duplicate transaction id {ii}")
            txs.append(txn)
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(f"line {no}: bad event record ({exc})") from exc
    if header is None:
        raise ScenarioError("line 1: missing scenario header")
    return Scenario(txs, m=m)


def reference_schedule_from_json(text: str) -> Schedule:
    try:
        obj = json.loads(text)
        entries = []
        raw = obj["entries"]
        _reference_known_keys(obj, ["integral", "entries"], "schedule")
        for e in raw:
            i, t = e["id"], e["t"]
            _reference_known_keys(e, ["id", "t", "frac"], "schedule entry")
            if int(i) != i or int(t) != t or isinstance(i, bool) or isinstance(t, bool):
                raise ValueError(f"entry id and t must be integers, got id={i!r}, t={t!r}")
            fraction = _reference_number(e["frac"], "frac")
            entries.append(ScheduleEntry(tx=int(i), time=int(t), fraction=fraction))
        if not isinstance(obj["integral"], bool):
            raise TypeError(f"integral must be true or false, got {obj['integral']!r}")
        return Schedule(entries=entries, integral=obj["integral"])
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidScheduleError(f"bad schedule JSON: {exc}") from exc
