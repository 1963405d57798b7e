"""Block assembly under the adversarial-inclusion contract.

A block builder receives the eligible transactions and the posted capacity
and must return a maximal-by-inclusion subset: after selection, no eligible
unscheduled transaction fits in the residual capacity.  Within that contract
the builder is adversarial; the policies here cover tip-ordered, value-ordered
and seeded-random inclusion orders.

Randomness comes from a named, versioned PRNG (splitmix64-v1, 64-bit,
re-derived per block index from the policy's own seed, ``SeededRandom.seed``)
so adversarial choices replay identically across platforms and runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import chain, repeat
from operator import attrgetter, itemgetter, le
from typing import Mapping, Sequence, Union

from .core import LOG_EPS, Patient, Transaction, _integer, _known_keys

__all__ = [
    "PRNG_NAME",
    "SplitMix64",
    "block_rng",
    "TipPriority",
    "ValueAscending",
    "ValueDescending",
    "SeededRandom",
    "InclusionPolicy",
    "select_block",
    "policy_to_config",
    "policy_from_config",
]

PRNG_NAME = "splitmix64-v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64-v1: tiny 64-bit generator with a splittable seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.next_below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def block_rng(seed: int, block_index: int) -> SplitMix64:
    """Per-block stream: split the random order's seed by block index."""
    return SplitMix64(_mix(seed & _MASK) ^ _mix((block_index + 0x1F123BB5) & _MASK))


# ---------------------------------------------------------------------------
# Inclusion policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TipPriority:
    """Order by adversary-assigned tips, highest first (missing tip = 0).
    Each key is a transaction id (an int) and each tip a finite number."""

    tips: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.tips, Mapping):
            raise ValueError(f"tips must map transaction ids to tips, got {self.tips!r}")
        for i, tip in self.tips.items():
            # A key of another type would match no transaction's id.
            if not isinstance(i, int):
                raise ValueError(f"tip keys must be transaction ids, got {i!r}")
            if type(tip) is bool or not isinstance(tip, (int, float)):
                raise ValueError(f"tx {i}: tip must be a number, got {tip!r}")
            # A NaN tip would make the tip order depend on the pool's layout.
            if not -math.inf < tip < math.inf:
                raise ValueError(f"tx {i}: tip must be finite, got {tip}")


@dataclass(frozen=True)
class ValueAscending:
    """Lowest per-unit value first (the cheapest-first adversary)."""


@dataclass(frozen=True)
class ValueDescending:
    """Highest per-unit value first (the benevolent order)."""


@dataclass(frozen=True)
class SeededRandom:
    """Uniformly random order from the per-block splitmix64-v1 stream that
    ``block_rng`` derives from ``seed`` and the block index.  The seed is
    the adversary's choice, not the stream's, so a run's random order is
    fixed by its policy alone."""

    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.seed) is bool or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


InclusionPolicy = Union[TipPriority, ValueAscending, ValueDescending, SeededRandom]


def _ln(v: float) -> float:
    """ln v, with ln 0 = -inf (values are never negative)."""
    return math.log(v) if v > 0.0 else -math.inf


def _pool_entry(txn: Transaction, descending: bool, tips: Mapping[int, float] | None) -> tuple:
    """A pool entry ``(ln v, v, id, q, txn)``, or ``(-ln v, -v, id, q, txn)``
    under ``ValueDescending``.  Its first three fields are the pool key: ln
    is non-decreasing, so the key sorts into the policy's own (v, id) order
    (descending v, ties in ascending id), also where adjacent values share
    one ln.  Under ``TipPriority`` (``tips`` not None) the entry also
    carries the tip order's key ``(-tip, id)``, so that the tip merge reads
    a field instead of calling a key function.  The key is computed here,
    not by a call: this runs once per arrival."""
    v = txn.unit_value
    lnv = math.log(v) if v > 0.0 else -math.inf
    i = txn.id
    if descending:
        lnv, v = -lnv, -v
    if tips is None:
        return (lnv, v, i, txn.size[0], txn)
    return (lnv, v, i, txn.size[0], txn, (-tips.get(i, 0.0), i))


def _assemble(
    runs: list[tuple[list[tuple], int, int]],
    capacity: Sequence[float],
    policy: InclusionPolicy,
    rng: SplitMix64 | None,
    tip_floors: dict[tuple[int, ...], float],
) -> list[tuple]:
    """The one fill pass: the admitted pool entries, in admission order.

    ``runs`` are ranges ``(entries, lo, hi)`` of entries in pool-key order
    (``_pool_entry``), the order both value policies admit in.  Every entry
    of a run has one size, so a run leaves a merge once its head does not
    fit: its later entries have the same size and residuals only shrink.
    The value policies merge the runs by a heap on their heads, the tip
    order by a heap on their (-tip, id) heads (``_tip_fill``, which keeps
    a lower bound on each size's -tip fields in ``tip_floors``).  The
    random order concatenates the runs, sorts them by id and shuffles them.
    """
    if isinstance(policy, (ValueAscending, ValueDescending)):
        if len(capacity) == 1:
            return _merge_fill_one(runs, float(capacity[0]))
        return _merge_fill(runs, capacity)
    if isinstance(policy, TipPriority):
        if len(capacity) == 1:
            return _tip_fill_one(runs, tip_floors, float(capacity[0]))
        return _tip_fill(runs, tip_floors, capacity)
    if not isinstance(policy, SeededRandom):
        raise TypeError(f"unknown inclusion policy {policy!r}")
    if rng is None:
        raise ValueError("SeededRandom policy requires a block RNG")
    entries = list(chain.from_iterable(src[lo:hi] for src, lo, hi in runs))
    entries.sort(key=itemgetter(2))
    rng.shuffle(entries)
    residual = [float(c) for c in capacity]
    chosen: list[tuple] = []
    if max(residual) < 1.0:
        return chosen
    lims = [r + 1e-9 for r in residual]
    for entry in entries:
        size = entry[4].size
        if all(map(le, size, lims)):
            for j in range(len(residual)):
                residual[j] -= size[j]
            chosen.append(entry)
            if max(residual) < 1.0:
                break
            lims = [r + 1e-9 for r in residual]
    return chosen


def _merge_fill(
    runs: list[tuple[list[tuple], int, int]], capacity: Sequence[float]
) -> list[tuple]:
    """The several-resource value-order pass of ``_assemble``: it visits the
    runs' entries in pool-key order, as one scan of their union would,
    but only the entries it admits and one more per run."""
    residual = [float(c) for c in capacity]
    chosen: list[tuple] = []
    if max(residual) < 1.0:
        return chosen
    lims = [r + 1e-9 for r in residual]
    # (*key of the run's head, run, head position)
    heap = [(*src[lo][:3], k, lo) for k, (src, lo, hi) in enumerate(runs) if lo < hi]
    heapify(heap)
    while heap:
        k, pos = heap[0][3:]
        src, _, hi = runs[k]
        entry = src[pos]
        size = entry[4].size
        if not all(map(le, size, lims)):
            heappop(heap)
            continue
        for j in range(len(residual)):
            residual[j] -= size[j]
        chosen.append(entry)
        if max(residual) < 1.0:
            break
        lims = [r + 1e-9 for r in residual]
        pos += 1
        if pos < hi:
            heapreplace(heap, (*src[pos][:3], k, pos))
        else:
            heappop(heap)
    return chosen


def _merge_fill_one(runs: list[tuple[list[tuple], int, int]], residual: float) -> list[tuple]:
    """``_merge_fill`` on one resource, with a scalar residual; once a single
    run is left, its entries are admitted by a plain loop."""
    chosen: list[tuple] = []
    if residual < 1.0:
        return chosen
    heap = [(*src[lo][:3], k, lo) for k, (src, lo, hi) in enumerate(runs) if lo < hi]
    heapify(heap)
    while len(heap) > 1:
        k, pos = heap[0][3:]
        src, _, hi = runs[k]
        entry = src[pos]
        q = entry[3]
        if q > residual + 1e-9:
            heappop(heap)
            continue
        residual -= q
        chosen.append(entry)
        if residual < 1.0:
            return chosen
        pos += 1
        if pos < hi:
            heapreplace(heap, (*src[pos][:3], k, pos))
        else:
            heappop(heap)
    if heap:
        k, pos = heap[0][3:]
        src, _, hi = runs[k]
        q = src[pos][3]  # the size of every entry of the run
        while pos < hi and q <= residual + 1e-9:
            chosen.append(src[pos])
            residual -= q
            if residual < 1.0:
                break
            pos += 1
    return chosen


_tip_key = itemgetter(5)

# A run of at most this many entries enters the tip merge at its exact head,
# found by ``min``; a longer one at its size's bound (``_tip_heap``), which
# the pool then keeps up to date on every arrival of that size.
_SHORT_RUN = 8


def _tip_heap(runs: list[tuple[list[tuple], int, int]], tip_floors: dict) -> list[tuple]:
    """The starting heap of the tip-order merge.  A run is in pool-key
    order, not tip order.  A short run enters at its head's (-tip, id) key,
    found by one C-level ``min`` over it.  A longer one, a range of its size
    group, enters at a lower bound on its keys, its size's entry of
    ``tip_floors`` with id -inf; the first such run of a group finds the
    bound by one ``min`` over the group and stores it.  Items are ``(-tip,
    id, run, rank, entry)``, with ``entry`` None while the key only bounds
    the run's entry of that rank."""
    heap = []
    for k, (src, lo, hi) in enumerate(runs):
        n = hi - lo
        if n > _SHORT_RUN:
            size = src[lo][4].size
            bound = tip_floors.get(size)
            if bound is None:
                bound = tip_floors[size] = min(map(_tip_key, src))[0]
            heap.append((bound, -math.inf, k, 0, None))
        elif n:
            entry = src[lo] if n == 1 else min(src[lo:hi], key=_tip_key)
            heap.append((*entry[5], k, 0, entry))
    heapify(heap)
    return heap


def _tip_rank(runs: list[tuple[list[tuple], int, int]], k: int, j: int, ranked: dict) -> tuple:
    """Run k's entry of rank j in (-tip, id) order: its head by one C-level
    ``min`` over its range, a later one from the range sorted once, into
    ``ranked[k]``."""
    src, lo, hi = runs[k]
    if j == 0:
        return min(src[lo:hi], key=_tip_key)
    if k not in ranked:
        ranked[k] = sorted(src[lo:hi], key=_tip_key)
    return ranked[k][j]


def _tip_fill(
    runs: list[tuple[list[tuple], int, int]], tip_floors: dict, capacity: Sequence[float]
) -> list[tuple]:
    """The several-resource tip-order pass of ``_assemble``: it admits what
    one first-fit scan of the runs' union in (-tip, id) order would, in
    that order.  A long run's head is found only once its bound tops the
    heap (``_tip_heap``) and its size still fits, and a run is sorted only
    once it tops the heap again after its head is admitted."""
    residual = [float(c) for c in capacity]
    chosen: list[tuple] = []
    if max(residual) < 1.0:
        return chosen
    lims = [r + 1e-9 for r in residual]
    heap = _tip_heap(runs, tip_floors)
    ranked: dict[int, list[tuple]] = {}
    while heap:
        k, j, entry = heap[0][2:]
        src, lo, hi = runs[k]
        size = src[lo][4].size
        if not all(map(le, size, lims)):
            heappop(heap)
            continue
        if entry is None:
            entry = _tip_rank(runs, k, j, ranked)
            heapreplace(heap, (*entry[5], k, j, entry))
            continue
        for i in range(len(residual)):
            residual[i] -= size[i]
        chosen.append(entry)
        if max(residual) < 1.0:
            break
        lims = [r + 1e-9 for r in residual]
        j += 1
        if j == hi - lo:
            heappop(heap)
        elif k in ranked:
            entry = ranked[k][j]
            heapreplace(heap, (*entry[5], k, j, entry))
        else:  # the admitted head's key bounds the rest of the run
            heapreplace(heap, (*entry[5], k, j, None))
    return chosen


def _tip_fill_one(
    runs: list[tuple[list[tuple], int, int]], tip_floors: dict, residual: float
) -> list[tuple]:
    """``_tip_fill`` on one resource, with a scalar residual.  Once a single
    run is left, the number of its entries that fit is counted first, and
    they are taken without the heap, sorting the run only if two or more
    fit."""
    chosen: list[tuple] = []
    if residual < 1.0:
        return chosen
    heap = _tip_heap(runs, tip_floors)
    ranked: dict[int, list[tuple]] = {}
    while len(heap) > 1:
        k, j, entry = heap[0][2:]
        src, lo, hi = runs[k]
        q = src[lo][3]
        if q > residual + 1e-9:
            heappop(heap)
            continue
        if entry is None:
            entry = _tip_rank(runs, k, j, ranked)
            heapreplace(heap, (*entry[5], k, j, entry))
            continue
        residual -= q
        chosen.append(entry)
        if residual < 1.0:
            return chosen
        j += 1
        if j == hi - lo:
            heappop(heap)
        elif k in ranked:
            entry = ranked[k][j]
            heapreplace(heap, (*entry[5], k, j, entry))
        else:
            heapreplace(heap, (*entry[5], k, j, None))
    if heap:
        k, j, entry = heap[0][2:]
        src, lo, hi = runs[k]
        q = src[lo][3]  # the size of every entry of the run
        n = 0
        while j + n < hi - lo and q <= residual + 1e-9:
            n += 1
            residual -= q
            if residual < 1.0:
                break
        if n == 1:
            chosen.append(entry or _tip_rank(runs, k, j, ranked))
        elif n:
            chosen += (ranked.get(k) or sorted(src[lo:hi], key=_tip_key))[j : j + n]
    return chosen


def _eligibility_bar(prices: Sequence[float], size: Sequence[int]) -> float:
    """The posted cost of a bundle less the eligibility tolerance: a
    several-resource transaction is eligible iff v * q_0 reaches it."""
    cost = 0.0
    for p, q in zip(prices, size):
        cost += p * q
    return cost * (1.0 - LOG_EPS)


class _Pool:
    """The pending pool of a price-posting run: its transactions, kept so
    that each block finds its eligible ones without a scan.  ``block`` runs
    one block of it.

    ``groups`` keeps one list of entries (``_pool_entry``) per size, in
    pool-key order, the order ``_assemble`` takes each run of eligible
    entries in; entries join and leave per group and an emptied group is
    deleted.  The eligibility test is monotone in v, so a group's eligible
    entries are a suffix, or a prefix under ValueDescending, found by
    bisection.  On one resource the test is ln v >= ln p - LOG_EPS for every
    size, and ``best`` holds each group's most eligible entry (its last, or
    its first under ValueDescending) in pool-key order: one bisection of
    ``best`` finds the groups that hold eligible entries, and only those are
    visited.  On several, each block prices each size once and tests
    v * q_0 >= cost * (1 - LOG_EPS) (``_eligibility_bar``).  With discounted
    eligibility (``aware``), an entry whose value can decay waits in
    ``decaying`` instead, is tested every block and, if eligible, joins the
    block's runs as a run of its own.  It is dropped once it fails the test
    at the floor prices (``log_floors``), the least that can be posted:
    values never rise and no posted log-price is below its floor.  Under
    TipPriority, ``tip_floors`` holds a lower bound on the -tip fields of
    each group that a block's tip merge has read as a range of more than
    ``_SHORT_RUN`` entries: found then (``_tip_heap``), lowered by later
    arrivals and dropped with the group.  Other groups pay nothing for it.

    Cost: a value-order block merges the eligible ranges by a heap, dropping
    a size once its head does not fit, and on one resource admits from the
    last size left by a plain loop, so it costs O((G + admitted) log G) for
    the G sizes it visits: Python code runs per admitted transaction and per
    visited size, not per eligible one.  A tip-order block merges them by
    (-tip, id) in the same way (``_tip_fill``), a short range entering at
    its head and a long one at its size's bound.  A long range whose size
    no longer fits when its bound tops the heap leaves unread, as a pool of
    entries too large to fit does every block; one that fits costs one
    C-level ``min`` over it, and a sort only once a second of its entries
    is admitted.  Only the random order re-sorts: it sorts the eligible
    entries by id, shuffles them and scans them until the block fills, one
    C-level fit test per entry, on any number of resources.  A size's
    arrivals that all sort after its pooled entries are appended in one
    step; a size's admitted entries leave by one slice where they are one
    contiguous range of it, as under the value orders they always are, and
    by bisection one at a time otherwise; ``best`` changes at most once per
    size and block.  The transactions in ``decaying`` are tested one by one
    every block.

    Entries compare by their key, so the ids in one pool must be distinct.
    """

    def __init__(
        self, policy: InclusionPolicy, caps: Sequence[float], aware: bool, log_floors: list[float]
    ) -> None:
        self.policy, self.caps, self.aware = policy, caps, aware
        self.groups: dict[tuple[int, ...], list[tuple]] = {}
        self.tip_floors: dict[tuple[int, ...], float] = {}
        self.best: list[tuple] = []
        self.decaying: dict[int, tuple] = {}
        self.dead_below = log_floors[0] - LOG_EPS
        self.floor_prices = [math.exp(f) for f in log_floors]
        self.descending = isinstance(policy, ValueDescending)
        self.tips = policy.tips if isinstance(policy, TipPriority) else None

    def block(
        self,
        t: int,
        arrivals: Sequence[Transaction],
        log_prices: Sequence[float],
        rng: SplitMix64 | None,
    ) -> list[Transaction]:
        """Block t: ``arrivals`` join the pool, the entries eligible at
        ``log_prices`` fill the block (``_assemble``) and leave the pool.
        Returns the admitted transactions in admission order."""
        groups, best, decaying = self.groups, self.best, self.decaying
        descending, aware, tip_floors = self.descending, self.aware, self.tip_floors
        m = len(log_prices)
        end = 0 if descending else -1

        # Arrivals join the pool per size group: a group's arrivals, sorted,
        # are appended in one step when they all sort after its last entry,
        # as a same-valued generator batch usually does, and bisected in
        # otherwise.  ``best`` changes at most once per group.
        arriving: dict[tuple[int, ...], list[tuple]] = {}
        for entry in map(_pool_entry, arrivals, repeat(descending), repeat(self.tips)):
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
            if tip_floors and size in tip_floors:
                tip_floors[size] = min(tip_floors[size], min(map(_tip_key, chunk))[0])

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
                elif lnv < self.dead_below:
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
                elif value < _eligibility_bar(self.floor_prices, size):
                    dead.append(entry[2])
        for i in dead:
            del decaying[i]
        admitted = _assemble(runs, self.caps, self.policy, rng, tip_floors)

        # Admitted entries leave per size group.  Under the value orders a
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
                if tip_floors:
                    tip_floors.pop(size, None)
        return [e[4] for e in admitted]


def select_block(
    eligible: Sequence[Transaction],
    capacity: Sequence[float],
    policy: InclusionPolicy,
    rng: SplitMix64 | None = None,
) -> list[int]:
    """Choose a maximal-by-inclusion subset within the capacity vector.

    One pass in policy order admits every transaction that still fits
    (``size <= residual + 1e-9`` on every resource).  Residual capacity only
    shrinks, so a transaction skipped once can never fit later and the pass
    alone is maximal.  Transactions larger than the full capacity are skipped
    silently (they stay pending).  Returns admitted ids in admission order.
    Raises ValueError if any eligible transaction's resource count differs
    from the capacity's, or if an id repeats: the returned ids could not say
    which copy was admitted.

    Every transaction has a positive integer size on some resource, so once
    every residual drops below 1 the block is full and scanning stops.

    Cost: the eligible transactions join a fresh ``_Pool`` and fill one
    block of it at price zero, where every one is eligible, as the
    price-posting engine fills each block from its own pool; ``_Pool`` gives
    the cost of the pass.  Only the random order re-sorts the eligible
    transactions; the tip and value orders merge them per size.  The two
    input checks run in C.
    """
    m = len(capacity)
    if m == 0:
        raise ValueError("capacity must have at least one resource")
    if any(map(math.isnan, capacity)):
        raise ValueError(f"capacity must not be NaN, got {list(capacity)}")
    if set(map(len, map(attrgetter("size"), eligible))) - {m}:
        bad = next(t for t in eligible if len(t.size) != m)
        raise ValueError(f"tx {bad.id} has {len(bad.size)} resources, capacity has {m}")
    counts = Counter(map(attrgetter("id"), eligible))
    if len(counts) != len(eligible):
        raise ValueError(f"duplicate transaction id {max(counts, key=counts.get)}")
    pool = _Pool(policy, capacity, False, [0.0] * m)
    return [t.id for t in pool.block(1, eligible, [-math.inf] * m, rng)]


# ---------------------------------------------------------------------------
# Policy config plumbing
# ---------------------------------------------------------------------------

_POLICY_NAMES = {
    TipPriority: "tip",
    ValueAscending: "value_asc",
    ValueDescending: "value_desc",
    SeededRandom: "random",
}


def policy_to_config(policy: InclusionPolicy) -> dict:
    name = _POLICY_NAMES[type(policy)]
    out: dict = {"policy": name}
    if isinstance(policy, TipPriority):
        # int() writes a bool key as the id it equals, not as "True".
        out["tips"] = {str(int(k)): v for k, v in policy.tips.items()}
    elif isinstance(policy, SeededRandom):
        out["seed"] = policy.seed
    return out


def policy_from_config(obj: Mapping) -> InclusionPolicy:
    """The policy of a JSON config object; a tip key must be a decimal id
    that no other key names, a tip a finite JSON number, kept as read
    (``TipPriority`` checks it), ``tips`` appears only with the tip policy,
    ``seed`` (default 0) only with the random one, as a JSON number equal
    to an integer, and a config of any other shape raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"policy config must be a JSON object, got {obj!r}")
    name = obj.get("policy")
    own = ("tips",) if name == "tip" else ("seed",) if name == "random" else ()
    _known_keys(obj, ("policy", *own), "policy config")
    if name == "tip":
        raw = obj.get("tips", {})
        if not isinstance(raw, Mapping):
            return TipPriority(tips=raw)  # which names tips that are not a mapping
        for k in raw:
            # int() would also read "1_0", " 3 ", "+3" and non-ASCII digits.
            if type(k) is not str or not (k.isascii() and k.removeprefix("-").isdigit()):
                raise ValueError(f"tip keys must be decimal transaction ids, got {k!r}")
        tips: dict[int, float] = {}
        for k, v in raw.items():
            # "7" and "07" name one id; keeping either tip would drop the other.
            i = int(k)
            if i in tips:
                raise ValueError(f"tip key {k!r} repeats tx {i}")
            # Kept as read: a float could not hold the int tip 10**400.
            tips[i] = v
        return TipPriority(tips=tips)
    if name == "value_asc":
        return ValueAscending()
    if name == "value_desc":
        return ValueDescending()
    if name == "random":
        return SeededRandom(seed=_integer(obj.get("seed", 0), "seed"))
    raise ValueError(f"unknown policy name {name!r}")
