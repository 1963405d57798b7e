"""Block assembly under the adversarial-inclusion contract.

A block builder receives the eligible transactions and the posted capacity
and must return a maximal-by-inclusion subset: after selection, no eligible
unscheduled transaction fits in the residual capacity.  Within that contract
the builder is adversarial; the policies here cover tip-ordered, value-ordered
and seeded-random inclusion orders.

Randomness comes from a named, versioned PRNG (splitmix64-v1, 64-bit,
re-derived per block index) so adversarial choices replay identically across
platforms and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import chain
from operator import attrgetter, itemgetter, le
from typing import Mapping, Sequence, Union

from .core import Transaction, _known_keys, _number

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
    """Per-block stream: split the run seed by block index."""
    return SplitMix64(_mix(seed & _MASK) ^ _mix((block_index + 0x1F123BB5) & _MASK))


# ---------------------------------------------------------------------------
# Inclusion policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TipPriority:
    """Order by adversary-assigned tips, highest first (missing tip = 0)."""

    tips: Mapping[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ValueAscending:
    """Lowest per-unit value first (the cheapest-first adversary)."""


@dataclass(frozen=True)
class ValueDescending:
    """Highest per-unit value first (the benevolent order)."""


@dataclass(frozen=True)
class SeededRandom:
    """Uniformly random order from the per-block splitmix64-v1 stream."""


InclusionPolicy = Union[TipPriority, ValueAscending, ValueDescending, SeededRandom]


def _ln(v: float) -> float:
    """ln v, with ln 0 = -inf (values are never negative)."""
    return math.log(v) if v > 0.0 else -math.inf


def _pool_key(txn: Transaction, descending: bool) -> tuple[float, float, int]:
    """The key of a pool entry ``(*key, q, txn)``: (ln v, v, id), or
    (-ln v, -v, id) under ``ValueDescending``.  ln is non-decreasing, so
    this is the policy's own (v, id) order (descending v, ties in ascending
    id), also where adjacent values share one ln."""
    return _pool_entry(txn, descending, None)[:3]


def _pool_entry(
    txn: Transaction, descending: bool, tips: Mapping[int, float] | None
) -> tuple:
    """A pool entry ``(*_pool_key, q, txn)``.  Under ``TipPriority``
    (``tips`` not None) it also carries the tip order's key ``(-tip, id)``,
    so that each block sorts by a field instead of calling a key function.
    The key is computed here, not by a call: this runs once per arrival."""
    v = txn.unit_value
    lnv = math.log(v) if v > 0.0 else -math.inf
    i = txn.id
    if descending:
        lnv, v = -lnv, -v
    if tips is None:
        return (lnv, v, i, txn.size[0], txn)
    return (lnv, v, i, txn.size[0], txn, (-tips.get(i, 0.0), i))


def _first_fit(sizes: list[int], residual: float) -> list[int]:
    """The one-resource pass: the positions in ``sizes`` admitted in order
    while the residual is at least 1.  Python code runs only per admission;
    the entries that do not fit are skipped inside ``filter`` and
    ``list.index``."""
    chosen: list[int] = []
    rest = iter(sizes)
    pos = 0
    while residual >= 1.0:
        q = next(filter((residual + 1e-9).__ge__, rest), None)
        if q is None:
            break
        # Every entry between ``pos`` and the fit was too large, so the first
        # entry equal to ``q`` is the fit itself.
        pos = sizes.index(q, pos)
        chosen.append(pos)
        pos += 1
        residual -= q
    return chosen


def _assemble(
    runs: list[tuple[list[tuple], int, int]],
    capacity: Sequence[float],
    policy: InclusionPolicy,
    rng: SplitMix64 | None,
) -> list[tuple]:
    """The one fill pass: the admitted pool entries, in admission order.

    ``runs`` are ranges ``(entries, lo, hi)`` of entries in ``_pool_key``
    order, the order both value policies admit in.  The value policies
    merge the runs by a heap on their heads; every entry of a run has one
    size, so a run leaves the merge once its head does not fit: its later
    entries have the same size and residuals only shrink.  Otherwise the
    runs are concatenated; the tip order re-sorts them by the entries' own
    (-tip, id) field, the random order by id, then shuffles.
    """
    if isinstance(policy, (ValueAscending, ValueDescending)):
        if len(capacity) == 1:
            return _merge_fill_one(runs, float(capacity[0]))
        return _merge_fill(runs, capacity)
    if not isinstance(policy, (TipPriority, SeededRandom)):
        raise TypeError(f"unknown inclusion policy {policy!r}")
    entries = list(chain.from_iterable(src[lo:hi] for src, lo, hi in runs))
    if isinstance(policy, TipPriority):
        entries.sort(key=itemgetter(5))
    else:
        if rng is None:
            raise ValueError("SeededRandom policy requires a block RNG")
        entries.sort(key=itemgetter(2))
        rng.shuffle(entries)
    if len(capacity) == 1:
        fits = _first_fit(list(map(itemgetter(3), entries)), float(capacity[0]))
        return [entries[i] for i in fits]
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
    runs' entries in ``_pool_key`` order, as one scan of their union would,
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
    from the capacity's.

    Every transaction has a positive integer size on some resource, so once
    every residual drops below 1 the block is full and scanning stops.

    Cost: the eligible transactions become pool entries sorted by
    ``_pool_key``, and ``_assemble`` runs the pass on them, as the
    price-posting engine does for every block on its own pool entries.  The
    value orders split the entries into one run per size and merge the runs
    by a heap, so after the sort the pass costs O((G + admitted) log G) for
    G distinct sizes, on any number of resources.  The tip order sorts by
    the (-tip, id) key each entry carries from its construction, the random
    order by id before its shuffle.  With one resource their pass is
    ``_first_fit``, which runs Python code only per admitted transaction;
    with several it scans in Python until the block fills, one C-level fit
    test per transaction.  The resource-count check runs in C.
    """
    m = len(capacity)
    if set(map(len, map(attrgetter("size"), eligible))) - {m}:
        bad = next(t for t in eligible if len(t.size) != m)
        raise ValueError(f"tx {bad.id} has {len(bad.size)} resources, capacity has {m}")
    descending = isinstance(policy, ValueDescending)
    tips = policy.tips if isinstance(policy, TipPriority) else None
    entries = [_pool_entry(t, descending, tips) for t in eligible]
    entries.sort(key=itemgetter(0, 1, 2))  # a repeated id keeps its input order
    if isinstance(policy, (ValueAscending, ValueDescending)):
        # The merge orders runs' heads by the first three key fields, so the
        # sorted rank takes the id's place there: repeated ids stay in order.
        groups: dict[tuple[int, ...], list[tuple]] = {}
        for rank, (a, b, _, q, txn) in enumerate(entries):
            groups.setdefault(txn.size, []).append((a, b, rank, q, txn))
        runs = [(group, 0, len(group)) for group in groups.values()]
    else:
        runs = [(entries, 0, len(entries))]
    return [e[4].id for e in _assemble(runs, capacity, policy, rng)]


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
        out["tips"] = {str(k): v for k, v in policy.tips.items()}
    return out


def policy_from_config(obj: Mapping) -> InclusionPolicy:
    """The policy of a JSON config object; a tip key must be a decimal id
    that no other key names, a tip a JSON number, ``tips`` appears only with
    the tip policy, and a config of any other shape raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"policy config must be a JSON object, got {obj!r}")
    name = obj.get("policy")
    _known_keys(obj, ("policy", "tips") if name == "tip" else ("policy",), "policy config")
    if name == "tip":
        raw = obj.get("tips", {})
        if not isinstance(raw, Mapping):
            raise ValueError(f"tips must map transaction ids to tips, got {raw!r}")
        for k in raw:
            # int() would also read "1_0", " 3 ", "+3" and non-ASCII digits.
            if type(k) is not str or not (k.isascii() and k.isdigit()):
                raise ValueError(f"tip keys must be decimal transaction ids, got {k!r}")
        tips: dict[int, float] = {}
        for k, v in raw.items():
            # "7" and "07" name one id; keeping either tip would drop the other.
            i = int(k)
            if i in tips:
                raise ValueError(f"tip key {k!r} repeats tx {i}")
            tips[i] = _number(v, f"tx {k}: tip")
        # A NaN tip would make the tip order depend on the input order.
        for i, tip in tips.items():
            if not math.isfinite(tip):
                raise ValueError(f"tx {i}: tip must be finite, got {tip}")
        return TipPriority(tips=tips)
    if name == "value_asc":
        return ValueAscending()
    if name == "value_desc":
        return ValueDescending()
    if name == "random":
        return SeededRandom()
    raise ValueError(f"unknown policy name {name!r}")
