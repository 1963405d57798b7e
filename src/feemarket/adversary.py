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
from operator import attrgetter, itemgetter, le
from typing import Mapping, Sequence, Union

from .core import Transaction, _number

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


def _ordered(
    eligible: Sequence[Transaction],
    policy: InclusionPolicy,
    rng: SplitMix64 | None,
) -> list[Transaction]:
    if isinstance(policy, ValueAscending):
        return sorted(eligible, key=attrgetter("unit_value", "id"))
    if isinstance(policy, ValueDescending):
        # A stable descending sort keeps equal values in ascending id.
        xs = sorted(eligible, key=attrgetter("unit_value", "id"))
        xs.sort(key=attrgetter("unit_value"), reverse=True)
        return xs
    if isinstance(policy, TipPriority):
        tips = policy.tips
        return sorted(eligible, key=lambda t: (-tips.get(t.id, 0.0), t.id))
    if isinstance(policy, SeededRandom):
        if rng is None:
            raise ValueError("SeededRandom policy requires a block RNG")
        xs = sorted(eligible, key=attrgetter("id"))
        rng.shuffle(xs)
        return xs
    raise TypeError(f"unknown inclusion policy {policy!r}")


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

    Cost: the value orders and the random order's pre-shuffle sort use
    C-level keys (the tip order keeps a Python key), and the resource-count
    check runs in C.  With one resource the pass is ``_first_fit``, which
    runs Python code only per admitted transaction.  With several resources
    the pass scans in Python until the block fills, one C-level fit test per
    transaction.  The price-posting engine keeps its pending pool in the
    value policy's own order, so for a one-resource value-order block it
    skips this function and runs ``_first_fit`` on the eligible pool slice
    directly; it calls this function, and so sorts, only for the tip order,
    the random order, several resources and discounted eligibility.
    """
    order = _ordered(eligible, policy, rng)
    residual = [float(c) for c in capacity]
    m = len(residual)
    sizes = list(map(attrgetter("size"), order))
    if set(map(len, sizes)) - {m}:
        bad = next(t for t in order if len(t.size) != m)
        raise ValueError(f"tx {bad.id} has {len(bad.size)} resources, capacity has {m}")
    chosen: list[int] = []
    if max(residual) < 1.0:
        return chosen
    if m == 1:
        fits = _first_fit(list(map(itemgetter(0), sizes)), residual[0])
        return [order[i].id for i in fits]
    lims = [r + 1e-9 for r in residual]
    for t, size in zip(order, sizes):
        if all(map(le, size, lims)):
            for j in range(m):
                residual[j] -= size[j]
            chosen.append(t.id)
            if max(residual) < 1.0:
                break
            lims = [r + 1e-9 for r in residual]
    return chosen


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
    that no other key names, a tip a JSON number, and a config of any other
    shape raises ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"policy config must be a JSON object, got {obj!r}")
    name = obj.get("policy")
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
