"""Deterministic scenario generators: adversarial constructions and random
instance families.

Each construction reproduces a demand pattern that forces a welfare loss on a
class of online schedulers; adaptive ones observe the algorithm's executed
blocks (only) and branch accordingly, and every branch decision is
recomputable from the run trace via the generator's ``audit`` dict, which
also carries the construction's reference optimum for ratio reporting.

Constructions stated at unit target size are generated at the integer
target ``B`` of the ``MechanismParams`` they are built against (or, for
``random_family``, of its ``B`` argument) by scaling sizes; values are
multiples of the price floor where the construction normalizes it to 1.
A stream holds only its arrivals and its resource count ``m``: the target a
run posts is that run's ``MechanismParams.B``.  All generators are
deterministic functions of their arguments (only ``random_family`` takes a
seed); adaptive generators are single-run objects.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .adversary import InclusionPolicy, TipPriority, ValueAscending, ValueDescending
from .core import (
    PATIENT,
    AdaptiveScenario,
    BlockRecord,
    Discount,
    Patience,
    Scenario,
    ScenarioError,
    Sensitivity,
    Transaction,
    welfare,
)
from .mechanisms import (
    InfeasibleParametersError,
    MechanismParams,
    RunResult,
    multi_resource_mechanism,
    run_price_based,
)

__all__ = [
    "ScenarioBundle",
    "random_family",
    "c_below_two",
    "eip_c2_failure",
    "log_range",
    "discount_mix",
    "patience_global",
    "three_resources",
    "three_resources_params",
    "adaptive_price_adversary",
    "PriceAdversaryReport",
    "measure_t_star",
    "measure_climb",
]


@dataclass
class ScenarioBundle:
    """A construction's canonical run: its scenario, run under the mechanism
    ``params`` it was built against (one set per resource) and ``policy``
    for ``horizon`` blocks, plus the builder notes its callers read (for
    example ``decay`` and ``expected_climb``).  An adaptive construction's
    branch and reference optimum are in ``audit()``."""

    scenario: Scenario | AdaptiveScenario
    params: tuple[MechanismParams, ...]
    policy: InclusionPolicy
    horizon: int
    notes: dict = field(default_factory=dict)

    def run(self, horizon: int | None = None) -> RunResult:
        """The canonical run, for ``horizon`` blocks if given."""
        return multi_resource_mechanism(
            self.scenario, self.params, self.policy, self.horizon if horizon is None else horizon
        )

    def audit(self) -> dict:
        gen = getattr(self.scenario, "generator", None)
        return dict(getattr(gen, "audit", {}))


# ---------------------------------------------------------------------------
# Seeded random instances (positive-theorem harness)
# ---------------------------------------------------------------------------


def random_family(
    seed: int,
    horizon: int,
    value_range: tuple[float, float],
    q_max: int,
    load_factor: float,
    *,
    B: int,
    eta: float,
    p_min: float = 1.0,
) -> Scenario:
    """Per-step arrivals with log-uniform unit values and uniform sizes.

    The per-step count is chosen so the expected arriving size per step is
    ``load_factor * B``.  Values must respect the dominance hypothesis
    v >= e^eta * p_min.  Deterministic in ``seed``, which drives this
    generator only: the random inclusion order has its own,
    ``SeededRandom.seed``.
    """
    v_lo, v_hi = value_range
    for name, x in (("eta", eta), ("p_min", p_min)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if v_lo < math.exp(eta) * p_min * (1.0 - 1e-12):
        raise ValueError(
            f"lowest value {v_lo} below e^eta * p_min = {math.exp(eta) * p_min}"
        )
    if v_hi < v_lo:
        raise ValueError(f"empty value range [{v_lo}, {v_hi}]")
    if q_max < 1 or B < 1:
        raise ValueError("sizes are positive integers")
    if not 0 <= load_factor < math.inf:
        raise ValueError(f"load_factor must be finite and >= 0, got {load_factor}")
    rng = random.Random(seed)
    txs: list[Transaction] = []
    if load_factor > 0:
        per_step = max(1, round(load_factor * B / ((1 + q_max) / 2)))
        ln_lo, ln_hi = math.log(v_lo), math.log(v_hi)
        for t in range(1, horizon + 1):
            for _ in range(per_step):
                q = rng.randint(1, q_max)
                v = math.exp(rng.uniform(ln_lo, ln_hi))
                txs.append(Transaction(len(txs), t, (q,), v))
    return Scenario(txs)


# ---------------------------------------------------------------------------
# Adaptive generator skeleton
# ---------------------------------------------------------------------------


class _AdaptiveGenerator:
    """A single-run adaptive arrival stream.

    A subclass implements only ``_emit(t)``, which returns block t's
    arrivals, and builds them with ``_txs``, one call per batch of n
    same-shaped transactions.  ``_txs`` issues the next n ids of 0, 1, 2,
    ... in call order, as one ``range``, and builds the batch by one ``map``
    of ``Transaction``; a batch given a ``tag`` has each id recorded in
    ``tags[id]`` and is counted n times in ``emitted[tag]``.  A batch of
    n <= 0 emits nothing and uses no id.  Before ``_emit(t)`` runs,
    ``arrivals`` counts every tagged id in block t-1's executed list into
    ``executed[tag]``, so ``_emit(t)`` sees the counts over blocks 1..t-1
    exactly.  A construction that branches on how many of its tagged
    transactions executed by block k reads the count once, at block k+1,
    and so needs no cutoff of its own.  The branch decision and the
    reference optimum go in ``audit``, which stays empty until the branch
    is decided.
    """

    def __init__(self) -> None:
        self.audit: dict = {}
        self.tags: dict[int, str] = {}
        self.emitted: Counter[str] = Counter()
        self.executed: Counter[str] = Counter()
        self._next_id = 0
        self._started = False

    def _txs(
        self,
        t: int,
        n: int,
        size: tuple[int, ...],
        v: float,
        sens: Sensitivity = PATIENT,
        tag: str | None = None,
    ) -> list[Transaction]:
        if n <= 0:
            return []
        start = self._next_id
        self._next_id = start + n
        ids = range(start, start + n)
        if tag is not None:
            self.tags.update(dict.fromkeys(ids, tag))
            self.emitted[tag] += n
        return list(map(Transaction, ids, repeat(t), repeat(size), repeat(v), repeat(sens)))

    def arrivals(self, t: int, previous: BlockRecord | None) -> list[Transaction]:
        if t == 1:
            if self._started:
                raise ScenarioError("adaptive generators are single-run objects")
            self._started = True
        if previous is not None:
            tags, executed = self.tags, self.executed
            for tid, _frac in previous.executed:
                tag = tags.get(tid)
                if tag is not None:
                    executed[tag] += 1
        return self._emit(t)


# ---------------------------------------------------------------------------
# Max-block-size construction (c < 2)
# ---------------------------------------------------------------------------


class _CBelowTwoGenerator(_AdaptiveGenerator):
    """First half: each step one red (size B, unit value 1) and one green
    (size just over c*B/2, unit value 2); at most one fits per block.  At
    half time, branch on the number of executed greens G: few greens means
    high-value size-B demand arrives next (the first half was wasted on
    reds), many greens means unit-value dust floods in (the capacity spent
    on greens is unrecoverable)."""

    def __init__(self, horizon: int, c: float, B: int, eps: float) -> None:
        super().__init__()
        self.horizon = horizon
        self.half = horizon // 2
        self.quarter = horizon // 4
        self.B = B
        self.green_size = int(math.floor(c * B / 2.0)) + max(1, round(eps * B))
        if not (self.green_size <= B):
            raise InfeasibleParametersError(
                f"green size {self.green_size} exceeds target {B}; shrink eps"
            )
        assert self.green_size > (c - 1) * B  # holds for any c < 2
        self.dust_size = max(1, B // 64)
        self.dust_target = 2 * math.ceil(c * B / self.dust_size)

    def _emit(self, t: int) -> list[Transaction]:
        B = self.B
        if t <= self.half:
            return self._txs(t, 1, (B,), 1.0) + self._txs(
                t, 1, (self.green_size,), 2.0, tag="green"
            )
        if t > self.horizon:
            return []
        if not self.audit:
            g = self.executed["green"]
            branch = "I" if g <= self.quarter else "II"
            optimum = (2.0 if branch == "I" else 1.5) * self.horizon * B
            self.audit = {
                "greens_first_half": g,
                "branch": branch,
                "optimum": optimum,
            }
        if self.audit["branch"] == "I":
            return self._txs(t, 1, (B,), 2.0)
        pending = self.emitted["dust"] - self.executed["dust"]
        return self._txs(t, self.dust_target - pending, (self.dust_size,), 1.0, tag="dust")


def c_below_two(params: MechanismParams, horizon: int, eps: float) -> ScenarioBundle:
    """Adaptive construction forcing a loss on any max-block-size c*B
    scheduler with c < 2, at the target B and multiplier c of ``params``;
    reports the branch optimum (2*T*B or 1.5*T*B)."""
    B, c = _target(params), params.c
    if not (1.0 < c < 2.0):
        raise InfeasibleParametersError(f"requires 1 < c < 2, got {c}")
    if horizon % 2 != 0 or horizon < 8:
        raise ValueError(f"horizon must be even and >= 8, got {horizon}")
    if eps <= 0 or eps >= 1.0 - c / 2.0:
        raise ValueError(f"eps must be in (0, {1.0 - c / 2.0}), got {eps}")
    scenario = AdaptiveScenario(_CBelowTwoGenerator(horizon, c, B, eps))
    return ScenarioBundle(scenario, (params,), ValueDescending(), horizon)


# ---------------------------------------------------------------------------
# c = 2 failure stream (tip-prioritized just-over-target demand)
# ---------------------------------------------------------------------------


def _target(params: MechanismParams) -> int:
    """The target size as an integer number of gas units."""
    B = int(params.B)
    if B != params.B:
        raise ValueError("target size must be an integer number of gas units")
    return B


def _target_and_decay(params: MechanismParams) -> tuple[int, int]:
    """The target size, and the number of blocks the price takes to decay
    from p_1 to the floor; the static streams start after that prefix."""
    B = _target(params)
    if params.p_1 <= params.p_min:
        return B, 0
    return B, math.ceil(math.log(params.p_1 / params.p_min) / params.eta)


def eip_c2_failure(params: MechanismParams, eps: float) -> ScenarioBundle:
    """Static stream defeating the c = 2 mechanism: once the price sits at
    the floor, each step brings one high transaction (size B, 10x floor) and
    tip-prioritized low demand totaling (1+eps)*B at 2x floor, so blocks
    close at (1+eps)*B, the high transaction never fits, and the price climbs
    only at rate eta*eps per block.  The stream ends 5 blocks after the
    expected climb to twice the floor."""
    if abs(params.c - 2.0) > 1e-9:
        raise ValueError(f"requires c = 2, got c = {params.c}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    B, decay = _target_and_decay(params)
    low_size = round((1.0 + eps) * B)
    if low_size <= B:
        raise ValueError(f"eps*B must round to at least one gas unit (eps={eps}, B={B})")
    eps_eff = low_size / B - 1.0
    climb = math.ceil(math.log(2.0) / (params.eta * eps_eff))
    horizon = decay + climb + 5
    txs: list[Transaction] = []
    tips: dict[int, float] = {}
    for t in range(decay + 1, horizon + 1):
        txs.append(Transaction(len(txs), t, (B,), 10.0 * params.p_min))
        tips[len(txs)] = 1.0  # the low transaction's id
        txs.append(Transaction(len(txs), t, (low_size,), 2.0 * params.p_min))
    return ScenarioBundle(
        Scenario(txs),
        (params,),
        TipPriority(tips=tips),
        horizon,
        notes={
            "decay": decay,
            "expected_climb": math.log(2.0) / (params.eta * eps_eff),
            "optimum_per_block": 10.0 * params.p_min * B,
            "low_size": low_size,
        },
    )


def measure_t_star(result: RunResult, params: MechanismParams) -> int | None:
    """Half the time for the posted price to exceed twice the floor; None
    when the run ends before it does."""
    threshold = math.log(2.0 * params.p_min)
    for rec in result.trace.records:
        if rec.log_prices[0] > threshold + 1e-12:
            return rec.time // 2
    return None


# ---------------------------------------------------------------------------
# Logarithmic value-range stream
# ---------------------------------------------------------------------------


def log_range(params: MechanismParams, H: float, L: float) -> ScenarioBundle:
    """Unbounded demand at value H and tip-prioritized unbounded demand at
    value L (both times the floor).  While the price is at most L the blocks
    fill to c*B with low demand, so the climb out of the floor takes about
    ln(L) / ((c-1) * eta) blocks and accumulates slackness (c-1) per block."""
    if not (H > L > 1.0):
        raise ValueError(f"requires H > L > 1, got H={H}, L={L}")
    B, decay = _target_and_decay(params)
    n_chunks = math.ceil(params.c)
    chunk = params.c * B / n_chunks
    if chunk != int(chunk):
        raise ValueError(
            f"c*B must split into {n_chunks} integer chunks (c={params.c}, B={B})"
        )
    chunk = int(chunk)
    expected_climb = math.log(L) / (params.eta * (params.c - 1.0))
    horizon = decay + math.ceil(expected_climb) + 20
    txs: list[Transaction] = []
    tips: dict[int, float] = {}
    for t in range(decay + 1, horizon + 1):
        for _ in range(n_chunks):
            txs.append(Transaction(len(txs), t, (chunk,), H * params.p_min))
        for _ in range(n_chunks):
            tips[len(txs)] = 1.0
            txs.append(Transaction(len(txs), t, (chunk,), L * params.p_min))
    return ScenarioBundle(
        Scenario(txs),
        (params,),
        TipPriority(tips=tips),
        horizon,
        notes={
            "decay": decay,
            "expected_climb": expected_climb,
            "optimum_per_block": H * params.p_min * B,
        },
    )


def measure_climb(result: RunResult, params: MechanismParams, L: float, decay: int) -> int:
    """Consecutive blocks after the decay prefix with posted price <= L*floor."""
    limit = math.log(L * params.p_min)
    climb = 0
    for rec in result.trace.records:
        if rec.time <= decay:
            continue
        if rec.log_prices[0] <= limit + 1e-12:
            climb += 1
        else:
            break
    return climb


# ---------------------------------------------------------------------------
# Discount-mix construction (time-decaying values)
# ---------------------------------------------------------------------------


class _DiscountMixGenerator(_AdaptiveGenerator):
    """p patient double-value transactions up front, one decaying unit-value
    ("hasty") transaction per step for p steps.  If at least p/2 hasty ones
    executed by time p, a wave of 2p more patient double-value transactions
    arrives; otherwise one fresh decaying transaction arrives per step for
    the middle third, and the final third is silent."""

    def __init__(self, rho_min: float, B: int, p: int) -> None:
        super().__init__()
        self.discount = Discount(rho=rho_min)
        self.B = B
        self.p = p

    def _emit(self, t: int) -> list[Transaction]:
        p, B = self.p, self.B
        out = self._txs(1, p, (B,), 2.0) if t == 1 else []
        if t <= p:
            out += self._txs(t, 1, (B,), 1.0, self.discount, tag="hasty")
        elif t <= 2 * p:
            if not self.audit:
                h = self.executed["hasty"]
                branch = "I" if 2 * h >= p else "II"
                optimum = (6.0 if branch == "I" else 4.0) * p * B
                self.audit = {
                    "hasty_executed": h,
                    "branch": branch,
                    "optimum": optimum,
                }
            if self.audit["branch"] == "II":
                out += self._txs(t, 1, (B,), 1.0, self.discount)
            elif t == p + 1:
                out += self._txs(t, 2 * p, (B,), 2.0)
        return out


def discount_mix(
    params: MechanismParams,
    rho_min: float,
    K: int,
    gamma_delta: int = 24,
) -> ScenarioBundle:
    """Adaptive mixed-patience construction over horizon 3p at the target B
    of ``params``; p satisfies both (1 - rho_min)^p <= 1/2 and
    3p >= K * gamma_delta (headroom over the tested algorithm's
    extension-plus-slackness)."""
    B = _target(params)
    if not (0.0 < rho_min < 1.0):
        raise ValueError(f"rho_min must be in (0, 1), got {rho_min}")
    if K < 1 or gamma_delta < 1:
        raise ValueError("headroom factors must be >= 1")
    p_rho = math.ceil(math.log(2.0) / -math.log1p(-rho_min))
    p = max(p_rho, math.ceil(K * gamma_delta / 3.0), 2)
    scenario = AdaptiveScenario(_DiscountMixGenerator(rho_min, B, p))
    return ScenarioBundle(scenario, (params,), ValueDescending(), 3 * p, notes={"p": p})


# ---------------------------------------------------------------------------
# Global-patience construction
# ---------------------------------------------------------------------------


class _PatienceGlobalGenerator(_AdaptiveGenerator):
    """p unit-value greens at time 1, one double-value red per step for the
    next p-1 steps, all with the same patience window p.  Branch at time p on
    the number of executed reds: many reds means the greens are about to
    expire unscheduled and nothing more arrives; few reds means a wave of p
    fresh double-value transactions lands at p+1."""

    def __init__(self, p: int, B: int) -> None:
        super().__init__()
        self.window = Patience(window=p)
        self.p = p
        self.B = B

    def _emit(self, t: int) -> list[Transaction]:
        p, B, window = self.p, self.B, self.window
        if t == 1:
            return self._txs(1, p, (B,), 1.0, window)
        if t <= p:
            return self._txs(t, 1, (B,), 2.0, window, tag="red")
        if t == p + 1:
            r = self.executed["red"]
            branch = "I" if 2 * r >= p else "II"
            optimum = (3.0 * p - 2.0) * B if branch == "I" else (4.0 * p - 1.0) * B
            self.audit = {"reds_executed": r, "branch": branch, "optimum": optimum}
            if branch == "II":
                return self._txs(t, p, (B,), 2.0, window)
        return []


def patience_global(params: MechanismParams, p: int) -> ScenarioBundle:
    """Adaptive construction, at the target B of ``params``, showing a fixed
    shared patience window still forces a constant welfare loss; horizon
    is 2p."""
    B = _target(params)
    if p < 2:
        raise ValueError(f"patience level must be >= 2, got {p}")
    scenario = AdaptiveScenario(_PatienceGlobalGenerator(p, B))
    return ScenarioBundle(scenario, (params,), ValueDescending(), 2 * p)


# ---------------------------------------------------------------------------
# Three-resource construction
# ---------------------------------------------------------------------------


class _ThreeResourceGenerator(_AdaptiveGenerator):
    """Resources (anchor, X, Y, Z) with unit caps on X, Y, Z; the anchor
    carries the value-bearing size and never binds.  At time 1: t units of
    the bundle {X, Z} and t of {Y, Z}, all unit value.  Z's capacity forces
    one bundle type to at most half allocation over the first t blocks; the
    second wave demands the matching singleton, which the clairvoyant packs
    alongside the withheld bundles."""

    def __init__(self, t_half: int) -> None:
        super().__init__()
        self.t_half = t_half

    def _emit(self, t: int) -> list[Transaction]:
        out: list[Transaction] = []
        if t == 1:
            for _ in range(self.t_half):  # the two bundles alternate
                out += self._txs(1, 1, (1, 1, 0, 1), 1.0, tag="xz")
                out += self._txs(1, 1, (1, 0, 1, 1), 1.0, tag="yz")
        elif t == self.t_half + 1:
            xz, yz = self.executed["xz"], self.executed["yz"]
            starved = "X" if xz <= yz else "Y"
            self.audit = {
                "alloc_xz": xz,
                "alloc_yz": yz,
                "starved": starved,
                "optimum": 3.0 * self.t_half,
            }
            size = (1, 1, 0, 0) if starved == "X" else (1, 0, 1, 0)
            out += self._txs(t, self.t_half, size, 1.0)
        return out


def three_resources(t_half: int) -> ScenarioBundle:
    """Adaptive three-resource construction (plus a non-binding anchor
    resource carrying the value units); reference optimum is 3*t_half."""
    if t_half < 2:
        raise ValueError(f"t must be >= 2, got {t_half}")
    scenario = AdaptiveScenario(_ThreeResourceGenerator(t_half), m=4)
    return ScenarioBundle(scenario, three_resources_params(), ValueAscending(), 2 * t_half)


def three_resources_params() -> tuple[MechanismParams, ...]:
    """Per-resource parameters for running the price mechanism on the
    three-resource construction: low floors so unit-value demand clears."""
    floor = 0.05
    anchor = MechanismParams(B=8.0, c=2.0, eta=0.125, p_min=floor, p_1=floor)
    unit = MechanismParams(B=1.0, c=2.0, eta=0.125, p_min=floor, p_1=floor)
    return (anchor, unit, unit, unit)


# ---------------------------------------------------------------------------
# Interactive adversary against price-based mechanisms
# ---------------------------------------------------------------------------


@dataclass
class PriceAdversaryReport:
    r: float
    m: int
    m_prime: int
    fraction: float
    bound: float
    passed: bool
    price_transcripts_identical: bool


def adaptive_price_adversary(
    params: MechanismParams, gamma: int, delta: int, H: float
) -> PriceAdversaryReport:
    """Drive a price-posting mechanism down its decision tree and exhibit two
    leaf-colliding demand profiles.

    With T = gamma + delta, R = T + gamma and r = H^(1/4^(gamma+delta)),
    profile number m (0 <= m <= 2^R) contains (R + delta) transactions of
    size B at each value r^i * floor for i <= m, all arriving at time 1; the
    adversary always serves the lowest-value eligible transactions.  Two
    profiles m < m' must produce identical executed histories (hence
    bit-identical price transcripts), and replaying profile m' shows the
    mechanism earns at most a 2/r fraction of the clairvoyant r^{m'}-per-block
    optimum over [1, T].
    """
    if gamma < 1 or delta < 0:
        raise ValueError("need gamma >= 1 and delta >= 0")
    if abs(params.p_1 - params.p_min) > 1e-12 * params.p_min:
        raise ValueError("profile values are floor-normalized; use p_1 = p_min")
    T = gamma + delta
    R = T + gamma
    if R > 16:
        raise InfeasibleParametersError(f"R = {R} enumerates 2^R profiles; keep R <= 16")
    r = H ** (1.0 / 4 ** (gamma + delta))
    if r < 2.0 * (1.0 - 1e-12):
        raise InfeasibleParametersError(
            f"value range too small: r = {r} < 2; raise H or shrink gamma+delta"
        )
    B = _target(params)
    per_value = R + delta

    def build(m_idx: int) -> Scenario:
        txs: list[Transaction] = []
        for i in range(m_idx + 1):
            v = (r**i) * params.p_min
            for _ in range(per_value):
                txs.append(Transaction(len(txs), 1, (B,), v))
        return Scenario(txs)

    def run(m_idx: int) -> RunResult:
        return run_price_based(build(m_idx), params, ValueAscending(), R)

    def executed_history(res: RunResult) -> tuple:
        index = res.scenario._index
        return tuple(
            tuple((index[tid].q, index[tid].unit_value) for tid, _f in rec.executed)
            for rec in res.trace.records
        )

    seen: dict[tuple, int] = {}
    collision: tuple[int, int] | None = None
    for m_idx in range(2**R + 1):
        key = executed_history(run(m_idx))
        if key in seen:
            collision = (seen[key], m_idx)
            break
        seen[key] = m_idx
    if collision is None:  # 2^R + 1 profiles over <= 2^R leaves
        raise ScenarioError("no colliding profiles found; transcript map is broken")
    m_low, m_high = collision
    res_low = run(m_low)
    res_high = run(m_high)
    prices_equal = all(
        a.log_prices == b.log_prices
        for a, b in zip(res_low.trace.records, res_high.trace.records)
    )
    sw = welfare(res_high.schedule, res_high.scenario, R)
    optimum = (r**m_high) * params.p_min * T * B
    fraction = sw / optimum
    bound = 2.0 / r
    return PriceAdversaryReport(
        r=r,
        m=m_low,
        m_prime=m_high,
        fraction=fraction,
        bound=bound,
        passed=fraction <= bound * (1.0 + 1e-9) and prices_equal,
        price_transcripts_identical=prices_equal,
    )
