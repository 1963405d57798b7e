"""Discrete-time simulator and verification toolkit for base-fee block
scheduling with patient bidders."""

from .adversary import (
    InclusionPolicy,
    SeededRandom,
    SplitMix64,
    TipPriority,
    ValueAscending,
    ValueDescending,
    block_rng,
    select_block,
)
from .benchmarks import (
    BenchmarkConstraintError,
    TooLargeError,
    check_threshold_dominance,
    check_welfare_dominance,
    greedy_dominance_check,
    opt_fractional,
    opt_integral_small,
)
from .core import (
    PATIENT,
    BlockRecord,
    Discount,
    FeeMarketError,
    InvalidScheduleError,
    Patience,
    Patient,
    RunTrace,
    Scenario,
    ScenarioError,
    Schedule,
    ScheduleEntry,
    Transaction,
    UnsupportedSensitivityError,
    check_avg_block_size,
    max_block_size,
    measured_slackness,
    quantity_above,
    quantity_curve,
    validate_schedule,
    welfare,
    welfare_via_threshold_integral,
)
from .mechanisms import (
    CapacityViolationError,
    InfeasibleParametersError,
    MechanismParams,
    OversizedTransactionError,
    RunResult,
    eip_next_price,
    greedy_online,
    multi_resource_mechanism,
    replay_log_prices,
    run_price_based,
    theorem_gamma,
    theorem_slackness,
)
from .scenarios import (
    ScenarioBundle,
    adaptive_price_adversary,
    c_below_two,
    discount_mix,
    eip_c2_failure,
    log_range,
    patience_global,
    random_family,
    three_resources,
    three_resources_params,
)

__version__ = "0.1.0"
