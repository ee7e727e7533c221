"""A laboratory for transaction fee mechanisms with an active producer.

The package models blocks, bids, and producer valuations with exact integer
arithmetic, ships four mechanism presets, finds producer-optimal blocks by
exhaustive search or dynamic programming, audits incentive properties over
full bid grids, and builds machine-checked counterexample worlds.
"""

from .auditors import (
    FAIL,
    PASS,
    AuditReport,
    BoundCheck,
    ProfileSpaceError,
    TieConflict,
    WelfareEntry,
    WelfareReport,
    Witness,
    audit_approx_dsic_bound,
    audit_bpic,
    audit_dsic,
    audit_welfare_ratio,
    check_beta_commensurate,
    replay_bpic_witness,
    replay_dsic_witness,
    welfare_argmax,
    witness_sort_key,
)
from .core import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Block,
    ExplicitBlockset,
    KnapsackBlockset,
    Money,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    UnknownTransactionError,
    user_utility,
    welfare,
)
from .counterexamples import (
    AlreadyTrivialError,
    ConstructionReplayError,
    DemoWorld,
    IncentiveViolationError,
    UnderbidDemo,
    WelfareGapScenario,
    ZeroBidWitness,
    construct_welfare_gap,
    construct_zero_bid,
    construct_zero_bid_single_minded,
    eip1559_underbid_demo,
)
from .generator import random_scenario
from .mechanisms import (
    Allocation,
    BiddingStrategy,
    CappedAtReserve,
    Eligibility,
    ExcessivelyLowBaseFeeError,
    FixedOffset,
    Mechanism,
    NoEligibleBlockError,
    Truthful,
    UnsupportedInstanceError,
    apply_strategy,
    bps,
    burn,
    eligible,
    fee_class,
    is_base_fee_excessively_low,
    own_payment,
    payment,
    recommended_block,
    strategy_bid,
)
from .reports import (
    ReportFormatError,
    block_from_str,
    block_to_str,
    cell_bids_from_str,
    cell_bids_to_str,
    parse_audit_report,
    parse_welfare_report,
    render_audit_report,
    render_welfare_report,
)
from .scenario_io import (
    GridSpec,
    ScenarioDoc,
    ScenarioFormatError,
    load_scenario_file,
    parse_scenario_text,
    scenario_digest,
    serialize_scenario,
    write_scenario_file,
)
from .solver import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    NoFeasibleBlockError,
    bps_argmax,
    bps_argmax_additive_dp,
    canonical_key,
    enumerate_blocks,
    max_marginal_value,
    value_range,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
