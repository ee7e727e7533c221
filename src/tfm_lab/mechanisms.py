"""Fee mechanism presets and bidding strategies.

A mechanism is a triple of allocation, payment, and burning rules.  Four
presets are shipped: first-price auctions, EIP-1559, the tipless variant of
EIP-1559, and the no-fee mechanism that just lets the producer pick its
favourite block.  Payment and burning always see the full bid vector, so
rules that depend on losing bids stay expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .core import (
    Block,
    KnapsackBlockset,
    Money,
    Scenario,
    Transaction,
    UnknownTransactionError,
    bp_value,
)

FPA = "fpa"
EIP1559 = "eip1559"
TIPLESS = "tipless"
TRIVIAL = "trivial"

_PRESETS = (FPA, EIP1559, TIPLESS, TRIVIAL)


class Eligibility(Enum):
    """Which transactions the producer may place in a block at all."""

    FREE = "free"
    BASE_FEE_GATED = "base_fee_gated"


class Allocation(Enum):
    REVENUE_MAX = "revenue_max"
    STANDARD = "standard"
    CONSONANT = "consonant"


# the allocation a preset gets when none is named
DEFAULT_ALLOCATION = {
    FPA: Allocation.REVENUE_MAX,
    EIP1559: Allocation.STANDARD,
    TIPLESS: Allocation.STANDARD,
    TRIVIAL: Allocation.CONSONANT,
}


class ExcessivelyLowBaseFeeError(ValueError):
    """The reserve is so low that every clearing transaction cannot fit in
    one feasible block; the standard allocation is undefined there."""

    def __init__(self, base_fee, total_size, max_total_size):
        super().__init__(
            f"base fee {base_fee} is excessively low: clearing transactions "
            f"total size {total_size} > capacity {max_total_size}; use the "
            f"consonant allocation for this instance"
        )


class UnsupportedInstanceError(ValueError):
    """The operation is only defined for a narrower class of inputs."""


class NoEligibleBlockError(UnsupportedInstanceError):
    """No feasible block is eligible under these bids, so the allocation
    rule names no block; only a blockset without the empty block can get
    here."""

    def __init__(self, bids):
        cell = ", ".join(f"{t}:{b}" for t, b in sorted(bids.items()))
        super().__init__(
            f"no feasible block is eligible at bids {{{cell}}}; list the "
            f"empty block in the blockset"
        )


@dataclass(frozen=True, slots=True)
class Mechanism:
    """One of the shipped fee mechanism presets.

    preset       one of "fpa", "eip1559", "tipless", "trivial"
    base_fee     per-size-unit reserve, required by eip1559/tipless
    eligibility  whether below-reserve transactions may be included at all
    allocation   which block the mechanism tells the producer to build
    """

    preset: str
    base_fee: Money | None = None
    eligibility: Eligibility = Eligibility.FREE
    allocation: Allocation = Allocation.CONSONANT

    def __post_init__(self):
        if self.preset not in _PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.preset in (EIP1559, TIPLESS):
            if not isinstance(self.base_fee, int) or isinstance(self.base_fee, bool):
                raise ValueError(f"{self.preset} needs an integer base fee")
            if self.base_fee < 0:
                raise ValueError("base fee must be >= 0")
            if self.allocation is Allocation.REVENUE_MAX:
                raise ValueError(f"{self.preset} supports standard or consonant allocation")
        else:
            if self.base_fee is not None:
                raise ValueError(f"{self.preset} takes no base fee")
            if self.eligibility is not Eligibility.FREE:
                raise ValueError(f"{self.preset} has no reserve to gate on")
            if self.preset == FPA and self.allocation is Allocation.STANDARD:
                raise ValueError("fpa supports revenue_max or consonant allocation")
            if self.preset == TRIVIAL and self.allocation is not Allocation.CONSONANT:
                raise ValueError("trivial always lets the producer pick its argmax")

    @staticmethod
    def fpa(allocation: Allocation = DEFAULT_ALLOCATION[FPA]) -> "Mechanism":
        return Mechanism(FPA, None, Eligibility.FREE, allocation)

    @staticmethod
    def eip1559(
        base_fee: Money,
        eligibility: Eligibility = Eligibility.FREE,
        allocation: Allocation = DEFAULT_ALLOCATION[EIP1559],
    ) -> "Mechanism":
        return Mechanism(EIP1559, base_fee, eligibility, allocation)

    @staticmethod
    def tipless(
        base_fee: Money,
        eligibility: Eligibility = Eligibility.FREE,
        allocation: Allocation = DEFAULT_ALLOCATION[TIPLESS],
    ) -> "Mechanism":
        return Mechanism(TIPLESS, base_fee, eligibility, allocation)

    @staticmethod
    def trivial() -> "Mechanism":
        return Mechanism(TRIVIAL, None, Eligibility.FREE, DEFAULT_ALLOCATION[TRIVIAL])

    def reserve(self, tx: Transaction) -> Money:
        """Reserve price for one transaction: base fee times its size."""
        if self.base_fee is None:
            return 0
        return self.base_fee * tx.size


def _require_bid(bids: Mapping[int, Money], tx_id) -> Money:
    try:
        bid = bids[tx_id]
    except KeyError:
        raise UnknownTransactionError(tx_id) from None
    if not isinstance(bid, int) or isinstance(bid, bool) or bid < 0:
        raise ValueError(f"bid for tx {tx_id} must be a non-negative integer")
    return bid


def own_payment(mech: Mechanism, tx: Transaction, bid: Money) -> Money:
    """What an included transaction is charged at its own bid: the bid
    under fpa and eip1559, the bid capped at the reserve under tipless,
    nothing under trivial."""
    if mech.preset == TIPLESS:
        return min(bid, mech.reserve(tx))
    if mech.preset == TRIVIAL:
        return 0
    return bid


def fee_class(mech: Mechanism, tx: Transaction, bid: Money) -> Money | None:
    """All that an allocation or argmax reads of one bid: None when the
    producer may not include it (gated and below the reserve), else its
    contribution own_payment - reserve.

    Bids of one class get the same eligibility and contribution, and the
    same clearing status, since a contribution is >= 0 exactly when the bid
    clears the reserve.  Under tipless every eligible bid at or above the
    reserve is one class; under trivial every bid is.
    """
    if not eligible(mech, tx, bid):
        return None
    return own_payment(mech, tx, bid) - mech.reserve(tx)


def payment(mech: Mechanism, block: Block, bids: Mapping[int, Money], scenario: Scenario) -> dict[int, Money]:
    """Per-transaction charges for the block's members.

    Never exceeds the member's own bid, so a user is charged only what it
    offered (individual rationality against the bid).
    """
    return {
        t: own_payment(mech, scenario.tx(t), _require_bid(bids, t))
        for t in block.txs
    }


def burn(mech: Mechanism, block: Block, bids: Mapping[int, Money], scenario: Scenario) -> Money:
    """Money destroyed when this block is produced under these bids: every
    member's reserve, which is 0 for presets without a base fee."""
    return sum(mech.reserve(scenario.tx(t)) for t in block.txs)


def bps(block: Block, bids: Mapping[int, Money], scenario: Scenario, mech: Mechanism) -> Money:
    """Block producer surplus: private value plus fee income minus burn."""
    pays = payment(mech, block, bids, scenario)
    return (
        bp_value(block, scenario.bp_valuation)
        + sum(pays.values())
        - burn(mech, block, bids, scenario)
    )


def eligible(mech: Mechanism, tx: Transaction, bid: Money) -> bool:
    """Whether the producer is allowed to include the transaction at all."""
    if mech.eligibility is Eligibility.FREE:
        return True
    return bid >= mech.reserve(tx)


def is_base_fee_excessively_low(
    base_fee: Money, scenario: Scenario, bids: Mapping[int, Money]
) -> bool:
    """True when the clearing transactions cannot all fit in one block.

    Defined for knapsack blocksets: compares the total size of transactions
    bidding at least their reserve against the capacity.
    """
    blockset = scenario.blockset
    if not isinstance(blockset, KnapsackBlockset):
        raise UnsupportedInstanceError(
            "excessively-low test needs a knapsack blockset with a size cap"
        )
    candidates = blockset.candidate_ids
    ids = candidates if candidates is not None else scenario.ids()
    total = 0
    for t in ids:
        tx = scenario.tx(t)
        if _require_bid(bids, t) >= base_fee * tx.size:
            total += tx.size
    return total > blockset.max_total_size


def recommended_block(
    mech: Mechanism,
    bids: Mapping[int, Money],
    scenario: Scenario,
    *,
    budget: int | None = None,
) -> Block:
    """The block the mechanism's allocation rule tells the producer to build.

    Raises NoEligibleBlockError when the rule has no block to name.
    """
    from . import solver

    if mech.allocation is Allocation.CONSONANT:
        return solver.bps_argmax(bids, scenario, mech, budget=budget)

    if mech.preset == FPA:
        return solver.max_revenue_block(bids, scenario, budget=budget)

    if mech.preset == EIP1559:
        blockset = scenario.blockset
        if not isinstance(blockset, KnapsackBlockset):
            raise UnsupportedInstanceError(
                "standard eip1559 allocation needs a knapsack blockset; "
                "use the consonant allocation for explicit blocksets"
            )
        candidates = blockset.candidate_ids
        ids = candidates if candidates is not None else scenario.ids()
        clearing = [
            t for t in ids if _require_bid(bids, t) >= mech.reserve(scenario.tx(t))
        ]
        total = sum(scenario.tx(t).size for t in clearing)
        if total > blockset.max_total_size:
            raise ExcessivelyLowBaseFeeError(
                mech.base_fee, total, blockset.max_total_size
            )
        return Block(tuple(sorted(clearing)))

    # tipless standard: among feasible blocks whose members all clear the
    # reserve, take the one with the largest total size.  Enumerating the
    # feasible blocks first keeps the budget errors of a scan over them.
    solver.enumerate_blocks(
        scenario, eligible=_eligible_ids(mech, bids, scenario), budget=budget
    )
    clearing = frozenset(
        tx.tx_id
        for tx in scenario.transactions
        if _require_bid(bids, tx.tx_id) >= mech.reserve(tx)
    )
    sizes = {tx.tx_id: tx.size for tx in scenario.transactions}
    best = solver.max_block(
        scenario, sizes, valued=False, eligible=clearing, budget=budget
    )
    if best is None:
        raise NoEligibleBlockError(bids)
    return best


def _eligible_ids(mech, bids, scenario):
    """Eligibility filter for enumeration, or None when everything goes."""
    if mech.eligibility is Eligibility.FREE:
        return None
    return frozenset(
        tx.tx_id
        for tx in scenario.transactions
        if eligible(mech, tx, _require_bid(bids, tx.tx_id))
    )


@dataclass(frozen=True, slots=True)
class Truthful:
    """Bid the private value."""


@dataclass(frozen=True, slots=True)
class CappedAtReserve:
    """Bid the private value, capped at the transaction's reserve price."""

    base_fee: Money


@dataclass(frozen=True, slots=True)
class FixedOffset:
    """Bid the private value shifted by a constant, clamped at zero."""

    delta: Money


BiddingStrategy = Truthful | CappedAtReserve | FixedOffset


def strategy_bid(strategy: BiddingStrategy, valuation: Money, tx: Transaction) -> Money:
    """The bid the strategy recommends for one transaction at one value."""
    match strategy:
        case Truthful():
            return valuation
        case CappedAtReserve(base_fee=r):
            return min(valuation, r * tx.size)
        case FixedOffset(delta=d):
            return max(valuation + d, 0)
    raise TypeError(f"unsupported strategy {strategy!r}")


def apply_strategy(
    strategy: BiddingStrategy,
    scenario: Scenario,
    valuations: Mapping[int, Money] | None = None,
) -> dict[int, Money]:
    """Bid vector obtained by applying the strategy to every transaction.

    The valuations default to the ones recorded in the scenario; pass an
    override mapping to probe counterfactual values.
    """
    out = {}
    for tx in scenario.transactions:
        v = tx.valuation if valuations is None else valuations[tx.tx_id]
        if v < 0:
            raise ValueError(f"valuation for tx {tx.tx_id} must be >= 0")
        out[tx.tx_id] = strategy_bid(strategy, v, tx)
    return out
