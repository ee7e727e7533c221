"""Fee mechanism presets and bidding strategies.

A mechanism is a triple of allocation, payment, and burning rules.  Four
presets are shipped: first-price auctions, EIP-1559, the tipless variant of
EIP-1559, and the no-fee mechanism that just lets the producer pick its
favourite block.  Each preset's rules are one Rule record in RULES; every
other module reads a preset only through that table.  A member's payment
is Rule.pay(bid, reserve), its own bid and reserve alone, and the burn is
its reserves, so a rule that reads other users' bids needs a new record.
Every allocation is the argmax of one read of each bid (allocation_read):
a clearing bid's size under a standard rule, else its fee class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .core import (
    Block,
    KnapsackBlockset,
    Money,
    Scenario,
    Transaction,
    UnknownTransactionError,
    _check_int,
)

FPA = "fpa"
EIP1559 = "eip1559"
TIPLESS = "tipless"
TRIVIAL = "trivial"


class Eligibility(Enum):
    """Which transactions the producer may place in a block at all."""

    FREE = "free"
    BASE_FEE_GATED = "base_fee_gated"


# for per-bid code: on Python 3.11 an Enum member lookup costs ~0.16 us
_FREE = Eligibility.FREE


class Allocation(Enum):
    REVENUE_MAX = "revenue_max"
    STANDARD = "standard"
    CONSONANT = "consonant"


@dataclass(frozen=True, slots=True)
class Rule:
    """All that one preset defines.

    pay          pay(bid, reserve), the charge of an included transaction
    base_fee     whether the preset takes a base fee, and so has reserves
    allocations  the allocations it supports, its default first
    """

    pay: Callable[[Money, Money], Money]
    base_fee: bool
    allocations: tuple[Allocation, ...]


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

    preset       a key of RULES: "fpa", "eip1559", "tipless" or "trivial"
    base_fee     per-size-unit reserve, required by the presets with one
    eligibility  whether below-reserve transactions may be included at all
    allocation   which block the mechanism tells the producer to build;
                 None takes the preset's default
    """

    preset: str
    base_fee: Money | None = None
    eligibility: Eligibility = Eligibility.FREE
    allocation: Allocation | None = None

    def __post_init__(self):
        rule = RULES.get(self.preset) if isinstance(self.preset, str) else None
        if rule is None:
            raise ValueError(f"unknown preset {self.preset!r}")
        if not isinstance(self.eligibility, Eligibility):
            raise ValueError(f"eligibility must be an Eligibility, got {self.eligibility!r}")
        if self.allocation is None:
            object.__setattr__(self, "allocation", rule.allocations[0])
        elif not isinstance(self.allocation, Allocation):
            raise ValueError(f"allocation must be an Allocation, got {self.allocation!r}")
        if rule.base_fee:
            if not isinstance(self.base_fee, int) or isinstance(self.base_fee, bool):
                raise ValueError(f"{self.preset} needs an integer base fee")
            if self.base_fee < 0:
                raise ValueError("base fee must be >= 0")
        elif self.base_fee is not None:
            raise ValueError(f"{self.preset} takes no base fee")
        elif self.eligibility is not Eligibility.FREE:
            raise ValueError(f"{self.preset} has no reserve to gate on")
        if self.allocation not in rule.allocations:
            names = " or ".join(a.value for a in rule.allocations)
            raise ValueError(f"{self.preset} supports {names} allocation")

    @staticmethod
    def fpa(allocation: Allocation | None = None) -> "Mechanism":
        return Mechanism(FPA, None, Eligibility.FREE, allocation)

    @staticmethod
    def eip1559(
        base_fee: Money,
        eligibility: Eligibility = Eligibility.FREE,
        allocation: Allocation | None = None,
    ) -> "Mechanism":
        return Mechanism(EIP1559, base_fee, eligibility, allocation)

    @staticmethod
    def tipless(
        base_fee: Money,
        eligibility: Eligibility = Eligibility.FREE,
        allocation: Allocation | None = None,
    ) -> "Mechanism":
        return Mechanism(TIPLESS, base_fee, eligibility, allocation)

    @staticmethod
    def trivial() -> "Mechanism":
        return Mechanism(TRIVIAL)

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
    """What an included transaction is charged at its own bid."""
    return RULES[mech.preset].pay(bid, mech.reserve(tx))


def argmax_valued(mech: Mechanism) -> bool:
    """Whether the allocation is the valued argmax of its read of the bids
    (allocation_read): True for consonant, the argmax of producer surplus
    (the producer's value plus the members' contributions), False for
    revenue_max, the argmax of the contributions alone (fee revenue under
    fpa, which pays the bid and has no reserve), and for a standard rule."""
    return mech.allocation is Allocation.CONSONANT


def fee_class(mech: Mechanism, tx: Transaction, bid: Money) -> Money | None:
    """All that an argmax allocation or the producer's surplus reads of one
    bid: None when the producer may not include it (gated and below the
    reserve), else its contribution.

    Bids of one class get the same eligibility and contribution, and the
    same clearing status, since a contribution is >= 0 exactly when the bid
    clears the reserve.  Under tipless every eligible bid at or above the
    reserve is one class; under trivial every bid is.
    """
    reserve = mech.reserve(tx)
    if bid < reserve and mech.eligibility is not _FREE:
        return None
    return RULES[mech.preset].pay(bid, reserve) - reserve


def _clearing_size(mech: Mechanism, tx: Transaction, bid: Money) -> Money | None:
    """A standard rule's read of one bid: its size when it clears the
    reserve, else None.  So every standard rule is the largest clearing
    block: eip1559's clearing set, when it fits, outweighs its subsets, as
    sizes are >= 1.  Private, so that wrapping the public functions
    (bench/tracer.py) keeps the identity that _admitted tests."""
    return tx.size if bid >= mech.reserve(tx) else None


def allocation_read(mech: Mechanism) -> Callable:
    """The read of a bid that the allocation is the argmax of:
    _clearing_size under a standard rule, else fee_class."""
    return _clearing_size if mech.allocation is Allocation.STANDARD else fee_class


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
        scenario.bp_valuation.of(block)
        + sum(pays.values())
        - burn(mech, block, bids, scenario)
    )


def eligible(mech: Mechanism, tx: Transaction, bid: Money) -> bool:
    """Whether the producer is allowed to include the transaction at all."""
    return mech.eligibility is Eligibility.FREE or bid >= mech.reserve(tx)


def is_base_fee_excessively_low(
    base_fee: Money, scenario: Scenario, bids: Mapping[int, Money]
) -> bool:
    """True when the clearing transactions cannot all fit in one block.

    Defined for knapsack blocksets: compares the total size of transactions
    bidding at least their reserve against the capacity.
    """
    if not isinstance(scenario.blockset, KnapsackBlockset):
        raise UnsupportedInstanceError(
            "excessively-low test needs a knapsack blockset with a size cap"
        )
    return sum(
        tx.size for tx in _candidates(scenario) if _require_bid(bids, tx.tx_id) >= base_fee * tx.size
    ) > scenario.blockset.max_total_size


def _candidates(scenario):
    """The transactions a knapsack blockset may hold, in id order."""
    ids = scenario.blockset.candidate_ids
    return [scenario.tx(t) for t in (ids if ids is not None else scenario.ids())]


def _admitted(mech: Mechanism, scenario: Scenario, weights, read, budget) -> frozenset[int] | None:
    """The eligibility filter of a pass of `read` at `weights`, the reads of
    the ids it admits (None: every block).  Every pass enumerates the
    blocks eligible under the mechanism's eligibility, under the budget,
    and scores those its read admits; only a standard rule's read under
    free eligibility admits fewer.  Before that, standard eip1559 refuses a
    blockset other than a knapsack and clearing candidates that overflow
    its capacity (an excessively low base fee)."""
    if read is not _clearing_size:
        return None if mech.eligibility is _FREE else frozenset(weights)
    blockset = scenario.blockset
    if mech.preset == EIP1559:
        if not isinstance(blockset, KnapsackBlockset):
            raise UnsupportedInstanceError(
                "standard eip1559 allocation needs a knapsack blockset; "
                "use the consonant allocation for explicit blocksets"
            )
        total = sum(tx.size for tx in _candidates(scenario) if tx.tx_id in weights)
        if total > blockset.max_total_size:
            raise ExcessivelyLowBaseFeeError(mech.base_fee, total, blockset.max_total_size)
    if mech.eligibility is _FREE:
        solver.enumerate_blocks(scenario, budget=budget)
    return frozenset(weights)


def recommended_block(
    mech: Mechanism,
    bids: Mapping[int, Money],
    scenario: Scenario,
    *,
    budget: int | None = None,
) -> Block:
    """The block the mechanism's allocation rule tells the producer to build:
    the best block of one split_pass of its read (allocation_read), which
    checks every bid, in transaction order, before any refusal or pass, so
    every allocation raises one error for one bid vector.  Raises
    NoEligibleBlockError when the rule has no block to name."""
    return solver.split_pass(
        bids, scenario, mech, valued=argmax_valued(mech), read=allocation_read(mech), budget=budget
    )[1]


RULES = {
    FPA: Rule(lambda b, r: b, False, (Allocation.REVENUE_MAX, Allocation.CONSONANT)),
    EIP1559: Rule(lambda b, r: b, True, (Allocation.STANDARD, Allocation.CONSONANT)),
    TIPLESS: Rule(min, True, (Allocation.STANDARD, Allocation.CONSONANT)),
    TRIVIAL: Rule(lambda b, r: 0, False, (Allocation.CONSONANT,)),
}


@dataclass(frozen=True, slots=True)
class Truthful:
    """Bid the private value."""


@dataclass(frozen=True, slots=True)
class CappedAtReserve:
    """Bid the private value, capped at the transaction's reserve price."""

    base_fee: Money

    def __post_init__(self):
        _check_int("capped strategy base fee", self.base_fee, minimum=0)


@dataclass(frozen=True, slots=True)
class FixedOffset:
    """Bid the private value shifted by a constant, clamped at zero."""

    delta: Money

    def __post_init__(self):
        _check_int("offset strategy delta", self.delta)


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


# solver imports this module, so it is imported last
from . import solver  # noqa: E402
