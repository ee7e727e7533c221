"""Value model for fee-mechanism experiments.

Transactions, blocks, feasible block sets, and block-producer valuations,
plus the exact accounting quantities built on top of them (welfare, private
value, user utility).  All monetary amounts are plain Python integers in
micro-units; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

Money = int


class UnknownTransactionError(LookupError):
    """A block or bid vector referenced a transaction id the scenario lacks."""

    def __init__(self, tx_id):
        super().__init__(f"unknown transaction id {tx_id!r}")
        self.tx_id = tx_id


def _check_int(name, value, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True, slots=True)
class Transaction:
    """A pending transaction: id, byte size, private value, submitted bid."""

    tx_id: int
    size: int
    valuation: Money
    bid: Money = 0

    def __post_init__(self):
        _check_int("tx_id", self.tx_id)
        _check_int("size", self.size, minimum=1)
        _check_int("valuation", self.valuation, minimum=0)
        _check_int("bid", self.bid, minimum=0)


@dataclass(frozen=True, slots=True)
class Block:
    """An ordered sequence of distinct transaction ids."""

    txs: tuple[int, ...] = ()

    def __post_init__(self):
        txs = tuple(self.txs)
        object.__setattr__(self, "txs", txs)
        for t in txs:
            if t.__class__ is not int:
                _check_int("block id", t)
        if len(set(txs)) != len(txs):
            raise ValueError(f"block repeats a transaction id: {txs}")

    def __len__(self):
        return len(self.txs)

    def __iter__(self):
        return iter(self.txs)

    def __contains__(self, tx_id):
        return tx_id in self.txs

    def without(self, tx_id) -> "Block":
        """The same block with one transaction deleted, order preserved."""
        if tx_id not in self.txs:
            raise UnknownTransactionError(tx_id)
        return Block(tuple(t for t in self.txs if t != tx_id))


EMPTY_BLOCK = Block(())


@dataclass(frozen=True, eq=True)
class ExplicitBlockset:
    """A feasible set given by listing every allowed block, each once."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a blockset must contain at least one block")
        for b in blocks:
            if not isinstance(b, Block):
                raise ValueError(f"blockset block {b!r} is not a Block")
        # id tuples hash in C, where a Block's dataclass hash is a Python call
        members = [b.txs for b in blocks]
        if len(set(members)) < len(members):
            twice = next(t for t in members if members.count(t) > 1)
            raise ValueError(f"blockset lists block {list(twice)} twice")
        object.__setattr__(self, "blocks", blocks)

    def referenced_ids(self):
        return {t for b in self.blocks for t in b}


@dataclass(frozen=True, eq=True)
class KnapsackBlockset:
    """Every subset of the candidates whose total size fits the cap.

    Contains the empty block by construction and is downward closed.  With
    enumerate_permutations set, each feasible subset is expanded into all of
    its orderings (supported up to 8 transactions per block).
    """

    max_total_size: int
    candidate_ids: tuple[int, ...] | None = None
    enumerate_permutations: bool = False

    def __post_init__(self):
        _check_int("max_total_size", self.max_total_size, minimum=0)
        perms = self.enumerate_permutations
        if not isinstance(perms, bool):
            raise ValueError(f"enumerate_permutations must be True or False, got {perms!r}")
        if self.candidate_ids is not None:
            ids = tuple(self.candidate_ids)
            for t in ids:
                _check_int("candidate id", t)
            if len(set(ids)) != len(ids):
                raise ValueError("candidate_ids repeats a transaction id")
            object.__setattr__(self, "candidate_ids", ids)

    def referenced_ids(self):
        return set(self.candidate_ids) if self.candidate_ids is not None else None


Blockset = Union[ExplicitBlockset, KnapsackBlockset]


@dataclass(frozen=True, slots=True)
class PassiveValuation:
    """The producer values every block the same; only fee income matters."""

    constant: Money = 0

    def __post_init__(self):
        _check_int("constant", self.constant)

    def of(self, block: Block) -> Money:
        return self.constant


@dataclass(frozen=True)
class AdditiveValuation:
    """Per-transaction private values, summed over the block.  Ids not
    listed contribute 0."""

    values: Mapping[int, Money] = field(default_factory=dict)

    def __post_init__(self):
        frozen = dict(self.values)
        for k, v in frozen.items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"additive value keyed by non-id {k!r}")
            _check_int(f"value for tx {k}", v)
        object.__setattr__(self, "values", frozen)

    def of(self, block: Block) -> Money:
        vals = self.values
        return sum(vals.get(t, 0) for t in block.txs)


@dataclass(frozen=True)
class SingleMindedValuation:
    """Worth `value` on the listed target blocks, 0 anywhere else."""

    targets: frozenset[Block]
    value: Money

    def __post_init__(self):
        targets = frozenset(self.targets)
        for b in targets:
            if not isinstance(b, Block):
                raise ValueError(f"single-minded target {b!r} is not a Block")
        object.__setattr__(self, "targets", targets)
        _check_int("value", self.value)

    def of(self, block: Block) -> Money:
        return self.value if block in self.targets else 0


@dataclass(frozen=True)
class TableValuation:
    """An explicit block-to-value table; unlisted blocks default to 0."""

    entries: Mapping[Block, Money] = field(default_factory=dict)

    def __post_init__(self):
        frozen = dict(self.entries)
        for b, v in frozen.items():
            if not isinstance(b, Block):
                raise ValueError(f"table keyed by non-block {b!r}")
            _check_int(f"value for block {b.txs}", v)
        object.__setattr__(self, "entries", frozen)

    def of(self, block: Block) -> Money:
        return self.entries.get(block, 0)


BpValuation = Union[
    PassiveValuation, AdditiveValuation, SingleMindedValuation, TableValuation
]


def _check_valuation(valuation):
    if not isinstance(valuation, BpValuation):
        raise ValueError(f"bp_valuation must be a BpValuation, got {valuation!r}")


def _valued_caches():
    """Empty copies of a world's caches that depend on its valuation."""
    return {"_plan_cache": {}, "_value_range": None, "_digest": None}


@dataclass(frozen=True)
class Scenario:
    """A complete pricing instance: transactions, producer valuation, and
    the feasible blockset.

    Each field's type is checked once, here (each value type checks its own
    fields), and ids must be distinct and cover the blockset's references.

    A world caches what it computes about itself: its feasible blocks per
    eligibility filter (solver.enumerate_blocks), their producer values
    grouped by member set (the solver's plans), the lowest and highest
    producer value over its feasible blocks (solver.value_range) and its
    digest (scenario_io.scenario_digest); no allocation is memoized.
    with_valuation worlds share the first and recompute the others."""

    transactions: tuple[Transaction, ...]
    bp_valuation: BpValuation
    blockset: Blockset
    rng_seed: int | None = None

    def __post_init__(self):
        if self.rng_seed is not None:
            _check_int("rng_seed", self.rng_seed)
        _check_valuation(self.bp_valuation)
        if not isinstance(self.blockset, Blockset):
            raise ValueError(f"blockset must be a Blockset, got {self.blockset!r}")
        txs = tuple(self.transactions)
        object.__setattr__(self, "transactions", txs)
        by_id = {}
        for tx in txs:
            if not isinstance(tx, Transaction):
                raise ValueError(f"transactions entry {tx!r} is not a Transaction")
            if tx.tx_id in by_id:
                raise ValueError(f"duplicate transaction id {tx.tx_id}")
            by_id[tx.tx_id] = tx
        referenced = self.blockset.referenced_ids()
        if referenced is not None:
            missing = referenced - by_id.keys()
            if missing:
                raise UnknownTransactionError(sorted(missing)[0])
        vars(self).update(_by_id=by_id, _enum_cache={}, **_valued_caches())

    def with_valuation(self, valuation: BpValuation) -> "Scenario":
        """The same transactions, blockset and seed under another producer
        valuation.

        Only __post_init__'s valuation check reads the valuation, so it is
        made here and the new world skips __post_init__: it shares this
        one's transactions, id map and enumeration cache.  Its plans, value
        range and digest hold or cover producer values, so they start
        empty.
        """
        _check_valuation(valuation)
        world = object.__new__(type(self))
        vars(world).update(vars(self), bp_valuation=valuation, **_valued_caches())
        return world

    def tx(self, tx_id) -> Transaction:
        try:
            return self._by_id[tx_id]
        except KeyError:
            raise UnknownTransactionError(tx_id) from None

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    def submitted_bids(self) -> dict[int, Money]:
        return {tx.tx_id: tx.bid for tx in self.transactions}


def welfare(block: Block, scenario: Scenario) -> Money:
    """Producer value of the block plus the private values of its users."""
    return scenario.bp_valuation.of(block) + sum(
        scenario.tx(t).valuation for t in block.txs
    )


def user_utility(tx_id, included: bool, payment: Money, scenario: Scenario) -> Money:
    """Value minus payment when included; exactly 0 otherwise."""
    tx = scenario.tx(tx_id)
    if not included:
        if payment != 0:
            raise ValueError(
                f"tx {tx_id} excluded but charged {payment}; excluded users pay 0"
            )
        return 0
    return tx.valuation - payment
