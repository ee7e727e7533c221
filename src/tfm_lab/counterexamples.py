"""Executable counterexample builders.

Each builder takes a mechanism that looks well behaved on one instance and
manufactures a concrete world where following the rules goes wrong: a
charged user who could have forced inclusion at price zero, or a producer
whose recommendation forfeits almost all welfare.  Every claim the builder
relies on is re-verified by exhaustive replay before the witness is
returned, so a successful construction is itself a machine-checked proof
for that instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AdditiveValuation,
    Block,
    EMPTY_BLOCK,
    ExplicitBlockset,
    KnapsackBlockset,
    Money,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    _check_int,
    welfare,
)
from .auditors import welfare_argmax
from .mechanisms import (
    Allocation,
    BiddingStrategy,
    Eligibility,
    Mechanism,
    Truthful,
    UnsupportedInstanceError,
    burn,
    bps,
    payment,
    recommended_block,
    strategy_bid,
)
from .solver import (
    canonical_key,
    enumerate_blocks,
    resolve_budget,
    split_pass,
    value_range,
)


class AlreadyTrivialError(ValueError):
    """Nobody pays anything on this input, so there is nothing to break."""

    def __init__(self):
        super().__init__(
            "mechanism already charges zero to every included user on this "
            "input; the zero-bid construction needs a positive payment"
        )


class ConstructionReplayError(RuntimeError):
    """An exhaustively checked claim of the construction failed to replay."""


class IncentiveViolationError(RuntimeError):
    """A probe revealed the mechanism rewarding a higher reported value with
    inclusion, which a user-strategyproof mechanism must never do."""


@dataclass(frozen=True)
class ZeroBidWitness:
    """A charged user together with an adversarial producer valuation under
    which bidding zero still guarantees inclusion.

    In the modified world the user keeps its slot for free, so deviating
    from the recorded bid to zero gains exactly the original payment.
    """

    mech: Mechanism
    scenario: Scenario
    bids: tuple[tuple[int, Money], ...]
    charged_tx: int
    original_payment: Money
    original_block: Block
    total_bids: Money
    zero_bids: tuple[tuple[int, Money], ...]
    burn_at_zero: Money
    modified_scenario: Scenario
    zero_bid_block: Block
    utility_gain: Money
    variant: str


def _shared_zero_bid(mech, scenario, bids, budget, variant):
    budget = resolve_budget(budget)
    block = recommended_block(mech, bids, scenario, budget=budget)
    # recommended_block checked every bid, in transaction order
    bids = {t: bids[t] for t in scenario.ids()}
    pays = payment(mech, block, bids, scenario)
    charged = sorted(t for t, p in pays.items() if p > 0)
    if not charged:
        raise AlreadyTrivialError()
    t_star = charged[0]
    p_star = pays[t_star]

    total_bids = sum(bids.values())
    zero_bids = dict(bids)
    zero_bids[t_star] = 0
    burn_q = burn(mech, block, zero_bids, scenario)

    if variant == "additive":
        # Additive stakes value every ordering of the members alike, so the
        # modified world's argmax takes the canonical-first one.
        blockset = scenario.blockset
        if isinstance(blockset, ExplicitBlockset) or blockset.enumerate_permutations:
            members = set(block.txs)
            first = min(
                (b for b in enumerate_blocks(scenario, budget=budget) if set(b.txs) == members),
                key=canonical_key,
            )
            if first != block:
                raise UnsupportedInstanceError(
                    f"the recommended block {block.txs} is not the canonical-first "
                    f"ordering {first.txs} of its members, and additive stakes "
                    f"cannot tell orderings apart; use "
                    f"construct_zero_bid_single_minded (zero-bid-sm)"
                )
        # Boost the producer's per-transaction stake in the chosen block so
        # far past every fee and burn that dropping any member costs more
        # than fees could ever recoup.
        boost = total_bids + burn_q + 1
        values = {
            t: scenario.bp_valuation.of(Block((t,))) + boost
            for t in block.txs
        }
        modified_valuation = AdditiveValuation(values)
    else:
        lows, highs = value_range(scenario, budget=budget)
        spread = highs - lows
        modified_valuation = SingleMindedValuation(
            frozenset({block}), spread + total_bids + burn_q + 1
        )

    modified = scenario.with_valuation(modified_valuation)

    _, best0, tied0 = split_pass(zero_bids, modified, mech, valued=True, budget=budget)
    members = set(block.txs)
    for b in tied0:
        if not members <= set(b.txs):
            raise ConstructionReplayError(
                f"a surplus-maximizing block {b.txs} under the zero bid drops "
                f"part of the original block {block.txs}"
            )
    if variant == "single_minded" and tuple(tied0) != (block,):
        raise ConstructionReplayError(
            "the single-minded world must make the original block the unique "
            f"surplus maximizer, found ties {[b.txs for b in tied0]}"
        )

    pay_zero = payment(mech, best0, zero_bids, modified)[t_star]
    if pay_zero != 0:
        raise ConstructionReplayError(
            f"included at bid zero but charged {pay_zero}; payments must not "
            f"exceed the bid"
        )

    _, fixed, fixed_tied = split_pass(bids, modified, mech, valued=True, budget=budget)
    if fixed != block:
        raise ConstructionReplayError(
            f"under the original bids the modified world selects {fixed.txs} "
            f"instead of the original block {block.txs}"
        )
    if variant == "single_minded" and tuple(fixed_tied) != (block,):
        raise ConstructionReplayError(
            "the single-minded world must keep the original block uniquely "
            "optimal under the original bids"
        )

    return ZeroBidWitness(
        mech=mech,
        scenario=scenario,
        bids=tuple(sorted(bids.items())),
        charged_tx=t_star,
        original_payment=p_star,
        original_block=block,
        total_bids=total_bids,
        zero_bids=tuple(sorted(zero_bids.items())),
        burn_at_zero=burn_q,
        modified_scenario=modified,
        zero_bid_block=best0,
        utility_gain=p_star,
        variant=variant,
    )


def construct_zero_bid(
    mech: Mechanism, scenario: Scenario, bids, *, budget: int | None = None
) -> ZeroBidWitness:
    """Witness that a consonant mechanism charging anyone anything cannot be
    user-strategyproof, using an additive producer valuation.

    The bids should be the ones the mechanism's own strategy recommends; the
    charged user then gains its whole payment by bidding zero instead.
    On an ordered blockset, a recommended block that is not the
    canonical-first ordering of its members is refused with
    UnsupportedInstanceError before the modified world is built: additive
    stakes cannot make the producer prefer it over that ordering.  The
    single-minded variant certifies such blocks.
    """
    return _shared_zero_bid(mech, scenario, bids, budget, "additive")


def construct_zero_bid_single_minded(
    mech: Mechanism, scenario: Scenario, bids, *, budget: int | None = None
) -> ZeroBidWitness:
    """Same witness with a producer that values exactly one block, making the
    chosen block the unique surplus maximizer: no tie-breaking involved."""
    return _shared_zero_bid(mech, scenario, bids, budget, "single_minded")


@dataclass(frozen=True)
class WelfareGapScenario:
    """A two-transaction world where a no-fee mechanism keeps at most a rho
    fraction of the available welfare."""

    mech: Mechanism
    scenario: Scenario
    rho: Fraction
    epsilon: Money
    bp_favored_block: Block
    user_favored_block: Block
    burn_on_favored: Money
    recommended: Block
    optimal: Block
    ratio: Fraction
    probes: tuple[tuple[Money, tuple[int, ...]], ...]


def construct_welfare_gap(
    mech: Mechanism,
    rho,
    *,
    strategy: BiddingStrategy = Truthful(),
    probe_rounds: int = 4,
    budget: int | None = None,
) -> WelfareGapScenario:
    """Drive the welfare ratio of a zero-payment mechanism below rho.

    One transaction carries a huge private value the producer ignores; the
    other comes with a sliver of producer value.  Because the mechanism
    collects no fees, the producer prefers the sliver no matter how valuable
    the other transaction becomes; the probe schedule doubles that value a
    few times to confirm the preference is really value-independent.
    """
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be a rational in (0, 1], got {rho}")
    _check_int("probe_rounds", probe_rounds, minimum=0)
    budget = resolve_budget(budget)

    y, z = 0, 1
    block_y, block_z = Block((y,)), Block((z,))
    blockset = ExplicitBlockset((EMPTY_BLOCK, block_y, block_z))
    v_z = 1
    epsilon = 1

    def build(v_y, bp_z):
        tx_y = Transaction(y, 1, v_y, strategy_bid(strategy, v_y, Transaction(y, 1, v_y)))
        tx_z = Transaction(z, 1, v_z, strategy_bid(strategy, v_z, Transaction(z, 1, v_z)))
        return Scenario((tx_y, tx_z), TableValuation({block_z: bp_z}), blockset)

    probe = build(1, 0)
    burn_z = burn(mech, block_z, probe.submitted_bids(), probe)
    bp_z = burn_z + epsilon
    v_y_floor = math.ceil(Fraction(v_z + burn_z + epsilon, 1) / rho)

    probes = []
    chosen = None
    for k in range(probe_rounds + 1):
        v_y = v_y_floor * (2**k)
        scenario = build(v_y, bp_z)
        bids = scenario.submitted_bids()
        rec = recommended_block(mech, bids, scenario, budget=budget)
        pays = payment(mech, rec, bids, scenario)
        if any(p != 0 for p in pays.values()):
            raise UnsupportedInstanceError(
                "the welfare-gap construction needs a mechanism that charges "
                "nothing under the supplied strategy"
            )
        if rec == block_y:
            raise IncentiveViolationError(
                "raising the reported value flipped the recommendation to the "
                "high-user-value block: inclusion depends on the report, so "
                "users can gain by inflating values and the mechanism is not "
                "user-strategyproof"
            )
        probes.append((v_y, rec.txs))
        if k == 0:
            chosen = scenario, rec

    scenario, rec = chosen
    opt = welfare_argmax(scenario, budget=budget)
    if opt != block_y:
        raise ConstructionReplayError(
            f"expected the high-user-value block to be welfare-optimal, got {opt.txs}"
        )
    w_rec = welfare(rec, scenario)
    w_opt = welfare(opt, scenario)
    ratio = Fraction(w_rec, w_opt)
    if ratio > rho:
        raise ConstructionReplayError(
            f"certified ratio {ratio} exceeds the target {rho}"
        )
    return WelfareGapScenario(
        mech=mech,
        scenario=scenario,
        rho=rho,
        epsilon=epsilon,
        bp_favored_block=block_z,
        user_favored_block=block_y,
        burn_on_favored=burn_z,
        recommended=rec,
        optimal=opt,
        ratio=ratio,
        probes=tuple(probes),
    )


@dataclass(frozen=True)
class DemoWorld:
    label: str
    scenario: Scenario
    mech: Mechanism
    bid: Money
    recommended: Block
    included: bool
    surplus_included: Money
    surplus_empty: Money
    user_utility: Money
    knife_edge: bool


@dataclass(frozen=True)
class UnderbidDemo:
    """Two producer valuations, one underbid: inclusion flips with the
    producer's private stake, so no value-only bidding rule fits both."""

    worlds: tuple[DemoWorld, ...]
    baseline: DemoWorld

    def narrative(self) -> str:
        lines = [
            "One transaction of size 1 and value 2 faces a base fee of 2 per "
            "size unit, so its reserve price is 2.",
            "",
        ]
        for w in self.worlds:
            verdict = "included" if w.included else "left out"
            lines.append(
                f"{w.label}: bidding {w.bid} makes the producer's surplus "
                f"{w.surplus_included} with the transaction vs {w.surplus_empty} "
                f"without, so it is {verdict}; user utility {w.user_utility}."
            )
            if w.knife_edge:
                lines.append(
                    "  (knife edge: the surplus is exactly tied and the fixed "
                    "tie-break order prefers the shorter block, dropping the "
                    "transaction.)"
                )
        b = self.baseline
        lines += [
            "",
            f"{b.label}: bidding {b.bid} clears the reserve, the transaction "
            f"is {'included' if b.included else 'left out'} and pays the "
            f"reserve, leaving utility {b.user_utility}.",
            "",
            "The profitable bid depends on the producer's private valuation, "
            "which users cannot observe: underbidding wins in one world and "
            "loses in the other.",
        ]
        return "\n".join(lines)


def eip1559_underbid_demo() -> UnderbidDemo:
    """The canonical two-world underbidding dilemma at base fee 2."""
    consonant = Mechanism.eip1559(2, Eligibility.FREE, Allocation.CONSONANT)
    standard = Mechanism.eip1559(2, Eligibility.FREE, Allocation.STANDARD)

    def world(label, valuation, bid, mech, knife=False):
        tx = Transaction(0, 1, 2, bid)
        scenario = Scenario((tx,), valuation, _demo_blockset())
        bids = {0: bid}
        rec = recommended_block(mech, bids, scenario)
        included = 0 in rec
        s_in = bps(Block((0,)), bids, scenario, consonant)
        s_out = bps(EMPTY_BLOCK, bids, scenario, consonant)
        utility = (2 - payment(mech, rec, bids, scenario)[0]) if included else 0
        return DemoWorld(
            label, scenario, mech, bid, rec, included, s_in, s_out, utility, knife
        )

    worlds = (
        world("Passive producer, underbid", PassiveValuation(0), 1, consonant),
        world(
            "Producer privately values the transaction at 2, underbid",
            AdditiveValuation({0: 2}),
            1,
            consonant,
        ),
        world(
            "Producer stake exactly offsets the shortfall, underbid",
            AdditiveValuation({0: 1}),
            1,
            consonant,
            knife=True,
        ),
    )
    baseline = world(
        "Passive producer, standard allocation, value capped at the reserve",
        PassiveValuation(0),
        2,
        standard,
    )
    return UnderbidDemo(worlds, baseline)


def _demo_blockset():
    return KnapsackBlockset(1, (0,))
