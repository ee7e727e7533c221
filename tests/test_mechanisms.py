"""Unit tests for the mechanism presets: payments, burn, allocation rules,
eligibility, and bidding strategies."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Allocation,
    Block,
    CappedAtReserve,
    Eligibility,
    EnumerationBudgetError,
    ExcessivelyLowBaseFeeError,
    ExplicitBlockset,
    FixedOffset,
    KnapsackBlockset,
    Mechanism,
    NoEligibleBlockError,
    PassiveValuation,
    Scenario,
    ScenarioFormatError,
    Transaction,
    Truthful,
    UnknownTransactionError,
    UnsupportedInstanceError,
    apply_strategy,
    bps,
    bps_argmax,
    burn,
    eligible,
    enumerate_blocks,
    fee_class,
    is_base_fee_excessively_low,
    parse_scenario_text,
    payment,
    recommended_block,
    strategy_bid,
)
from tfm_lab.mechanisms import (
    EIP1559,
    FPA,
    RULES,
    TIPLESS,
    TRIVIAL,
)
from tfm_lab import canonical_key, cli


def scenario_with(txs, bp=None, cap=None):
    total = sum(t.size for t in txs)
    return Scenario(
        tuple(txs), bp or PassiveValuation(0), KnapsackBlockset(cap or total)
    )


TWO_TXS = (Transaction(0, 1, 5, 4), Transaction(1, 2, 7, 7))


class TestPayments:
    def test_fpa_charges_the_bid(self):
        sc = scenario_with(TWO_TXS)
        assert payment(Mechanism.fpa(), Block((0, 1)), {0: 4, 1: 7}, sc) == {0: 4, 1: 7}

    def test_eip1559_charges_the_bid(self):
        sc = scenario_with(TWO_TXS)
        mech = Mechanism.eip1559(2)
        assert payment(mech, Block((0, 1)), {0: 4, 1: 7}, sc) == {0: 4, 1: 7}

    def test_tipless_charges_bid_capped_at_reserve(self):
        sc = scenario_with(TWO_TXS)
        mech = Mechanism.tipless(2)
        # reserves: tx0 size 1 -> 2, tx1 size 2 -> 4
        assert payment(mech, Block((0, 1)), {0: 4, 1: 3}, sc) == {0: 2, 1: 3}

    def test_trivial_charges_nothing(self):
        sc = scenario_with(TWO_TXS)
        assert payment(Mechanism.trivial(), Block((0, 1)), {0: 4, 1: 7}, sc) == {0: 0, 1: 0}

    def test_only_members_are_charged(self):
        sc = scenario_with(TWO_TXS)
        assert payment(Mechanism.fpa(), Block((1,)), {0: 4, 1: 7}, sc) == {1: 7}

    def test_missing_bid_is_an_error(self):
        sc = scenario_with(TWO_TXS)
        with pytest.raises(UnknownTransactionError):
            payment(Mechanism.fpa(), Block((0,)), {}, sc)

    def test_negative_bid_is_an_error(self):
        sc = scenario_with(TWO_TXS)
        with pytest.raises(ValueError):
            payment(Mechanism.fpa(), Block((0,)), {0: -1}, sc)


class TestBurn:
    def test_fpa_and_trivial_burn_nothing(self):
        sc = scenario_with(TWO_TXS)
        assert burn(Mechanism.fpa(), Block((0, 1)), {0: 4, 1: 7}, sc) == 0
        assert burn(Mechanism.trivial(), Block((0, 1)), {0: 4, 1: 7}, sc) == 0

    def test_reserve_burn_scales_with_size(self):
        sc = scenario_with(TWO_TXS)
        assert burn(Mechanism.eip1559(3), Block((0, 1)), {0: 4, 1: 7}, sc) == 9
        assert burn(Mechanism.tipless(3), Block((1,)), {0: 4, 1: 7}, sc) == 6
        assert burn(Mechanism.eip1559(3), EMPTY_BLOCK, {}, sc) == 0


class TestBps:
    def test_bps_is_value_plus_fees_minus_burn(self):
        sc = scenario_with(TWO_TXS, bp=AdditiveValuation({0: 10}))
        mech = Mechanism.eip1559(2)
        # value 10, fees 4 + 7, burn 2 + 4
        assert bps(Block((0, 1)), {0: 4, 1: 7}, sc, mech) == 10 + 11 - 6

    def test_empty_block_bps_is_producer_value(self):
        sc = scenario_with(TWO_TXS, bp=PassiveValuation(3))
        assert bps(EMPTY_BLOCK, {}, sc, Mechanism.fpa()) == 3


class TestEligibility:
    def test_free_admits_everything(self):
        mech = Mechanism.eip1559(5)
        assert eligible(mech, Transaction(0, 2, 1), 0)

    def test_gated_requires_the_reserve(self):
        mech = Mechanism.eip1559(5, Eligibility.BASE_FEE_GATED)
        tx = Transaction(0, 2, 20)
        assert not eligible(mech, tx, 9)
        assert eligible(mech, tx, 10)

    def test_gated_consonant_excludes_under_reserve_txs(self):
        sc = scenario_with(
            (Transaction(0, 1, 9, 9), Transaction(1, 1, 1, 1)),
            bp=AdditiveValuation({0: 5, 1: 5}),
        )
        mech = Mechanism.eip1559(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        # tx1 bids 1 < reserve 2, so no block may contain it
        assert recommended_block(mech, sc.submitted_bids(), sc) == Block((0,))


class TestFeeClass:
    def test_tipless_merges_every_bid_from_the_reserve_up(self):
        tx = Transaction(0, 2, 0)
        free = Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT)
        gated = Mechanism.tipless(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        assert [fee_class(free, tx, b) for b in range(7)] == [-4, -3, -2, -1, 0, 0, 0]
        assert [fee_class(gated, tx, b) for b in range(7)] == [None] * 4 + [0] * 3

    def test_fpa_and_eip1559_classes_are_the_bids_less_the_reserve(self):
        tx = Transaction(0, 1, 0)
        assert [fee_class(Mechanism.fpa(), tx, b) for b in range(4)] == [0, 1, 2, 3]
        assert [fee_class(Mechanism.eip1559(2), tx, b) for b in range(4)] == [-2, -1, 0, 1]
        assert {fee_class(Mechanism.trivial(), tx, b) for b in range(4)} == {0}


class TestExcessivelyLowBaseFee:
    def test_detects_oversubscribed_clearing_set(self):
        txs = (Transaction(0, 2, 9, 9), Transaction(1, 2, 9, 9))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3))
        assert is_base_fee_excessively_low(1, sc, sc.submitted_bids())
        assert not is_base_fee_excessively_low(5, sc, sc.submitted_bids())

    def test_needs_a_knapsack_blockset(self):
        txs = (Transaction(0, 1, 5, 5),)
        sc = Scenario(txs, PassiveValuation(0), ExplicitBlockset((EMPTY_BLOCK, Block((0,)))))
        with pytest.raises(UnsupportedInstanceError):
            is_base_fee_excessively_low(1, sc, sc.submitted_bids())

    def test_standard_allocation_refuses_to_run(self):
        txs = (Transaction(0, 2, 9, 9), Transaction(1, 2, 9, 9))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3))
        with pytest.raises(ExcessivelyLowBaseFeeError):
            recommended_block(Mechanism.eip1559(1), sc.submitted_bids(), sc)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_knife_edge_against_brute_force(self, data):
        # capacity is drawn at the clearing sizes' total and one either side
        n = data.draw(st.integers(1, 5))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        bids = {t: data.draw(st.integers(0, 8)) for t in range(n)}
        base_fee = data.draw(st.integers(0, 3))
        candidates = data.draw(
            st.none() | st.lists(st.integers(0, n - 1), unique=True).map(tuple)
        )
        listed = range(n) if candidates is None else candidates
        clearing = [t for t in listed if bids[t] >= base_fee * sizes[t]]
        total = sum(sizes[t] for t in clearing)
        cap = max(total + data.draw(st.sampled_from((-1, 0, 1))), 0)
        txs = tuple(Transaction(t, sizes[t], 0) for t in range(n))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(cap, candidates))
        low = is_base_fee_excessively_low(base_fee, sc, bids)
        assert low == (total > cap)
        # the same verdict from the enumeration: the clearing set is not a
        # feasible block
        assert low == (Block(tuple(sorted(clearing))) not in enumerate_blocks(sc))
        mech = Mechanism.eip1559(base_fee)
        if low:
            with pytest.raises(ExcessivelyLowBaseFeeError):
                recommended_block(mech, bids, sc)
        else:
            assert recommended_block(mech, bids, sc) == Block(tuple(sorted(clearing)))


class TestRecommendedBlock:
    def test_fpa_revenue_max_takes_highest_bid_total(self):
        txs = (Transaction(0, 2, 5, 5), Transaction(1, 1, 4, 4), Transaction(2, 1, 3, 3))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))
        # [1, 2] collects 7, beating [0] at 5
        assert recommended_block(Mechanism.fpa(), sc.submitted_bids(), sc) == Block((1, 2))

    def test_eip1559_standard_is_the_clearing_set(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 1, 1), Transaction(2, 1, 2, 2))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3))
        assert recommended_block(Mechanism.eip1559(2), sc.submitted_bids(), sc) == Block((0, 2))

    def test_eip1559_standard_needs_knapsack(self):
        txs = (Transaction(0, 1, 5, 5),)
        sc = Scenario(txs, PassiveValuation(0), ExplicitBlockset((EMPTY_BLOCK, Block((0,)))))
        with pytest.raises(UnsupportedInstanceError):
            recommended_block(Mechanism.eip1559(2), sc.submitted_bids(), sc)

    def test_tipless_standard_takes_largest_clearing_block(self):
        txs = (Transaction(0, 2, 9, 9), Transaction(1, 1, 2, 2), Transaction(2, 1, 1, 1))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3))
        # tx2 bids under its reserve, so the largest all-clearing block is [0, 1]
        assert recommended_block(Mechanism.tipless(2), sc.submitted_bids(), sc) == Block((0, 1))

    def test_tipless_standard_prefers_larger_total_size_over_canonical(self):
        txs = (Transaction(0, 1, 9, 9), Transaction(1, 2, 4, 4))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))
        # [1] has total size 2 > 1, despite [0] coming first canonically
        assert recommended_block(Mechanism.tipless(2), sc.submitted_bids(), sc) == Block((1,))

    def test_trivial_picks_the_producer_favorite(self):
        txs = (Transaction(0, 1, 9, 9), Transaction(1, 1, 1, 1))
        sc = scenario_with(txs, bp=AdditiveValuation({1: 3}))
        assert recommended_block(Mechanism.trivial(), sc.submitted_bids(), sc) == Block((1,))

    def test_consonant_matches_surplus_argmax(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 2, 7, 6))
        sc = scenario_with(txs, bp=AdditiveValuation({0: 1}))
        for mech in (
            Mechanism.fpa(Allocation.CONSONANT),
            Mechanism.eip1559(2, Eligibility.FREE, Allocation.CONSONANT),
            Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
        ):
            bids = sc.submitted_bids()
            assert recommended_block(mech, bids, sc) == bps_argmax(bids, sc, mech)


@st.composite
def standard_cases(draw):
    """A small scenario on a knapsack or an explicit blockset and a run of
    calls on it, each with a standard-rule mechanism, a budget that some
    enumerations exceed and a bid profile, a few with an invalid bid."""
    n = draw(st.integers(1, 4))
    txs = tuple(Transaction(i, draw(st.integers(1, 2)), 0) for i in range(n))
    if draw(st.booleans()):
        blocks = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:2]), max_size=4))
        blockset = ExplicitBlockset((EMPTY_BLOCK, *dict.fromkeys(Block(b) for b in blocks if b)))
    else:
        blockset = KnapsackBlockset(draw(st.integers(1, 2 * n)), enumerate_permutations=draw(st.booleans()))
    # few mechanisms of one preset and few budgets, so that calls meet
    # each other's cached enumerations
    make = draw(st.sampled_from((Mechanism.tipless, Mechanism.eip1559)))
    mech = st.builds(make, st.integers(0, 2), st.sampled_from(Eligibility))
    mechs = draw(st.lists(mech, min_size=1, max_size=2))
    budgets = draw(st.lists(st.integers(1, 16), min_size=1, max_size=2))
    bid = st.integers(-1, 5)
    calls = draw(st.lists(
        st.tuples(st.sampled_from(mechs), st.sampled_from(budgets), st.tuples(*[bid] * n)),
        min_size=1, max_size=24,
    ))
    return Scenario(txs, PassiveValuation(0), blockset), calls


def enumerated(mech, clearing, sc, budget):
    """The blocks eligible under the mechanism's eligibility at the
    clearing ids, enumerated under the budget: every allocation's budget."""
    gated = mech.eligibility is not Eligibility.FREE
    return enumerate_blocks(sc, eligible=clearing if gated else None, budget=budget)


def clearing_set(mech, clearing, sc, budget):
    """eip1559's standard block: every candidate that clears the reserve,
    refused on a blockset other than a knapsack and when it overflows the
    capacity, then under the budget rule."""
    blockset = sc.blockset
    if not isinstance(blockset, KnapsackBlockset):
        raise UnsupportedInstanceError(
            "standard eip1559 allocation needs a knapsack blockset; "
            "use the consonant allocation for explicit blocksets"
        )
    ids = sc.ids() if blockset.candidate_ids is None else blockset.candidate_ids
    members = sorted(t for t in ids if t in clearing)
    total = sum(sc.tx(t).size for t in members)
    if total > blockset.max_total_size:
        raise ExcessivelyLowBaseFeeError(mech.base_fee, total, blockset.max_total_size)
    enumerated(mech, clearing, sc, budget)
    return Block(tuple(members))


def largest_clearing_block(mech, clearing, sc, budget):
    """tipless's standard block, or None: among the enumerated blocks whose
    members all clear the reserve, the one with the largest total size,
    canonical-first on ties."""
    blocks = [b for b in enumerated(mech, clearing, sc, budget) if clearing.issuperset(b.txs)]
    size = {tx.tx_id: tx.size for tx in sc.transactions}
    return min(
        blocks, key=lambda b: (-sum(map(size.get, b.txs)), canonical_key(b)), default=None
    )


STANDARD_ORACLES = {EIP1559: clearing_set, TIPLESS: largest_clearing_block}


def reference_standard(mech, bids, sc, budget):
    """A standard rule's block, oracle-computed: check every bid, then call
    the preset's rule above on the clearing ids in a cold copy of the
    world, reading None as no eligible block."""
    for tx in sc.transactions:
        if tx.tx_id not in bids:
            raise UnknownTransactionError(tx.tx_id)
        bid = bids[tx.tx_id]
        if type(bid) is not int or bid < 0:
            raise ValueError(f"bid for tx {tx.tx_id} must be a non-negative integer")
    clearing = frozenset(t for t, b in bids.items() if b >= mech.reserve(sc.tx(t)))
    block = STANDARD_ORACLES[mech.preset](mech, clearing, replace(sc), budget)
    if block is None:
        raise NoEligibleBlockError(bids)
    return block


class TestStandardRule:
    """recommended_block answers a standard rule with the size read of one
    split pass; it must return the rule's own block, computed by the oracle
    above, or raise its error, on every call."""

    @staticmethod
    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (EnumerationBudgetError, UnknownTransactionError, ValueError) as e:
            return type(e), str(e)

    @given(standard_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rule_on_every_call(self, case):
        sc, calls = case
        for mech, budget, profile in calls:
            bids = dict(enumerate(profile))
            got = self.outcome(recommended_block, mech, bids, sc, budget=budget)
            assert got == self.outcome(reference_standard, mech, bids, sc, budget)

    def test_budget_counts_the_blocks_of_the_eligibility(self):
        # one clearing set, {0}: free eligibility enumerates all 4 blocks,
        # gated eligibility only the 2 that lack tx 1, so a budget of 2
        # fits the gated enumeration alone
        sc = scenario_with([Transaction(0, 1, 5, 5), Transaction(1, 1, 0, 0)])
        bids = sc.submitted_bids()
        gated = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED)
        free = Mechanism.tipless(1, Eligibility.FREE)
        assert recommended_block(gated, bids, sc, budget=2) == Block((0,))
        assert recommended_block(free, bids, sc, budget=4) == Block((0,))
        with pytest.raises(EnumerationBudgetError):
            recommended_block(free, bids, sc, budget=2)

    def test_unset_budget_is_read_at_every_call(self, monkeypatch):
        sc = scenario_with([Transaction(i, 1, 3, 3) for i in range(3)], cap=3)
        mech = Mechanism.tipless(1)
        bids = sc.submitted_bids()
        assert recommended_block(mech, bids, sc) == Block((0, 1, 2))
        monkeypatch.setenv("TFMLAB_BUDGET", "2")
        with pytest.raises(EnumerationBudgetError):
            recommended_block(mech, bids, sc)

    @staticmethod
    def eip1559_errors(sc, eligibility, bids, budget):
        """The errors of standard and of consonant eip1559 at the bids, None
        for a block."""
        errors = []
        for allocation in (Allocation.STANDARD, Allocation.CONSONANT):
            mech = Mechanism.eip1559(1, eligibility, allocation)
            got = TestStandardRule.outcome(recommended_block, mech, bids, sc, budget=budget)
            errors.append(got if isinstance(got, tuple) else None)
        return errors

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_eip1559_exceeds_the_budget_where_consonant_does(self, data):
        # where the clearing set fits (here every transaction does), the
        # standard rule enumerates the blocks consonant eip1559 does
        n = data.draw(st.integers(1, 4))
        txs = tuple(Transaction(i, data.draw(st.integers(1, 2)), 0) for i in range(n))
        blockset = KnapsackBlockset(2 * n, enumerate_permutations=data.draw(st.booleans()))
        eligibility = data.draw(st.sampled_from(Eligibility))
        bids = {i: data.draw(st.integers(0, 3)) for i in range(n)}
        budget = data.draw(st.integers(1, 40))
        errors = self.eip1559_errors(Scenario(txs, PassiveValuation(0), blockset), eligibility, bids, budget)
        assert errors[0] == errors[1]
        if budget == 1 and eligibility is Eligibility.FREE:
            assert errors[0][0] is EnumerationBudgetError

    @pytest.mark.parametrize("eligibility", list(Eligibility))
    def test_eip1559_hits_the_permutation_cap_where_consonant_does(self, eligibility):
        # nine unit transactions all fit, so the free blockset holds a
        # 9-transaction block; under gated eligibility tx 8 does not clear
        txs = tuple(Transaction(i, 1, 0) for i in range(9))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(9, enumerate_permutations=True))
        bids = {i: 1 if i < 8 else 0 for i in range(9)}
        errors = self.eip1559_errors(sc, eligibility, bids, None)
        assert errors[0] == errors[1]
        assert (errors[0] is None) == (eligibility is Eligibility.BASE_FEE_GATED)
        if errors[0] is not None:
            assert errors[0][0] is UnsupportedInstanceError and "permutation" in errors[0][1]


class TestErrorOrder:
    """recommended_block checks every bid once, in transaction order,
    before any rule reads the blockset or the budget, so the standard and
    consonant allocations of a preset raise the same bid error."""

    @pytest.mark.parametrize(
        "make, blockset, bids, budget, error",
        [
            # a budget that the enumeration exceeds
            (Mechanism.tipless, KnapsackBlockset(3), {0: 1, 1: -1, 2: 1}, 2, ValueError),
            # a blockset that standard eip1559 does not support
            (Mechanism.eip1559, ExplicitBlockset((EMPTY_BLOCK, Block((0,)))),
             {0: 1, 1: True, 2: 1}, None, ValueError),
            # a missing bid of a transaction that no block may hold
            (Mechanism.eip1559, KnapsackBlockset(3, (0, 1)), {0: 1, 1: 1}, None,
             UnknownTransactionError),
        ],
        ids=["budget", "explicit", "non-candidate"],
    )
    def test_a_bad_bid_is_raised_first(self, make, blockset, bids, budget, error):
        sc = Scenario(tuple(Transaction(i, 1, 0) for i in range(3)), PassiveValuation(0), blockset)
        messages = set()
        for allocation in (Allocation.STANDARD, Allocation.CONSONANT):
            with pytest.raises(error) as raised:
                recommended_block(make(1, Eligibility.FREE, allocation), bids, sc, budget=budget)
            messages.add(str(raised.value))
        with pytest.raises(error) as raised:
            bps_argmax(bids, sc, make(1, Eligibility.FREE, Allocation.CONSONANT), budget=budget)
        assert messages == {str(raised.value)}


ARGMAX_MECHS = (
    Mechanism.fpa(),
    Mechanism.fpa(Allocation.CONSONANT),
    Mechanism.trivial(),
    Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT),
    Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT),
)


@st.composite
def argmax_memo_cases(draw):
    """A small knapsack scenario with a producer valuation and a run of
    argmax-allocation calls on it, each with a budget of None or one that
    some enumerations exceed and a bid profile, a few with a negative,
    True or missing (None) bid."""
    n = draw(st.integers(1, 3))
    txs = tuple(Transaction(i, draw(st.integers(1, 2)), 0) for i in range(n))
    blockset = KnapsackBlockset(draw(st.integers(1, 2 * n)), enumerate_permutations=draw(st.booleans()))
    bp = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 3)).map(AdditiveValuation))
    mechs = draw(st.lists(st.sampled_from(ARGMAX_MECHS), min_size=1, max_size=2))
    budgets = draw(st.lists(st.none() | st.integers(1, 16), min_size=1, max_size=2))
    bid = st.integers(-1, 4) | st.just(True) | st.none()
    calls = draw(st.lists(
        st.tuples(st.sampled_from(mechs), st.sampled_from(budgets), st.tuples(*[bid] * n)),
        min_size=1, max_size=24,
    ))
    return Scenario(txs, bp, blockset), calls


class TestArgmaxMemo:
    """recommended_block answers an argmax allocation with one split pass
    and memoizes no block: every call must match the same call on a cold
    copy of the world."""

    outcome = staticmethod(TestStandardRule.outcome)

    @given(argmax_memo_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_cold_world_on_every_call(self, case):
        sc, calls = case
        for mech, budget, profile in calls:
            bids = {t: b for t, b in enumerate(profile) if b is not None}
            cold = replace(sc, bp_valuation=sc.bp_valuation)
            got = self.outcome(recommended_block, mech, bids, sc, budget=budget)
            assert got == self.outcome(recommended_block, mech, bids, cold, budget=budget)

    def test_invalid_bids_after_a_cached_argmax(self):
        sc = scenario_with(TWO_TXS, bp=AdditiveValuation({0: 1}))
        mech = Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT)
        assert recommended_block(mech, {0: 1, 1: 7}, sc, budget=8) == Block((0, 1))
        for bids, error in (
            ({0: True, 1: 7}, ValueError),
            ({0: -1, 1: 7}, ValueError),
            ({1: 7}, UnknownTransactionError),
        ):
            with pytest.raises(error) as want:
                bps_argmax(bids, replace(sc), mech)
            with pytest.raises(error) as got:
                recommended_block(mech, bids, sc, budget=8)
            assert str(got.value) == str(want.value)

    def test_unset_budget_is_read_at_every_call(self, monkeypatch):
        # the 4 blocks of two transactions exceed a budget of 2 once it is set
        sc = scenario_with(TWO_TXS)
        mechs = (Mechanism.fpa(), Mechanism.trivial())
        assert [recommended_block(m, sc.submitted_bids(), sc) for m in mechs] == [Block((0, 1)), EMPTY_BLOCK]
        monkeypatch.setenv("TFMLAB_BUDGET", "2")
        for mech in mechs:
            with pytest.raises(EnumerationBudgetError):
                recommended_block(mech, sc.submitted_bids(), sc)


@st.composite
def clear_of_boundary(draw):
    """Scenarios where nobody bids exactly its reserve under a passive producer."""
    n = draw(st.integers(1, 4))
    base_fee = draw(st.integers(1, 4))
    txs = []
    for i in range(n):
        size = draw(st.integers(1, 2))
        bid = draw(st.integers(0, 12).filter(lambda b, s=size: b != base_fee * s))
        txs.append(Transaction(i, size, bid, bid))
    sc = Scenario(tuple(txs), PassiveValuation(0), KnapsackBlockset(sum(t.size for t in txs)))
    return sc, base_fee


@given(clear_of_boundary())
@settings(max_examples=120, deadline=None)
def test_eip1559_standard_coincides_with_consonant_off_boundary(case):
    # With a passive producer and all capacity available, the clearing set is
    # the unique surplus maximizer whenever no bid sits exactly at its reserve.
    sc, base_fee = case
    bids = sc.submitted_bids()
    standard = recommended_block(Mechanism.eip1559(base_fee), bids, sc)
    consonant = recommended_block(
        Mechanism.eip1559(base_fee, Eligibility.FREE, Allocation.CONSONANT), bids, sc
    )
    assert set(standard.txs) == set(consonant.txs)


class TestStrategies:
    def test_truthful(self):
        assert strategy_bid(Truthful(), 7, Transaction(0, 2, 7)) == 7

    def test_capped_at_reserve(self):
        tx = Transaction(0, 2, 9)
        assert strategy_bid(CappedAtReserve(3), 9, tx) == 6
        assert strategy_bid(CappedAtReserve(3), 5, tx) == 5

    def test_fixed_offset_clamps_at_zero(self):
        tx = Transaction(0, 1, 2)
        assert strategy_bid(FixedOffset(-3), 2, tx) == 0
        assert strategy_bid(FixedOffset(2), 2, tx) == 4

    def test_apply_strategy_defaults_to_scenario_valuations(self):
        sc = scenario_with(TWO_TXS)
        assert apply_strategy(CappedAtReserve(2), sc) == {0: 2, 1: 4}

    def test_apply_strategy_with_overrides(self):
        sc = scenario_with(TWO_TXS)
        assert apply_strategy(Truthful(), sc, {0: 1, 1: 0}) == {0: 1, 1: 0}

    @pytest.mark.parametrize(
        "build", [
            lambda: CappedAtReserve(-1),
            lambda: CappedAtReserve(1.5),
            lambda: CappedAtReserve(True),
            lambda: FixedOffset(0.5),
            lambda: FixedOffset(False),
            lambda: FixedOffset("1"),
        ],
        ids=["capped -1", "capped 1.5", "capped True", "offset 0.5", "offset False", "offset '1'"],
    )
    def test_parameters_are_checked_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_apply_strategy_rejects_negative_values(self):
        sc = scenario_with(TWO_TXS)
        with pytest.raises(ValueError):
            apply_strategy(Truthful(), sc, {0: -1, 1: 0})


class TestMechanismValidation:
    def test_base_fee_presets_require_base_fee(self):
        with pytest.raises(ValueError):
            Mechanism("eip1559", None, Eligibility.FREE, Allocation.STANDARD)

    def test_fpa_rejects_base_fee(self):
        with pytest.raises(ValueError):
            Mechanism("fpa", 2, Eligibility.FREE, Allocation.REVENUE_MAX)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            Mechanism("vcg", None, Eligibility.FREE, Allocation.CONSONANT)

    def test_enum_fields_reject_raw_strings(self):
        # a raw string is no Eligibility or Allocation member, so it would
        # fail every identity test against one
        with pytest.raises(ValueError, match="eligibility"):
            Mechanism("eip1559", 2, "free", Allocation.CONSONANT)
        with pytest.raises(ValueError, match="allocation"):
            Mechanism("fpa", None, Eligibility.FREE, "consonant")

    def test_factory_defaults_come_from_the_table(self):
        assert Mechanism.fpa().allocation is RULES[FPA].allocations[0]
        assert Mechanism.eip1559(1).allocation is RULES[EIP1559].allocations[0]
        assert Mechanism.tipless(1).allocation is RULES[TIPLESS].allocations[0]
        assert Mechanism.trivial().allocation is RULES[TRIVIAL].allocations[0]

    def test_reserve_scales_with_size(self):
        mech = Mechanism.tipless(3)
        assert mech.reserve(Transaction(0, 2, 5)) == 6
        assert Mechanism.fpa().reserve(Transaction(0, 2, 5)) == 0


def scenario_text(mechanism):
    return json.dumps({
        "schema_version": 1,
        "transactions": [{"id": 0, "size": 1, "valuation": 5}],
        "bp_valuation": {"kind": "passive"},
        "blockset": {"kind": "knapsack", "max_total_size": 1},
        "mechanism": mechanism,
    })


@pytest.mark.parametrize("preset", sorted(RULES))
class TestRuleTable:
    """Every record of mechanisms.RULES against the properties that the fee
    classes, the critical-cut tables and the allocation kinds rely on."""

    def fee(self, preset):
        return 1 if RULES[preset].base_fee else None

    def test_payment_is_bounded_monotone_and_clears_at_the_reserve(self, preset):
        rule = RULES[preset]
        bids = range(7)
        for r in bids if rule.base_fee else (0,):
            pays = [rule.pay(b, r) for b in bids]
            assert all(0 <= p <= b for b, p in zip(bids, pays))
            assert pays == sorted(pays)
            mech = Mechanism(preset, r if rule.base_fee else None)
            tx = Transaction(0, 1, 0)
            assert mech.reserve(tx) == r
            assert [fee_class(mech, tx, b) >= 0 for b in bids] == [b >= r for b in bids]

    def test_revenue_max_needs_the_bid_as_payment_and_no_base_fee(self, preset):
        rule = RULES[preset]
        if Allocation.REVENUE_MAX in rule.allocations:
            assert not rule.base_fee
            assert all(rule.pay(b, 0) == b for b in range(7))

    def test_exactly_the_listed_allocations_build(self, preset):
        fee = self.fee(preset)
        for allocation in Allocation:
            if allocation in RULES[preset].allocations:
                assert Mechanism(preset, fee, Eligibility.FREE, allocation).allocation is allocation
            else:
                with pytest.raises(ValueError, match="supports"):
                    Mechanism(preset, fee, Eligibility.FREE, allocation)

    def test_every_route_gets_one_default_allocation(self, preset):
        fee = self.fee(preset)
        factory = getattr(Mechanism, preset)
        flags = ["gen", "--seed", "0", "--mech", preset]
        named = {"preset": preset}
        if fee is not None:
            flags += ["--base-fee", str(fee)]
            named["base_fee"] = fee
        routes = [
            Mechanism(preset, fee),
            factory() if fee is None else factory(fee),
            cli._mech_from_flags(cli._build_parser().parse_args(flags)),
            parse_scenario_text(scenario_text(named)).mechanism,
        ]
        assert [m.allocation for m in routes] == [RULES[preset].allocations[0]] * 4

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_surplus_is_value_plus_the_members_fee_classes(self, preset, data):
        """audit_bpic reads a witness's surplus off its class tuple: under
        every allocation and eligibility, bps of a block whose members are
        all eligible is the producer's value plus the members' fee classes."""
        n = data.draw(st.integers(1, 4))
        txs = [Transaction(i, data.draw(st.integers(1, 3)), 0) for i in range(n)]
        stakes = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 4)))
        sc = scenario_with(txs, AdditiveValuation(stakes), cap=data.draw(st.integers(1, 3 * n)))
        bids = {t.tx_id: data.draw(st.integers(0, 6)) for t in txs}
        fee = data.draw(st.integers(0, 3)) if RULES[preset].base_fee else None
        for allocation in RULES[preset].allocations:
            for gate in Eligibility if fee is not None else (Eligibility.FREE,):
                mech = Mechanism(preset, fee, gate, allocation)
                classes = {t: fee_class(mech, sc.tx(t), bids[t]) for t in sc.ids()}
                for block in enumerate_blocks(sc):
                    if None not in map(classes.get, block.txs):
                        surplus = sc.bp_valuation.of(block) + sum(map(classes.get, block.txs))
                        assert bps(block, bids, sc, mech) == surplus

    def test_null_allocation_in_a_file_is_an_error(self, preset):
        named = {"preset": preset, "allocation": None}
        if self.fee(preset) is not None:
            named["base_fee"] = self.fee(preset)
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(scenario_text(named))
