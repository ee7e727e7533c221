"""Unit tests for block enumeration, the exhaustive surplus argmax, and the
independent dynamic-programming route that must agree with it exactly."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Allocation,
    Block,
    Eligibility,
    EnumerationBudgetError,
    ExplicitBlockset,
    KnapsackBlockset,
    Mechanism,
    NoFeasibleBlockError,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    UnsupportedInstanceError,
    bp_value,
    bps_argmax,
    bps_argmax_additive_dp,
    bps_argmax_detail,
    bps_split_argmax,
    burn,
    canonical_key,
    enumerate_blocks,
    max_marginal_value,
)


def knapsack_scenario(specs, cap, bp=None, permutations=False):
    txs = tuple(Transaction(i, s, v, b) for i, (s, v, b) in enumerate(specs))
    return Scenario(
        txs,
        bp or PassiveValuation(0),
        KnapsackBlockset(cap, enumerate_permutations=permutations),
    )


class TestEnumeration:
    def test_empty_block_comes_first(self):
        sc = knapsack_scenario([(1, 5, 5), (1, 3, 3)], cap=2)
        blocks = enumerate_blocks(sc)
        assert blocks[0] == EMPTY_BLOCK

    def test_all_subsets_within_capacity(self):
        sc = knapsack_scenario([(1, 5, 5), (2, 3, 3), (2, 1, 1)], cap=3)
        got = {b.txs for b in enumerate_blocks(sc)}
        assert got == {(), (0,), (1,), (2,), (0, 1), (0, 2)}

    def test_enumeration_order_is_deterministic_dfs(self):
        sc = knapsack_scenario([(1, 5, 5), (1, 3, 3)], cap=2)
        assert [b.txs for b in enumerate_blocks(sc)] == [(), (0,), (0, 1), (1,)]

    def test_canonical_key_orders_by_length_then_ids(self):
        blocks = [Block((0, 1)), Block((1,)), EMPTY_BLOCK, Block((0,))]
        assert sorted(blocks, key=canonical_key) == [
            EMPTY_BLOCK,
            Block((0,)),
            Block((1,)),
            Block((0, 1)),
        ]

    def test_budget_exceeded(self):
        sc = knapsack_scenario([(1, 1, 1)] * 8, cap=8)
        with pytest.raises(EnumerationBudgetError):
            enumerate_blocks(sc, budget=10)

    def test_budget_rechecked_on_cache_hits(self):
        sc = knapsack_scenario([(1, 1, 1)] * 3, cap=3)
        assert len(enumerate_blocks(sc)) == 8
        with pytest.raises(EnumerationBudgetError):
            enumerate_blocks(sc, budget=4)

    def test_budget_env_var(self, monkeypatch):
        sc = knapsack_scenario([(1, 1, 1)] * 4, cap=4)
        monkeypatch.setenv("TFMLAB_BUDGET", "3")
        with pytest.raises(EnumerationBudgetError):
            enumerate_blocks(sc)
        monkeypatch.setenv("TFMLAB_BUDGET", "not a number")
        with pytest.raises(ValueError):
            enumerate_blocks(sc)

    def test_eligibility_filter(self):
        sc = knapsack_scenario([(1, 5, 5), (1, 3, 3)], cap=2)
        blocks = enumerate_blocks(sc, eligible=frozenset({1}))
        assert {b.txs for b in blocks} == {(), (1,)}

    def test_permutation_mode_orders_blocks(self):
        sc = knapsack_scenario([(1, 5, 5), (1, 3, 3)], cap=2, permutations=True)
        got = {b.txs for b in enumerate_blocks(sc)}
        assert (0, 1) in got and (1, 0) in got

    def test_permutation_cap(self):
        sc = knapsack_scenario([(1, 1, 1)] * 9, cap=9, permutations=True)
        with pytest.raises(UnsupportedInstanceError):
            enumerate_blocks(sc, budget=1 << 25)

    def test_explicit_blockset_passthrough(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 3, 3))
        blocks = (EMPTY_BLOCK, Block((1, 0)), Block((0,)))
        sc = Scenario(txs, PassiveValuation(0), ExplicitBlockset(blocks))
        assert enumerate_blocks(sc) == blocks


class TestArgmax:
    def test_fpa_prefers_fee_income(self):
        sc = knapsack_scenario([(2, 5, 5), (1, 4, 4), (1, 3, 3)], cap=2)
        assert bps_argmax(sc.submitted_bids(), sc, Mechanism.fpa()) == Block((1, 2))

    def test_canonical_tie_break_prefers_niceness_order(self):
        # both singletons score 5: tx0 by fee, tx1 by fee 1 + stake 4
        sc = knapsack_scenario(
            [(1, 5, 5), (1, 1, 1)], cap=1, bp=AdditiveValuation({1: 4})
        )
        best, score, tied = bps_argmax_detail(sc.submitted_bids(), sc, Mechanism.fpa())
        assert score == 5
        assert {b.txs for b in tied} == {(0,), (1,)}
        assert best == Block((0,))

    def test_empty_block_wins_all_negative(self):
        sc = knapsack_scenario([(1, 0, 0), (1, 0, 0)], cap=2)
        mech = Mechanism.eip1559(3, Eligibility.FREE, Allocation.CONSONANT)
        assert bps_argmax(sc.submitted_bids(), sc, mech) == EMPTY_BLOCK

    def test_passive_shift_leaves_argmax_alone(self):
        specs = [(1, 5, 5), (2, 3, 3), (1, 2, 2)]
        a = knapsack_scenario(specs, cap=3, bp=PassiveValuation(0))
        b = knapsack_scenario(specs, cap=3, bp=PassiveValuation(7))
        mech = Mechanism.fpa()
        assert bps_argmax(a.submitted_bids(), a, mech) == bps_argmax(
            b.submitted_bids(), b, mech
        )

    def test_table_valuation_route(self):
        txs = (Transaction(0, 1, 2, 2), Transaction(1, 1, 9, 0))
        sc = Scenario(
            txs,
            TableValuation({Block((1,)): 4}),
            KnapsackBlockset(1),
        )
        assert bps_argmax(sc.submitted_bids(), sc, Mechanism.fpa()) == Block((1,))


class TestSplitArgmax:
    def test_critical_bid_of_the_tie_rule(self):
        # tx0 bids 1, tx1 bids 2, one slot: tx0 holds the slot from bid 2
        # on, where the tie with tx1 goes to the canonical-first block (0,)
        sc = knapsack_scenario([(1, 0, 1), (1, 0, 2)], cap=1)
        split = bps_split_argmax(sc.submitted_bids(), sc, Mechanism.fpa(), 0)
        assert split.without == Block((1,)) and split.without_score == 2
        assert split.holding == Block((0,)) and split.holding_score == 0
        assert [split.includes(x) for x in range(4)] == [False, False, True, True]

    def test_refuses_standard_allocations(self):
        sc = knapsack_scenario([(1, 0, 1)], cap=1)
        with pytest.raises(UnsupportedInstanceError):
            bps_split_argmax(sc.submitted_bids(), sc, Mechanism.tipless(1), 0)


class TestDynamicProgram:
    def test_frozen_tie_example_matches_exhaustive(self):
        sc = knapsack_scenario(
            [(1, 5, 5), (1, 1, 1)], cap=1, bp=AdditiveValuation({1: 4})
        )
        mech = Mechanism.fpa()
        assert bps_argmax_additive_dp(sc.submitted_bids(), sc, mech) == Block((0,))

    def test_requires_knapsack(self):
        txs = (Transaction(0, 1, 5, 5),)
        sc = Scenario(txs, PassiveValuation(0), ExplicitBlockset((EMPTY_BLOCK, Block((0,)))))
        with pytest.raises(UnsupportedInstanceError):
            bps_argmax_additive_dp(sc.submitted_bids(), sc, Mechanism.fpa())

    def test_requires_separable_valuation(self):
        txs = (Transaction(0, 1, 5, 5),)
        sc = Scenario(
            txs,
            SingleMindedValuation(frozenset({Block((0,))}), 3),
            KnapsackBlockset(1),
        )
        with pytest.raises(UnsupportedInstanceError):
            bps_argmax_additive_dp(sc.submitted_bids(), sc, Mechanism.fpa())

    def test_rejects_permutation_mode(self):
        sc = knapsack_scenario([(1, 5, 5)], cap=1, permutations=True)
        with pytest.raises(UnsupportedInstanceError):
            bps_argmax_additive_dp(sc.submitted_bids(), sc, Mechanism.fpa())


@st.composite
def separable_instance(draw):
    n = draw(st.integers(1, 6))
    specs = []
    for _ in range(n):
        size = draw(st.integers(1, 3))
        value = draw(st.integers(0, 12))
        bid = draw(st.integers(0, 12))
        specs.append((size, value, bid))
    cap = draw(st.integers(1, sum(s for s, _, _ in specs)))
    if draw(st.booleans()):
        bp = PassiveValuation(draw(st.integers(0, 5)))
    else:
        bp = AdditiveValuation(
            {
                i: draw(st.integers(0, 10))
                for i in range(n)
                if draw(st.booleans())
            }
        )
    kind = draw(st.sampled_from(("fpa", "eip1559", "tipless", "trivial")))
    if kind == "fpa":
        mech = Mechanism.fpa()
    elif kind == "trivial":
        mech = Mechanism.trivial()
    else:
        gated = draw(st.booleans())
        elig = Eligibility.BASE_FEE_GATED if gated else Eligibility.FREE
        fee = draw(st.integers(0, 5))
        factory = Mechanism.eip1559 if kind == "eip1559" else Mechanism.tipless
        mech = factory(fee, elig, Allocation.CONSONANT)
    return knapsack_scenario(specs, cap=cap, bp=bp), mech


@given(separable_instance())
@settings(max_examples=250, deadline=None)
def test_dp_agrees_with_exhaustive(case):
    # two independent routes to the argmax must agree block-for-block
    sc, mech = case
    bids = sc.submitted_bids()
    assert bps_argmax_additive_dp(bids, sc, mech) == bps_argmax(bids, sc, mech)


@given(separable_instance(), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_member_value_bump_forces_supersets(case, extra):
    # pushing every member's stake past all fees makes each surplus maximizer
    # contain the block (the core step of the zero-bid construction)
    sc, mech = case
    bids = sc.submitted_bids()
    block = bps_argmax(bids, sc, mech)
    if not block.txs:
        return
    boost = sum(bids.values()) + burn(mech, block, bids, sc) + 1 + extra
    bumped = AdditiveValuation(
        {t: bp_value(Block((t,)), sc.bp_valuation) + boost for t in block.txs}
    )
    modified = replace(sc, bp_valuation=bumped)
    _, _, tied = bps_argmax_detail(bids, modified, mech)
    for b in tied:
        assert set(block.txs) <= set(b.txs)


class TestMaxMarginalValue:
    def test_additive_equals_per_tx_stake(self):
        sc = knapsack_scenario(
            [(1, 5, 5), (2, 3, 3)], cap=3, bp=AdditiveValuation({0: 4, 1: 2})
        )
        assert max_marginal_value(0, sc) == 4
        assert max_marginal_value(1, sc) == 2

    def test_passive_is_zero(self):
        sc = knapsack_scenario([(1, 5, 5)], cap=1, bp=PassiveValuation(9))
        assert max_marginal_value(0, sc) == 0

    def test_missing_tx_raises(self):
        sc = knapsack_scenario([(3, 5, 5), (1, 1, 1)], cap=2)
        # tx0 has size 3 > cap, so it is in no feasible block
        with pytest.raises(NoFeasibleBlockError):
            max_marginal_value(0, sc)

    def test_explicit_blockset_must_be_downward_closed(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 3, 3))
        sc = Scenario(
            txs,
            PassiveValuation(0),
            ExplicitBlockset((EMPTY_BLOCK, Block((0, 1)))),
        )
        with pytest.raises(UnsupportedInstanceError):
            max_marginal_value(0, sc)

    def test_single_minded_picks_the_target_gap(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 3, 3))
        sc = Scenario(
            txs,
            SingleMindedValuation(frozenset({Block((0, 1))}), 7),
            KnapsackBlockset(2),
        )
        # deleting tx0 from the target loses all 7; other blocks carry 0
        assert max_marginal_value(0, sc) == 7
