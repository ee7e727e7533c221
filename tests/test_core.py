"""Unit tests for transactions, blocks, valuations, and the accounting
identity that ties utilities, producer surplus, burn, and welfare together."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Allocation,
    Block,
    ExplicitBlockset,
    KnapsackBlockset,
    Mechanism,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    UnknownTransactionError,
    bps,
    bps_argmax,
    burn,
    enumerate_blocks,
    payment,
    recommended_block,
    scenario_digest,
    user_utility,
    value_range,
    welfare,
)


def make_scenario(n=3, cap=4, bp=None):
    txs = tuple(Transaction(i, 1 + i % 2, 5 + i, 5 + i) for i in range(n))
    return Scenario(txs, bp or PassiveValuation(0), KnapsackBlockset(cap))


class TestTransaction:
    def test_fields(self):
        tx = Transaction(3, 2, 7, 6)
        assert (tx.tx_id, tx.size, tx.valuation, tx.bid) == (3, 2, 7, 6)

    def test_bid_defaults_to_zero(self):
        assert Transaction(0, 1, 7).bid == 0

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Transaction(0, 0, 5)

    def test_valuation_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Transaction(0, 1, -1)

    def test_bool_money_rejected(self):
        with pytest.raises(ValueError):
            Transaction(0, 1, True)

    def test_frozen(self):
        tx = Transaction(0, 1, 5)
        with pytest.raises(AttributeError):
            tx.bid = 9


class TestBlock:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Block((1, 1))

    def test_container_protocol(self):
        b = Block((2, 0, 5))
        assert len(b) == 3
        assert list(b) == [2, 0, 5]
        assert 5 in b and 1 not in b

    def test_without_preserves_order(self):
        b = Block((2, 0, 5))
        assert b.without(0).txs == (2, 5)

    def test_without_missing_member_raises(self):
        with pytest.raises(UnknownTransactionError):
            Block((2, 0, 5)).without(7)

    def test_empty_block(self):
        assert EMPTY_BLOCK.txs == ()
        assert len(EMPTY_BLOCK) == 0


class TestExplicitBlockset:
    def test_repeated_block_rejected(self):
        # orderings of one member set are distinct blocks; one ordering
        # listed twice is refused, naming it
        ExplicitBlockset((EMPTY_BLOCK, Block((1, 0)), Block((0, 1))))
        with pytest.raises(ValueError, match=r"blockset lists block \[1, 0\] twice"):
            ExplicitBlockset((EMPTY_BLOCK, Block((1, 0)), Block((0, 1)), Block((1, 0))))

    def test_repeated_empty_block_rejected(self):
        with pytest.raises(ValueError, match=r"blockset lists block \[\] twice"):
            ExplicitBlockset((EMPTY_BLOCK, Block((0,)), EMPTY_BLOCK))


class TestValuations:
    def test_passive_ignores_contents(self):
        v = PassiveValuation(3)
        assert v.of(EMPTY_BLOCK) == 3
        assert v.of(Block((0, 1))) == 3

    def test_additive_sums_listed_values(self):
        v = AdditiveValuation({0: 4, 2: 1})
        assert v.of(Block((0, 2))) == 5
        assert v.of(Block((0, 1))) == 4
        assert v.of(EMPTY_BLOCK) == 0

    def test_single_minded_exact_block_only(self):
        target = Block((1, 0))
        v = SingleMindedValuation(frozenset({target}), 9)
        assert v.of(target) == 9
        assert v.of(Block((0, 1))) == 0
        assert v.of(Block((1,))) == 0

    def test_table_defaults_to_zero(self):
        v = TableValuation({Block((0,)): 2})
        assert v.of(Block((0,))) == 2
        assert v.of(Block((1,))) == 0


class TestScenario:
    def test_duplicate_tx_ids_rejected(self):
        txs = (Transaction(0, 1, 5), Transaction(0, 1, 6))
        with pytest.raises(ValueError):
            Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))

    def test_blockset_must_reference_known_txs(self):
        txs = (Transaction(0, 1, 5),)
        with pytest.raises(UnknownTransactionError):
            Scenario(txs, PassiveValuation(0), ExplicitBlockset((Block((7,)),)))

    @pytest.mark.parametrize("blockset", [3, None, (Block((0,)),), {"kind": "knapsack"}])
    def test_blockset_must_be_a_blockset(self, blockset):
        with pytest.raises(ValueError, match="blockset must be"):
            Scenario((Transaction(0, 1, 5),), PassiveValuation(0), blockset)

    @pytest.mark.parametrize("entry", [0, None, (1, 1, 5, 0), Block((1,))])
    def test_transactions_must_be_transactions(self, entry):
        txs = (Transaction(0, 1, 5), entry)
        with pytest.raises(ValueError, match="transactions entry"):
            Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))

    def test_tx_lookup(self):
        sc = make_scenario()
        assert sc.tx(1).valuation == 6
        with pytest.raises(UnknownTransactionError):
            sc.tx(99)

    def test_ids_sorted(self):
        sc = make_scenario()
        assert sc.ids() == (0, 1, 2)

    def test_submitted_bids(self):
        sc = make_scenario(n=2)
        assert sc.submitted_bids() == {0: 5, 1: 6}


class TestWithValuation:
    """A valuation variant keeps its parent's transactions, blockset and
    seed, shares its feasible blocks and recomputes what the valuation
    enters: the producer values of its plans and its digest."""

    def ordered(self, favored):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 6, 6))
        blockset = KnapsackBlockset(2, enumerate_permutations=True)
        return Scenario(txs, TableValuation({Block(favored): 9}), blockset, rng_seed=7)

    def test_same_world_under_the_new_valuation(self):
        parent = self.ordered((1, 0))
        valuation = TableValuation({Block((0, 1)): 9})
        child = parent.with_valuation(valuation)
        assert child == self.ordered((0, 1))
        assert child.bp_valuation is valuation
        assert child.tx(1) == parent.tx(1)

    def test_shares_the_enumeration(self):
        parent = make_scenario()
        child = parent.with_valuation(AdditiveValuation({0: 4}))
        assert enumerate_blocks(child) is enumerate_blocks(parent)
        grandchild = child.with_valuation(PassiveValuation(1))
        gated = frozenset({0, 2})
        assert enumerate_blocks(grandchild, eligible=gated) is enumerate_blocks(
            parent, eligible=gated
        )

    def test_own_plan_on_an_ordered_blockset(self):
        parent = self.ordered((1, 0))
        bids = parent.submitted_bids()
        assert bps_argmax(bids, parent, Mechanism.fpa()) == Block((1, 0))
        child = parent.with_valuation(TableValuation({Block((0, 1)): 9}))
        assert bps_argmax(bids, child, Mechanism.fpa()) == Block((0, 1))
        assert bps_argmax(bids, parent, Mechanism.fpa()) == Block((1, 0))

    def test_starts_with_empty_valued_caches(self):
        parent = self.ordered((1, 0))
        mech = Mechanism.fpa(Allocation.CONSONANT)
        bids = parent.submitted_bids()
        assert recommended_block(mech, bids, parent, budget=8) == Block((1, 0))
        value_range(parent)
        scenario_digest(parent)
        valuation = TableValuation({Block((0, 1)): 9, EMPTY_BLOCK: -1})
        child = parent.with_valuation(valuation)
        assert child == replace(parent, bp_valuation=valuation)
        assert (child._plan_cache, child._value_range, child._digest) == ({}, None, None)
        assert child.transactions is parent.transactions
        assert child._by_id is parent._by_id
        assert recommended_block(mech, bids, child, budget=8) == Block((0, 1))
        assert (value_range(child), value_range(parent)) == ((-1, 9), (0, 9))

    def test_own_digest(self):
        parent = self.ordered((1, 0))
        before = scenario_digest(parent)
        child = parent.with_valuation(TableValuation({Block((0, 1)): 9}))
        assert scenario_digest(child) == scenario_digest(self.ordered((0, 1)))
        assert scenario_digest(child) != before == scenario_digest(parent)


class TestWelfareAndUtility:
    def test_welfare_sums_producer_and_users(self):
        sc = make_scenario(n=2, bp=AdditiveValuation({0: 3}))
        assert welfare(Block((0, 1)), sc) == 3 + 5 + 6
        assert welfare(EMPTY_BLOCK, sc) == 0

    def test_user_utility_included(self):
        sc = make_scenario(n=1)
        assert user_utility(0, True, 2, sc) == 3

    def test_user_utility_excluded_is_zero(self):
        sc = make_scenario(n=1)
        assert user_utility(0, False, 0, sc) == 0

    def test_excluded_user_must_not_pay(self):
        sc = make_scenario(n=1)
        with pytest.raises(ValueError):
            user_utility(0, False, 1, sc)


@st.composite
def accounting_case(draw):
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    bids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    txs = tuple(
        Transaction(i, sizes[i], vals[i], bids[i]) for i in range(n)
    )
    cap = draw(st.integers(1, sum(sizes)))
    stake = draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 20), max_size=n)
    )
    scenario = Scenario(txs, AdditiveValuation(stake), KnapsackBlockset(cap))
    kind = draw(st.sampled_from(("fpa", "eip1559", "tipless", "trivial")))
    if kind == "fpa":
        mech = Mechanism.fpa()
    elif kind == "trivial":
        mech = Mechanism.trivial()
    elif kind == "eip1559":
        mech = Mechanism.eip1559(draw(st.integers(0, 6)))
    else:
        mech = Mechanism.tipless(draw(st.integers(0, 6)))
    members = [i for i in range(n) if draw(st.booleans())]
    feasible = [i for i in members if sizes[i] <= cap]
    block = []
    used = 0
    for i in feasible:
        if used + sizes[i] <= cap:
            block.append(i)
            used += sizes[i]
    return scenario, mech, Block(tuple(block))


@given(accounting_case())
@settings(max_examples=300, deadline=None)
def test_accounting_identity(case):
    # sum of user utilities + producer surplus + burn == welfare, always
    scenario, mech, block = case
    bids = scenario.submitted_bids()
    pays = payment(mech, block, bids, scenario)
    utilities = sum(
        user_utility(t, t in block, pays.get(t, 0), scenario)
        for t in scenario.ids()
    )
    total = utilities + bps(block, bids, scenario, mech) + burn(
        mech, block, bids, scenario
    )
    assert total == welfare(block, scenario)
