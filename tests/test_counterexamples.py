"""Unit tests for the counterexample constructions, pinned to hand-derived
expected values so the builders cannot drift."""

from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    AlreadyTrivialError,
    Allocation,
    Block,
    ConstructionReplayError,
    Eligibility,
    ExplicitBlockset,
    FixedOffset,
    KnapsackBlockset,
    Mechanism,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    Truthful,
    UnknownTransactionError,
    UnsupportedInstanceError,
    ZeroBidWitness,
    bps_argmax,
    construct_welfare_gap,
    construct_zero_bid,
    construct_zero_bid_single_minded,
    eip1559_underbid_demo,
    enumerate_blocks,
    recommended_block,
    scenario_digest,
    welfare,
)


def one_tx_scenario(bid=5):
    txs = (Transaction(0, 1, 5, bid),)
    return Scenario(txs, PassiveValuation(0), KnapsackBlockset(1))


def ordering_scenario():
    """Two unit transactions bidding 5 on a permutation knapsack of
    capacity 2, and a producer that values only the ordering (1, 0)."""
    txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 5, 5))
    blockset = KnapsackBlockset(2, enumerate_permutations=True)
    return Scenario(txs, TableValuation({Block((1, 0)): 9}), blockset)


class TestZeroBid:
    def test_fpa_frozen_values(self):
        sc = one_tx_scenario()
        w = construct_zero_bid(Mechanism.fpa(), sc, sc.submitted_bids())
        assert w.charged_tx == 0
        assert w.original_payment == 5
        assert w.total_bids == 5
        assert w.burn_at_zero == 0
        # singleton value 0 plus all bids 5 plus burn 0 plus 1
        assert w.modified_scenario.bp_valuation == AdditiveValuation({0: 6})
        assert w.zero_bid_block == Block((0,))
        assert w.utility_gain == 5

    def test_eip1559_frozen_values(self):
        sc = one_tx_scenario()
        mech = Mechanism.eip1559(2)
        w = construct_zero_bid(mech, sc, sc.submitted_bids())
        assert w.original_payment == 5
        assert w.total_bids == 5
        assert w.burn_at_zero == 2
        assert w.modified_scenario.bp_valuation == AdditiveValuation({0: 8})
        assert w.utility_gain == 5

    def test_tipless_gain_is_the_reserve_payment(self):
        sc = one_tx_scenario()
        w = construct_zero_bid(Mechanism.tipless(2), sc, sc.submitted_bids())
        assert w.original_payment == 2
        assert w.utility_gain == 2

    def test_trivial_has_nothing_to_break(self):
        sc = one_tx_scenario()
        with pytest.raises(AlreadyTrivialError):
            construct_zero_bid(Mechanism.trivial(), sc, sc.submitted_bids())

    def test_all_zero_bids_have_nothing_to_break(self):
        sc = one_tx_scenario(bid=0)
        with pytest.raises(AlreadyTrivialError):
            construct_zero_bid(Mechanism.fpa(), sc, sc.submitted_bids())

    def test_lowest_charged_tx_is_targeted(self):
        txs = (Transaction(0, 1, 4, 4), Transaction(1, 1, 7, 7))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))
        w = construct_zero_bid(Mechanism.fpa(), sc, sc.submitted_bids())
        assert w.charged_tx == 0
        assert w.total_bids == 11
        assert w.utility_gain == 4

    def test_fixed_point_holds_under_original_bids(self):
        txs = (Transaction(0, 1, 4, 4), Transaction(1, 2, 7, 7))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3))
        bids = sc.submitted_bids()
        mech = Mechanism.eip1559(2)
        w = construct_zero_bid(mech, sc, bids)
        assert bps_argmax(bids, w.modified_scenario, mech) == w.original_block

    def test_zero_bids_differ_only_at_target(self):
        txs = (Transaction(0, 1, 4, 4), Transaction(1, 1, 7, 7))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))
        w = construct_zero_bid(Mechanism.fpa(), sc, sc.submitted_bids())
        assert dict(w.zero_bids) == {0: 0, 1: 7}

    def test_gated_eligibility_blocks_the_construction(self):
        # with inclusion gated on the reserve, a zero bid makes the target
        # ineligible, so no producer valuation can force it back in
        sc = one_tx_scenario()
        mech = Mechanism.eip1559(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        with pytest.raises(ConstructionReplayError):
            construct_zero_bid(mech, sc, sc.submitted_bids())

    def test_refuses_a_later_ordering_of_the_members(self):
        # the producer recommends (1, 0), but additive stakes value (0, 1)
        # alike and the canonical key prefers it; the single-minded
        # variant names the block itself and certifies it
        sc = ordering_scenario()
        mech = Mechanism.fpa(Allocation.CONSONANT)
        with pytest.raises(UnsupportedInstanceError, match="construct_zero_bid_single_minded"):
            construct_zero_bid(mech, sc, sc.submitted_bids())
        w = construct_zero_bid_single_minded(mech, sc, sc.submitted_bids())
        assert w.original_block == w.zero_bid_block == Block((1, 0))
        assert w.utility_gain == 5

    def test_preserves_original_scenario(self):
        sc = one_tx_scenario()
        construct_zero_bid(Mechanism.fpa(), sc, sc.submitted_bids())
        assert sc.bp_valuation == PassiveValuation(0)
        assert sc.tx(0).bid == 5


@pytest.mark.parametrize("build", [construct_zero_bid, construct_zero_bid_single_minded])
@pytest.mark.parametrize(
    "bids, error, order",
    [
        ({1: 7}, UnknownTransactionError, (0, 1)),
        ({0: True, 1: 7}, ValueError, (0, 1)),
        ({0: -1, 1: 7}, ValueError, (0, 1)),
        # two bad bids, tx 1 listed first: the error names the first in
        # transaction order, not the smallest id
        ({0: -1, 1: -1}, ValueError, (1, 0)),
    ],
)
def test_zero_bid_reads_bids_like_recommended_block(build, bids, error, order):
    txs = {0: Transaction(0, 1, 4, 4), 1: Transaction(1, 1, 7, 7)}
    sc = Scenario(tuple(txs[t] for t in order), PassiveValuation(0), KnapsackBlockset(2))
    mech = Mechanism.fpa(Allocation.CONSONANT)
    with pytest.raises(error) as want:
        recommended_block(mech, bids, sc)
    with pytest.raises(error) as got:
        build(mech, sc, bids)
    assert str(got.value) == str(want.value)


class TestZeroBidSingleMinded:
    def test_fpa_frozen_values(self):
        sc = one_tx_scenario()
        w = construct_zero_bid_single_minded(Mechanism.fpa(), sc, sc.submitted_bids())
        assert w.variant == "single_minded"
        # spread 0 plus bids 5 plus burn 0 plus 1
        assert w.modified_scenario.bp_valuation == SingleMindedValuation(
            frozenset({Block((0,))}), 6
        )
        assert w.utility_gain == 5

    def test_unique_argmax_means_no_tie_reliance(self):
        txs = (Transaction(0, 1, 4, 4), Transaction(1, 1, 7, 7))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(2))
        mech = Mechanism.tipless(3)
        w = construct_zero_bid_single_minded(mech, sc, sc.submitted_bids())
        assert w.zero_bid_block == w.original_block

    def test_spread_covers_rich_table_valuations(self):
        from tfm_lab import TableValuation

        txs = (Transaction(0, 1, 4, 4), Transaction(1, 1, 7, 7))
        table = TableValuation({Block((1,)): 9, Block((0, 1)): 2})
        sc = Scenario(txs, table, KnapsackBlockset(2))
        w = construct_zero_bid_single_minded(Mechanism.fpa(), sc, sc.submitted_bids())
        # spread 9 plus bids 11 plus burn 0 plus 1
        assert w.modified_scenario.bp_valuation.value == 21


@st.composite
def zero_bid_cases(draw):
    """A consonant fpa, eip1559 or tipless mechanism, a small world on a
    knapsack, permutation or explicit blockset under any producer
    valuation, and bids."""
    n = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    txs = tuple(
        Transaction(i, size, draw(st.integers(0, 6)), draw(st.integers(0, 9)))
        for i, size in enumerate(sizes)
    )
    cap = draw(st.integers(min(sizes), sum(sizes)))
    fits = [
        c
        for k in range(1, n + 1)
        for c in combinations(range(n), k)
        if sum(sizes[i] for i in c) <= cap
    ]
    shape = draw(st.sampled_from(("knapsack", "permutations", "explicit")))
    if shape == "explicit":
        listed = draw(st.lists(st.sampled_from(fits), min_size=1, unique=True))
        blocks = tuple(Block(tuple(draw(st.permutations(c)))) for c in listed)
        blockset = ExplicitBlockset((EMPTY_BLOCK,) + blocks)
    else:
        blockset = KnapsackBlockset(cap, enumerate_permutations=shape == "permutations")
    feasible = enumerate_blocks(Scenario(txs, PassiveValuation(0), blockset))
    some_blocks = st.sampled_from(feasible)
    bp = draw(
        st.one_of(
            st.builds(PassiveValuation, st.integers(0, 2)),
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 4)).map(
                AdditiveValuation
            ),
            st.dictionaries(some_blocks, st.integers(0, 4)).map(TableValuation),
            st.builds(
                SingleMindedValuation,
                st.frozensets(some_blocks, min_size=1, max_size=2),
                st.integers(0, 4),
            ),
        )
    )
    mech = draw(
        st.sampled_from(
            [Mechanism.fpa(Allocation.CONSONANT)]
            + [
                factory(fee, Eligibility.FREE, Allocation.CONSONANT)
                for factory in (Mechanism.eip1559, Mechanism.tipless)
                for fee in range(3)
            ]
        )
    )
    return mech, (txs, bp, blockset)


def construction_outcome(build, mech, world):
    """Every witness field, plus the modified world's digest, or the error
    the construction raised.  Each call builds its own Scenario, so no
    cache carries over from another call; the input world's digest is
    taken first, as a report on it would."""
    sc = Scenario(*world)
    scenario_digest(sc)
    try:
        w = build(mech, sc, sc.submitted_bids())
    except (AlreadyTrivialError, ConstructionReplayError, UnsupportedInstanceError) as e:
        return type(e), str(e)
    got = {f.name: getattr(w, f.name) for f in fields(ZeroBidWitness)}
    return got, scenario_digest(w.modified_scenario)


class TestSharedEnumeration:
    """The constructions derive the modified world with with_valuation,
    sharing the enumeration of the input world; an oracle that builds it
    with dataclasses.replace, and so from empty caches, must get the same
    witness."""

    @given(zero_bid_cases(), st.sampled_from((construct_zero_bid, construct_zero_bid_single_minded)))
    @settings(max_examples=150, deadline=None)
    def test_witness_matches_a_fresh_world(self, case, build):
        mech, world = case
        fresh = lambda sc, valuation: replace(sc, bp_valuation=valuation)  # noqa: E731
        with mock.patch.object(Scenario, "with_valuation", fresh):
            want = construction_outcome(build, mech, world)
        assert construction_outcome(build, mech, world) == want

    def test_modified_world_reuses_the_enumeration(self):
        txs = (Transaction(0, 1, 4, 4), Transaction(1, 2, 7, 7))
        sc = Scenario(txs, PassiveValuation(0), KnapsackBlockset(3, enumerate_permutations=True))
        mech = Mechanism.eip1559(2, Eligibility.FREE, Allocation.CONSONANT)
        w = construct_zero_bid_single_minded(mech, sc, sc.submitted_bids())
        assert enumerate_blocks(w.modified_scenario) is enumerate_blocks(sc)


class TestWelfareGap:
    def test_half_frozen_values(self):
        gap = construct_welfare_gap(Mechanism.trivial(), Fraction(1, 2))
        assert gap.scenario.tx(0).valuation == 4
        assert gap.scenario.tx(1).valuation == 1
        assert gap.recommended == gap.bp_favored_block == Block((1,))
        assert gap.optimal == gap.user_favored_block == Block((0,))
        assert welfare(gap.recommended, gap.scenario) == 2
        assert welfare(gap.optimal, gap.scenario) == 4
        assert gap.ratio == Fraction(1, 2)

    def test_hundredth_frozen_values(self):
        gap = construct_welfare_gap(Mechanism.trivial(), Fraction(1, 100))
        assert gap.scenario.tx(0).valuation == 200
        assert gap.ratio == Fraction(1, 100)

    def test_rho_one_allowed(self):
        gap = construct_welfare_gap(Mechanism.trivial(), 1)
        assert gap.ratio <= 1

    def test_probe_values_double(self):
        gap = construct_welfare_gap(Mechanism.trivial(), Fraction(1, 2), probe_rounds=3)
        values = [v for v, _ in gap.probes]
        assert values == [4, 8, 16, 32]
        assert all(block == (1,) for _, block in gap.probes)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            construct_welfare_gap(Mechanism.trivial(), 0)
        with pytest.raises(ValueError):
            construct_welfare_gap(Mechanism.trivial(), Fraction(3, 2))

    def test_charging_mechanism_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            construct_welfare_gap(Mechanism.fpa(), Fraction(1, 2))

    @pytest.mark.parametrize(
        "rounds, message",
        [(-1, "probe_rounds must be >= 0"), (1.5, "probe_rounds must be an integer"),
         (True, "probe_rounds must be an integer")],
    )
    def test_probe_rounds_must_be_a_count(self, rounds, message):
        with pytest.raises(ValueError, match=message):
            construct_welfare_gap(Mechanism.trivial(), Fraction(1, 2), probe_rounds=rounds)

    def test_zero_probe_rounds_probe_once(self):
        gap = construct_welfare_gap(Mechanism.trivial(), Fraction(1, 2), probe_rounds=0)
        assert gap.probes == ((4, (1,)),)

    def test_tipless_with_zero_bids_qualifies(self):
        mech = Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT)
        gap = construct_welfare_gap(
            mech, Fraction(1, 3), strategy=FixedOffset(-10**9)
        )
        assert gap.ratio <= Fraction(1, 3)
        assert gap.burn_on_favored == 2


class TestUnderbidDemo:
    def test_frozen_world_numbers(self):
        demo = eip1559_underbid_demo()
        passive, staked, knife = demo.worlds
        assert passive.surplus_included == -1 and not passive.included
        assert staked.surplus_included == 1 and staked.included
        assert staked.user_utility == 1
        assert knife.surplus_included == 0 and not knife.included
        assert knife.knife_edge
        assert demo.baseline.included and demo.baseline.user_utility == 0
        assert demo.baseline.bid == 2

    def test_narrative_mentions_the_tie(self):
        text = eip1559_underbid_demo().narrative()
        assert "knife edge" in text
        assert "cannot observe" in text
