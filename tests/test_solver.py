"""Unit tests for block enumeration, the exhaustive surplus argmax, and the
independent dynamic-programming route that must agree with it exactly."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
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
    NoEligibleBlockError,
    NoFeasibleBlockError,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    UnsupportedInstanceError,
    bps_argmax,
    bps_argmax_additive_dp,
    bps,
    burn,
    canonical_key,
    check_beta_commensurate,
    construct_zero_bid_single_minded,
    eligible,
    enumerate_blocks,
    max_marginal_value,
    own_payment,
    payment,
    recommended_block,
    value_range,
    welfare,
    welfare_argmax,
)
from tfm_lab import auditors, solver
from tfm_lab.mechanisms import ExcessivelyLowBaseFeeError, argmax_valued, fee_class
from tfm_lab.auditors import _class_groups, _class_rows, _DeviationTables
from tfm_lab.solver import (
    _eligible_weights,
    cut_includes,
    fold_split,
    row_cuts,
    split_pass,
    weighted_pass,
)


def split_cut(lacking, holding):
    """The cut of an argmax split on one transaction, from the (score,
    canonical-first block, ...) entries of the blocks lacking it and of
    those holding it (scored without it): False when no block holds the
    transaction, True when no block lacks it, else (lacking score - holding
    score, whether the holding block comes first on the canonical key).
    The per-class oracle of solver.row_cuts, read off folded entries."""
    if holding[1] is None:
        return False
    if lacking[1] is None:
        return True
    return lacking[0] - holding[0], canonical_key(holding[1]) < canonical_key(lacking[1])


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

    @pytest.mark.parametrize("budget", [True, False, 8.0, "8", 0, -1])
    def test_budget_must_be_a_positive_int(self, budget):
        sc = knapsack_scenario([(1, 1, 1)] * 2, cap=2)
        assert solver.resolve_budget(8) == 8
        with pytest.raises(ValueError, match="budget must be"):
            solver.resolve_budget(budget)
        with pytest.raises(ValueError, match="budget must be"):
            enumerate_blocks(sc, budget=budget)

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
        best, score, tied = detail_of(sc.submitted_bids(), sc, Mechanism.fpa())
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


class TestSplitCut:
    def test_critical_bid_of_the_tie_rule(self):
        # tx0 bids 1, tx1 bids 2, one slot: tx0 holds the slot from bid 2
        # on, where the tie with tx1 goes to the canonical-first block (0,)
        sc = knapsack_scenario([(1, 0, 1), (1, 0, 2)], cap=1)
        mech = Mechanism.fpa()
        lacking, holding = split_entries(sc.submitted_bids(), sc, mech, (0,), valued=False)
        assert lacking[:2] == (2, Block((1,))) and holding[:2] == (0, Block((0,)))
        cut = split_cut(lacking, holding)
        assert cut == (2, True)
        included = [cut_includes(cut, fee_class(mech, sc.tx(0), x)) for x in range(4)]
        assert included == [False, False, True, True]


class TestFeeRule:
    """The contribution the argmax adds per member and the burn both follow
    from own_payment and the reserve, for every preset."""

    @pytest.mark.parametrize(
        "mech",
        [Mechanism.fpa(), Mechanism.eip1559(2), Mechanism.tipless(2), Mechanism.trivial()],
        ids=lambda m: m.preset,
    )
    def test_contribution_and_burn(self, mech):
        for size, bid, other in product((1, 2, 3), range(9), range(3)):
            sc = knapsack_scenario([(size, 0, 0), (1, 0, 0)], cap=size + 1)
            bids = {0: bid, 1: other}
            _, contrib = _eligible_weights(mech, bids, sc)
            r = mech.reserve(sc.tx(0))
            want = {
                "fpa": bid,
                "eip1559": bid - r,
                "tipless": min(bid, r) - r,
                "trivial": 0,
            }[mech.preset]
            assert contrib[0] == own_payment(mech, sc.tx(0), bid) - r == want
            reserves = [mech.reserve(tx) for tx in sc.transactions]
            assert burn(mech, Block((0, 1)), bids, sc) == sum(reserves)
            assert burn(mech, Block((0,)), bids, sc) == r


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
        {t: sc.bp_valuation.of(Block((t,))) + boost for t in block.txs}
    )
    modified = replace(sc, bp_valuation=bumped)
    _, _, tied = detail_of(bids, modified, mech)
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


# -- the grouped plan against a per-block scan ---------------------------------


def scan_blocks(bids, sc, mech):
    """Every block the mechanism's eligibility admits, in enumeration order."""
    if mech.eligibility is Eligibility.FREE:
        return enumerate_blocks(sc)
    ok = frozenset(t for t in sc.ids() if eligible(mech, sc.tx(t), bids[t]))
    return enumerate_blocks(sc, eligible=ok)


def scan_detail(bids, sc, mech):
    """The per-block argmax loop: each block scored through bps()."""
    blocks = scan_blocks(bids, sc, mech)
    if not blocks:
        return NoEligibleBlockError
    best = None
    tied = []
    for b in blocks:
        s = bps(b, bids, sc, mech)
        if best is None or s > best_score:
            best, best_score, tied = b, s, [b]
        elif s == best_score:
            tied.append(b)
            if canonical_key(b) < canonical_key(best):
                best = b
    return best, best_score, tuple(sorted(tied, key=canonical_key))


def scan_revenue(bids, sc):
    """The per-block revenue_max loop: the largest total of member bids."""
    best = None
    for b in enumerate_blocks(sc):
        rev = sum(bids[t] for t in b.txs)
        if best is None or rev > best_rev or (
            rev == best_rev and canonical_key(b) < canonical_key(best)
        ):
            best, best_rev = b, rev
    return best


def scan_tipless_standard(bids, sc, mech):
    """The per-block tipless standard loop: among feasible blocks whose
    members all clear the reserve, the largest total size."""
    elig = None
    if mech.eligibility is not Eligibility.FREE:
        elig = frozenset(t for t in sc.ids() if eligible(mech, sc.tx(t), bids[t]))
    best = None
    for b in enumerate_blocks(sc, eligible=elig):
        if any(bids[t] < mech.reserve(sc.tx(t)) for t in b.txs):
            continue
        sz = sum(sc.tx(t).size for t in b.txs)
        if best is None or sz > best_sz or (
            sz == best_sz and canonical_key(b) < canonical_key(best)
        ):
            best, best_sz = b, sz
    return NoEligibleBlockError if best is None else best


def scan_welfare(sc):
    """The per-block welfare loop: the largest producer plus user value."""
    best = None
    for b in enumerate_blocks(sc):
        w = welfare(b, sc)
        if best is None or w > best_w or (
            w == best_w and canonical_key(b) < canonical_key(best)
        ):
            best, best_w = b, w
    return best


def detail_of(bids, sc, mech):
    """The valued split_pass as a scan_detail tuple."""
    score, best, tied = split_pass(bids, sc, mech, valued=True)
    return best, score, tied


def split_entries(bids, sc, mech, split, *, valued):
    """The weighted_pass entries of split_pass's pass split on `split`:
    the blocks eligible under the bids, the split-off contributions zeroed."""
    elig, contrib = _eligible_weights(mech, bids, sc)
    for t in split:
        contrib[t] = 0
    entries = weighted_pass(sc, contrib, valued=valued, eligible=elig, split=split)
    if all(entry[0] is None for entry in entries):
        raise NoEligibleBlockError(bids)
    return entries


def split_of(bids, sc, mech, t):
    """The pass split on t alone, as a scan_split tuple."""
    (without_score, without, _), (holding_score, holding, _) = split_entries(
        bids, sc, mech, (t,), valued=argmax_valued(mech)
    )
    return without, without_score, holding, holding_score


def scan_split(bids, sc, mech, t):
    """(without, its score, holding, its score less t's own contribution)."""
    blocks = scan_blocks(bids, sc, mech)
    if not blocks:
        return NoEligibleBlockError
    if mech.allocation is Allocation.REVENUE_MAX:

        def score(b):
            return sum(bids[u] for u in b.txs if u != t)

    else:
        alone = Block((t,))
        own = payment(mech, alone, bids, sc)[t] - burn(mech, alone, bids, sc)

        def score(b):
            return bps(b, bids, sc, mech) - (own if t in b.txs else 0)

    out = []
    for holds in (False, True):
        side = [b for b in blocks if (t in b.txs) == holds]
        if not side:
            out += [None, None]
            continue
        top = max(map(score, side))
        out += [min((b for b in side if score(b) == top), key=canonical_key), top]
    return tuple(out)


ALL_MECHANISMS = (
    Mechanism.fpa(),
    Mechanism.fpa(Allocation.CONSONANT),
    Mechanism.trivial(),
) + tuple(
    factory(fee, elig, alloc)
    for factory in (Mechanism.eip1559, Mechanism.tipless)
    for elig in Eligibility
    for alloc in (Allocation.STANDARD, Allocation.CONSONANT)
    for fee in range(3)
)


@st.composite
def ordered_cases(draw):
    """A scenario whose blockset can hold several orderings of one member
    set (explicit or permutation knapsack; plain knapsacks too, for the
    unplanned path), a producer valuation over those orderings, bids, and
    a mechanism."""
    n = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 2)) for _ in range(n)]
    txs = tuple(
        Transaction(i, size, draw(st.integers(0, 2))) for i, size in enumerate(sizes)
    )
    shape = draw(st.sampled_from(("explicit", "permutations", "knapsack")))
    if shape == "explicit":
        sets = [c for k in range(1, n + 1) for c in combinations(range(n), k)]
        listed = []
        for c in draw(st.lists(st.sampled_from(sets), min_size=1, unique=True)):
            orders = st.permutations(c).map(lambda p: Block(tuple(p)))
            listed += draw(st.lists(orders, min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            listed.insert(draw(st.integers(0, len(listed))), EMPTY_BLOCK)
        blockset = ExplicitBlockset(tuple(listed))
    else:
        cap = draw(st.integers(0, sum(sizes)))
        blockset = KnapsackBlockset(cap, enumerate_permutations=shape == "permutations")
    blocks = enumerate_blocks(Scenario(txs, PassiveValuation(), blockset))
    some_blocks = st.sampled_from(blocks)
    bp = draw(
        st.one_of(
            st.builds(PassiveValuation, st.integers(0, 2)),
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 2)).map(
                AdditiveValuation
            ),
            st.dictionaries(some_blocks, st.integers(0, 2)).map(TableValuation),
            st.builds(
                SingleMindedValuation,
                st.frozensets(some_blocks, min_size=1, max_size=3),
                st.integers(0, 2),
            ),
        )
    )
    sc = Scenario(txs, bp, blockset)
    bids = {i: draw(st.integers(0, 3)) for i in range(n)}
    return sc, bids, draw(st.sampled_from(ALL_MECHANISMS))


# -- producer values against the match-based oracle ---------------------------


def oracle_bp_value(block, valuation):
    """The producer's value for a block as one match over the four
    valuation kinds, independent of their `of` methods."""
    match valuation:
        case PassiveValuation(constant=c):
            return c
        case AdditiveValuation(values=vals):
            return sum(vals.get(t, 0) for t in block.txs)
        case SingleMindedValuation(targets=targets, value=v):
            return v if block in targets else 0
        case TableValuation(entries=entries):
            return entries.get(block, 0)
    raise TypeError(f"unsupported valuation {valuation!r}")


any_blocks = st.lists(st.integers(0, 3), unique=True, max_size=3).map(lambda t: Block(tuple(t)))
signed = st.integers(-4, 4)
any_valuations = st.one_of(
    st.builds(PassiveValuation, signed),
    st.dictionaries(st.integers(0, 4), signed).map(AdditiveValuation),
    st.builds(SingleMindedValuation, st.frozensets(any_blocks, max_size=4), signed),
    st.dictionaries(any_blocks, signed).map(TableValuation),
)


class TestValuesAgainstOracle:
    """Every valuation scores its own blocks (`of`), which every scorer
    calls; each must agree with the match oracle, and the per-world value
    range and the beta check with plain loops."""

    @given(any_valuations, st.lists(any_blocks, max_size=6))
    @example(AdditiveValuation({0: -3, 2: 1}), [Block((0, 2)), Block((1,))])
    @example(TableValuation({Block((0, 1)): 2}), [Block((1, 0)), Block((0, 1))])
    @example(
        SingleMindedValuation(frozenset({Block((0,)), Block((1, 0)), EMPTY_BLOCK}), -2),
        [Block((0, 1)), Block((1, 0)), Block((0,))],
    )
    @settings(max_examples=300, deadline=None)
    def test_methods_match_the_oracle(self, valuation, blocks):
        for b in (EMPTY_BLOCK, *blocks):
            assert valuation.of(b) == oracle_bp_value(b, valuation)

    @pytest.mark.parametrize("other", [3, None, {0: 1}, Mechanism.trivial()])
    def test_scenario_refuses_other_valuations(self, other):
        txs = (Transaction(0, 1, 5),)
        with pytest.raises(ValueError, match="bp_valuation"):
            Scenario(txs, other, KnapsackBlockset(1))
        world = Scenario(txs, PassiveValuation(0), KnapsackBlockset(1))
        with pytest.raises(ValueError, match="bp_valuation"):
            world.with_valuation(other)

    @given(ordered_cases())
    @settings(max_examples=300, deadline=None)
    def test_range_and_beta_match_loops(self, case):
        sc, _, _ = case
        blocks = enumerate_blocks(sc)
        values = [oracle_bp_value(b, sc.bp_valuation) for b in blocks]
        users = max(sum(sc.tx(t).valuation for t in b.txs) for b in blocks)
        assert value_range(sc) == (min(values), max(values))
        assert value_range(sc, budget=len(blocks)) == (min(values), max(values))
        for beta in (0, Fraction(1, 2), 1, Fraction(5, 2)):
            assert check_beta_commensurate(sc, beta) == (max(values) >= beta * users)

    def test_range_belongs_to_one_world(self):
        sc = knapsack_scenario([(1, 0, 1)] * 2, 2, AdditiveValuation({0: 3}))
        assert value_range(sc) == (0, 3)
        child = sc.with_valuation(AdditiveValuation({1: -2}))
        assert value_range(child) == (-2, 0)
        assert value_range(sc) == (0, 3)

    def test_tighter_budget_after_a_cached_range_raises(self):
        # three unit transactions under capacity 3: all 8 subsets fit; tx 2
        # bids below its reserve, so the gated recommendation enumerates
        # the 4 blocks without it and the single-minded spread all 8
        sc = knapsack_scenario([(1, 2, 2), (1, 2, 2), (1, 0, 0)], 3, AdditiveValuation({0: 1}))
        assert value_range(sc, budget=8) == (0, 1)
        mech = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        assert recommended_block(mech, sc.submitted_bids(), sc, budget=7) == Block((0,))
        for call in (
            lambda: value_range(sc, budget=7),
            lambda: check_beta_commensurate(sc, 1, budget=7),
            lambda: construct_zero_bid_single_minded(mech, sc, sc.submitted_bids(), budget=7),
        ):
            with pytest.raises(EnumerationBudgetError):
                call()


class TestPlanAgainstScan:
    """split_pass and the passes split on one user, valued and not, the
    revenue_max and tipless standard rules and welfare_argmax read the
    grouped plan on ordered blocksets; each must agree with a per-block
    scan, tie order included."""

    @given(ordered_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_block_scan(self, case):
        sc, bids, mech = case
        want = scan_detail(bids, sc, mech)
        if want is NoEligibleBlockError:
            with pytest.raises(NoEligibleBlockError):
                detail_of(bids, sc, mech)
        else:
            assert detail_of(bids, sc, mech) == want
        # a second call reads the cached plan
        if want is not NoEligibleBlockError:
            assert detail_of(bids, sc, mech) == want
        revenue = split_pass(bids, sc, Mechanism.fpa(), valued=False)[1]
        assert revenue == scan_revenue(bids, sc)
        if mech.preset == "fpa" and mech.allocation is Allocation.REVENUE_MAX:
            assert recommended_block(mech, bids, sc) == scan_revenue(bids, sc)
        if mech.preset == "tipless" and mech.allocation is Allocation.STANDARD:
            want = scan_tipless_standard(bids, sc, mech)
            if want is NoEligibleBlockError:
                with pytest.raises(NoEligibleBlockError):
                    recommended_block(mech, bids, sc)
            else:
                assert recommended_block(mech, bids, sc) == want
        assert welfare_argmax(sc) == scan_welfare(sc)
        if mech.allocation is Allocation.STANDARD:
            return
        for t in sc.ids():
            want = scan_split(bids, sc, mech, t)
            if want is NoEligibleBlockError:
                with pytest.raises(NoEligibleBlockError):
                    split_of(bids, sc, mech, t)
                continue
            assert split_of(bids, sc, mech, t) == want

    def test_tipless_standard_keeps_the_budget_of_a_full_scan(self):
        # only tx 0 clears the reserve of 2, but the rule still enumerates
        # all 8 feasible blocks, as the per-block scan does
        sc = knapsack_scenario([(1, 0, 0)] * 3, 3)
        bids = {0: 5, 1: 0, 2: 0}
        mech = Mechanism.tipless(2)
        with pytest.raises(EnumerationBudgetError):
            recommended_block(mech, bids, sc, budget=4)
        assert recommended_block(mech, bids, sc, budget=8) == Block((0,))

    def tie_scenario(self, values, blocks):
        txs = tuple(Transaction(i, 1, 0) for i in range(3))
        table = TableValuation({Block(b): v for b, v in values.items()})
        return Scenario(txs, table, ExplicitBlockset(tuple(Block(b) for b in blocks)))

    def test_ties_within_and_across_groups_come_in_canonical_order(self):
        # (1, 0) and (0, 1) are one member set worth 1 either way; (2,) and
        # (0, 2) tie with them at 3 from other groups
        sc = self.tie_scenario(
            {(1, 0): 1, (0, 1): 1, (2,): 1},
            [(), (1, 0), (2,), (0, 1), (0, 2)],
        )
        bids = {0: 1, 1: 1, 2: 2}
        best, score, tied = detail_of(bids, sc, Mechanism.fpa(Allocation.CONSONANT))
        assert score == 3
        assert tied == tuple(Block(b) for b in [(2,), (0, 1), (0, 2), (1, 0)])
        assert best == Block((2,))
        split = split_of(bids, sc, Mechanism.fpa(Allocation.CONSONANT), 0)
        assert split == (Block((2,)), 3, Block((0, 1)), 2)

    def test_only_the_top_orderings_of_a_group_tie(self):
        sc = self.tie_scenario({(1, 0): 2, (0, 1): 1}, [(), (1, 0), (0, 1)])
        bids = {0: 0, 1: 0, 2: 0}
        best, score, tied = detail_of(bids, sc, Mechanism.trivial())
        assert (best, score, tied) == (Block((1, 0)), 2, (Block((1, 0)),))

    def test_revenue_max_takes_the_canonical_first_ordering(self):
        # the producer prefers (1, 0); revenue ignores it and the group's
        # canonical-first ordering (0, 1) stands for the tie
        sc = self.tie_scenario({(1, 0): 5}, [(), (1, 0), (2,), (0, 1)])
        bids = {0: 2, 1: 1, 2: 2}
        assert recommended_block(Mechanism.fpa(), bids, sc) == Block((0, 1))
        assert split_of(bids, sc, Mechanism.fpa(), 2)[:2] == (Block((0, 1)), 3)


    def test_plan_cache_is_safe_under_threads(self):
        # eight threads at a time ask for the same plan of a fresh scenario
        # (gated eligibility gives each pattern of cleared reserves its own
        # plan); every answer must equal the per-block scan
        txs = tuple(Transaction(i, 1, 0) for i in range(4))
        blockset = KnapsackBlockset(3, enumerate_permutations=True)
        orderings = enumerate_blocks(Scenario(txs, PassiveValuation(), blockset))
        bp = TableValuation({b: len(b.txs) % 3 for b in orderings[::2]})
        mech = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        cells = [dict(enumerate(c)) for c in product(range(2), repeat=4)]
        want = [scan_detail(bids, Scenario(txs, bp, blockset), mech) for bids in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                shared = Scenario(txs, bp, blockset)
                with ThreadPoolExecutor(max_workers=8) as ex:
                    got = list(
                        ex.map(
                            lambda bids: detail_of(bids, shared, mech),
                            [bids for bids in cells for _ in range(8)],
                            timeout=120,
                        )
                    )
                assert got == [w for w in want for _ in range(8)]
        finally:
            sys.setswitchinterval(interval)


def raised(fn, *args, **kwargs):
    """fn's result, or the type and message of its NoEligibleBlockError."""
    try:
        return fn(*args, **kwargs)
    except NoEligibleBlockError as e:
        return NoEligibleBlockError, str(e)


# tied at 3 with tx 2 bidding 2: the member set {0, 1} lacks tx 2 and lists
# (1, 0) and (0, 1), while (2,) and (0, 2) hold it; in canonical order the
# two tie lists interleave, so only a merge gives the order of one pass
CROSS_TIE_CASE = (
    Scenario(
        tuple(Transaction(i, 1, 0) for i in range(3)),
        TableValuation({Block((1, 0)): 1, Block((0, 1)): 1, Block((2,)): 1}),
        ExplicitBlockset(tuple(Block(b) for b in [(), (1, 0), (2,), (0, 1), (0, 2)])),
    ),
    {0: 1, 1: 1, 2: 0},
    Mechanism.fpa(Allocation.CONSONANT),
)


# on a plain knapsack with tx 2 bidding 2, (2,), which holds it, ties
# (0, 1), which lacks it, and comes first in canonical order although the
# depth-first enumeration lists it last
PLAIN_CROSS_TIE_CASE = (
    knapsack_scenario([(1, 0, 1), (1, 0, 1), (2, 0, 0)], 2),
    {0: 1, 1: 1, 2: 0},
    Mechanism.fpa(Allocation.CONSONANT),
)


class TestSplitPass:
    """One pass split on a transaction per eligibility of it, read at
    each of its bids by fold_split, against one pass per bid and the
    per-block scan; tie order included."""

    @given(ordered_cases())
    @example(CROSS_TIE_CASE)
    @example(PLAIN_CROSS_TIE_CASE)
    @settings(max_examples=300, deadline=None)
    def test_folds_match_a_pass_per_bid(self, case):
        sc, bids, mech = case
        ids = sc.ids()
        last = ids[-1]
        first = ids[0]
        passes = {}
        for x in range(4):
            cell = {**bids, last: x}
            c = fee_class(mech, sc.tx(last), x)
            key = c is not None
            if key not in passes:
                # solved at the first bid of each eligibility, as the audits do
                passes[key] = raised(
                    lambda: [
                        split_entries(cell, sc, mech, (last,), valued=v) for v in (True, False)
                    ]
                )
                if len(ids) > 1 and mech.allocation is not Allocation.STANDARD:
                    valued = mech.allocation is not Allocation.REVENUE_MAX
                    passes[key, "pair"] = raised(
                        split_entries, cell, sc, mech, (first, last), valued=valued
                    )
            got = passes[key]
            want = raised(detail_of, cell, sc, mech)
            if want[0] is NoEligibleBlockError:
                # raised where the pass was solved, which ends a sweep
                assert got == want
                break
            score, best, tied = fold_split(got[0], c)
            assert (best, score, tied) == want
            if mech.preset == "fpa":
                revenue = split_pass(cell, sc, mech, valued=False)[1]
                assert fold_split(got[1], c)[1] == revenue
            if len(ids) == 1 or mech.allocation is Allocation.STANDARD:
                continue
            # bit 0 of a pattern is `first`, bit 1 `last`, as the audits read it
            entries = passes[key, "pair"]
            lacking, holding = fold_split(entries[0::2], c), fold_split(entries[1::2], c)
            without, without_score, held, held_score = scan_split(cell, sc, mech, first)
            assert (lacking[1], lacking[0]) == (without, without_score)
            assert (holding[1], holding[0]) == (held, held_score)
            assert split_cut(lacking, holding) == split_cut(
                (without_score, without), (held_score, held)
            )

    @given(ordered_cases(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_both_reads_of_one_walk_are_the_two_passes(self, case, k):
        # one walk with two accumulators, split on the last k transactions,
        # gives the valued pass's entries and then the unvalued pass's; on a
        # plain knapsack it walks the valued plan where the passes do not
        sc, bids, mech = case
        ids = sc.ids()
        split = tuple(ids[max(len(ids) - k, 0) :])
        elig, contrib = _eligible_weights(mech, bids, sc)
        for t in split:
            contrib[t] = 0
        both = weighted_pass(sc, contrib, valued=(True, False), eligible=elig, split=split)
        assert len(both) == 2 << len(split)
        assert both == [
            *weighted_pass(sc, contrib, valued=True, eligible=elig, split=split),
            *weighted_pass(sc, contrib, valued=False, eligible=elig, split=split),
        ]

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(0, 8), st.randoms())
    def test_plain_knapsacks_enumerate_member_tuples_in_order(self, sizes, cap, rnd):
        # the depth-first enumeration lists member tuples in lexicographic
        # order, whatever order the candidates are given in
        ids = list(range(len(sizes)))
        rnd.shuffle(ids)
        txs = tuple(Transaction(i, size, 0) for i, size in enumerate(sizes))
        sc = Scenario(txs, PassiveValuation(), KnapsackBlockset(cap, tuple(ids)))
        members = [b.txs for b in enumerate_blocks(sc)]
        assert members == sorted(members)

    def test_no_contribution_reads_the_one_entry_of_an_unsplit_pass(self):
        sc, bids, mech = CROSS_TIE_CASE
        entries = split_entries(bids, sc, mech, (), valued=True)
        assert len(entries) == 1
        assert fold_split(entries, None) is entries[0]
        assert entries[0] == split_pass(bids, sc, mech, valued=True)

    def test_cross_tie_merges_in_canonical_order(self):
        sc, bids, mech = CROSS_TIE_CASE
        entries = split_entries(bids, sc, mech, (2,), valued=True)
        lacking, holding = entries
        assert lacking[0] == holding[0] + 2
        score, best, tied = fold_split(entries, 2)
        assert [b.txs for b in tied] == [(2,), (0, 1), (0, 2), (1, 0)]
        assert (best, score) == (Block((2,)), 3)

    @given(ordered_cases(), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_entries_ignore_the_listing_order(self, case, rnd):
        # the same blocks listed in two orders give equal entries, ties
        # included, unsplit and folded from a pass split on the last user
        sc, bids, mech = case
        listed = list(enumerate_blocks(sc))
        shuffled = listed[:]
        rnd.shuffle(shuffled)
        last = sc.ids()[-1]

        def entries(blocks):
            world = Scenario(sc.transactions, sc.bp_valuation, ExplicitBlockset(tuple(blocks)))
            got = []
            for x, valued in product(range(4), (True, False)):
                cell = {**bids, last: x}
                got.append(raised(split_pass, cell, world, mech, valued=valued))
                split = raised(split_entries, cell, world, mech, (last,), valued=valued)
                if isinstance(split, list):
                    split = fold_split(split, fee_class(mech, world.tx(last), x))
                got.append(split)
            return got

        assert entries(listed) == entries(shuffled)


EMPTY_ENTRY = (None, None, ())


@st.composite
def row_entries(draw, pool):
    """One weighted_pass entry over the blocks of pool: empty, or a score
    with a canonical tie list of distinct blocks."""
    if draw(st.integers(0, 3)) == 0:
        return EMPTY_ENTRY
    ties = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    ties = tuple(sorted(ties, key=canonical_key))
    return draw(st.integers(-3, 3)), ties[0], ties


@st.composite
def row_cases(draw):
    """One or two sides, each its (lacking, holding) entry pairs of the
    blocks lacking and holding one transaction, split on the last walked
    user, and that user's classes on one row: one None class, or ascending
    integers.  The two are drawn among ids 0..3, so either can come first
    on the canonical key; each entry holds its own pattern of them."""
    held, last, *rest = draw(st.permutations(range(4)))
    pools = {
        (h, l): [
            Block(tuple(sorted((*others, *[held][:h], *[last][:l]))))
            for k in range(3)
            for others in combinations(rest, k)
        ]
        for h in (0, 1)
        for l in (0, 1)
    }
    sides = [
        tuple((draw(row_entries(pools[h, 0])), draw(row_entries(pools[h, 1]))) for h in (0, 1))
        for _ in range(draw(st.integers(1, 2)))
    ]
    classes = draw(
        st.one_of(
            st.just([None]),
            st.lists(st.integers(-4, 6), min_size=1, max_size=8, unique=True).map(sorted),
        )
    )
    return sides, classes


def entry(score, *txs):
    """A one-block entry."""
    return score, Block(txs), (Block(txs),)


# Two sides tied at class 2 (3 = 1 + 2).  The first side holds tx 2 in
# (2,), and its tie goes to (0,), lacking the last user, tx 3, so the cut
# at the tie is the one below it.  The second holds tx 1 in (1,), and its
# tie goes to (0,), holding the last user, tx 0, so the cut at the tie is
# the one above it
ROW_TIE_CASE = (
    [
        ((entry(3, 0), entry(1, 0, 3)), (entry(2, 2), EMPTY_ENTRY)),
        ((entry(3, 2), entry(1, 0)), (entry(2, 1), EMPTY_ENTRY)),
    ],
    [1, 2, 3],
)

# a tie in the pair of the blocks holding tx 1: at class 2 (3 = 1 + 2) its
# first block is (0, 1), holding the last user, tx 0, which comes before
# the rival (0, 2), as above the tie; (1, 2), below it, does not
HELD_TIE_CASE = (
    [((EMPTY_ENTRY, entry(0, 0, 2)), (entry(3, 1, 2), entry(1, 0, 1)))],
    [1, 2, 3],
)


def read_of(entry):
    """The (score, canonical key of the first block) read of an entry that
    row_cuts takes, (None, None) when it is empty."""
    return entry[0], None if entry[1] is None else canonical_key(entry[1])


def reads_of(pair):
    return tuple(map(read_of, pair))


@st.composite
def depth2_cases(draw):
    """A kernel's walked users (0, 1 or 2 split-off users) and one or two
    sides of weighted_pass entries split on them and the held id, as a
    kernel keeps them (bit 0 the first split-off user, then the next, then
    the held id), with a class of the second-to-last user (None or an
    integer) and the last user's classes on one row.  The split ids are
    drawn among ids 0..4, so any of them can come first on the canonical
    key; each entry holds its own pattern of them."""
    n = draw(st.integers(0, 2))
    ids = draw(st.permutations(range(5)))
    split, rest = ids[: n + 1], ids[n + 1 :]
    sides = []
    for _ in range(draw(st.integers(1, 2))):
        side = []
        for k in range(1 << len(split)):
            held = [t for j, t in enumerate(split) if k >> j & 1]
            pool = [
                Block(tuple(sorted((*others, *held))))
                for r in range(3)
                for others in combinations(rest, r)
            ]
            side.append(draw(row_entries(pool)))
        sides.append(side)
    c = draw(st.none() | st.integers(-4, 6)) if n == 2 else None
    classes = [None] if n == 0 else draw(
        st.one_of(
            st.just([None]),
            st.lists(st.integers(-4, 6), min_size=1, max_size=8, unique=True).map(sorted),
        )
    )
    return n, sides, c, classes


class SyntheticPasses(auditors._ClassPasses):
    """A kernel whose one pass key has the given entries (all sides, in
    kernel order), to read rows of it without a scenario."""

    def __init__(self, n, entries):
        self.ids, self.entries = tuple(range(n)), entries
        self.passes, self.row = {}, (None, None)

    def _solve(self, key, lists):
        return self.entries


# Two sides, the second-to-last user folded at class 2.  In each, the
# pair lacking both the last user and the held id ties at 2 (3 = 1 + 2):
# in the first its first block, (0,), comes from the lacking entry, and in
# the second, (1, 2), from the holding one
DEPTH2_TIE_CASE = (
    2,
    [
        [entry(3, 0), entry(1, 0, 2), EMPTY_ENTRY, EMPTY_ENTRY,
         entry(2, 3), EMPTY_ENTRY, EMPTY_ENTRY, EMPTY_ENTRY],
        [entry(3, 3, 4), entry(1, 1, 2), entry(0, 1, 4), EMPTY_ENTRY,
         entry(2, 3), entry(4, 2, 3), EMPTY_ENTRY, EMPTY_ENTRY],
    ],
    2,
    [1, 2, 3],
)

# One side, the second-to-last user None.  The pair of the last user among
# the blocks holding the held id ties at class 2 (3 = 1 + 2), and its first
# block comes from the entry holding the last user, (0,), or from the one
# lacking it, (5, 6), before (7, 8)
DEPTH2_HELD_TIE_CASES = [
    (2, [[entry(5, 1, 2), EMPTY_ENTRY, EMPTY_ENTRY, EMPTY_ENTRY,
          entry(3, 5, 6), EMPTY_ENTRY, entry(1, *last), EMPTY_ENTRY]], None, [1, 2, 3])
    for last in [(0,), (7, 8)]
]


class TestRowCuts:
    """solver.row_cuts settles a row of the last walked user's classes by
    critical-bid arithmetic; each cut must be split_cut of the two pairs
    folded at the class, empty entries, ties at the threshold and None
    classes included."""

    @given(row_cases())
    @example(ROW_TIE_CASE)
    @example(HELD_TIE_CASE)
    @example(([((EMPTY_ENTRY, EMPTY_ENTRY), (EMPTY_ENTRY, EMPTY_ENTRY))], [None]))
    @settings(max_examples=300, deadline=None)
    def test_matches_split_cut_of_the_folds(self, case):
        sides, classes = case
        for lacking, holding in sides:
            want = [split_cut(fold_split(lacking, c), fold_split(holding, c)) for c in classes]
            assert row_cuts(reads_of(lacking), reads_of(holding), classes) == want

    def test_a_tie_takes_its_first_block_from_either_side(self):
        (first, second), classes = ROW_TIE_CASE
        assert fold_split(first[0], 2)[2] == (Block((0,)), Block((0, 3)))
        assert fold_split(second[0], 2)[2] == (Block((0,)), Block((2,)))
        assert row_cuts(*map(reads_of, first), classes) == [(1, False), (1, False), (2, True)]
        assert row_cuts(*map(reads_of, second), classes) == [(1, True), (1, False), (2, False)]
        (held,), classes = HELD_TIE_CASE
        assert fold_split(held[1], 2)[2] == (Block((0, 1)), Block((1, 2)))
        assert row_cuts(*map(reads_of, held), classes) == [(-2, False), (-1, True), (-1, True)]

    @given(depth2_cases())
    @example(DEPTH2_TIE_CASE)
    @example(DEPTH2_HELD_TIE_CASES[0])
    @example(DEPTH2_HELD_TIE_CASES[1])
    @example((2, [[EMPTY_ENTRY] * 8], None, [None]))
    @example((2, [[entry(1, 0)] + [EMPTY_ENTRY] * 7], 3, [None, 1]))
    @settings(max_examples=400, deadline=None)
    def test_row_reads_match_the_folded_pairs(self, case):
        # the kernel's row read (the critical of each pair of the
        # second-to-last user, read at its class) against row_cuts of the
        # entries folded at that class by fold_split; a missing split-off
        # user reads as a None class
        n, sides, c, classes = case
        kernel = SyntheticPasses(n, [e for side in sides for e in side])
        key = (c, classes[0])[2 - n :]  # the row's first class tuple
        pairs = kernel.reads(key, ())
        assert len(pairs) == 2 * len(sides)
        for side, (lacking, holding) in zip(sides, zip(pairs[0::2], pairs[1::2])):
            if n == 2:
                folded = [fold_split(pair, c) for pair in zip(side[0::2], side[1::2])]
            elif n == 1:
                folded = side
            else:
                folded = [side[0], EMPTY_ENTRY, side[1], EMPTY_ENTRY]
            want = [
                split_cut(fold_split(folded[0:2], x), fold_split(folded[2:4], x)) for x in classes
            ]
            assert row_cuts(lacking, holding, classes) == want

    def test_a_row_is_read_once(self):
        # the pass's criticals are read once per key, and a row's reads
        # once per row, however often the row is asked for
        n, sides, c, classes = DEPTH2_TIE_CASE
        kernel = SyntheticPasses(n, [e for side in sides for e in side])
        first = kernel.reads((c, 1), ())
        assert kernel.reads((c, 3), ()) is first
        assert list(kernel.passes) == [(0, 0)]
        assert kernel.reads((None, 1), ()) != first
        assert list(kernel.passes) == [(0, 0), (None, 0)]

    @given(ordered_cases())
    @settings(max_examples=200, deadline=None)
    def test_deviation_rows_match_the_folds(self, case):
        # every row of every transaction's deviation tables, one side or
        # two (gated eligibility), against split_cut of each side's two
        # entries folded at each class tuple of the row by a second kernel
        sc, _, mech = case
        points = tuple(range(4))
        for tx in sc.transactions:
            tables = _DeviationTables(mech, sc, tx, points, [], None, {})
            folder = _DeviationTables(mech, sc, tx, points, [], None, {}).passes
            groups = _class_groups(mech, sc, tables.others, points, tables.classify)
            for key, lists, classes, last in _class_rows(groups):
                try:
                    got = tables.cuts(key, lists, classes)
                except (NoEligibleBlockError, UnsupportedInstanceError, ExcessivelyLowBaseFeeError):
                    break  # a sweep ends at its first error
                want = []
                for c, bids in zip(classes, last):
                    f = folder.folds((*key[:-1], c), (*lists[:-1], bids))
                    want.append(tuple(split_cut(*f[i : i + 2]) for i in range(0, len(f), 2)))
                if not classes:
                    f = folder.folds(key, lists)
                    want.append(tuple(split_cut(*f[i : i + 2]) for i in range(0, len(f), 2)))
                assert got == want


class TestUnvaluedPlan:
    def test_unvalued_passes_compute_no_values(self, monkeypatch):
        # revenue_max and the tipless standard rule ignore the producer's
        # values, so only the valued pass on the same plan key scores them
        calls = []
        value_of = TableValuation.of

        def counting(valuation, block):
            calls.append(block)
            return value_of(valuation, block)

        monkeypatch.setattr(TableValuation, "of", counting)
        sc = knapsack_scenario([(1, 0, 1)] * 3, 2, TableValuation({Block((1, 0)): 2}), True)
        bids = sc.submitted_bids()
        split_pass(bids, sc, Mechanism.fpa(), valued=False)
        recommended_block(Mechanism.tipless(1), bids, sc)
        assert calls == []
        valued = detail_of(bids, sc, Mechanism.trivial())
        assert valued[0] == Block((1, 0))
        assert len(calls) == len(enumerate_blocks(sc))
        detail_of(bids, sc, Mechanism.trivial())
        split_pass(bids, sc, Mechanism.fpa(), valued=False)
        assert len(calls) == len(enumerate_blocks(sc))


class TestNoEligibleBlock:
    # no listed block is empty, and every block holds tx 0, which bids
    # below its reserve of 1
    sc = Scenario(
        (Transaction(0, 1, 0), Transaction(1, 1, 0)),
        PassiveValuation(0),
        ExplicitBlockset((Block((0,)), Block((0, 1)))),
    )
    bids = {0: 0, 1: 2}

    @pytest.mark.parametrize("allocation", [Allocation.CONSONANT, Allocation.STANDARD])
    def test_every_reader_raises(self, allocation):
        mech = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, allocation)
        with pytest.raises(NoEligibleBlockError):
            recommended_block(mech, self.bids, self.sc)
        with pytest.raises(NoEligibleBlockError):
            split_pass(self.bids, self.sc, mech, valued=True)
        if allocation is Allocation.CONSONANT:
            assert scan_split(self.bids, self.sc, mech, 1) is NoEligibleBlockError
            with pytest.raises(NoEligibleBlockError):
                split_of(self.bids, self.sc, mech, 1)

    def test_is_an_unsupported_instance(self):
        assert issubclass(NoEligibleBlockError, UnsupportedInstanceError)
