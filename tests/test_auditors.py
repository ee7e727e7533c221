"""Unit tests for the grid auditors.

The exhaustive sweeps are cross-checked here against a deliberately naive
nested-loop oracle that recomputes every cell the slow way, so the audited
results never rest on the auditors' own shortcuts.
"""

import os
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Allocation,
    AuditReport,
    Block,
    BoundCheck,
    CappedAtReserve,
    Eligibility,
    EnumerationBudgetError,
    ExcessivelyLowBaseFeeError,
    ExplicitBlockset,
    FixedOffset,
    GridSpec,
    KnapsackBlockset,
    Mechanism,
    NoEligibleBlockError,
    PassiveValuation,
    ProfileSpaceError,
    Scenario,
    ScenarioDoc,
    SingleMindedValuation,
    TableValuation,
    TieConflict,
    Transaction,
    Truthful,
    UnsupportedInstanceError,
    WelfareEntry,
    Witness,
    audit_approx_dsic_bound,
    audit_bpic,
    audit_dsic,
    audit_welfare_ratio,
    bps,
    check_beta_commensurate,
    construct_welfare_gap,
    construct_zero_bid,
    construct_zero_bid_single_minded,
    enumerate_blocks,
    is_base_fee_excessively_low,
    max_marginal_value,
    own_payment,
    parse_audit_report,
    payment,
    random_scenario,
    recommended_block,
    render_audit_report,
    replay_bpic_witness,
    replay_dsic_witness,
    scenario_digest,
    strategy_bid,
    welfare_argmax,
    witness_sort_key,
)
from tfm_lab import auditors, solver
from tfm_lab.auditors import _EMPTY, _DeviationTables, _class_groups, _class_rows, _detect_cycle
from tfm_lab.mechanisms import _admitted, _clearing_size, argmax_valued, fee_class
from tfm_lab.solver import BUDGET_ENV_VAR, NoFeasibleBlockError, split_pass


def scenario(specs, cap=None, bp=None):
    txs = tuple(Transaction(i, s, v, b) for i, (s, v, b) in enumerate(specs))
    total = sum(t.size for t in txs)
    return Scenario(txs, bp or PassiveValuation(0), KnapsackBlockset(cap or total))


GRID = GridSpec(1, 4)


def oracle_cells(sc, grid, samples=None, seed=0):
    """Every (tx id, other users' bids, valuation) cell of an exhaustive
    user-deviation sweep, in sweep order; with samples, the cells of the
    distinct profiles of the documented seeded draw instead."""
    points = grid.points()
    ids = sc.ids()
    for t in ids:
        others = [i for i in ids if i != t]
        profiles = product(points, repeat=len(others))
        if samples is not None:
            rng = random.Random(f"{seed}:{scenario_digest(sc)}:{t}")
            profiles = dict.fromkeys(
                tuple(rng.choice(points) for _ in others) for _ in range(samples)
            )
        for profile in profiles:
            base = dict(zip(others, profile))
            for v in points:
                yield t, base, v


def oracle_gains(mech, sc, t, base, v, sb, points):
    """Gain of every grid deviation over the bid sb: one
    recommended_block and one payment() call per own bid."""

    def utility(bid):
        bids = dict(base)
        bids[t] = bid
        block = recommended_block(mech, bids, sc)
        if t not in block:
            return 0
        return v - payment(mech, block, bids, sc)[t]

    stay = utility(sb)
    return [utility(b) - stay for b in points]


def oracle_base_fee_refusal(mech, strategy, scenarios, grid):
    """Standard eip1559 refuses a sweep in which some looked-up cell, any
    own grid or strategy bid against any grid profile of the others, makes
    the base fee excessively low."""
    if mech.preset != "eip1559" or mech.allocation is not Allocation.STANDARD:
        return
    points = grid.points()
    for sc in scenarios:
        ids = sc.ids()
        for t in ids:
            others = [i for i in ids if i != t]
            own = set(points) | {strategy_bid(strategy, v, sc.tx(t)) for v in points}
            for bid, profile in product(own, product(points, repeat=len(others))):
                bids = dict(zip(others, profile))
                bids[t] = bid
                if is_base_fee_excessively_low(mech.base_fee, sc, bids):
                    raise UnsupportedInstanceError("excessively low base fee")


def oracle_dsic(mech, strategy, scenarios, grid, samples=None, seed=0):
    """audit_dsic recomputed cell by cell."""
    oracle_base_fee_refusal(mech, strategy, scenarios, grid)
    points = grid.points()
    witnesses = []
    cells = 0
    for sc in scenarios:
        for t, base, v in oracle_cells(sc, grid, samples, seed):
            sb = strategy_bid(strategy, v, sc.tx(t))
            gains = oracle_gains(mech, sc, t, base, v, sb, points)
            best = max(gains)
            cells += 1
            if best > 0:
                witnesses.append(
                    Witness(scenario_digest(sc), t, v, sb, points[gains.index(best)],
                            best, tuple(sorted(base.items())))
                )
    return AuditReport(
        kind="dsic",
        verdict="FAIL" if witnesses else "PASS",
        max_regret=max((w.utility_gain for w in witnesses), default=0),
        witnesses=tuple(sorted(witnesses, key=witness_sort_key)[:1000]),
        cells_checked=cells,
        mode="exhaustive" if samples is None else "sampled",
        sampling_seed=None if samples is None else seed,
    )


def oracle_approx_dsic(mech, scenarios, grid, samples=None, seed=0):
    """audit_approx_dsic_bound recomputed cell by cell, one bound check per
    (scenario, transaction) in input order.  A deviation can always gain 0,
    so a negative marginal value bounds the regret at 0."""
    points = grid.points()
    strategy = CappedAtReserve(mech.base_fee)
    witnesses = []
    checks = []
    cells = 0
    for sc in scenarios:
        digest = scenario_digest(sc)
        ids = sc.ids()
        nu = {t: max_marginal_value(t, sc) for t in ids}
        bound = {t: max(nu[t], 0) for t in ids}
        regret = dict.fromkeys(ids, 0)
        overbid = dict.fromkeys(ids, 0)
        below = dict.fromkeys(ids, 0)
        for t, base, v in oracle_cells(sc, grid, samples, seed):
            cell = tuple(sorted(base.items()))
            sb = strategy_bid(strategy, v, sc.tx(t))
            gains = oracle_gains(mech, sc, t, base, v, sb, points)
            for b, gain in zip(points, gains):
                if gain > 0 and b > sb:
                    overbid[t] += 1
                    witnesses.append(Witness(digest, t, v, sb, b, gain, cell))
                if gain > 0 and b < sb - bound[t]:
                    below[t] += 1
                    witnesses.append(Witness(digest, t, v, sb, b, gain, cell))
            best = max(0, *gains)
            regret[t] = max(regret[t], best)
            cells += 1
            if best > bound[t]:
                witnesses.append(
                    Witness(digest, t, v, sb, points[gains.index(best)], best, cell)
                )
        checks += [
            BoundCheck(digest, t, nu[t], regret[t], regret[t] <= bound[t], overbid[t], below[t])
            for t in ids
        ]
    failed = any(
        c.overbid_violations or c.below_range_violations or not c.within_bound
        for c in checks
    )
    return AuditReport(
        kind="approx-dsic",
        verdict="FAIL" if failed else "PASS",
        max_regret=max((c.max_regret for c in checks), default=0),
        witnesses=tuple(sorted(witnesses, key=witness_sort_key)[:1000]),
        cells_checked=cells,
        bound_checks=tuple(checks),
        mode="exhaustive" if samples is None else "sampled",
        sampling_seed=None if samples is None else seed,
    )


class TestDsic:
    def test_tipless_standard_truthful_passes(self):
        sc = scenario([(1, 3, 3), (2, 2, 2)])
        report = audit_dsic(Mechanism.tipless(2), Truthful(), [sc], GRID)
        assert report.verdict == "PASS"
        assert report.max_regret == 0
        assert report.witnesses == ()

    def test_eip1559_standard_capped_passes(self):
        sc = scenario([(1, 3, 3), (1, 2, 2)])
        report = audit_dsic(
            Mechanism.eip1559(2), CappedAtReserve(2), [sc], GRID
        )
        assert report.verdict == "PASS" and report.max_regret == 0

    def test_eip1559_standard_truthful_fails_with_replayable_witness(self):
        sc = scenario([(1, 3, 3)])
        mech = Mechanism.eip1559(2)
        report = audit_dsic(mech, Truthful(), [sc], GRID)
        assert report.verdict == "FAIL"
        w = report.witnesses[0]
        # overbidding the reserve pays the full bid, so dropping to the
        # reserve keeps the slot and saves the difference
        assert w.utility_gain == replay_dsic_witness(mech, Truthful(), sc, w)
        assert w.utility_gain > 0

    def test_fpa_truthful_fails(self):
        sc = scenario([(1, 4, 4)])
        report = audit_dsic(Mechanism.fpa(), Truthful(), [sc], GRID)
        assert report.verdict == "FAIL"
        # bidding 1 instead of 4 keeps the slot at a quarter of the price
        assert report.max_regret == 3

    def test_trivial_has_no_incentive_surface(self):
        sc = scenario([(1, 3, 3), (1, 2, 2)], bp=AdditiveValuation({0: 1}))
        report = audit_dsic(Mechanism.trivial(), Truthful(), [sc], GRID)
        assert report.verdict == "PASS" and report.max_regret == 0

    def test_matches_nested_loop_oracle(self):
        sc = scenario([(1, 3, 3), (1, 1, 1)])
        scenarios = [sc, scenario([(2, 2, 2)]), sc]
        grid = GridSpec(1, 3)
        for mech, strategy in (
            (Mechanism.eip1559(2), Truthful()),
            (Mechanism.eip1559(2), CappedAtReserve(2)),
            (Mechanism.fpa(), Truthful()),
            (Mechanism.tipless(1), Truthful()),
            # every bid from the reserve up gains the same: the first is named
            (Mechanism.tipless(1), FixedOffset(-2)),
        ):
            report = audit_dsic(mech, strategy, scenarios, grid)
            assert report == oracle_dsic(mech, strategy, scenarios, grid)

    def test_rejects_sample_counts_below_one(self):
        # a sweep of no profiles would PASS over 0 cells, although this
        # scenario FAILs when swept exhaustively
        sc = scenario([(1, 3, 3), (1, 2, 2)], cap=1)
        mech = Mechanism.fpa(Allocation.CONSONANT)
        grid = GridSpec(1, 3)
        assert audit_dsic(mech, Truthful(), [sc], grid).verdict == "FAIL"
        for samples in (0, -2):
            with pytest.raises(ValueError, match="profile_samples"):
                audit_dsic(mech, Truthful(), [sc], grid, profile_samples=samples)
            with pytest.raises(ValueError, match="profile_samples"):
                audit_approx_dsic_bound(
                    Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
                    [sc], grid, profile_samples=samples,
                )

    def test_rejects_negative_max_witnesses(self, monkeypatch):
        sc = scenario([(1, 3, 3), (1, 2, 2)], cap=1)
        mech = Mechanism.fpa(Allocation.CONSONANT)
        assert audit_dsic(mech, Truthful(), [sc], GRID, max_witnesses=0).witnesses == ()

        # refused before any sweep: no block pass is solved
        def unreachable(*args, **kwargs):
            raise AssertionError("solved a pass before refusing max_witnesses")

        monkeypatch.setattr(auditors, "split_pass", unreachable)
        monkeypatch.setattr(auditors, "weighted_pass", unreachable)
        tipless = Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT)
        for audit in (
            lambda: audit_dsic(mech, Truthful(), [sc], GRID, max_witnesses=-1),
            lambda: audit_dsic(Mechanism.tipless(2), Truthful(), [sc], GRID, max_witnesses=-1),
            lambda: audit_bpic(Mechanism.fpa(), [sc], GRID, max_witnesses=-1),
            lambda: audit_approx_dsic_bound(tipless, [sc], GRID, max_witnesses=-1),
        ):
            with pytest.raises(ValueError, match="max_witnesses"):
                audit()

    def test_cells_checked_counts_grid_exactly(self):
        sc = scenario([(1, 3, 3), (1, 1, 1)])
        report = audit_dsic(Mechanism.tipless(2), Truthful(), [sc], GRID)
        points = len(GRID.points())
        assert report.cells_checked == 2 * points ** 2

    def test_profile_space_guardrail(self):
        sc = scenario([(1, 1, 1)] * 6, cap=6)
        with pytest.raises(ProfileSpaceError):
            audit_dsic(Mechanism.tipless(1), Truthful(), [sc], GRID)

    def test_sampled_mode_is_deterministic(self):
        sc = scenario([(1, 1, 1)] * 6, cap=6)
        runs = [
            audit_dsic(
                Mechanism.tipless(1),
                Truthful(),
                [sc],
                GRID,
                profile_samples=5,
                sampling_seed=3,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].mode == "sampled" and runs[0].sampling_seed == 3

    def test_sampled_mode_counts_each_profile_once(self):
        # draws are with replacement; repeated profiles must not add cells
        # or witnesses, so drawing every profile equals the exhaustive sweep
        one = scenario([(1, 3, 3)])
        mech = Mechanism.eip1559(2)
        sampled = audit_dsic(mech, Truthful(), [one], GRID, profile_samples=5)
        exhaustive = audit_dsic(mech, Truthful(), [one], GRID)
        assert sampled.cells_checked == exhaustive.cells_checked == len(GRID.points())
        assert sampled.witnesses == exhaustive.witnesses

        two = scenario([(1, 3, 3), (1, 2, 2)], cap=1)
        grid = GridSpec(1, 2)
        sampled = audit_dsic(Mechanism.fpa(), Truthful(), [two], grid, profile_samples=10)
        exhaustive = audit_dsic(Mechanism.fpa(), Truthful(), [two], grid)
        assert len(set(sampled.witnesses)) == len(sampled.witnesses) > 0
        assert sampled.cells_checked == exhaustive.cells_checked
        assert sampled.witnesses == exhaustive.witnesses

        knife = scenario([(2, 4, 4)], cap=2)
        consonant = Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT)
        sampled = audit_approx_dsic_bound(consonant, [knife], GRID, profile_samples=5)
        exhaustive = audit_approx_dsic_bound(consonant, [knife], GRID)
        assert sampled.cells_checked == exhaustive.cells_checked
        assert sampled.witnesses == exhaustive.witnesses
        assert sampled.bound_checks == exhaustive.bound_checks

    def test_standard_eip1559_refuses_off_grid_strategy_bids(self, monkeypatch):
        # all at the grid max only tx 0 clears, but tx 1's strategy bid at
        # value 3 is 4, its reserve, and the two no longer fit together
        sc = scenario([(1, 0, 0), (2, 0, 0)], cap=1)
        mech, strategy, grid = Mechanism.eip1559(2), FixedOffset(1), GridSpec(1, 3)
        with pytest.raises(UnsupportedInstanceError, match="strategy bid"):
            audit_dsic(mech, strategy, [sc], grid)
        # refused before the sweep reaches even a scenario that is fine
        fine = scenario([(1, 0, 0)], cap=1)
        calls = []
        monkeypatch.setattr(auditors, "weighted_pass", lambda *a, **k: calls.append(a))
        with pytest.raises(UnsupportedInstanceError, match="strategy bid"):
            audit_dsic(mech, strategy, [fine, sc], grid)
        assert calls == []

    def test_standard_eip1559_bpic_refuses_before_any_scenario(self, monkeypatch):
        # at the grid max both txs of `refused` clear, and only one fits
        fine = scenario([(1, 0, 0), (1, 0, 0)], cap=2)
        refused = scenario([(1, 0, 0), (1, 0, 0)], cap=1)
        mech, grid = Mechanism.eip1559(1), GridSpec(1, 3)
        calls = []
        monkeypatch.setattr(auditors, "weighted_pass", lambda *a, **k: calls.append(a))
        with pytest.raises(UnsupportedInstanceError, match="grid cell"):
            audit_bpic(mech, [fine, refused], grid)
        assert calls == []


MECHANISMS = (
    Mechanism.fpa(),
    Mechanism.fpa(Allocation.CONSONANT),
    Mechanism.trivial(),
) + tuple(
    factory(fee, elig, alloc)
    for factory in (Mechanism.eip1559, Mechanism.tipless)
    for elig in Eligibility
    for alloc in (Allocation.STANDARD, Allocation.CONSONANT)
    for fee in range(4)
)

TABLE_ERRORS = (
    EnumerationBudgetError,
    ExcessivelyLowBaseFeeError,
    UnsupportedInstanceError,
)


@st.composite
def deviation_cases(draw):
    """A mechanism, a small scenario, one deviator, the other users' bids,
    a grid, own bids off the grid, and an enumeration budget."""
    n = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    txs = tuple(Transaction(i, size, 0) for i, size in enumerate(sizes))
    cap = draw(st.integers(0, sum(sizes)))
    fits = [
        c
        for k in range(1, n + 1)
        for c in combinations(range(n), k)
        if sum(sizes[i] for i in c) <= cap
    ]
    shape = draw(st.sampled_from(("knapsack", "permutations", "explicit")))
    if shape == "explicit" and fits:
        listed = draw(st.lists(st.sampled_from(fits), unique=True))
        blockset = ExplicitBlockset(
            (EMPTY_BLOCK,) + tuple(Block(tuple(draw(st.permutations(c)))) for c in listed)
        )
    else:
        blockset = KnapsackBlockset(cap, enumerate_permutations=shape == "permutations")
    some_blocks = st.sampled_from([EMPTY_BLOCK] + [Block(c) for c in fits])
    bp = draw(
        st.one_of(
            st.builds(PassiveValuation, st.integers(0, 2)),
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 3)).map(
                AdditiveValuation
            ),
            st.dictionaries(some_blocks, st.integers(0, 3)).map(TableValuation),
            st.builds(
                SingleMindedValuation,
                st.frozensets(some_blocks, min_size=1, max_size=2),
                st.integers(0, 3),
            ),
        )
    )
    sc = Scenario(txs, bp, blockset)
    mech = draw(st.sampled_from(MECHANISMS))
    step = draw(st.integers(1, 2))
    points = GridSpec(step, step * draw(st.integers(0, 4))).points()
    t = draw(st.integers(0, n - 1))
    base = {i: draw(st.integers(0, 6)) for i in range(n) if i != t}
    tx = sc.tx(t)
    r = mech.reserve(tx)
    extras = {b for b in (r - 1, r, r + 1) if b >= 0}
    for v in points:
        for strategy in (FixedOffset(-1), FixedOffset(1), CappedAtReserve(1), CappedAtReserve(3)):
            extras.add(strategy_bid(strategy, v, tx))
    budget = draw(st.sampled_from((None, 3, 8)))
    return mech, sc, t, base, points, sorted(extras), budget


def oracle_included(mech, sc, t, base, bid, budget):
    """(included, own payment) of tx t bidding `bid`: one recommended_block
    and one payment() call."""
    bids = dict(base)
    bids[t] = bid
    block = recommended_block(mech, bids, sc, budget=budget)
    if t not in block:
        return False, 0
    return True, payment(mech, block, bids, sc)[t]


def sweep_cut(tables, profile):
    """The cut _sweep takes of one profile of the other users' bids, with
    the class tuple it keys its memo on."""
    mech, sc = tables.mech, tables.scenario
    classes = tuple(tables.classify(mech, sc.tx(i), b) for i, b in zip(tables.others, profile))
    return tables.cuts(classes, tuple((b,) for b in profile), classes[-1:])[0]


def deviation_table(mech, sc, t, base, points, extras, budget):
    """The table _sweep builds for tx t against the other users' bids
    `base`: {own bid: (included, own payment)} at every grid point and
    extra own bid, read off the cut of one _DeviationTables."""
    tables = _DeviationTables(mech, sc, sc.tx(t), points, extras, budget, {})
    return tables.table(tables.included(sweep_cut(tables, tuple(base[i] for i in tables.others))))


class TestDeviationTable:
    """The deviation table that _sweep reads off its cut against one
    recommended_block call and one payment() per own bid."""

    @given(deviation_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_point_oracle(self, case):
        mech, sc, t, base, points, extras, budget = case
        want = {}
        for b in (*points, *extras):
            want[b] = outcome(oracle_included, mech, sc, t, base, b, budget)
            if isinstance(want[b], type):
                # the cut solves the sides of the looked-up bids in lookup
                # order and stops at the first error
                got = outcome(deviation_table, mech, sc, t, base, points, extras, budget)
                assert got is want[b]
                return
        assert deviation_table(mech, sc, t, base, points, extras, budget) == want

    def test_exact_ties_go_to_the_canonical_block(self):
        # one slot and a passive producer: at equal bids the blocks (0,) and
        # (1,) score the same and only the canonical key decides
        sc = scenario([(1, 0, 0), (1, 0, 0)], cap=1)
        mech = Mechanism.fpa(Allocation.CONSONANT)
        points = (0, 1, 2, 3)
        first = deviation_table(mech, sc, 0, {1: 2}, points, (), None)
        second = deviation_table(mech, sc, 1, {0: 2}, points, (), None)
        assert first == {0: (False, 0), 1: (False, 0), 2: (True, 2), 3: (True, 3)}
        assert second == {0: (False, 0), 1: (False, 0), 2: (False, 0), 3: (True, 3)}

    def test_ties_among_blocks_holding_the_deviator(self):
        # at own bid 1 the blocks (0,), (0, 2) and (1,) all score 1: (0,)
        # must stand for the blocks holding tx 0, or (1,) would win the key
        sc = scenario([(1, 0, 0), (2, 0, 0), (1, 0, 0)], cap=2)
        mech = Mechanism.fpa(Allocation.CONSONANT)
        table = deviation_table(mech, sc, 0, {1: 1, 2: 0}, (0, 1, 2), (), None)
        assert table == {0: (False, 0), 1: (True, 1), 2: (True, 2)}

    @pytest.mark.parametrize(
        "mech",
        [Mechanism.fpa(), Mechanism.eip1559(2), Mechanism.tipless(2), Mechanism.trivial()],
        ids=lambda m: m.preset,
    )
    def test_included_payment_equals_payment(self, mech):
        sc = scenario([(1, 0, 0), (2, 0, 0)])
        block = Block((0, 1))
        for own, other in product(range(7), repeat=2):
            bids = {0: other, 1: own}
            want = payment(mech, block, bids, sc)[1]
            assert own_payment(mech, sc.tx(1), own) == want


# one slot, a passive producer and tx 1 deviating: against {0: 0, 2: 2} and
# {0: 2, 2: 0} the best block without tx 1 scores 2 either way, so own bid 2
# ties it and only the canonical key decides, for (1,) before (2,) but not
# before (0,)
CANONICAL_TIE_CASE = (
    Mechanism.fpa(Allocation.CONSONANT),
    [scenario([(1, 0, 0), (1, 0, 0), (1, 0, 0)], cap=1)],
    GridSpec(1, 3),
    Truthful(),
    None,
)


# two unit transactions, two of size 2 and room for 2: tx 3's best rival
# block lacking tx 2 is (0, 1), and the one holding it is (2,)
LAST_CLASS_TIE_CASE = (
    Mechanism.fpa(Allocation.CONSONANT),
    [scenario([(1, 0, 0), (1, 0, 0), (2, 0, 0), (2, 0, 0)], cap=2)],
    GridSpec(1, 3),
    Truthful(),
    None,
)


# The two-user fold: _ClassPasses splits off the last two other users,
# whatever their classes, and tx 0 deviates in each case.  Four unit
# transactions under fpa give tx 0 the prefix tx 1, whose bid moves the
# argmax through the producer's stake in it
PREFIX_CASE = (
    Mechanism.fpa(Allocation.CONSONANT),
    [scenario([(1, 2, 2), (1, 0, 0), (1, 3, 3), (1, 1, 1)], cap=2, bp=AdditiveValuation({1: 2}))],
    GridSpec(1, 3),
    Truthful(),
    None,
)

GATED_EIP1559 = Mechanism.eip1559(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)

# tx 1 (reserve 3) has one eligible class on grid 0..3 and tx 2 three; both
# are split off, tx 1 read as its eligibility, and the producer's stake in
# tx 1 makes that eligibility matter
ONE_CLASS_FIRST_CASE = (
    GATED_EIP1559,
    [scenario([(1, 2, 2), (3, 0, 0), (1, 1, 1)], cap=4, bp=AdditiveValuation({1: 3}))],
    GridSpec(1, 3),
    Truthful(),
    None,
)

# the reverse: tx 1 has three eligible classes and tx 2 (reserve 3) one,
# which is split off and read as its eligibility just the same
ONE_CLASS_LAST_CASE = (
    GATED_EIP1559,
    [scenario([(1, 2, 2), (1, 1, 1), (3, 0, 0)], cap=4, bp=AdditiveValuation({2: 3}))],
    GridSpec(1, 3),
    Truthful(),
    None,
)

# both other users are split off, and tx 1 is shut out at bid 0, the first
# bid of the walk
GATED_PAIR_CASE = (
    GATED_EIP1559,
    [scenario([(1, 2, 2), (1, 0, 0), (1, 1, 1)], cap=2, bp=AdditiveValuation({1: 2}))],
    GridSpec(1, 3),
    Truthful(),
    None,
)

# tx 0 against the split-off users tx 2 and tx 3 (8 patterns with tx 0):
# when they bid alike, (2, 0) and (0, 3) tie among the blocks holding tx 0,
# in patterns that differ in both users, and the canonical (0, 3) holds tx
# 3, whose fold comes last.  It, not (2, 0), decides the tie with (1, 2),
# the best block lacking tx 0, at own bid = tx 1's bid
PATTERN_TIE_CASE = (
    Mechanism.fpa(Allocation.CONSONANT),
    [
        Scenario(
            tuple(Transaction(i, 1, 2) for i in range(4)),
            PassiveValuation(0),
            ExplicitBlockset(tuple(Block(b) for b in [(), (1, 2), (2, 0), (0, 3)])),
        )
    ],
    GridSpec(1, 3),
    Truthful(),
    None,
)

def cut_case(case):
    """A deviation case of TestCut: tx 0 of the memo case's scenario on its
    grid, no extra own bids, no budget."""
    mech, (sc,), grid, _, _ = case
    return mech, sc, 0, {}, grid.points(), [], None


class TestCut:
    """Profiles of one transaction with one cut share one deviation table."""

    def test_canonical_tie_is_part_of_the_cut(self):
        mech, (sc,), grid, strategy, _ = CANONICAL_TIE_CASE
        tx = sc.tx(1)
        points = grid.points()
        strategy_bids = [strategy_bid(strategy, v, tx) for v in points]
        tables = _DeviationTables(mech, sc, tx, points, strategy_bids, None, {})
        assert tables.others == (0, 2)
        assert sweep_cut(tables, (0, 2)) == ((2, True),)
        assert sweep_cut(tables, (2, 0)) == ((2, False),)
        report = audit_dsic(mech, strategy, [sc], grid)
        assert report == oracle_dsic(mech, strategy, [sc], grid)

    def test_last_class_decides_the_tie_bit(self):
        # tx 3 deviates against (0, 1), worth 2 at bids 1 and 1, and (2,),
        # which holds the last other user and is scored 0 before its bid is
        # added.  At its bid 1 the gap is 2 and (3,) comes before (0, 1);
        # at its bid 2 the gap is still 2, but (2,) ties (0, 1) and comes
        # before (3,), so own bid 2 is no longer included
        mech, (sc,), grid, strategy, _ = LAST_CLASS_TIE_CASE
        tables = _DeviationTables(mech, sc, sc.tx(3), grid.points(), [], None, {})
        assert tables.others == (0, 1, 2)
        assert sweep_cut(tables, (1, 1, 1)) == ((2, True),)
        assert sweep_cut(tables, (1, 1, 2)) == ((2, False),)
        assert tables.table(tables.included(((2, True),)))[2] == (True, 2)
        assert tables.table(tables.included(((2, False),)))[2] == (False, 0)
        report = audit_dsic(mech, strategy, [sc], grid)
        assert report == oracle_dsic(mech, strategy, [sc], grid)

    @given(deviation_cases())
    @example((CANONICAL_TIE_CASE[0], CANONICAL_TIE_CASE[1][0], 1, {}, (0, 1, 2, 3), [], None))
    @example(cut_case(PREFIX_CASE))
    @example(cut_case(ONE_CLASS_FIRST_CASE))
    @example(cut_case(ONE_CLASS_LAST_CASE))
    @example(cut_case(GATED_PAIR_CASE))
    @example(cut_case(PATTERN_TIE_CASE))
    @settings(max_examples=250, deadline=None)
    def test_equal_cuts_give_equal_tables(self, case):
        """Over every profile of the other users' bids in 0..3, swept by
        one _DeviationTables as _sweep does, the profiles of one cut get
        the same (included, payment) at every grid point and every extra
        own bid."""
        mech, sc, t, _, points, extras, budget = case
        tables = _DeviationTables(mech, sc, sc.tx(t), points, extras, budget, {})
        seen = {}
        for profile in product(range(4), repeat=len(tables.others)):
            base = dict(zip(tables.others, profile))
            cut = outcome(sweep_cut, tables, profile)
            if isinstance(cut, type):
                continue
            table = [
                outcome(oracle_included, mech, sc, t, base, b, budget)
                for b in (*points, *extras)
            ]
            assert seen.setdefault(cut, table) == table


class TestScan:
    """The bounds of the shared deviation scan are strict."""

    def test_bound_boundaries(self):
        # valuation 5, truthful bid 5 at payment 5 (utility 0); deviating to
        # 4 pays 3 (gain 2) and to 3 pays 4 (gain 1)
        table = {5: (True, 5), 4: (True, 3), 3: (True, 4)}
        dev = [(3, table[3]), (4, table[4])]
        tx = Transaction(0, 1, 5)

        def scan(bound):
            return auditors._scan(Truthful(), tx, (5,), dev, table.__getitem__, bound)

        # a best gain of exactly the bound is within it, and a deviation
        # exactly the bound below the strategy bid is not below range
        assert scan(2) == ([], 0, 0, 2)
        # one less and both are violations
        assert scan(1) == ([(-1, 5, 5, 3), (-2, 5, 5, 4)], 0, 1, 2)


def found_of(rows):
    """A witness collector holding each sort-key row (digest, tx_id, -gain,
    valuation, recommended_bid, deviation_bid, cell_bids) as an outcome of
    its own, reached by the cell's bids as one-bid lists.  Every cell's ids
    are a prefix of (0, 2), which zip cuts to the cell's length."""
    found = auditors._Found()
    for i, (d, t, neg, v, rec, dev, cell) in enumerate(rows):
        found.add(d, t, i, (0, 2), [(neg, v, rec, dev)], tuple((b,) for _, b in cell))
    return found


@st.composite
def collector_feeds(draw):
    """Passes of a sweep over (digest, tx) pairs, fed to a witness
    collector as the audits feed it: each pass settles a few outcomes whose
    rows come from a small pool (so rows repeat within an outcome and
    across outcomes) and sends each class tuple it visits, as its users'
    bid lists, to one of them.  A pair can be swept twice, as a repeated
    scenario is.  A pass either walks class tuples in product order, each
    user's bids 0..2 grouped into ascending lists by a drawn class map (so
    a list holds one to three bids), or, as a sampled sweep does, visits
    raw profiles as one-bid lists in draw order.  Returns the passes as
    (digest, tx, ids, [(outcome index, rows, lists)])."""
    pool = draw(st.lists(
        st.tuples(st.integers(-3, -1), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=4,
    ))
    passes = []
    for digest, t in draw(st.lists(st.sampled_from([("a" * 64, 0), ("a" * 64, 1), ("b" * 64, 0)]), max_size=4)):
        ids = tuple(i for i in range(3) if i != t)
        outcomes = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3), min_size=1, max_size=3))
        if draw(st.booleans()):
            groups = []
            for _ in ids:
                by_class = {}
                for b in range(3):
                    by_class.setdefault(draw(st.integers(0, 2)), []).append(b)
                groups.append(list(by_class.values()))
            tuples = list(product(*groups))
        else:
            profiles = draw(st.permutations(list(product(range(3), repeat=len(ids)))))
            tuples = [tuple((b,) for b in p) for p in profiles]
        tuples = tuples[:draw(st.integers(0, len(tuples)))]
        picks = [draw(st.integers(0, len(outcomes) - 1)) for _ in tuples]
        feeds = [(k, outcomes[k], lists) for k, lists in zip(picks, tuples)]
        passes.append((digest, t, ids, feeds))
    return passes


class TestFinalizeWitnesses:
    """Audits collect witnesses per settled outcome and build only the
    emitted ones."""

    @given(collector_feeds(), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_collector_matches_a_full_sort_of_expanded_rows(self, passes, cap):
        found = auditors._Found()
        expanded = []
        for p, (digest, t, ids, feeds) in enumerate(passes):
            for k, rows, lists in feeds:
                found.add(digest, t, (p, k), ids, rows, lists)
                for profile in product(*lists):
                    cell = tuple(zip(ids, profile))
                    expanded += [Witness(digest, t, v, rec, dev, -neg, cell) for neg, v, rec, dev in rows]
        assert len(found) == len(expanded)
        assert found.max_gain() == max((w.utility_gain for w in expanded), default=0)
        want = sorted(expanded, key=witness_sort_key)
        # the first cut that falls inside a row, between two of its cells
        inside = next((n for n in range(1, len(want)) if want[n - 1][:6] == want[n][:6]), 0)
        for n in {0, cap, inside, len(expanded), len(expanded) + 5}:
            got = auditors._finalize_witnesses(found, n)
            assert got == tuple(want[:n])
            assert all(type(w) is Witness for w in got)
            assert [w._asdict() for w in got] == [w._asdict() for w in want[:n]]
            # within one (digest, tx), equal profiles share one cell object
            shared = {}
            for w in got:
                assert shared.setdefault(w[:2] + (w.cell_bids,), w.cell_bids) is w.cell_bids

    def test_collector_merges_rows_and_keeps_copies(self):
        # one outcome holds row r twice and one profile; a second outcome
        # of the same pair, from a repeated scenario, holds r once and
        # reaches the same profile and an earlier one, in draw order
        r, s = (-2, 1, 1, 0), (-1, 1, 1, 2)
        first, second = [r, s, r], [r]
        found = auditors._Found()
        found.add("a" * 64, 0, "first", (1, 2), first, ((2,), (0,)))
        found.add("a" * 64, 0, "second", (1, 2), second, ((2,), (0,)))
        found.add("a" * 64, 0, "second", (1, 2), second, ((0,), (1,)))
        assert len(found) == 5
        got = auditors._finalize_witnesses(found, 4)
        assert [(w.utility_gain, w.deviation_bid, w.cell_bids) for w in got] == [
            (2, 0, ((1, 0), (2, 1))),
            (2, 0, ((1, 2), (2, 0))),
            (2, 0, ((1, 2), (2, 0))),
            (2, 0, ((1, 2), (2, 0))),
        ]
        assert auditors._finalize_witnesses(found, 9)[-1].utility_gain == 1

    ROWS = st.lists(
        st.tuples(
            st.sampled_from(("a" * 64, "b" * 64)),
            st.integers(0, 2),
            st.integers(-3, -1),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from((((0, 1),), ((0, 2),), ((0, 1), (2, 0)))),
        ),
        max_size=40,
    )

    @given(ROWS, st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_full_sort(self, rows, max_witnesses):
        witnesses = [Witness(d, t, v, rec, dev, -neg, cell) for d, t, neg, v, rec, dev, cell in rows]
        want = sorted(witnesses, key=witness_sort_key)[:max_witnesses]
        assert auditors._finalize_witnesses(found_of(rows), max_witnesses) == tuple(want)

    def test_every_cut_inside_a_row_matches_a_full_sort(self):
        # rows r and s of one (digest, tx) reach profiles (0, 1), (1, 0)
        # and (2, 1) from one outcome, and s reaches (2, 1) once more from a
        # second; every cut, inside either row or between them, keeps the
        # sorted prefix, and equal profiles share one cell object
        r, s = (-2, 1, 1, 0), (-1, 1, 1, 2)
        found = auditors._Found()
        found.add("a" * 64, 0, "first", (1, 2), [r, s], ((0, 2), (1,)))
        found.add("a" * 64, 0, "first", (1, 2), [r, s], ((1,), (0,)))
        found.add("a" * 64, 0, "second", (1, 2), [s], ((2,), (1,)))
        profiles = {r: ((0, 1), (1, 0), (2, 1)), s: ((0, 1), (1, 0), (2, 1), (2, 1))}
        want = [
            Witness("a" * 64, 0, v, rec, dev, -neg, ((1, a), (2, b)))
            for (neg, v, rec, dev), ps in profiles.items()
            for a, b in ps
        ]
        assert want == sorted(want, key=witness_sort_key)
        assert len(found) == len(want) == 7
        for n in range(len(want) + 2):
            assert auditors._finalize_witnesses(found, n) == tuple(want[:n])
        got = auditors._finalize_witnesses(found, 7)
        assert got[0].cell_bids is got[3].cell_bids
        assert got[2].cell_bids is got[5].cell_bids is got[6].cell_bids

    def test_zero_emits_nothing_and_negative_raises(self):
        found = found_of([("a" * 64, 0, -1, 1, 1, 2, ((1, 0),))])
        assert auditors._finalize_witnesses(found, 0) == ()
        with pytest.raises(ValueError, match="max_witnesses"):
            auditors._finalize_witnesses(found, -1)


class TestBpic:
    def test_standard_rules_pass_with_passive_producer(self):
        sc = scenario([(1, 3, 3), (2, 2, 2)])
        for mech in (Mechanism.tipless(2), Mechanism.eip1559(2)):
            report = audit_bpic(mech, [sc], GRID)
            assert report.verdict == "PASS"
            assert report.max_regret == 0
            assert report.tie_conflicts == ()

    def test_eip1559_standard_fails_with_staked_producer(self):
        sc = scenario([(1, 3, 3), (1, 2, 2)], bp=AdditiveValuation({0: 4, 1: 4}))
        mech = Mechanism.eip1559(2)
        report = audit_bpic(mech, [sc], GRID)
        assert report.verdict == "FAIL"
        w = report.witnesses[0]
        assert replay_bpic_witness(mech, sc, w) == w.utility_gain > 0

    def test_fpa_revenue_max_fails_with_staked_producer(self):
        # fee-revenue ties ignore the stake, so the producer prefers a
        # different block than the rule names
        sc = scenario([(1, 0, 0), (1, 0, 0)], cap=1, bp=AdditiveValuation({1: 2}))
        report = audit_bpic(Mechanism.fpa(), [sc], GridSpec(1, 2))
        assert report.verdict == "FAIL"

    def test_standard_rule_allocates_once_per_clearing_set(self, monkeypatch):
        # the tipless fixtures of acceptance criterion 1: 204,183 cells
        # over at most 2^n clearing sets of the n transactions.  The rule's
        # size read takes one pass per key, the clearing set with the last
        # two users split off, and every clearing set comes up on the grid
        fixtures = [
            scenario([(2, 7, 7), (2, 9, 9)], cap=2),
            scenario([(1, 4, 4), (2, 10, 10), (1, 13, 13)], cap=3),
            scenario([(1, 6, 6), (2, 9, 9), (1, 12, 12), (2, 15, 15)], cap=6),
        ]
        allocated = []

        def counting(sc, weights, **k):
            if k["valued"] is False:
                allocated.append(sc)
            return solver.weighted_pass(sc, weights, **k)

        monkeypatch.setattr(auditors, "weighted_pass", counting)
        report = audit_bpic(Mechanism.tipless(2), fixtures, GridSpec(1, 20))
        assert report.cells_checked == 204_183 and report.verdict == "PASS"
        assert [sum(a is sc for a in allocated) for sc in fixtures] == [4, 8, 16]

    def test_consonant_rules_always_pass(self, monkeypatch):
        # a consonant rule is the producer's own argmax, so no cell is
        # swept: no pass is solved, yet every cell is counted.  The swept
        # rules, revenue_max and standard, count the same cells
        def unused(*args, **kwargs):
            raise AssertionError("a consonant BPIC audit solved a pass")

        monkeypatch.setattr(solver, "split_pass", unused)
        monkeypatch.setattr(auditors, "split_pass", unused)
        sc = scenario([(1, 3, 3), (2, 2, 2)], bp=AdditiveValuation({0: 2}))
        consonant = (
            Mechanism.fpa(Allocation.CONSONANT),
            Mechanism.eip1559(2, Eligibility.FREE, Allocation.CONSONANT),
            Mechanism.eip1559(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT),
            Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
            Mechanism.tipless(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT),
            Mechanism.trivial(),
        )
        for mech in (*consonant, Mechanism.fpa(), Mechanism.tipless(2)):
            report = audit_bpic(mech, [sc, sc], GRID)
            assert report.cells_checked == 2 * len(GRID.points()) ** 2
            if mech in consonant:
                assert report.verdict == "PASS" and report.max_regret == 0
                assert report.witnesses == () and report.tie_conflicts == ()


def oracle_bpic(mech, scenarios, grid, rule=recommended_block):
    """audit_bpic recomputed cell by cell: one rule call and one
    split_pass per cell, whatever the rule."""
    points = grid.points()
    witnesses = []
    conflicts = []
    cells = 0
    max_gain = 0
    for sc in scenarios:
        ids = sc.ids()
        edges = {}
        for combo in product(points, repeat=len(ids)):
            bids = dict(zip(ids, combo))
            rec = rule(mech, bids, sc)
            best_score, best, tied = split_pass(bids, sc, mech, valued=True)
            cells += 1
            if rec in tied:
                others = [b for b in tied if b != rec]
                if others:
                    edges.setdefault(rec, set()).update(others)
                continue
            gain = best_score - bps(rec, bids, sc, mech)
            max_gain = max(max_gain, gain)
            diff = sorted(set(best.txs) - set(rec.txs)) or sorted(
                set(rec.txs) - set(best.txs)
            )
            t = diff[0] if diff else (best.txs or rec.txs)[0]
            witnesses.append(
                Witness(scenario_digest(sc), t, sc.tx(t).valuation, bids[t],
                        bids[t], gain, tuple(sorted(bids.items())))
            )
        cycle = _detect_cycle(edges)
        if cycle is not None:
            conflicts.append(
                TieConflict(scenario_digest(sc), tuple(b.txs for b in cycle))
            )
    return AuditReport(
        kind="bpic",
        verdict="PASS" if not witnesses and not conflicts else "FAIL",
        max_regret=max_gain,
        witnesses=tuple(sorted(witnesses, key=witness_sort_key)[:1000]),
        cells_checked=cells,
        tie_conflicts=tuple(conflicts),
    )


BPIC_RULES = (
    Mechanism.fpa(),
    Mechanism.fpa(Allocation.CONSONANT),
    Mechanism.trivial(),
    Mechanism.tipless(1),
    Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT),
    Mechanism.tipless(1, Eligibility.BASE_FEE_GATED),
    Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT),
    Mechanism.eip1559(1),
)


@st.composite
def ordered_bpic_cases(draw):
    """Two or three transactions, a blockset that holds the empty block and
    a producer: an ordered blockset (explicit, possibly listing several
    orderings of one member set, or a permutation knapsack) with a table or
    single-minded producer over its orderings, or a plain knapsack with an
    additive or passive producer."""
    n = draw(st.integers(2, 3))
    txs = tuple(Transaction(i, draw(st.integers(1, 2)), 0) for i in range(n))
    mech = draw(st.sampled_from(BPIC_RULES))
    shapes = ("permutations", "plain")
    if mech != Mechanism.eip1559(1):
        shapes += ("explicit",)
    shape = draw(st.sampled_from(shapes))
    if shape == "explicit":
        sets = [c for k in range(1, n + 1) for c in combinations(range(n), k)]
        listed = [EMPTY_BLOCK]
        for c in draw(st.lists(st.sampled_from(sets), min_size=1, unique=True)):
            orders = st.permutations(c).map(lambda p: Block(tuple(p)))
            listed += draw(st.lists(orders, min_size=1, max_size=3, unique=True))
        blockset = ExplicitBlockset(tuple(listed))
    else:
        # every transaction fits, so standard eip1559 is defined on the grid
        blockset = KnapsackBlockset(
            sum(t.size for t in txs), enumerate_permutations=shape == "permutations"
        )
    if shape == "plain":
        bp = draw(
            st.one_of(
                st.builds(PassiveValuation, st.integers(0, 2)),
                st.dictionaries(st.integers(0, n - 1), st.integers(0, 2)).map(
                    AdditiveValuation
                ),
            )
        )
        return mech, Scenario(txs, bp, blockset)
    blocks = st.sampled_from(enumerate_blocks(Scenario(txs, PassiveValuation(), blockset)))
    bp = draw(
        st.one_of(
            st.dictionaries(blocks, st.integers(0, 2)).map(TableValuation),
            st.builds(
                SingleMindedValuation,
                st.frozensets(blocks, min_size=1, max_size=3),
                st.integers(0, 2),
            ),
        )
    )
    return mech, Scenario(txs, bp, blockset)


def rotating_rule(mech, clearing, sc, *, budget=None):
    """Names a different surplus-tied block from one size of the clearing
    set to the next, which no fixed order on blocks explains.  Like a
    standard rule, it reads only the clearing set: it takes the ties at
    bids of the reserve for the clearing ids and 0 for the others, which
    under tipless and a passive producer tie as every cell of that set."""
    bids = {t: mech.reserve(sc.tx(t)) if t in clearing else 0 for t in sc.ids()}
    _, _, tied = split_pass(bids, sc, mech, valued=True, budget=budget)
    return tied[(len(clearing) + 2) % len(tied)]


def rotating_allocation(mech, bids, sc):
    """rotating_rule on the clearing ids of a cell."""
    clearing = frozenset(t for t, b in bids.items() if b >= mech.reserve(sc.tx(t)))
    return rotating_rule(mech, clearing, sc)


# BPIC walks every user, so the last two are tx n-2 and tx n-1.  Four unit
# transactions under revenue_max leave a prefix of two users
BPIC_PREFIX_CASE = (
    Mechanism.fpa(),
    Scenario(
        tuple(Transaction(i, 1, 0) for i in range(4)),
        TableValuation({Block((1, 0)): 2, Block((2, 3)): 1, Block((0,)): 1}),
        KnapsackBlockset(2, enumerate_permutations=True),
    ),
)

GATED_STANDARD_EIP1559 = Mechanism.eip1559(1, Eligibility.BASE_FEE_GATED)

# tx 1 (reserve 2) has one eligible class on grid 0..2 and tx 2 two; both
# are split off
BPIC_ONE_CLASS_FIRST_CASE = (
    GATED_STANDARD_EIP1559,
    scenario([(1, 0, 0), (2, 0, 0), (1, 0, 0)], bp=AdditiveValuation({1: 2, 2: 1})),
)

# the reverse: tx 1 has two eligible classes and tx 2 (reserve 2) one;
# both are split off
BPIC_ONE_CLASS_LAST_CASE = (
    GATED_STANDARD_EIP1559,
    scenario([(1, 0, 0), (1, 0, 0), (2, 0, 0)], bp=AdditiveValuation({1: 1, 2: 2})),
)

# both last users are split off; tx 1 is shut out at bid 0
BPIC_GATED_PAIR_CASE = (
    GATED_STANDARD_EIP1559,
    scenario([(1, 0, 0), (1, 0, 0), (1, 0, 0)], bp=AdditiveValuation({0: 1, 1: 2})),
)

# revenue_max's read of bids with b2 = b0 + b1: (0, 1), holding tx 1 and not
# tx 2, ties (2,), the canonical block, which holds tx 2 and so enters at
# the last fold; the producer values (2,), so naming (0, 1) would be a
# witness
BPIC_PATTERN_TIE_CASE = (
    Mechanism.fpa(),
    Scenario(
        tuple(Transaction(i, 1, 0) for i in range(3)),
        TableValuation({Block((2,)): 1}),
        ExplicitBlockset(tuple(Block(b) for b in [(), (0, 1), (2,)])),
    ),
)


# a cross tie at the last user's critical class under gated eligibility:
# at bids of 1 (class 0 each), (1,), lacking tx 2, and (0, 2), holding it,
# both score 2, and the standard rule names (0, 2), the largest clearing
# block, so the tie adds the edge (0, 2) -> (1,); the producer values (1,)
# and (0, 2), so a fold that took the wrong first block or dropped either
# side's ties would name another witness or edge
BPIC_GATED_CROSS_TIE_CASE = (
    Mechanism.tipless(1, Eligibility.BASE_FEE_GATED),
    Scenario(
        tuple(Transaction(i, 1, 0) for i in range(3)),
        TableValuation({Block((0, 2)): 2, Block((2,)): 1, Block((1,)): 2}),
        ExplicitBlockset(tuple(Block(b) for b in [(), (2,), (1, 0), (0, 2), (1,)])),
    ),
)

# the same on a plain knapsack under revenue_max: (2,) fills the slot alone
# and, whenever b2 = b0 + b1, ties (0, 1), which lacks tx 2, in the valued
# read (the producer values tx 1 and tx 2 alike), and comes first.  At bids
# (1, 1, 2) the unvalued read names (2,) too, which adds the edge (2,) ->
# (0, 1); at (1, 0, 1) it names (0,), a witness that names tx 2
BPIC_PLAIN_CROSS_TIE_CASE = (
    Mechanism.fpa(),
    scenario([(1, 0, 0), (1, 0, 0), (2, 0, 0)], cap=2, bp=AdditiveValuation({1: 2, 2: 2})),
)


# no transaction: one cell, whose only block is the empty one
BPIC_NO_USER_CASE = (Mechanism.fpa(), Scenario((), PassiveValuation(), KnapsackBlockset(0)))


# the shape of bpic-wide's perm5 tasks: five unit transactions, every
# ordering of up to four, and a table producer.  One recommended block is
# tied with several different tie lists across cells, so its successors
# are the union of them all
BPIC_WIDE_TIE_CASE = (
    Mechanism.fpa(),
    Scenario(
        tuple(Transaction(i, 1, 0) for i in range(5)),
        TableValuation({Block((0, 2)): 3}),
        KnapsackBlockset(4, enumerate_permutations=True),
    ),
)


def recorded_edges(audit, *args):
    """The tie edges an audit passes to _detect_cycle, one list of (node,
    successors) items per scenario, in order."""
    detect, seen = _detect_cycle, []

    def recording(edges):
        seen.append([(node, set(successors)) for node, successors in edges.items()])
        return detect(edges)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auditors, "_detect_cycle", recording)
        patch.setitem(globals(), "_detect_cycle", recording)  # oracle_bpic's name
        audit(*args)
    return seen


def memo_case(case):
    """A BPIC case of TestMemoAgainstCells: the scenario on grid 0..2."""
    mech, sc = case
    return mech, [sc], GridSpec(1, 2), Truthful(), None


class TestBpicAgainstCells:
    """audit_bpic, which reads an argmax rule's recommendation off its
    split passes, against the per-cell oracle."""

    @given(ordered_bpic_cases())
    @example(BPIC_PREFIX_CASE)
    @example(BPIC_ONE_CLASS_FIRST_CASE)
    @example(BPIC_ONE_CLASS_LAST_CASE)
    @example(BPIC_GATED_PAIR_CASE)
    @example(BPIC_PATTERN_TIE_CASE)
    @example(BPIC_GATED_CROSS_TIE_CASE)
    @example(BPIC_PLAIN_CROSS_TIE_CASE)
    @example(BPIC_NO_USER_CASE)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_oracle(self, case):
        mech, sc = case
        want = oracle_bpic(mech, [sc], GridSpec(1, 2))
        assert audit_bpic(mech, [sc], GridSpec(1, 2)) == want

    @given(ordered_bpic_cases())
    @example(BPIC_PREFIX_CASE)
    @example(BPIC_PATTERN_TIE_CASE)
    @example(BPIC_WIDE_TIE_CASE)
    @example(BPIC_GATED_CROSS_TIE_CASE)
    @example(BPIC_PLAIN_CROSS_TIE_CASE)
    @settings(max_examples=40, deadline=None)
    def test_tie_edges_match_per_cell_oracle(self, case):
        # the edges, not only the cycle they yield: the same nodes in the
        # same order, each with the same successors.  A consonant rule
        # sweeps no cell, so it records none
        mech, sc = case
        assume(argmax_valued(mech) is not True)
        got, want = (recorded_edges(f, mech, [sc], GridSpec(1, 2)) for f in (audit_bpic, oracle_bpic))
        assert got == want

    def test_cross_side_tie_goes_to_the_canonical_block(self):
        # at bids {0: 2, 1: 0, 2: 0} the producer's best block lacking the
        # last bidder, (0, 1), ties with (2,), which holds it, at 3; the
        # canonical key picks (2,), so the witness against revenue_max's
        # (0,) names tx 2, not tx 1
        txs = tuple(Transaction(i, 1, 0) for i in range(3))
        blocks = ExplicitBlockset(tuple(Block(b) for b in [(), (0,), (0, 1), (2,)]))
        sc = Scenario(txs, TableValuation({Block((0, 1)): 1, Block((2,)): 3}), blocks)
        grid = GridSpec(1, 2)
        for mech in (Mechanism.fpa(), Mechanism.fpa(Allocation.CONSONANT)):
            assert audit_bpic(mech, [sc], grid) == oracle_bpic(mech, [sc], grid)
        report = audit_bpic(Mechanism.fpa(), [sc], grid)
        named = {w.cell_bids: w.tx_id for w in report.witnesses}
        assert named[((0, 2), (1, 0), (2, 0))] == 2

    def test_revenue_max_witnesses_on_orderings(self):
        # the producer values one ordering; revenue_max names the other
        txs = (Transaction(0, 1, 0), Transaction(1, 1, 0))
        bp = TableValuation({Block((1, 0)): 2})
        sc = Scenario(txs, bp, KnapsackBlockset(2, enumerate_permutations=True))
        report = audit_bpic(Mechanism.fpa(), [sc], GridSpec(1, 2))
        assert report == oracle_bpic(Mechanism.fpa(), [sc], GridSpec(1, 2))
        assert report.verdict == "FAIL" and report.max_regret == 2

    def test_tie_conflicts_match(self, monkeypatch):
        # no shipped rule orders its ties inconsistently, so a rule that
        # rotates among the tied blocks stands in for one, named by the
        # kernel of the standard rule's size read in place of its own block
        sc = scenario([(1, 0, 0), (1, 0, 0)])
        mech = Mechanism.tipless(1)

        class Rotating(auditors._ClassPasses):
            def pairs(self, key, lists):
                if self.read is not _clearing_size:
                    return super().pairs(key, lists)
                clearing = frozenset(t for t, k in zip(self.ids, key) if k is not None)
                return [((None, rotating_rule(mech, clearing, self.scenario), ()), _EMPTY)]

        monkeypatch.setattr(auditors, "_ClassPasses", Rotating)
        want = oracle_bpic(mech, [sc], GRID, rule=rotating_allocation)
        assert want.tie_conflicts
        assert audit_bpic(mech, [sc], GRID) == want


APPROX_MECHANISMS = tuple(
    m for m in MECHANISMS
    if m.preset in ("tipless", "eip1559") and m.allocation is Allocation.CONSONANT
)


@st.composite
def memo_cases(draw, approx=False, max_n=3):
    """A mechanism, one or two small scenarios of at most max_n
    transactions with the first one repeated at the end, a grid of step 1
    or 2, a strategy, and a sample count or None for an exhaustive sweep.

    Every case is defined on its whole grid: the blockset holds the empty
    block, standard eip1559 (and the bounded-regret audit of eip1559) gets
    room for every clearing set, and the bounded-regret audit gets a plain
    knapsack that every transaction fits."""
    if approx:
        mech = draw(st.sampled_from(APPROX_MECHANISMS))
    else:
        preset = draw(st.sampled_from(("fpa", "eip1559", "tipless", "trivial")))
        mech = draw(st.sampled_from([m for m in MECHANISMS if m.preset == preset]))
    step = draw(st.integers(1, 2))
    grid = GridSpec(step, step * draw(st.integers(1, 3)))
    scenarios = []
    for k in range(draw(st.integers(1, 2))):
        # a first scenario of one transaction would have no other users
        n = draw(st.integers(2 if k == 0 else 1, max_n))
        sizes = [draw(st.integers(1, 2)) for _ in range(n)]
        txs = tuple(Transaction(i, size, draw(st.integers(0, 4))) for i, size in enumerate(sizes))
        cap = draw(st.integers(max(sizes) if approx else 0, sum(sizes)))
        standard_eip = mech.preset == "eip1559" and (
            approx or mech.allocation is Allocation.STANDARD
        )
        shape = "knapsack" if approx or standard_eip else draw(
            st.sampled_from(("knapsack", "permutations", "explicit"))
        )
        if shape == "explicit":
            fits = [
                c
                for k in range(1, n + 1)
                for c in combinations(range(n), k)
                if sum(sizes[i] for i in c) <= cap
            ]
            listed = draw(st.lists(st.sampled_from(fits), unique=True)) if fits else []
            blockset = ExplicitBlockset(
                (EMPTY_BLOCK,) + tuple(Block(tuple(draw(st.permutations(c)))) for c in listed)
            )
        else:
            blockset = KnapsackBlockset(cap, enumerate_permutations=shape == "permutations")
        bp = draw(
            st.one_of(
                st.builds(PassiveValuation, st.integers(0, 2)),
                st.dictionaries(st.integers(0, n - 1), st.integers(0, 3)).map(
                    AdditiveValuation
                ),
                st.dictionaries(
                    st.sampled_from(enumerate_blocks(Scenario(txs, PassiveValuation(), blockset))),
                    st.integers(0, 3),
                ).map(TableValuation),
            )
        )
        sc = Scenario(txs, bp, blockset)
        top = {t: grid.max_value for t in sc.ids()}
        if standard_eip and is_base_fee_excessively_low(mech.base_fee, sc, top):
            sc = Scenario(txs, bp, KnapsackBlockset(sum(sizes)))
        scenarios.append(sc)
    scenarios.append(scenarios[0])
    strategy = draw(
        st.sampled_from((Truthful(), CappedAtReserve(1), CappedAtReserve(2), FixedOffset(-2), FixedOffset(1)))
    )
    samples = draw(st.none() | st.integers(1, 6))
    return mech, scenarios, grid, strategy, samples


TIPLESS_TIE_CASE = (
    Mechanism.tipless(1),
    [scenario([(1, 3, 3), (1, 1, 1)]), scenario([(2, 2, 2)]), scenario([(1, 3, 3), (1, 1, 1)])],
    GridSpec(1, 3),
    FixedOffset(-2),
    None,
)

# the grid max clears only tx 0, but the strategy bid 4 of tx 1 clears it too
OFF_GRID_STRATEGY_CASE = (
    Mechanism.eip1559(2),
    [scenario([(1, 0, 0), (2, 0, 0)], cap=1)] * 2,
    GridSpec(1, 3),
    FixedOffset(1),
    None,
)

# every bid is one fee class, so each split-off user has one class to fold
TRIVIAL_UNSPLIT_CASE = (
    Mechanism.trivial(),
    [scenario([(1, 2, 2), (1, 1, 1), (1, 0, 0)], cap=2, bp=AdditiveValuation({1: 1}))],
    GridSpec(1, 2),
    Truthful(),
    None,
)

# the last other user's bids 1 and 2 clear its reserve into one fee class
# and bid 0 is shut out, so a key reads it as its eligibility alone; a
# value-2 user bids 0 and gains by clearing the reserve instead
GATED_UNSPLIT_CASE = (
    Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT),
    [scenario([(1, 2, 2), (1, 1, 1), (1, 0, 0)], cap=2, bp=AdditiveValuation({1: 1}))],
    GridSpec(1, 2),
    FixedOffset(-2),
    None,
)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the table error it raised."""
    try:
        return fn(*args, **kwargs)
    except TABLE_ERRORS as e:
        return type(e)


class TestMemoAgainstCells:
    """The audits settle each fee-class tuple once and replay it for every
    raw profile or cell; the per-cell oracles above settle every cell.  A
    strategy bid off the grid can still make the base fee excessively low,
    which both sides must then refuse before sweeping."""

    @given(memo_cases())
    @example(TIPLESS_TIE_CASE)
    @example(OFF_GRID_STRATEGY_CASE)
    @example(CANONICAL_TIE_CASE)
    @example(LAST_CLASS_TIE_CASE)
    @example(TRIVIAL_UNSPLIT_CASE)
    @example(GATED_UNSPLIT_CASE)
    @example(PREFIX_CASE)
    @example(ONE_CLASS_FIRST_CASE)
    @example(ONE_CLASS_LAST_CASE)
    @example(GATED_PAIR_CASE)
    @example(PATTERN_TIE_CASE)
    @settings(max_examples=150, deadline=None)
    def test_dsic(self, case):
        mech, scenarios, grid, strategy, samples = case
        report = outcome(audit_dsic, mech, strategy, scenarios, grid, profile_samples=samples)
        assert report == outcome(oracle_dsic, mech, strategy, scenarios, grid, samples)

    @given(memo_cases(approx=True))
    @example(GATED_UNSPLIT_CASE)
    @settings(max_examples=100, deadline=None)
    def test_approx_dsic(self, case):
        mech, scenarios, grid, _, samples = case
        report = audit_approx_dsic_bound(mech, scenarios, grid, profile_samples=samples)
        assert report == oracle_approx_dsic(mech, scenarios, grid, samples)

    @given(memo_cases())
    @example(memo_case(BPIC_PREFIX_CASE))
    @example(memo_case(BPIC_ONE_CLASS_FIRST_CASE))
    @example(memo_case(BPIC_ONE_CLASS_LAST_CASE))
    @example(memo_case(BPIC_GATED_PAIR_CASE))
    @example(memo_case(BPIC_PATTERN_TIE_CASE))
    @settings(max_examples=150, deadline=None)
    def test_bpic(self, case):
        mech, scenarios, grid, _, _ = case
        assert audit_bpic(mech, scenarios, grid) == oracle_bpic(mech, scenarios, grid)


class TestWitnessOrder:
    """Every audit returns its witnesses in witness_sort_key order, and a
    smaller max_witnesses keeps a prefix of them: the command line merges
    the reports of several files on that precondition."""

    def check(self, audit, *args, **kwargs):
        report = outcome(audit, *args, max_witnesses=10**6, **kwargs)
        if isinstance(report, type):
            return
        witnesses = report.witnesses
        assert witnesses == tuple(sorted(witnesses, key=witness_sort_key))
        for k in {0, 1, len(witnesses) // 2}:
            assert audit(*args, max_witnesses=k, **kwargs).witnesses == witnesses[:k]

    @given(memo_cases())
    @example(TIPLESS_TIE_CASE)
    @example(GATED_UNSPLIT_CASE)
    @settings(max_examples=60, deadline=None)
    def test_dsic(self, case):
        mech, scenarios, grid, strategy, samples = case
        self.check(audit_dsic, mech, strategy, scenarios, grid)
        self.check(audit_dsic, mech, strategy, scenarios, grid, profile_samples=samples or 3)

    @given(memo_cases(approx=True))
    @settings(max_examples=40, deadline=None)
    def test_approx_dsic(self, case):
        mech, scenarios, grid, _, samples = case
        self.check(audit_approx_dsic_bound, mech, scenarios, grid, profile_samples=samples)

    @given(memo_cases())
    @example(memo_case(BPIC_PATTERN_TIE_CASE))
    # revenue_max fails here with 95 witnesses on 29 rows
    @example((Mechanism.fpa(), [random_scenario(7, n_txs=3, bp="additive").scenario], GridSpec(1, 4), None, None))
    @settings(max_examples=60, deadline=None)
    def test_bpic(self, case):
        mech, scenarios, grid, _, _ = case
        self.check(audit_bpic, mech, scenarios, grid)


class TestBudgetResolution:
    @pytest.fixture
    def reads(self, monkeypatch):
        """Every read of the budget environment variable, in order."""
        reads = []

        class Environ(dict):
            def get(self, key, default=None):
                if key == BUDGET_ENV_VAR:
                    reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", Environ(os.environ))
        return reads

    def test_one_environment_read_per_audit(self, reads):
        sc = scenario([(1, 3, 3), (1, 2, 2), (2, 1, 1)], cap=2, bp=AdditiveValuation({0: 1}))
        mech = Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT)
        for audit in (
            lambda: audit_dsic(mech, Truthful(), [sc], GRID),
            lambda: audit_bpic(mech, [sc], GRID),
            lambda: audit_approx_dsic_bound(mech, [sc], GRID),
            lambda: audit_welfare_ratio(mech, Truthful(), [sc, sc]),
        ):
            reads.clear()
            audit()
            assert len(reads) <= 1

    def test_one_environment_read_per_construction(self, reads):
        sc = scenario([(1, 3, 3), (1, 2, 2), (2, 1, 1)], cap=2, bp=AdditiveValuation({0: 1}))
        mech = Mechanism.eip1559(2, Eligibility.FREE, Allocation.CONSONANT)
        bids = sc.submitted_bids()
        for construct in (
            lambda: construct_zero_bid(mech, sc, bids),
            lambda: construct_zero_bid_single_minded(mech, sc, bids),
            lambda: construct_welfare_gap(Mechanism.trivial(), Fraction(1, 10)),
            lambda: check_beta_commensurate(sc, Fraction(1, 2)),
        ):
            reads.clear()
            construct()
            assert len(reads) <= 1


class TestNoEligibleBlock:
    """An explicit blockset without the empty block whose every block holds
    tx 0: when tx 0 bids below its reserve under gated eligibility, no
    block is eligible and every audit says so by name."""

    sc = Scenario(
        (Transaction(0, 1, 0), Transaction(1, 1, 2)),
        PassiveValuation(0),
        ExplicitBlockset((Block((0,)), Block((0, 1)))),
    )
    mech = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)

    def test_audits_raise(self):
        grid = GridSpec(1, 2)
        with pytest.raises(NoEligibleBlockError):
            audit_bpic(self.mech, [self.sc], grid)
        with pytest.raises(NoEligibleBlockError):
            audit_dsic(self.mech, Truthful(), [self.sc], grid)
        standard = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED)
        with pytest.raises(NoEligibleBlockError):
            audit_dsic(standard, Truthful(), [self.sc], grid)

    def test_replays_raise(self):
        cell = Witness(scenario_digest(self.sc), 1, 2, 2, 0, 1, ((0, 0), (1, 2)))
        with pytest.raises(NoEligibleBlockError):
            replay_bpic_witness(self.mech, self.sc, cell)
        with pytest.raises(NoEligibleBlockError):
            replay_dsic_witness(self.mech, Truthful(), self.sc, cell)


class TestErrorParity:
    """Under gated eligibility the audits solve each (prefix, side, last
    user's eligibility) pass when a cell first needs it, so they raise the
    per-cell oracles' errors, with the same message, at the same cell.  A
    cell's eligible set only grows with its bids and every grid starts at
    0, so an exhaustive sweep meets an empty eligible set at the first cell
    of a scenario; a sampled sweep meets it where its draw does.  A
    NoEligibleBlockError's message names its cell; the pass an error is
    raised at is read off the eligibility filter of the last enumeration
    before it, which the sweeps and the oracles' bid-reading passes alike
    make through solver.enumerate_blocks."""

    mech = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
    # every listed block holds tx 2, and no block is empty
    held = Scenario(
        tuple(Transaction(i, 1, 0) for i in range(3)),
        PassiveValuation(0),
        ExplicitBlockset(tuple(Block(b) for b in [(2,), (0, 2), (1, 2)])),
    )
    plain = scenario([(1, 0, 0)] * 3)

    def raised_at(self, monkeypatch, fn, *args, **kwargs):
        """(type, message) of fn's error and the eligibility filter of the
        last enumeration before it."""
        filters = []
        enumerate_of = solver.enumerate_blocks

        def recording(sc, *, eligible=None, budget=None):
            filters.append(eligible)
            return enumerate_of(sc, eligible=eligible, budget=budget)

        for module in (solver, auditors):
            monkeypatch.setattr(module, "enumerate_blocks", recording)
        with pytest.raises(TABLE_ERRORS) as info:
            fn(*args, **kwargs)
        for module in (solver, auditors):
            monkeypatch.setattr(module, "enumerate_blocks", enumerate_of)
        return type(info.value), str(info.value), filters[-1]

    def test_bpic_no_eligible_block(self, monkeypatch):
        grid = GridSpec(1, 2)
        got = self.raised_at(monkeypatch, audit_bpic, self.mech, [self.plain, self.held], grid)
        want = self.raised_at(monkeypatch, oracle_bpic, self.mech, [self.plain, self.held], grid)
        assert got == want
        assert got[0] is NoEligibleBlockError and got[2] == frozenset()
        assert "at bids {0:0, 1:0, 2:0};" in got[1]

    def test_bpic_standard_rule_without_a_clearing_block(self, monkeypatch):
        # free eligibility lets the producer's pass take every block, but
        # tipless's standard rule keeps only blocks whose members all clear
        # the reserve, and every listed block holds tx 2, which bids 0 < 1
        standard = Mechanism.tipless(1)
        args = standard, [self.held], GridSpec(1, 2)
        got = self.raised_at(monkeypatch, audit_bpic, *args)
        assert got == self.raised_at(monkeypatch, oracle_bpic, *args)
        assert got[0] is NoEligibleBlockError and got[2] == frozenset()
        assert "at bids {0:0, 1:0, 2:0};" in got[1]

    def test_dsic_no_eligible_block_later_in_a_prefix(self, monkeypatch):
        # seed 0 draws tx 0's profiles of (tx 1, tx 2) as (1, 1), (1, 2),
        # (2, 2), (1, 0): the first without an eligible block comes after
        # another profile of its prefix class, whose passes had tx 2 eligible
        grid = GridSpec(1, 2)
        draws = list(oracle_cells(self.held, grid, samples=4, seed=0))
        assert [tuple(base.values()) for t, base, v in draws if t == 0][::3] == [
            (1, 1), (1, 2), (2, 2), (1, 0),
        ]
        args = self.mech, Truthful(), [self.held], grid
        got = self.raised_at(monkeypatch, audit_dsic, *args, profile_samples=4)
        want = self.raised_at(monkeypatch, oracle_dsic, *args, samples=4)
        assert got == want
        assert got[0] is NoEligibleBlockError and got[2] == {1}
        assert "at bids {0:0, 1:1, 2:0};" in got[1]
        exhaustive = self.raised_at(monkeypatch, audit_dsic, *args)
        assert exhaustive == self.raised_at(monkeypatch, oracle_dsic, *args)

    @pytest.mark.parametrize(
        "case",
        [
            # a budget below the 8 blocks of the plain knapsack
            ("3", plain, GridSpec(1, 2), EnumerationBudgetError),
            # every transaction fits, so the 9-transaction block exceeds
            # the permutation cap
            (
                None,
                Scenario(
                    tuple(Transaction(i, 1, 0) for i in range(9)),
                    PassiveValuation(0),
                    KnapsackBlockset(9, enumerate_permutations=True),
                ),
                GridSpec(1, 0),
                UnsupportedInstanceError,
            ),
        ],
        ids=["budget", "permutation-cap"],
    )
    def test_bpic_free_eligibility_consonant(self, monkeypatch, case):
        # a consonant rule is not swept, yet its enumeration errors come
        # with the per-cell oracle's message at its first cell
        budget, sc, grid, error = case
        if budget is not None:
            monkeypatch.setenv(BUDGET_ENV_VAR, budget)
        args = Mechanism.fpa(Allocation.CONSONANT), [sc], grid
        got = self.raised_at(monkeypatch, audit_bpic, *args)
        assert got == self.raised_at(monkeypatch, oracle_bpic, *args)
        assert got[0] is error and got[2] is None

    @pytest.mark.parametrize("kind", ["bpic", "dsic"])
    def test_budget_between_the_last_users_sides(self, monkeypatch, kind):
        # a budget of 3 lies between the 2 blocks of a pass with one
        # eligible transaction and the 4 of a pass with two: the first pass
        # over it has the last user, tx 2, clear its reserve, at a later
        # cell of its prefix than the first
        grid = GridSpec(1, 2)
        if kind == "bpic":
            audit, oracle = audit_bpic, oracle_bpic
            args = self.mech, [self.plain], grid
        else:
            audit, oracle = audit_dsic, oracle_dsic
            args = self.mech, Truthful(), [self.plain], grid
        monkeypatch.setenv(BUDGET_ENV_VAR, "3")
        got = self.raised_at(monkeypatch, audit, *args)
        assert got == self.raised_at(monkeypatch, oracle, *args)
        # bpic raises at bids {0:0, 1:1, 2:1}, dsic at {0:1, 1:0, 2:1}
        assert got[0] is EnumerationBudgetError
        assert got[2] == ({1, 2} if kind == "bpic" else {0, 2})


class TestSweepsReadNoBids:
    """The sweeps score class tuples through solver.weighted_pass and read
    no bid vector: with split_pass and solver._eligible_weights patched to
    raise, every argmax sweep still matches its per-cell oracle."""

    fixtures = [
        scenario([(1, 3, 3), (2, 2, 2), (1, 4, 4)], cap=3, bp=AdditiveValuation({0: 2, 2: 1})),
        Scenario(
            tuple(Transaction(i, 1, v) for i, v in enumerate((2, 4, 3))),
            TableValuation({Block((1, 0)): 3, Block((0, 1)): 1, Block((2,)): 2}),
            KnapsackBlockset(2, enumerate_permutations=True),
        ),
    ]
    fpa = Mechanism.fpa()
    consonant = Mechanism.fpa(Allocation.CONSONANT)
    gated = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)

    @pytest.mark.parametrize(
        "audit, oracle",
        [
            (partial(audit_bpic, fpa), partial(oracle_bpic, fpa)),
            (
                partial(audit_dsic, consonant, Truthful()),
                partial(oracle_dsic, consonant, Truthful()),
            ),
            (partial(audit_dsic, gated, Truthful()), partial(oracle_dsic, gated, Truthful())),
            (partial(audit_approx_dsic_bound, gated), partial(oracle_approx_dsic, gated)),
        ],
        ids=["fpa-revenue-max-bpic", "fpa-consonant-dsic", "gated-dsic", "gated-approx-dsic"],
    )
    def test_matches_the_oracle_without_bids(self, monkeypatch, audit, oracle):
        want = oracle(self.fixtures, GRID)

        def unused(*args, **kwargs):
            raise AssertionError("a sweep read a bid vector")

        monkeypatch.setattr(solver, "_eligible_weights", unused)
        for module in (solver, auditors):
            monkeypatch.setattr(module, "split_pass", unused)
        assert audit(self.fixtures, GRID) == want
        assert audit.func is not audit_bpic or want.verdict == "FAIL"


class TestPassCounts:
    """The sweeps split each key's pass on the last two walked users: one
    solver.weighted_pass per (classes of the other users, eligibility of
    the split-off ones), whose entries every class of the split-off users
    is read from, and revenue_max's two reads share that one pass.  The
    deviation sweeps solve each pass once per scenario, however many
    deviators read it, split on its ids in ascending order.  Sampled sweeps
    reuse the passes of the class tuples they revisit."""

    def counted(self, monkeypatch, audit, *args, **kwargs):
        """(the split of each weighted_pass call the audit made, its report)."""
        splits = []

        def counting(*a, **k):
            splits.append(k["split"])
            return solver.weighted_pass(*a, **k)

        monkeypatch.setattr(auditors, "weighted_pass", counting)
        report = audit(*args, **kwargs)
        monkeypatch.undo()
        return splits, report

    def test_revenue_max_bpic_passes_once_per_prefix(self, monkeypatch):
        # fpa's fee class is the bid, so on grid 0..2 each user has three
        # classes, all eligible: 3^3 prefixes of the first three users, one
        # pass each, where a split on the last user alone and one pass per
        # read would make 3^4 * 2 = 162
        txs = tuple(Transaction(i, 1, 2) for i in range(5))
        bp = TableValuation({Block((1, 0)): 3, Block((2, 3, 4)): 2, Block((4,)): 1})
        sc = Scenario(txs, bp, KnapsackBlockset(3, enumerate_permutations=True))
        mech, grid = Mechanism.fpa(), GridSpec(1, 2)
        splits, report = self.counted(monkeypatch, audit_bpic, mech, [sc], grid)
        assert len(splits) == 27 and set(splits) == {(3, 4)}
        assert report == oracle_bpic(mech, [sc], grid)
        assert report.verdict == "FAIL"

    def test_bpic_reads_a_witness_value_once_per_block_pair(self, monkeypatch):
        # a witness tuple's gain reads the producer's value for its
        # recommendation once per distinct (best block, recommendation)
        # member pair of a scenario, not once per witness tuple.  The
        # fixture above is audited as two scenarios after a first audit has
        # built its plans, so every value read is a witness gain's
        txs = tuple(Transaction(i, 1, 2) for i in range(5))
        bp = TableValuation({Block((1, 0)): 3, Block((2, 3, 4)): 2, Block((4,)): 1})
        sc = Scenario(txs, bp, KnapsackBlockset(3, enumerate_permutations=True))
        mech, grid = Mechanism.fpa(), GridSpec(1, 2)
        want = audit_bpic(mech, [sc, sc], grid)
        pairs, tuples = set(), 0
        for combo in product(grid.points(), repeat=len(txs)):
            bids = dict(zip(sc.ids(), combo))
            _, best, tied = split_pass(bids, sc, mech, valued=True)
            rec = recommended_block(mech, bids, sc)
            if rec not in tied:  # fpa's fee class is the bid: one tuple per cell
                pairs.add((best.txs, rec.txs))
                tuples += 1
        assert 0 < len(pairs) < tuples
        reads = []
        of = TableValuation.of

        def counting(self, block):
            reads.append(block.txs)
            return of(self, block)

        monkeypatch.setattr(TableValuation, "of", counting)
        assert audit_bpic(mech, [sc, sc], grid) == want
        assert sorted(reads) == sorted([rec for _, rec in pairs] * 2)

    @pytest.mark.parametrize(
        "mech",
        [Mechanism.tipless(1), Mechanism.tipless(1, Eligibility.BASE_FEE_GATED), Mechanism.eip1559(2)],
        ids=["tipless", "gated-tipless", "eip1559"],
    )
    def test_standard_bpic_reads_its_recommendation_per_row(self, monkeypatch, mech):
        # a standard rule's recommendation reads only the clearing set, and
        # along a row of the last user's fee classes only that user's
        # clearing flag can change, once, at the reserve: so the size
        # kernel, asked once per class tuple, misses its last-row memo at
        # most twice per fee-class row
        sc, points = FOUR_ALL_FIT, GRID.points()
        rows = list(_class_rows(_class_groups(mech, sc, sc.ids(), points, fee_class)))
        asked, misses = [], []

        class Recording(auditors._ClassPasses):
            def pairs(self, key, lists):
                last = self.row
                pairs = super().pairs(key, lists)
                if self.read is _clearing_size:
                    asked.append(key)
                    if self.row is not last:
                        misses.append(key)
                return pairs

        monkeypatch.setattr(auditors, "_ClassPasses", Recording)
        report = audit_bpic(mech, [sc], GRID)
        assert len(asked) == sum(len(classes) for _, _, classes, _ in rows)
        assert 0 < len(misses) <= 2 * len(rows)
        assert report == oracle_bpic(mech, [sc], GRID)

    def test_consonant_dsic_passes_once_per_prefix(self, monkeypatch):
        # each of the 4 deviators has 3 other users: 3 prefixes of the first
        # one, one pass each and one side under free eligibility, where a
        # split on the last user alone would make 4 * 3^2 = 36.  Deviators
        # 1, 2 and 3 all split on users 1, 2 and 3 and key their passes on
        # user 0, so they share 3 passes: 3 for deviator 0 and 3 for them
        sc = scenario([(1, 3, 3), (2, 2, 2), (1, 4, 4), (1, 1, 1)], cap=3)
        mech, grid = Mechanism.fpa(Allocation.CONSONANT), GridSpec(1, 2)
        splits, report = self.counted(monkeypatch, audit_dsic, mech, Truthful(), [sc], grid)
        assert len(splits) == 6
        # the last two other users and the deviator, in ascending order
        assert Counter(splits) == {(0, 2, 3): 3, (1, 2, 3): 3}
        assert report == oracle_dsic(mech, Truthful(), [sc], grid)

    # Every deviator splits off both other users, the one-class reserve-3
    # user too, which a key reads as its eligibility, so every pass is
    # split on all three ids and keyed by their eligibilities alone: the
    # deviators share at most 2^3 passes, where each solved its own 8
    # (2 eligibilities of each other user x 2 sides) before
    @pytest.mark.parametrize(
        "case, samples, want",
        [
            (ONE_CLASS_LAST_CASE, None, 8),
            (ONE_CLASS_LAST_CASE, 20, 8),
            (ONE_CLASS_FIRST_CASE, None, 8),
            (ONE_CLASS_FIRST_CASE, 20, 8),
        ],
        ids=["second-to-last", "second-to-last-sampled", "last", "last-sampled"],
    )
    def test_one_split_off_user(self, monkeypatch, case, samples, want):
        mech, scenarios, grid, strategy, _ = case
        splits, report = self.counted(
            monkeypatch, audit_dsic, mech, strategy, scenarios, grid, profile_samples=samples
        )
        assert Counter(splits) == {(0, 1, 2): want}
        assert report == oracle_dsic(mech, strategy, scenarios, grid, samples)

    @pytest.mark.parametrize(
        "mech, strategy, fixtures",
        [
            (Mechanism.tipless(2), Truthful(), [
                scenario([(2, 7, 7), (2, 9, 9)], cap=2),
                scenario([(1, 4, 4), (2, 10, 10), (1, 13, 13)], cap=3),
                scenario([(1, 6, 6), (2, 9, 9), (1, 12, 12), (2, 15, 15)], cap=6),
            ]),
            (Mechanism.eip1559(2, Eligibility.BASE_FEE_GATED), CappedAtReserve(2), [
                scenario([(1, 6, 6), (2, 9, 9)], cap=3),
                scenario([(1, 4, 4), (2, 10, 10), (1, 13, 13)], cap=4),
                scenario([(1, 6, 6), (2, 9, 9), (1, 12, 12), (2, 15, 15)], cap=6),
            ]),
        ],
        ids=["tipless", "gated-eip1559"],
    )
    def test_standard_dsic_passes_once_per_clearing_set(self, monkeypatch, mech, strategy, fixtures):
        # a standard rule reads a bid only as its admission, so each pass
        # is a clearing set of the scenario's users, split on its split
        # ids: a deviator among n users reads 2^(n-1) * 2 passes, as the
        # criterion-1 fixtures' 2 * 4 + 3 * 8 + 4 * 16 = 96 reads, but the
        # scenario solves each once.  With n <= 3 every deviator splits on
        # every id, so 2^n passes; at n = 4 deviator 0 splits on (0, 2, 3)
        # and the others on (1, 2, 3), 16 passes each: 4 + 8 + 32 = 44
        grid = GridSpec(1, 5)
        splits, report = self.counted(monkeypatch, audit_dsic, mech, strategy, fixtures, grid)
        assert len(splits) == 44 and report.verdict == "PASS"
        assert report == oracle_dsic(mech, strategy, fixtures, grid)

    @pytest.mark.parametrize("samples, want", [(None, 32), (200, 28)])
    def test_unsplit_passes_once_per_class_tuple(self, monkeypatch, samples, want):
        # gated consonant tipless reads a bid only as its eligibility, so a
        # key is the class tuple itself, the last two other users read as
        # their eligibility, and each class tuple reads one pass per side:
        # 4 deviators x 2^3 eligibility tuples x 2 sides = 64 reads, of 16
        # passes of deviator 0's split and 16 of the others'.  The 200
        # draws per deviator revisit class tuples, which reuse their passes
        sc = random_scenario(7, n_txs=4, bp="additive").scenario
        mech = Mechanism.tipless(2, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        splits, report = self.counted(
            monkeypatch, audit_dsic, mech, Truthful(), [sc], GridSpec(1, 20),
            profile_samples=samples,
        )
        assert len(splits) == want
        assert set(splits) == {(0, 2, 3), (1, 2, 3)}
        assert report.verdict == "PASS"

    # the fixture of test_consonant_dsic_passes_once_per_prefix, whose
    # deviators each split off their last two other users.  No class is
    # folded: each of a kernel's 3 pass keys (one side) has the critical of
    # each of its 4 entry pairs of the second-to-last user read once, 48
    # reads over the 4 kernels, from the 6 passes the scenario solves.
    # The 20 draws per deviator, grouped by row, touch the same keys, and
    # each distinct row is read once
    @pytest.mark.parametrize("samples", [None, 20], ids=["exhaustive", "sampled"])
    def test_kernel_reads_each_pass_key_once(self, monkeypatch, samples):
        sc = scenario([(1, 3, 3), (2, 2, 2), (1, 4, 4), (1, 1, 1)], cap=3)
        mech, grid = Mechanism.fpa(Allocation.CONSONANT), GridSpec(1, 2)
        kernels = []
        reads = Counter()

        class Recording(auditors._ClassPasses):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernels.append(self)

        def counting(*args):
            reads["_critical"] += 1
            return solver._critical(*args)

        def unused(*args):
            raise AssertionError("a deviation sweep folded a class")

        monkeypatch.setattr(auditors, "_ClassPasses", Recording)
        monkeypatch.setattr(auditors, "_critical", counting)
        monkeypatch.setattr(auditors, "fold_split", unused)
        splits, report = self.counted(
            monkeypatch, audit_dsic, mech, Truthful(), [sc], grid, profile_samples=samples
        )
        assert len(splits) == 6 and reads["_critical"] == 48
        assert len(kernels) == 4
        for k in kernels:
            # two memos: the scenario's store, shared by every kernel, and
            # the kernel's own criticals per pass key
            assert [name for name, v in vars(k).items() if isinstance(v, dict)] == ["store", "passes"]
            assert k.store is kernels[0].store
            assert len(k.passes) == 3 and all(len(c) == 2 for c in k.passes.values())
        assert len(kernels[0].store) == len(splits)
        assert report == oracle_dsic(mech, Truthful(), [sc], grid, samples)

    @pytest.mark.parametrize(
        "case", [ONE_CLASS_FIRST_CASE, ONE_CLASS_LAST_CASE, GATED_PAIR_CASE, PREFIX_CASE],
        ids=["one-class-first", "one-class-last", "gated-pair", "prefix"],
    )
    def test_sampled_draws_fold_each_row_once(self, monkeypatch, case):
        # draws are grouped by row (the other users' classes but the last
        # user's, and whether that one is eligible), so each distinct row
        # of a deviator's draws is read once (its fold reads at the
        # second-to-last user's class), however the rows interleave in
        # draw order
        mech, (sc,), grid, strategy, _ = case
        rows = set()
        for t, base, _ in oracle_cells(sc, grid, samples=40):
            classes = [fee_class(mech, sc.tx(i), b) for i, b in base.items()]
            rows.add((t, *classes[:-1], classes[-1] is None))
        read = []

        class Recording(auditors._ClassPasses):
            def pairs(self, key, lists):
                last = self.row
                pairs = super().pairs(key, lists)
                if self.row is not last:
                    read.append(key)
                return pairs

        monkeypatch.setattr(auditors, "_ClassPasses", Recording)
        report = audit_dsic(mech, strategy, [sc], grid, profile_samples=40)
        assert len(read) == len(rows)
        assert report == oracle_dsic(mech, strategy, [sc], grid, 40)


def solved_inputs(audit, *args, **kwargs):
    """(the inputs (weights, eligibility filter, split) of each
    weighted_pass call the audit made, its report or error type)."""
    calls = []

    def recording(sc, weights, **k):
        calls.append((tuple(sorted(weights.items())), k["eligible"], k["split"]))
        return solver.weighted_pass(sc, weights, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auditors, "weighted_pass", recording)
        report = outcome(audit, *args, **kwargs)
    return calls, report


FOUR = scenario([(1, 3, 3), (2, 2, 2), (1, 4, 4), (1, 1, 1)], cap=3, bp=AdditiveValuation({1: 2}))
FOUR_ALL_FIT = scenario([(1, 3, 3), (2, 2, 2), (1, 4, 4), (1, 1, 1)], bp=AdditiveValuation({1: 2}))
GATED_TIPLESS = Mechanism.tipless(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)

# one slot and a passive producer: tx 0's cut against tx 1's bid 0 is
# (0, False), as the empty block ties (0,) and comes first, and against bid
# 1 it is (1, True); both include own bids 1 and 2 of grid 0..2
TWO_CUTS_CASE = (
    Mechanism.fpa(Allocation.CONSONANT),
    [scenario([(1, 0, 0), (1, 2, 0)], cap=1)],
    GridSpec(1, 2),
    Truthful(),
    None,
)


class TestPassStore:
    """Each scenario of a deviation sweep keeps one pass store, shared by
    its deviators' kernels: no pass input is solved twice within one
    scenario, and each kernel reads a pass's entries through a fixed
    permutation into its own bit order, the identity for every BPIC
    kernel.  A table's scan is keyed by its inclusion pattern over the
    looked-up bids, not by its cut."""

    @given(memo_cases(max_n=4))
    @example((GATED_TIPLESS, [FOUR, FOUR], GridSpec(1, 3), Truthful(), None))
    @example((GATED_TIPLESS, [FOUR, FOUR], GridSpec(1, 3), FixedOffset(-2), 20))
    @example((Mechanism.tipless(2), [FOUR, FOUR], GridSpec(1, 3), Truthful(), None))
    @example((Mechanism.eip1559(2), [FOUR_ALL_FIT] * 2, GridSpec(1, 3), CappedAtReserve(2), None))
    @example((Mechanism.fpa(Allocation.CONSONANT), [FOUR, FOUR], GridSpec(1, 3), Truthful(), 30))
    @example(TWO_CUTS_CASE)
    @settings(max_examples=60, deadline=None)
    def test_dsic_solves_no_pass_twice_in_a_scenario(self, case):
        # each scenario alone: the last one repeats the first, and a
        # repeated scenario gets a store of its own
        mech, scenarios, grid, strategy, samples = case
        for sc in scenarios[:-1] or scenarios:
            calls, report = solved_inputs(
                audit_dsic, mech, strategy, [sc], grid, profile_samples=samples
            )
            assert len(set(calls)) == len(calls)
            assert report == outcome(oracle_dsic, mech, strategy, [sc], grid, samples)

    @given(memo_cases(approx=True, max_n=4))
    @example((GATED_EIP1559, [FOUR_ALL_FIT] * 2, GridSpec(1, 3), None, None))
    @settings(max_examples=30, deadline=None)
    def test_approx_dsic_solves_no_pass_twice_in_a_scenario(self, case):
        mech, scenarios, grid, _, samples = case
        for sc in scenarios[:-1] or scenarios:
            calls, report = solved_inputs(
                audit_approx_dsic_bound, mech, [sc], grid, profile_samples=samples
            )
            assert len(set(calls)) == len(calls)
            assert report == outcome(oracle_approx_dsic, mech, [sc], grid, samples)

    @pytest.mark.parametrize(
        "mech", [Mechanism.fpa(Allocation.CONSONANT), GATED_TIPLESS, Mechanism.tipless(2)],
        ids=["fpa-consonant", "gated-tipless", "standard-tipless"],
    )
    def test_kernels_read_passes_in_their_own_bit_order(self, mech):
        # every deviator's kernel reads the shared store's passes, solved
        # with their split ids in ascending order, exactly as passes split
        # in its own bit order (the last two other users, then itself)
        points = GridSpec(1, 3).points()
        store = {}
        kernels = [
            _DeviationTables(mech, FOUR, tx, points, [], None, store).passes
            for tx in FOUR.transactions
        ]
        assert [k.order is None for k in kernels] == [False, False, False, True]
        for k in kernels:
            assert k.store is store and k.split == tuple(sorted(k.split))
            # every pass key: the classes of the first other user, then
            # each split-off user's eligibility
            reads = [{k.read(mech, FOUR.tx(i), b) for b in points} for i in k.ids]
            keys = product(
                *reads[:-2], *[{None if c is None else 0 for c in r} for r in reads[-2:]]
            )
            for key in keys:
                want = []
                weights = {t: c for t, c in zip(k.ids, key) if c is not None}
                for fixed, held in k.sides:
                    w = {**weights, **held}
                    elig = _admitted(mech, FOUR, w, k.read, solver.DEFAULT_BUDGET)
                    want += solver.weighted_pass(
                        FOUR, w, valued=k.valued, eligible=elig, split=(*k.ids[-2:], *fixed)
                    )
                assert k._solve(key, ((0,),) * len(key)) == want

    @pytest.mark.parametrize(
        "mech",
        [Mechanism.fpa(), Mechanism.tipless(1), Mechanism.tipless(1, Eligibility.BASE_FEE_GATED)],
        ids=["revenue-max", "standard", "gated-standard"],
    )
    def test_bpic_kernels_permute_nothing(self, monkeypatch, mech):
        kernels = []

        class Recording(auditors._ClassPasses):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernels.append(self)

        monkeypatch.setattr(auditors, "_ClassPasses", Recording)
        report = audit_bpic(mech, [FOUR], GRID)
        assert kernels
        for k in kernels:
            assert k.order is None and k.store is None and k.split == k.ids[-2:]
        assert report == oracle_bpic(mech, [FOUR], GRID)

    def test_two_cuts_give_one_table_and_one_scan(self, monkeypatch):
        mech, scenarios, grid, strategy, _ = TWO_CUTS_CASE
        (sc,) = scenarios
        cuts = {}  # (tx, cut) -> its inclusion pattern
        scans = []

        class Recording(_DeviationTables):
            def included(self, cut):
                pattern = super().included(cut)
                cuts[self.others, cut] = pattern
                return pattern

        def counting(*args):
            scans.append(args)
            return scan_of(*args)

        scan_of = auditors._scan
        monkeypatch.setattr(auditors, "_DeviationTables", Recording)
        monkeypatch.setattr(auditors, "_scan", counting)
        cells, found, _ = auditors._sweep(mech, strategy, scenarios, grid, None, None, 0)
        assert cuts[(1,), ((0, False),)] == cuts[(1,), ((1, True),)] == (False, True, True)
        patterns = {(others, pattern) for (others, _), pattern in cuts.items()}
        assert len(scans) == len(patterns) < len(cuts)
        # outcomes are named by value: (digest, tx, inclusion pattern)
        names = [outcome_name for _, _, outcome_name in found.outcomes]
        assert all(type(n) is tuple and {type(x) for x in n} == {bool} for n in names)
        profiles = {
            p
            for _, t, ids, _, tuples in found.outcomes.values()
            if t == 0
            for lists in tuples
            for p in product(*lists)
        }
        assert {(0,), (1,)} <= profiles
        report = audit_dsic(mech, strategy, scenarios, grid)
        assert report.cells_checked == cells
        assert report == oracle_dsic(mech, strategy, scenarios, grid)


def dfs_cycle(edges):
    """The first cycle of a depth-first search from each node of edges in
    order, through successors in canonical order: _detect_cycle's oracle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(edges, WHITE)
    for node in edges:
        if color.get(node, WHITE) != WHITE:
            continue
        stack = [(node, iter(sorted(edges.get(node, ()), key=solver.canonical_key)))]
        color[node] = GRAY
        path = [node]
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    i = path.index(nxt)
                    return tuple(path[i:] + [nxt])
                if c == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ()), key=solver.canonical_key))))
                    advanced = True
                    break
            if not advanced:
                color[current] = BLACK
                path.pop()
                stack.pop()
    return None


BLOCKS = st.sets(st.integers(0, 3), max_size=3).map(lambda ids: Block(tuple(sorted(ids))))


class TestDetectCycle:
    """_detect_cycle reports the cycle a hand-written depth-first search
    does, so the tie conflict a report names does not hang on graphlib's
    traversal order."""

    @given(st.dictionaries(BLOCKS, st.sets(BLOCKS, max_size=4), max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_same_cycle_as_a_depth_first_search(self, edges):
        assert _detect_cycle(edges) == dfs_cycle(edges)

    def test_a_cycle_closes_on_its_first_node(self):
        a, b, c = Block((0,)), Block((1,)), Block((0, 1))
        assert _detect_cycle({a: {b}, b: {c}, c: {a}}) == (a, b, c, a)
        assert _detect_cycle({a: {b, c}, b: {c}}) is None


class TestScenarioArgument:
    """Every audit reads its scenarios once and checks their type."""

    fixtures = (
        scenario([(1, 3, 3), (2, 2, 2)], cap=2, bp=AdditiveValuation({0: 2})),
        scenario([(1, 4, 4), (1, 1, 1)], cap=1),
    )
    audits = [
        partial(audit_bpic, Mechanism.fpa(), bid_grid=GRID),
        partial(audit_dsic, Mechanism.fpa(Allocation.CONSONANT), Truthful(), grid=GRID),
        partial(
            audit_approx_dsic_bound,
            Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
            grid=GRID,
        ),
        partial(audit_welfare_ratio, Mechanism.fpa(), Truthful()),
    ]
    kinds = ["bpic", "dsic", "approx-dsic", "welfare"]

    @pytest.mark.parametrize("audit", audits, ids=kinds)
    def test_a_generator_reads_as_a_list(self, audit):
        want = audit(list(self.fixtures))
        assert audit(sc for sc in self.fixtures) == want
        assert audit.func is not audit_dsic or want.verdict == "FAIL"

    @pytest.mark.parametrize("audit", audits, ids=kinds)
    def test_a_scenario_doc_is_refused(self, audit):
        doc = random_scenario(7, n_txs=2)
        assert isinstance(doc, ScenarioDoc)
        with pytest.raises(TypeError, match="must hold Scenario objects, got ScenarioDoc"):
            audit([self.fixtures[0], doc])
        with pytest.raises(TypeError, match="scenarios must be an iterable, got ScenarioDoc"):
            audit(doc)


class TestApproxBound:
    def consonant_tipless(self):
        return Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT)

    def test_bound_holds_with_stakes(self):
        sc = scenario([(1, 3, 3), (2, 2, 2)], bp=AdditiveValuation({0: 2, 1: 1}))
        report = audit_approx_dsic_bound(self.consonant_tipless(), [sc], GRID)
        assert report.verdict == "PASS"
        checks = {c.tx_id: c for c in report.bound_checks}
        assert checks[0].nu == max_marginal_value(0, sc) == 2
        assert checks[1].nu == max_marginal_value(1, sc) == 1
        for c in checks.values():
            assert c.within_bound
            assert c.max_regret <= c.nu
            assert c.overbid_violations == 0
            assert c.below_range_violations == 0

    def test_transaction_in_no_feasible_block_is_bounded_by_zero(self):
        # tx 1 (size 3) fits no block of capacity 2, so it is never included,
        # no deviation moves its utility off 0, and its bound is 0
        sc = scenario([(1, 3, 3), (3, 2, 2)], cap=2, bp=AdditiveValuation({0: 2, 1: 4}))
        with pytest.raises(NoFeasibleBlockError):
            max_marginal_value(1, sc)
        report = audit_approx_dsic_bound(self.consonant_tipless(), [sc], GRID)
        assert report.verdict == "PASS"
        assert report.bound_checks[1] == BoundCheck(scenario_digest(sc), 1, 0, 0, True, 0, 0)
        assert report.bound_checks[0].nu == max_marginal_value(0, sc) == 2

    def test_passive_producer_gives_zero_regret(self):
        sc = scenario([(1, 3, 3), (1, 2, 2)])
        report = audit_approx_dsic_bound(self.consonant_tipless(), [sc], GRID)
        assert report.verdict == "PASS" and report.max_regret == 0

    def test_rejects_standard_allocations(self):
        sc = scenario([(1, 3, 3)])
        with pytest.raises(UnsupportedInstanceError):
            audit_approx_dsic_bound(Mechanism.tipless(2), [sc], GRID)

    def test_rejects_fpa(self):
        sc = scenario([(1, 3, 3)])
        with pytest.raises(UnsupportedInstanceError):
            audit_approx_dsic_bound(Mechanism.fpa(Allocation.CONSONANT), [sc], GRID)

    def test_eip1559_consonant_rejects_tight_capacity(self):
        mech = Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT)
        tight = scenario([(2, 3, 3), (2, 2, 2)], cap=2)
        with pytest.raises(UnsupportedInstanceError):
            audit_approx_dsic_bound(mech, [tight], GRID)

    def test_eip1559_consonant_passes_off_the_knife_edge(self):
        # stakes keep every inclusion decision strictly resolved, so the
        # bound holds with room to spare
        mech = Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT)
        sc = scenario(
            [(2, 3, 3), (2, 2, 2)], cap=4, bp=AdditiveValuation({0: 3, 1: 3})
        )
        report = audit_approx_dsic_bound(mech, [sc], GRID)
        assert report.verdict == "PASS"
        assert all(c.within_bound for c in report.bound_checks)

    @pytest.mark.parametrize(
        "mech",
        [
            Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
            Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT),
        ],
        ids=lambda m: m.preset,
    )
    def test_matches_nested_loop_oracle(self, mech):
        # a scenario repeated back to back keeps one bound check per
        # transaction per copy
        knife = scenario([(2, 4, 4)], cap=2)
        staked = scenario([(2, 3, 3), (2, 2, 2)], cap=4, bp=AdditiveValuation({0: 3, 1: 1}))
        scenarios = [knife, knife, staked]
        report = audit_approx_dsic_bound(mech, scenarios, GRID)
        assert report == oracle_approx_dsic(mech, scenarios, GRID)
        assert [c.tx_id for c in report.bound_checks] == [0, 0, 0, 1]

    def test_eip1559_consonant_knife_edge_is_reported(self):
        # at the capped bid the producer surplus ties and the fixed order
        # drops the transaction, so a small overbid buys inclusion: the
        # overbid-domination guarantee does not survive this tie-break
        mech = Mechanism.eip1559(1, Eligibility.FREE, Allocation.CONSONANT)
        sc = scenario([(2, 4, 4)], cap=2)
        report = audit_approx_dsic_bound(mech, [sc], GRID)
        assert report.verdict == "FAIL"
        check = report.bound_checks[0]
        assert check.overbid_violations > 0
        assert not check.within_bound

    def test_negative_marginal_value_bounds_regret_at_zero(self):
        # the producer loses 3 by including the transaction, so nu = -3,
        # yet no deviation gains anything: zero regret keeps the bound
        sc = Scenario(
            (Transaction(0, 1, 0),),
            TableValuation({EMPTY_BLOCK: 3, Block((0,)): 0}),
            KnapsackBlockset(1),
        )
        mech = Mechanism.eip1559(0, Eligibility.FREE, Allocation.CONSONANT)
        report = audit_approx_dsic_bound(mech, [sc], GridSpec(1, 1))
        assert report.verdict == "PASS" and report.witnesses == ()
        check = report.bound_checks[0]
        assert check.nu == -3 and check.max_regret == 0 and check.within_bound
        parsed = parse_audit_report(render_audit_report(report))
        assert parsed["verdict"] == "PASS"
        assert parsed["bound_checks"] == report.bound_checks


class TestWelfare:
    def test_ratio_is_exact(self):
        sc = scenario([(1, 5, 5), (1, 3, 3)], cap=1, bp=AdditiveValuation({1: 1}))
        report = audit_welfare_ratio(Mechanism.trivial(), Truthful(), [sc])
        entry = report.entries[0]
        # producer picks its staked tx (welfare 4), optimum is the other (5)
        assert entry.recommended == Block((1,))
        assert entry.optimal == Block((0,))
        assert entry.ratio == Fraction(4, 5)
        assert report.min_ratio == Fraction(4, 5)

    @pytest.mark.parametrize(
        "mech, sc, recommended",
        [
            (Mechanism.trivial(), scenario([(1, 0, 0)]), EMPTY_BLOCK),
            # the producer's stake of -1 in tx 0 makes fpa's (0,) worth
            # 1 - 1 = 0: another block than the optimum, the canonical-first
            # empty block, at the same welfare
            (Mechanism.fpa(), scenario([(1, 1, 1)], bp=AdditiveValuation({0: -1})), Block((0,))),
        ],
        ids=["same-block", "same-welfare"],
    )
    def test_zero_welfare_match_counts_as_one(self, mech, sc, recommended):
        report = audit_welfare_ratio(mech, Truthful(), [sc])
        entry = report.entries[0]
        assert (entry.recommended, entry.optimal) == (recommended, EMPTY_BLOCK)
        assert entry.welfare_recommended == entry.welfare_optimal == 0
        assert entry.ratio == report.min_ratio == Fraction(1)
        assert not entry.degenerate

    def test_zero_welfare_optimum_with_another_recommendation_is_degenerate(self):
        # the producer's stake of -2 in tx 0 makes {0} worth 1 - 2 = -1, so
        # the optimum is the empty block at welfare 0, while revenue_max
        # takes tx 0's bid of 1 over nothing
        sc = scenario([(1, 1, 1)], bp=AdditiveValuation({0: -2}))
        report = audit_welfare_ratio(Mechanism.fpa(), Truthful(), [sc])
        assert report.entries == (
            WelfareEntry(scenario_digest(sc), Block((0,)), -1, EMPTY_BLOCK, 0, None, True),
        )
        assert report.min_ratio is None
        # a degenerate entry leaves the minimum to the others: revenue_max
        # takes tx 0 (welfare 3) from a producer that values tx 1 at 2 (4)
        other = scenario([(1, 3, 3), (1, 2, 2)], cap=1, bp=AdditiveValuation({1: 2}))
        both = audit_welfare_ratio(Mechanism.fpa(), Truthful(), [sc, other])
        assert both.entries[0] == report.entries[0]
        assert both.min_ratio == both.entries[1].ratio == Fraction(3, 4)

    def test_welfare_argmax_prefers_canonical_on_ties(self):
        sc = scenario([(1, 2, 2), (1, 2, 2)], cap=1)
        assert welfare_argmax(sc) == Block((0,))

    def test_beta_commensurate_exact_boundary(self):
        sc = scenario([(1, 4, 4), (1, 4, 4)], bp=AdditiveValuation({0: 2}))
        # best producer value 2 vs best user total 8
        assert check_beta_commensurate(sc, Fraction(1, 4))
        assert not check_beta_commensurate(sc, Fraction(1, 3))


class TestReplayValidation:
    def test_dsic_replay_of_a_deviator_excluded_at_its_deviation_bid(self):
        # overbidding by 1, tx 0 (value 2) bids 3 and pays it all under
        # eip1559, a utility of -1; at bid 0 it is below the gated reserve
        # of 1, so it is left out at utility 0: a gain of 1
        sc = scenario([(1, 2, 2)], cap=1)
        mech = Mechanism.eip1559(1, Eligibility.BASE_FEE_GATED, Allocation.CONSONANT)
        w = Witness(scenario_digest(sc), 0, 2, 3, 0, 1, ())
        assert replay_dsic_witness(mech, FixedOffset(1), sc, w) == 1
        report = audit_dsic(mech, FixedOffset(1), [sc], GRID)
        assert w in report.witnesses
        for found in report.witnesses:
            assert replay_dsic_witness(mech, FixedOffset(1), sc, found) == found.utility_gain


    def test_dsic_replay_rejects_mismatched_strategy(self):
        sc = scenario([(1, 3, 3)])
        mech = Mechanism.eip1559(2)
        report = audit_dsic(mech, Truthful(), [sc], GRID)
        w = report.witnesses[0]
        with pytest.raises(ValueError):
            replay_dsic_witness(mech, CappedAtReserve(2), sc, w)
