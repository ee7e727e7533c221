"""Metamorphic relations of the audits: two runs of one audit on related
worlds must give reports that map onto each other exactly.

The per-cell oracles of test_auditors share the package's own allocation
kernel, so a bug in that kernel would pass both sides; these relations
need no oracle.  Both are exact in integers:

1. Money scaling by c: valuations, bids, producer values, the base fee,
   the capped strategy's fee, an offset strategy's delta and the grid's
   step and maximum times c.  Verdicts, cell counts, tie conflicts,
   refusals and bound-check flags and counts stay the same; gains,
   regrets, marginal values, and the valuations and bids of witnesses
   and their cells scale by c.
2. An order-preserving id shift (every id + s), explicit blocks, valuation
   keys and knapsack candidates included.  Witness, cell, bound-check and
   cycle ids shift and nothing else changes.  A relabelling that does not
   preserve order is not an invariant: the canonical block order reads the
   id sequence, so it can change which of several tied blocks a rule names.

Scenario digests change under both, so each report's digests are mapped
and its witnesses re-sorted.  The sweeps are exhaustive: a sampled sweep
draws its profiles from a stream seeded by the scenario digest.
"""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_auditors import (
    BPIC_GATED_CROSS_TIE_CASE,
    BPIC_PLAIN_CROSS_TIE_CASE,
    GATED_UNSPLIT_CASE,
    OFF_GRID_STRATEGY_CASE,
    PATTERN_TIE_CASE,
    PREFIX_CASE,
    memo_cases,
    ordered_bpic_cases,
    rotating_rule,
    scenario,
)

from tfm_lab import (
    AdditiveValuation,
    Block,
    CappedAtReserve,
    EnumerationBudgetError,
    ExcessivelyLowBaseFeeError,
    ExplicitBlockset,
    FixedOffset,
    GridSpec,
    KnapsackBlockset,
    Mechanism,
    NoEligibleBlockError,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    TieConflict,
    Transaction,
    UnsupportedInstanceError,
    Witness,
    audit_approx_dsic_bound,
    audit_bpic,
    audit_dsic,
    scenario_digest,
    witness_sort_key,
)
from tfm_lab import auditors
from tfm_lab.auditors import _EMPTY
from tfm_lab.mechanisms import _clearing_size

REFUSALS = (
    EnumerationBudgetError,
    ExcessivelyLowBaseFeeError,
    NoEligibleBlockError,
    UnsupportedInstanceError,
)
ALL = 10**6  # max_witnesses: every witness is emitted, so none is cut by order


@st.composite
def audit_cases(draw):
    """(audit kind, mechanism, scenarios, grid, strategy): memo_cases'
    exhaustive worlds for every kind, ordered_bpic_cases' for bpic too;
    a knapsack may list its candidates, some or all of the ids."""
    kind = draw(st.sampled_from(("dsic", "approx-dsic", "bpic")))
    if kind == "bpic" and draw(st.booleans()):
        mech, sc = draw(ordered_bpic_cases())
        scenarios, grid, strategy = [sc], GridSpec(1, 2), None
    else:
        mech, scenarios, grid, strategy, _ = draw(memo_cases(approx=kind == "approx-dsic"))
    listed = []
    for sc in scenarios:
        if isinstance(sc.blockset, KnapsackBlockset) and draw(st.booleans()):
            ids = draw(st.permutations(sc.ids()))
            ids = ids[: draw(st.integers(1, len(ids)))]
            sc = Scenario(sc.transactions, sc.bp_valuation, replace(sc.blockset, candidate_ids=ids))
        listed.append(sc)
    return kind, mech, listed, grid, strategy


def run(kind, mech, scenarios, grid, strategy):
    """The audit's report, or the type of its refusal."""
    try:
        if kind == "dsic":
            return audit_dsic(mech, strategy, scenarios, grid, max_witnesses=ALL)
        if kind == "approx-dsic":
            return audit_approx_dsic_bound(mech, scenarios, grid, max_witnesses=ALL)
        return audit_bpic(mech, scenarios, grid, max_witnesses=ALL)
    except REFUSALS as e:
        return type(e)


def mapped_world(sc, money, shift):
    """sc with every amount of money mapped by `money` and every id
    shifted by `shift`."""

    def block(b):
        return Block(tuple(t + shift for t in b.txs))

    txs = tuple(
        Transaction(t.tx_id + shift, t.size, money(t.valuation), money(t.bid))
        for t in sc.transactions
    )
    bp = sc.bp_valuation
    if isinstance(bp, PassiveValuation):
        bp = PassiveValuation(money(bp.constant))
    elif isinstance(bp, AdditiveValuation):
        bp = AdditiveValuation({t + shift: money(v) for t, v in bp.values.items()})
    elif isinstance(bp, SingleMindedValuation):
        bp = SingleMindedValuation(frozenset(map(block, bp.targets)), money(bp.value))
    else:
        bp = TableValuation({block(b): money(v) for b, v in bp.entries.items()})
    blockset = sc.blockset
    if isinstance(blockset, ExplicitBlockset):
        blockset = ExplicitBlockset(tuple(map(block, blockset.blocks)))
    elif blockset.candidate_ids is not None:
        blockset = replace(blockset, candidate_ids=tuple(t + shift for t in blockset.candidate_ids))
    return Scenario(txs, bp, blockset, sc.rng_seed)


def mapped_report(report, digests, money, shift):
    """The report expected of the mapped worlds: digests by `digests`,
    money by `money`, ids shifted by `shift`; a refusal maps to itself."""
    if isinstance(report, type):
        return report
    witnesses = [
        Witness(
            digests[w.scenario_digest],
            w.tx_id + shift,
            money(w.valuation),
            money(w.recommended_bid),
            money(w.deviation_bid),
            money(w.utility_gain),
            tuple((t + shift, money(b)) for t, b in w.cell_bids),
        )
        for w in report.witnesses
    ]
    checks = report.bound_checks and tuple(
        replace(
            b,
            scenario_digest=digests[b.scenario_digest],
            tx_id=b.tx_id + shift,
            nu=money(b.nu),
            max_regret=money(b.max_regret),
        )
        for b in report.bound_checks
    )
    conflicts = tuple(
        TieConflict(digests[t.scenario_digest], tuple(tuple(i + shift for i in b) for b in t.cycle))
        for t in report.tie_conflicts
    )
    return replace(
        report,
        max_regret=money(report.max_regret),
        witnesses=tuple(sorted(witnesses, key=witness_sort_key)),
        bound_checks=checks,
        tie_conflicts=conflicts,
    )


def assert_maps(case, mech, grid, strategy, money, shift):
    """Audit the case, then its worlds mapped by money and shift under
    the given mechanism, grid and strategy, and compare the reports."""
    kind, _, scenarios, _, _ = case
    worlds = [mapped_world(sc, money, shift) for sc in scenarios]
    digests = {scenario_digest(a): scenario_digest(b) for a, b in zip(scenarios, worlds)}
    want = mapped_report(run(*case), digests, money, shift)
    assert run(kind, mech, worlds, grid, strategy) == want


def assert_scales(case, c):
    """Money scaling by c maps the case's report exactly."""
    _, mech, _, grid, strategy = case

    def money(x):
        return x * c

    if mech.base_fee is not None:
        mech = replace(mech, base_fee=money(mech.base_fee))
    if isinstance(strategy, CappedAtReserve):
        strategy = CappedAtReserve(money(strategy.base_fee))
    elif isinstance(strategy, FixedOffset):
        strategy = FixedOffset(money(strategy.delta))
    grid = GridSpec(money(grid.step), money(grid.max_value))
    assert_maps(case, mech, grid, strategy, money, 0)


def assert_shifts(case, s):
    """An id shift by s maps the case's report exactly."""
    _, mech, _, grid, strategy = case
    assert_maps(case, mech, grid, strategy, lambda x: x, s)


# named cases of test_auditors that fail, tie or refuse, which drawn worlds
# reach rarely: (kind, mechanism, scenarios, grid, strategy)
EXAMPLES = [
    ("dsic", *PREFIX_CASE[:4]),
    ("dsic", *PATTERN_TIE_CASE[:4]),
    ("dsic", *GATED_UNSPLIT_CASE[:4]),
    ("dsic", *OFF_GRID_STRATEGY_CASE[:4]),  # refused: the strategy bid clears more
    ("approx-dsic", GATED_UNSPLIT_CASE[0], *GATED_UNSPLIT_CASE[1:3], None),
    ("approx-dsic", Mechanism.fpa(), *PREFIX_CASE[1:3], None),  # refused: not capped-bid
    ("bpic", BPIC_PLAIN_CROSS_TIE_CASE[0], [BPIC_PLAIN_CROSS_TIE_CASE[1]], GridSpec(1, 2), None),
    ("bpic", BPIC_GATED_CROSS_TIE_CASE[0], [BPIC_GATED_CROSS_TIE_CASE[1]], GridSpec(1, 2), None),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@given(audit_cases())
@with_examples
@settings(max_examples=150, deadline=None)
def test_scaling_money_scales_every_amount(case):
    assert_scales(case, 3)


@given(audit_cases())
@with_examples
@settings(max_examples=150, deadline=None)
def test_an_order_preserving_id_shift_shifts_only_ids(case):
    assert_shifts(case, 10)


class Rotating(auditors._ClassPasses):
    """A standard rule's size kernel that names rotating_rule's block
    (test_auditors), whose ties no fixed order explains: no shipped rule
    gives a tie conflict."""

    def pairs(self, key, lists):
        if self.read is not _clearing_size:
            return super().pairs(key, lists)
        clearing = frozenset(t for t, k in zip(self.ids, key) if k is not None)
        return [((None, rotating_rule(self.mech, clearing, self.scenario), ()), _EMPTY)]


@pytest.mark.parametrize("relation", [partial(assert_scales, c=3), partial(assert_shifts, s=10)])
def test_tie_conflicts_map(monkeypatch, relation):
    monkeypatch.setattr(auditors, "_ClassPasses", Rotating)
    case = ("bpic", Mechanism.tipless(1), [scenario([(1, 0, 0), (1, 0, 0)])], GridSpec(1, 4), None)
    assert run(*case).tie_conflicts
    relation(case)
