"""Acceptance suite: nine desk-scale checks, one test per criterion.

Each test prints a single pass or fail line under pytest -v.  Every
comparison is exact (ints and Fractions); there are no tolerances.
"""

import random
from fractions import Fraction

import pytest

from tfm_lab import (
    AdditiveValuation,
    Allocation,
    AlreadyTrivialError,
    Block,
    CappedAtReserve,
    Eligibility,
    GridSpec,
    KnapsackBlockset,
    Mechanism,
    PassiveValuation,
    Scenario,
    TableValuation,
    Transaction,
    Truthful,
    audit_approx_dsic_bound,
    audit_bpic,
    audit_dsic,
    audit_welfare_ratio,
    bps,
    bps_argmax,
    bps_argmax_additive_dp,
    burn,
    check_beta_commensurate,
    construct_welfare_gap,
    construct_zero_bid,
    construct_zero_bid_single_minded,
    is_base_fee_excessively_low,
    max_marginal_value,
    payment,
    random_scenario,
    replay_bpic_witness,
    replay_dsic_witness,
    scenario_digest,
    welfare,
)
from tfm_lab.cli import main as cli_main

CONSONANT = Allocation.CONSONANT
FREE = Eligibility.FREE


def scenario(rows, cap, bp=None):
    txs = tuple(Transaction(i, s, v, b) for i, (s, v, b) in enumerate(rows))
    return Scenario(txs, bp or PassiveValuation(0), KnapsackBlockset(cap))


def test_criterion_1_passive_bp_baselines_have_zero_regret():
    grid = GridSpec(1, 20)
    tipless_fixtures = [
        scenario([(2, 7, 7), (2, 9, 9)], cap=2),
        scenario([(1, 4, 4), (2, 10, 10), (1, 13, 13)], cap=3),
        scenario([(1, 6, 6), (2, 9, 9), (1, 12, 12), (2, 15, 15)], cap=6),
    ]
    eip_fixtures = [
        scenario([(1, 6, 6), (2, 9, 9)], cap=3),
        scenario([(1, 4, 4), (2, 10, 10), (1, 13, 13)], cap=4),
        scenario([(1, 6, 6), (2, 9, 9), (1, 12, 12), (2, 15, 15)], cap=6),
    ]
    for sc in eip_fixtures:
        top = {t: grid.max_value for t in sc.ids()}
        assert not is_base_fee_excessively_low(2, sc, top)

    cases = (
        (Mechanism.tipless(2), Truthful(), tipless_fixtures),
        (Mechanism.eip1559(2), CappedAtReserve(2), eip_fixtures),
    )
    for mech, strategy, fixtures in cases:
        dsic = audit_dsic(mech, strategy, fixtures, grid)
        assert dsic.verdict == "PASS" and dsic.max_regret == 0
        bpic = audit_bpic(mech, fixtures, grid)
        assert bpic.verdict == "PASS" and bpic.max_regret == 0


def test_criterion_2_active_bp_breaks_the_standard_rules():
    grid = GridSpec(1, 8)

    # a producer staked on tx 0 profits by including it below its reserve
    staked = scenario(
        [(1, 1, 1), (1, 8, 8)], cap=2, bp=AdditiveValuation({0: 5})
    )
    mech = Mechanism.eip1559(2)
    report = audit_bpic(mech, [staked], grid)
    assert report.verdict == "FAIL"
    named = [w for w in report.witnesses if w.tx_id == 0]
    assert named
    for w in named[:5]:
        assert replay_bpic_witness(mech, staked, w) == w.utility_gain > 0

    # surplus-chasing consonant rules make truthful users overpay, so the
    # profitable deviation is always an underbid
    underbid_cases = (
        (
            Mechanism.eip1559(2, FREE, CONSONANT),
            scenario([(1, 6, 6), (1, 4, 4)], cap=2),
        ),
        (
            Mechanism.tipless(2, FREE, CONSONANT),
            scenario(
                [(1, 6, 6), (1, 4, 4)], cap=2, bp=AdditiveValuation({0: 3, 1: 3})
            ),
        ),
    )
    for mech, sc in underbid_cases:
        report = audit_dsic(mech, Truthful(), [sc], grid)
        assert report.verdict == "FAIL"
        assert report.witnesses
        for w in report.witnesses[:10]:
            assert w.deviation_bid < w.recommended_bid
            assert replay_dsic_witness(mech, Truthful(), sc, w) == w.utility_gain > 0


def test_criterion_3_zero_bid_constructions_on_seeded_instances():
    charged_mechs = (
        Mechanism.fpa(Allocation.CONSONANT),
        Mechanism.eip1559(2, FREE, CONSONANT),
        Mechanism.tipless(2, FREE, CONSONANT),
    )
    # consonant recommendations only charge when inclusion is strictly
    # surplus-positive, which needs a producer with real stakes
    for mech in charged_mechs:
        built = 0
        for seed in range(400):
            doc = random_scenario(seed, bp="additive")
            sc = doc.scenario
            bids = sc.submitted_bids()
            try:
                w = construct_zero_bid(mech, sc, bids)
            except AlreadyTrivialError:
                continue
            ws = construct_zero_bid_single_minded(mech, sc, bids)
            for witness in (w, ws):
                assert witness.utility_gain == witness.original_payment > 0
                assert set(witness.original_block.txs) <= set(
                    witness.zero_bid_block.txs
                )
                modified = witness.modified_scenario
                assert bps_argmax(bids, modified, mech) == witness.original_block
                zero_block = witness.zero_bid_block
                zero_bids = dict(witness.zero_bids)
                assert payment(mech, zero_block, zero_bids, modified)[
                    witness.charged_tx
                ] == 0
            built += 1
            if built == 50:
                break
        assert built == 50

    for seed in range(50):
        sc = random_scenario(seed).scenario
        bids = sc.submitted_bids()
        with pytest.raises(AlreadyTrivialError):
            construct_zero_bid(Mechanism.trivial(), sc, bids)
        with pytest.raises(AlreadyTrivialError):
            construct_zero_bid_single_minded(Mechanism.trivial(), sc, bids)


def test_criterion_4_bounded_regret_of_reserve_capped_bidding():
    grid = GridSpec(2, 12)
    mech = Mechanism.tipless(2, FREE, CONSONANT)
    scenarios = []
    for seed in range(100):
        doc = random_scenario(
            seed, n_txs=2 + seed % 3, grid=grid, bp="additive"
        )
        scenarios.append(doc.scenario)

    report = audit_approx_dsic_bound(mech, scenarios, grid)
    assert report.verdict == "PASS"
    assert report.bound_checks

    oracle = {}
    for sc in scenarios:
        digest = scenario_digest(sc)
        for t in sc.ids():
            oracle[digest, t] = max_marginal_value(t, sc)

    seen = set()
    for check in report.bound_checks:
        assert check.overbid_violations == 0
        assert check.below_range_violations == 0
        assert check.within_bound
        assert check.max_regret <= check.nu
        assert check.nu == oracle[check.scenario_digest, check.tx_id]
        seen.add((check.scenario_digest, check.tx_id))
    assert seen == set(oracle)
    assert report.max_regret <= max(oracle.values())


def test_criterion_5_certified_welfare_gaps():
    for rho in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
        gap = construct_welfare_gap(Mechanism.trivial(), rho)
        assert gap.ratio <= rho
        assert gap.ratio == Fraction(
            welfare(gap.recommended, gap.scenario),
            welfare(gap.optimal, gap.scenario),
        )
        report = audit_welfare_ratio(Mechanism.trivial(), Truthful(), [gap.scenario])
        entry = report.entries[0]
        assert entry.recommended == gap.bp_favored_block
        assert entry.optimal == gap.user_favored_block
        assert entry.ratio == gap.ratio


def near_tight_fixture(beta):
    if beta == Fraction(1, 4):
        sc = scenario(
            [(1, 20, 20), (1, 0, 0)], cap=1, bp=TableValuation({Block((1,)): 5})
        )
    elif beta == 1:
        sc = scenario(
            [(1, 10, 10), (1, 0, 0)],
            cap=2,
            bp=TableValuation({Block((1,)): 11, Block((0, 1)): 10}),
        )
    else:
        sc = scenario(
            [(1, 10, 10), (1, 0, 0)],
            cap=2,
            bp=TableValuation({Block((1,)): 41, Block((0, 1)): 40}),
        )
    return sc


def test_criterion_6_beta_commensurate_welfare_floor():
    pool = [
        random_scenario(seed, n_txs=2 + seed % 3, bp="additive").scenario
        for seed in range(200)
    ]
    trivial = Mechanism.trivial()
    for beta in (Fraction(1, 4), Fraction(1), Fraction(4)):
        floor = beta / (beta + 1)
        commensurate = [
            sc for sc in pool if check_beta_commensurate(sc, beta)
        ]
        crafted = near_tight_fixture(beta)
        assert check_beta_commensurate(crafted, beta)
        commensurate.append(crafted)
        ratios = []
        for sc in commensurate:
            entry = audit_welfare_ratio(trivial, Truthful(), [sc]).entries[0]
            assert entry.ratio is not None
            assert entry.ratio >= floor
            ratios.append(entry.ratio)
        crafted_ratio = ratios[-1]
        assert crafted_ratio < floor + Fraction(1, 10)


def test_criterion_7_dp_route_matches_exhaustive_search():
    rng = random.Random(20260819)
    presets = (
        Mechanism.fpa(),
        Mechanism.eip1559(3),
        Mechanism.eip1559(3, Eligibility.BASE_FEE_GATED, CONSONANT),
        Mechanism.tipless(3),
        Mechanism.trivial(),
    )
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [
            (rng.randint(1, 4), rng.randint(0, 30), rng.randint(0, 30))
            for _ in range(n)
        ]
        total = sum(s for s, _, _ in rows)
        cap = rng.randint(max(s for s, _, _ in rows), total)
        if rng.random() < 0.5:
            bp = PassiveValuation(rng.randint(0, 10))
        else:
            stakes = {i: rng.randint(1, 12) for i in range(n) if rng.random() < 0.7}
            bp = AdditiveValuation(stakes)
        sc = scenario(rows, cap, bp=bp)
        bids = sc.submitted_bids()
        for mech in presets:
            assert bps_argmax_additive_dp(bids, sc, mech) == bps_argmax(
                bids, sc, mech
            )
            checked += 1
    assert checked == 1000


def test_criterion_8_accounting_identity_on_random_tuples():
    rng = random.Random(8128)
    mechs = (
        Mechanism.fpa(),
        Mechanism.fpa(Allocation.CONSONANT),
        Mechanism.eip1559(2),
        Mechanism.eip1559(2, FREE, CONSONANT),
        Mechanism.eip1559(2, Eligibility.BASE_FEE_GATED, CONSONANT),
        Mechanism.tipless(2),
        Mechanism.tipless(2, FREE, CONSONANT),
        Mechanism.trivial(),
    )
    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [
            (rng.randint(1, 3), rng.randint(0, 20), rng.randint(0, 20))
            for _ in range(n)
        ]
        total = sum(s for s, _, _ in rows)
        cap = rng.randint(1, total)
        if rng.random() < 0.5:
            bp = PassiveValuation(rng.randint(0, 8))
        else:
            bp = AdditiveValuation(
                {i: rng.randint(1, 9) for i in range(n) if rng.random() < 0.6}
            )
        sc = scenario(rows, cap, bp=bp)
        bids = {i: rng.randint(0, 20) for i in range(n)}

        members = []
        room = cap
        for i in rng.sample(range(n), n):
            if sc.tx(i).size <= room and rng.random() < 0.7:
                members.append(i)
                room -= sc.tx(i).size
        block = Block(tuple(sorted(members)))

        mech = mechs[rng.randrange(len(mechs))]
        pay = payment(mech, block, bids, sc)
        utilities = sum(sc.tx(t).valuation - pay[t] for t in block.txs)
        lhs = utilities + bps(block, bids, sc, mech) + burn(mech, block, bids, sc)
        assert lhs == welfare(block, sc)


def test_criterion_9_reports_are_byte_deterministic(tmp_path):
    src = tmp_path / "s.json"
    assert cli_main(
        ["gen", "--seed", "11", "--bp", "additive", "--all-fit", "--out", str(src)]
    ) == 0
    src_again = tmp_path / "s2.json"
    cli_main(
        ["gen", "--seed", "11", "--bp", "additive", "--all-fit", "--out", str(src_again)]
    )
    assert src.read_bytes() == src_again.read_bytes()

    def audit_bytes(kind, name):
        out = tmp_path / name
        code = cli_main(
            [
                "audit", kind, str(src),
                "--mech", "eip1559", "--base-fee", "2",
                "--grid-step", "1", "--grid-max", "6",
                "--out", str(out),
            ]
        )
        assert code in (0, 1)
        return out.read_bytes()

    for kind in ("bpic", "dsic"):
        assert audit_bytes(kind, f"{kind}-a.csv") == audit_bytes(kind, f"{kind}-b.csv")

    def construction_bytes(tag):
        out_dir = tmp_path / tag
        code = cli_main(
            [
                "counterexample", "zero-bid",
                "--scenario", str(src), "--mech", "fpa",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        return (
            (out_dir / "recorded_bids.json").read_bytes(),
            (out_dir / "zero_bid.json").read_bytes(),
        )

    assert construction_bytes("zb1") == construction_bytes("zb2")

    gap1, gap2 = tmp_path / "gap1.json", tmp_path / "gap2.json"
    for path in (gap1, gap2):
        assert cli_main(
            ["counterexample", "welfare-gap", "--rho", "1/10", "--out", str(path)]
        ) == 0
    assert gap1.read_bytes() == gap2.read_bytes()
