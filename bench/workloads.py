"""The three benchmark workloads: inputs, tasks, output digests and checks.

Every workload is a closed loop with one client: the runner starts a task
only after the previous one returned.  `setup` turns the workload seed into
inputs (and, for the sweeps, scenario files) and returns the fixed task list.
Each task runs the program, then `summarize` reduces its raw output to an
exit code and the exact text whose sha256 is compared against the recorded
reference.  After the timed rounds the task runs once more and `check`
re-verifies that output independently and returns its cell count.

Why these three, which modules each loads and which it bypasses, and which
per-layer figure should move which end-to-end figure: see NOTES.md.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable


@dataclass
class Task:
    task_id: str
    run: Callable[[], object]
    summarize: Callable[[object], tuple[int, str]]
    check: Callable[[object], tuple[int, list[str]]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- shared report checks ---------------------------------------------------


def _check_audit_report(lab, text, code, scenarios, replay):
    """Parse round trip, verdict against exit code, and exact replay of every
    emitted witness in the scenario it names.  Returns (cells_checked,
    problems)."""
    reports = lab.reports
    parsed = reports.parse_audit_report(text)
    problems = []
    rebuilt = lab.auditors.AuditReport(
        kind=parsed["kind"],
        verdict=parsed["verdict"],
        max_regret=parsed["max_regret"],
        witnesses=parsed["witnesses"],
        cells_checked=parsed["cells_checked"],
        bound_checks=parsed["bound_checks"],
        tie_conflicts=parsed["tie_conflicts"],
        mode=parsed["mode"],
        sampling_seed=parsed["sampling_seed"],
    )
    if reports.render_audit_report(rebuilt, wall_time_ms=parsed["wall_time_ms"]) != text:
        problems.append("report does not survive a parse/render round trip")
    if code != (0 if parsed["verdict"] == "PASS" else 1):
        problems.append(f"exit code {code} disagrees with verdict {parsed['verdict']}")
    by_digest = {lab.scenario_io.scenario_digest(s): s for s in scenarios}
    for w in parsed["witnesses"]:
        scenario = by_digest.get(w.scenario_digest)
        if scenario is None:
            problems.append(f"witness names unknown scenario {w.scenario_digest}")
            break
        gain = replay(scenario, w)
        if gain != w.utility_gain:
            problems.append(
                f"witness tx {w.tx_id} cell {w.cell_bids} replays gain {gain}, "
                f"report says {w.utility_gain}"
            )
            break
    return parsed["cells_checked"], problems


def _cli_task(lab, task_id, kind, paths, flags, out_path, replay):
    """One `tfm-lab audit KIND FILE... --out OUT` call through cli.main,
    in-process."""
    argv = ["audit", kind, *map(str, paths), *flags, "--out", str(out_path)]

    def run():
        code = lab.cli.main(argv)
        text = out_path.read_text() if code in (0, 1) else ""
        return code, text

    def check(raw):
        code, text = raw
        scenarios = [lab.scenario_io.load_scenario_file(p).scenario for p in paths]
        return _check_audit_report(lab, text, code, scenarios, replay)

    return Task(task_id, run, lambda raw: raw, check)


# -- dsic-sweep --------------------------------------------------------------

DSIC_GRID_MAX = 5
DSIC_PER_KIND = 9
# Feasible-block counts of the non-all-fit scenarios, cycled over the slots
# of each kind, so that every seed gets the same mix of working-set sizes.
DSIC_BLOCK_COUNTS = (8, 12, 15)
DSIC_KINDS = (
    # label, audit kind, mechanism flags, all_fit
    ("tipless-standard", "dsic", ("--mech", "tipless", "--base-fee", "2", "--allocation", "standard"), False),
    ("tipless-consonant", "dsic", ("--mech", "tipless", "--base-fee", "2", "--allocation", "consonant"), False),
    ("fpa-consonant", "dsic", ("--mech", "fpa", "--allocation", "consonant"), False),
    ("eip1559-standard-capped", "dsic", ("--mech", "eip1559", "--base-fee", "2", "--allocation", "standard", "--strategy", "capped"), True),
    ("approx-tipless-consonant", "approx-dsic", ("--mech", "tipless", "--base-fee", "2", "--allocation", "consonant"), False),
)


def _dsic_rules(m, label):
    """The mechanism and strategy each kind's flags select, for replay."""
    free = m.Eligibility.FREE
    if label == "tipless-standard":
        return m.Mechanism.tipless(2, free, m.Allocation.STANDARD), m.Truthful()
    if label == "tipless-consonant":
        return m.Mechanism.tipless(2, free, m.Allocation.CONSONANT), m.Truthful()
    if label == "fpa-consonant":
        return m.Mechanism.fpa(m.Allocation.CONSONANT), m.Truthful()
    if label == "eip1559-standard-capped":
        return m.Mechanism.eip1559(2, free, m.Allocation.STANDARD), m.CappedAtReserve(2)
    return m.Mechanism.tipless(2, free, m.Allocation.CONSONANT), m.CappedAtReserve(2)


def _dsic_scenario(lab, rng, grid, all_fit, blocks):
    """A seeded 4-tx additive scenario whose blockset has `blocks` blocks."""
    for _ in range(10_000):
        doc = lab.generator.random_scenario(
            rng.randrange(2**31), n_txs=4, grid=grid, bp="additive", all_fit=all_fit
        )
        if len(lab.solver.enumerate_blocks(doc.scenario)) == blocks:
            return doc
    raise RuntimeError(f"no 4-tx scenario with {blocks} feasible blocks found")


def setup_dsic(lab, seed, workdir: Path) -> list[Task]:
    rng = random.Random(f"dsic-sweep:{seed}")
    grid = lab.scenario_io.GridSpec(1, DSIC_GRID_MAX)
    tasks = []
    for label, kind, flags, all_fit in DSIC_KINDS:
        mech, strategy = _dsic_rules(lab.mechanisms, label)
        for slot in range(DSIC_PER_KIND):
            blocks = 16 if all_fit else DSIC_BLOCK_COUNTS[slot % len(DSIC_BLOCK_COUNTS)]
            doc = _dsic_scenario(lab, rng, grid, all_fit, blocks)
            task_id = f"{label}-{slot}"
            path = workdir / f"{task_id}.json"
            lab.scenario_io.write_scenario_file(path, doc)

            def replay(scenario, w, mech=mech, strategy=strategy):
                return lab.auditors.replay_dsic_witness(mech, strategy, scenario, w)

            tasks.append(
                _cli_task(lab, task_id, kind, [path], flags, workdir / f"{task_id}.csv", replay)
            )
    return tasks


# -- bpic-wide ---------------------------------------------------------------

BPIC_PER_PAIR = 3
BPIC_SHAPES = (
    # label, transactions, blockset, longest block, listed blocks, grid max
    ("perm5", 5, "permutations", 4, None, 2),  # 206 ordered blocks, 3^5 cells
    ("explicit5", 5, "explicit", 4, 100, 2),  # 100 of the 206 plus the empty block
    ("explicit6", 6, "explicit", 3, 90, 2),  # 90 of 156 plus the empty block, 3^6 cells
)
BPIC_MECHS = (
    ("fpa-revenue-max", ("--mech", "fpa", "--allocation", "revenue_max")),
    ("fpa-consonant", ("--mech", "fpa", "--allocation", "consonant")),
    ("tipless-consonant-gated", ("--mech", "tipless", "--base-fee", "1", "--allocation", "consonant", "--eligibility", "gated")),
)


def _bpic_rules(m, label):
    if label == "fpa-revenue-max":
        return m.Mechanism.fpa(m.Allocation.REVENUE_MAX)
    if label == "fpa-consonant":
        return m.Mechanism.fpa(m.Allocation.CONSONANT)
    return m.Mechanism.tipless(1, m.Eligibility.BASE_FEE_GATED, m.Allocation.CONSONANT)


def _bpic_scenario(lab, rng, n, blockset_kind, longest, listed, grid_max, table):
    """n transactions, an ordered blockset, and a table or single-minded
    producer, all drawn from rng with core constructors."""
    core = lab.core
    ordered = [()] + [p for k in range(1, longest + 1) for p in permutations(range(n), k)]
    if blockset_kind == "permutations":
        sizes = [1] * n
        blockset = core.KnapsackBlockset(longest, None, True)
        blocks = ordered
    else:
        sizes = [rng.randint(1, 3) for _ in range(n)]
        blocks = [()] + sorted(rng.sample(ordered[1:], listed))
        blockset = core.ExplicitBlockset(tuple(core.Block(b) for b in blocks))
    txs = []
    for tx_id, size in enumerate(sizes):
        value = rng.randint(1, grid_max)
        txs.append(core.Transaction(tx_id, size, value, value))
    multi = [b for b in blocks if len(b) >= 2]
    if table:
        chosen = rng.sample(blocks, len(blocks) // 3)
        valuation = core.TableValuation({core.Block(b): rng.randint(0, 2 * grid_max) for b in chosen})
    else:
        targets = frozenset(core.Block(b) for b in rng.sample(multi, 3))
        valuation = core.SingleMindedValuation(targets, rng.randint(1, 3 * grid_max))
    return core.Scenario(tuple(txs), valuation, blockset)


def setup_bpic(lab, seed, workdir: Path) -> list[Task]:
    """Each task audits two scenarios of one shape, a table producer and a
    single-minded one, so that every task of a (shape, mechanism) pair does
    the same mix of work."""
    rng = random.Random(f"bpic-wide:{seed}")
    sio = lab.scenario_io
    tasks = []
    for shape, n, blockset_kind, longest, listed, grid_max in BPIC_SHAPES:
        grid = sio.GridSpec(1, grid_max)
        for label, flags in BPIC_MECHS:
            mech = _bpic_rules(lab.mechanisms, label)
            for slot in range(BPIC_PER_PAIR):
                task_id = f"{shape}-{label}-{slot}"
                paths = []
                for producer in ("table", "single-minded"):
                    scenario = _bpic_scenario(
                        lab, rng, n, blockset_kind, longest, listed, grid_max, producer == "table"
                    )
                    path = workdir / f"{task_id}-{producer}.json"
                    sio.write_scenario_file(path, sio.ScenarioDoc(scenario, None, grid, None))
                    paths.append(path)

                def replay(scenario, w, mech=mech):
                    return lab.auditors.replay_bpic_witness(mech, scenario, w)

                tasks.append(
                    _cli_task(lab, task_id, "bpic", paths, flags, workdir / f"{task_id}.csv", replay)
                )
    return tasks


# -- construct-cold ------------------------------------------------------------

CONSTRUCT_SCENARIOS = 1000
CONSTRUCT_TX_COUNTS = (2, 3, 4, 5, 6)  # cycled over the scenarios
WELFARE_GAP_RHOS = ("1/2", "1/10", "1/100", "1/1000", "1/1000000")
BETA = Fraction(1, 2)


def _valuation_key(valuation):
    if hasattr(valuation, "values"):
        return ("additive", tuple(sorted(valuation.values.items())))
    return ("single_minded", tuple(sorted(b.txs for b in valuation.targets)), valuation.value)


def _construct_task(lab, task_id, gen_seed, n_tx, charged, trivial, truthful):
    # Functions are looked up at call time, so that a traced round calls the
    # tracer's wrappers and an untraced one the originals.
    sio, cx, aud = lab.scenario_io, lab.counterexamples, lab.auditors

    def run():
        doc = lab.generator.random_scenario(gen_seed, n_txs=n_tx, bp="additive")
        text = sio.serialize_scenario(doc)
        back = sio.parse_scenario_text(text)
        if sio.serialize_scenario(back) != text:
            raise ValueError("scenario text does not survive a parse/serialize round trip")
        scenario = back.scenario
        digest = sio.scenario_digest(scenario)
        bids = scenario.submitted_bids()
        built = []
        for mech in charged:
            for build in (cx.construct_zero_bid, cx.construct_zero_bid_single_minded):
                try:
                    built.append((mech, build(mech, scenario, bids)))
                except cx.AlreadyTrivialError:
                    built.append((mech, None))
        welfare = aud.audit_welfare_ratio(trivial, truthful, [scenario])
        welfare_text = lab.reports.render_welfare_report(welfare)
        beta = aud.check_beta_commensurate(scenario, BETA)
        return text, digest, scenario, built, welfare, welfare_text, beta

    def summarize(raw):
        text, digest, scenario, built, welfare, welfare_text, beta = raw
        outcomes = []
        for mech, w in built:
            if w is None:
                outcomes.append((mech.preset, "already-trivial"))
            else:
                outcomes.append((
                    mech.preset, w.variant, w.charged_tx, w.original_payment,
                    w.original_block.txs, w.zero_bid_block.txs, w.utility_gain,
                    w.burn_at_zero, _valuation_key(w.modified_scenario.bp_valuation),
                ))
        return 0, repr((sha256(text), digest, tuple(outcomes), welfare_text, beta))

    def check(raw):
        text, digest, scenario, built, welfare, welfare_text, beta = raw
        problems = []
        for mech, w in built:
            if w is None:
                continue
            t = w.charged_tx
            bids = dict(w.bids)
            claim = aud.Witness(
                scenario_digest=digest,
                tx_id=t,
                valuation=scenario.tx(t).valuation,
                recommended_bid=bids[t],
                deviation_bid=0,
                utility_gain=w.utility_gain,
                cell_bids=tuple((k, b) for k, b in w.bids if k != t),
            )
            gain = aud.replay_dsic_witness(mech, truthful, w.modified_scenario, claim)
            if not gain == w.utility_gain == w.original_payment > 0:
                problems.append(
                    f"{mech.preset} {w.variant} zero bid replays gain {gain}, certificate "
                    f"says {w.utility_gain} for a payment of {w.original_payment}"
                )
        parsed = lab.reports.parse_welfare_report(welfare_text)
        rebuilt = aud.WelfareReport(
            tuple(
                aud.WelfareEntry(
                    e["scenario_digest"],
                    lab.core.Block(e["recommended_block"]),
                    e["recommended_welfare"],
                    lab.core.Block(e["optimal_block"]),
                    e["optimal_welfare"],
                    e["ratio"],
                    e["degenerate"],
                )
                for e in parsed["entries"]
            ),
            parsed["min_ratio"],
        )
        if lab.reports.render_welfare_report(rebuilt) != welfare_text:
            problems.append("welfare report does not survive a parse/render round trip")
        cells = len(built) + len(welfare.entries) + 1
        return cells, problems

    return Task(task_id, run, summarize, check)


def _welfare_gap_task(lab, task_id, rho, trivial):
    def run():
        return lab.counterexamples.construct_welfare_gap(trivial, Fraction(rho))

    def summarize(gap):
        return 0, repr((
            gap.ratio, gap.recommended.txs, gap.optimal.txs, gap.probes,
            tuple((tx.tx_id, tx.valuation, tx.bid) for tx in gap.scenario.transactions),
        ))

    def check(gap):
        core, aud = lab.core, lab.auditors
        problems = []
        scenario = gap.scenario
        rec = lab.mechanisms.recommended_block(trivial, scenario.submitted_bids(), scenario)
        opt = aud.welfare_argmax(scenario)
        ratio = Fraction(core.welfare(rec, scenario), core.welfare(opt, scenario))
        if rec != gap.recommended or opt != gap.optimal:
            problems.append("welfare-gap blocks do not replay")
        if ratio != gap.ratio or ratio > Fraction(rho):
            problems.append(f"welfare-gap ratio replays as {ratio}, certificate says {gap.ratio}")
        return 1, problems

    return Task(task_id, run, summarize, check)


def setup_construct(lab, seed, workdir: Path) -> list[Task]:
    rng = random.Random(f"construct-cold:{seed}")
    m = lab.mechanisms
    charged = (
        m.Mechanism.fpa(m.Allocation.CONSONANT),
        m.Mechanism.eip1559(2, m.Eligibility.FREE, m.Allocation.CONSONANT),
        m.Mechanism.tipless(2, m.Eligibility.FREE, m.Allocation.CONSONANT),
    )
    trivial = m.Mechanism.trivial()
    truthful = m.Truthful()
    tasks = []
    for i in range(CONSTRUCT_SCENARIOS):
        n_tx = CONSTRUCT_TX_COUNTS[i % len(CONSTRUCT_TX_COUNTS)]
        tasks.append(
            _construct_task(
                lab, f"scenario-{i}", rng.randrange(2**31), n_tx, charged, trivial, truthful
            )
        )
    for rho in WELFARE_GAP_RHOS:
        tasks.append(_welfare_gap_task(lab, f"welfare-gap-{rho}", rho, trivial))
    return tasks


WORKLOADS = {
    "dsic-sweep": (setup_dsic, len(DSIC_KINDS) * DSIC_PER_KIND),
    "bpic-wide": (setup_bpic, len(BPIC_SHAPES) * len(BPIC_MECHS) * BPIC_PER_PAIR),
    "construct-cold": (setup_construct, CONSTRUCT_SCENARIOS + len(WELFARE_GAP_RHOS)),
}
