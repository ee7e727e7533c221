"""Command line front end.

Exit codes: 0 when the requested audit passes or the artifact is produced,
1 when an audit fails with witnesses or a construction legitimately cannot
be built on the input, 2 for usage and file errors, 3 when the enumeration
budget is exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache
from heapq import merge
from itertools import islice
from pathlib import Path

from .auditors import (
    AuditReport,
    ProfileSpaceError,
    WelfareReport,
    audit_approx_dsic_bound,
    audit_bpic,
    audit_dsic,
    audit_welfare_ratio,
    witness_sort_key,
)
from .counterexamples import (
    AlreadyTrivialError,
    ConstructionReplayError,
    IncentiveViolationError,
    construct_welfare_gap,
    construct_zero_bid,
    construct_zero_bid_single_minded,
    eip1559_underbid_demo,
)
from .generator import MAX_RANDOM_TXS, random_scenario
from .mechanisms import (
    RULES,
    Allocation,
    CappedAtReserve,
    Eligibility,
    ExcessivelyLowBaseFeeError,
    FixedOffset,
    Mechanism,
    Truthful,
    UnsupportedInstanceError,
)
from .core import welfare
from .reports import render_audit_report, render_welfare_report
from .scenario_io import (
    GridSpec,
    ScenarioDoc,
    ScenarioFormatError,
    load_scenario_file,
    serialize_scenario,
    write_scenario_file,
)
from .solver import BUDGET_ENV_VAR, EnumerationBudgetError, resolve_budget

PASS_EXIT = 0
FAIL_EXIT = 1
USAGE_EXIT = 2
BUDGET_EXIT = 3


class CliUsageError(Exception):
    """Bad flag combination or unusable input file."""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    never changes it, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="tfm-lab",
        description="Audit fee mechanisms and build counterexample worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mech_flags(p):
        p.add_argument("--mech", choices=tuple(RULES))
        p.add_argument("--base-fee", type=int)
        p.add_argument("--allocation", choices=tuple(a.value for a in Allocation))
        p.add_argument("--eligibility", choices=("free", "gated"))

    def add_common(p):
        p.add_argument("--budget", type=int, help=f"enumeration cap, also {BUDGET_ENV_VAR}")
        p.add_argument("--out", type=Path)

    audit = sub.add_parser("audit", help="sweep bid grids for incentive failures")
    audit.add_argument("kind", choices=("dsic", "bpic", "approx-dsic", "welfare"))
    audit.add_argument("files", nargs="+", type=Path)
    add_mech_flags(audit)
    add_common(audit)
    audit.add_argument("--grid-step", type=int)
    audit.add_argument("--grid-max", type=int)
    audit.add_argument("--samples", type=int, help="sample this many bid profiles per user instead of sweeping all")
    # None marks an unset flag, so that a kind can refuse one it ignores
    audit.add_argument("--seed", type=int, help="sampling seed for --samples (default 0)")
    audit.add_argument("--strategy", help="truthful (default), capped, or offset:D")
    audit.add_argument("--max-witnesses", type=int, help="most witnesses to report (default 1000)")
    audit.add_argument(
        "--timings", action="store_true", default=None, help="record wall time in the report"
    )

    welfare = sub.add_parser("welfare", help="compare recommended and optimal welfare")
    welfare.add_argument("files", nargs="+", type=Path)
    add_mech_flags(welfare)
    add_common(welfare)
    welfare.add_argument("--strategy", default="truthful")

    counter = sub.add_parser("counterexample", help="construct a failure world")
    counter.add_argument(
        "kind", choices=("zero-bid", "zero-bid-sm", "welfare-gap", "eip1559-demo")
    )
    counter.add_argument("--scenario", type=Path)
    add_mech_flags(counter)
    add_common(counter)
    counter.add_argument("--rho", help="target welfare fraction, e.g. 1/100")
    counter.add_argument("--strategy", help="truthful (default), capped, or offset:D")

    gen = sub.add_parser("gen", help="write a seeded random scenario file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n-tx", type=int, default=3, help=f"1 to {MAX_RANDOM_TXS}")
    gen.add_argument("--bp", choices=("passive", "additive"), default="passive")
    gen.add_argument("--all-fit", action="store_true")
    gen.add_argument("--grid-step", type=int, default=1)
    gen.add_argument("--grid-max", type=int, default=20)
    add_mech_flags(gen)
    gen.add_argument("--out", type=Path)

    return parser


def _mech_from_flags(args) -> Mechanism | None:
    if args.mech is None:
        for flag in _MECH_FLAGS[1:]:
            if getattr(args, flag, None) is not None:
                raise CliUsageError(f"--{flag.replace('_', '-')} requires --mech")
        return None
    eligibility = Eligibility.BASE_FEE_GATED if args.eligibility == "gated" else Eligibility.FREE
    allocation = None if args.allocation is None else Allocation(args.allocation)
    try:
        return Mechanism(args.mech, args.base_fee, eligibility, allocation)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def _strategy_from_spec(spec: str | None, mech: Mechanism):
    if spec is None or spec == "truthful":
        return Truthful()
    if spec == "capped":
        if mech.base_fee is None:
            raise CliUsageError(
                "--strategy capped needs a mechanism with a base fee"
            )
        return CappedAtReserve(mech.base_fee)
    if spec.startswith("offset:"):
        try:
            delta = int(spec.removeprefix("offset:"))
        except ValueError:
            raise CliUsageError(f"bad offset in --strategy {spec!r}") from None
        return FixedOffset(delta)
    raise CliUsageError(
        f"unknown strategy {spec!r}; use truthful, capped, or offset:D"
    )


def _grid_from_flags(args, doc: ScenarioDoc) -> GridSpec:
    step = args.grid_step
    top = args.grid_max
    base = doc.grid or GridSpec(1, 20)
    return GridSpec(step if step is not None else base.step, top if top is not None else base.max_value)


def _load_docs(paths) -> list[tuple[Path, ScenarioDoc]]:
    return [(path, load_scenario_file(path)) for path in paths]


def _effective_mech(args, path: Path, doc: ScenarioDoc) -> Mechanism:
    override = _mech_from_flags(args)
    if override is not None:
        return override
    if doc.mechanism is None:
        raise CliUsageError(
            f"{path}: scenario file names no mechanism; pass --mech"
        )
    return doc.mechanism


def _merge_audit_reports(parts: list[AuditReport], max_witnesses: int) -> AuditReport:
    """One report of the per-file parts, keeping the first max_witnesses of
    their witnesses in witness_sort_key order.  Each part's witnesses
    arrive in that order, so they are merged lazily (heapq.merge) and cut
    at max_witnesses."""
    first = parts[0]
    witnesses = islice(merge(*(p.witnesses for p in parts), key=witness_sort_key), max_witnesses)
    bound_checks = None
    if first.bound_checks is not None:
        bound_checks = tuple(c for p in parts for c in (p.bound_checks or ()))
    tie_conflicts = tuple(t for p in parts for t in p.tie_conflicts)
    verdict = "FAIL" if any(p.verdict == "FAIL" for p in parts) else "PASS"
    return AuditReport(
        kind=first.kind,
        verdict=verdict,
        max_regret=max(p.max_regret for p in parts),
        witnesses=tuple(witnesses),
        cells_checked=sum(p.cells_checked for p in parts),
        bound_checks=bound_checks,
        tie_conflicts=tie_conflicts,
        mode=first.mode,
        sampling_seed=first.sampling_seed,
    )


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


_MECH_FLAGS = ("mech", "base_fee", "allocation", "eligibility")
# the flags each audit and counterexample kind ignores; they default to
# None, so a set one is refused instead of silently dropped
_IGNORED_FLAGS = {
    "bpic": ("samples", "seed", "strategy"),
    "approx-dsic": ("strategy",),
    "welfare": ("samples", "seed", "grid_step", "grid_max", "max_witnesses", "timings"),
    "zero-bid": ("rho", "strategy"),
    "zero-bid-sm": ("rho", "strategy"),
    "welfare-gap": ("scenario",),
    "eip1559-demo": ("scenario", *_MECH_FLAGS, "budget", "rho", "strategy"),
}


def _refuse_ignored_flags(args):
    for flag in _IGNORED_FLAGS.get(args.kind, ()):
        if getattr(args, flag) is not None:
            flag = "--" + flag.replace("_", "-")
            raise CliUsageError(f"{flag} does not apply to {args.command} {args.kind}")


def _cmd_audit(args) -> int:
    _refuse_ignored_flags(args)
    if args.seed is not None and args.samples is None:
        raise CliUsageError("--seed applies only with --samples")
    if args.kind == "welfare":
        return _cmd_welfare(args)
    if args.samples is not None and args.samples < 1:
        raise CliUsageError(f"--samples must be >= 1, got {args.samples}")
    seed = 0 if args.seed is None else args.seed
    max_witnesses = 1000 if args.max_witnesses is None else args.max_witnesses
    if max_witnesses < 0:
        raise CliUsageError(f"--max-witnesses must be >= 0, got {max_witnesses}")
    docs = _load_docs(args.files)
    started = time.monotonic()
    parts = []
    for path, doc in docs:
        mech = _effective_mech(args, path, doc)
        grid = _grid_from_flags(args, doc)
        scenarios = [doc.scenario]
        if args.kind == "dsic":
            strategy = _strategy_from_spec(args.strategy, mech)
            report = audit_dsic(
                mech,
                strategy,
                scenarios,
                grid,
                budget=args.budget,
                profile_samples=args.samples,
                sampling_seed=seed,
                max_witnesses=max_witnesses,
            )
        elif args.kind == "bpic":
            report = audit_bpic(
                mech,
                scenarios,
                grid,
                budget=args.budget,
                max_witnesses=max_witnesses,
            )
        else:
            report = audit_approx_dsic_bound(
                mech,
                scenarios,
                grid,
                budget=args.budget,
                profile_samples=args.samples,
                sampling_seed=seed,
                max_witnesses=max_witnesses,
            )
        parts.append(report)
    merged = _merge_audit_reports(parts, max_witnesses)
    wall = int((time.monotonic() - started) * 1000) if args.timings else 0
    _emit(render_audit_report(merged, wall_time_ms=wall), args.out)
    return PASS_EXIT if merged.verdict == "PASS" else FAIL_EXIT


def _cmd_welfare(args) -> int:
    docs = _load_docs(args.files)
    entries = []
    ratios = []
    for path, doc in docs:
        mech = _effective_mech(args, path, doc)
        strategy = _strategy_from_spec(args.strategy, mech)
        report = audit_welfare_ratio(
            mech, strategy, [doc.scenario], budget=args.budget
        )
        entries.extend(report.entries)
        if report.min_ratio is not None:
            ratios.append(report.min_ratio)
    merged = WelfareReport(tuple(entries), min(ratios) if ratios else None)
    _emit(render_welfare_report(merged), args.out)
    return PASS_EXIT


def _doc_with_bids(doc: ScenarioDoc, scenario, bids, mech) -> ScenarioDoc:
    txs = tuple(
        replace(tx, bid=bids[tx.tx_id]) for tx in scenario.transactions
    )
    return ScenarioDoc(replace(scenario, transactions=txs), mech, doc.grid, None)


def _cmd_counterexample(args) -> int:
    _refuse_ignored_flags(args)
    if args.kind == "eip1559-demo":
        demo = eip1559_underbid_demo()
        text = demo.narrative() + "\n"
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            names = ("passive.json", "staked.json", "knife_edge.json")
            for world, name in zip(demo.worlds, names):
                (args.out / name).write_text(
                    serialize_scenario(
                        ScenarioDoc(world.scenario, world.mech, None, None)
                    )
                )
            (args.out / "baseline.json").write_text(
                serialize_scenario(
                    ScenarioDoc(demo.baseline.scenario, demo.baseline.mech, None, None)
                )
            )
            text += f"\nwrote 4 scenario files under {args.out}\n"
        sys.stdout.write(text)
        return PASS_EXIT

    if args.kind == "welfare-gap":
        if args.rho is None:
            raise CliUsageError("counterexample welfare-gap requires --rho")
        mech = _mech_from_flags(args) or Mechanism.trivial()
        strategy = _strategy_from_spec(args.strategy, mech)
        try:
            rho = Fraction(args.rho)
        except (ValueError, ZeroDivisionError):
            raise CliUsageError(f"--rho must be a fraction, got {args.rho!r}") from None
        if not 0 < rho <= 1:
            raise CliUsageError(f"--rho must lie in (0, 1], got {rho}")
        gap = construct_welfare_gap(mech, rho, strategy=strategy, budget=args.budget)
        w_rec = welfare(gap.recommended, gap.scenario)
        w_opt = welfare(gap.optimal, gap.scenario)
        lines = [
            f"target fraction rho = {gap.rho}",
            f"optimal block {list(gap.optimal.txs)} has welfare {w_opt}",
            f"recommended block {list(gap.recommended.txs)} has welfare {w_rec}",
            f"probes (value of the ignored transaction, chosen block): "
            + ", ".join(f"({v}, {list(b)})" for v, b in gap.probes),
            f"certified welfare ratio {gap.ratio} <= {gap.rho}",
        ]
        if args.out is not None:
            write_scenario_file(args.out, ScenarioDoc(gap.scenario, gap.mech, None, None))
            lines.append(f"wrote {args.out}")
        sys.stdout.write("\n".join(lines) + "\n")
        return PASS_EXIT

    if args.scenario is None:
        raise CliUsageError(f"counterexample {args.kind} requires --scenario")
    doc = load_scenario_file(args.scenario)
    mech = _effective_mech(args, args.scenario, doc)
    bids = doc.scenario.submitted_bids()
    build = construct_zero_bid if args.kind == "zero-bid" else construct_zero_bid_single_minded
    witness = build(mech, doc.scenario, bids, budget=args.budget)
    lines = [
        f"recommended block under the recorded bids: {list(witness.original_block.txs)}",
        f"transaction {witness.charged_tx} pays {witness.original_payment}",
        f"modified producer valuation ({witness.variant}) keeps every "
        f"surplus-maximizing block a superset of {list(witness.original_block.txs)}",
        f"bidding 0 instead, transaction {witness.charged_tx} stays included "
        f"in {list(witness.zero_bid_block.txs)} and pays 0",
        f"utility gain from the zero bid: {witness.utility_gain}",
    ]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        recorded = _doc_with_bids(doc, witness.modified_scenario, dict(witness.bids), mech)
        deviated = _doc_with_bids(doc, witness.modified_scenario, dict(witness.zero_bids), mech)
        (args.out / "recorded_bids.json").write_text(serialize_scenario(recorded))
        (args.out / "zero_bid.json").write_text(serialize_scenario(deviated))
        lines.append(f"wrote recorded_bids.json and zero_bid.json under {args.out}")
    sys.stdout.write("\n".join(lines) + "\n")
    return PASS_EXIT


def _cmd_gen(args) -> int:
    try:
        doc = random_scenario(
            args.seed,
            n_txs=args.n_tx,
            grid=GridSpec(args.grid_step, args.grid_max),
            bp=args.bp,
            all_fit=args.all_fit,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    mech = _mech_from_flags(args)
    if mech is not None:
        doc = ScenarioDoc(doc.scenario, mech, doc.grid, doc.generator)
    _emit(serialize_scenario(doc), args.out)
    return PASS_EXIT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "audit": _cmd_audit,
        "welfare": _cmd_welfare,
        "counterexample": _cmd_counterexample,
        "gen": _cmd_gen,
    }
    try:
        if hasattr(args, "budget"):  # every command but gen enumerates blocks
            try:
                resolve_budget(args.budget)
            except ValueError as exc:
                raise CliUsageError(str(exc)) from None
        return handlers[args.command](args)
    except (CliUsageError, ScenarioFormatError, OSError, ProfileSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except (
        AlreadyTrivialError,
        ConstructionReplayError,
        IncentiveViolationError,
        ExcessivelyLowBaseFeeError,
        UnsupportedInstanceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
