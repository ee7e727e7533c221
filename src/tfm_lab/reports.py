"""Deterministic CSV rendering for audit and welfare reports.

The renderers emit byte-identical output for equal inputs: rows arrive
pre-sorted from the auditors (so reports merge without a sort), wall time
is zero unless the caller measured one, and no timestamps or machine
details are included.  Parsers reconstruct enough to replay witnesses.
"""

from __future__ import annotations

import csv
import functools
import io
from fractions import Fraction
from itertools import filterfalse, groupby
from operator import itemgetter

from .auditors import (
    AuditReport,
    BoundCheck,
    TieConflict,
    WelfareReport,
    Witness,
)


class ReportFormatError(ValueError):
    """The text is not a report produced by this module."""


WITNESS_HEADER = (
    "scenario_digest",
    "tx_id",
    "valuation",
    "recommended_bid",
    "deviation_bid",
    "utility_gain",
    "cell_bids",
)
SUMMARY_HEADER = ("verdict", "max_regret", "cells_checked", "wall_time_ms")
BOUND_HEADER = (
    "scenario_digest",
    "tx_id",
    "nu",
    "max_regret",
    "within_bound",
    "overbid_violations",
    "below_range_violations",
)
TIE_HEADER = ("scenario_digest", "cycle")
WELFARE_HEADER = (
    "scenario_digest",
    "recommended_block",
    "recommended_welfare",
    "optimal_block",
    "optimal_welfare",
    "ratio",
    "degenerate",
)


def cell_bids_to_str(cells) -> str:
    return ";".join(f"{t}:{b}" for t, b in cells)


def cell_bids_from_str(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        tx, _, bid = part.partition(":")
        out.append((int(tx), int(bid)))
    return tuple(out)


def block_to_str(ids) -> str:
    return ";".join(str(t) for t in ids)


def block_from_str(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split(";"))


def _cycle_to_str(cycle) -> str:
    return "|".join(block_to_str(b) for b in cycle)


def _cycle_from_str(text: str) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    return tuple(block_from_str(part) for part in text.split("|"))


def _csv_line(fields) -> str:
    """The fields as the report's csv.writer renders them, less the "\n"."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()[:-1]


_HEAD = itemgetter(0, 1, 2, 3, 4, 5)  # a witness's first six fields
_CELL = itemgetter(6)  # and its cell


def render_audit_report(report: AuditReport, *, wall_time_ms: int = 0) -> str:
    """The report as CSV text, every byte as csv.writer writes it.

    Python steps run once per run of witnesses sharing a head, written
    through the writer once, and once per distinct cell, whose text is
    made once; each witness line is then its head plus its cell's text,
    joined in one C-level pass.  A batch of new cell texts that holds a
    character the writer may quote goes through the writer per cell."""
    buf = io.StringIO()
    seed = "-" if report.sampling_seed is None else str(report.sampling_seed)
    buf.write(
        f"# tfm-lab audit kind={report.kind} mode={report.mode} "
        f"sampling_seed={seed}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WITNESS_HEADER)
    cell_text = {}  # the witnesses of one profile share its cell's text
    # consecutive witnesses of one row share its first six fields, the head
    for fields, group in groupby(report.witnesses, _HEAD):
        head = _csv_line(fields + ("",))
        cells = list(map(_CELL, group))
        missing = list(filterfalse(cell_text.__contains__, cells))
        texts = list(map(cell_bids_to_str, missing))
        if any(map("".join(texts).__contains__, ',"\r\n')):  # what csv.writer may quote
            texts = [_csv_line(("", text))[1:] for text in texts]
        cell_text.update(zip(missing, texts))
        buf.write(head + ("\n" + head).join(map(cell_text.__getitem__, cells)) + "\n")
    if report.bound_checks is not None:
        buf.write("\n# bound_checks\n")
        writer.writerow(BOUND_HEADER)
        for c in report.bound_checks:
            writer.writerow(
                (
                    c.scenario_digest,
                    c.tx_id,
                    c.nu,
                    c.max_regret,
                    "true" if c.within_bound else "false",
                    c.overbid_violations,
                    c.below_range_violations,
                )
            )
    if report.tie_conflicts:
        buf.write("\n# tie_conflicts\n")
        writer.writerow(TIE_HEADER)
        for t in report.tie_conflicts:
            writer.writerow((t.scenario_digest, _cycle_to_str(t.cycle)))
    buf.write("\n")
    writer.writerow(SUMMARY_HEADER)
    writer.writerow((report.verdict, report.max_regret, report.cells_checked, wall_time_ms))
    return buf.getvalue()


def render_welfare_report(report: WelfareReport) -> str:
    buf = io.StringIO()
    buf.write("# tfm-lab welfare\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WELFARE_HEADER)
    for e in report.entries:
        writer.writerow(
            (
                e.scenario_digest,
                block_to_str(e.recommended.txs),
                e.welfare_recommended,
                block_to_str(e.optimal.txs),
                e.welfare_optimal,
                "-" if e.ratio is None else str(e.ratio),
                "true" if e.degenerate else "false",
            )
        )
    buf.write("\nmin_ratio\n")
    buf.write("-\n" if report.min_ratio is None else f"{report.min_ratio}\n")
    return buf.getvalue()


def _rows(section_text: str, header) -> list[list[str]]:
    reader = csv.reader(io.StringIO(section_text))
    rows = [row for row in reader if row]
    if not rows or tuple(rows[0]) != header:
        raise ReportFormatError(
            f"expected a section headed {','.join(header)}"
        )
    return rows[1:]


def _refusing_malformed(parse):
    """The parser, raising every refusal of its text as ReportFormatError:
    a row or banner of the wrong shape, a field that does not convert, or a
    bare carriage return in an unquoted field would otherwise surface as a
    bare IndexError, ValueError, ZeroDivisionError or csv.Error."""

    @functools.wraps(parse)
    def wrapper(text):
        try:
            return parse(text)
        except ReportFormatError:
            raise
        except (IndexError, ValueError, ZeroDivisionError, csv.Error) as exc:
            raise ReportFormatError(f"malformed report: {exc}") from None

    return wrapper


@_refusing_malformed
def parse_audit_report(text: str) -> dict:
    """Inverse of render_audit_report, returning a plain dict.

    Keys: kind, mode, sampling_seed, witnesses, bound_checks, tie_conflicts,
    verdict, max_regret, cells_checked, wall_time_ms.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tfm-lab audit "):
        raise ReportFormatError("missing audit report banner")
    meta = dict(
        item.split("=", 1) for item in lines[0].removeprefix("# ").split()[2:]
    )
    blocks = text.split("\n\n")
    witness_text = blocks[0].split("\n", 1)[1]
    witnesses = tuple(
        Witness(
            scenario_digest=r[0],
            tx_id=int(r[1]),
            valuation=int(r[2]),
            recommended_bid=int(r[3]),
            deviation_bid=int(r[4]),
            utility_gain=int(r[5]),
            cell_bids=cell_bids_from_str(r[6]),
        )
        for r in _rows(witness_text, WITNESS_HEADER)
    )
    bound_checks = None
    tie_conflicts = ()
    summary_rows = None
    for block in blocks[1:]:
        if block.startswith("# bound_checks\n"):
            bound_checks = tuple(
                BoundCheck(
                    scenario_digest=r[0],
                    tx_id=int(r[1]),
                    nu=int(r[2]),
                    max_regret=int(r[3]),
                    within_bound=r[4] == "true",
                    overbid_violations=int(r[5]),
                    below_range_violations=int(r[6]),
                )
                for r in _rows(block.removeprefix("# bound_checks\n"), BOUND_HEADER)
            )
        elif block.startswith("# tie_conflicts\n"):
            tie_conflicts = tuple(
                TieConflict(scenario_digest=r[0], cycle=_cycle_from_str(r[1]))
                for r in _rows(block.removeprefix("# tie_conflicts\n"), TIE_HEADER)
            )
        else:
            summary_rows = _rows(block, SUMMARY_HEADER)
    if not summary_rows:
        raise ReportFormatError("missing summary section")
    verdict, max_regret, cells, wall = summary_rows[0]
    return {
        "kind": meta.get("kind"),
        "mode": meta.get("mode"),
        "sampling_seed": None if meta.get("sampling_seed") == "-" else int(meta["sampling_seed"]),
        "witnesses": witnesses,
        "bound_checks": bound_checks,
        "tie_conflicts": tie_conflicts,
        "verdict": verdict,
        "max_regret": int(max_regret),
        "cells_checked": int(cells),
        "wall_time_ms": int(wall),
    }


@_refusing_malformed
def parse_welfare_report(text: str) -> dict:
    """Inverse of render_welfare_report, returning a plain dict."""
    lines = text.splitlines()
    if not lines or lines[0] != "# tfm-lab welfare":
        raise ReportFormatError("missing welfare report banner")
    blocks = text.split("\n\n")
    entry_text = blocks[0].split("\n", 1)[1]
    entries = []
    for r in _rows(entry_text, WELFARE_HEADER):
        entries.append(
            {
                "scenario_digest": r[0],
                "recommended_block": block_from_str(r[1]),
                "recommended_welfare": int(r[2]),
                "optimal_block": block_from_str(r[3]),
                "optimal_welfare": int(r[4]),
                "ratio": None if r[5] == "-" else Fraction(r[5]),
                "degenerate": r[6] == "true",
            }
        )
    if len(blocks) < 2:
        raise ReportFormatError("missing min_ratio section")
    tail = [ln for ln in blocks[1].splitlines() if ln]
    if len(tail) != 2 or tail[0] != "min_ratio":
        raise ReportFormatError("malformed min_ratio section")
    min_ratio = None if tail[1] == "-" else Fraction(tail[1])
    return {"entries": entries, "min_ratio": min_ratio}
