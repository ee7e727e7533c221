"""Round-trip and byte-stability tests for the CSV report format."""

import csv
import io
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfm_lab import (
    AuditReport,
    Block,
    BoundCheck,
    TieConflict,
    WelfareEntry,
    WelfareReport,
    Witness,
    block_from_str,
    block_to_str,
    cell_bids_from_str,
    cell_bids_to_str,
    parse_audit_report,
    parse_welfare_report,
    render_audit_report,
    render_welfare_report,
)
from tfm_lab.reports import (
    BOUND_HEADER,
    SUMMARY_HEADER,
    TIE_HEADER,
    WITNESS_HEADER,
    ReportFormatError,
    _cycle_to_str,
)


WITNESSES = (
    Witness("aaaabbbbcccc", 0, 6, 6, 2, 4, ((1, 3), (2, 0))),
    Witness("aaaabbbbcccc", 1, 5, 5, 0, 5, ()),
)
BOUNDS = (
    BoundCheck("aaaabbbbcccc", 0, 2, 1, True, 0, 0),
    BoundCheck("aaaabbbbcccc", 1, 0, 3, False, 2, 1),
)
TIES = (TieConflict("aaaabbbbcccc", ((0,), (1, 2), ())),)


def audit_report(**overrides):
    base = dict(
        kind="dsic",
        verdict="FAIL",
        max_regret=5,
        witnesses=WITNESSES,
        cells_checked=98,
        bound_checks=None,
        tie_conflicts=(),
        mode="exhaustive",
        sampling_seed=None,
    )
    base.update(overrides)
    return AuditReport(**base)


REPORT_TEXT = render_audit_report(audit_report())


class TestStringHelpers:
    def test_cell_bids_round_trip(self):
        cells = ((0, 5), (3, 0), (7, 12))
        assert cell_bids_from_str(cell_bids_to_str(cells)) == cells
        assert cell_bids_to_str(cells) == "0:5;3:0;7:12"
        assert cell_bids_from_str("") == ()

    def test_block_round_trip(self):
        assert block_to_str((2, 5, 9)) == "2;5;9"
        assert block_from_str("2;5;9") == (2, 5, 9)
        assert block_from_str("") == ()
        assert block_to_str(()) == ""


class TestAuditRoundTrip:
    def test_minimal_report(self):
        report = audit_report()
        parsed = parse_audit_report(render_audit_report(report))
        assert parsed["kind"] == "dsic"
        assert parsed["verdict"] == "FAIL"
        assert parsed["max_regret"] == 5
        assert parsed["cells_checked"] == 98
        assert parsed["wall_time_ms"] == 0
        assert parsed["witnesses"] == WITNESSES
        assert parsed["bound_checks"] is None
        assert parsed["tie_conflicts"] == ()
        assert parsed["mode"] == "exhaustive"
        assert parsed["sampling_seed"] is None

    def test_full_report(self):
        report = audit_report(
            kind="approx-dsic",
            bound_checks=BOUNDS,
            tie_conflicts=TIES,
            mode="sampled",
            sampling_seed=11,
        )
        parsed = parse_audit_report(render_audit_report(report, wall_time_ms=42))
        assert parsed["bound_checks"] == BOUNDS
        assert parsed["tie_conflicts"] == TIES
        assert parsed["sampling_seed"] == 11
        assert parsed["wall_time_ms"] == 42

    def test_pass_report_with_no_witnesses(self):
        report = audit_report(verdict="PASS", max_regret=0, witnesses=())
        parsed = parse_audit_report(render_audit_report(report))
        assert parsed["verdict"] == "PASS"
        assert parsed["witnesses"] == ()

    def test_empty_bound_section_survives(self):
        report = audit_report(kind="approx-dsic", bound_checks=())
        parsed = parse_audit_report(render_audit_report(report))
        assert parsed["bound_checks"] == ()

    def test_render_is_byte_stable(self):
        report = audit_report(bound_checks=BOUNDS, tie_conflicts=TIES)
        assert render_audit_report(report) == render_audit_report(report)

    def test_banner_first_line(self):
        text = render_audit_report(audit_report(mode="sampled", sampling_seed=3))
        assert text.splitlines()[0] == (
            "# tfm-lab audit kind=dsic mode=sampled sampling_seed=3"
        )

    def test_wall_time_defaults_to_zero(self):
        text = render_audit_report(audit_report())
        assert text.rstrip("\n").rsplit(",", 1)[1] == "0"


def oracle_render(report, wall_time_ms=0):
    """render_audit_report as one csv.writer row per witness, each cell's
    text made here, independent of cell_bids_to_str."""
    buf = io.StringIO()
    seed = "-" if report.sampling_seed is None else str(report.sampling_seed)
    buf.write(
        f"# tfm-lab audit kind={report.kind} mode={report.mode} "
        f"sampling_seed={seed}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WITNESS_HEADER)
    for w in report.witnesses:
        writer.writerow(w[:6] + (";".join(f"{t}:{b}" for t, b in w.cell_bids),))
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


INTS = st.integers(-3, 9) | st.integers(-(10**30), 10**30)
# every character csv.writer may quote, and the empty text
QUOTED_TEXT = st.text(st.sampled_from('ab0 ,"\n\r'), max_size=5)
# what parse_audit_report reads back: a bare carriage return ends a csv row
# on Pythons that do not quote it, and a blank line ends a section
PARSED_TEXT = st.text(st.sampled_from('ab0 ,"\n'), max_size=5).filter(
    lambda s: "\n\n" not in s
)


@st.composite
def audit_reports(draw, text, cell_part):
    """A report whose witnesses repeat a few heads (the first six fields)
    and a few cells, in any order, with optional bound-check and
    tie-conflict sections."""
    heads = draw(st.lists(st.tuples(text, INTS, INTS, INTS, INTS, INTS), min_size=1, max_size=4))
    cells = draw(
        st.lists(
            st.lists(st.tuples(cell_part, cell_part), max_size=3).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(heads), st.sampled_from(cells)), max_size=12))
    bound_checks = draw(
        st.none()
        | st.lists(
            st.builds(BoundCheck, text, INTS, INTS, INTS, st.booleans(), INTS, INTS),
            max_size=3,
        ).map(tuple)
    )
    blocks = st.lists(st.integers(0, 9), max_size=3).map(tuple)
    tie_conflicts = draw(
        st.lists(
            st.builds(TieConflict, text, st.lists(blocks, min_size=2, max_size=3).map(tuple)),
            max_size=2,
        ).map(tuple)
    )
    return audit_report(
        verdict=draw(st.sampled_from(("PASS", "FAIL"))),
        max_regret=draw(INTS),
        witnesses=tuple(Witness(*head, cell) for head, cell in picks),
        cells_checked=draw(st.integers(0, 10**6)),
        bound_checks=bound_checks,
        tie_conflicts=tie_conflicts,
        mode=draw(st.sampled_from(("exhaustive", "sampled"))),
        sampling_seed=draw(st.none() | st.integers(0, 99)),
    )


# a hand-built witness whose cell text needs quoting, next to one that
# shares its head and an empty cell
QUOTED_CELL_REPORT = audit_report(
    witnesses=(
        Witness("", 0, 1, 1, 0, 1, (("a,b", 'c"d'), ("e\nf", "g\rh"))),
        Witness("", 0, 1, 1, 0, 1, ()),
        Witness('x,"y"\n', -1, 0, 0, 0, 10**30, ((0, -1),)),
    )
)
# a head that comes back after another head (A, B, A), so its witnesses
# are not next to each other, with cells repeated across the heads
HEAD_A = ("a" * 12, 0, 6, 6, 2, 4)
HEAD_B = ("a" * 12, 1, 5, 5, 0, 5)
RETURNING_HEAD_REPORT = audit_report(
    witnesses=(
        Witness(*HEAD_A, ((1, 3),)),
        Witness(*HEAD_A, ((1, 4),)),
        Witness(*HEAD_B, ((1, 3),)),
        Witness(*HEAD_A, ((1, 3),)),
        Witness(*HEAD_A, ()),
    )
)


class TestRenderAgainstWriterRows:
    """render_audit_report renders each row's head and each cell's text once
    and joins them; the oracle writes every witness as its own csv row."""

    @given(audit_reports(QUOTED_TEXT, INTS | QUOTED_TEXT), st.integers(0, 10**6))
    @example(QUOTED_CELL_REPORT, 0)
    @example(RETURNING_HEAD_REPORT, 0)
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_oracle(self, report, wall_time_ms):
        got = render_audit_report(report, wall_time_ms=wall_time_ms)
        assert got == oracle_render(report, wall_time_ms)

    @given(audit_reports(PARSED_TEXT, INTS))
    @settings(max_examples=100, deadline=None)
    def test_parse_reads_the_report_back(self, report):
        parsed = parse_audit_report(render_audit_report(report))
        assert parsed["witnesses"] == report.witnesses
        assert parsed["bound_checks"] == report.bound_checks
        assert parsed["tie_conflicts"] == report.tie_conflicts
        assert (parsed["verdict"], parsed["max_regret"], parsed["cells_checked"]) == (
            report.verdict,
            report.max_regret,
            report.cells_checked,
        )


class TestWelfareRoundTrip:
    def entry(self, ratio):
        return WelfareEntry(
            scenario_digest="ddddeeeeffff",
            recommended=Block((1,)),
            welfare_recommended=4,
            optimal=Block((0, 1)),
            welfare_optimal=5,
            ratio=ratio,
            degenerate=ratio is None,
        )

    def test_round_trip(self):
        report = WelfareReport((self.entry(Fraction(4, 5)),), Fraction(4, 5))
        parsed = parse_welfare_report(render_welfare_report(report))
        assert parsed["min_ratio"] == Fraction(4, 5)
        entry = parsed["entries"][0]
        assert entry["recommended_block"] == (1,)
        assert entry["optimal_block"] == (0, 1)
        assert entry["ratio"] == Fraction(4, 5)
        assert entry["degenerate"] is False

    def test_degenerate_entry(self):
        report = WelfareReport((self.entry(None),), None)
        parsed = parse_welfare_report(render_welfare_report(report))
        assert parsed["entries"][0]["ratio"] is None
        assert parsed["entries"][0]["degenerate"] is True
        assert parsed["min_ratio"] is None

    def test_whole_ratio_renders_as_integer(self):
        report = WelfareReport((self.entry(Fraction(1)),), Fraction(1))
        text = render_welfare_report(report)
        assert ",1,false" in text
        assert parse_welfare_report(text)["min_ratio"] == 1


class TestFormatErrors:
    def test_wrong_banner(self):
        with pytest.raises(ReportFormatError):
            parse_audit_report("# something else\n")
        with pytest.raises(ReportFormatError):
            parse_welfare_report("# tfm-lab audit kind=dsic\n")

    def test_missing_summary(self):
        text = render_audit_report(audit_report()).split("\n\n")[0]
        with pytest.raises(ReportFormatError):
            parse_audit_report(text)

    def test_mangled_header(self):
        text = render_audit_report(audit_report()).replace("scenario_digest", "digest")
        with pytest.raises(ReportFormatError):
            parse_audit_report(text)

    @pytest.mark.parametrize(
        "text",
        [
            "# tfm-lab audit kind=dsic",
            REPORT_TEXT.replace("aaaabbbbcccc,0,6,6,2,4,1:3;2:0", "aaaabbbbcccc,0,6"),
            REPORT_TEXT.replace("aaaabbbbcccc,0,", "aaaabbbbcccc,x,"),
            REPORT_TEXT.replace("FAIL,5,98,0", "FAIL,5"),
            REPORT_TEXT.replace("kind=dsic", "kind"),
        ],
        ids=["banner-only", "short-witness-row", "non-integer-tx-id", "short-summary",
             "banner-item-without-equals"],
    )
    def test_malformed_audit_text(self, text):
        with pytest.raises(ReportFormatError):
            parse_audit_report(text)

    @pytest.mark.parametrize(
        "text",
        [
            "# tfm-lab welfare",
            render_welfare_report(WelfareReport((), Fraction(1, 2))).replace("1/2", "1/0"),
        ],
        ids=["banner-only", "zero-denominator"],
    )
    def test_malformed_welfare_text(self, text):
        with pytest.raises(ReportFormatError):
            parse_welfare_report(text)

    def test_bare_carriage_return_in_a_digest(self):
        # csv.writer leaves a bare \r unquoted, and csv.reader refuses it
        witness = WITNESSES[0]._replace(scenario_digest="a\rb")
        with pytest.raises(ReportFormatError):
            parse_audit_report(render_audit_report(audit_report(witnesses=(witness,))))
        entry = replace(TestWelfareRoundTrip().entry(Fraction(4, 5)), scenario_digest="a\rb")
        with pytest.raises(ReportFormatError):
            parse_welfare_report(render_welfare_report(WelfareReport((entry,), Fraction(4, 5))))

    def test_welfare_missing_min_ratio(self):
        report = WelfareReport((), None)
        text = render_welfare_report(report).split("\n\n")[0]
        with pytest.raises(ReportFormatError):
            parse_welfare_report(text)
