"""End-to-end tests that drive the command line entry point in process."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_lab import (
    Allocation,
    AuditReport,
    Block,
    Eligibility,
    ExplicitBlockset,
    FixedOffset,
    GridSpec,
    Mechanism,
    PassiveValuation,
    Scenario,
    ScenarioDoc,
    Transaction,
    Truthful,
    Witness,
    audit_dsic,
    bps_argmax,
    load_scenario_file,
    parse_audit_report,
    parse_welfare_report,
    payment,
    render_audit_report,
    replay_dsic_witness,
    witness_sort_key,
    write_scenario_file,
)
from tfm_lab.cli import _build_parser, _merge_audit_reports, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name, *extra):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", "--seed", "7", "--out", str(path), *extra)
    assert code == 0
    return path


class TestGen:
    def test_writes_parseable_scenario(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        doc = load_scenario_file(path)
        assert len(doc.scenario.transactions) == 3
        assert doc.grid is not None

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = gen_file(tmp_path, capsys, "a.json")
        b = gen_file(tmp_path, capsys, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "3")
        assert code == 0
        assert json.loads(out)["schema_version"] == 1

    def test_mech_flags_embed_a_mechanism(self, tmp_path, capsys):
        path = gen_file(
            tmp_path, capsys, "m.json", "--mech", "tipless", "--base-fee", "2"
        )
        assert load_scenario_file(path).mechanism == Mechanism.tipless(2)


class TestParser:
    def test_built_once_and_no_flag_leaks_into_the_next_call(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        path = gen_file(tmp_path, capsys, "s.json", "--grid-max", "4")
        args = ("audit", "dsic", str(path), "--mech", "tipless", "--base-fee", "2")
        _, capped, _ = run(capsys, *args, "--grid-max", "3")
        _, own, _ = run(capsys, *args)
        _, named, _ = run(capsys, *args, "--grid-max", "4")
        cells = lambda text: parse_audit_report(text)["cells_checked"]
        assert cells(own) == cells(named) != cells(capped)


class TestExitCodes:
    def test_usage_error_for_missing_mech(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(capsys, "audit", "dsic", str(path))
        assert code == 2
        assert "mechanism" in err

    def test_usage_error_for_base_fee_without_mech(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(capsys, "audit", "dsic", str(path), "--base-fee", "2")
        assert code == 2
        assert "--base-fee requires --mech" in err

    def test_usage_error_for_unknown_strategy(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "fpa", "--strategy", "mystery",
        )
        assert code == 2
        assert "unknown strategy" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            *[(s, f"bad offset in --strategy {s!r}") for s in ("offset:", "offset:x", "offset:1.5", "offset:--2")],
            # fpa has no base fee to cap at
            ("capped", "--strategy capped needs a mechanism with a base fee"),
        ],
    )
    def test_usage_error_for_a_bad_strategy_under_fpa(self, tmp_path, capsys, spec, message):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, err = run(capsys, "audit", "dsic", str(path), "--mech", "fpa", "--strategy", spec)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bpic", "--samples", "2"),
            ("approx-dsic", "--strategy", "offset:5"),
            ("bpic", "--strategy", "bogus"),
            # a flag set to its default value is still refused
            ("bpic", "--seed", "0"),
            ("welfare", "--samples", "2"),
            ("welfare", "--seed", "0"),
            ("welfare", "--grid-step", "1"),
            ("welfare", "--grid-max", "3"),
            ("welfare", "--max-witnesses", "1000"),
            ("welfare", "--timings"),
        ],
        ids=lambda a: " ".join(a),
    )
    def test_usage_error_for_a_flag_the_kind_ignores(self, tmp_path, capsys, argv):
        path = gen_file(tmp_path, capsys, "s.json")
        kind, flag, *value = argv
        grid = () if kind == "welfare" else ("--grid-max", "3")
        code, out, err = run(
            capsys,
            "audit", kind, str(path),
            "--mech", "tipless", "--base-fee", "2", "--allocation", "consonant",
            *grid, flag, *value,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to audit {kind}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("zero-bid", "--strategy", "capped"),
            ("zero-bid", "--rho", "1/2"),
            ("welfare-gap", "--scenario", "FILE"),
            ("eip1559-demo", "--mech", "fpa", "--budget", "3"),
        ],
        ids=lambda a: " ".join(a),
    )
    def test_usage_error_for_a_counterexample_flag_the_kind_ignores(self, tmp_path, capsys, argv):
        path = str(gen_file(tmp_path, capsys, "s.json"))
        kind, flag, *value = [path if a == "FILE" else a for a in argv]
        # besides the ignored flag, each kind gets the flags it reads
        reads = {
            "zero-bid": (
                "--scenario", path,
                "--mech", "tipless", "--base-fee", "2", "--allocation", "consonant",
            ),
            "welfare-gap": ("--rho", "1/2"),
            "eip1559-demo": (),
        }[kind]
        code, out, err = run(capsys, "counterexample", kind, *reads, flag, *value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to counterexample {kind}\n"

    @pytest.mark.parametrize("kind", ["dsic", "approx-dsic"])
    def test_usage_error_for_a_seed_without_samples(self, tmp_path, capsys, kind):
        path = gen_file(tmp_path, capsys, "s.json")
        args = (
            "audit", kind, str(path),
            "--mech", "tipless", "--base-fee", "2", "--allocation", "consonant",
            "--grid-max", "3", "--seed", "9",
        )
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (2, "", "error: --seed applies only with --samples\n")
        code, out, _ = run(capsys, *args, "--samples", "2")
        assert code in (0, 1)
        assert parse_audit_report(out)["sampling_seed"] == 9

    def test_usage_error_for_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "audit", "dsic", str(tmp_path / "nope.json"), "--mech", "fpa"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            b'{"schema_version": 1, "transactions": [], "bp_valuation": {"kind": "passive"}, '
            b'"blockset": {"kind": "explicit", "blocks": 5}}',
            b'{"schema_version": 1, "generator": "caf\xe9"}',
        ],
        ids=["blocks-not-a-list", "not-utf8"],
    )
    def test_usage_error_for_malformed_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "audit", "dsic", str(path), "--mech", "fpa")
        assert code == 2
        assert err.startswith("error: ")

    def test_usage_error_for_a_repeated_block(self, tmp_path, capsys):
        # one world listed with a block twice would get a second digest and
        # repeated ties, so the reader refuses the file before any audit
        path = tmp_path / "twice.json"
        path.write_text(
            '{"schema_version": 1, "transactions": [{"id": 0, "size": 1, "valuation": 1}], '
            '"bp_valuation": {"kind": "passive"}, '
            '"blockset": {"kind": "explicit", "blocks": [[], [0], [0]]}}'
        )
        code, out, err = run(capsys, "audit", "bpic", str(path), "--mech", "fpa")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "blockset lists block [0] twice" in err

    def test_budget_exit(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "fpa", "--budget", "1",
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("allocation", ["standard", "consonant"])
    def test_budget_exit_of_both_eip1559_allocations(self, tmp_path, capsys, allocation):
        # every clearing set fits, and the standard rule enumerates the 8
        # blocks of the three transactions as the consonant one does
        path = gen_file(tmp_path, capsys, "fit.json", "--n-tx", "3", "--all-fit")
        code, out, err = run(
            capsys,
            "audit", "dsic", str(path), "--mech", "eip1559", "--base-fee", "2",
            "--allocation", allocation, "--strategy", "capped", "--budget", "4",
        )
        assert (code, out) == (3, "")
        assert "exceeds the budget of 4 blocks" in err

    def test_one_sample_is_in_range(self, tmp_path, capsys):
        # the smallest sample count audits one drawn profile per user
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, err = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "fpa", "--allocation", "consonant", "--grid-max", "3", "--samples", "1",
        )
        assert code in (0, 1)
        assert err == ""
        assert parse_audit_report(out)["mode"] == "sampled"

    @pytest.mark.parametrize(
        "flags",
        [("--samples", "0"), ("--samples", "-2"), ("--max-witnesses", "-1"), ("--budget", "0")],
        ids=lambda f: " ".join(f),
    )
    def test_usage_error_for_out_of_range_numbers(self, tmp_path, capsys, flags):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, err = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "fpa", "--allocation", "consonant", "--grid-max", "3", *flags,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("audit", "dsic", "F", "--mech", "fpa", "--allocation", "standard"),
            ("audit", "bpic", "F", "--mech", "eip1559", "--base-fee", "-1"),
            (
                "welfare", "F",
                "--mech", "tipless", "--base-fee", "2", "--allocation", "revenue_max",
            ),
            ("gen", "--seed", "1", "--n-tx", "0"),
            ("gen", "--seed", "1", "--grid-max", "0"),
        ],
        ids=lambda a: " ".join(a),
    )
    def test_usage_error_for_rejected_mechanism_or_generator_flags(
        self, tmp_path, capsys, argv
    ):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, err = run(
            capsys, *(str(path) if a == "F" else a for a in argv)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["dsic", "approx-dsic"])
    def test_usage_error_for_an_oversized_profile_space_names_the_flag(
        self, tmp_path, capsys, kind
    ):
        path = gen_file(tmp_path, capsys, "s.json", "--n-tx", "6")
        code, out, err = run(
            capsys,
            "audit", kind, str(path),
            "--mech", "tipless", "--base-fee", "2", "--allocation", "consonant",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: scenario has 6 transactions")
        assert "--samples" in err

    def test_usage_error_for_bad_budget_variable(self, tmp_path, capsys, monkeypatch):
        path = gen_file(tmp_path, capsys, "s.json")
        monkeypatch.setenv("TFMLAB_BUDGET", "abc")
        code, _, err = run(capsys, "audit", "bpic", str(path), "--mech", "fpa")
        assert code == 2
        assert err.startswith("error: TFMLAB_BUDGET must be an integer")

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        with pytest.raises(SystemExit) as info:
            main(["audit", "bpic", str(path), "--mech", "fpa", "--jobs", "2"])
        assert info.value.code == 2

    def test_fail_exit_carries_a_report(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json", "--all-fit")
        code, out, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "eip1559", "--base-fee", "2", "--grid-max", "6",
        )
        assert code == 1
        assert parse_audit_report(out)["verdict"] == "FAIL"

    def test_fail_exit_when_standard_rule_refuses(self, tmp_path, capsys):
        # tight capacity plus a low reserve: the exact clearing set cannot
        # fit, which the standard allocation reports as a hard error
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "eip1559", "--base-fee", "2", "--grid-max", "6",
        )
        assert code == 1
        assert "base fee" in err

    @pytest.mark.parametrize("kind", ["bpic", "dsic"])
    def test_fail_exit_when_no_block_is_eligible(self, tmp_path, capsys, kind):
        # no listed block is empty and every one holds tx 0, so a cell where
        # tx 0 bids below its reserve leaves the producer no eligible block
        sc = Scenario(
            (Transaction(0, 1, 0), Transaction(1, 1, 2)),
            PassiveValuation(0),
            ExplicitBlockset((Block((0,)), Block((0, 1)))),
        )
        path = tmp_path / "s.json"
        write_scenario_file(path, ScenarioDoc(sc))
        code, out, err = run(
            capsys,
            "audit", kind, str(path),
            "--mech", "tipless", "--base-fee", "1", "--eligibility", "gated",
            "--allocation", "consonant", "--grid-max", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: no feasible block is eligible")
        assert "Traceback" not in err


# witnesses from a small pool, so that parts share some of them
POOL_WITNESS = st.builds(
    Witness,
    st.sampled_from(("a" * 64, "b" * 64)),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 3),
    st.sampled_from(((), ((0, 1),), ((0, 2),), ((0, 1), (2, 0)))),
)


def part(witnesses):
    return AuditReport(
        kind="dsic",
        verdict="FAIL" if witnesses else "PASS",
        max_regret=max((w.utility_gain for w in witnesses), default=0),
        witnesses=tuple(sorted(witnesses, key=witness_sort_key)),
        cells_checked=1,
    )


class TestMergeAuditReports:
    """Each part arrives sorted, so the merged report keeps the first
    max_witnesses of the parts' witnesses in witness_sort_key order."""

    @given(st.lists(st.lists(POOL_WITNESS, max_size=8), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_full_sort(self, witness_lists):
        parts = [part(ws) for ws in witness_lists]
        every = sorted((w for ws in witness_lists for w in ws), key=witness_sort_key)
        for k in (0, 1, len(every), len(every) + 5):
            merged = _merge_audit_reports(parts, k)
            assert merged.witnesses == tuple(every[:k])
            assert merged.cells_checked == len(parts)

    def test_parts_share_witnesses(self):
        shared = Witness("a" * 64, 0, 2, 2, 0, 3, ((1, 0),))
        later = Witness("a" * 64, 1, 2, 2, 0, 3, ((0, 0),))
        merged = _merge_audit_reports([part([shared, later]), part([shared])], 3)
        assert merged.witnesses == (shared, shared, later)
        assert merged.verdict == "FAIL"


class TestAudit:
    def test_pass_report_round_trips(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        out_path = tmp_path / "r.csv"
        code, _, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "tipless", "--base-fee", "2",
            "--grid-max", "6", "--out", str(out_path),
        )
        assert code == 0
        parsed = parse_audit_report(out_path.read_text())
        assert parsed["verdict"] == "PASS"
        assert parsed["max_regret"] == 0
        assert parsed["witnesses"] == ()

    def test_witnesses_replay_from_the_csv(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json", "--all-fit")
        code, out, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "eip1559", "--base-fee", "2", "--grid-max", "6",
        )
        assert code == 1
        parsed = parse_audit_report(out)
        assert parsed["witnesses"]
        scenario = load_scenario_file(path).scenario
        mech = Mechanism.eip1559(2)
        for witness in parsed["witnesses"]:
            gain = replay_dsic_witness(mech, Truthful(), scenario, witness)
            assert gain == witness.utility_gain > 0

    def test_capped_strategy_flag(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json", "--all-fit")
        code, out, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "eip1559", "--base-fee", "2",
            "--grid-max", "6", "--strategy", "capped",
        )
        assert code == 0
        assert parse_audit_report(out)["verdict"] == "PASS"

    def test_file_mechanism_is_used_without_mech(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "m.json", "--mech", "tipless", "--base-fee", "2", "--grid-max", "4")
        doc = load_scenario_file(path)
        code, out, _ = run(capsys, "audit", "dsic", str(path))
        report = audit_dsic(Mechanism.tipless(2), Truthful(), [doc.scenario], doc.grid)
        assert code == (report.verdict == "FAIL")
        assert out == render_audit_report(report)
        # --mech still overrides the file's mechanism
        _, fpa, _ = run(capsys, "audit", "dsic", str(path), "--mech", "fpa")
        assert fpa == render_audit_report(audit_dsic(Mechanism.fpa(), Truthful(), [doc.scenario], doc.grid))

    def test_negative_offset_strategy_flag(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "tipless", "--base-fee", "2", "--grid-max", "4", "--strategy", "offset:-2",
        )
        scenario = load_scenario_file(path).scenario
        report = audit_dsic(Mechanism.tipless(2), FixedOffset(-2), [scenario], GridSpec(1, 4))
        assert code == (report.verdict == "FAIL")
        assert out == render_audit_report(report)

    def test_timings_change_only_wall_time(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        args = (
            "audit", "dsic", str(path),
            "--mech", "tipless", "--base-fee", "2", "--grid-max", "4",
        )
        _, plain, _ = run(capsys, *args)
        _, timed, _ = run(capsys, *args, "--timings")
        a, b = parse_audit_report(plain), parse_audit_report(timed)
        assert a["wall_time_ms"] == 0
        b.pop("wall_time_ms")
        a.pop("wall_time_ms")
        assert a == b

    def test_multi_file_reports_merge(self, tmp_path, capsys):
        p1 = gen_file(tmp_path, capsys, "a.json")
        path2 = tmp_path / "b.json"
        run(capsys, "gen", "--seed", "8", "--out", str(path2))
        args = ("--mech", "tipless", "--base-fee", "2", "--grid-max", "4")
        _, out1, _ = run(capsys, "audit", "dsic", str(p1), *args)
        _, out2, _ = run(capsys, "audit", "dsic", str(path2), *args)
        _, both, _ = run(capsys, "audit", "dsic", str(p1), str(path2), *args)
        cells = lambda text: parse_audit_report(text)["cells_checked"]
        assert cells(both) == cells(out1) + cells(out2)

    def test_sampled_mode_is_recorded(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, _ = run(
            capsys,
            "audit", "dsic", str(path),
            "--mech", "tipless", "--base-fee", "2",
            "--grid-max", "6", "--samples", "5", "--seed", "9",
        )
        assert code == 0
        parsed = parse_audit_report(out)
        assert parsed["mode"] == "sampled"
        assert parsed["sampling_seed"] == 9


class TestWelfareCommand:
    def test_report_round_trips(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json", "--bp", "additive")
        code, out, _ = run(
            capsys, "welfare", str(path), "--mech", "tipless", "--base-fee", "2"
        )
        assert code == 0
        parsed = parse_welfare_report(out)
        assert len(parsed["entries"]) == 1
        assert parsed["min_ratio"] == parsed["entries"][0]["ratio"]

    def test_audit_welfare_is_an_alias(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        args = (str(path), "--mech", "fpa")
        _, direct, _ = run(capsys, "welfare", *args)
        _, aliased, _ = run(capsys, "audit", "welfare", *args)
        assert direct == aliased


class TestCounterexampleCommand:
    def test_zero_bid_files_replay(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        out_dir = tmp_path / "zb"
        code, out, _ = run(
            capsys,
            "counterexample", "zero-bid",
            "--scenario", str(path), "--mech", "fpa", "--out", str(out_dir),
        )
        assert code == 0
        assert "pays 0" in out
        deviated = load_scenario_file(out_dir / "zero_bid.json")
        recorded = load_scenario_file(out_dir / "recorded_bids.json")
        mech = deviated.mechanism
        bids = deviated.scenario.submitted_bids()
        target = next(
            t for t, b in sorted(recorded.scenario.submitted_bids().items())
            if b > 0 and bids[t] == 0
        )
        # an active producer serves the surplus-maximizing block, and the
        # written valuation forces the zero bidder into it for free
        block = bps_argmax(bids, deviated.scenario, mech)
        assert target in block
        assert payment(mech, block, bids, deviated.scenario)[target] == 0

    def test_zero_bid_single_minded_variant(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, out, _ = run(
            capsys,
            "counterexample", "zero-bid-sm",
            "--scenario", str(path), "--mech", "fpa",
        )
        assert code == 0
        assert "single_minded" in out

    def test_trivial_mechanism_cannot_be_broken(self, tmp_path, capsys):
        path = gen_file(tmp_path, capsys, "s.json")
        code, _, err = run(
            capsys,
            "counterexample", "zero-bid",
            "--scenario", str(path), "--mech", "trivial",
        )
        assert code == 1
        assert "zero" in err

    def test_welfare_gap_prints_exact_chain(self, tmp_path, capsys):
        out_path = tmp_path / "gap.json"
        code, out, _ = run(
            capsys,
            "counterexample", "welfare-gap",
            "--rho", "1/100", "--out", str(out_path),
        )
        assert code == 0
        assert "certified welfare ratio 1/100 <= 1/100" in out
        doc = load_scenario_file(out_path)
        assert doc.scenario.tx(0).valuation == 200

    def test_welfare_gap_requires_rho(self, capsys):
        code, _, err = run(capsys, "counterexample", "welfare-gap")
        assert code == 2
        assert "--rho" in err

    def test_welfare_gap_rejects_bad_rho(self, capsys):
        code, _, err = run(
            capsys, "counterexample", "welfare-gap", "--rho", "lots"
        )
        assert code == 2
        code, _, err = run(capsys, "counterexample", "welfare-gap", "--rho", "2")
        assert code == 2
        assert "(0, 1]" in err

    def test_demo_writes_four_worlds(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        code, out, _ = run(
            capsys, "counterexample", "eip1559-demo", "--out", str(out_dir)
        )
        assert code == 0
        assert "knife edge" in out
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "passive.json", "staked.json", "knife_edge.json", "baseline.json"
        }
        knife = load_scenario_file(out_dir / "knife_edge.json")
        assert knife.mechanism == Mechanism.eip1559(
            2, Eligibility.FREE, Allocation.CONSONANT
        )
        baseline = load_scenario_file(out_dir / "baseline.json")
        assert baseline.mechanism == Mechanism.eip1559(2)

    def test_missing_scenario_flag(self, capsys):
        code, _, err = run(capsys, "counterexample", "zero-bid", "--mech", "fpa")
        assert code == 2
        assert "--scenario" in err
