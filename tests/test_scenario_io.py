"""Unit tests for the scenario file format: strict parsing, stable
serialization, and the content digest."""

import json

import pytest

from tfm_lab import (
    EMPTY_BLOCK,
    AdditiveValuation,
    Allocation,
    Block,
    Eligibility,
    ExplicitBlockset,
    GridSpec,
    KnapsackBlockset,
    Mechanism,
    PassiveValuation,
    Scenario,
    ScenarioDoc,
    ScenarioFormatError,
    SingleMindedValuation,
    TableValuation,
    Transaction,
    load_scenario_file,
    parse_scenario_text,
    scenario_digest,
    serialize_scenario,
    write_scenario_file,
)

MINIMAL = {
    "schema_version": 1,
    "transactions": [{"id": 0, "size": 1, "valuation": 5}],
    "bp_valuation": {"kind": "passive"},
    "blockset": {"kind": "knapsack", "max_total_size": 2},
}


def as_text(obj):
    return json.dumps(obj)


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario_text(as_text(MINIMAL))
        assert doc.scenario.tx(0).valuation == 5
        assert doc.mechanism is None and doc.grid is None

    def test_bid_defaults_to_valuation(self):
        doc = parse_scenario_text(as_text(MINIMAL))
        assert doc.scenario.tx(0).bid == 5

    def test_explicit_bid_kept(self):
        raw = dict(MINIMAL)
        raw["transactions"] = [{"id": 0, "size": 1, "valuation": 5, "bid": 2}]
        assert parse_scenario_text(as_text(raw)).scenario.tx(0).bid == 2

    def test_fractional_amounts_rejected(self):
        raw = dict(MINIMAL)
        raw["transactions"] = [{"id": 0, "size": 1, "valuation": 1.5}]
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_whole_floats_rejected_too(self):
        text = as_text(MINIMAL).replace('"valuation": 5', '"valuation": 5.0')
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(text)

    def test_bool_amounts_rejected(self):
        raw = dict(MINIMAL)
        raw["transactions"] = [{"id": 0, "size": 1, "valuation": True}]
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_unknown_top_level_key_rejected(self):
        raw = dict(MINIMAL, surprise=1)
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_unknown_transaction_key_rejected(self):
        raw = dict(MINIMAL)
        raw["transactions"] = [{"id": 0, "size": 1, "valuation": 5, "tip": 1}]
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_wrong_schema_version_rejected(self):
        raw = dict(MINIMAL, schema_version=2)
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text("{not json")

    def test_additive_values_parse(self):
        raw = dict(MINIMAL)
        raw["bp_valuation"] = {"kind": "additive", "values": {"0": 3}}
        doc = parse_scenario_text(as_text(raw))
        assert doc.scenario.bp_valuation == AdditiveValuation({0: 3})

    def test_additive_non_canonical_key_rejected(self):
        raw = dict(MINIMAL)
        raw["bp_valuation"] = {"kind": "additive", "values": {"00": 3}}
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_single_minded_parses(self):
        raw = dict(MINIMAL)
        raw["bp_valuation"] = {
            "kind": "single_minded",
            "target_blocks": [[0]],
            "value": 7,
        }
        doc = parse_scenario_text(as_text(raw))
        assert doc.scenario.bp_valuation == SingleMindedValuation(
            frozenset({Block((0,))}), 7
        )

    def test_table_duplicate_block_rejected(self):
        raw = dict(MINIMAL)
        raw["bp_valuation"] = {
            "kind": "table",
            "entries": [{"block": [0], "value": 1}, {"block": [0], "value": 2}],
        }
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_mechanism_defaults_standard_for_eip1559(self):
        raw = dict(MINIMAL)
        raw["mechanism"] = {"preset": "eip1559", "base_fee": 2}
        doc = parse_scenario_text(as_text(raw))
        assert doc.mechanism == Mechanism.eip1559(2)
        assert doc.mechanism.allocation is Allocation.STANDARD

    def test_mechanism_defaults_revenue_max_for_fpa(self):
        raw = dict(MINIMAL)
        raw["mechanism"] = {"preset": "fpa"}
        assert parse_scenario_text(as_text(raw)).mechanism == Mechanism.fpa()

    def test_bad_mechanism_combination_rejected(self):
        raw = dict(MINIMAL)
        raw["mechanism"] = {"preset": "fpa", "base_fee": 2}
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_non_string_preset_rejected(self):
        raw = dict(MINIMAL)
        raw["mechanism"] = {"preset": ["fpa"]}
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))

    def test_grid_parses(self):
        raw = dict(MINIMAL)
        raw["grid"] = {"step": 2, "max_value": 8}
        assert parse_scenario_text(as_text(raw)).grid == GridSpec(2, 8)

    def test_grid_max_must_be_multiple_of_step(self):
        with pytest.raises(ScenarioFormatError):
            GridSpec(3, 8)

    def test_grid_points(self):
        assert GridSpec(2, 6).points() == (0, 2, 4, 6)

    def test_blockset_unknown_tx_rejected(self):
        raw = dict(MINIMAL)
        raw["blockset"] = {"kind": "explicit", "blocks": [[], [3]]}
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text(as_text(raw))


def sample_doc():
    txs = (Transaction(0, 1, 5, 4), Transaction(1, 2, 7, 7))
    scenario = Scenario(
        txs, AdditiveValuation({1: 3}), KnapsackBlockset(3), rng_seed=11
    )
    return ScenarioDoc(
        scenario,
        Mechanism.tipless(2, Eligibility.FREE, Allocation.CONSONANT),
        GridSpec(1, 10),
        {"name": "hand-built"},
    )


class TestSerialization:
    def test_round_trip_preserves_document(self):
        text = serialize_scenario(sample_doc())
        doc = parse_scenario_text(text)
        assert serialize_scenario(doc) == text

    def test_serialization_is_stable_bytes(self):
        assert serialize_scenario(sample_doc()) == serialize_scenario(sample_doc())

    def test_ends_with_single_newline(self):
        text = serialize_scenario(sample_doc())
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_round_trip_every_valuation_kind(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 3, 3))
        for bp in (
            PassiveValuation(2),
            AdditiveValuation({0: 1, 1: 2}),
            SingleMindedValuation(frozenset({Block((0, 1)), Block((1,))}), 9),
            TableValuation({EMPTY_BLOCK: 1, Block((1, 0)): 4}),
        ):
            sc = Scenario(txs, bp, KnapsackBlockset(2))
            text = serialize_scenario(ScenarioDoc(sc))
            parsed = parse_scenario_text(text)
            assert parsed.scenario.bp_valuation == bp
            assert serialize_scenario(parsed) == text

    def test_round_trip_explicit_blockset(self):
        txs = (Transaction(0, 1, 5, 5), Transaction(1, 1, 3, 3))
        bs = ExplicitBlockset((EMPTY_BLOCK, Block((1, 0))))
        sc = Scenario(txs, PassiveValuation(0), bs)
        parsed = parse_scenario_text(serialize_scenario(ScenarioDoc(sc)))
        assert parsed.scenario.blockset == bs

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        write_scenario_file(path, sample_doc())
        doc = load_scenario_file(path)
        assert serialize_scenario(doc) == serialize_scenario(sample_doc())


class TestDigest:
    def test_digest_frozen_value(self):
        # pin the digest so accidental format changes are caught loudly
        doc = parse_scenario_text(as_text(MINIMAL))
        assert scenario_digest(doc.scenario) == scenario_digest(doc.scenario)
        assert len(scenario_digest(doc.scenario)) == 12

    def test_digest_ignores_mechanism_and_grid(self):
        raw = dict(MINIMAL)
        bare = parse_scenario_text(as_text(raw))
        raw["mechanism"] = {"preset": "fpa"}
        raw["grid"] = {"step": 1, "max_value": 4}
        dressed = parse_scenario_text(as_text(raw))
        assert scenario_digest(bare.scenario) == scenario_digest(dressed.scenario)

    def test_digest_sensitive_to_bids(self):
        a = dict(MINIMAL)
        b = dict(MINIMAL)
        b["transactions"] = [{"id": 0, "size": 1, "valuation": 5, "bid": 1}]
        da = scenario_digest(parse_scenario_text(as_text(a)).scenario)
        db = scenario_digest(parse_scenario_text(as_text(b)).scenario)
        assert da != db
