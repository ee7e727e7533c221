"""Unit tests for the scenario file format: strict parsing, stable
serialization, and the content digest."""

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    random_scenario,
    scenario_digest,
    serialize_scenario,
    write_scenario_file,
)
from tfm_lab.mechanisms import RULES

MINIMAL = {
    "schema_version": 1,
    "transactions": [{"id": 0, "size": 1, "valuation": 5}],
    "bp_valuation": {"kind": "passive"},
    "blockset": {"kind": "knapsack", "max_total_size": 2},
}


def as_text(obj):
    return json.dumps(obj)


SINGLE_MINDED = {"kind": "single_minded", "target_blocks": [[0]], "value": 7}
TABLE = {"kind": "table", "entries": [{"block": [0], "value": 1}]}
EXPLICIT = {"kind": "explicit", "blocks": [[], [0]]}
CANDIDATES = {"kind": "knapsack", "max_total_size": 2, "candidate_ids": [0]}

# (overrides of MINIMAL, path to the field, what the refusal names): every
# integer field of the schema, each checked by the constructor that holds it
INTEGER_FIELDS = [
    pytest.param({}, ("transactions", 0, "id"), "tx_id", id="tx-id"),
    pytest.param({}, ("transactions", 0, "size"), "size", id="tx-size"),
    pytest.param({}, ("transactions", 0, "valuation"), "valuation", id="tx-valuation"),
    pytest.param(
        {"transactions": [{"id": 0, "size": 1, "valuation": 5, "bid": 4}]},
        ("transactions", 0, "bid"), "bid", id="tx-bid",
    ),
    pytest.param(
        {"bp_valuation": {"kind": "passive", "constant": 0}},
        ("bp_valuation", "constant"), "constant", id="passive-constant",
    ),
    pytest.param(
        {"bp_valuation": {"kind": "additive", "values": {"0": 3}}},
        ("bp_valuation", "values", "0"), "value for tx 0", id="additive-amount",
    ),
    pytest.param({"bp_valuation": SINGLE_MINDED}, ("bp_valuation", "value"), "value", id="single-minded-value"),
    pytest.param(
        {"bp_valuation": TABLE}, ("bp_valuation", "entries", 0, "value"), "value for block", id="table-value"
    ),
    pytest.param({}, ("blockset", "max_total_size"), "max_total_size", id="max-total-size"),
    pytest.param({"blockset": CANDIDATES}, ("blockset", "candidate_ids", 0), "candidate id", id="candidate-id"),
    pytest.param({"blockset": EXPLICIT}, ("blockset", "blocks", 1, 0), "block id", id="blockset-block-id"),
    pytest.param(
        {"bp_valuation": SINGLE_MINDED}, ("bp_valuation", "target_blocks", 0, 0), "block id", id="target-block-id"
    ),
    pytest.param(
        {"bp_valuation": TABLE}, ("bp_valuation", "entries", 0, "block", 0), "block id", id="table-block-id"
    ),
    pytest.param(
        {"mechanism": {"preset": "eip1559", "base_fee": 2}}, ("mechanism", "base_fee"), "base fee", id="base-fee"
    ),
    pytest.param({"seed": 3}, ("seed",), "seed", id="seed"),
    pytest.param({"grid": {"step": 1, "max_value": 4}}, ("grid", "step"), "grid step", id="grid-step"),
    pytest.param({"grid": {"step": 1, "max_value": 4}}, ("grid", "max_value"), "grid max_value", id="grid-max"),
]

def with_field(overrides, path, value):
    """The text of MINIMAL with `overrides`, and `value` at `path`."""
    raw = json.loads(as_text(dict(MINIMAL, **overrides)))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return as_text(raw)


# (overrides of MINIMAL, path to a field that must be a list)
LIST_FIELDS = [
    pytest.param({}, ("transactions",), id="transactions"),
    pytest.param({"blockset": EXPLICIT}, ("blockset", "blocks"), id="blockset-blocks"),
    pytest.param({"bp_valuation": SINGLE_MINDED}, ("bp_valuation", "target_blocks"), id="target-blocks"),
    pytest.param({"blockset": CANDIDATES}, ("blockset", "candidate_ids"), id="candidate-ids"),
    pytest.param({"bp_valuation": TABLE}, ("bp_valuation", "entries"), id="table-entries"),
]


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

    def test_non_finite_constants_rejected(self):
        for constant in ("NaN", "Infinity", "-Infinity"):
            raw = dict(MINIMAL, generator={"x": "placeholder"})
            with pytest.raises(ScenarioFormatError):
                parse_scenario_text(as_text(raw).replace('"placeholder"', constant))

    def test_nesting_deeper_than_the_decoder_rejected(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario_text('{"generator": ' + "[" * 100_000 + "]" * 100_000 + "}")

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

    def test_explicit_duplicate_block_rejected(self):
        raw = dict(MINIMAL)
        raw["blockset"] = {"kind": "explicit", "blocks": [[], [0], [0]]}
        with pytest.raises(ScenarioFormatError, match=r"blockset lists block \[0\] twice"):
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

    @pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
    @pytest.mark.parametrize("overrides, path, names", INTEGER_FIELDS)
    def test_every_integer_field_refuses_bool_and_string(self, overrides, path, names, value):
        parse_scenario_text(as_text(dict(MINIMAL, **overrides)))
        with pytest.raises(ScenarioFormatError, match=names):
            parse_scenario_text(with_field(overrides, path, value))

    @pytest.mark.parametrize("overrides, path", LIST_FIELDS)
    def test_list_fields_must_be_lists(self, overrides, path):
        with pytest.raises(ScenarioFormatError, match="must be a list"):
            parse_scenario_text(with_field(overrides, path, 5))

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        text = json.dumps(dict(MINIMAL, generator={"name": "caf\u00e9"}), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            load_scenario_file(path)

    @pytest.mark.parametrize(
        "field, node, names",
        [
            # a key of another kind, which the reader used to drop, so the
            # file did not read back the same
            pytest.param(
                "bp_valuation", {"kind": "additive", "constant": 7, "target_blocks": 5},
                "additive bp_valuation has unknown keys ['constant', 'target_blocks']", id="additive-stray",
            ),
            pytest.param(
                "bp_valuation", {"kind": "passive", "values": {}}, "passive bp_valuation has unknown keys",
                id="passive-stray",
            ),
            pytest.param(
                "bp_valuation", dict(SINGLE_MINDED, entries=[]), "single_minded bp_valuation has unknown keys",
                id="single-minded-stray",
            ),
            pytest.param(
                "bp_valuation", dict(TABLE, value=1), "table bp_valuation has unknown keys", id="table-stray"
            ),
            pytest.param(
                "blockset", dict(EXPLICIT, max_total_size=3, enumerate_permutations="yes"),
                "explicit blockset has unknown keys ['enumerate_permutations', 'max_total_size']",
                id="explicit-stray",
            ),
            pytest.param(
                "blockset", dict(CANDIDATES, blocks=[]), "knapsack blockset has unknown keys", id="knapsack-stray"
            ),
            # a missing key, an unknown kind, a node that is not an object
            pytest.param("bp_valuation", {"constant": 0}, "bp_valuation is missing ['kind']", id="no-kind"),
            pytest.param(
                "bp_valuation", {"kind": "single_minded", "value": 7},
                "single_minded bp_valuation is missing ['target_blocks']", id="single-minded-missing",
            ),
            pytest.param(
                "blockset", {"kind": "explicit"}, "explicit blockset is missing ['blocks']", id="explicit-missing"
            ),
            pytest.param(
                "blockset", {"kind": "knapsack"}, "knapsack blockset is missing ['max_total_size']",
                id="knapsack-missing",
            ),
            pytest.param("bp_valuation", {"kind": "stake"}, "unknown bp_valuation kind 'stake'", id="valuation-kind"),
            pytest.param("blockset", {"kind": ["explicit"]}, "unknown blockset kind ['explicit']", id="blockset-kind"),
            pytest.param("bp_valuation", [0], "bp_valuation must be an object, got [0]", id="valuation-list"),
            pytest.param("blockset", "knapsack", "blockset must be an object, got 'knapsack'", id="blockset-str"),
            pytest.param(
                "bp_valuation", {"kind": "table", "entries": [[0]]}, "table entry must be an object, got [0]",
                id="table-entry-list",
            ),
        ],
    )
    def test_node_without_the_keys_of_its_kind_rejected(self, field, node, names):
        with pytest.raises(ScenarioFormatError, match=re.escape(names)):
            parse_scenario_text(as_text(dict(MINIMAL, **{field: node})))

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

    def test_refused_document_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "doc.json"
        write_scenario_file(path, sample_doc())
        before = path.read_bytes()
        bad = ScenarioDoc(sample_doc().scenario, generator={"ratio": 0.5})
        with pytest.raises(ScenarioFormatError):
            write_scenario_file(path, bad)
        assert path.read_bytes() == before


class TestDigest:
    def test_digest_frozen_value(self):
        # pin the digest so accidental format changes are caught loudly
        doc = parse_scenario_text(as_text(MINIMAL))
        assert scenario_digest(doc.scenario) == "7efd4be159e7"

    def test_full_document_frozen_bytes(self):
        text = serialize_scenario(sample_doc())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "17a5a114c52b5f92da752c02b622e12cc10b3b11d8c65413729a29d98c127769"
        )

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


def with_generator(generator):
    return ScenarioDoc(sample_doc().scenario, generator=generator)


class TestWriterRefusals:
    """The writer refuses generator metadata the reader would reject or read
    back to other text, and names where the fault is.  Every other field is
    refused, naming it, when its object is built, so no such document
    reaches the writer."""

    def refused(self, doc, *fragments):
        with pytest.raises(ScenarioFormatError) as info:
            serialize_scenario(doc)
        for fragment in fragments:
            assert fragment in str(info.value)

    def test_float_in_generator(self):
        self.refused(with_generator({"grid": {"step": 0.5}}), "generator['grid']['step']", "0.5")

    def test_float_in_generator_list(self):
        self.refused(with_generator({"sizes": [1, 2.0]}), "generator['sizes'][1]")

    def test_int_keys_in_generator(self):
        # {2: .., 10: ..} would come back as "10", "2" in another order
        self.refused(with_generator({2: "a", 10: "b"}), "generator has keys", "strings")

    def test_nested_int_key_in_generator(self):
        self.refused(with_generator({"by_tx": {0: 1}}), "generator['by_tx'] has keys")

    def test_mixed_keys_in_generator(self):
        self.refused(with_generator({"a": 1, 2: 3}), "generator has keys")

    def test_unknown_type_in_generator(self):
        self.refused(with_generator({"ids": {1, 2}}), "generator['ids']")

    def test_self_containing_generator(self):
        generator = {"a": []}
        generator["a"].append(generator)
        self.refused(with_generator(generator), "contains itself")

    def test_generator_must_be_an_object(self):
        self.refused(with_generator(["a"]), "generator metadata must be an object")

    def test_bool_seed(self):
        with pytest.raises(ValueError, match="seed"):
            Scenario(sample_doc().scenario.transactions, PassiveValuation(0), KnapsackBlockset(3), True)

    def test_non_int_seed(self):
        with pytest.raises(ValueError, match="seed"):
            Scenario(sample_doc().scenario.transactions, PassiveValuation(0), KnapsackBlockset(3), "7")

    def test_bool_grid_step(self):
        with pytest.raises(ScenarioFormatError, match="grid step"):
            GridSpec(True, 4)

    def test_float_grid_step(self):
        with pytest.raises(ScenarioFormatError, match="grid step"):
            GridSpec(1.5, 3.0)

    def test_float_grid_max_value(self):
        with pytest.raises(ScenarioFormatError, match="grid max_value"):
            GridSpec(2, 4.0)

    def test_non_int_block_id(self):
        with pytest.raises(ValueError, match="block id"):
            Block(("0",))

    def test_non_block_single_minded_target(self):
        with pytest.raises(ValueError, match="target"):
            SingleMindedValuation(frozenset({(0,)}), 3)

    def test_non_block_explicit_block(self):
        with pytest.raises(ValueError, match="blockset block"):
            ExplicitBlockset((EMPTY_BLOCK, (0,)))

    def test_non_bool_enumerate_permutations(self):
        with pytest.raises(ValueError, match="enumerate_permutations"):
            KnapsackBlockset(1, None, 1)


# -- differential test against the json.dumps rendering -------------------------
#
# The builders below map a document to the JSON value whose json.dumps
# rendering defines the canonical text; they are the oracle.


def oracle_valuation(valuation):
    match valuation:
        case PassiveValuation(constant=c):
            return {"kind": "passive", "constant": c}
        case AdditiveValuation(values=vals):
            return {"kind": "additive", "values": {str(k): vals[k] for k in sorted(vals)}}
        case SingleMindedValuation(targets=targets, value=v):
            blocks = sorted(targets, key=lambda b: (len(b.txs), b.txs))
            return {
                "kind": "single_minded",
                "target_blocks": [list(b.txs) for b in blocks],
                "value": v,
            }
        case TableValuation(entries=entries):
            blocks = sorted(entries, key=lambda b: (len(b.txs), b.txs))
            return {
                "kind": "table",
                "entries": [{"block": list(b.txs), "value": entries[b]} for b in blocks],
            }
    raise TypeError(f"unsupported valuation {valuation!r}")


def oracle_blockset(blockset):
    if isinstance(blockset, ExplicitBlockset):
        return {"kind": "explicit", "blocks": [list(b.txs) for b in blockset.blocks]}
    out = {
        "kind": "knapsack",
        "max_total_size": blockset.max_total_size,
        "enumerate_permutations": blockset.enumerate_permutations,
    }
    if blockset.candidate_ids is not None:
        out["candidate_ids"] = list(blockset.candidate_ids)
    return out


def oracle_mechanism(mech):
    out = {"preset": mech.preset, "allocation": mech.allocation.value}
    if mech.base_fee is not None:
        out["base_fee"] = mech.base_fee
        out["eligibility"] = mech.eligibility.value
    return out


def oracle(doc):
    scenario = doc.scenario
    raw = {
        "schema_version": 1,
        "transactions": [
            {"id": tx.tx_id, "size": tx.size, "valuation": tx.valuation, "bid": tx.bid}
            for tx in scenario.transactions
        ],
        "bp_valuation": oracle_valuation(scenario.bp_valuation),
        "blockset": oracle_blockset(scenario.blockset),
    }
    if scenario.rng_seed is not None:
        raw["seed"] = scenario.rng_seed
    if doc.mechanism is not None:
        raw["mechanism"] = oracle_mechanism(doc.mechanism)
    if doc.grid is not None:
        raw["grid"] = {"step": doc.grid.step, "max_value": doc.grid.max_value}
    if doc.generator is not None:
        raw["generator"] = doc.generator
    return raw


def oracle_text(doc):
    return json.dumps(oracle(doc), sort_keys=True, indent=2) + "\n"


big_ints = st.integers() | st.integers(-(2**200), 2**200)
amounts = st.integers(0, 10**6) | st.integers(0, 2**80)


@st.composite
def blocks_of(draw, ids):
    """A block: any ordering of any subset of ids, the empty block included."""
    if not ids:
        return EMPTY_BLOCK
    chosen = draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
    return Block(tuple(chosen))


@st.composite
def valuations(draw, ids):
    kind = draw(st.sampled_from(["passive", "additive", "single_minded", "table"]))
    if kind == "passive":
        return PassiveValuation(draw(big_ints))
    if kind == "additive":
        keys = st.sampled_from(ids) | big_ints if ids else big_ints
        return AdditiveValuation(draw(st.dictionaries(keys, big_ints, max_size=8)))
    some_blocks = st.lists(blocks_of(ids), max_size=6)
    if kind == "single_minded":
        return SingleMindedValuation(frozenset(draw(some_blocks)), draw(big_ints))
    return TableValuation({b: draw(big_ints) for b in draw(some_blocks)})


@st.composite
def blocksets(draw, ids):
    if draw(st.booleans()):
        blocks = draw(st.lists(blocks_of(ids), min_size=1, max_size=6, unique=True))
        return ExplicitBlockset(tuple(blocks))
    candidates = None
    if draw(st.booleans()):
        candidates = draw(st.permutations(ids).flatmap(lambda p: st.integers(0, len(p)).map(lambda k: tuple(p[:k]))))
    return KnapsackBlockset(draw(amounts), candidates, draw(st.booleans()))


@st.composite
def mechanisms(draw):
    preset = draw(st.sampled_from(sorted(RULES)))
    rule = RULES[preset]
    allocation = draw(st.sampled_from(rule.allocations))
    if rule.base_fee:
        return Mechanism(preset, draw(amounts), draw(st.sampled_from(Eligibility)), allocation)
    return Mechanism(preset, None, Eligibility.FREE, allocation)


metadata_values = st.recursive(
    st.none() | st.booleans() | big_ints | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def documents(draw):
    ids = draw(st.lists(st.integers(-50, 10**9), unique=True, max_size=6))
    txs = tuple(Transaction(t, draw(st.integers(1, 2**70)), draw(amounts), draw(amounts)) for t in ids)
    scenario = Scenario(
        txs,
        draw(valuations(ids)),
        draw(blocksets(ids)),
        draw(st.none() | big_ints),
    )
    grid = None
    if draw(st.booleans()):
        step = draw(st.integers(1, 10**6))
        grid = GridSpec(step, step * draw(st.integers(0, 1000)))
    return ScenarioDoc(
        scenario,
        draw(st.none() | mechanisms()),
        grid,
        draw(st.none() | st.dictionaries(st.text(), metadata_values, max_size=6)),
    )


class TestAgainstJsonDumps:
    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_same_bytes_as_the_oracle(self, doc):
        assert serialize_scenario(doc) == oracle_text(doc)

    @settings(max_examples=200, deadline=None)
    @given(documents())
    def test_parse_then_serialize_is_the_same_text(self, doc):
        text = serialize_scenario(doc)
        assert serialize_scenario(parse_scenario_text(text)) == text

    def test_additive_keys_sort_as_strings(self):
        txs = tuple(Transaction(t, 1, 1, 1) for t in (2, 10, -1, 1))
        doc = ScenarioDoc(Scenario(txs, AdditiveValuation({2: 1, 10: 2, -1: 3, 1: 4}), KnapsackBlockset(1)))
        text = serialize_scenario(doc)
        assert text == oracle_text(doc)
        assert text.index('"-1"') < text.index('"1"') < text.index('"10"') < text.index('"2"')

    def test_awkward_metadata_strings(self):
        generator = {"q\"uote": ["\x00\n\t", "é☃𝄞", ("tuple", None, True, False)], "": {}, "e": []}
        doc = with_generator(generator)
        assert serialize_scenario(doc) == oracle_text(doc)


class TestRandomScenarioArguments:
    @pytest.mark.parametrize("n_txs", [True, 2.0, "3", None])
    def test_non_integer_count_is_refused(self, n_txs):
        with pytest.raises(ValueError, match="n_txs must be an integer"):
            random_scenario(7, n_txs=n_txs)

    @pytest.mark.parametrize("n_txs", [0, 9])
    def test_count_out_of_range_is_refused(self, n_txs):
        with pytest.raises(ValueError, match="n_txs must be between 1 and 8"):
            random_scenario(7, n_txs=n_txs)
