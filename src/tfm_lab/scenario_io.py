"""Versioned text format for scenario files.

A scenario file bundles one complete world: transactions, the producer's
valuation, the feasible blockset, and optionally the mechanism and audit
grid to run against it.  The format is strict JSON with integer money only;
serialization is canonical (sorted keys, fixed indent), so parse/serialize
round-trips are byte-stable and files can be diffed and digested.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import (
    AdditiveValuation,
    Block,
    BpValuation,
    Blockset,
    ExplicitBlockset,
    KnapsackBlockset,
    PassiveValuation,
    Scenario,
    SingleMindedValuation,
    TableValuation,
    Transaction,
)
from .mechanisms import Allocation, Eligibility, Mechanism

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "transactions",
    "bp_valuation",
    "blockset",
    "mechanism",
    "grid",
    "seed",
    "generator",
}


class ScenarioFormatError(ValueError):
    """The scenario text violates the schema."""


@dataclass(frozen=True)
class GridSpec:
    """Audit grid carried in a scenario file: step and maximum value."""

    step: int
    max_value: int

    def __post_init__(self):
        if self.step < 1:
            raise ScenarioFormatError(f"grid step must be >= 1, got {self.step}")
        if self.max_value < 0 or self.max_value % self.step != 0:
            raise ScenarioFormatError(
                f"grid max_value must be a non-negative multiple of the step, "
                f"got step={self.step} max_value={self.max_value}"
            )

    def points(self) -> tuple[int, ...]:
        return tuple(range(0, self.max_value + 1, self.step))


@dataclass(frozen=True)
class ScenarioDoc:
    """Parsed contents of one scenario file."""

    scenario: Scenario
    mechanism: Mechanism | None = None
    grid: GridSpec | None = None
    generator: dict | None = None


def _reject_float(text):
    raise ScenarioFormatError(
        f"money and counts must be integers; found fractional literal {text!r}"
    )


def _expect_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_keys(obj, what, required, optional=frozenset()):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{what} must be an object, got {obj!r}")
    missing = required - obj.keys()
    if missing:
        raise ScenarioFormatError(f"{what} is missing {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ScenarioFormatError(f"{what} has unknown keys {sorted(unknown)}")


def _parse_block(value, what):
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{what} must be a list of transaction ids")
    ids = tuple(_expect_int(t, f"{what} entry") for t in value)
    try:
        return Block(ids)
    except ValueError as exc:
        raise ScenarioFormatError(f"{what}: {exc}") from None


def _parse_valuation(obj) -> BpValuation:
    _expect_keys(obj, "bp_valuation", {"kind"}, {"constant", "values", "target_blocks", "value", "entries"})
    kind = obj["kind"]
    if kind == "passive":
        return PassiveValuation(_expect_int(obj.get("constant", 0), "passive constant"))
    if kind == "additive":
        values = obj.get("values", {})
        if not isinstance(values, dict):
            raise ScenarioFormatError("additive values must map ids to amounts")
        parsed = {}
        for key, amount in values.items():
            try:
                tx_id = int(key)
            except ValueError:
                raise ScenarioFormatError(f"additive value keyed by non-id {key!r}") from None
            if str(tx_id) != key:
                raise ScenarioFormatError(f"additive value key {key!r} is not canonical")
            parsed[tx_id] = _expect_int(amount, f"additive value for tx {key}")
        return AdditiveValuation(parsed)
    if kind == "single_minded":
        if "target_blocks" not in obj or "value" not in obj:
            raise ScenarioFormatError("single_minded needs target_blocks and value")
        targets = frozenset(
            _parse_block(b, "single_minded target") for b in obj["target_blocks"]
        )
        return SingleMindedValuation(targets, _expect_int(obj["value"], "single_minded value"))
    if kind == "table":
        entries = obj.get("entries", [])
        if not isinstance(entries, list):
            raise ScenarioFormatError("table entries must be a list")
        parsed = {}
        for entry in entries:
            _expect_keys(entry, "table entry", {"block", "value"})
            block = _parse_block(entry["block"], "table entry block")
            if block in parsed:
                raise ScenarioFormatError(f"table lists block {list(block.txs)} twice")
            parsed[block] = _expect_int(entry["value"], "table entry value")
        return TableValuation(parsed)
    raise ScenarioFormatError(f"unknown bp_valuation kind {kind!r}")


def _parse_blockset(obj) -> Blockset:
    _expect_keys(
        obj,
        "blockset",
        {"kind"},
        {"blocks", "max_total_size", "candidate_ids", "enumerate_permutations"},
    )
    kind = obj["kind"]
    if kind == "explicit":
        if "blocks" not in obj:
            raise ScenarioFormatError("explicit blockset needs blocks")
        blocks = tuple(_parse_block(b, "blockset block") for b in obj["blocks"])
        try:
            return ExplicitBlockset(blocks)
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from None
    if kind == "knapsack":
        if "max_total_size" not in obj:
            raise ScenarioFormatError("knapsack blockset needs max_total_size")
        candidates = obj.get("candidate_ids")
        if candidates is not None:
            candidates = tuple(
                _expect_int(t, "candidate id") for t in candidates
            )
        perms = obj.get("enumerate_permutations", False)
        if not isinstance(perms, bool):
            raise ScenarioFormatError("enumerate_permutations must be true or false")
        try:
            return KnapsackBlockset(
                _expect_int(obj["max_total_size"], "max_total_size"),
                candidates,
                perms,
            )
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from None
    raise ScenarioFormatError(f"unknown blockset kind {kind!r}")


def _parse_mechanism(obj) -> Mechanism:
    _expect_keys(obj, "mechanism", {"preset"}, {"base_fee", "eligibility", "allocation"})
    preset = obj["preset"]
    if not isinstance(preset, str):
        raise ScenarioFormatError(f"mechanism preset must be a string, got {preset!r}")
    base_fee = obj.get("base_fee")
    if base_fee is not None:
        base_fee = _expect_int(base_fee, "base_fee")
    try:
        eligibility = Eligibility(obj.get("eligibility", "free"))
        allocation = Allocation(obj["allocation"]) if "allocation" in obj else None
        return Mechanism(preset, base_fee, eligibility, allocation)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None


def parse_scenario_text(text: str) -> ScenarioDoc:
    try:
        raw = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    _expect_keys(raw, "scenario file", {"schema_version", "transactions", "bp_valuation", "blockset"}, _TOP_KEYS)
    version = _expect_int(raw["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )
    if not isinstance(raw["transactions"], list):
        raise ScenarioFormatError("transactions must be a list")
    txs = []
    for entry in raw["transactions"]:
        _expect_keys(entry, "transaction", {"id", "size", "valuation"}, {"bid"})
        tx_id = _expect_int(entry["id"], "transaction id")
        size = _expect_int(entry["size"], "transaction size")
        valuation = _expect_int(entry["valuation"], "transaction valuation")
        bid = entry.get("bid", valuation)
        bid = _expect_int(bid, "transaction bid")
        try:
            txs.append(Transaction(tx_id, size, valuation, bid))
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from None

    valuation = _parse_valuation(raw["bp_valuation"])
    blockset = _parse_blockset(raw["blockset"])
    seed = raw.get("seed")
    if seed is not None:
        seed = _expect_int(seed, "seed")
    try:
        scenario = Scenario(tuple(txs), valuation, blockset, seed)
    except (ValueError, LookupError) as exc:
        raise ScenarioFormatError(str(exc)) from None

    mechanism = None
    if "mechanism" in raw:
        mechanism = _parse_mechanism(raw["mechanism"])
    grid = None
    if "grid" in raw:
        _expect_keys(raw["grid"], "grid", {"step", "max_value"})
        grid = GridSpec(
            _expect_int(raw["grid"]["step"], "grid step"),
            _expect_int(raw["grid"]["max_value"], "grid max_value"),
        )
    generator = raw.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise ScenarioFormatError("generator metadata must be an object")
    return ScenarioDoc(scenario, mechanism, grid, generator)


def _valuation_to_json(valuation: BpValuation):
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


def _blockset_to_json(blockset: Blockset):
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


def _mechanism_to_json(mech: Mechanism):
    out = {"preset": mech.preset, "allocation": mech.allocation.value}
    if mech.base_fee is not None:
        out["base_fee"] = mech.base_fee
        out["eligibility"] = mech.eligibility.value
    return out


def _doc_to_json(doc: ScenarioDoc):
    scenario = doc.scenario
    raw = {
        "schema_version": SCHEMA_VERSION,
        "transactions": [
            {"id": tx.tx_id, "size": tx.size, "valuation": tx.valuation, "bid": tx.bid}
            for tx in scenario.transactions
        ],
        "bp_valuation": _valuation_to_json(scenario.bp_valuation),
        "blockset": _blockset_to_json(scenario.blockset),
    }
    if scenario.rng_seed is not None:
        raw["seed"] = scenario.rng_seed
    if doc.mechanism is not None:
        raw["mechanism"] = _mechanism_to_json(doc.mechanism)
    if doc.grid is not None:
        raw["grid"] = {"step": doc.grid.step, "max_value": doc.grid.max_value}
    if doc.generator is not None:
        raw["generator"] = doc.generator
    return raw


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_doc_to_json(doc), sort_keys=True, indent=2) + "\n"


def scenario_digest(scenario: Scenario) -> str:
    """Short stable fingerprint of the world itself (no mechanism, no grid).

    Computed once per world and kept on the frozen scenario.
    """
    digest = scenario._digest
    if digest is None:
        text = serialize_scenario(ScenarioDoc(scenario))
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        object.__setattr__(scenario, "_digest", digest)
    return digest


def load_scenario_file(path) -> ScenarioDoc:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from None
    return parse_scenario_text(text)


def write_scenario_file(path, doc: ScenarioDoc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(doc))
