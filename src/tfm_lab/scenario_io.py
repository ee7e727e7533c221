"""Versioned text format for scenario files.

A scenario file bundles one complete world: transactions, the producer's
valuation, the feasible blockset, and optionally the mechanism and audit
grid to run against it.  The format is strict JSON with integer money only.

The canonical text of a document is exactly the standard library's
rendering of its JSON value, json.dumps(value, sort_keys=True, indent=2),
plus one trailing newline.  serialize_scenario writes those bytes directly,
one emitter per schema node, and refuses what the reader would reject, so
parse/serialize round-trips are byte-stable and files can be diffed and
digested.
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


def _reject_constant(text):
    raise ScenarioFormatError(f"strict JSON has no {text}")


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
        raw = json.loads(text, parse_float=_reject_float, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
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


# -- canonical writer ----------------------------------------------------------
#
# One emitter per schema node, each returning the node's text as json.dumps
# lays it out at that depth: `pad` is the indent of the line that holds the
# node's closing bracket.  Fixed-shape nodes are preformatted templates whose
# integer fields were validated when the core objects were built, so "%d"
# renders them; fields that no constructor checks go through _int or _ids.

_encode_str = json.encoder.encode_basestring_ascii

_TX = '{\n      "bid": %d,\n      "id": %d,\n      "size": %d,\n      "valuation": %d\n    }'
_PASSIVE = '{\n    "constant": %d,\n    "kind": "passive"\n  }'
_ADDITIVE = '{\n    "kind": "additive",\n    "values": %s\n  }'
_SINGLE_MINDED = '{\n    "kind": "single_minded",\n    "target_blocks": %s,\n    "value": %d\n  }'
_TABLE = '{\n    "entries": %s,\n    "kind": "table"\n  }'
_TABLE_ENTRY = '{\n        "block": %s,\n        "value": %d\n      }'
_EXPLICIT = '{\n    "blocks": %s,\n    "kind": "explicit"\n  }'
_KNAPSACK = '{\n    %s"enumerate_permutations": %s,\n    "kind": "knapsack",\n    "max_total_size": %d\n  }'
_CANDIDATES = '"candidate_ids": %s,\n    '
_MECHANISM = '{\n    "allocation": "%s",\n    %s"preset": %s\n  }'
_BASE_FEE = '"base_fee": %d,\n    "eligibility": "%s",\n    '
_GRID = '{\n    "max_value": %s,\n    "step": %s\n  }'

# exact classes only; subclasses take the isinstance path of _metadata_text
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _wrap(items, pad, brackets="[]"):
    """A JSON array (or object) of already rendered items, one per line."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _int(value, what):
    return int.__repr__(_expect_int(value, what))


def _ids(ids, pad, what):
    for t in ids:
        if t.__class__ is not int:
            _expect_int(t, what)
    return _wrap(list(map(int.__repr__, ids)), pad)


def _by_block(rendered):
    """Texts of (block, text) pairs in (length, ids) block order."""
    rendered.sort(key=lambda pair: (len(pair[0].txs), pair[0].txs))
    return [text for _, text in rendered]


def _valuation_text(valuation: BpValuation) -> str:
    match valuation:
        case PassiveValuation(constant=c):
            return _PASSIVE % c
        case AdditiveValuation(values=vals):
            # The file's keys are strings and sort as strings ("10" < "2").
            # Sorting whole '"key": value' lines gives the same order: keys
            # are distinct and the closing quote sorts below '-' and digits.
            lines = sorted(['"%d": %d' % kv for kv in vals.items()])
            return _ADDITIVE % _wrap(lines, "    ", "{}")
        case SingleMindedValuation(targets=targets, value=v):
            blocks = [(b, _ids(b.txs, "      ", "single_minded target id")) for b in targets]
            return _SINGLE_MINDED % (_wrap(_by_block(blocks), "    "), v)
        case TableValuation(entries=entries):
            rows = [
                (b, _TABLE_ENTRY % (_ids(b.txs, "        ", "table block id"), v))
                for b, v in entries.items()
            ]
            return _TABLE % _wrap(_by_block(rows), "    ")
    raise TypeError(f"unsupported valuation {valuation!r}")


def _blockset_text(blockset: Blockset) -> str:
    if isinstance(blockset, ExplicitBlockset):
        blocks = [_ids(b.txs, "      ", "blockset block id") for b in blockset.blocks]
        return _EXPLICIT % _wrap(blocks, "    ")
    if not isinstance(blockset, KnapsackBlockset):
        raise TypeError(f"unsupported blockset {blockset!r}")
    perms = blockset.enumerate_permutations
    if perms is not True and perms is not False:
        raise ScenarioFormatError(f"enumerate_permutations must be true or false, got {perms!r}")
    candidates = ""
    if blockset.candidate_ids is not None:
        candidates = _CANDIDATES % _ids(blockset.candidate_ids, "    ", "candidate id")
    return _KNAPSACK % (candidates, "true" if perms else "false", blockset.max_total_size)


def _mechanism_text(mech: Mechanism) -> str:
    fee = "" if mech.base_fee is None else _BASE_FEE % (mech.base_fee, mech.eligibility.value)
    return _MECHANISM % (mech.allocation.value, fee, _encode_str(mech.preset))


def _grid_text(grid: GridSpec) -> str:
    return _GRID % (_int(grid.max_value, "grid max_value"), _int(grid.step, "grid step"))


def _path_text(path):
    return path[0] + "".join(f"[{key!r}]" for key in path[1:])


def _metadata_text(value, pad, path) -> str:
    """Free-form generator metadata: strings, integers, true/false, null,
    lists (or tuples) and objects with string keys.  Anything else could not
    be read back to the same text, so it is refused with its path."""
    render = _SCALAR_TEXT.get(value.__class__)
    if render is not None:
        return render(value)
    if isinstance(value, dict):
        try:
            keys = sorted(value)
            heads = [_encode_str(k) + ": " for k in keys]
        except TypeError:
            raise ScenarioFormatError(
                f"{_path_text(path)} has keys {list(value)!r}; object keys must be strings"
            ) from None
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        keys = range(len(value))
        heads = [""] * len(value)
        brackets = "[]"
    elif isinstance(value, str):
        return _encode_str(value)
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise ScenarioFormatError(
            f"{_path_text(path)} is {value!r}; metadata holds only strings, "
            f"integers, true/false, null, lists and objects"
        )
    inner = pad + "  "
    for i, key in enumerate(keys):
        item = value[key]
        render = _SCALAR_TEXT.get(item.__class__)
        heads[i] += render(item) if render is not None else _metadata_text(item, inner, path + (key,))
    return _wrap(heads, pad, brackets)


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Canonical text form: the bytes of json.dumps(..., sort_keys=True,
    indent=2) plus a trailing newline, written directly.

    Raises ScenarioFormatError, naming the field, where the reader would
    reject a value (a non-integer seed, grid field or block id, a float) or
    read generator metadata back to other text (non-string keys).
    """
    scenario = doc.scenario
    parts = [
        '{\n  "blockset": ',
        _blockset_text(scenario.blockset),
        ',\n  "bp_valuation": ',
        _valuation_text(scenario.bp_valuation),
    ]
    if doc.generator is not None:
        if not isinstance(doc.generator, dict):
            raise ScenarioFormatError("generator metadata must be an object")
        try:
            metadata = _metadata_text(doc.generator, "  ", ("generator",))
        except RecursionError:
            raise ScenarioFormatError("generator metadata contains itself or nests too deeply") from None
        parts += (',\n  "generator": ', metadata)
    if doc.grid is not None:
        parts += (',\n  "grid": ', _grid_text(doc.grid))
    if doc.mechanism is not None:
        parts += (',\n  "mechanism": ', _mechanism_text(doc.mechanism))
    parts.append(',\n  "schema_version": %d' % SCHEMA_VERSION)
    if scenario.rng_seed is not None:
        parts += (',\n  "seed": ', _int(scenario.rng_seed, "seed"))
    txs = [_TX % (tx.bid, tx.tx_id, tx.size, tx.valuation) for tx in scenario.transactions]
    parts += (',\n  "transactions": ', _wrap(txs, "  "), "\n}\n")
    return "".join(parts)


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
    # serialize first: a document the writer refuses leaves the file as it was
    text = serialize_scenario(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
