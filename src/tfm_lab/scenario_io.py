"""Versioned text format for scenario files.

A scenario file bundles one complete world: transactions, the producer's
valuation, the feasible blockset, and optionally the mechanism and audit
grid to run against it.  The format is strict JSON with integer money only.

The canonical text of a document is exactly the standard library's
rendering of its JSON value, json.dumps(value, sort_keys=True, indent=2),
plus one trailing newline.  serialize_scenario writes those bytes directly,
one emitter per schema node, so parse/serialize round-trips are byte-stable
and files can be diffed and digested.  Each field is checked once, by the
constructor of the object that holds it; the reader checks the file's
shape and the writer the free-form generator metadata.
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
    UnknownTransactionError,
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
        _expect_int(self.step, "grid step")
        _expect_int(self.max_value, "grid max_value")
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


def _expect_kind(obj, what, kinds):
    """obj["kind"], once obj is an object with exactly the keys of that
    kind: kinds maps each kind to its (required, optional) keys."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _expect_keys(obj, what, {"kind"})  # raises
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioFormatError(f"unknown {what} kind {kind!r}")
    _expect_keys(obj, f"{kind} {what}", {"kind"} | kinds[kind][0], kinds[kind][1])
    return kind


def _expect_list(value, what):
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{what} must be a list, got {value!r}")
    return value


_VALUATION_KEYS = {
    "passive": (set(), {"constant"}),
    "additive": (set(), {"values"}),
    "single_minded": ({"target_blocks", "value"}, set()),
    "table": (set(), {"entries"}),
}
_BLOCKSET_KEYS = {
    "explicit": ({"blocks"}, set()),
    "knapsack": ({"max_total_size"}, {"candidate_ids", "enumerate_permutations"}),
}


def _parse_valuation(obj) -> BpValuation:
    kind = _expect_kind(obj, "bp_valuation", _VALUATION_KEYS)
    if kind == "passive":
        return PassiveValuation(obj.get("constant", 0))
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
            parsed[tx_id] = amount
        return AdditiveValuation(parsed)
    if kind == "single_minded":
        targets = _expect_list(obj["target_blocks"], "single_minded target_blocks")
        return SingleMindedValuation(
            frozenset(Block(_expect_list(b, "single_minded target")) for b in targets), obj["value"]
        )
    parsed = {}
    for entry in _expect_list(obj.get("entries", []), "table entries"):
        _expect_keys(entry, "table entry", {"block", "value"})
        block = Block(_expect_list(entry["block"], "table entry block"))
        if block in parsed:
            raise ScenarioFormatError(f"table lists block {list(block.txs)} twice")
        parsed[block] = entry["value"]
    return TableValuation(parsed)


def _parse_blockset(obj) -> Blockset:
    if _expect_kind(obj, "blockset", _BLOCKSET_KEYS) == "explicit":
        blocks = _expect_list(obj["blocks"], "blockset blocks")
        return ExplicitBlockset(tuple(Block(_expect_list(b, "blockset block")) for b in blocks))
    candidates = obj.get("candidate_ids")
    if candidates is not None:
        _expect_list(candidates, "candidate_ids")
    return KnapsackBlockset(obj["max_total_size"], candidates, obj.get("enumerate_permutations", False))


def _parse_mechanism(obj) -> Mechanism:
    _expect_keys(obj, "mechanism", {"preset"}, {"base_fee", "eligibility", "allocation"})
    eligibility = Eligibility(obj.get("eligibility", "free"))
    allocation = Allocation(obj["allocation"]) if "allocation" in obj else None
    return Mechanism(obj["preset"], obj.get("base_fee"), eligibility, allocation)


def _parse_document(raw) -> ScenarioDoc:
    _expect_keys(raw, "scenario file", {"schema_version", "transactions", "bp_valuation", "blockset"}, _TOP_KEYS)
    version = _expect_int(raw["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )
    txs = []
    for entry in _expect_list(raw["transactions"], "transactions"):
        _expect_keys(entry, "transaction", {"id", "size", "valuation"}, {"bid"})
        valuation = entry["valuation"]
        txs.append(Transaction(entry["id"], entry["size"], valuation, entry.get("bid", valuation)))
    valuation = _parse_valuation(raw["bp_valuation"])
    blockset = _parse_blockset(raw["blockset"])
    scenario = Scenario(tuple(txs), valuation, blockset, raw.get("seed"))

    mechanism = _parse_mechanism(raw["mechanism"]) if "mechanism" in raw else None
    grid = None
    if "grid" in raw:
        _expect_keys(raw["grid"], "grid", {"step", "max_value"})
        grid = GridSpec(raw["grid"]["step"], raw["grid"]["max_value"])
    generator = raw.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise ScenarioFormatError("generator metadata must be an object")
    return ScenarioDoc(scenario, mechanism, grid, generator)


def parse_scenario_text(text: str) -> ScenarioDoc:
    """Read one scenario document.  Every field's type and range is checked
    by the constructor of the object that holds it; the reader checks only
    the file's shape, and raises any refusal as ScenarioFormatError."""
    try:
        raw = json.loads(text, parse_float=_reject_float, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    try:
        return _parse_document(raw)
    except ScenarioFormatError:
        raise
    except (ValueError, UnknownTransactionError) as exc:
        raise ScenarioFormatError(str(exc)) from None


# -- canonical writer ----------------------------------------------------------
#
# One emitter per schema node, each returning the node's text as json.dumps
# lays it out at that depth: `pad` is the indent of the line that holds the
# node's closing bracket.  Fixed-shape nodes are preformatted templates whose
# fields were validated when the core objects and the GridSpec were built, so
# "%d" renders them; only the free-form generator metadata is checked here.

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
_GRID = '{\n    "max_value": %d,\n    "step": %d\n  }'

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


def _ids(ids, pad):
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
            blocks = [(b, _ids(b.txs, "      ")) for b in targets]
            return _SINGLE_MINDED % (_wrap(_by_block(blocks), "    "), v)
        case TableValuation(entries=entries):
            rows = [
                (b, _TABLE_ENTRY % (_ids(b.txs, "        "), v))
                for b, v in entries.items()
            ]
            return _TABLE % _wrap(_by_block(rows), "    ")


def _blockset_text(blockset: Blockset) -> str:
    if isinstance(blockset, ExplicitBlockset):
        blocks = [_ids(b.txs, "      ") for b in blockset.blocks]
        return _EXPLICIT % _wrap(blocks, "    ")
    candidates = ""
    if blockset.candidate_ids is not None:
        candidates = _CANDIDATES % _ids(blockset.candidate_ids, "    ")
    perms = "true" if blockset.enumerate_permutations else "false"
    return _KNAPSACK % (candidates, perms, blockset.max_total_size)


def _mechanism_text(mech: Mechanism) -> str:
    fee = "" if mech.base_fee is None else _BASE_FEE % (mech.base_fee, mech.eligibility.value)
    return _MECHANISM % (mech.allocation.value, fee, _encode_str(mech.preset))


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

    Every field but the generator metadata was checked when its object was
    built, so each valuation and blockset kind has one rendering.  Raises
    ScenarioFormatError, naming the path, where the reader would reject
    that metadata (a float) or read it back to other text (non-string keys).
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
        parts += (',\n  "grid": ', _GRID % (doc.grid.max_value, doc.grid.step))
    if doc.mechanism is not None:
        parts += (',\n  "mechanism": ', _mechanism_text(doc.mechanism))
    parts.append(',\n  "schema_version": %d' % SCHEMA_VERSION)
    if scenario.rng_seed is not None:
        parts.append(',\n  "seed": %d' % scenario.rng_seed)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from None
    return parse_scenario_text(text)


def write_scenario_file(path, doc: ScenarioDoc):
    # serialize first: a document the writer refuses leaves the file as it was
    text = serialize_scenario(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
