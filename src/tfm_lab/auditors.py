"""Brute-force incentive and welfare auditors.

Each auditor quantifies over a finite bid/valuation grid and hunts for
profitable deviations by exhaustive replay, so a PASS verdict means "no
violation found at this grid resolution" and a FAIL verdict comes with a
witness cell that reproduces the gain exactly when re-simulated.  BPIC of
a consonant rule, the producer's own argmax, holds by construction for
every bid; the open BPIC questions are the standard and revenue_max rules.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from graphlib import CycleError, TopologicalSorter
from itertools import chain, compress, filterfalse, groupby, product, repeat, starmap
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .core import Block, Money, Scenario, welfare
from .mechanisms import (
    EIP1559,
    RULES,
    Allocation,
    BiddingStrategy,
    CappedAtReserve,
    Eligibility,
    Mechanism,
    NoEligibleBlockError,
    UnsupportedInstanceError,
    _admitted,
    _clearing_size,
    allocation_read,
    apply_strategy,
    argmax_valued,
    bps,
    eligible,
    fee_class,
    is_base_fee_excessively_low,
    own_payment,
    payment,
    recommended_block,
    strategy_bid,
)
from .scenario_io import GridSpec as Grid
from .scenario_io import scenario_digest
from .solver import (
    NoFeasibleBlockError,
    _critical,
    _fold_read,
    canonical_key,
    cut_includes,
    enumerate_blocks,
    fold_split,
    max_marginal_value,
    resolve_budget,
    row_cuts,
    split_pass,
    value_range,
    weighted_pass,
)

PASS = "PASS"
FAIL = "FAIL"
# largest transaction count an exhaustive user-deviation sweep accepts
EXHAUSTIVE_LIMIT = 5


class ProfileSpaceError(ValueError):
    """The exhaustive other-bid profile space is too large to sweep."""

    def __init__(self, n, limit):
        super().__init__(
            f"scenario has {n} transactions; exhaustive deviation audits sweep "
            f"grid^(n-1) other-bid profiles and are limited to n <= {limit}. Pass "
            f"profile_samples (--samples on the command line) to audit a seeded sample instead"
        )


class Witness(NamedTuple):
    """One profitable deviation found by an audit.

    For user-deviation audits, cell_bids holds the other users' bids and the
    gain is the deviating user's utility improvement.  For producer audits,
    cell_bids holds the whole bid cell and the gain is the surplus the
    producer forgoes by following the recommendation.
    """

    scenario_digest: str
    tx_id: int
    valuation: Money
    recommended_bid: Money
    deviation_bid: Money
    utility_gain: Money
    cell_bids: tuple[tuple[int, Money], ...]


def witness_sort_key(w: Witness):
    return (
        w.scenario_digest,
        w.tx_id,
        -w.utility_gain,
        w.valuation,
        w.recommended_bid,
        w.deviation_bid,
        w.cell_bids,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Per-transaction outcome of the approximate-incentive bound audit."""

    scenario_digest: str
    tx_id: int
    nu: Money
    max_regret: Money
    within_bound: bool
    overbid_violations: int
    below_range_violations: int


@dataclass(frozen=True)
class TieConflict:
    """Tie-breaking between surplus-tied blocks admits no fixed order."""

    scenario_digest: str
    cycle: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AuditReport:
    kind: str
    verdict: str
    max_regret: Money
    witnesses: tuple[Witness, ...]
    cells_checked: int
    bound_checks: tuple[BoundCheck, ...] | None = None
    tie_conflicts: tuple[TieConflict, ...] = ()
    mode: str = "exhaustive"
    sampling_seed: int | None = None


class _Found:
    """The witnesses an audit found, kept per settled outcome.

    Every profile that reaches one outcome shares its witness rows,
    (-gain, valuation, recommended_bid, deviation_bid) tuples, so each
    outcome keeps its rows once, with the class tuples that reach it, each
    as the bid lists of its ids (in order): a tuple stands for every
    profile in the product of its lists.  An outcome is named by value, as
    what the audit settled for one (digest, tx): a deviation table's
    inclusion pattern over the looked-up bids (the cuts of one pattern
    share it), or a BPIC witness's (gain, bid); equal names have equal
    rows.  Every
    outcome of a (digest, tx) has the same ids, so profiles sort as their
    (id, bid) cells do.  Only the emitted witnesses are expanded (see
    _finalize_witnesses).  len() is the number of witnesses found: each row
    once per profile.
    """

    def __init__(self):
        # (digest, tx, outcome) -> (digest, tx, ids, rows, bid lists of
        # each class tuple)
        self.outcomes = {}

    def add(self, digest, t, outcome, ids, rows, lists):
        """Record that every profile of lists, the bid lists of ids, reaches
        the outcome `outcome` of (digest, t), whose witness rows are rows (a
        non-empty list, kept from the outcome's first add)."""
        self.reached(digest, t, outcome, ids, rows).append(lists)

    def reached(self, digest, t, outcome, ids, rows):
        """The list of the class tuples' bid lists that reach the outcome,
        for the caller to append to as add does."""
        entry = self.outcomes.get((digest, t, outcome))
        if entry is None:
            entry = self.outcomes[digest, t, outcome] = digest, t, ids, rows, []
        return entry[4]

    def __len__(self):
        return sum(
            len(rows) * sum(prod(map(len, lists)) for lists in tuples)
            for *_, rows, tuples in self.outcomes.values()
        )

    def max_gain(self):
        """The largest gain of any witness, 0 when none was found."""
        return max((-row[0] for *_, rows, _ in self.outcomes.values() for row in rows), default=0)


def _check_max_witnesses(max_witnesses):
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")


def _scenario_tuple(scenarios):
    """The audited scenarios, read once into a tuple so that a generator
    serves as a list does; TypeError names the offending type when they
    are not an iterable of core.Scenario objects."""
    if not isinstance(scenarios, Iterable):
        raise TypeError(f"scenarios must be an iterable, got {type(scenarios).__name__}")
    scenarios = tuple(scenarios)
    for sc in scenarios:
        if not isinstance(sc, Scenario):
            raise TypeError(f"scenarios must hold Scenario objects, got {type(sc).__name__}")
    return scenarios


_witness = partial(tuple.__new__, Witness)  # a Witness from its seven fields, in C


def _finalize_witnesses(found, max_witnesses):
    """The first max_witnesses witnesses of a _Found in witness_sort_key
    order.

    Walks (digest, tx) in order, then each distinct row in order, merged
    across the outcomes that hold it and once per copy within one, then
    that row's cells in order, and builds only the emitted Witnesses.
    Python steps run once per row: a row's profiles are sorted, its unseen
    ones made into (id, bid) cells, and its Witnesses built, each in one
    C-level pass, and the rows of one (digest, tx) share one cell object
    per profile."""
    _check_max_witnesses(max_witnesses)
    # (digest, tx) -> (ids, {row: the tuple lists that hold it, once per copy})
    by_tx = {}
    for digest, t, ids, rows, tuples in found.outcomes.values():
        sources = by_tx.setdefault((digest, t), (ids, {}))[1]
        for row in rows:
            sources.setdefault(row, []).append(tuples)
    emitted = []
    for digest, t in sorted(by_tx):
        ids, sources = by_tx[digest, t]
        cells = {}  # profile -> its (id, bid) cell, shared by the rows that emit it
        for row in sorted(sources):
            take = max_witnesses - len(emitted)
            if take <= 0:
                return tuple(emitted)
            neg_gain, v, rec, dev = row
            tuples = chain.from_iterable(sources[row])
            profiles = sorted(chain.from_iterable(starmap(product, tuples)))[:take]
            missing = list(filterfalse(cells.__contains__, profiles))
            cells.update(zip(missing, map(tuple, map(zip, repeat(ids), missing))))
            head = map(repeat, (digest, t, v, rec, dev, -neg_gain))
            emitted += map(_witness, zip(*head, map(cells.__getitem__, profiles)))
    return tuple(emitted)


_STANDARD_TOO_LOW = (
    "some grid cell or strategy bid makes the base fee excessively low for "
    "the standard eip1559 allocation; enlarge capacity or audit the "
    "consonant variant"
)


def _refuse_excessively_low(mech, scenarios, grid, message, strategy=None):
    """Raise UnsupportedInstanceError(message) before any sweep when the
    preset is eip1559, standard or consonant, and some cell the sweep looks
    up makes its base fee excessively low.

    A user-deviation sweep also looks up each user's own strategy bids,
    which can lie above the grid while the others bid on it.  The clearing
    set only grows with the bids, so it suffices to check every user at the
    grid max and, for each user, its largest own bid against the others at
    the grid max.
    """
    if mech.preset != EIP1559:
        return
    for scenario in scenarios:
        top = {t: grid.max_value for t in scenario.ids()}
        cells = [top]
        if strategy is not None:
            for tx in scenario.transactions:
                own = max(strategy_bid(strategy, v, tx) for v in grid.points())
                if own > grid.max_value:
                    cells.append({**top, tx.tx_id: own})
        if any(is_base_fee_excessively_low(mech.base_fee, scenario, c) for c in cells):
            raise UnsupportedInstanceError(message)


def _detect_cycle(edges):
    """Return one cycle (as a tuple of nodes) if the precedence digraph has
    any, else None: graphlib's depth-first search from each node of edges
    in order, through successors in canonical order."""
    sorter = TopologicalSorter()
    for node in edges:
        sorter.add(node)
    for node, successors in edges.items():
        for nxt in sorted(successors, key=canonical_key):
            sorter.add(nxt, node)
    try:
        sorter.prepare()
    except CycleError as e:
        return tuple(e.args[1])
    return None


def _class_groups(mech, scenario, ids, points, classify):
    """Per user of ids, its grid bids grouped by classify(mech, tx, bid),
    each group an ascending list, the groups ordered by their smallest
    bid."""
    groups = []
    for t in ids:
        tx = scenario.tx(t)
        by_class = {}
        for b in points:
            by_class.setdefault(classify(mech, tx, b), []).append(b)
        groups.append(by_class)
    return groups


def _class_tuples(mech, scenario, ids, points, classify):
    """(classes, bid lists) once per class tuple of the users ids, in the
    order of their first raw profile in product order: a tuple stands for
    the product of its lists."""
    groups = _class_groups(mech, scenario, ids, points, classify)
    return zip(product(*groups), product(*map(dict.values, groups)))


def _class_rows(groups):
    """The class tuples of _class_tuples by row, in order, from the users'
    class groups (_class_groups): a row is a run of tuples that differ
    only in the last user's class, all None or none None, as (key, lists,
    classes, last lists): the class tuple and bid lists of its first
    tuple, then the last user's classes on the row and their bid lists.
    With no user, one row of the empty tuple, classless."""
    if not groups:
        return [((), (), (), ())]
    *head, last = groups
    segments = [tuple(zip(*run)) for _, run in groupby(last.items(), lambda kv: kv[0] is None)]
    return (
        ((*key, classes[0]), (*lists, bids[0]), classes, bids)
        for key, lists in zip(product(*head), product(*map(dict.values, head)))
        for classes, bids in segments
    )


def _first_cell(ids, lists):
    """The first raw cell of a class tuple: {id: the first bid of its list}."""
    return dict(zip(ids, map(itemgetter(0), lists)))


# an entry of no block, as weighted_pass returns it
_EMPTY = (None, None, ())


class _ClassPasses:
    """The one block pass behind every argmax read of a class tuple.

    An argmax reads a cell only through its classes under one read (fee
    classes, or an allocation's: mechanisms.allocation_read), and a walked
    user's class only as a weight added to the blocks that hold it.
    So the last two walked users (every one, when fewer) are split off, and
    one weighted_pass per key and side, split on them and the held id,
    gives each of their classes.  A key reads each split-off user as its
    pass weight (0 when admitted, None when not), so it is the pass's
    weight vector, admitted ids weighing their class, and no bid is read;
    a one-class user read as its eligibility gives as many keys as its
    class would.  A kernel is read one of two ways, each keeping what it
    reads of a key's passes in passes:

    - folds (the BPIC sweep) recurses over depths, the class tuple at depth
      0: each folds one split-off user's class, the last first, into the
      entry pairs of the next (pairs), by fold_split.  passes keeps the
      entries; each other depth keeps only the entry pairs of the last key
      below it that it folded.  Product order brings the tuples of one key
      below depth 0 in one run (ineligible classes are the lowest bids),
      so an exhaustive walk folds each such key once.
    - reads (the deviation sweeps) builds no tie list: passes keeps the
      _critical of each entry pair of the second-to-last user, and a row
      of the last user's classes (_class_rows) reads them at that user's
      class by _fold_read, for solver.row_cuts.  The last row's reads are
      kept, so a sampled sweep, which groups its draws by row, reads each
      row once.

    sides lists the fixed bids of each pass of a key, in order; each maps
    the held id, if any, the same in every side, to a bid that sets only
    whether `read` admits it.  valued is the read of every pass, (True,
    False) for revenue_max's producer argmax and unvalued solve in one
    walk.  A pass is solved with its split ids in ascending order and read
    through `order`, a fixed permutation into the kernel's own bit order,
    None for the identity (every BPIC kernel: its walked ids ascend).
    store, when given, is shared by the kernels of one scenario and keeps
    each pass once, keyed by its split and its weight vector over the
    scenario's ids (the held id at 0 when its bid is admitted), which also
    fixes its eligibility filter.  A pass is solved when a tuple first
    needs it, so errors name the tuple's first raw cell with the message
    of a per-cell pass.
    """

    def __init__(self, mech, scenario, ids, budget, sides, valued, read=fee_class, store=None):
        self.mech, self.scenario, self.ids, self.budget = mech, scenario, ids, budget
        self.valued, self.read, self.store = valued, read, store
        self.scenario_ids = scenario.ids()
        # (fixed, the held id at weight 0 if the read admits its bid)
        self.sides = [
            (fixed, {t: 0 for t, b in fixed.items() if read(mech, scenario.tx(t), b) is not None})
            for fixed in sides
        ]
        # bit j of a kernel pattern is on[j]: the first split-off user, then
        # the next, then the held id; a side's unvalued entries, if any,
        # follow its valued ones as if the read were one more bit
        on = (*ids[-2:], *sides[0])
        self.split = tuple(sorted(on))
        order = [
            sum(1 << self.split.index(t) for j, t in enumerate(on) if k >> j & 1)
            for k in range(1 << len(on))
        ]
        if isinstance(valued, tuple):
            order += [i + len(order) for i in order]
        self.order = None if order == sorted(order) else order
        self.passes = {}
        # per depth, (the key of the depth below it last folded, its pairs)
        self.last = [(None, None)] * min(len(ids), 2)
        # (the last row read, its read pairs)
        self.row = None, None

    def folds(self, key, lists, depth=0):
        """The entries at the class tuple `key`, whose bid lists are
        `lists`: per side in order, per read, the entry lacking and then
        the one holding the held id (one entry when there is none).  At a
        depth d > 0 the last d users are read as their pass weight, and
        each entry is still split on the others."""
        if depth == len(self.last):
            entries = self.passes.get(key)
            if entries is None:
                entries = self.passes[key] = self._solve(key, lists)
            return entries
        return [fold_split(pair, key[-1 - depth]) for pair in self.pairs(key, lists, depth)]

    def pairs(self, key, lists, depth=0):
        """The entry pairs that folds reads at depth `depth` of the class
        tuple `key`: the entries one depth below, split on the user folded
        at `depth`, as (lacking, holding) pairs of that user in their
        order."""
        p = len(key) - 1 - depth
        lower = key[:p] + (None if key[p] is None else 0,) + key[p + 1 :]
        last, pairs = self.last[depth]
        if lower != last:
            below = self.folds(lower, lists, depth + 1)
            pairs = list(zip(below[0::2], below[1::2]))
            self.last[depth] = lower, pairs
        return pairs

    def reads(self, key, lists):
        """The read pairs of the row of the class tuple `key`, whose bid
        lists are `lists`: per side in order, the (lacking, holding) reads
        of the last user, of the entries lacking and then holding the held
        id, each read at the second-to-last user's class.  A missing
        split-off user (fewer than two walked users) reads as a None
        class, its holding entries empty."""
        row = (*key[:-1], None if key[-1] is None else 0) if key else key
        if row == self.row[0]:
            return self.row[1]
        c = key[-2] if len(key) > 1 else None
        lower = (*key[:-2], None if c is None else 0, row[-1]) if len(key) > 1 else row
        criticals = self.passes.get(lower)
        if criticals is None:
            entries = self._solve(lower, lists)
            for _ in range(2 - len(self.ids)):
                entries = [e for entry in entries for e in (entry, _EMPTY)]
            reads = [(s, None if b is None else canonical_key(b)) for s, b, _ in entries]
            criticals = [_critical(*pair) for pair in zip(reads[0::2], reads[1::2])]
            criticals = self.passes[lower] = list(zip(criticals[0::2], criticals[1::2]))
        pairs = [(_fold_read(a, c), _fold_read(b, c)) for a, b in criticals]
        self.row = row, pairs
        return pairs

    def _solve(self, key, lists):
        """Every side's weighted_pass entries at the weight vector `key`,
        in order, each in this kernel's bit order; a side without an
        eligible block raises at the tuple's first raw cell."""
        entries = []
        store, order, scenario_ids = self.store, self.order, self.scenario_ids
        weights = {t: k for t, k in zip(self.ids, key) if k is not None}
        for fixed, held in self.sides:
            w = {**weights, **held} if held else weights
            if store is None:
                side = self._pass(w, lists, fixed)
            else:
                name = self.split, tuple(map(w.get, scenario_ids))
                side = store.get(name)
                if side is None:
                    side = store[name] = self._pass(w, lists, fixed)
            entries += side if order is None else [side[i] for i in order]
        return entries

    def _pass(self, weights, lists, fixed):
        """The weighted_pass entries at weights, split on self.split; no
        eligible block raises at the first raw cell of lists and fixed."""
        mech, scenario, budget = self.mech, self.scenario, self.budget
        elig = _admitted(mech, scenario, weights, self.read, budget)
        side = weighted_pass(
            scenario, weights, valued=self.valued, eligible=elig, split=self.split, budget=budget
        )
        if all(entry[0] is None for entry in side):
            raise NoEligibleBlockError({**_first_cell(self.ids, lists), **fixed})
        return side


def audit_bpic(
    mech: Mechanism,
    scenarios: Iterable[Scenario],
    bid_grid: Grid,
    *,
    budget: int | None = None,
    max_witnesses: int = 1000,
) -> AuditReport:
    """Check the allocation rule against the producer's own interests.

    For every grid bid cell the recommendation must attain the exact maximum
    surplus (any strictly better block becomes a witness), and across cells
    the tie-breaking between surplus-tied blocks must be explainable by some
    fixed order on blocks (checked as acyclicity of observed preferences).

    Cost: a consonant rule (trivial included) names the producer's own
    argmax, so it passes by construction, at every bid, not only on the
    grid; it only raises the sweep's errors, at the first cell of each
    eligibility tuple.  Any other rule reads a cell only through its fee
    classes, so each class tuple (_class_tuples) is settled once for all
    its cells, witness gains too (bps is value plus the members' classes).
    The producer's argmax is read off _ClassPasses, and fpa's revenue_max
    off the unvalued read of the same walk; a standard rule off a second
    _ClassPasses of its size read, keyed by the clearing set the tuple fixes
    (a contribution is >= 0 exactly when the bid clears).  A tuple whose
    recommendation is tied adds the tie's edges, with no memo of tie
    lists: a set update per tuple.  A witness tuple gets one row per bid of
    the witness transaction's class, with that user's list narrowed to the
    bid, an outcome named by its (gain, bid) (_Found).  A negative
    max_witnesses raises ValueError before any cell is swept.
    """
    _check_max_witnesses(max_witnesses)
    scenarios = _scenario_tuple(scenarios)
    budget = resolve_budget(budget)
    standard = mech.allocation is Allocation.STANDARD
    if standard:
        _refuse_excessively_low(mech, scenarios, bid_grid, _STANDARD_TOO_LOW)
    points = bid_grid.points()
    found = _Found()
    conflicts = []
    cells = 0

    for scenario in scenarios:
        ids = scenario.ids()
        cells += len(points) ** len(ids)
        if argmax_valued(mech):
            gated = mech.eligibility is not Eligibility.FREE
            for key, lists in _class_tuples(mech, scenario, ids, points, eligible):
                elig = frozenset(compress(ids, key)) if gated else None
                if not enumerate_blocks(scenario, eligible=elig, budget=budget):
                    raise NoEligibleBlockError(_first_cell(ids, lists))
            continue
        digest = scenario_digest(scenario)
        # the producer's argmax, and revenue_max's unvalued one in the same walk
        passes = _ClassPasses(mech, scenario, ids, budget, [{}], True if standard else (True, False))
        recs = _ClassPasses(mech, scenario, ids, budget, [{}], False, _clearing_size)
        sizes = [scenario.tx(t).size for t in ids]
        edges = {}
        for key, lists in _class_tuples(mech, scenario, ids, points, fee_class):
            folds = passes.folds(key, lists)
            best_score, best, tied = folds[0]
            if standard:
                clears = tuple(s if k is not None and k >= 0 else None for s, k in zip(sizes, key))
                rec = recs.folds(clears, lists)[0][1]
            else:
                rec = folds[1][1]
            if rec in tied:
                if len(tied) > 1:  # tie lists hold distinct blocks
                    edges.setdefault(rec, set()).update(b for b in tied if b != rec)
                continue
            classes = dict(zip(ids, key))
            gain = best_score - scenario.bp_valuation.of(rec) - sum(map(classes.get, rec.txs))
            diff = sorted(set(best.txs) - set(rec.txs)) or sorted(set(rec.txs) - set(best.txs))
            tx_id = diff[0] if diff else (best.txs or rec.txs)[0]
            i = ids.index(tx_id)
            v = scenario.tx(tx_id).valuation
            for bid in lists[i]:
                narrowed = (*lists[:i], (bid,), *lists[i + 1 :])
                found.add(digest, tx_id, (gain, bid), ids, [(-gain, v, bid, bid)], narrowed)
        cycle = _detect_cycle(edges)
        if cycle is not None:
            conflicts.append(TieConflict(digest, tuple(b.txs for b in cycle)))

    verdict = PASS if not found.outcomes and not conflicts else FAIL
    return AuditReport(
        kind="bpic",
        verdict=verdict,
        max_regret=found.max_gain(),
        witnesses=_finalize_witnesses(found, max_witnesses),
        cells_checked=cells,
        tie_conflicts=tuple(conflicts),
    )


class _DeviationTables:
    """The deviation tables of one transaction of one scenario, each
    reduced to its cut, then to its inclusion pattern.

    A table maps every own bid an audit looks up (the grid, then the
    strategy bids in valuation order) to (included, own payment) against
    one profile of the other users' bids.  The allocation reads the own bid
    only through its read (mechanisms.allocation_read, the classify of the
    other users too): whether the read admits it (its side) and the read
    itself, a weight that never decreases in the bid.  So one cut per side
    fixes the table (see solver.cut_includes), and the table reads its cut
    only through which looked-up bids it includes (included): cuts with
    one pattern give one table.  A row of the other users' class tuples
    has its cuts read off one pair of read pairs per side
    (_ClassPasses.reads, then solver.row_cuts): one pass per side, split
    on this transaction and on the last two other users, the second-to-last
    read at its class by critical-bid arithmetic, whose admitted set is
    that of the side's first looked-up bid.  The passes come from `store`,
    shared by every deviator of the scenario.
    """

    def __init__(self, mech, scenario, tx, points, strategy_bids, budget, store):
        self.mech, self.scenario, self.classify = mech, scenario, allocation_read(mech)
        self.others = tuple(i for i in scenario.ids() if i != tx.tx_id)
        reads = {b: self.classify(mech, tx, b) for b in (*points, *strategy_bids)}
        first_bids = {}  # side -> its first looked-up bid, in lookup order
        for b, c in reads.items():
            first_bids.setdefault(c is not None, b)
        at = {side: i for i, side in enumerate(first_bids)}
        # (bid, index of its side's cut, its read, own payment); a side the
        # read does not admit has the cut False, so its None reads are
        # never compared
        self.spots = [(b, at[c is not None], c, own_payment(mech, tx, b)) for b, c in reads.items()]
        sides = [{tx.tx_id: b} for b in first_bids.values()]
        self.passes = _ClassPasses(
            mech, scenario, self.others, budget, sides, argmax_valued(mech), self.classify, store
        )

    def cuts(self, key, lists, classes):
        """The tuples of per-side cuts, in lookup order, of a row of the
        other users' class tuples (in the order of self.others, under
        self.classify; see _class_rows), one per class of the last user on
        it: the row's first class tuple and bid lists (first raw profile
        first) are key and lists.  With no other user, the one tuple's cut
        reads the pass entries as a None class would."""
        pairs = self.passes.reads(key, lists)
        classes = classes or (None,)
        # per side: the pairs lacking, then holding this transaction
        return list(zip(*[row_cuts(a, b, classes) for a, b in zip(pairs[0::2], pairs[1::2])]))

    def included(self, cut):
        """The inclusion pattern of a cut tuple: whether each looked-up
        bid, in lookup order, is included."""
        return tuple([cut_includes(cut[i], c) for _, i, c, _ in self.spots])

    def table(self, included):
        """{own bid: (included, own payment)} of every looked-up bid under
        an inclusion pattern."""
        return {
            b: (True, pay) if inc else (False, 0)
            for (b, _, _, pay), inc in zip(self.spots, included)
        }


def _scan(strategy, tx, points, dev, look, bound=None):
    """(rows, overbids, below_range, regret) of one deviation table: each
    grid valuation v's strategy bid sb (read by look) against every
    deviation in dev.  rows are (-gain, v, sb, bid); regret is the largest
    gain.  A valuation whose best gain exceeds max(bound, 0) (0 for None)
    adds the row of its first strictly best deviation, as DSIC asks.  With
    a bound, every profitable deviation above sb, or more than max(bound, 0)
    below it, is also an overbid or below-range row, and counted."""
    ranged = bound is not None
    bound = max(bound, 0) if ranged else 0
    rows = []
    overbids = below_range = regret = 0
    for v in points:
        sb = strategy_bid(strategy, v, tx)
        inc0, pay0 = look(sb)
        u0 = (v - pay0) if inc0 else 0
        best_gain, best_bid = 0, None
        for b, (inc, pay) in dev:
            gain = ((v - pay) if inc else 0) - u0
            if gain > 0:
                if ranged:
                    if b > sb:
                        overbids += 1
                        rows.append((-gain, v, sb, b))
                    if b < sb - bound:
                        below_range += 1
                        rows.append((-gain, v, sb, b))
                if gain > best_gain:
                    best_gain, best_bid = gain, b
        regret = max(regret, best_gain)
        if best_gain > bound:
            rows.append((-best_gain, v, sb, best_bid))
    return rows, overbids, below_range, regret


def _sweep(mech, strategy, scenarios, grid, budget, profile_samples, sampling_seed, bound_of=None):
    """The one deviation loop: (cells, found, checks) of the strategy
    against every profile of the other users' bids, for every transaction
    of every scenario.  found holds the witness rows (_Found); checks holds
    (digest, tx id, bound, regret, overbids, below_range) per (scenario,
    transaction) in input order.  Each table is scanned by _scan, bounded
    by bound_of(scenario, tx), read at the first scan, if bound_of is given.

    Cost: each scenario groups its users' grid bids by class once, and
    keeps one pass store that its deviators' _DeviationTables share, so no
    pass is solved twice in a scenario; the store is dropped when the
    scenario ends.  The loop runs once per row of the other users' class
    tuples (_class_rows), whose cuts _DeviationTables.cuts reads by
    arithmetic, with no fold or block key per class tuple.  Consecutive
    tuples of one cut form a run, whose last bid list concatenates theirs
    (a one-tuple run keeps its tuple's lists), so the settled lookup, the
    profile count and the witness store's append run once per run.  _scan
    runs once per distinct inclusion pattern of a (scenario, tx), which
    also names its _Found outcome, and its counts are scaled by the raw
    profiles of the runs whose cuts reach it.

    Sampled sweeps draw profile_samples profiles per transaction with
    replacement from a seeded stream and audit each distinct one once, as a
    one-tuple row of one-bid lists, grouped by row, then by class tuple,
    each in the order of its first draw: each row is read once, and each
    pass is still solved at its first draw.  A sample count below 1, an
    oversized exhaustive profile space and a standard eip1559 cell, the
    strategy's own bids included, with an excessively low base fee are
    refused before any scenario is swept.
    """
    sampled = profile_samples is not None
    if sampled and profile_samples < 1:
        raise ValueError(f"profile_samples must be >= 1, got {profile_samples}")
    for scenario in scenarios:
        n = len(scenario.ids())
        if n > EXHAUSTIVE_LIMIT and not sampled:
            raise ProfileSpaceError(n, EXHAUSTIVE_LIMIT)
    if mech.allocation is Allocation.STANDARD:
        _refuse_excessively_low(mech, scenarios, grid, _STANDARD_TOO_LOW, strategy)
    budget = resolve_budget(budget)

    points = grid.points()
    classify = allocation_read(mech)
    found = _Found()
    cells = 0
    checks = []
    for scenario in scenarios:
        digest = scenario_digest(scenario)
        ids = scenario.ids()
        groups = dict(zip(ids, _class_groups(mech, scenario, ids, points, classify)))
        store = {}
        for t in ids:
            tx = scenario.tx(t)
            strategy_bids = [strategy_bid(strategy, v, tx) for v in points]
            tables = _DeviationTables(mech, scenario, tx, points, strategy_bids, budget, store)
            others = tables.others
            if sampled:
                rng = random.Random(f"{sampling_seed}:{digest}:{t}")
                drawn = [tuple(rng.choice(points) for _ in others) for _ in range(profile_samples)]
                # row (the classes but the last, and whether it is None) ->
                # class tuple -> its distinct draws
                by_row = {}
                for p in dict.fromkeys(drawn):
                    key = tuple(classify(mech, scenario.tx(i), b) for i, b in zip(others, p))
                    row = key[:-1], key[-1:] == (None,)
                    by_row.setdefault(row, {}).setdefault(key, []).append(tuple((b,) for b in p))
                rows = (
                    (key, lists, key[-1:], lists[-1:])
                    for by_key in by_row.values()
                    for key, group in by_key.items()
                    for lists in group
                )
            else:
                rows = _class_rows([groups[i] for i in others])
            bound = None
            # cut -> [raw profiles reaching it, then its inclusion
            # pattern's scan: its _scan outcome and found's list of the bid
            # lists reaching it, None without witness rows]
            settled = {}
            scans = {}  # inclusion pattern -> (its _scan outcome, found's list)
            for key, lists, classes, last in rows:
                cuts = tables.cuts(key, lists, classes)
                head = lists[:-1]
                i = 0
                for cut, same in groupby(cuts):
                    j = i + len(list(same))
                    if j == i + 1:
                        run = lists if i == 0 else (*head, last[i])
                    else:
                        run = (*head, list(chain.from_iterable(last[i:j])))
                    i = j
                    entry = settled.get(cut)
                    if entry is None:
                        included = tables.included(cut)
                        scan = scans.get(included)
                        if scan is None:
                            table = tables.table(included)
                            dev = [(b, table[b]) for b in points]
                            if bound is None and bound_of is not None:
                                bound = bound_of(scenario, tx)
                            outcome = _scan(strategy, tx, points, dev, table.__getitem__, bound)
                            witness_rows = outcome[0]
                            if witness_rows:
                                reached = found.reached(digest, t, included, others, witness_rows)
                            else:
                                reached = None
                            scan = scans[included] = outcome, reached
                        entry = settled[cut] = [0, *scan]
                    entry[0] += prod(map(len, run))
                    if entry[2] is not None:
                        entry[2].append(run)
            profiles = overbids = below_range = regret = 0
            for count, (_, n_over, n_below, cut_regret), _ in settled.values():
                profiles += count
                overbids += n_over * count
                below_range += n_below * count
                regret = max(regret, cut_regret)
            cells += len(points) * profiles
            checks.append((digest, t, bound, regret, overbids, below_range))
    return cells, found, checks


def audit_dsic(
    mech: Mechanism,
    strategy: BiddingStrategy,
    scenarios: Iterable[Scenario],
    grid: Grid,
    *,
    budget: int | None = None,
    profile_samples: int | None = None,
    sampling_seed: int = 0,
    max_witnesses: int = 1000,
) -> AuditReport:
    """Hunt for a profitable unilateral bid deviation from the strategy.

    For every transaction, every grid valuation, and every grid profile of
    the other users' bids, the strategy bid's utility is compared against
    every grid deviation, with the producer following the allocation rule
    throughout.  Zero-gain deviations are not violations.

    Cost model: one _sweep with an unbounded _scan per distinct inclusion
    pattern, its argmax cuts read off _ClassPasses; only the emitted Witnesses are
    built.  Sampled profiles are drawn with replacement and repeats are
    audited once.  A profile_samples below 1 or a negative max_witnesses
    raises ValueError before any profile is swept.
    """
    _check_max_witnesses(max_witnesses)
    scenarios = _scenario_tuple(scenarios)
    cells, found, _ = _sweep(
        mech, strategy, scenarios, grid, budget, profile_samples, sampling_seed
    )
    sampled = profile_samples is not None
    max_regret = found.max_gain()
    return AuditReport(
        kind="dsic",
        verdict=PASS if max_regret == 0 else FAIL,
        max_regret=max_regret,
        witnesses=_finalize_witnesses(found, max_witnesses),
        cells_checked=cells,
        mode="sampled" if sampled else "exhaustive",
        sampling_seed=sampling_seed if sampled else None,
    )


def audit_approx_dsic_bound(
    mech: Mechanism,
    scenarios: Iterable[Scenario],
    grid: Grid,
    *,
    budget: int | None = None,
    profile_samples: int | None = None,
    sampling_seed: int = 0,
    max_witnesses: int = 1000,
) -> AuditReport:
    """Verify the bounded-regret guarantees of reserve-capped bidding.

    Under the consonant tipless mechanism (or consonant eip1559 when no grid
    cell makes the base fee excessively low), with every user bidding its
    value capped at the reserve: overbids never strictly help, bids more
    than the transaction's maximum marginal producer value below the capped
    bid never strictly help, and no deviation gains more than that marginal
    value.  A negative marginal value counts as 0 in both checks, since a
    regret of 0 never breaks the bound; the bound checks report it as is.
    Violations of any of the three are witnessed; lawful bounded regret is
    reported but is not a violation.  Profiles are swept as in
    audit_dsic, and the bound checks keep one entry per (scenario,
    transaction) in input order, a repeated scenario included.

    Cost model: audit_dsic's one _sweep, each _scan bounded by the
    transaction's marginal value.  A negative max_witnesses raises
    ValueError before any profile is swept.
    """
    _check_max_witnesses(max_witnesses)
    scenarios = _scenario_tuple(scenarios)
    if not (RULES[mech.preset].base_fee and argmax_valued(mech)):
        raise UnsupportedInstanceError(
            "the bounded-regret audit covers the consonant tipless and "
            "consonant eip1559 presets"
        )
    _refuse_excessively_low(
        mech,
        scenarios,
        grid,
        "a grid cell can make the base fee excessively low; the bounded-regret "
        "guarantee needs capacity for every clearing set on the grid",
    )

    budget = resolve_budget(budget)
    strategy = CappedAtReserve(mech.base_fee)

    def bound_of(scenario, tx):
        # _scan reads a negative nu as 0: a regret of 0 never breaks the bound
        try:
            return max_marginal_value(tx.tx_id, scenario, budget=budget)
        except NoFeasibleBlockError:
            return 0  # never includable, so deviations never matter

    cells, found, checks = _sweep(
        mech, strategy, scenarios, grid, budget, profile_samples, sampling_seed, bound_of
    )
    bound_checks = tuple(
        BoundCheck(digest, t, nu, regret, regret <= max(nu, 0), *counts)
        for digest, t, nu, regret, *counts in checks
    )
    violations = sum(
        c.overbid_violations + c.below_range_violations + (not c.within_bound)
        for c in bound_checks
    )
    sampled = profile_samples is not None
    return AuditReport(
        kind="approx-dsic",
        verdict=PASS if violations == 0 else FAIL,
        max_regret=max((c.max_regret for c in bound_checks), default=0),
        witnesses=_finalize_witnesses(found, max_witnesses),
        cells_checked=cells,
        bound_checks=bound_checks,
        mode="sampled" if sampled else "exhaustive",
        sampling_seed=sampling_seed if sampled else None,
    )


@dataclass(frozen=True)
class WelfareEntry:
    scenario_digest: str
    recommended: Block
    welfare_recommended: Money
    optimal: Block
    welfare_optimal: Money
    ratio: Fraction | None
    degenerate: bool


@dataclass(frozen=True)
class WelfareReport:
    entries: tuple[WelfareEntry, ...]
    min_ratio: Fraction | None


def welfare_argmax(scenario: Scenario, *, budget: int | None = None) -> Block:
    """The feasible block with maximum welfare, canonical-first on ties."""
    values = {tx.tx_id: tx.valuation for tx in scenario.transactions}
    return weighted_pass(scenario, values, valued=True, budget=budget)[0][1]


def audit_welfare_ratio(
    mech: Mechanism,
    strategy: BiddingStrategy,
    scenarios: Iterable[Scenario],
    *,
    budget: int | None = None,
) -> WelfareReport:
    """Exact welfare of the recommended block relative to the optimum.

    Bids follow the strategy applied to recorded valuations.  Ratios are
    exact rationals; a zero-welfare optimum yields ratio 1 when the
    recommendation's welfare is 0 too, and a degenerate flag otherwise.
    """
    scenarios = _scenario_tuple(scenarios)
    budget = resolve_budget(budget)
    entries = []
    min_ratio = None
    for scenario in scenarios:
        digest = scenario_digest(scenario)
        bids = apply_strategy(strategy, scenario)
        rec = recommended_block(mech, bids, scenario, budget=budget)
        opt = welfare_argmax(scenario, budget=budget)
        w_rec = welfare(rec, scenario)
        w_opt = welfare(opt, scenario)
        degenerate = False
        if w_opt > 0:
            ratio = Fraction(w_rec, w_opt)
        elif w_rec == w_opt:
            ratio = Fraction(1)
        else:
            ratio = None
            degenerate = True
        entries.append(WelfareEntry(digest, rec, w_rec, opt, w_opt, ratio, degenerate))
        if ratio is not None and (min_ratio is None or ratio < min_ratio):
            min_ratio = ratio
    return WelfareReport(tuple(entries), min_ratio)


def check_beta_commensurate(
    scenario: Scenario, beta: Fraction, *, budget: int | None = None
) -> bool:
    """Whether the producer's best private value covers beta times the best
    total user value over feasible blocks (exact rational comparison)."""
    beta = Fraction(beta)
    budget = resolve_budget(budget)
    _, best_bp = value_range(scenario, budget=budget)
    best_users = max(
        sum(scenario.tx(t).valuation for t in b.txs)
        for b in enumerate_blocks(scenario, budget=budget)
    )
    return Fraction(best_bp) >= beta * best_users


def replay_dsic_witness(
    mech: Mechanism,
    strategy: BiddingStrategy,
    scenario: Scenario,
    witness: Witness,
    *,
    budget: int | None = None,
) -> Money:
    """Re-simulate one user-deviation witness cell; returns the exact gain."""
    tx = scenario.tx(witness.tx_id)
    base = dict(witness.cell_bids)
    sb = strategy_bid(strategy, witness.valuation, tx)
    if sb != witness.recommended_bid:
        raise ValueError(
            f"witness strategy bid {witness.recommended_bid} does not match "
            f"{sb} for value {witness.valuation}"
        )

    def utility(bid):
        bids = dict(base)
        bids[tx.tx_id] = bid
        block = recommended_block(mech, bids, scenario, budget=budget)
        if tx.tx_id not in block:
            return 0
        return witness.valuation - payment(mech, block, bids, scenario)[tx.tx_id]

    return utility(witness.deviation_bid) - utility(sb)


def replay_bpic_witness(
    mech: Mechanism,
    scenario: Scenario,
    witness: Witness,
    *,
    budget: int | None = None,
) -> Money:
    """Re-simulate one producer witness cell; returns the surplus gain of
    the best block over the recommendation."""
    bids = dict(witness.cell_bids)
    rec = recommended_block(mech, bids, scenario, budget=budget)
    best_score = split_pass(bids, scenario, mech, valued=True, budget=budget)[0]
    return best_score - bps(rec, bids, scenario, mech)
