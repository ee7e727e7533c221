"""Producer-side block selection by exhaustive search.

Every feasible block is enumerated (against a configurable budget) and the
surplus-maximizing one is returned under a fixed canonical order: shorter
blocks first, then lexicographic on the id sequence.  The canonical order is
what makes tie-breaking deterministic and bid-independent everywhere else in
the package.  A knapsack dynamic program provides an independent route to
the same block for separable instances.
"""

from __future__ import annotations

import os
from itertools import permutations, repeat
from operator import attrgetter
from typing import Mapping, NamedTuple

from .core import (
    AdditiveValuation,
    Block,
    ExplicitBlockset,
    KnapsackBlockset,
    Money,
    PassiveValuation,
    Scenario,
    _check_int,
)
from .mechanisms import (
    _FREE,
    Mechanism,
    NoEligibleBlockError,
    UnsupportedInstanceError,
    _admitted,
    _require_bid,
    fee_class,
)

DEFAULT_BUDGET = 1 << 20
PERMUTATION_CAP = 8
BUDGET_ENV_VAR = "TFMLAB_BUDGET"


class EnumerationBudgetError(RuntimeError):
    """Enumerating the blockset would exceed the block budget."""

    def __init__(self, budget):
        super().__init__(
            f"blockset enumeration exceeds the budget of {budget} blocks; "
            f"raise it via the budget argument or {BUDGET_ENV_VAR}"
        )
        self.budget = budget


class NoFeasibleBlockError(ValueError):
    """The transaction appears in no feasible block."""

    def __init__(self, tx_id):
        super().__init__(f"transaction {tx_id} appears in no feasible block")
        self.tx_id = tx_id


def resolve_budget(budget: int | None) -> int:
    """Explicit int argument (>= 1), else the TFMLAB_BUDGET env var, else
    the default."""
    if budget is not None:
        _check_int("budget", budget, minimum=1)
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"{BUDGET_ENV_VAR} must be >= 1")
        return value
    return DEFAULT_BUDGET


def canonical_key(block: Block):
    """Sort key of the canonical block order: length, then id sequence."""
    return (len(block.txs), block.txs)


def enumerate_blocks(
    scenario: Scenario,
    *,
    eligible: frozenset[int] | None = None,
    budget: int | None = None,
) -> tuple[Block, ...]:
    """All feasible blocks, optionally restricted to eligible transactions.

    Results are cached on the scenario per eligibility filter; the budget is
    re-checked on cache hits so a tighter limit still errors.  Feasibility
    reads only the transactions and the blockset, so a world derived by
    Scenario.with_valuation shares this cache with its parent and its
    siblings: each filter is enumerated once for all valuation variants.
    The plans built on these blocks hold producer values and stay per world.
    """
    budget = resolve_budget(budget)
    cache = scenario._enum_cache
    if eligible in cache:
        blocks = cache[eligible]
        if len(blocks) > budget:
            raise EnumerationBudgetError(budget)
        return blocks

    blockset = scenario.blockset
    if isinstance(blockset, ExplicitBlockset):
        blocks = tuple(
            b
            for b in blockset.blocks
            if eligible is None or eligible.issuperset(b.txs)
        )
        if len(blocks) > budget:
            raise EnumerationBudgetError(budget)
    else:
        blocks = _enumerate_knapsack(scenario, blockset, eligible, budget)
    cache[eligible] = blocks
    return blocks


def _enumerate_knapsack(scenario, blockset, eligible, budget):
    ids = blockset.candidate_ids
    if ids is None:
        ids = scenario.ids()
    ids = sorted(t for t in ids if eligible is None or t in eligible)
    sizes = [scenario.tx(t).size for t in ids]
    cap = blockset.max_total_size

    subsets = [()]
    chosen = []

    def grow(start, remaining):
        for j in range(start, len(ids)):
            if sizes[j] <= remaining:
                chosen.append(ids[j])
                subsets.append(tuple(chosen))
                if len(subsets) > budget:
                    raise EnumerationBudgetError(budget)
                grow(j + 1, remaining - sizes[j])
                chosen.pop()

    grow(0, cap)

    if not blockset.enumerate_permutations:
        return tuple(Block(s) for s in subsets)

    blocks = []
    for s in subsets:
        if len(s) > PERMUTATION_CAP:
            raise UnsupportedInstanceError(
                f"permutation mode supports blocks of at most {PERMUTATION_CAP} "
                f"transactions, found a feasible block of {len(s)}"
            )
        for p in permutations(s):
            blocks.append(Block(p))
            if len(blocks) > budget:
                raise EnumerationBudgetError(budget)
    return tuple(blocks)


def _eligible_weights(mech, bids, scenario, read=fee_class):
    """(eligibility filter, weights) of the bids, each checked once in
    transaction order: the ids whose read (fee_class, their contribution,
    by default) is not None (None under free eligibility), and each of
    those ids' read."""
    weights = {}
    for tx in scenario.transactions:
        c = read(mech, tx, _require_bid(bids, tx.tx_id))
        if c is not None:
            weights[tx.tx_id] = c
    return (None if mech.eligibility is _FREE else frozenset(weights)), weights


class _Group(NamedTuple):
    """The enumerated orderings of one member set.

    Fee contributions depend on the members only, so every ordering of a
    group scores its producer value plus one shared contribution sum.

    txs    the members, in the order of one of the orderings
    value  the highest producer value among the orderings, 0 in an
           unvalued plan
    top    every ordering worth value, in canonical order; in an unvalued
           plan, the canonical-first ordering alone
    first  the canonical-first ordering, which an unvalued read names
    """

    txs: tuple[int, ...]
    value: Money
    top: tuple[Block, ...]
    first: Block


def _plan(scenario: Scenario, eligible, blocks, valued) -> tuple[_Group, ...]:
    """The enumerated blocks grouped by member set, in order of first
    appearance, cached on the scenario per (eligibility filter, valued).

    Private values never depend on the bids, so a valued plan computes each
    block's producer value once per (scenario, eligibility).  An unvalued plan
    computes none: without the producer's value every ordering of a member
    set scores alike, and its canonical-first ordering is the one a tie
    goes to.  A valued plan keeps that ordering too, so one walk over it
    serves both reads.  The build touches only locals and stores a finished
    tuple, so concurrent builds of one key are harmless and store equal
    plans.
    """
    key = eligible, valued
    cache = scenario._plan_cache
    plan = cache.get(key)
    if plan is not None:
        return plan
    value_of = scenario.bp_valuation.of
    acc = {}
    for b in blocks:
        members = frozenset(b.txs)
        g = acc.get(members)
        v = value_of(b) if valued else 0
        if g is None:
            acc[members] = [v, [b], b]
            continue
        if v > g[0]:
            g[0], g[1] = v, [b]
        elif v == g[0]:
            g[1].append(b)
        if canonical_key(b) < canonical_key(g[2]):
            g[2] = b
    plan = tuple(
        _Group(first.txs, v, tuple(sorted(top, key=canonical_key)) if valued else (first,), first)
        for v, top, first in acc.values()
    )
    cache[key] = plan
    return plan


def _partition(scenario, eligible, valued, grouped, items, split):
    """The pass items split by membership pattern of `split`: pattern k
    holds, in order, the items that hold split[j] exactly when bit j of k
    is set.  Cached on the scenario per (eligibility filter, valued, plan
    or blocks, split), since a sweep splits many passes on one split."""
    key = eligible, valued, grouped, split
    cache = scenario._plan_cache
    parts = cache.get(key)
    if parts is None:
        acc = [[] for _ in range(1 << len(split))]
        for it in items:
            acc[sum(1 << j for j, t in enumerate(split) if t in it.txs)].append(it)
        parts = cache[key] = tuple(map(tuple, acc))
    return parts


def weighted_pass(scenario, weights, *, valued, eligible=None, split=(), budget=None):
    """The one scoring loop, and the entry for fixed weights: the welfare
    optimum and the sweeps' class tuples, standard rules' sizes included.

    A block enumerated under `eligible` scores the producer's value for it
    (0 when not `valued`) plus its members' weights, which must cover them.
    The blocks are split by which of the transactions in `split` they hold:
    entry k of the returned list covers the blocks that hold split[j]
    exactly when bit j of k is set, as (maximum score, canonical-first
    block attaining it, all blocks attaining it in canonical order); an
    empty entry is (None, None, ()), and a lone tied item is returned
    without a sort.  The sweeps pass their split ids in ascending order,
    so the partition cache (_partition) is shared by every pass of one
    split set.  `valued` is one read, True or False,
    or the pair (True, False): both reads in one walk, with two
    accumulators, returned as the 2^len(split) valued entries followed by
    the unvalued ones, as if the read were one more split bit.

    Ordered blocksets (explicit, or knapsack permutations) can list several
    orderings of one member set, so there the pass scores the cached plan's
    groups and a tied group stands for its top orderings (its canonical-first
    one in an unvalued read).  A plain knapsack has one block per member set
    and scores its blocks directly; additive stakes are folded into the
    weights and passive constants into the base.  Its blocks skip the plan
    because a cold world builds the plan once and scores it only once or
    twice: routed through _plan, construct-cold kept its report bytes but
    read wall_s +26% (medians 1.583 -> 1.997 s) and task_s.tail +46% over 5
    alternating 5 s pairs on seed 0 (2 cores, Python 3.11.7); dsic-sweep
    read +5% and bpic-wide did not move.  Both reads, which only the warm
    sweeps ask for, always walk the valued plan: the unvalued score of a
    group is its valued score less its value.
    """
    blocks = enumerate_blocks(scenario, eligible=eligible, budget=budget)
    both = isinstance(valued, tuple)
    blockset = scenario.blockset
    grouped = both or isinstance(blockset, ExplicitBlockset) or blockset.enumerate_permutations
    valuation = scenario.bp_valuation
    base = None  # else per item: the group's value, or the block's value
    if grouped:
        valued = both or valued
        items = _plan(scenario, eligible, blocks, valued)
    else:
        items = blocks
        if not valued:
            base = 0
        elif isinstance(valuation, PassiveValuation):
            base = valuation.constant
        elif isinstance(valuation, AdditiveValuation):
            mu = valuation.values
            weights = {t: w + mu.get(t, 0) for t, w in weights.items()}
            base = 0

    parts = _partition(scenario, eligible, valued, grouped, items, split) if split else (items,)
    entries, unvalued = [], []
    for part in parts:
        if base is not None:
            bases = repeat(base)
        elif grouped:
            bases = map(attrgetter("value"), part)
        else:
            bases = map(valuation.of, part)
        best = ubest = None
        tied = utied = ()  # a list from the first item on
        for it, s in zip(part, bases):
            for t in it.txs:
                s += weights[t]
            # most items score below the best so far, and a single read
            # moves on from those after one comparison
            if best is not None and s < best:
                if not both:
                    continue
            elif best is not None and s == best:
                tied.append(it)
            else:
                best, tied = s, [it]
            if both:
                s -= it.value
                if ubest is None or s > ubest:
                    ubest, utied = s, [it]
                elif s == ubest:
                    utied.append(it)
        if len(tied) == 1:
            # a lone item needs no sort: a group's top orderings are
            # already in canonical order
            ties = tied[0].top if grouped else (tied[0],)
        else:
            if grouped:
                tied = [b for g in tied for b in g.top]
            ties = tuple(sorted(tied, key=canonical_key))
        entries.append((best, ties[0] if ties else None, ties))
        if both:
            if len(utied) == 1:
                ties = (utied[0].first,)
            else:
                ties = tuple(sorted([g.first for g in utied], key=canonical_key))
            unvalued.append((ubest, ties[0] if ties else None, ties))
    if both:
        entries += unvalued
    return entries


def split_pass(
    bids: Mapping[int, Money],
    scenario: Scenario,
    mech: Mechanism,
    *,
    valued: bool,
    read=fee_class,
    budget: int | None = None,
):
    """The entry that reads bids: the weighted_pass over the blocks their
    reads admit (mechanisms._admitted), as one (score, canonical-first
    block, tied blocks in canonical order) entry, the argmax that
    allocations, replays and constructions read.

    A block scores its members' reads (by default fee_class, their
    contributions) plus, when `valued`, the producer's value for it (see
    mechanisms.argmax_valued).  On ordered blocksets an unvalued entry
    lists each tied member set by its canonical-first ordering alone.
    Raises NoEligibleBlockError when no enumerated block is admitted."""
    _, weights = _eligible_weights(mech, bids, scenario, read)
    elig = _admitted(mech, scenario, weights, read, budget)
    (entry,) = weighted_pass(scenario, weights, valued=valued, eligible=elig, budget=budget)
    if entry[0] is None:
        raise NoEligibleBlockError(bids)
    return entry


def fold_split(entries, contribution: Money | None):
    """The (lacking, holding) entries of a pass split on one transaction
    read at one of its contributions: the better of `lacking` (blocks
    without it) and `holding` (blocks with it, scored without it) once the
    contribution is added to the latter, in the entry format.  None, for a
    transaction that is not eligible, reads `lacking` alone, so it also
    reads the one entry of an unsplit pass.

    On equal scores the tied blocks are merged in canonical order, so the
    entry is exactly what one pass at that bid would give.  An argmax
    allocation reads a bid only through this contribution, which never
    decreases in the bid, so one split pass settles every bid of the
    transaction at O(1) each.  A pass split on several transactions is
    read one transaction at a time, each fold halving its entries, in any
    order: the BPIC sweep splits off its last two walked users (every one,
    when fewer) and folds the second-to-last user's class, then the last
    one's (auditors._ClassPasses.folds).  The deviation sweeps read no tie
    list, so they fold nothing: _fold_read gives a fold's score and first
    block's key off the pair's _critical.
    """
    lacking = entries[0]
    if contribution is None:
        return lacking
    holding = entries[1]
    score = holding[0]
    if score is None:
        return lacking
    score += contribution
    if lacking[0] is None or score > lacking[0]:
        return score, *holding[1:]
    if score < lacking[0]:
        return lacking
    ties = tuple(sorted((*lacking[2], *holding[2]), key=canonical_key))
    return score, ties[0], ties


_INF = float("inf")


def _critical(lacking, holding):
    """The read that fold_split makes of a (lacking, holding) pair split on
    one user at a class c of it, from each entry's (score, canonical key of
    its first block) read, (None, None) when empty: (t, lacking score, its
    key, holding score, its key, the smaller of the two keys).  The fold
    reads lacking below t, holding plus c above it, and at t the lacking
    score with the smaller key (_fold_read); t is inf (-inf) when the
    holding (lacking) entry is empty."""
    lacking, lacking_key = lacking
    holding, holding_key = holding
    if holding_key is None:
        return _INF, lacking, lacking_key, None, None, None
    if lacking_key is None:
        return -_INF, None, None, holding, holding_key, None
    return lacking - holding, lacking, lacking_key, holding, holding_key, min(lacking_key, holding_key)


def _fold_read(critical, c):
    """The (score, canonical key of the first block) read of fold_split at
    the class c (None: not eligible) of a pair whose _critical is
    `critical`: the pair's critical bid decides the read with one or two
    comparisons, and no entry or tie list is built."""
    t, lacking, lacking_key, holding, holding_key, tie_key = critical
    if c is None or c < t:
        return lacking, lacking_key
    if c > t:
        return holding + c, holding_key
    return lacking, tie_key


def row_cuts(lacking, holding, classes):
    """The cuts of an argmax split on one transaction, one per class of a
    split-off user, from the (score, canonical key of the first block)
    read pairs of that user (lacking it, holding it) of the blocks lacking
    the transaction and of those holding it (scored without it); an empty
    entry reads (None, None).  A cut is False when no block holds the
    transaction, True when none lacks it, else (the lacking score less the
    holding one, whether the holding block comes first on the canonical
    key); splits with one cut include the same own bids.  Each is the cut
    of both pairs folded at the class by fold_split (None reads the lacking
    entries), read off each pair's critical class (_critical) as
    _fold_read does, inlined: a class costs a few comparisons and builds
    no entry (Myerson's critical bid, "Optimal Auction Design", 1981)."""
    t, lacking, lacking_key, with_last, with_last_key, tie_key = _critical(*lacking)
    u, held, held_key, held_last, held_last_key, held_tie_key = _critical(*holding)
    cuts = []
    for c in classes:
        # (score, key of the first block) of each fold at c
        if c is None or c < u:
            score, key = held, held_key
        elif c > u:
            score, key = held_last + c, held_last_key
        else:
            score, key = held, held_tie_key
        if key is None:
            cuts.append(False)
            continue
        if c is None or c < t:
            rival, rival_key = lacking, lacking_key
        elif c > t:
            rival, rival_key = with_last + c, with_last_key
        else:
            rival, rival_key = lacking, tie_key
        cuts.append(True if rival_key is None else (rival - score, key < rival_key))
    return cuts


def cut_includes(cut, read: Money) -> bool:
    """Whether an own bid of this read (own payment - reserve, or a
    standard rule's size) is included under a row_cuts cut.

    Valid for bids on the same side (admitted by the read or not) as the
    profile the split pass was computed from.  The read never decreases in
    the bid, so inclusion is a threshold: the critical bid.
    """
    if cut is True or cut is False:
        return cut
    gap, wins_tie = cut
    return read > gap or (read == gap and wins_tie)


def bps_argmax(
    bids: Mapping[int, Money],
    scenario: Scenario,
    mech: Mechanism,
    *,
    budget: int | None = None,
) -> Block:
    """The feasible block with maximum producer surplus, canonical-first, as
    the consonant recommended_block: one valued split_pass, unmemoized."""
    return split_pass(bids, scenario, mech, valued=True, budget=budget)[1]


def bps_argmax_additive_dp(bids: Mapping[int, Money], scenario: Scenario, mech: Mechanism) -> Block:
    """Knapsack route to the surplus argmax for separable instances.

    Requires an additive or passive producer valuation and a knapsack
    blockset without permutations.  Returns the identical block to the
    exhaustive search, including canonical tie-breaking: each capacity cell
    keeps the best (weight, canonical key) pair, and extending a partial
    solution by later ids preserves the key order.
    """
    blockset = scenario.blockset
    if not isinstance(blockset, KnapsackBlockset):
        raise UnsupportedInstanceError("dynamic program needs a knapsack blockset")
    if blockset.enumerate_permutations:
        raise UnsupportedInstanceError("dynamic program does not cover permutation mode")
    valuation = scenario.bp_valuation
    if isinstance(valuation, AdditiveValuation):
        mu = valuation.values
    elif isinstance(valuation, PassiveValuation):
        mu = {}
    else:
        raise UnsupportedInstanceError(
            "dynamic program needs an additive or passive producer valuation"
        )

    elig, contrib = _eligible_weights(mech, bids, scenario)
    ids = blockset.candidate_ids
    if ids is None:
        ids = scenario.ids()
    ids = sorted(t for t in ids if elig is None or t in elig)
    cap = blockset.max_total_size

    # dp[c] = best (weight, canonical key) over selections of total size <= c
    dp = [(0, (0, ()))] * (cap + 1)
    for t in ids:
        size = scenario.tx(t).size
        if size > cap:
            continue
        w = contrib[t] + mu.get(t, 0)
        for c in range(cap, size - 1, -1):
            prev_w, prev_key = dp[c - size]
            cand = (prev_w + w, (prev_key[0] + 1, prev_key[1] + (t,)))
            cur = dp[c]
            if cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
                dp[c] = cand
    return Block(dp[cap][1][1])


def value_range(scenario: Scenario, *, budget: int | None = None) -> tuple[Money, Money]:
    """(lowest, highest) producer value over the feasible blocks.

    Memoized on the world, not shared with its with_valuation worlds, since
    the values are the valuation's.  The enumeration is read on every call,
    so a budget tighter than the blockset still raises.
    """
    blocks = enumerate_blocks(scenario, budget=budget)
    span = scenario._value_range
    if span is None:
        values = list(map(scenario.bp_valuation.of, blocks))
        span = min(values), max(values)
        object.__setattr__(scenario, "_value_range", span)
    return span


def max_marginal_value(tx_id, scenario: Scenario, *, budget: int | None = None) -> Money:
    """Largest value the producer loses by deleting the transaction from a
    feasible block that contains it (order of the rest preserved).

    Needs a downward-closed blockset so the deletion stays feasible; that is
    automatic for knapsack blocksets and verified for explicit ones.
    """
    blocks = enumerate_blocks(scenario, budget=budget)
    explicit_members = (
        set(scenario.blockset.blocks)
        if isinstance(scenario.blockset, ExplicitBlockset)
        else None
    )
    valuation = scenario.bp_valuation
    best = None
    for b in blocks:
        if tx_id not in b.txs:
            continue
        rest = b.without(tx_id)
        if explicit_members is not None and rest not in explicit_members:
            raise UnsupportedInstanceError(
                f"marginal value needs a downward-closed blockset; deleting "
                f"tx {tx_id} from {b.txs} leaves an infeasible block"
            )
        gap = valuation.of(b) - valuation.of(rest)
        if best is None or gap > best:
            best = gap
    if best is None:
        raise NoFeasibleBlockError(tx_id)
    return best
