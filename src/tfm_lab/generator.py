"""Seeded random scenario generation.

Instances are small on purpose: the auditors sweep full bid grids, so the
generator caps transaction counts rather than letting a caller ask for a
sweep that cannot finish.  Every draw comes from one random.Random seeded
by the caller, and the draw recipe is recorded in the document's generator
metadata so a reviewer can recreate the file from the seed alone.
"""

from __future__ import annotations

import random

from .core import (
    AdditiveValuation,
    KnapsackBlockset,
    PassiveValuation,
    Scenario,
    Transaction,
    _check_int,
)
from .scenario_io import GridSpec, ScenarioDoc

MAX_RANDOM_TXS = 8
SIZE_RANGE = (1, 3)
GENERATOR_NAME = "uniform-grid-v1"


def random_scenario(
    seed: int,
    *,
    n_txs: int = 3,
    grid: GridSpec | None = None,
    bp: str = "passive",
    all_fit: bool = False,
) -> ScenarioDoc:
    """Draw one scenario: sizes uniform on 1..3, positive valuations uniform
    on the grid, truthful default bids, knapsack blockset.

    bp is "passive" for a producer with no stake or "additive" for one whose
    per-transaction stakes are uniform on the grid (zero allowed).  With
    all_fit the capacity admits every transaction at once; otherwise it is
    uniform between the largest single size and the total size.
    """
    _check_int("n_txs", n_txs)
    if not 1 <= n_txs <= MAX_RANDOM_TXS:
        raise ValueError(
            f"n_txs must be between 1 and {MAX_RANDOM_TXS}, got {n_txs}"
        )
    if bp not in ("passive", "additive"):
        raise ValueError(f"bp must be 'passive' or 'additive', got {bp!r}")
    if grid is None:
        grid = GridSpec(1, 20)
    points = grid.points()
    positive = points[1:]
    if not positive:
        raise ValueError("grid has no positive points to draw valuations from")

    rng = random.Random(seed)
    txs = []
    for tx_id in range(n_txs):
        size = rng.randint(*SIZE_RANGE)
        valuation = rng.choice(positive)
        txs.append(Transaction(tx_id, size, valuation, valuation))
    if bp == "additive":
        stakes = {tx.tx_id: rng.choice(points) for tx in txs}
        bp_valuation = AdditiveValuation(
            {t: v for t, v in stakes.items() if v > 0}
        )
    else:
        bp_valuation = PassiveValuation(0)
    total = sum(tx.size for tx in txs)
    largest = max(tx.size for tx in txs)
    capacity = total if all_fit else rng.randint(largest, total)
    scenario = Scenario(
        tuple(txs),
        bp_valuation,
        KnapsackBlockset(capacity),
        rng_seed=seed,
    )
    metadata = {
        "name": GENERATOR_NAME,
        "seed": seed,
        "n_txs": n_txs,
        "size_range": list(SIZE_RANGE),
        "valuations": "uniform on positive grid points",
        "bids": "truthful",
        "bp": bp,
        "capacity": "total size" if all_fit else "uniform from max size to total size",
        "grid": {"step": grid.step, "max_value": grid.max_value},
    }
    return ScenarioDoc(scenario, None, grid, metadata)
