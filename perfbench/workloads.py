"""Benchmark workloads: seeded inputs for `stockalloc.pipeline.compare`.

Each workload turns an input seed into one `RunConfig` (plus, for the
ledger workload, a CSV file on disk and the fault counts the generator
injected into it). The program only ever sees the generated inputs. A
benchmark run derives several input seeds from its own seed
(`instance_seeds`).

Sizes are fixed so that one `compare` call takes about 1.5 s on a 2-core
machine, which lets a 36 s run time about 20 calls over several distinct
inputs; every later comparison depends on them staying the same.
"""

import os
from dataclasses import dataclass

import numpy as np

from stockalloc.forest import ForestParams
from stockalloc.pipeline import RunConfig
from stockalloc.synth import TwoClassScenario
from stockalloc.weights import WeightConfig

LEDGER_HEADER = (
    "facility_id,product_id,period,region,opening_balance,quantity_received,"
    "quantity_dispensed,adjustment,closing_balance"
)

# Per-cell fault probabilities of the dirty ledger. Outliers are drawn per
# series instead, at most one per series, so the leave-one-out median of a
# series is always one of its natural demands.
_P_MISSING = 0.03
_P_REJECT = 0.005
_P_UNBALANCED = 0.005
_P_ALL_ZERO = 0.004
_P_OUTLIER_SERIES = 0.03
_MIN_NATURAL = 12  # natural months a series keeps, so its median is natural
_OUTLIER_FACTOR = 100  # far above the cleaner's 10x-median rule

NATURAL, MISSING, REJECT, UNBALANCED, ALL_ZERO, OUTLIER = range(6)
FAULT_NAMES = {REJECT: "rejected", UNBALANCED: "unbalanced", ALL_ZERO: "all_zero", OUTLIER: "outlier"}


def generate_ledger(path, seed, n_facilities=100, n_products=30, n_months=24):
    """Write a seeded dirty stock ledger to `path` and return its counts.

    Natural rows are balanced, have integer quantities and a demand of at
    least 12 whose per-series max/min ratio is at most 2.5, so the cleaner
    never flags them. Every injected fault is unambiguous:

    - `missing`: the (facility, product, month) line is absent;
    - `rejected`: the line cannot be parsed (non-numeric or empty cell,
      bad period, negative quantity);
    - `unbalanced`: closing balance off by 7 units;
    - `all_zero`: every quantity is zero;
    - `outlier`: a balanced line whose demand is 100x the series level.

    Returns a dict with the number of lines of each kind plus `records`
    (lines that parse) and `rows` (natural lines, which become the
    feature-table rows).
    """
    rng = np.random.default_rng(seed)
    shape = (n_facilities, n_products, n_months)
    u = rng.random(shape)
    kind = np.full(shape, NATURAL)
    edges = np.cumsum([_P_MISSING, _P_REJECT, _P_UNBALANCED, _P_ALL_ZERO])
    for k, (lo, hi) in enumerate(zip(np.r_[0.0, edges[:-1]], edges), start=MISSING):
        kind[(u >= lo) & (u < hi)] = k
    # A series left with too few natural months is reset to all natural.
    kind[(kind == NATURAL).sum(axis=2) < _MIN_NATURAL] = NATURAL
    outlier_series = rng.random(shape[:2]) < _P_OUTLIER_SERIES
    pick = rng.random(shape)
    for f, p in zip(*np.nonzero(outlier_series)):
        natural = np.flatnonzero(kind[f, p] == NATURAL)
        if len(natural) > _MIN_NATURAL:
            kind[f, p, natural[int(pick[f, p, 0] * len(natural))]] = OUTLIER

    base = rng.uniform(20.0, 200.0, size=shape[:2])
    phase = rng.uniform(0.0, 2 * np.pi, size=n_products)
    season = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(n_months)[None, :] / 12 + phase[:, None])
    noise = rng.uniform(0.75, 1.25, size=shape)
    demand = np.maximum(np.rint(base[:, :, None] * season[None, :, :] * noise), 1).astype(int)
    adjust = rng.choice([-2, -1, 0, 0, 0, 0, 1, 2], size=shape)
    regions = [f"region_{f % 7}" for f in range(n_facilities)]
    periods = [f"{2019 + m // 12:04d}-{m % 12 + 1:02d}" for m in range(n_months)]
    bad_cells = ((6, "n/a"), (4, ""), (2, "2019-13"), (5, "-5"))  # (column, value)

    lines = [LEDGER_HEADER]
    counts = {"missing": 0, "rejected": 0, "unbalanced": 0, "all_zero": 0, "outlier": 0}
    n_rejects = 0
    for f in range(n_facilities):
        fac = f"fac_{f:03d}"
        for p in range(n_products):
            prod = f"prod_{p:02d}"
            target = int(round(2.5 * base[f, p]))
            opening = target
            for m in range(n_months):
                k = kind[f, p, m]
                d = int(demand[f, p, m])
                if k == OUTLIER:
                    d = _OUTLIER_FACTOR * int(round(base[f, p]))
                adj = int(adjust[f, p, m])
                received = max(0, target - opening + d)
                closing = opening + received - d + adj
                cells = [fac, prod, periods[m], regions[f], opening, received, d, adj, closing]
                opening_next = closing
                if k == MISSING:
                    counts["missing"] += 1
                    opening = opening_next
                    continue
                if k == REJECT:
                    column, value = bad_cells[n_rejects % len(bad_cells)]
                    cells[column] = value
                    n_rejects += 1
                elif k == UNBALANCED:
                    cells[8] = closing + 7
                elif k == ALL_ZERO:
                    cells[4:9] = [0, 0, 0, 0, 0]
                if k != NATURAL:
                    counts[FAULT_NAMES[k]] += 1
                lines.append(",".join(str(c) for c in cells))
                opening = opening_next
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    counts["rows"] = int((kind == NATURAL).sum())
    counts["records"] = counts["rows"] + counts["unbalanced"] + counts["all_zero"] + counts["outlier"]
    return counts


@dataclass
class Instance:
    """One generated input: the run configuration plus what is known about it."""

    config: RunConfig
    expected_ingest: dict | None = None  # generator counts, ledger inputs only


def _synth_forest(seed, workdir, small):
    if small:
        return Instance(RunConfig(
            scenario=TwoClassScenario(n_low=4, n_high=4, seed=seed), periods=4,
            forest_params=ForestParams(n_trees=4, max_depth=3), seed=seed,
        ))
    return Instance(RunConfig(scenario=TwoClassScenario(seed=seed), periods=4, seed=seed))


def _synth_linear_fd(seed, workdir, small):
    scenario = TwoClassScenario(n_low=4, n_high=4, seed=seed) if small else TwoClassScenario(seed=seed)
    return Instance(RunConfig(
        scenario=scenario, periods=3, model="linear",
        weight_config=WeightConfig(jacobian_mode="diagonal_fd"), seed=seed,
    ))


def _ledger_linear(seed, workdir, small):
    path = os.path.join(workdir, f"ledger-{'small-' if small else ''}{seed}.csv")
    sizes = dict(n_facilities=6, n_products=2, n_months=14) if small else dict(n_products=3)
    counts = generate_ledger(path, seed, **sizes)
    return Instance(RunConfig(csv_path=path, model="linear", seed=seed), counts)


# name -> make(seed, workdir, small) -> Instance; BENCHMARK.json gives each one's reason
WORKLOADS = {
    "synth_forest": _synth_forest,
    "synth_linear_fd": _synth_linear_fd,
    "ledger_linear": _ledger_linear,
}


def instance_seeds(seed, count):
    """`count` distinct input seeds derived from one benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build(name, seed, workdir, small=False):
    """Generate the inputs of workload `name` for `seed` (a small copy if asked)."""
    return WORKLOADS[name](seed, workdir, small)
