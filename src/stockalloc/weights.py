"""Decision-aware training weights from the allocation problem.

A first-order expansion of the downstream decision loss around the current
forecast turns into a per-row weighted absolute error: the weight of row n
is |(J^T g)_n| where g is the allocation-loss subgradient at the reference
allocation and J the sensitivity of the optimal allocation to the demand
input. Facilities whose sampled demand the reference allocation already
covers contribute zero and are kept alive only by the configurable floor.

The reference allocation is solved once per (period, product) group on the
initial (uniformly weighted) model's scenario samples, so the optimizer
runs a fixed, small number of times regardless of model size.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .allocator import AllocationProblem, shifted_allocations, solve_greedy
from .config import check, is_int
from .errors import ConfigError, MissingWeightError, ShapeError
from .forest import train_forest
from .ingest import group_rows, net_requirement, read_csv_table

JACOBIAN_MODES = ("identity", "diagonal_fd", "full_fd")
EXPANSION_POINTS = ("model", "realized")
DEFAULT_BUDGET_FRACTION = 0.7
WEIGHTS_CSV_HEADER = [
    "period", "facility_id", "product_id", "gradient", "raw_weight", "final_weight"
]


@dataclass(frozen=True)
class WeightConfig:
    jacobian_mode: str = "identity"
    fd_step: float | None = None  # None -> 1e-2 * mean demand scale
    weight_floor: float = 0.05
    normalization: str = "mean_one"  # or "none"
    expansion_point: str = "model"  # or "realized"
    inventory_feature: int | None = None  # net requirement = max(demand - inv, 0)

    def __post_init__(self):
        if self.jacobian_mode not in JACOBIAN_MODES:
            raise ConfigError(f"jacobian_mode must be one of {JACOBIAN_MODES}")
        if self.fd_step is not None and not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ConfigError("fd_step must be finite and positive")
        if not (math.isfinite(self.weight_floor) and self.weight_floor >= 0):
            raise ConfigError("weight_floor must be finite and >= 0")
        if self.normalization not in ("none", "mean_one"):
            raise ConfigError("normalization must be 'none' or 'mean_one'")
        if self.expansion_point not in EXPANSION_POINTS:
            raise ConfigError(f"expansion_point must be one of {EXPANSION_POINTS}")
        check(self, "inventory_feature",
              self.inventory_feature is None or is_int(self.inventory_feature, 0),
              "None or a feature index >= 0")


@dataclass
class WeightReport:
    """Row-aligned weights plus the diagnostics that produced them."""

    facility_ids: list
    product_ids: list
    periods: list
    gradients: np.ndarray
    raw_weights: np.ndarray
    final_weights: np.ndarray
    group_jacobian_mode: dict = field(default_factory=dict)
    config: WeightConfig | None = None

    def __len__(self):
        return len(self.facility_ids)

    def row_keys(self):
        return list(zip(self.facility_ids, self.product_ids, self.periods))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(WEIGHTS_CSV_HEADER)
            for i in range(len(self)):
                writer.writerow(
                    [
                        self.periods[i],
                        self.facility_ids[i],
                        self.product_ids[i],
                        repr(float(self.gradients[i])),
                        repr(float(self.raw_weights[i])),
                        repr(float(self.final_weights[i])),
                    ]
                )

    @classmethod
    def from_csv(cls, path):
        """Read a `to_csv` file; a malformed line raises SchemaError naming it."""
        _, cells, values = read_csv_table(path, "weights", lambda h: h == WEIGHTS_CSV_HEADER)
        values = np.array(values, dtype=float).reshape(len(cells), 3)
        return cls(
            facility_ids=[c[1] for c in cells],
            product_ids=[c[2] for c in cells],
            periods=[c[0] for c in cells],
            gradients=values[:, 0].copy(),
            raw_weights=values[:, 1].copy(),
            final_weights=values[:, 2].copy(),
        )


def loss_gradient(a, xi_star):
    """Subgradient of total shortfall in the allocation: -1 where demand
    strictly exceeds the allocation, 0 elsewhere (including at the kink)."""
    a = np.asarray(a, dtype=float)
    xi_star = np.asarray(xi_star, dtype=float)
    if a.shape != xi_star.shape or a.ndim != 1:
        raise ShapeError(f"allocation {a.shape} vs demand {xi_star.shape}")
    return np.where(xi_star > a, -1.0, 0.0)


def _fd_columns(problem, h, diagonal=False):
    """Central-difference sensitivity of the greedy optimum, one column per
    facility. A facility's perturbation shifts all K of its samples
    together: the derivative is with respect to the demand point, not any
    individual scenario. Perturbed samples are clipped at zero to stay a
    valid problem. The 2N perturbed optima come from one sort of the
    problem and an exact re-walk of its budget (`shifted_allocations`),
    bit for bit those of solving each perturbed problem. With `diagonal`
    only J[n, n] is filled."""
    up, down = shifted_allocations(problem, h, own_only=diagonal)
    J = (up - down) / (2.0 * h)
    return np.diag(J) if diagonal else J


def resolve_fd_step(config, demand_scale):
    if config.fd_step is not None:
        return config.fd_step
    return max(1e-2 * float(demand_scale), 1e-8)


def policy_jacobian(problem, config):
    """Estimate d a*_n / d xi_n' for the greedy allocation policy: the
    identity, or central differences (`_fd_columns`) from one sort of the
    problem, all of them (`full_fd`) or only the diagonal (`diagonal_fd`)."""
    N = problem.n_facilities
    if config.jacobian_mode == "identity":
        return np.eye(N)
    h = resolve_fd_step(config, problem.samples.mean())
    return _fd_columns(problem, h, diagonal=config.jacobian_mode == "diagonal_fd")


def lookup_budget(budgets, period, product):
    if (period, product) in budgets:
        return budgets[(period, product)]
    if period in budgets:
        return budgets[period]
    raise ConfigError(f"no budget for period {period!r}, product {product!r}")


def budgets_from_fraction(table, fraction, inventory_feature=None):
    """Per-(period, product) budget as a fraction of realized demand.

    When `inventory_feature` is set the realized quantity is the net
    requirement, demand minus that feature's on-hand inventory.
    """
    if fraction < 0:
        raise ConfigError("budget fraction must be nonnegative")
    budgets = {}
    for key, rows in group_rows(zip(table.periods, table.product_ids)).items():
        realized = net_requirement(table, rows, table.y[rows], inventory_feature)
        budgets[key] = fraction * float(realized.sum())
    return budgets


def compute_weights(train, initial_model, budget_per_period, config=None):
    """Derive per-row decision weights from the initial model's allocations.

    For every (period, product) group in the training table: build the
    scenario problem from the initial model's samples at that group's
    rows, solve it once, take the shortfall subgradient against the
    realized demand, push it through the configured Jacobian estimate,
    floor the absolute values, and optionally normalize the result to
    mean one. Groups whose facility panel is incomplete relative to the
    product's full panel fall back to the identity Jacobian.
    """
    config = config or WeightConfig()
    n = len(train)
    gradients = np.zeros(n)
    raw = np.zeros(n)
    modes = {}

    groups = group_rows(zip(train.periods, train.product_ids))
    panels = {}
    for (period, product), rows in groups.items():
        panels.setdefault(product, set()).update(
            train.facility_ids[i] for i in rows
        )

    for (period, product), rows in groups.items():
        xi_star = net_requirement(train, rows, train.y[rows], config.inventory_feature)
        budget = float(lookup_budget(budget_per_period, period, product))
        if config.expansion_point == "model":
            samples = initial_model.predict_samples(train.X[rows])
            samples = net_requirement(train, rows, samples, config.inventory_feature)
            problem = AllocationProblem.from_row_samples(samples, budget)
        else:
            problem = AllocationProblem(xi_star[None, :], budget)

        a_star = solve_greedy(problem).allocation
        g = loss_gradient(a_star, xi_star)

        mode = config.jacobian_mode
        full_panel = {train.facility_ids[i] for i in rows} == panels[product]
        if mode != "identity" and not full_panel:
            mode = "identity"
        J = policy_jacobian(problem, replace(config, jacobian_mode=mode))

        gradients[rows] = g
        raw[rows] = J.T @ g
        modes[(period, product)] = mode

    final = np.maximum(np.abs(raw), config.weight_floor)
    if config.normalization == "mean_one" and n:
        mean = final.mean()
        if mean > 0:
            final = final / mean

    return WeightReport(
        facility_ids=list(train.facility_ids),
        product_ids=list(train.product_ids),
        periods=list(train.periods),
        gradients=gradients,
        raw_weights=raw,
        final_weights=final,
        group_jacobian_mode=modes,
        config=config,
    )


def apply_report(train, report):
    """Return the table reweighted by the report's final weights."""
    if len(report) == len(train) and report.row_keys() == train.row_keys():
        return train.with_weights(report.final_weights)
    by_key = dict(zip(report.row_keys(), report.final_weights))
    weights = np.empty(len(train))
    for i, key in enumerate(train.row_keys()):
        if key not in by_key:
            raise MissingWeightError(f"report has no weight for row {key}")
        weights[i] = by_key[key]
    return train.with_weights(weights)


def retrain_weighted(train, report, params=None, seed=0):
    """Retrain the forest with the report's weights in place of the table's."""
    return train_forest(apply_report(train, report), params=params, seed=seed)
