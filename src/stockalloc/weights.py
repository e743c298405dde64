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

The weights reach training through the feature table's own `weight`
column (`FeatureTable.with_weights`): `stockalloc weights` writes the
reweighted table, which `train` reads like any other, and the weights
CSV (`WeightReport.to_csv`) is an audit table that nothing reads back.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .allocator import AllocationProblem, shifted_allocations, solve_greedy
from .config import check, is_real
from .errors import ConfigError, DegenerateWeightsError, ShapeError
from .ingest import group_rows, net_requirement

JACOBIAN_MODES = ("identity", "diagonal_fd", "full_fd")
DEFAULT_BUDGET_FRACTION = 0.7
WEIGHTS_CSV_HEADER = [
    "period", "facility_id", "product_id", "gradient", "raw_weight", "final_weight"
]


@dataclass(frozen=True)
class WeightConfig:
    jacobian_mode: str = "identity"
    fd_step: float | None = None  # None -> 1e-2 * mean demand scale
    weight_floor: float = 0.05

    def __post_init__(self):
        check(self, "jacobian_mode", self.jacobian_mode in JACOBIAN_MODES,
              f"one of {JACOBIAN_MODES}")
        check(self, "fd_step", self.fd_step is None or (is_real(self.fd_step) and self.fd_step > 0),
              "finite and positive")
        check(self, "weight_floor", is_real(self.weight_floor) and self.weight_floor >= 0,
              "finite and >= 0")


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
    problem and one walk of its budget (`shifted_allocations`), bit for
    bit those of solving each perturbed problem. Full columns walk the
    budget again for each perturbed problem. With `diagonal` only J[n, n]
    is filled: a perturbed cut is read off the unshifted walk when a
    rounding margin (gamma_(2M+2K+4) times the budget plus the absolute
    segment sums, unshifted and shifted; derived at
    `allocator._certified_cuts`) settles it, and walked again only when
    it does not or when facility n binds it."""
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


def budgets_from_fraction(table, fraction):
    """Per-(period, product) budget as a fraction in (0, 1] of the realized
    requirement (`net_requirement`: demand, net of inventory when the table
    holds it)."""
    if not (is_real(fraction) and 0 < fraction <= 1):
        raise ConfigError(f"budget fraction must be in (0, 1], got {fraction!r}")
    budgets = {}
    for key, rows in table.groups.items():
        realized = net_requirement(table, rows, table.y[rows])
        budgets[key] = fraction * float(realized.sum())
    return budgets


def group_problems(table, budgets, samples_of):
    """The allocation problem of every (period, product) group, in key order.

    Yields ((period, product), rows, realized, problem): the group's table
    rows, its realized net requirement, and the problem whose samples are
    the net requirement of `samples_of(rows)`, an (n_rows, K) demand matrix,
    at budget `budgets[(period, product)]`. The groups are the table's
    `FeatureTable.groups`, grouped once per table, the period spelled
    "YYYY-MM" however the table spells it, as in `budgets_from_fraction`.
    A group without a budget is a ConfigError.
    """
    for key, rows in table.groups.items():
        if key not in budgets:
            raise ConfigError(f"no budget for period {key[0]!r}, product {key[1]!r}")
        realized = net_requirement(table, rows, table.y[rows])
        samples = net_requirement(table, rows, samples_of(rows))
        yield key, rows, realized, AllocationProblem(samples.T, float(budgets[key]))


def compute_weights(train, initial_model, budget_per_period, config=None):
    """Derive per-row decision weights from the initial model's allocations.

    For every (period, product) group in the training table
    (`group_problems`, netting by inventory when the table holds it):
    solve the scenario problem of the initial model's samples at that
    group's rows once, take the shortfall subgradient g against the
    realized requirement, push it through the configured Jacobian
    estimate, floor the absolute values, and scale the result to mean
    one. The identity Jacobian's product J^T g is g itself, so identity
    groups take g and build no Jacobian. Groups whose facility panel is
    incomplete relative to the product's full panel (fewer distinct
    facilities than the product has over all periods) fall back to the
    identity. An empty table is a DegenerateWeightsError.
    """
    config = config or WeightConfig()
    n = len(train)
    if not n:
        raise DegenerateWeightsError("empty training table")
    gradients = np.zeros(n)
    raw = np.zeros(n)
    modes = {}

    if config.jacobian_mode != "identity":
        facility, products = train.facility_codes.codes, train.product_codes

        def facilities(rows):  # distinct facilities among the rows
            return np.count_nonzero(np.bincount(facility[rows]))

        panel = {products.values[code]: facilities(rows)
                 for code, rows in group_rows(products.codes).items()}

    def samples_of(rows):
        return initial_model.predict_samples(train.X[rows])

    for (period, product), rows, xi_star, problem in group_problems(
            train, budget_per_period, samples_of):
        a_star = solve_greedy(problem).allocation
        g = loss_gradient(a_star, xi_star)

        mode = config.jacobian_mode
        if mode != "identity" and facilities(rows) != panel[product]:
            mode = "identity"

        gradients[rows] = g
        raw[rows] = g if mode == "identity" else policy_jacobian(problem, config).T @ g
        modes[(period, product)] = mode

    final = np.maximum(np.abs(raw), config.weight_floor)
    mean = final.mean()
    if mean > 0:
        final = final / mean

    return WeightReport(
        facility_ids=train.facility_ids,
        product_ids=train.product_ids,
        periods=train.periods,
        gradients=gradients,
        raw_weights=raw,
        final_weights=final,
        group_jacobian_mode=modes,
        config=config,
    )

