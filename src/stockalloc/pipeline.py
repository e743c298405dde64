"""End-to-end runs: decision-blind, decision-aware, rolling-average, oracle.

All policies share one evaluation protocol. A model is trained on every
period before the held-out evaluation period, its scenario samples feed
the per-product allocation problems, and the resulting allocations are
scored against the realized demand of the evaluation period as unmet
demand in percent. The decision-aware run differs from the decision-blind
run in exactly one thing: the training-row weights.

When the feature table has a `prior_inventory` feature
(`ingest.INVENTORY_COLUMN`; the synthetic scenario's feature 0 is one),
allocation and scoring are computed on the net requirement, demand minus
on-hand inventory floored at zero. Budgets follow the same convention. A
ledger's table has no such feature, so its demand is the requirement.
"""

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .allocator import solve_greedy
from .config import check, is_int, is_real
from .errors import ConfigError, EmptyInputError
from .forest import ForestParams, train_forest
from .ingest import (
    REQUIRED_FIELDS,
    build_feature_table,
    clean_records,
    last_per_key,
    parse_records,
    split_train_eval,
)
from .linear import train_linear
from .periods import period_index, period_str
from .synth import TwoClassScenario, generate
from .weights import (
    DEFAULT_BUDGET_FRACTION,
    WeightConfig,
    budgets_from_fraction,
    compute_weights,
    group_problems,
)

POLICY_ORDER = ("decision_blind", "decision_aware", "rolling_average", "oracle")


@dataclass
class RunConfig:
    csv_path: str | None = None
    schema: dict | None = None
    scenario: TwoClassScenario | None = None
    periods: int = 24  # synthetic generation length
    lag_months: int = 10
    outlier_multiplier: float = 10.0
    eval_period: str | None = None  # None -> latest period present
    budget_fraction: float = DEFAULT_BUDGET_FRACTION
    model: str = "forest"  # or "linear"
    forest_params: ForestParams = field(default_factory=ForestParams)
    linear_samples: int = 100
    weight_config: WeightConfig = field(default_factory=WeightConfig)
    rolling_window: int = 3
    seed: int = 0

    def __post_init__(self):
        if (self.csv_path is None) == (self.scenario is None):
            raise ConfigError("exactly one input source required: csv_path or scenario")
        schema = self.schema
        check(self, "schema", schema is None or (
            isinstance(schema, dict) and set(schema) <= set(REQUIRED_FIELDS)
            and all(isinstance(column, str) for column in schema.values())
        ), f"an object mapping ledger fields {list(REQUIRED_FIELDS)} to column names")
        for name, low in (("periods", 2), ("lag_months", 1), ("linear_samples", 1),
                          ("rolling_window", 1), ("seed", 0)):
            check(self, name, is_int(getattr(self, name), low), f"an integer >= {low}")
        multiplier, fraction = self.outlier_multiplier, self.budget_fraction
        check(self, "outlier_multiplier", is_real(multiplier) and multiplier > 1,
              "a finite number > 1")
        check(self, "budget_fraction", is_real(fraction) and 0 < fraction <= 1, "in (0, 1]")
        check(self, "model", self.model in ("forest", "linear"), "'forest' or 'linear'")

    def resolved_budget_fraction(self):
        """The share of each group's realized requirement that its budget covers."""
        return self.budget_fraction

    def training_signature(self):
        sig = {"model": self.model, "seed": self.seed}
        if self.model == "forest":
            sig["params"] = asdict(self.forest_params)
        else:
            sig["n_samples"] = self.linear_samples
        return sig


@dataclass
class PreparedRun:
    table: object
    train: object
    eval_table: object
    eval_period: str
    budgets_train: dict
    budgets_eval: dict
    rejects: list = field(default_factory=list)
    exclusions: list = field(default_factory=list)


def load(config):
    """The run's feature table, generated or ingested from the ledger CSV.

    Returns (table, rejected lines, excluded records, records parsed); a
    generated table has no rejects, exclusions or parsed records.
    `prepare` and `stockalloc ingest` both load here.
    """
    if config.scenario is not None:
        return generate(config.scenario, periods=config.periods)[0], [], [], 0
    records, rejects = parse_records(config.csv_path, schema=config.schema)
    kept, exclusions = clean_records(records, outlier_multiplier=config.outlier_multiplier)
    table = build_feature_table(kept, lag_months=config.lag_months)
    return table, rejects, exclusions, len(records)


def prepare(config):
    """Load the data (`load`), then split it and fix budgets (`prepare_table`)."""
    table, rejects, exclusions, _ = load(config)
    prepared = prepare_table(table, config.eval_period, config.budget_fraction)
    return replace(prepared, rejects=rejects, exclusions=exclusions)


def split_table(table, eval_period=None):
    """(train, eval_table, eval_period, train_rows): the table split at the
    evaluation period, and the training rows' positions in `table`.

    The evaluation period defaults to the table's latest and is normalized
    to "YYYY-MM". `prepare_table` and every `stockalloc` command that reads
    a feature table split here.
    """
    if not len(table):
        raise EmptyInputError("feature table has no rows")
    try:
        month = period_index(eval_period) if eval_period else int(table.months.max())
    except ValueError as exc:
        raise ConfigError(f"eval period: {exc}") from exc
    eval_period = period_str(month)
    train, eval_table, train_rows = split_train_eval(table, eval_period)
    return train, eval_table, eval_period, train_rows


def prepare_table(table, eval_period=None, budget_fraction=DEFAULT_BUDGET_FRACTION):
    """Split a feature table (`split_table`) and fix the budgets.

    Each (period, product) group's budget is `budget_fraction` of its
    realized requirement. `compare` prepares here.
    """
    train, eval_table, eval_period, _ = split_table(table, eval_period)
    return PreparedRun(
        table=table,
        train=train,
        eval_table=eval_table,
        eval_period=eval_period,
        budgets_train=budgets_from_fraction(train, budget_fraction),
        budgets_eval=budgets_from_fraction(eval_table, budget_fraction),
    )


def unmet_demand_pct(allocation, realized):
    """Unmet demand as percent of total; None when total demand is zero."""
    realized = np.asarray(realized, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    total = realized.sum()
    if total <= 0:
        return None
    return float(100.0 * np.maximum(realized - allocation, 0.0).sum() / total)


def mdape(predictions, realized):
    """Median absolute percentage error over rows with positive demand."""
    predictions = np.asarray(predictions, dtype=float)
    realized = np.asarray(realized, dtype=float)
    mask = realized > 0
    if not mask.any():
        return None
    ape = 100.0 * np.abs(predictions[mask] - realized[mask]) / realized[mask]
    return float(np.median(ape))


def evaluate(allocations, realized):
    """Per-product unmet-demand percentages for given allocation vectors."""
    report = {}
    for product in sorted(realized):
        report[product] = {
            "unmet_demand_pct": unmet_demand_pct(allocations[product], realized[product])
        }
    return report


@dataclass
class PolicyOutcome:
    policy: str
    per_product: dict
    training: dict

    def mean_unmet_pct(self):
        vals = [
            e["unmet_demand_pct"]
            for e in self.per_product.values()
            if e["unmet_demand_pct"] is not None
        ]
        return float(np.mean(vals)) if vals else None


def solve_products(eval_table, budgets, samples_of):
    """Solve each evaluation product's problem at its budget, in product order.

    `budgets` maps each ("YYYY-MM", product) group of `eval_table` to its
    budget. `samples_of(rows)` gives the (n_rows, K) demand samples of
    evaluation table rows; `weights.group_problems` nets them and builds the
    problem.
    Yields (product, rows of the evaluation table, realized requirement,
    problem, result). Every policy and `stockalloc allocate` allocate
    through this loop; only the latter reads the result's fill trace, so
    outcomes do not keep it.
    """
    for (_, product), rows, realized, problem in group_problems(eval_table, budgets, samples_of):
        yield product, rows, realized, problem, solve_greedy(problem)


def _allocate_policy(name, prepared, samples_of, training, point_of=None):
    """Score the allocations of `solve_products`; `point_of(rows)` gives the
    point forecasts that MdAPE reads, when the policy has them."""
    eval_table = prepared.eval_table
    per_product = {}
    for product, rows, realized, problem, result in solve_products(
            eval_table, prepared.budgets_eval, samples_of):
        per_product[product] = {
            "allocation": result.allocation,
            "objective": result.objective,
            "budget": problem.budget,
            "realized_requirement": realized,
            "unmet_demand_pct": unmet_demand_pct(result.allocation, realized),
            "mdape": None if point_of is None else mdape(point_of(rows), eval_table.y[rows]),
            "facility_ids": [eval_table.facility_ids[i] for i in rows],
        }
    return PolicyOutcome(policy=name, per_product=per_product, training=training)


def _model_policy(name, config, prepared, model, weights_label):
    X = prepared.eval_table.X
    training = dict(config.training_signature(), weights=weights_label)
    return _allocate_policy(name, prepared, lambda rows: model.predict_samples(X[rows]),
                            training, lambda rows: np.atleast_1d(model.predict_point(X[rows])))


def _train_model(config, table):
    if config.model == "forest":
        return train_forest(table, params=config.forest_params, seed=config.seed)
    return train_linear(table, n_samples=config.linear_samples)


def run_decision_blind(config, prepared=None, model=None):
    """Uniform-weight training, then optimize on the model's samples."""
    prepared = prepared or prepare(config)
    model = model or _train_model(config, prepared.train)
    return _model_policy("decision_blind", config, prepared, model, "uniform")


def run_decision_aware(config, prepared=None, initial_model=None):
    """Blind training, decision weights, weighted retrain, same protocol.

    Returns (outcome, weight_report)."""
    prepared = prepared or prepare(config)
    initial_model = initial_model or _train_model(config, prepared.train)
    report = compute_weights(prepared.train, initial_model, prepared.budgets_train,
                             config.weight_config)
    model = _train_model(config, prepared.train.with_weights(report.final_weights))
    label = f"decision_aware({config.weight_config.jacobian_mode})"
    outcome = _model_policy("decision_aware", config, prepared, model, label)
    return outcome, report


def rolling_forecasts(prepared, window):
    """Trailing-mean demand per evaluation row over the last `window` months.

    Only months actually present count toward the mean (a month with
    several training rows of one series reads the last); rows with no
    history forecast zero. A series is a (facility, product) pair of the
    evaluation table, read off both tables' codes. The series with k
    months of history are summed together, in month order, by one
    row-wise `np.add.reduce` and divided by k: the floats of `np.mean`
    over each series.
    """
    train, eval_table = prepared.train, prepared.eval_table
    first = period_index(prepared.eval_period) - window
    facilities, products = eval_table.facility_codes, eval_table.product_codes
    width = len(products.values)
    eval_pairs = facilities.codes.astype(np.int64) * width + products.codes
    series = last_per_key(eval_pairs, eval_pairs)[0]  # the distinct pairs, sorted
    recent = np.flatnonzero((train.months >= first) & (train.months < first + window))
    facility = train.facility_codes.take(recent).places_in(facilities.values)
    product = train.product_codes.take(recent).places_in(products.values)
    pairs = np.where((facility < 0) | (product < 0), -1, facility * width + product)
    codes = np.searchsorted(series, pairs)
    kept = codes < len(series)
    kept[kept] = series[codes[kept]] == pairs[kept]
    cells, rows = last_per_key(  # the last row of each (series, month), in that order
        codes[kept] * window + (train.months[recent[kept]] - first), recent[kept])
    values = train.y[rows]
    counts = np.bincount(cells // window, minlength=len(series))
    starts = np.cumsum(counts) - counts
    means = np.zeros(len(series))
    for k in set(counts.tolist()) - {0}:
        have = np.flatnonzero(counts == k)
        means[have] = np.add.reduce(values[starts[have, None] + np.arange(k)], axis=1) / k
    return means[np.searchsorted(series, eval_pairs)]


def run_rolling_average(config, prepared=None):
    """Trailing-mean point forecast over `config.rolling_window` months,
    allocated greedily (single scenario)."""
    prepared = prepared or prepare(config)
    window = config.rolling_window
    forecasts = rolling_forecasts(prepared, window)
    training = {"window": window, "weights": "none"}
    return _allocate_policy("rolling_average", prepared, lambda rows: forecasts[rows][:, None],
                            training, lambda rows: forecasts[rows])


def run_oracle(config, prepared=None):
    """Perfect foresight: allocate against the realized requirement itself."""
    prepared = prepared or prepare(config)
    y = prepared.eval_table.y
    training = {"weights": "perfect_foresight"}
    return _allocate_policy("oracle", prepared, lambda rows: y[rows][:, None], training)


def compare(config):
    """Run all four policies on one prepared dataset and assemble a report."""
    prepared = prepare(config)
    blind_model = _train_model(config, prepared.train)
    blind = run_decision_blind(config, prepared, model=blind_model)
    aware, weight_report = run_decision_aware(config, prepared, initial_model=blind_model)
    rolling = run_rolling_average(config, prepared)
    oracle = run_oracle(config, prepared)
    outcomes = {o.policy: o for o in (blind, aware, rolling, oracle)}

    products = {}
    for product, base in oracle.per_product.items():
        entry = {
            "total_requirement": float(base["realized_requirement"].sum()),
            "budget": base["budget"],
            "policies": {},
        }
        for name in POLICY_ORDER:
            p = outcomes[name].per_product[product]
            entry["policies"][name] = {
                "unmet_demand_pct": p["unmet_demand_pct"],
                "objective": p["objective"],
                "mdape": p["mdape"],
            }
        products[product] = entry

    report = {
        "eval_period": prepared.eval_period,
        "policy_order": list(POLICY_ORDER),
        "products": products,
        "training_configs": {name: outcomes[name].training for name in POLICY_ORDER},
        "config": {
            "model": config.model,
            "seed": config.seed,
            "budget_fraction": config.budget_fraction,
            "inventory_feature": prepared.table.inventory_feature,
            "weight_config": asdict(config.weight_config),
            "source": "scenario" if config.scenario is not None else config.csv_path,
        },
    }
    return report, outcomes, weight_report, prepared


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True)


def write_breakdown_csv(path, outcomes):
    """Per-facility shortfall breakdown across all policies."""
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        header = ["product", "facility_id", "realized_requirement"]
        for name in POLICY_ORDER:
            header += [f"{name}_allocation", f"{name}_shortfall"]
        writer.writerow(header)
        for product, base in outcomes[POLICY_ORDER[0]].per_product.items():
            for j, fac in enumerate(base["facility_ids"]):
                row = [product, fac, repr(float(base["realized_requirement"][j]))]
                for name in POLICY_ORDER:
                    p = outcomes[name].per_product[product]
                    alloc = float(p["allocation"][j])
                    short = max(float(p["realized_requirement"][j]) - alloc, 0.0)
                    row += [repr(alloc), repr(short)]
                writer.writerow(row)
