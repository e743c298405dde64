"""Batch command-line interface.

Subcommands mirror the pipeline stages: ingest, synth, train, weights,
retrain, allocate, evaluate, compare. Outputs are JSON-shaped reports and
CSV tables; a run with a fixed config and seed writes byte-identical
files. Errors exit nonzero with a categorized message on stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, SchemaError, StockAllocError
from .forest import Forest, ForestParams, train_forest
from .ingest import (
    FeatureTable,
    build_feature_table,
    clean_records,
    group_rows,
    net_requirement,
    parse_records,
    write_exclusions_csv,
    write_rejects_csv,
)
from .pipeline import (
    RunConfig,
    compare,
    evaluate,
    model_samples,
    prepare_table,
    report_to_json,
    solve_products,
    write_breakdown_csv,
)
from .synth import TwoClassScenario, generate
from .weights import (
    DEFAULT_BUDGET_FRACTION,
    WeightConfig,
    WeightReport,
    apply_report,
    budgets_from_fraction,
    compute_weights,
)

_EXIT_BY_CATEGORY = {"config": 2, "schema": 2, "data": 3, "shape": 3, "solver": 4, "internal": 4}


def load_config_file(path):
    """Read a config file: JSON object, or simple `key = value` lines.

    Text that is not valid JSON or a JSON value that is not an object is
    a ConfigError naming the file (and the line, for bad JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}, line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return config
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}, expected key = value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _config_int(value):
    """An integer setting: a JSON integer (or integral float), a `key = value`
    string, or None; anything else is passed on for ForestParams to reject."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _forest_params(cfg):
    """ForestParams from a config section; a bad value is a ConfigError."""
    fields = {}
    try:
        for key in ("n_trees", "max_depth", "features_per_split"):
            if key in cfg:
                fields[key] = _config_int(cfg[key])
        if "min_leaf_weight" in cfg:
            fields["min_leaf_weight"] = float(cfg["min_leaf_weight"])
        if "criterion" in cfg:
            fields["criterion"] = str(cfg["criterion"])
        return ForestParams(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"forest params: {exc}") from exc


def _weight_config(cfg, args):
    """WeightConfig from a config section; a bad value is a ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"weight config: expected an object, got {cfg!r}")
    fields = {}
    try:
        for key in ("jacobian_mode", "normalization", "expansion_point"):
            if key in cfg:
                fields[key] = str(cfg[key])
        for key in ("fd_step", "weight_floor"):
            if cfg.get(key) is not None:
                fields[key] = float(cfg[key])
        if cfg.get("inventory_feature") is not None:
            feature = _config_int(cfg["inventory_feature"])
            if not isinstance(feature, int):
                raise ConfigError(
                    f"weight config: inventory_feature must be an integer, got {feature!r}"
                )
            fields["inventory_feature"] = feature
        if getattr(args, "jacobian", None):
            fields["jacobian_mode"] = args.jacobian
        return WeightConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"weight config: {exc}") from exc


def cmd_ingest(args):
    cfg = load_config_file(args.config) if args.config else {}
    schema = cfg.get("schema", cfg if cfg and "scenario" not in cfg else None)
    records, rejects = parse_records(args.csv, schema=schema)
    kept, exclusions = clean_records(records, outlier_multiplier=args.outlier_multiplier)
    table = build_feature_table(kept, lag_months=args.lag_months)
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    write_rejects_csv(os.path.join(out, "rejects.csv"), rejects)
    write_exclusions_csv(os.path.join(out, "exclusions.csv"), exclusions)
    print(
        f"ingested {len(records)} records ({len(rejects)} rejects, "
        f"{len(exclusions)} excluded), wrote {len(table)} feature rows"
    )
    return 0


def cmd_synth(args):
    cfg = load_config_file(args.config) if args.config else {}
    scen_cfg = dict(cfg.get("scenario", {}))
    if args.seed is not None:
        scen_cfg["seed"] = args.seed
    if args.budget_fraction is not None:
        scen_cfg["budget_fraction"] = args.budget_fraction
    scenario = TwoClassScenario.from_dict(scen_cfg)
    table, truth = generate(scenario, periods=args.periods)
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    with open(os.path.join(out, "ground_truth.csv"), "w", encoding="utf-8") as fh:
        fh.write("facility_id,product_id,period,true_mean_demand\n")
        for i in range(len(table)):
            fh.write(
                f"{table.facility_ids[i]},{table.product_ids[i]},"
                f"{table.periods[i]},{float(truth[i])!r}\n"
            )
    print(f"generated {len(table)} rows over {args.periods} periods")
    return 0


def cmd_train(args):
    cfg = load_config_file(args.config) if args.config else {}
    table = FeatureTable.from_csv(args.features)
    forest = train_forest(table, params=_forest_params(cfg), seed=args.seed or 0)
    forest.save(args.out)
    print(f"trained forest with {forest.n_trees} trees on {len(table)} rows -> {args.out}")
    return 0


def cmd_weights(args):
    cfg = load_config_file(args.config) if args.config else {}
    table = FeatureTable.from_csv(args.features)
    model = Forest.load(args.model)
    wcfg = _weight_config(cfg.get("weight_config", {}), args)
    budgets = budgets_from_fraction(
        table, args.budget_fraction, inventory_feature=wcfg.inventory_feature
    )
    report = compute_weights(table, model, budgets, wcfg)
    report.to_csv(args.out)
    print(f"wrote {len(report)} weights -> {args.out}")
    return 0


def cmd_retrain(args):
    cfg = load_config_file(args.config) if args.config else {}
    table = FeatureTable.from_csv(args.features)
    report = WeightReport.from_csv(args.weights)
    reweighted = apply_report(table, report)
    forest = train_forest(reweighted, params=_forest_params(cfg), seed=args.seed or 0)
    forest.save(args.out)
    print(f"retrained forest on decision weights -> {args.out}")
    return 0


def cmd_allocate(args):
    table = FeatureTable.from_csv(args.features)
    model = Forest.load(args.model)
    prepared = prepare_table(
        table, args.eval_period, args.budget_fraction, inventory_feature=args.inventory_feature
    )
    if args.budget is not None:
        prepared = replace(prepared, budgets_eval={prepared.eval_period: args.budget})
    products = {}
    for product, rows, budget, result in solve_products(prepared, model_samples(prepared, model)):
        products[product] = {
            "budget": budget,
            "facility_ids": [prepared.eval_table.facility_ids[i] for i in rows],
            "allocation": result.allocation.tolist(),
            "objective": result.objective,
            "fill_trace": [s.to_dict() for s in result.fill_trace],
        }
    payload = {"eval_period": prepared.eval_period, "products": products}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
    print(f"allocated {len(products)} product(s) -> {args.out}")
    return 0


def _read_allocation(path):
    """Load an `allocate` JSON file; a malformed one raises SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}, line {exc.lineno}: {exc.msg}") from exc
    try:
        for entry in payload["products"].values():
            if len(np.asarray(entry["allocation"], dtype=float)) != len(entry["facility_ids"]):
                raise ValueError("'allocation' and 'facility_ids' differ in length")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not an allocation file: {exc!r}") from exc
    return payload


def cmd_evaluate(args):
    allocation = _read_allocation(args.allocation)
    table = FeatureTable.from_csv(args.features)
    prepared = prepare_table(
        table, allocation.get("eval_period"), inventory_feature=args.inventory_feature
    )
    eval_table = prepared.eval_table
    groups = group_rows(eval_table.product_ids)
    allocations, realized = {}, {}
    for product, entry in sorted(allocation["products"].items()):
        rows = groups.get(product, [])
        demand = net_requirement(eval_table, rows, eval_table.y[rows], args.inventory_feature)
        by_facility = dict(zip((eval_table.facility_ids[i] for i in rows), demand))
        missing = [f for f in entry["facility_ids"] if f not in by_facility]
        if missing:
            raise ConfigError(f"realized demand missing for facilities {missing[:3]}...")
        realized[product] = np.array([by_facility[f] for f in entry["facility_ids"]])
        allocations[product] = np.array(entry["allocation"], dtype=float)
    text = json.dumps(evaluate(allocations, realized), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


def _run_config_from_args(args):
    cfg = load_config_file(args.config) if args.config else {}
    fields = {}
    if args.synth or "scenario" in cfg:
        scen_cfg = dict(cfg.get("scenario", {}))
        if args.seed is not None:
            scen_cfg.setdefault("seed", args.seed)
        fields["scenario"] = TwoClassScenario.from_dict(scen_cfg)
        fields["periods"] = int(cfg.get("periods", 24))
    if args.csv:
        fields["csv_path"] = args.csv
        fields["schema"] = cfg.get("schema")
    for key in ("lag_months", "rolling_window", "linear_samples"):
        if key in cfg:
            fields[key] = int(cfg[key])
    if "outlier_multiplier" in cfg:
        fields["outlier_multiplier"] = float(cfg["outlier_multiplier"])
    if "model" in cfg:
        fields["model"] = cfg["model"]
    if args.model:
        fields["model"] = args.model
    if "eval_period" in cfg:
        fields["eval_period"] = cfg["eval_period"]
    if args.eval_period:
        fields["eval_period"] = args.eval_period
    if "budget_fraction" in cfg:
        fields["budget_fraction"] = float(cfg["budget_fraction"])
    if args.budget_fraction is not None:
        fields["budget_fraction"] = args.budget_fraction
    if "inventory_feature" in cfg:
        fields["inventory_feature"] = cfg["inventory_feature"]
    fields["forest_params"] = _forest_params(cfg.get("forest_params", {}))
    fields["weight_config"] = _weight_config(cfg.get("weight_config", {}), args)
    if args.seed is not None:
        fields["seed"] = args.seed
    return RunConfig(**fields)


def cmd_compare(args):
    if bool(args.csv) == bool(args.synth):
        raise ConfigError("compare needs exactly one of --csv or --synth")
    config = _run_config_from_args(args)
    report, outcomes, weight_report, _ = compare(config)
    out = _ensure_out(args.out)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    write_breakdown_csv(os.path.join(out, "breakdown.csv"), outcomes)
    weight_report.to_csv(os.path.join(out, "weights.csv"))
    for product, entry in sorted(report["products"].items()):
        parts = []
        for name in report["policy_order"]:
            pct = entry["policies"][name]["unmet_demand_pct"]
            parts.append(f"{name}={pct:.2f}%" if pct is not None else f"{name}=n/a")
        print(f"{product}: " + "  ".join(parts))
    print(f"report written to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stockalloc",
        description="Decision-aware demand forecasting and inventory allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="config file (JSON or key = value lines)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget-fraction", dest="budget_fraction", type=float, default=None)
        p.add_argument(
            "--jacobian",
            choices=("identity", "diagonal_fd", "full_fd"),
            default=None,
            help="policy-Jacobian estimator for decision weights",
        )

    p = sub.add_parser("ingest", help="parse, clean, and featurize a stock ledger CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lag-months", dest="lag_months", type=int, default=10)
    p.add_argument("--outlier-multiplier", dest="outlier_multiplier", type=float, default=10.0)
    p.add_argument("--config", help="schema config: field = column lines or JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate the two-class synthetic dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--periods", type=int, default=24)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a forest on a feature table CSV")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output forest JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weights", help="compute decision weights for a feature table")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, help="forest JSON from `train`")
    p.add_argument("--out", required=True, help="output weights CSV path")
    p.set_defaults(func=cmd_weights, budget_fraction=DEFAULT_BUDGET_FRACTION)

    p = sub.add_parser("retrain", help="retrain the forest with decision weights")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("allocate", help="solve the allocation for the latest period")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-period", dest="eval_period", default=None)
    p.add_argument("--budget", type=float, default=None, help="absolute budget per product")
    p.add_argument("--inventory-feature", dest="inventory_feature", type=int, default=None)
    p.set_defaults(func=cmd_allocate, budget_fraction=DEFAULT_BUDGET_FRACTION)

    p = sub.add_parser("evaluate", help="score an allocation against realized demand")
    p.add_argument("--allocation", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--inventory-feature", dest="inventory_feature", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="run all policies and emit the evaluation report")
    add_common(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--synth", action="store_true", help="use the synthetic scenario")
    p.add_argument("--model", choices=("forest", "linear"), default=None)
    p.add_argument("--eval-period", dest="eval_period", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StockAllocError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return _EXIT_BY_CATEGORY.get(exc.category, 4)
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
