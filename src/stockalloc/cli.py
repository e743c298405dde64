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

from .config import load_config_file, load_section
from .errors import ConfigError, NotFoundError, SchemaError, StockAllocError
from .forest import Forest, ForestParams, train_forest
from .ingest import (
    FeatureTable,
    build_feature_table,
    clean_records,
    group_rows,
    net_requirement,
    parse_records,
    read_text,
    write_exclusions_csv,
    write_rejects_csv,
)
from .pipeline import (
    RunConfig,
    compare,
    evaluate,
    prepare_table,
    report_to_json,
    solve_products,
    write_breakdown_csv,
)
from .synth import TwoClassScenario, generate
from .weights import (
    DEFAULT_BUDGET_FRACTION,
    JACOBIAN_MODES,
    WeightReport,
    apply_report,
    budgets_from_fraction,
    compute_weights,
)

_EXIT_BY_CATEGORY = {"config": 2, "schema": 2, "data": 3, "shape": 3, "solver": 4, "internal": 4}


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _config(path):
    return load_config_file(path) if path else {}


def _with_flags(section, **flags):
    """`section` with the value of every flag that was given in place of its own.

    A section that is not an object is returned as it is, for
    `load_section` to reject."""
    if not isinstance(section, dict):
        return section
    return dict(section, **{key: value for key, value in flags.items() if value is not None})


def cmd_ingest(args):
    cfg = _config(args.config)
    schema = cfg.get("schema", cfg if cfg and "scenario" not in cfg else None)
    config = load_section(RunConfig, {"schema": schema}, "ingest", csv_path=args.csv,
                          lag_months=args.lag_months, outlier_multiplier=args.outlier_multiplier)
    records, rejects = parse_records(config.csv_path, schema=config.schema)
    kept, exclusions = clean_records(records, outlier_multiplier=config.outlier_multiplier)
    table = build_feature_table(kept, lag_months=config.lag_months)
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    write_rejects_csv(os.path.join(out, "rejects.csv"), rejects)
    write_exclusions_csv(os.path.join(out, "exclusions.csv"), exclusions)
    print(
        f"ingested {len(records)} records ({len(rejects)} rejects, "
        f"{len(exclusions)} excluded), wrote {len(table)} feature rows"
    )
    return 0


def _compare_config(args, cfg):
    """The keys of a `compare` config file read as `compare --synth` reads
    them: `RunConfig` refuses a key `compare` does not take, and converts
    and checks every value. A file without a scenario reads with the
    default one."""
    return load_section(RunConfig, dict(cfg, scenario=cfg.get("scenario", {})), args.command,
                        csv_path=None, budgets=None, seed=0)


def cmd_synth(args):
    cfg = _config(args.config)
    cfg["scenario"] = _with_flags(cfg.get("scenario", {}), seed=args.seed)
    config = _compare_config(args, cfg)
    periods = config.periods if args.periods is None else args.periods
    table, truth = generate(config.scenario, periods=periods)
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    with open(os.path.join(out, "ground_truth.csv"), "w", encoding="utf-8") as fh:
        fh.write("facility_id,product_id,period,true_mean_demand\n")
        for i in range(len(table)):
            fh.write(
                f"{table.facility_ids[i]},{table.product_ids[i]},"
                f"{table.periods[i]},{float(truth[i])!r}\n"
            )
    print(f"generated {len(table)} rows over {periods} periods")
    return 0


def cmd_train(args):
    """`train`, and `retrain` with the decision weights of `--weights`."""
    params = load_section(ForestParams, _config(args.config), args.command)
    table = FeatureTable.from_csv(args.features)
    if args.command == "retrain":
        table = apply_report(table, WeightReport.from_csv(args.weights))
    forest = train_forest(table, params=params, seed=args.seed or 0)
    forest.save(args.out)
    print(f"{args.command}ed forest with {forest.n_trees} trees on {len(table)} rows -> {args.out}")
    return 0


def cmd_weights(args):
    cfg = _config(args.config)
    cfg["weight_config"] = _with_flags(cfg.get("weight_config", {}), jacobian_mode=args.jacobian)
    config = _compare_config(args, cfg)
    fraction = args.budget_fraction
    if fraction is None:
        fraction = config.resolved_budget_fraction()
    table = FeatureTable.from_csv(args.features)
    model = Forest.load(args.model)
    budgets = budgets_from_fraction(table, fraction, inventory_feature=args.inventory_feature)
    report = compute_weights(table, model, budgets, config.weight_config,
                             inventory_feature=args.inventory_feature)
    report.to_csv(args.out)
    print(f"wrote {len(report)} weights -> {args.out}")
    return 0


def cmd_allocate(args):
    table = FeatureTable.from_csv(args.features)
    model = Forest.load(args.model)
    prepared = prepare_table(
        table, args.eval_period, args.budget_fraction, inventory_feature=args.inventory_feature
    )
    if args.budget is not None:
        prepared = replace(prepared, budgets_eval=dict.fromkeys(prepared.budgets_eval, args.budget))
    X = prepared.eval_table.X
    products = {}
    for product, rows, _, problem, result in solve_products(
            prepared, lambda rows: model.predict_samples(X[rows])):
        products[product] = {
            "budget": problem.budget,
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
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}, line {exc.lineno}: {exc.msg}") from exc
    try:
        if not isinstance(payload.get("eval_period", ""), (str, type(None))):
            raise ValueError("'eval_period' must be a period string")
        for entry in payload["products"].values():
            ids, allocation = entry["facility_ids"], np.asarray(entry["allocation"], dtype=float)
            if not (isinstance(ids, list) and all(isinstance(f, str) for f in ids)):
                raise ValueError("'facility_ids' must be a list of strings")
            if allocation.shape != (len(ids),):
                raise ValueError("'allocation' must be a list as long as 'facility_ids'")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
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
            more = "..." if len(missing) > 3 else ""
            raise NotFoundError(f"realized demand missing for facilities {missing[:3]}{more}")
        realized[product] = np.array([by_facility[f] for f in entry["facility_ids"]])
        allocations[product] = np.array(entry["allocation"], dtype=float)
    text = json.dumps(evaluate(allocations, realized), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


def _run_config(args):
    """`compare`'s RunConfig: the config file's keys, each flag given in place of its key's."""
    cfg = _with_flags(_config(args.config), model=args.model, eval_period=args.eval_period,
                      budget_fraction=args.budget_fraction)
    if args.synth:
        cfg.setdefault("scenario", {})
    if args.seed is not None and isinstance(cfg.get("scenario"), dict):
        cfg["scenario"] = {"seed": args.seed, **cfg["scenario"]}  # the file's seed wins
    cfg["weight_config"] = _with_flags(cfg.get("weight_config", {}), jacobian_mode=args.jacobian)
    return load_section(RunConfig, cfg, "compare", csv_path=args.csv, budgets=None,
                        seed=args.seed or 0)


def cmd_compare(args):
    if bool(args.csv) == bool(args.synth):
        raise ConfigError("compare needs exactly one of --csv or --synth")
    config = _run_config(args)
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


_SHARED_FLAGS = {
    "--config": dict(help="config file (JSON or key = value lines)"),
    "--seed": dict(type=int, default=None),
    "--budget-fraction": dict(type=float, default=None),
    "--jacobian": dict(choices=JACOBIAN_MODES, default=None,
                       help="policy-Jacobian estimator for decision weights"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stockalloc",
        description="Decision-aware demand forecasting and inventory allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])

    p = sub.add_parser("ingest", help="parse, clean, and featurize a stock ledger CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lag-months", dest="lag_months", type=int, default=10)
    p.add_argument("--outlier-multiplier", dest="outlier_multiplier", type=float, default=10.0)
    p.add_argument("--config", help="schema config: field = column lines or JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate the two-class synthetic dataset")
    add_shared(p, "--config", "--seed")
    p.add_argument("--out", required=True)
    p.add_argument("--periods", type=int, default=None,
                   help="periods to generate (default: the config file's, else 24)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a forest on a feature table CSV")
    add_shared(p, "--config", "--seed")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output forest JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weights", help="compute decision weights for a feature table")
    add_shared(p, "--config", "--budget-fraction", "--jacobian")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, help="forest JSON from `train`")
    p.add_argument("--out", required=True, help="output weights CSV path")
    p.add_argument("--inventory-feature", dest="inventory_feature", type=int, default=None)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("retrain", help="retrain the forest with decision weights")
    add_shared(p, "--config", "--seed")
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("allocate", help="solve the allocation for the latest period")
    add_shared(p, "--budget-fraction")
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
    add_shared(p, "--config", "--seed", "--budget-fraction", "--jacobian")
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
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
