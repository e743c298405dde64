"""Batch command-line interface.

Subcommands mirror the pipeline stages: ingest, synth, train, weights,
allocate, evaluate, compare. The staged ones are `compare` cut into
stages: `train` fits and `weights` weights the rows before the evaluation
period, `allocate` solves that period (`_split_features`), and every
`--config` reads a `compare` file. Outputs are JSON-shaped reports and CSV
tables; a run with a fixed config and seed writes byte-identical files.
Errors exit nonzero with a categorized message on stderr.
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import load_config_file, load_section
from .errors import ConfigError, NotFoundError, SchemaError, StockAllocError
from .forest import Forest, train_forest
from .ingest import (
    REQUIRED_FIELDS,
    FeatureTable,
    net_requirement,
    read_text,
    write_exclusions_csv,
    write_rejects_csv,
)
from .pipeline import (
    RunConfig,
    compare,
    evaluate,
    load,
    report_to_json,
    solve_products,
    split_table,
    write_breakdown_csv,
)
from .synth import generate
from .weights import JACOBIAN_MODES, budgets_from_fraction, compute_weights

_EXIT_BY_CATEGORY = {"config": 2, "schema": 2, "data": 3, "shape": 3, "solver": 4, "internal": 4}
# The RunConfig keys a flag of the same name sets, in the commands that have the flag.
_RUN_FLAGS = ("periods", "lag_months", "outlier_multiplier", "eval_period", "budget_fraction")


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _with_flags(section, **flags):
    """`section` with the value of every flag that was given in place of its own.

    A section that is not an object is returned as it is, for
    `load_section` to reject."""
    if not isinstance(section, dict):
        return section
    return dict(section, **{key: value for key, value in flags.items() if value is not None})


def _run_config(args):
    """The command's `RunConfig`: the config file's keys, each flag that was
    given over its key, every value checked once by `RunConfig`.

    An `ingest` file whose keys are all ledger fields is the schema. A run
    without a ledger CSV takes the file's scenario, else the default one.
    `compare --seed` leaves a scenario seed that the file sets; `train --seed`
    seeds only the forest."""
    cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    if args.command == "ingest" and cfg and set(cfg) <= set(REQUIRED_FIELDS):
        cfg = {"schema": cfg}
    flags = {key: getattr(args, key, None) for key in _RUN_FLAGS}
    if args.command == "compare":  # elsewhere `--model` is a forest file
        flags["model"] = args.model
    cfg = _with_flags(cfg, **flags)
    csv_path, seed = getattr(args, "csv", None), getattr(args, "seed", None)
    scenario = cfg.setdefault("scenario", {}) if csv_path is None else cfg.get("scenario")
    if seed is not None and isinstance(scenario, dict) and args.command != "train":
        if args.command == "synth" or "seed" not in scenario:
            cfg["scenario"] = dict(scenario, seed=seed)
    cfg["weight_config"] = _with_flags(cfg.get("weight_config", {}),
                                       jacobian_mode=getattr(args, "jacobian", None))
    return load_section(RunConfig, cfg, args.command, csv_path=csv_path, seed=seed or 0)


def cmd_ingest(args):
    table, rejects, exclusions, n_records = load(_run_config(args))
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    write_rejects_csv(os.path.join(out, "rejects.csv"), rejects)
    write_exclusions_csv(os.path.join(out, "exclusions.csv"), exclusions)
    print(f"ingested {n_records} records ({len(rejects)} rejects, "
          f"{len(exclusions)} excluded), wrote {len(table)} feature rows")
    return 0


def cmd_synth(args):
    config = _run_config(args)
    table, truth = generate(config.scenario, periods=config.periods)
    out = _ensure_out(args.out)
    table.to_csv(os.path.join(out, "features.csv"))
    with open(os.path.join(out, "ground_truth.csv"), "w", encoding="utf-8") as fh:
        fh.write("facility_id,product_id,period,true_mean_demand\n")
        for facility, product, period, mean in zip(table.facility_ids, table.product_ids,
                                                   table.periods, truth.tolist()):
            fh.write(f"{facility},{product},{period},{mean!r}\n")
    print(f"generated {len(table)} rows over {config.periods} periods")
    return 0


def _split_features(args):
    """The command's `RunConfig` and `--features` table, then the table split at
    the config's evaluation period as `compare` splits it (`split_table`)."""
    config = _run_config(args)
    table = FeatureTable.from_csv(args.features)
    return config, table, *split_table(table, config.eval_period)


def cmd_train(args):
    config, _, train, *_ = _split_features(args)
    forest = train_forest(train, params=config.forest_params, seed=config.seed)
    forest.save(args.out)
    print(f"trained forest with {forest.n_trees} trees on {len(train)} rows -> {args.out}")
    return 0


def cmd_weights(args):
    """Write the table with its training rows reweighted by the decision weights,
    the retrain's input, and the weights' audit table. Later rows keep theirs."""
    features = os.path.join(args.out, "features.csv")
    if os.path.exists(features) and os.path.samefile(features, args.features):
        raise ConfigError(f"weights --out {args.out} would overwrite --features {args.features}")
    config, table, train, _, _, train_rows = _split_features(args)
    model = Forest.load(args.model)
    report = compute_weights(train, model, budgets_from_fraction(train, config.budget_fraction),
                             config.weight_config)
    table.weights[train_rows] = report.final_weights
    _ensure_out(args.out)
    table.to_csv(features)
    report.to_csv(os.path.join(args.out, "weights.csv"))
    print(f"wrote {len(report)} weights -> {features} and weights.csv")
    return 0


def cmd_allocate(args):
    config, _, _, eval_table, eval_period, _ = _split_features(args)
    model = Forest.load(args.model)
    budgets = budgets_from_fraction(eval_table, config.budget_fraction)
    if args.budget is not None:
        budgets = dict.fromkeys(budgets, args.budget)
    products = {}
    for product, rows, _, problem, result in solve_products(
            eval_table, budgets, lambda rows: model.predict_samples(eval_table.X[rows])):
        products[product] = dict(result.to_dict(), budget=problem.budget,
                                 facility_ids=eval_table.facility_codes.take(rows).decoded())
    payload = {"eval_period": eval_period, "products": products}
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
        for product, entry in payload["products"].items():
            ids, allocation = entry["facility_ids"], entry["allocation"]
            if not (isinstance(ids, list) and all(isinstance(f, str) for f in ids)):
                raise ValueError("'facility_ids' must be a list of strings")
            if not (isinstance(allocation, list) and len(allocation) == len(ids)):
                raise ValueError("'allocation' must be a list as long as 'facility_ids'")
            if not all(type(v) in (int, float) for v in allocation):  # a bool is not one
                raise ValueError(f"'allocation' of product {product!r} must hold JSON numbers")
            allocation = np.array(allocation, dtype=float)
            if not (np.all(np.isfinite(allocation)) and np.all(allocation >= 0)):
                raise ValueError("'allocation' must be finite and nonnegative")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: not an allocation file: {exc!r}") from exc
    return payload


def cmd_evaluate(args):
    allocation = _read_allocation(args.allocation)
    table = FeatureTable.from_csv(args.features)
    _, eval_table, *_ = split_table(table, allocation.get("eval_period"))
    groups = {product: rows for (_, product), rows in eval_table.groups.items()}
    allocations, realized = {}, {}
    for product, entry in sorted(allocation["products"].items()):
        rows = groups.get(product, [])
        demand = net_requirement(eval_table, rows, eval_table.y[rows])
        by_facility = dict(zip(eval_table.facility_codes.take(rows).decoded(), demand))
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
    p.add_argument("--lag-months", dest="lag_months", type=int, default=None)
    p.add_argument("--outlier-multiplier", dest="outlier_multiplier", type=float, default=None)
    p.add_argument("--config", help="ledger field = column lines, or a compare config file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate the two-class synthetic dataset")
    add_shared(p, "--config", "--seed")
    p.add_argument("--out", required=True)
    p.add_argument("--periods", type=int, default=None,
                   help="periods to generate (default: the config file's, else 24)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a forest on a feature table's training rows")
    add_shared(p, "--config", "--seed")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output forest JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weights", help="decision weights for a feature table's training rows")
    add_shared(p, "--config", "--budget-fraction", "--jacobian")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, help="forest JSON from `train`")
    p.add_argument("--out", required=True,
                   help="output directory: the reweighted features.csv and weights.csv")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("allocate", help="solve the allocation for the latest period")
    add_shared(p, "--config", "--budget-fraction")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-period", dest="eval_period", default=None)
    p.add_argument("--budget", type=float, default=None, help="absolute budget per product")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("evaluate", help="score an allocation against realized demand")
    p.add_argument("--allocation", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None)
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
