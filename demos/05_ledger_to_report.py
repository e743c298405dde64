# From a raw stock ledger to a policy comparison report
# -------------------------------------------------------
# The ingestion stage parses a stock-ledger CSV, applies the cleaning
# rules (balance identity, all-zero rows, per-series outliers), builds
# lagged feature tables, and the pipeline compares allocation policies on
# the held-out final month. The CLI session printed at the end runs the
# same comparison one stage at a time, from the same settings.

import json
import os
import tempfile

import numpy as np

from stockalloc import (
    RunConfig,
    build_feature_table,
    clean_records,
    parse_records,
    split_train_eval,
)
from stockalloc.config import load_section
from stockalloc.pipeline import compare

# The run's settings: a `compare` config file, which every subcommand reads.
settings = {
    "lag_months": 3,
    "budget_fraction": 0.8,
    "forest_params": {"n_trees": 20, "max_depth": 6, "min_leaf_weight": 1.0},
}

rng = np.random.default_rng(42)

# Synthesize a small ledger: 5 facilities, 1 product, 10 months, with a
# few deliberately corrupted rows.
rows = [
    "facility_id,product_id,period,region,opening_balance,quantity_received,"
    "quantity_dispensed,adjustment,closing_balance"
]
for f in range(5):
    stock = 60.0
    for m in range(1, 11):
        received = float(rng.integers(5, 25))
        dispensed = float(np.clip(rng.normal(10 + 2 * f, 2), 1, None).round())
        closing = stock + received - dispensed
        rows.append(
            f"fac{f},ors,2021-{m:02d},district{f % 2},{stock},{received},"
            f"{dispensed},0,{closing}"
        )
        stock = closing
rows.append("fac0,ors,2021-11,district0,10,5,oops,0,15")       # unparseable
rows.append("fac1,ors,2021-11,district1,10,5,3,0,999")          # unbalanced
rows.append("fac2,ors,2021-11,district0,0,0,0,0,0")             # all-zero
ledger_text = "\n".join(rows) + "\n"

records, rejects = parse_records(ledger_text.encode())
print(f"parsed {len(records)} records, {len(rejects)} rejected row(s)")
for r in rejects:
    print(f"  line {r.line_number}: {r.reason}")

kept, excluded = clean_records(records)
print(f"cleaning kept {len(kept)}, excluded {len(excluded)}:")
for e in excluded:
    print(f"  {e.record.facility_id} {e.record.period}: {e.reason}")

table = build_feature_table(kept, lag_months=settings["lag_months"])
print(f"\nfeature table: {len(table)} rows x {table.feature_dim} features")
print("columns:", ", ".join(table.feature_names))

train, evaluation, _ = split_train_eval(table, "2021-10")
print(f"train rows {len(train)}, eval rows {len(evaluation)}")

# Full comparison via the pipeline (CSV path wants a file on disk).
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "ledger.csv")
    with open(path, "w") as fh:
        fh.write(ledger_text)
    # What `stockalloc compare --csv PATH --config run.json --seed 1` runs.
    config = load_section(RunConfig, settings, "compare", csv_path=path, seed=1)
    report, outcomes, weight_report, prepared = compare(config)

print("\nunmet demand by policy (eval period", report["eval_period"] + "):")
for name in report["policy_order"]:
    pct = report["products"]["ors"]["policies"][name]["unmet_demand_pct"]
    print(f"  {name:>16}: {pct:6.2f}%")

# The same run as shell commands, on the ledger above saved as ledger.csv.
# `train` fits and `weights` weights only the months before the evaluation
# period, so `evaluate` prints the decision_aware figure above. Every
# command reads the budget fraction and evaluation period from run.json.
print(f"""
equivalent CLI session:
  echo '{json.dumps(settings)}' > run.json
  stockalloc ingest   --csv ledger.csv --config run.json --out work
  stockalloc train    --features work/features.csv --config run.json --seed 1 \\
                      --out work/forest.json
  stockalloc weights  --features work/features.csv --model work/forest.json \\
                      --config run.json --out work/aware
  stockalloc train    --features work/aware/features.csv --config run.json --seed 1 \\
                      --out work/forest_aware.json
  stockalloc allocate --features work/features.csv --model work/forest_aware.json \\
                      --config run.json --out work/allocation.json
  stockalloc evaluate --allocation work/allocation.json --features work/features.csv
  stockalloc compare  --csv ledger.csv --config run.json --seed 1 --out work/run
""")
