# From a raw stock ledger to a policy comparison report
# -------------------------------------------------------
# The ingestion stage parses a stock-ledger CSV, applies the cleaning
# rules (balance identity, all-zero rows, per-series outliers), builds
# lagged feature tables, and the pipeline compares allocation policies on
# the held-out final month.

import os
import tempfile

import numpy as np

from stockalloc import (
    RunConfig,
    ForestParams,
    build_feature_table,
    clean_records,
    parse_records,
    split_train_eval,
)
from stockalloc.pipeline import compare

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

table = build_feature_table(kept, lag_months=3)
print(f"\nfeature table: {len(table)} rows x {table.feature_dim} features")
print("columns:", ", ".join(table.feature_names))

train, evaluation = split_train_eval(table, "2021-10")
print(f"train rows {len(train)}, eval rows {len(evaluation)}")

# Full comparison via the pipeline (CSV path wants a file on disk).
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "ledger.csv")
    with open(path, "w") as fh:
        fh.write(ledger_text)
    config = RunConfig(
        csv_path=path,
        lag_months=3,
        forest_params=ForestParams(n_trees=20, max_depth=6, min_leaf_weight=1.0),
        budget_fraction=0.8,
        seed=1,
    )
    report, outcomes, weight_report, prepared = compare(config)

print("\nunmet demand by policy (eval period", report["eval_period"] + "):")
for name in report["policy_order"]:
    pct = report["products"]["ors"]["policies"][name]["unmet_demand_pct"]
    print(f"  {name:>16}: {pct:6.2f}%")

# The same flow as shell commands:
print("""
equivalent CLI session:
  stockalloc ingest  --csv ledger.csv --out work/ --lag-months 3
  stockalloc train   --features work/features.csv --out work/forest.json --seed 1
  stockalloc weights --features work/features.csv --model work/forest.json \\
                     --out work/aware --budget-fraction 0.8
  stockalloc train   --features work/aware/features.csv --out work/forest_aware.json --seed 1
  stockalloc compare --csv ledger.csv --seed 1 --budget-fraction 0.8 --out work/run
""")
