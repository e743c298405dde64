"""Decision-aware demand forecasting and budget-constrained allocation.

The package splits into ingestion (stock-ledger CSV to feature tables),
a weighted multitask random forest whose trees double as demand samples,
an exact water-filling allocator with an LP cross-check, decision weights
derived from the allocation sensitivity, a two-class synthetic scenario,
and a pipeline tying the stages into comparable policies.
"""

from .allocator import (
    AllocationProblem,
    AllocationResult,
    FillStep,
    saa_objective,
    solve_greedy,
    solve_lp,
)
from .errors import (
    ConfigError,
    DegenerateWeightsError,
    EmptyInputError,
    IterationLimitError,
    NotFoundError,
    SchemaError,
    ShapeError,
    StockAllocError,
)
from .forest import Forest, ForestParams, train_forest
from .ingest import (
    Exclusion,
    FeatureTable,
    RejectedRow,
    StockRecord,
    build_feature_table,
    clean_records,
    parse_records,
    split_train_eval,
)
from .linear import LinearModel, train_linear
from .pipeline import (
    PolicyOutcome,
    RunConfig,
    compare,
    evaluate,
    mdape,
    run_decision_aware,
    run_decision_blind,
    run_oracle,
    run_rolling_average,
    unmet_demand_pct,
)
from .synth import TwoClassScenario, generate
from .weights import (
    WeightConfig,
    WeightReport,
    budgets_from_fraction,
    compute_weights,
    loss_gradient,
    policy_jacobian,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "ConfigError",
    "DegenerateWeightsError",
    "EmptyInputError",
    "Exclusion",
    "FeatureTable",
    "FillStep",
    "Forest",
    "ForestParams",
    "IterationLimitError",
    "LinearModel",
    "NotFoundError",
    "PolicyOutcome",
    "RejectedRow",
    "RunConfig",
    "SchemaError",
    "ShapeError",
    "StockAllocError",
    "StockRecord",
    "TwoClassScenario",
    "WeightConfig",
    "WeightReport",
    "budgets_from_fraction",
    "build_feature_table",
    "clean_records",
    "compare",
    "compute_weights",
    "evaluate",
    "generate",
    "loss_gradient",
    "mdape",
    "parse_records",
    "policy_jacobian",
    "run_decision_aware",
    "run_decision_blind",
    "run_oracle",
    "run_rolling_average",
    "saa_objective",
    "solve_greedy",
    "solve_lp",
    "split_train_eval",
    "train_forest",
    "train_linear",
    "unmet_demand_pct",
]
