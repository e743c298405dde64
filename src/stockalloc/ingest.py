"""Stock-ledger ingestion: CSV parsing, cleaning rules, feature building.

A ledger row is one (facility, product, month) observation carrying the
stock-flow quantities. Demand is taken to be the dispensed quantity, the
only flow that is observable as consumption. Cleaning drops rows whose
stock-flow identity does not balance, rows where every quantity is zero
(a tell-tale default entry), and per-series outliers far above the median
positive demand (dose-vs-vial style reporting mistakes).
"""

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, NotFoundError, SchemaError, ShapeError
from .periods import period_index, period_str, month_of, year_of

BALANCE_TOL = 1e-9

REQUIRED_FIELDS = (
    "facility_id",
    "product_id",
    "period",
    "region",
    "opening_balance",
    "quantity_received",
    "quantity_dispensed",
    "adjustment",
    "closing_balance",
)

_NUMERIC_FIELDS = (
    "opening_balance",
    "quantity_received",
    "quantity_dispensed",
    "adjustment",
    "closing_balance",
)

DEFAULT_SCHEMA = {name: name for name in REQUIRED_FIELDS}


@dataclass(frozen=True)
class StockRecord:
    facility_id: str
    product_id: str
    period: str  # normalized "YYYY-MM"
    region: str
    opening_balance: float
    quantity_received: float
    quantity_dispensed: float
    adjustment: float
    closing_balance: float

    @property
    def demand(self):
        return self.quantity_dispensed

    def is_balanced(self):
        lhs = (
            self.opening_balance
            + self.quantity_received
            - self.quantity_dispensed
            + self.adjustment
        )
        return math.isclose(lhs, self.closing_balance, rel_tol=0.0, abs_tol=BALANCE_TOL)

    def all_zero(self):
        return (
            self.opening_balance == 0
            and self.quantity_received == 0
            and self.quantity_dispensed == 0
            and self.adjustment == 0
            and self.closing_balance == 0
        )


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    reason: str
    raw: dict


@dataclass(frozen=True)
class Exclusion:
    record: StockRecord
    reason: str  # unbalanced | all_zero | outlier


def _open_source(csv_source):
    if isinstance(csv_source, (bytes, bytearray)):
        return io.StringIO(csv_source.decode("utf-8")), True
    if isinstance(csv_source, (str, os.PathLike)):
        return open(csv_source, "r", encoding="utf-8", newline=""), True
    return csv_source, False  # already a file-like object


def parse_records(csv_source, schema=None):
    """Parse a stock-ledger CSV into records plus per-line rejects.

    `schema` maps each required field name to its column name in the file.
    Rows with unparseable or missing values are returned as RejectedRow
    entries carrying the 1-based line number, never silently dropped.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    for name in REQUIRED_FIELDS:
        if name not in schema:
            raise SchemaError(f"schema is missing required field {name!r}")

    fh, owns = _open_source(csv_source)
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyInputError("CSV source is empty")
        header = set(reader.fieldnames)
        for name in REQUIRED_FIELDS:
            if schema[name] not in header:
                raise SchemaError(
                    f"required column {schema[name]!r} (field {name!r}) not in header"
                )

        records, rejects = [], []
        for row in reader:
            line = reader.line_num
            parsed = {}
            problem = None
            for name in REQUIRED_FIELDS:
                cell = row.get(schema[name])
                if cell is None or str(cell).strip() == "":
                    problem = f"missing {name}"
                    break
                parsed[name] = str(cell).strip()
            if problem is None:
                for name in _NUMERIC_FIELDS:
                    try:
                        parsed[name] = float(parsed[name])
                    except ValueError:
                        problem = f"non-numeric {name}: {parsed[name]!r}"
                        break
                    if name != "adjustment" and parsed[name] < 0:
                        problem = f"negative {name}: {parsed[name]!r}"
                        break
            if problem is None:
                try:
                    parsed["period"] = period_str(period_index(parsed["period"]))
                except ValueError as exc:
                    problem = str(exc)
            if problem is not None:
                rejects.append(RejectedRow(line_number=line, reason=problem, raw=dict(row)))
                continue
            records.append(StockRecord(**parsed))
        return records, rejects
    finally:
        if owns:
            fh.close()


def clean_records(records, outlier_multiplier=10.0):
    """Apply the cleaning rules, returning (kept, exclusions).

    Rules, in order: drop unbalanced rows, drop all-zero rows, then drop
    per-(facility, product) outliers. A record is an outlier when its
    demand exceeds `outlier_multiplier` times the median of the other
    surviving positive demands in its series (leave-one-out, so a lone
    huge value cannot vouch for itself). The outlier rule is iterated to
    a fixed point, which makes cleaning idempotent: re-cleaning the kept
    rows excludes nothing further.
    """
    if outlier_multiplier <= 1:
        raise ValueError("outlier_multiplier must be > 1")

    reasons = {}
    survivors = []
    for i, rec in enumerate(records):
        if not rec.is_balanced():
            reasons[i] = "unbalanced"
        elif rec.all_zero():
            reasons[i] = "all_zero"
        else:
            survivors.append(i)

    by_series = {}
    for i in survivors:
        by_series.setdefault((records[i].facility_id, records[i].product_id), []).append(i)

    for series in by_series.values():
        alive = list(series)
        while True:
            flagged = []
            for i in alive:
                others = [
                    records[j].demand
                    for j in alive
                    if j != i and records[j].demand > 0
                ]
                if not others:
                    continue
                if records[i].demand > outlier_multiplier * float(np.median(others)):
                    flagged.append(i)
            if not flagged:
                break
            for i in flagged:
                reasons[i] = "outlier"
            alive = [i for i in alive if i not in reasons]

    kept = [rec for i, rec in enumerate(records) if i not in reasons]
    excluded = [
        Exclusion(record=rec, reason=reasons[i])
        for i, rec in enumerate(records)
        if i in reasons
    ]
    return kept, excluded


@dataclass
class FeatureTable:
    """Row-aligned feature matrix with identity columns and sample weights."""

    facility_ids: list
    product_ids: list
    periods: list
    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    feature_names: list = field(default_factory=list)
    horizon: str | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = len(self.facility_ids)
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise ShapeError(f"feature matrix shape {self.X.shape} for {n} rows")
        if len(self.product_ids) != n or len(self.periods) != n:
            raise ShapeError("identity column lengths disagree")
        if self.y.shape != (n,) or self.weights.shape != (n,):
            raise ShapeError("target/weight lengths disagree")
        if n and not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")
        if n and not np.all(np.isfinite(self.y)):
            raise ValueError("targets must be finite")
        if n and (np.any(self.weights < 0) or not np.all(np.isfinite(self.weights))):
            raise ValueError("weights must be finite and nonnegative")
        if not self.feature_names:
            self.feature_names = [f"f_{j}" for j in range(self.X.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise ShapeError("feature_names length disagrees with matrix width")
        if self.horizon is None and n:
            self.horizon = max(self.periods, key=period_index)
        if self.horizon is not None:
            limit = period_index(self.horizon)
            for p in self.periods:
                if period_index(p) > limit:
                    raise ValueError(f"row period {p} exceeds declared horizon {self.horizon}")

    def __len__(self):
        return len(self.facility_ids)

    @property
    def feature_dim(self):
        return self.X.shape[1]

    def row_keys(self):
        return list(zip(self.facility_ids, self.product_ids, self.periods))

    def subset(self, idx):
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        idx = idx.astype(np.int64)
        return FeatureTable(
            facility_ids=[self.facility_ids[i] for i in idx],
            product_ids=[self.product_ids[i] for i in idx],
            periods=[self.periods[i] for i in idx],
            X=self.X[idx],
            y=self.y[idx],
            weights=self.weights[idx],
            feature_names=list(self.feature_names),
        )

    def with_weights(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(self),):
            raise ShapeError("weight vector length disagrees with table")
        return FeatureTable(
            facility_ids=list(self.facility_ids),
            product_ids=list(self.product_ids),
            periods=list(self.periods),
            X=self.X.copy(),
            y=self.y.copy(),
            weights=weights,
            feature_names=list(self.feature_names),
            horizon=self.horizon,
        )

    @classmethod
    def concat(cls, tables):
        tables = [t for t in tables if len(t)]
        if not tables:
            raise EmptyInputError("nothing to concatenate")
        d = tables[0].feature_dim
        for t in tables:
            if t.feature_dim != d:
                raise ShapeError("feature dimensions disagree across tables")
        return cls(
            facility_ids=sum((list(t.facility_ids) for t in tables), []),
            product_ids=sum((list(t.product_ids) for t in tables), []),
            periods=sum((list(t.periods) for t in tables), []),
            X=np.vstack([t.X for t in tables]),
            y=np.concatenate([t.y for t in tables]),
            weights=np.concatenate([t.weights for t in tables]),
            feature_names=list(tables[0].feature_names),
        )

    @classmethod
    def from_arrays(cls, X, y, weights=None, product_id="p0", period="2020-01"):
        """Quick constructor for experiments: synthetic ids, one period."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(y)
        return cls(
            facility_ids=[f"f{i:04d}" for i in range(n)],
            product_ids=[product_id] * n,
            periods=[period] * n,
            X=X,
            y=y,
            weights=np.ones(n) if weights is None else np.asarray(weights, float),
        )

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            d = self.feature_dim
            writer.writerow(
                ["facility_id", "product_id", "period"]
                + [f"f_{j}" for j in range(d)]
                + ["target", "weight"]
            )
            for i in range(len(self)):
                writer.writerow(
                    [self.facility_ids[i], self.product_ids[i], self.periods[i]]
                    + [repr(float(v)) for v in self.X[i]]
                    + [repr(float(self.y[i])), repr(float(self.weights[i]))]
                )

    @classmethod
    def from_csv(cls, path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyInputError(f"{path} is empty")
            expected_prefix = ["facility_id", "product_id", "period"]
            if header[:3] != expected_prefix or header[-2:] != ["target", "weight"]:
                raise SchemaError(f"{path} is not a feature table CSV")
            d = len(header) - 5
            fac, prod, per, rows, ys, ws = [], [], [], [], [], []
            for row in reader:
                fac.append(row[0])
                prod.append(row[1])
                per.append(row[2])
                rows.append([float(v) for v in row[3 : 3 + d]])
                ys.append(float(row[3 + d]))
                ws.append(float(row[4 + d]))
        return cls(
            facility_ids=fac,
            product_ids=prod,
            periods=per,
            X=np.array(rows, dtype=float).reshape(len(fac), d),
            y=np.array(ys, dtype=float),
            weights=np.array(ws, dtype=float),
            feature_names=header[3 : 3 + d],
        )


def build_features(records, lag_months=10, as_of=None, region_codes=None, extra_features=None):
    """Build one feature row per (facility, product) observed at `as_of`.

    The feature vector holds the `lag_months` trailing demands (missing
    months encoded as -1 with a companion 0/1 presence flag per lag), the
    month-of-year, the year, and an integer region code. `extra_features`
    may be a callable (facility_id, product_id, as_of, history) -> dict of
    additional named features; `history` maps absolute month index to
    demand for that series.
    """
    if lag_months < 1:
        raise ValueError("lag_months must be >= 1")
    records = list(records)
    if not records:
        raise EmptyInputError("no records to build features from")
    if as_of is None:
        as_of = max((r.period for r in records), key=period_index)
    as_of = period_str(period_index(as_of))
    as_of_idx = period_index(as_of)
    if all(period_index(r.period) > as_of_idx for r in records):
        raise EmptyInputError(f"as_of {as_of} precedes every record")

    if region_codes is None:
        region_codes = region_code_map(records)

    history = {}
    current = {}
    for rec in records:
        key = (rec.facility_id, rec.product_id)
        history.setdefault(key, {})[period_index(rec.period)] = rec.demand
        if rec.period == as_of:
            current[key] = rec

    fac, prod, rows, targets = [], [], [], []
    names = None
    for key in sorted(current):
        rec = current[key]
        series = history[key]
        lags, flags = [], []
        for j in range(1, lag_months + 1):
            past = series.get(as_of_idx - j)
            if past is None:
                lags.append(-1.0)
                flags.append(0.0)
            else:
                lags.append(float(past))
                flags.append(1.0)
        feats = lags + flags + [
            float(month_of(as_of)),
            float(year_of(as_of)),
            float(region_codes.get(rec.region, -1)),
        ]
        base_names = (
            [f"lag_{j}" for j in range(1, lag_months + 1)]
            + [f"lag_{j}_present" for j in range(1, lag_months + 1)]
            + ["month", "year", "region_code"]
        )
        if extra_features is not None:
            extra = extra_features(rec.facility_id, rec.product_id, as_of, series)
            for k in sorted(extra):
                feats.append(float(extra[k]))
                base_names.append(k)
        if names is None:
            names = base_names
        elif names != base_names:
            raise ShapeError("extra_features returned inconsistent feature names")
        fac.append(rec.facility_id)
        prod.append(rec.product_id)
        rows.append(feats)
        targets.append(rec.demand)

    d = len(names) if names else 2 * lag_months + 3
    n = len(fac)
    return FeatureTable(
        facility_ids=fac,
        product_ids=prod,
        periods=[as_of] * n,
        X=np.array(rows, dtype=float).reshape(n, d),
        y=np.array(targets, dtype=float),
        weights=np.ones(n),
        feature_names=names or [],
        horizon=as_of,
    )


def region_code_map(records):
    """Stable region -> integer code mapping over a record collection."""
    return {r: i for i, r in enumerate(sorted({rec.region for rec in records}))}


def build_feature_table(records, lag_months=10, periods=None, extra_features=None):
    """Stack `build_features` over several periods with one shared region map."""
    records = list(records)
    if not records:
        raise EmptyInputError("no records to build features from")
    codes = region_code_map(records)
    if periods is None:
        periods = sorted({r.period for r in records}, key=period_index)
    tables = [
        build_features(
            records,
            lag_months=lag_months,
            as_of=p,
            region_codes=codes,
            extra_features=extra_features,
        )
        for p in periods
    ]
    out = FeatureTable.concat(tables)
    return out


def split_train_eval(table, eval_period):
    """Partition rows into (strictly earlier than eval, exactly at eval)."""
    eval_period = period_str(period_index(eval_period))
    idx = period_index(eval_period)
    row_idx = [period_index(p) for p in table.periods]
    if eval_period not in set(table.periods):
        raise NotFoundError(f"eval period {eval_period} not present in table")
    train = table.subset([i for i, p in enumerate(row_idx) if p < idx])
    evaluation = table.subset([i for i, p in enumerate(row_idx) if p == idx])
    return train, evaluation


def write_exclusions_csv(path, exclusions):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["facility_id", "product_id", "period", "demand", "reason"])
        for e in exclusions:
            writer.writerow(
                [e.record.facility_id, e.record.product_id, e.record.period,
                 repr(float(e.record.demand)), e.reason]
            )


def write_rejects_csv(path, rejects):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["line_number", "reason"])
        for r in rejects:
            writer.writerow([r.line_number, r.reason])
