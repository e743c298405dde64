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
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyInputError, NotFoundError, SchemaError, ShapeError
from .periods import normalize_period, period_index, period_indices, period_str

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


@dataclass(frozen=True, slots=True)
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


def _open_text(csv_source):
    """(name for messages, text stream) of a path, bytes or file-like source."""
    if isinstance(csv_source, (bytes, bytearray)):
        return "CSV data", io.TextIOWrapper(io.BytesIO(csv_source), encoding="utf-8", newline="")
    if isinstance(csv_source, (str, os.PathLike)):
        return os.fspath(csv_source), open(csv_source, "r", encoding="utf-8", newline="")
    return getattr(csv_source, "name", "CSV source"), csv_source  # already a file-like object


def _undecodable(source, csv_source, exc, error=SchemaError):
    """`error` for text that is not UTF-8, naming the bad byte's line if it can be re-read."""
    if isinstance(csv_source, (str, os.PathLike)):
        with open(csv_source, "rb") as fh:
            csv_source = fh.read()
    if isinstance(csv_source, (bytes, bytearray)):
        try:
            csv_source.decode("utf-8")
        except UnicodeDecodeError as whole:  # positions count from the start, not a chunk
            line = csv_source.count(b"\n", 0, whole.start) + 1
            return error(f"{source}, line {line}: {whole}")
    return error(f"{source}: {exc}")


def read_text(path, error=SchemaError):
    """The text of the UTF-8 file `path`; other bytes raise `error` naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, data, exc, error) from exc


def _quantities(cells):
    """The numeric cells as floats, or the reason the first bad one is rejected."""
    values = []
    for name, cell in zip(_NUMERIC_FIELDS, cells):
        try:
            value = float(cell)
        except ValueError:
            return f"non-numeric {name}: {cell!r}"
        if not math.isfinite(value):
            return f"non-finite {name}: {cell!r}"
        if value < 0 and name != "adjustment":
            return f"negative {name}: {value!r}"
        values.append(value)
    return values


def _dict_row(header, row):
    """The dict `csv.DictReader` makes of `row`: extra cells under None, absent ones None."""
    raw = dict(zip(header, row))
    if len(row) > len(header):
        raw[None] = row[len(header):]
    for name in header[len(row):]:
        raw[name] = None
    return raw


def parse_records(csv_source, schema=None):
    """Parse a stock-ledger CSV into records plus per-line rejects.

    `schema` maps each required field name to its column name in the file.
    Rows with more cells than the header, or with missing, unparseable,
    non-finite or negative values, are returned as RejectedRow entries
    carrying the 1-based line number, never silently dropped. A source that
    is not UTF-8 text or not readable as CSV raises SchemaError naming it.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    for name in REQUIRED_FIELDS:
        if name not in schema:
            raise SchemaError(f"schema is missing required field {name!r}")

    source, text = _open_text(csv_source)
    reader = csv.reader(text)
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInputError("CSV source is empty")
        column = {name: j for j, name in enumerate(header)}  # a repeated name: its last
        for name in REQUIRED_FIELDS:
            if schema[name] not in column:
                raise SchemaError(
                    f"required column {schema[name]!r} (field {name!r}) not in header"
                )
        columns = [column[schema[name]] for name in REQUIRED_FIELDS]
        width = len(header)

        records, rejects = [], []
        for row in reader:
            if not row:
                continue
            if len(row) > width:
                problem = f"{len(row)} cells, header has {width}"
            else:
                padded = row + [""] * (width - len(row))
                cells = [padded[j].strip() for j in columns]
                problem = f"missing {REQUIRED_FIELDS[cells.index('')]}" if "" in cells else None
            if problem is None:
                quantities = _quantities(cells[4:])
                if isinstance(quantities, str):
                    problem = quantities
            if problem is None:
                try:
                    period = normalize_period(cells[2])
                except ValueError as exc:
                    problem = str(exc)
            if problem is None:
                records.append(StockRecord(cells[0], cells[1], period, cells[3], *quantities))
            else:
                rejects.append(RejectedRow(line_number=reader.line_num, reason=problem,
                                           raw=_dict_row(header, row)))
    except csv.Error as exc:
        raise SchemaError(f"{source}, line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(source, csv_source, exc) from exc
    finally:
        if text is not csv_source:
            text.close()
    return records, rejects


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

    series_ids = {}
    series = np.array(
        [series_ids.setdefault((records[i].facility_id, records[i].product_id), len(series_ids))
         for i in survivors],
        dtype=np.int64,
    )
    demand = np.array([records[i].demand for i in survivors], dtype=float)
    for j in _outliers(series, demand, outlier_multiplier):
        reasons[survivors[j]] = "outlier"

    kept = [rec for i, rec in enumerate(records) if i not in reasons]
    excluded = [
        Exclusion(record=rec, reason=reasons[i])
        for i, rec in enumerate(records)
        if i in reasons
    ]
    return kept, excluded


def _outliers(series, demand, multiplier):
    """Positions the leave-one-out median rule flags, iterated to its fixed point.

    Each round compares every alive demand with `multiplier` times the
    median of the other alive positive demands of its series, and skips a
    demand that has no such others. One lexsort by (series, demand) orders
    every series' positive demands once; a round only drops the flagged
    from that order and reads each median from the one or two middle
    values, stepping over the demand's own place. An even count takes
    (a + b) / 2, the float `np.median` gives.
    """
    alive = np.ones(len(demand), dtype=bool)
    positive = np.flatnonzero(demand > 0)
    order = positive[np.lexsort((demand[positive], series[positive]))]
    n_series = int(series.max()) + 1 if len(series) else 0
    own = np.full(len(demand), -1)  # place among its series' sorted positive demands
    while True:
        order = order[alive[order]]
        values = demand[order]
        counts = np.bincount(series[order], minlength=n_series)
        starts = np.cumsum(counts) - counts
        own[order] = np.arange(len(order)) - starts[series[order]]
        candidates = np.flatnonzero(alive)
        s, place = series[candidates], own[candidates]
        others = counts[s] - (place >= 0)
        has_others = others > 0
        candidates, s, place, others = (
            a[has_others] for a in (candidates, s, place, others)
        )
        lo, hi = (others - 1) // 2, others // 2
        lo += (place >= 0) & (lo >= place)  # leave-one-out rank -> rank among all
        hi += (place >= 0) & (hi >= place)
        median = values[starts[s] + lo]
        even = others % 2 == 0
        with np.errstate(over="ignore"):
            median[even] = (median[even] + values[starts[s] + hi][even]) / 2
            flagged = candidates[demand[candidates] > multiplier * median]
        if not len(flagged):
            return np.flatnonzero(~alive)
        alive[flagged] = False


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
        period_indices(self.periods)  # the first bad period, in row order, raises

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
        rows = idx.tolist()
        return FeatureTable(
            facility_ids=[self.facility_ids[i] for i in rows],
            product_ids=[self.product_ids[i] for i in rows],
            periods=[self.periods[i] for i in rows],
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
        """Read a `to_csv` file; a malformed line raises SchemaError naming it."""
        header, cells, values = read_csv_table(path, "feature table", lambda h: (
            h[:3] == ["facility_id", "product_id", "period"] and h[-2:] == ["target", "weight"]))
        d = len(header) - 5
        values = np.array(values, dtype=float).reshape(len(cells), d + 2)
        return cls(
            facility_ids=[c[0] for c in cells],
            product_ids=[c[1] for c in cells],
            periods=[c[2] for c in cells],
            X=values[:, :d].copy(),
            y=values[:, d].copy(),
            weights=values[:, d + 1].copy(),
            feature_names=header[3 : 3 + d],
        )


def read_csv_table(path, what, header_ok):
    """(header, text cells, numbers) of a `to_csv` file of `what`: each row
    holds three text cells, a period among them, then finite numbers, the
    last nonnegative. An empty file is an EmptyInputError; a header that
    `header_ok` refuses, text that is not UTF-8 CSV and a malformed row
    raise SchemaError naming the file and line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"{path} is empty")
        if not header_ok(header):
            raise SchemaError(f"{path} is not a {what} CSV")
        period, last = header.index("period"), header[-1].replace("_", " ")
        cells, numbers = [], []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise SchemaError(f"{where}: {len(row)} cells, header has {len(header)}")
            try:
                period_index(row[period])
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            if not all(map(math.isfinite, values)) or values[-1] < 0:
                raise SchemaError(f"{where}: values must be finite, the {last} nonnegative")
            cells.append(row[:3])
            numbers.append(values)
    except csv.Error as exc:
        raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from exc
    return header, cells, numbers


def group_rows(keys):
    """Row indices per distinct key: keys sorted, rows in table order, int64."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {key: np.asarray(groups[key], dtype=np.int64) for key in sorted(groups)}


def net_requirement(table, rows, values, inventory_feature):
    """What a budget has to cover: demand minus on-hand inventory, floored at 0.

    `values` are demands for the table rows `rows`, shape (rows,) or
    (rows, K); the inventory is feature `inventory_feature` of those rows.
    With no inventory feature the demands are the requirement; a feature
    the table does not have is a ConfigError.
    """
    values = np.asarray(values, dtype=float)
    if inventory_feature is None:
        return values
    if not 0 <= inventory_feature < table.feature_dim:
        raise ConfigError(f"inventory_feature: {inventory_feature!r} is out of range, "
                          f"the table has {table.feature_dim} features")
    inventory = table.X[rows, inventory_feature]
    if values.ndim == 2:
        inventory = inventory[:, None]
    return np.clip(values - inventory, 0.0, None)


def build_features(records, lag_months=10, as_of=None):
    """Build one feature row per (facility, product) observed at `as_of`.

    The one-period case of `build_feature_table`; `as_of` defaults to the
    latest record period.
    """
    records = list(records)
    if as_of is None and records:
        as_of = max((r.period for r in records), key=period_index)
    if as_of is not None:
        as_of = period_str(period_index(as_of))
    return _lag_table(records, lag_months, [as_of])


def build_feature_table(records, lag_months=10, periods=None):
    """Lagged feature rows for every period (default: every record period).

    A row is one (facility, product) observed at a period. Its features are
    the `lag_months` trailing demands (missing months encoded as -1 with a
    companion 0/1 presence flag per lag), the month-of-year, the year, and
    an integer region code. Rows run in period order, then (facility,
    product) order.
    """
    records = list(records)
    if periods is None:
        periods = sorted({r.period for r in records}, key=period_index)
    table = _lag_table(records, lag_months, periods)
    if not len(table):
        raise EmptyInputError("no records at the requested periods")
    return table


def _lag_table(records, lag_months, periods):
    """Key every record by (series, month) once, then look each period's lags up.

    A re-reported (facility, product, month) reads its last record. A row
    needs a record whose period string is already "YYYY-MM"; its target and
    region code come from that record. Work and memory grow with the record
    count, not with the span of months the records cover.
    """
    if lag_months < 1:
        raise ValueError("lag_months must be >= 1")
    if not records:
        raise EmptyInputError("no records to build features from")
    L = lag_months
    codes = {r: i for i, r in enumerate(sorted({rec.region for rec in records}))}
    keys = [(rec.facility_id, rec.product_id) for rec in records]
    texts = [rec.period for rec in records]
    series_keys = sorted(set(keys))
    series_of = {key: s for s, key in enumerate(series_keys)}
    n = len(records)
    series = np.fromiter(map(series_of.__getitem__, keys), dtype=np.int64, count=n)
    month = period_indices(texts)
    demand = np.array([rec.demand for rec in records], dtype=float)
    region = np.array([codes[rec.region] for rec in records], dtype=float)
    is_row = np.fromiter(map(operator.eq, map(normalize_period, texts), texts), bool, n)

    # One key per (series, month), with a stride that keeps every lag of a
    # record month inside its own series: key - j is lag j of the same series.
    first = int(month.min())
    cell = series * (int(month.max()) - first + 1 + L) + (month - first + L)
    cell_key, cell_record = _last_per_key(cell, np.arange(n))
    row_key, row_record = _last_per_key(cell[is_row], np.flatnonzero(is_row))
    by_month = np.lexsort((series[row_record], month[row_record]))  # then by series
    row_key, row_record = row_key[by_month], row_record[by_month]
    row_month = month[row_record]

    targets = [period_index(p) for p in periods]  # a bad period raises before an early one
    blocks = []  # (month, rows of that month in series order) per requested period
    for t in targets:
        if t < first:
            raise EmptyInputError(f"as_of {period_str(t)} precedes every record")
        lo, hi = np.searchsorted(row_month, [t, t + 1])
        blocks.append((t, slice(lo, hi)))

    X = np.empty((sum(rows.stop - rows.start for _, rows in blocks), 2 * L + 3))  # in place
    y = np.empty(len(X))
    fac, prod, per = [], [], []
    for t, rows in blocks:
        at, block = row_record[rows], slice(len(fac), len(fac) + rows.stop - rows.start)
        lagged = row_key[rows, None] - np.arange(1, L + 1)
        place = np.minimum(np.searchsorted(cell_key, lagged), len(cell_key) - 1)
        present = cell_key[place] == lagged
        X[block, :L] = np.where(present, demand[cell_record[place]], -1.0)
        X[block, L:2 * L] = present
        X[block, 2 * L] = float(t % 12 + 1)
        X[block, 2 * L + 1] = float(t // 12)
        X[block, 2 * L + 2] = region[at]
        y[block] = demand[at]
        fac += [series_keys[s][0] for s in series[at].tolist()]
        prod += [series_keys[s][1] for s in series[at].tolist()]
        per += [period_str(t)] * len(at)

    lags = range(1, lag_months + 1)
    names = [f"lag_{j}" for j in lags] + [f"lag_{j}_present" for j in lags]
    return FeatureTable(
        facility_ids=fac,
        product_ids=prod,
        periods=per,
        X=X,
        y=y,
        weights=np.ones(len(fac)),
        feature_names=names + ["month", "year", "region_code"],
    )


def _last_per_key(keys, records):
    """Sorted distinct `keys`, each with the last of its `records` (records ascend)."""
    order = np.argsort(keys, kind="stable")
    keys, records = keys[order], records[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return keys[last], records[last]


def split_train_eval(table, eval_period):
    """Partition rows into (strictly earlier than eval, exactly at eval)."""
    eval_period = period_str(period_index(eval_period))
    idx = period_index(eval_period)
    months = period_indices(table.periods)
    if eval_period not in set(table.periods):
        raise NotFoundError(f"eval period {eval_period} not present in table")
    train = table.subset(np.flatnonzero(months < idx))
    evaluation = table.subset(np.flatnonzero(months == idx))
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
