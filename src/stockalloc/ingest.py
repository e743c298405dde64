"""Stock-ledger ingestion: CSV parsing, cleaning rules, feature building.

A ledger row is one (facility, product, month) observation carrying the
stock-flow quantities. Demand is taken to be the dispensed quantity, the
only flow that is observable as consumption. Cleaning drops rows whose
stock-flow identity does not balance, rows where every quantity is zero
(a tell-tale default entry), and per-series outliers far above the median
positive demand (dose-vs-vial style reporting mistakes).

Parsed records are held as one columnar `Ledger`: the id, period and
region columns plus one float array per quantity. `parse_records` reads
the CSV in chunks of `CHUNK_ROWS` rows and checks the reject rules over
each chunk's columns; a reason and a `raw` dict are built only for a
rejected line. Cleaning and featurizing work on the columns. A
`StockRecord` is the view of one row (`ledger[i]`), made only where one is
handed out, such as in an `Exclusion`.
"""

import csv
import io
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .errors import EmptyInputError, NotFoundError, SchemaError, ShapeError
from .periods import normalize_period, period_index, period_indices, period_str

BALANCE_TOL = 1e-9
INVENTORY_COLUMN = "prior_inventory"  # the feature that `net_requirement` nets by
# CSV rows parsed per step. A step holds its rows and their columns, about
# 0.9 kB per benchmark ledger row; 1024 rows parse as fast as 256 or 512
# and faster than 2048 or more (test_ingest.py, TestParseRecords.test_heap_peak).
CHUNK_ROWS = 1024

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
QUANTITY_FIELDS = REQUIRED_FIELDS[4:]
_ID_FIELDS = REQUIRED_FIELDS[:4]

DEFAULT_SCHEMA = {name: name for name in REQUIRED_FIELDS}

# The reject rules in the order a line is checked; its first failing rule
# gives its reason (`_reason`).
_RULES = (
    ("cells", None),
    *(("missing", name) for name in REQUIRED_FIELDS),
    *((kind, name) for name in QUANTITY_FIELDS
      for kind in ("non-numeric", "non-finite", "negative")),
    ("period", "period"),
)
_EXCLUSION_REASONS = ("unbalanced", "all_zero", "outlier")  # in the order the rules run


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


@dataclass(frozen=True, eq=False)
class Ledger:
    """Stock records as columns; record i is `ledger[i]`, a `StockRecord`.

    `quantities` has one float row per `QUANTITY_FIELDS` name, in that order.
    """

    facility_ids: list
    product_ids: list
    periods: list
    regions: list
    quantities: np.ndarray

    @classmethod
    def of(cls, records):
        """`records` as a Ledger: a Ledger as it is, else StockRecords in order."""
        if isinstance(records, Ledger):
            return records
        records = list(records)
        columns = [[getattr(rec, name) for rec in records] for name in REQUIRED_FIELDS]
        quantities = np.array(columns[4:], dtype=float).reshape(len(QUANTITY_FIELDS), -1)
        return cls(*columns[:4], quantities)

    def __len__(self):
        return len(self.facility_ids)

    def __getitem__(self, i):
        return StockRecord(self.facility_ids[i], self.product_ids[i], self.periods[i],
                           self.regions[i], *self.quantities[:, i].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def demand(self):
        return self.quantities[QUANTITY_FIELDS.index("quantity_dispensed")]

    def subset(self, mask):
        """The records where the boolean array `mask` is true, in order."""
        keep = mask.tolist()
        ids = (self.facility_ids, self.product_ids, self.periods, self.regions)
        return Ledger(*(list(compress(column, keep)) for column in ids),
                      self.quantities[:, mask])


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
    """(name for messages, text stream) of a path, bytes or file-like source.

    Paths and bytes are decoded as UTF-8, skipping a leading byte-order mark."""
    if isinstance(csv_source, (bytes, bytearray)):
        return "CSV data", io.TextIOWrapper(io.BytesIO(csv_source), encoding="utf-8-sig",
                                            newline="")
    if isinstance(csv_source, (str, os.PathLike)):
        return os.fspath(csv_source), open(csv_source, "r", encoding="utf-8-sig", newline="")
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
    """The text of the UTF-8 file `path` without a leading byte-order mark;
    other bytes raise `error` naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, data, exc, error) from exc


def _dict_row(header, row):
    """The dict `csv.DictReader` makes of `row`: extra cells under None, absent ones None."""
    raw = dict(zip(header, row))
    if len(row) > len(header):
        raw[None] = row[len(header):]
    for name in header[len(row):]:
        raw[name] = None
    return raw


def _floats(cells):
    """`float()` of every cell as an array, NaN where it fails, and the
    positions of the cells it fails on. A failing cell stops `extend`, which
    keeps the values read before it; reading resumes after it."""
    values, unread, rest = [], [], iter(cells)
    while True:
        try:
            values.extend(map(float, rest))
            return np.array(values), unread
        except ValueError:
            unread.append(len(values))
            values.append(math.nan)


def _empty(values):
    """A boolean array: which of `values` (stripped cells, or None) are empty or None."""
    return np.fromiter(map(operator.not_, values), dtype=bool, count=len(values))


def _reason(rule, cell, n_cells, width):
    """The reject reason of a line whose first failing rule is `rule`;
    `cell` is the line's stripped cell of the rule's field."""
    kind, name = rule
    if kind == "cells":
        return f"{n_cells} cells, header has {width}"
    if kind == "missing":
        return f"missing {name}"
    if kind == "negative":
        return f"negative {name}: {float(cell)!r}"
    if kind == "period":
        try:
            normalize_period(cell)
        except ValueError as exc:
            return str(exc)
    return f"{kind} {name}: {cell!r}"


class _Parse:
    """The records and rejects of a ledger CSV, read one chunk of rows at a time."""

    def __init__(self, header, columns):
        self.header, self.columns = header, columns
        self.ids = [[] for _ in _ID_FIELDS]
        self.quantities = [np.empty((len(QUANTITY_FIELDS), 0))]
        self.rejects = []

    def read(self, reader):
        """Read the rows of `reader` to its end, `CHUNK_ROWS` at a time, each
        with its line number (the last line of a quoted multi-line row)."""
        while True:
            chunk = [(row, reader.line_num) for row in islice(reader, CHUNK_ROWS)]
            if not chunk:
                return
            self._check(*zip(*chunk))
            del chunk  # before the next chunk is read

    def _check(self, rows, lines):
        """Check `rows` against the reject rules, one pass per column: keep
        the accepted rows, reject the others and skip blank ones."""
        header, columns, width = self.header, self.columns, len(self.header)
        n = len(rows)
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
        padded = list(rows)
        for i in np.flatnonzero(lengths < width).tolist():
            padded[i] = rows[i] + [""] * (width - len(rows[i]))
        cells = list(zip(*padded))  # long rows are cut to the header's width
        # Interned: the records share one string per distinct id, not one per line.
        ids = [list(map(sys.intern, map(str.strip, cells[j]))) for j in columns[:4]]
        raw_quantities = [cells[j] for j in columns[4:]]  # `float()` ignores surrounding blanks
        values, unread = zip(*map(_floats, raw_quantities))

        failed = {("cells", None): lengths > width}
        for name, column in zip(_ID_FIELDS, ids):
            failed["missing", name] = _empty(column)
        for name, column, value, bad in zip(QUANTITY_FIELDS, raw_quantities, values, unread):
            unreadable = np.zeros(n, dtype=bool)
            unreadable[bad] = True
            failed["missing", name] = missing = np.zeros(n, dtype=bool)
            missing[[i for i in bad if not column[i].strip()]] = True
            failed["non-numeric", name] = unreadable & ~missing
            failed["non-finite", name] = ~np.isfinite(value) & ~unreadable
            if name != "adjustment":
                failed["negative", name] = value < 0
        normalized = {}
        for text in set(ids[2]):
            try:
                normalized[text] = normalize_period(text)
            except ValueError:
                normalized[text] = None
        periods = list(map(normalized.__getitem__, ids[2]))
        failed["period", "period"] = _empty(periods)

        never = np.zeros(n, dtype=bool)
        failing = np.array([failed.get(rule, never) for rule in _RULES])
        faulty = failing.any(axis=0)
        blank = lengths == 0  # a blank line is skipped, not rejected
        keep = ~faulty & ~blank
        first = failing.argmax(axis=0)
        for i in np.flatnonzero(faulty & ~blank).tolist():
            rule = _RULES[first[i]]
            cell = padded[i][columns[REQUIRED_FIELDS.index(rule[1])]].strip() if rule[1] else None
            self.rejects.append(RejectedRow(
                line_number=lines[i], reason=_reason(rule, cell, len(rows[i]), width),
                raw=_dict_row(header, rows[i])))

        keep_list = keep.tolist()
        for out, column in zip(self.ids, (ids[0], ids[1], periods, ids[3])):
            out.extend(compress(column, keep_list))
        self.quantities.append(np.array(values)[:, keep])

    def ledger(self):
        return Ledger(*self.ids, np.concatenate(self.quantities, axis=1))


def parse_records(csv_source, schema=None):
    """Parse a stock-ledger CSV into a `Ledger` of records plus per-line rejects.

    `schema` maps each required field name to its column name in the file.
    Rows with more cells than the header, or with missing, unparseable,
    non-finite or negative values, or a bad period, are returned as
    RejectedRow entries carrying the 1-based line number (the last line of
    a quoted multi-line row), never silently dropped; blank lines are
    skipped. A source that is not UTF-8 text or not readable as CSV raises
    SchemaError naming it.
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
        parse = _Parse(header, [column[schema[name]] for name in REQUIRED_FIELDS])
        parse.read(reader)
    except csv.Error as exc:
        raise SchemaError(f"{source}, line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(source, csv_source, exc) from exc
    finally:
        if text is not csv_source:
            text.close()
    return parse.ledger(), parse.rejects


def clean_records(records, outlier_multiplier=10.0):
    """Apply the cleaning rules to a `Ledger` (or StockRecords), returning
    (kept Ledger, exclusions).

    Rules, in order: drop unbalanced rows, drop all-zero rows, then drop
    per-(facility, product) outliers. A record is an outlier when its
    demand exceeds `outlier_multiplier` times the median of the other
    surviving positive demands in its series (leave-one-out, so a lone
    huge value cannot vouch for itself). The outlier rule is iterated to
    a fixed point, which makes cleaning idempotent: re-cleaning the kept
    rows excludes nothing further. Exclusions run in record order.
    """
    if outlier_multiplier <= 1:
        raise ValueError("outlier_multiplier must be > 1")

    ledger = Ledger.of(records)
    opening, received, dispensed, adjustment, closing = ledger.quantities
    reason = np.zeros(len(ledger), dtype=np.int8)  # 1 + index in _EXCLUSION_REASONS; 0 kept
    # math.isclose(lhs, closing, rel_tol=0, abs_tol=BALANCE_TOL), NaN and inf included
    unbalanced = ~(np.abs(opening + received - dispensed + adjustment - closing) <= BALANCE_TOL)
    reason[unbalanced] = 1
    reason[~unbalanced & ~ledger.quantities.any(axis=0)] = 2
    survivors = np.flatnonzero(reason == 0)
    series = _series(ledger)[1]
    reason[survivors[_outliers(series[survivors], dispensed[survivors], outlier_multiplier)]] = 3

    excluded = np.flatnonzero(reason)
    exclusions = [Exclusion(record=ledger[i], reason=_EXCLUSION_REASONS[code - 1])
                  for i, code in zip(excluded.tolist(), reason[excluded].tolist())]
    return ledger.subset(reason == 0), exclusions


def _codes(values, sort=True):
    """(distinct values, int64 array of each value's place among them); the
    distinct values are sorted, or in order of first appearance."""
    distinct = sorted(set(values)) if sort else list(dict.fromkeys(values))
    place = {value: k for k, value in enumerate(distinct)}
    return distinct, np.fromiter(map(place.__getitem__, values), dtype=np.int64,
                                 count=len(values))


def _series(ledger):
    """(sorted distinct (facility, product) keys, int64 array of each record's
    place among them)."""
    facilities, facility = _codes(ledger.facility_ids)
    products, product = _codes(ledger.product_ids)
    keys, series = np.unique(facility * len(products) + product, return_inverse=True)
    return [(facilities[k // len(products)], products[k % len(products)])
            for k in keys.tolist()], series


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
    months: np.ndarray = field(init=False, repr=False, compare=False)  # `period_index` per row

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
        self.months = period_indices(self.periods)  # the first bad period, in row order, raises

    def __len__(self):
        return len(self.facility_ids)

    @property
    def feature_dim(self):
        return self.X.shape[1]

    @property
    def inventory_feature(self):
        """Index of the `INVENTORY_COLUMN` feature, or None when the table has none."""
        names = self.feature_names
        return names.index(INVENTORY_COLUMN) if INVENTORY_COLUMN in names else None

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
            writer.writerow(
                ["facility_id", "product_id", "period"]
                + list(self.feature_names)
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
        """Read a `to_csv` file: each row holds three text cells, a period
        among them, then finite numbers, the weight nonnegative. An empty
        file is an EmptyInputError; another header, text that is not UTF-8
        CSV and a malformed row raise SchemaError naming the file and line."""
        reader = csv.reader(io.StringIO(read_text(path), newline=""))
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyInputError(f"{path} is empty")
            if header[:3] != ["facility_id", "product_id", "period"] or (
                    header[-2:] != ["target", "weight"]):
                raise SchemaError(f"{path} is not a feature table CSV")
            cells, values = [], []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise SchemaError(f"{where}: {len(row)} cells, header has {len(header)}")
                try:
                    period_index(row[2])
                    numbers = [float(v) for v in row[3:]]
                except ValueError as exc:
                    raise SchemaError(f"{where}: {exc}") from exc
                if not all(map(math.isfinite, numbers)) or numbers[-1] < 0:
                    raise SchemaError(f"{where}: values must be finite, the weight nonnegative")
                cells.append(row[:3])
                values.append(numbers)
        except csv.Error as exc:
            raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from exc
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


def group_rows(keys):
    """Row indices per distinct key: keys sorted, rows in table order, int64."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {key: np.asarray(groups[key], dtype=np.int64) for key in sorted(groups)}


def net_requirement(table, rows, values):
    """What a budget has to cover: demand minus on-hand inventory, floored at 0.

    `values` are demands for the table rows `rows`, shape (rows,) or
    (rows, K); the inventory is the table's `INVENTORY_COLUMN` feature at
    those rows. A table without that feature (a ledger's) is not netted:
    its demands are the requirement.
    """
    values = np.asarray(values, dtype=float)
    column = table.inventory_feature
    if column is None:
        return values
    inventory = table.X[rows, column]
    if values.ndim == 2:
        inventory = inventory[:, None]
    return np.clip(values - inventory, 0.0, None)


def build_feature_table(records, lag_months=10, periods=None):
    """Lagged feature rows of a `Ledger` (or StockRecords) for every period
    (default: every record period).

    A row is one (facility, product) observed at a period. Its features are
    the `lag_months` trailing demands (missing months encoded as -1 with a
    companion 0/1 presence flag per lag), the month-of-year, the year, and
    an integer region code. Rows run in period order, then (facility,
    product) order.
    """
    ledger = Ledger.of(records)
    if periods is None:
        periods = sorted(set(ledger.periods), key=period_index)
    table = _lag_table(ledger, lag_months, periods)
    if not len(table):
        raise EmptyInputError("no records at the requested periods")
    return table


def _lag_table(ledger, lag_months, periods):
    """Key every record by (series, month) once, then look each period's lags up.

    A re-reported (facility, product, month) reads its last record. A row
    needs a record whose period string is already "YYYY-MM"; its target and
    region code come from that record. Work and memory grow with the record
    count, not with the span of months the records cover.
    """
    if lag_months < 1:
        raise ValueError("lag_months must be >= 1")
    if not len(ledger):
        raise EmptyInputError("no records to build features from")
    L = lag_months
    series_keys, series = _series(ledger)
    region = _codes(ledger.regions)[1].astype(float)
    n = len(ledger)
    texts, spelling = _codes(ledger.periods, sort=False)
    month = period_indices(texts)[spelling]  # the first bad period, in record order, raises
    is_row = np.array([normalize_period(text) == text for text in texts])[spelling]
    demand = ledger.demand

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
    facility_of, product_of = zip(*series_keys)
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
        at_series = series[at].tolist()
        fac += map(facility_of.__getitem__, at_series)
        prod += map(product_of.__getitem__, at_series)
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
    """(train, evaluation, train_rows): the rows strictly earlier than eval,
    the rows exactly at eval, and the positions of the former in `table`.
    Months are compared, so "2020-2" and "2020-02" are one period."""
    idx = period_index(eval_period)
    at_eval = np.flatnonzero(table.months == idx)
    if not len(at_eval):
        raise NotFoundError(f"eval period {period_str(idx)} not present in table")
    train_rows = np.flatnonzero(table.months < idx)
    return table.subset(train_rows), table.subset(at_eval), train_rows


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
