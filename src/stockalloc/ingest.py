"""Stock-ledger ingestion: CSV parsing, cleaning rules, feature building.

A ledger row is one (facility, product, month) observation carrying the
stock-flow quantities. Demand is taken to be the dispensed quantity, the
only flow that is observable as consumption. Cleaning drops rows whose
stock-flow identity does not balance, rows where every quantity is zero
(a tell-tale default entry), and per-series outliers far above the median
positive demand (dose-vs-vial style reporting mistakes).

Parsed records are held as one columnar `Ledger`: facility, product and
region codes into the sorted ids the records hold, a period code into the
period spellings with each spelling's month, and one float array per
quantity. `parse_records` reads the CSV in chunks of `CHUNK_ROWS` rows,
codes each distinct id cell of a chunk once and checks the reject rules
over each chunk's columns; a reason and a `raw` dict are built only for a
rejected line. Cleaning and featurizing read the codes and months. A
`FeatureTable` holds its ids the same way, each column once as codes and
its periods with each row's month beside them, and decodes its string
columns on read: a ledger's table is handed its rows' months and id codes,
which its copies take along and its groups and readers read, so no stage
codes an id string or parses a period again. A table's arrays are
read-only, so its copies share them where they can. A `StockRecord` is the
view of one row (`ledger[i]`), made only where one is handed out, such as
in an `Exclusion`.
"""

import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import EmptyInputError, NotFoundError, SchemaError, ShapeError
from .periods import normalize_period, period_index, period_str

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
_MISSING, _BAD_PERIOD = -1, -2  # the parse's codes of id cells that reject their row


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


class Coded(NamedTuple):
    """A column as codes into a vocabulary: row i holds `values[codes[i]]`."""

    values: tuple
    codes: np.ndarray  # int32: cast before arithmetic that may pass 2**31

    def decoded(self):
        """The column as a list, gathered by numpy from an object array of the values."""
        values = np.fromiter(self.values, dtype=object, count=len(self.values))
        return values[self.codes].tolist()

    def take(self, rows):
        """The column at `rows` (positions, or a slice that takes a view), over
        the same vocabulary."""
        return Coded(self.values, self.codes[rows])

    def places_in(self, values):
        """Each row's place among `values`, -1 where its value is not one of them."""
        if values is self.values:  # two copies of one table's rows
            return self.codes
        place = {value: k for k, value in enumerate(values)}
        places = np.array([place.get(value, -1) for value in self.values], dtype=np.int64)
        return places[self.codes]


@dataclass(frozen=True, eq=False)
class Ledger:
    """Stock records as columns; record i is `ledger[i]`, a `StockRecord`.

    Each id column is coded (`Coded`) into the sorted ids its records hold,
    the period column into the distinct period spellings they hold, and
    `period_months` is the month of each spelling (-1 for one that is not a
    period, which only `Ledger.of` lets in). The string columns are decoded
    from the codes on demand. `quantities` has one float row per
    `QUANTITY_FIELDS` name, in that order.
    """

    facility: Coded
    product: Coded
    period: Coded
    region: Coded
    period_months: np.ndarray
    quantities: np.ndarray

    @classmethod
    def of(cls, records):
        """`records` as a Ledger: a Ledger as it is, else StockRecords in order."""
        if isinstance(records, Ledger):
            return records
        records = list(records)
        columns = [[getattr(rec, name) for rec in records] for name in REQUIRED_FIELDS]
        quantities = np.array(columns[4:], dtype=float).reshape(len(QUANTITY_FIELDS), -1)
        facility, product, region = (_codes(columns[j]) for j in (0, 1, 3))
        period = _codes(columns[2], sort=False)
        return cls(facility, product, period, region, _months_of(period.values), quantities)

    def __len__(self):
        return len(self.facility.codes)

    def __getitem__(self, i):
        ids = (column.values[column.codes[i]] for column in self._ids())
        return StockRecord(*ids, *self.quantities[:, i].tolist())

    def __iter__(self):
        return map(StockRecord, *(column.decoded() for column in self._ids()),
                   *self.quantities.tolist())

    def _ids(self):
        return self.facility, self.product, self.period, self.region

    @property
    def facility_ids(self):
        return self.facility.decoded()

    @property
    def product_ids(self):
        return self.product.decoded()

    @property
    def periods(self):
        return self.period.decoded()

    @property
    def regions(self):
        return self.region.decoded()

    @property
    def demand(self):
        return self.quantities[QUANTITY_FIELDS.index("quantity_dispensed")]

    @property
    def months(self):
        """Each record's month; the first record whose period is not one
        raises, as `period_index` does."""
        return _row_months(self.period, self.period_months)

    def subset(self, mask):
        """The records where the boolean array `mask` is true, in order; each
        vocabulary keeps the values those records hold, in its order."""
        (facility, _), (product, _), (period, spellings), (region, _) = (
            _used(column.values, column.codes[mask]) for column in self._ids())
        return Ledger(facility, product, period, region, self.period_months[spellings],
                      self.quantities[:, mask])


def _used(values, codes, sort=False):
    """(`Coded` of `codes` over only the `values` they use, those values'
    places in `values`). The values keep their order, or are sorted."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(values)))
    if sort:
        used = np.array(sorted(used.tolist(), key=values.__getitem__), dtype=np.int64)
    place = np.empty(len(values), dtype=np.int32)
    place[used] = np.arange(len(used))
    return Coded(tuple(map(values.__getitem__, used.tolist())), place[codes]), used


def _months_of(spellings):
    """The month of each period spelling as an int64 array, -1 where it is not a period."""
    months = []
    for spelling in spellings:
        try:
            months.append(period_index(spelling))
        except ValueError:
            months.append(-1)
    return np.array(months, dtype=np.int64)


def _row_months(period, months):
    """Each row's month, read from the `months` of the `Coded` period column's
    spellings (-1 where one is not a period); the first row whose period is
    not one raises `period_index`'s error for it, spelled as given."""
    rows = months[period.codes]
    bad = np.flatnonzero(rows < 0)
    if len(bad):
        period_index(period.values[period.codes[bad[0]]])
    return rows


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
        self.places = [{} for _ in _ID_FIELDS]  # per id column: text -> code, codes in order given
        self.codes = [[np.empty(0, dtype=np.int32)] for _ in _ID_FIELDS]  # one array per chunk
        self.quantities = [np.empty((len(QUANTITY_FIELDS), 0))]
        self.rejects = []

    def read(self, reader):
        """Read the rows of `reader` to its end, `CHUNK_ROWS` at a time, each
        with its line number (the last line of a quoted multi-line row)."""
        while True:
            rows = []  # each row's line number is read right after the row
            lines = [reader.line_num for _ in map(rows.append, islice(reader, CHUNK_ROWS))]
            if not rows:
                return
            self._check(rows, lines)
            del rows, lines  # before the next chunk is read

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
        # A chunk's id cells repeat: each distinct one is stripped once, and
        # interned, so the records share one string per distinct id. A period
        # cell's value is its "YYYY-MM" spelling, None when it is not a period.
        id_cells = [cells[j] for j in columns[:4]]
        values = [{cell: sys.intern(cell.strip()) for cell in set(column)} for column in id_cells]
        for cell, text in values[2].items():
            try:
                values[2][cell] = normalize_period(text) if text else text
            except ValueError:
                values[2][cell] = None
        # Each distinct value is coded once, a missing one _MISSING and a bad
        # period _BAD_PERIOD; the rows' codes then give both reject rules.
        codes = []
        for places, column, value in zip(self.places, id_cells, values):
            code = {cell: places.setdefault(v, len(places)) if v else
                    (_MISSING if v == "" else _BAD_PERIOD) for cell, v in value.items()}
            codes.append(np.fromiter(map(code.__getitem__, column), dtype=np.int32, count=n))
        raw_quantities = [cells[j] for j in columns[4:]]  # `float()` ignores surrounding blanks
        quantities, unread = zip(*map(_floats, raw_quantities))

        failed = {("cells", None): lengths > width, ("period", "period"): codes[2] == _BAD_PERIOD}
        for name, code in zip(_ID_FIELDS, codes):
            failed["missing", name] = code == _MISSING
        for name, column, value, bad in zip(QUANTITY_FIELDS, raw_quantities, quantities, unread):
            unreadable = np.zeros(n, dtype=bool)
            unreadable[bad] = True
            failed["missing", name] = missing = np.zeros(n, dtype=bool)
            missing[[i for i in bad if not column[i].strip()]] = True
            failed["non-numeric", name] = unreadable & ~missing
            failed["non-finite", name] = ~np.isfinite(value) & ~unreadable
            if name != "adjustment":
                failed["negative", name] = value < 0

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

        for chunks, code in zip(self.codes, codes):
            chunks.append(code[keep])
        self.quantities.append(np.array(quantities)[:, keep])

    def ledger(self):
        """The accepted records, each id column coded into the sorted texts it holds."""
        facility, product, period, region = (
            _used(tuple(places), np.concatenate(codes), sort=True)[0]
            for places, codes in zip(self.places, self.codes))
        return Ledger(facility, product, period, region, _months_of(period.values),
                      np.concatenate(self.quantities, axis=1))


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
    series = _series(ledger)
    reason[survivors[_outliers(series[survivors], dispensed[survivors], outlier_multiplier)]] = 3

    excluded = np.flatnonzero(reason)
    exclusions = [Exclusion(record=ledger[i], reason=_EXCLUSION_REASONS[code - 1])
                  for i, code in zip(excluded.tolist(), reason[excluded].tolist())]
    return ledger.subset(reason == 0), exclusions


def _codes(values, sort=True):
    """`Coded` of `values` over their distinct values, sorted, or in order
    of first appearance."""
    distinct = sorted(set(values)) if sort else list(dict.fromkeys(values))
    place = {value: k for k, value in enumerate(distinct)}
    return Coded(tuple(distinct), np.fromiter(map(place.__getitem__, values), dtype=np.int32,
                                              count=len(values)))


def _series(ledger):
    """Each record's (facility, product) as one int64, in the order of the pairs."""
    facility, product = ledger.facility.codes.astype(np.int64), ledger.product.codes
    return facility * len(ledger.product.values) + product


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


class FeatureTable:
    """Row-aligned feature matrix with identity columns and sample weights.

    Each identity column is held once, as a `Coded` column: `facility_codes`
    and `product_codes` into sorted ids (which hold every row's and perhaps
    more), `period_codes` into period spellings in order of first
    appearance, with each row's month in `months`. `facility_ids`,
    `product_ids` and `periods` decode on read, as `Ledger`'s do. The
    constructor codes each list once; a ledger's table is handed its rows'
    codes and months, and a copy takes them from the table it copies.

    A table is immutable: its arrays (`X`, `y`, `weights`, `months` and the
    codes) are read-only once it is built, and `feature_names` is a tuple,
    so its copies share its rows and names. A run of consecutive rows
    (`subset`) holds views of this table's arrays, a reweighted table
    (`with_weights`) shares every array but its weights, and only other
    subsets gather copies. `groups` is derived once, and the row arrays it
    hands out are read-only too.
    """

    def __init__(self, facility_ids, product_ids, periods, X, y, weights, feature_names=None):
        self.facility_codes, self.product_codes = _codes(facility_ids), _codes(product_ids)
        self.period_codes = _codes(periods, sort=False)
        self.X, self.y, self.weights, self.feature_names = X, y, weights, feature_names
        self._check()
        self.months = _row_months(self.period_codes, _months_of(self.period_codes.values))
        self._freeze()

    def _check(self):
        """Check and convert the fields: all but the periods, which `months` parses."""
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = len(self)
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise ShapeError(f"feature matrix shape {self.X.shape} for {n} rows")
        if len(self.product_codes.codes) != n or len(self.period_codes.codes) != n:
            raise ShapeError("identity column lengths disagree")
        if self.y.shape != (n,) or self.weights.shape != (n,):
            raise ShapeError("target/weight lengths disagree")
        if n and not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")
        if n and not np.all(np.isfinite(self.y)):
            raise ValueError("targets must be finite")
        _check_weights(self.weights)
        if not self.feature_names:
            self.feature_names = [f"f_{j}" for j in range(self.X.shape[1])]
        self.feature_names = tuple(self.feature_names)
        if len(self.feature_names) != self.X.shape[1]:
            raise ShapeError("feature_names length disagrees with matrix width")

    def __len__(self):
        return len(self.facility_codes.codes)

    @property
    def facility_ids(self):
        return self.facility_codes.decoded()

    @property
    def product_ids(self):
        return self.product_codes.decoded()

    @property
    def periods(self):
        return self.period_codes.decoded()

    @property
    def feature_dim(self):
        return self.X.shape[1]

    @cached_property
    def groups(self):
        """Row indices per (period, product) group (`group_rows` of the months
        and product codes), the period spelled "YYYY-MM" however the table
        spells it. Derived on first read and kept; the row arrays are
        read-only."""
        products = self.product_codes
        groups = group_rows(self.months, products.codes)
        return {(period_str(month), products.values[code]): _read_only(rows)
                for (month, code), rows in groups.items()}

    @property
    def inventory_feature(self):
        """Index of the `INVENTORY_COLUMN` feature, or None when the table has none."""
        names = self.feature_names
        return names.index(INVENTORY_COLUMN) if INVENTORY_COLUMN in names else None

    def subset(self, idx):
        """The rows `idx` (positions or a boolean mask), in that order.

        An ascending run of consecutive rows, such as one period of a
        period-ordered table, is taken as views of this table's arrays;
        other rows are gathered into new ones. The rows were checked when
        this table was built, so the copy skips the checks (`_derived`)."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        rows = _run_of(idx.astype(np.int64), len(self))
        return self._derived(rows, self.weights[rows])

    def with_weights(self, weights):
        """The table with the row weights `weights`, which are checked; it
        shares every other column with this table."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(self),):
            raise ShapeError("weight vector length disagrees with table")
        _check_weights(weights)
        return self._derived(slice(None), weights)

    def _derived(self, rows, weights):
        """A table of this one's `rows` (a slice, or positions) with the row
        weights `weights`, built without the checks: the rows passed them
        when this table was built, and the caller checks `weights`. A slice
        takes views of this table's arrays, positions gather copies; the
        vocabularies and the feature names are this table's."""
        return FeatureTable._assembled(
            facility_codes=self.facility_codes.take(rows),
            product_codes=self.product_codes.take(rows),
            period_codes=self.period_codes.take(rows),
            X=self.X[rows], y=self.y[rows], weights=weights,
            feature_names=self.feature_names, months=self.months[rows],
        )

    @classmethod
    def _assembled(cls, **columns):
        """A table of every column given, built without `__init__` and made
        read-only (`_freeze`): the caller checks what the columns have not
        passed."""
        table = object.__new__(cls)
        vars(table).update(columns)
        table._freeze()
        return table

    def _freeze(self):
        """Make every array of the table read-only (`_read_only`). A table
        is not written after it is built, so its copies can share its rows."""
        for name in ("X", "y", "weights", "months"):
            setattr(self, name, _read_only(getattr(self, name)))
        for name in ("facility_codes", "product_codes", "period_codes"):
            column = getattr(self, name)
            setattr(self, name, Coded(column.values, _read_only(column.codes)))

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
            for facility, product, period, x, y, weight in zip(
                    self.facility_ids, self.product_ids, self.periods,
                    self.X.tolist(), self.y.tolist(), self.weights.tolist()):
                writer.writerow([facility, product, period, *map(repr, x), repr(y), repr(weight)])

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
            cells, values, periods = [], [], set()
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise SchemaError(f"{where}: {len(row)} cells, header has {len(header)}")
                try:
                    if row[2] not in periods:  # each spelling is checked where it first appears
                        period_index(row[2])
                        periods.add(row[2])
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


def _check_weights(weights):
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")


def _read_only(array):
    """`array` itself when it is read-only, else a read-only view of it: an
    array a caller passed in keeps its own flags."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.flags.writeable = False
    return view


def _run_of(idx, n):
    """The positions `idx` as a slice when they are an ascending run of
    consecutive positions in range(n), else as they are."""
    if len(idx) and 0 <= idx[0] and idx[-1] < n and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _column_codes(column):
    """(sorted values, int64 array of each row's place among them). An
    integer array, such as `FeatureTable.months`, is placed by its offset
    from its minimum, its values a `range`; any other column by `_codes`."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu" and len(column):
        low = int(column.min())
        return range(low, int(column.max()) + 1), (column - low).astype(np.int64, copy=False)
    values, codes = _codes(column)
    return values, codes.astype(np.int64)


def group_rows(*columns):
    """Row indices per distinct key: keys sorted, rows in table order, int64.

    A row's key is its value in the one column given, or the tuple of its
    values in several equally long columns; keys are Python scalars. Each
    column is coded once (`_column_codes`); the codes combine into one
    integer per row whose order is that of the keys, and one stable
    argsort of it yields every group's rows, each a slice of that one array.
    """
    distinct, codes = zip(*map(_column_codes, columns))
    code = codes[0]
    for values, column in zip(distinct[1:], codes[1:]):
        code = code * len(values) + column
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()] if len(code) else []
    ends = starts[1:] + [len(code)]
    first = order[starts]  # each group's first row
    keys = [list(map(values.__getitem__, column[first].tolist()))
            for values, column in zip(distinct, codes)]
    keys = keys[0] if len(keys) == 1 else zip(*keys)
    return dict(zip(keys, (order[start:end] for start, end in zip(starts, ends))))


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
    (default: every record period); a month asked for twice, in any
    spelling, gives its rows once.

    A row is one (facility, product) observed at a period. Its features are
    the `lag_months` trailing demands (missing months encoded as -1 with a
    companion 0/1 presence flag per lag), the month-of-year, the year, and
    an integer region code. Rows run in period order, then (facility,
    product) order.
    """
    table = _lag_table(Ledger.of(records), lag_months, periods)
    if not len(table):
        raise EmptyInputError("no records at the requested periods")
    return table


def _lag_table(ledger, lag_months, periods):
    """Key every record by (series, month) once, then look each period's lags up.

    A re-reported (facility, product, month) reads its last record. A row
    needs a record whose period is spelled "YYYY-MM"; its target and region
    code come from that record. `periods` None asks for every record
    period. The ledger's codes and months are read, not derived again: the
    table is handed its rows' months and facility and product codes, and as
    period codes the index of each row's requested-period block. Work and
    memory grow with the record count, not with the span of months the
    records cover.
    """
    if lag_months < 1:
        raise ValueError("lag_months must be >= 1")
    if not len(ledger):
        raise EmptyInputError("no records to build features from")
    L = lag_months
    series = _series(ledger)
    region = ledger.region.codes.astype(float)
    n = len(ledger)
    month = ledger.months  # the first bad period, in record order, raises
    spellings = zip(ledger.period.values, ledger.period_months.tolist())
    is_row = np.array([period_str(m) == text for text, m in spellings])[ledger.period.codes]
    demand = ledger.demand

    # One key per (series, month), with a stride that keeps every lag of a
    # record month inside its own series: key - j is lag j of the same series.
    first = int(month.min())
    cell = series * (int(month.max()) - first + 1 + L) + (month - first + L)
    cell_key, cell_record = last_per_key(cell, np.arange(n))
    row_key, row_record = last_per_key(cell[is_row], np.flatnonzero(is_row))
    by_month = np.lexsort((series[row_record], month[row_record]))  # then by series
    row_key, row_record = row_key[by_month], row_record[by_month]
    row_month = month[row_record]

    if periods is None:
        targets = sorted(set(ledger.period_months.tolist()))  # each month once, however spelt
    else:
        # each month once, however often asked; a bad period raises before an early one
        targets = list(dict.fromkeys(period_index(p) for p in periods))
    blocks = []  # (month, rows of that month in series order) per requested month
    for t in targets:
        if t < first:
            raise EmptyInputError(f"as_of {period_str(t)} precedes every record")
        lo, hi = np.searchsorted(row_month, [t, t + 1])
        blocks.append((t, slice(lo, hi)))

    X = np.empty((sum(rows.stop - rows.start for _, rows in blocks), 2 * L + 3))  # in place
    y = np.empty(len(X))
    record = np.empty(len(X), dtype=np.int64)  # the record each row reads
    months = np.empty(len(X), dtype=np.int64)
    period = np.empty(len(X), dtype=np.int32)  # the row's block, its period spelling
    end = 0
    for k, (t, rows) in enumerate(blocks):
        at, block = row_record[rows], slice(end, end + rows.stop - rows.start)
        end = block.stop
        lagged = row_key[rows, None] - np.arange(1, L + 1)
        place = np.minimum(np.searchsorted(cell_key, lagged), len(cell_key) - 1)
        present = cell_key[place] == lagged
        X[block, :L] = np.where(present, demand[cell_record[place]], -1.0)
        X[block, L:2 * L] = present
        X[block, 2 * L] = float(t % 12 + 1)
        X[block, 2 * L + 1] = float(t // 12)
        X[block, 2 * L + 2] = region[at]
        y[block] = demand[at]
        record[block], months[block], period[block] = at, t, k

    lags = range(1, lag_months + 1)
    names = [f"lag_{j}" for j in lags] + [f"lag_{j}_present" for j in lags]
    table = FeatureTable._assembled(
        facility_codes=ledger.facility.take(record),
        product_codes=ledger.product.take(record),
        period_codes=Coded(tuple(period_str(t) for t, _ in blocks), period),
        X=X,
        y=y,
        weights=np.ones(len(X)),
        feature_names=names + ["month", "year", "region_code"],
        months=months,
    )
    table._check()  # StockRecords may hold demands that are not finite
    return table


def last_per_key(keys, records):
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
