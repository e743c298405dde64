import importlib.util
import re
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stockalloc import (
    EmptyInputError,
    FeatureTable,
    NotFoundError,
    RunConfig,
    SchemaError,
    ShapeError,
    StockAllocError,
    StockRecord,
    TwoClassScenario,
    build_feature_table,
    clean_records,
    generate,
    parse_records,
    split_train_eval,
)

from stockalloc import WeightConfig, budgets_from_fraction, compute_weights, ingest
from stockalloc.ingest import INVENTORY_COLUMN, Ledger, net_requirement
from stockalloc.periods import normalize_period, period_index
from stockalloc.pipeline import prepare, rolling_forecasts, split_table

from oracles import (
    reference_clean,
    reference_codes,
    reference_feature_table,
    reference_group_rows,
    reference_groups,
    reference_parse,
    reference_period_index,
    reference_rolling_forecasts,
    reference_series,
)
from test_cli import write_ledger

HEADER = (
    "facility_id,product_id,period,region,opening_balance,quantity_received,"
    "quantity_dispensed,adjustment,closing_balance\n"
)


def record(facility="f1", product="amox", period="2021-01", region="north",
           opening=10.0, received=5.0, dispensed=3.0, adjustment=0.0, closing=None):
    if closing is None:
        closing = opening + received - dispensed + adjustment
    return StockRecord(
        facility_id=facility,
        product_id=product,
        period=period,
        region=region,
        opening_balance=opening,
        quantity_received=received,
        quantity_dispensed=dispensed,
        adjustment=adjustment,
        closing_balance=closing,
    )


def workloads():
    """The benchmark's input generators (`perfbench/workloads.py`)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParseRecords:
    def test_single_well_formed_row(self):
        data = HEADER + "f1,amox,2021-01,north,10,5,3,0,12\n"
        records, rejects = parse_records(data.encode())
        assert len(records) == 1 and rejects == []
        rec = records[0]
        assert rec.demand == 3.0
        assert clean_records(records)[1] == []  # balanced

    def test_non_numeric_cell_rejected_with_line_number(self):
        data = HEADER + "f1,amox,2021-01,north,abc,5,3,0,12\n"
        records, rejects = parse_records(data.encode())
        assert list(records) == []
        assert len(rejects) == 1
        assert rejects[0].line_number == 2
        assert "opening_balance" in rejects[0].reason

    def test_missing_cell_rejected(self):
        rows = (
            "f1,amox,2021-01,north,10,5,3,0,12\n"
            "f1,amox,2021-02,north,12,0,4,0,\n"
            "f1,amox,2021-03,north,8,0,2,0,6\n"
        )
        records, rejects = parse_records((HEADER + rows).encode())
        assert len(records) == 2
        assert len(rejects) == 1
        assert rejects[0].line_number == 3
        assert "closing_balance" in rejects[0].reason

    def test_missing_column_raises_schema_error(self):
        data = "facility_id,product_id,period\nf1,amox,2021-01\n"
        with pytest.raises(SchemaError, match="region"):
            parse_records(data.encode())

    def test_empty_file_raises(self):
        with pytest.raises(EmptyInputError):
            parse_records(b"")

    def test_schema_renames_columns(self):
        data = (
            "Facility,Product,Month,Region,Open,In,Out,Adj,Close\n"
            "f1,amox,2021-01,north,10,5,3,0,12\n"
        )
        schema = {
            "facility_id": "Facility",
            "product_id": "Product",
            "period": "Month",
            "region": "Region",
            "opening_balance": "Open",
            "quantity_received": "In",
            "quantity_dispensed": "Out",
            "adjustment": "Adj",
            "closing_balance": "Close",
        }
        records, rejects = parse_records(data.encode(), schema=schema)
        assert len(records) == 1 and not rejects

    def test_period_normalized(self):
        data = HEADER + "f1,amox,2021-3,north,10,5,3,0,12\n"
        records, _ = parse_records(data.encode())
        assert records[0].period == "2021-03"

    def test_bad_period_rejected(self):
        data = HEADER + "f1,amox,March,north,10,5,3,0,12\n"
        records, rejects = parse_records(data.encode())
        assert not records and len(rejects) == 1

    def test_negative_quantity_rejected_signed_adjustment_kept(self):
        rows = (
            "f1,amox,2021-01,north,10,5,-3,0,18\n"
            "f1,amox,2021-02,north,10,5,3,-2,10\n"
        )
        records, rejects = parse_records((HEADER + rows).encode())
        assert len(records) == 1  # adjustment may be negative
        assert records[0].adjustment == -2.0
        assert len(rejects) == 1 and "negative quantity_dispensed" in rejects[0].reason

    @pytest.mark.parametrize("cells, reason", [
        ("inf,5,3,0,12", "non-finite opening_balance: 'inf'"),
        ("10,5,nan,0,12", "non-finite quantity_dispensed: 'nan'"),
        ("10,5,3,-inf,12", "non-finite adjustment: '-inf'"),
        ("10,1e400,3,0,12", "non-finite quantity_received: '1e400'"),
    ])
    def test_non_finite_quantity_rejected(self, cells, reason):
        data = HEADER + "f1,amox,2021-01,north,10,5,3,0,12\n" + f"f1,amox,2021-02,north,{cells}\n"
        records, rejects = parse_records(data.encode())
        assert len(records) == 1
        assert [(r.line_number, r.reason) for r in rejects] == [(3, reason)]

    def test_extra_cells_rejected_with_the_dict_reader_row(self):
        data = HEADER + "f1,amox,2021-01,north,10,5,3,0,12,late,note\n"
        records, rejects = parse_records(data.encode())
        assert list(records) == []
        assert rejects[0].reason == "11 cells, header has 9"
        assert rejects[0].raw["closing_balance"] == "12"
        assert rejects[0].raw[None] == ["late", "note"]

    def test_short_row_raw_fills_absent_cells_with_none(self):
        data = HEADER + "\n\nf1,amox,2021-01\n"
        _, rejects = parse_records(data.encode())
        assert (rejects[0].line_number, rejects[0].reason) == (4, "missing region")
        assert rejects[0].raw["period"] == "2021-01" and rejects[0].raw["region"] is None

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_bytes(HEADER.encode() + b"f1,amox,2021-01,north,10,5,3,0,12\nf\xff,a\n")
        with pytest.raises(SchemaError, match=f"^{path}, line 3: 'utf-8' codec can't decode"):
            parse_records(path)
        with pytest.raises(SchemaError, match="^CSV data, line 3: 'utf-8' codec can't decode"):
            parse_records(path.read_bytes())

    def test_field_over_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(HEADER + 'f1,"' + "x" * 200_000 + '",2021-01,north,10,5,3,0,12\n')
        with pytest.raises(SchemaError, match=f"^{path}, line 2: field larger than field limit"):
            parse_records(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with one."""
        data = (HEADER + "f1,amox,2021-01,north,10,5,3,0,12\nf1,amox,2021-02,north,x,5,3,0,12\n")
        path = tmp_path / "ledger.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data.encode())
        plain, plain_rejects = parse_records(data.encode())
        for source in (path, str(path), path.read_bytes()):
            records, rejects = parse_records(source)
            assert list(records) == list(plain) and len(records) == 1
            assert rejects == plain_rejects and rejects[0].line_number == 3

    def test_heap_peak(self, tmp_path):
        """Parsing holds one chunk of `CHUNK_ROWS` CSV rows at a time, not the
        whole file: on the benchmark's seed-1 ledger (6,966 records, ~7k
        lines) the peak was 1.53 MB at 1024 rows a chunk, 2.54 MB at 2048,
        4.4 MB at 4096, and 2.86 MB for the one-record-object-per-line
        parser this replaced."""
        path = tmp_path / "ledger.csv"
        workloads().generate_ledger(path, 1, n_products=3)
        parse_records(path)  # keeps first-call setup (about 80 kB) out of the peak
        tracemalloc.start()
        try:
            records, rejects = parse_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(records), len(rejects)) == (6966, 35)
        assert peak < 1.7e6  # 1.53 MB measured


_LEDGER_NAMES = HEADER.strip().split(",")
# (readable cells, faulty cells) per kind of field; a cell is faulty about one time in ten
_ID_CELLS = (["f1", " f2 ", "a,b", 'say "hi"', "x\ny", "r\r\nq", "é"], ["", "  ", "\t"])
_PERIOD_CELLS = (["2021-01", "2021-1", " 2021-03 ", "0221-04"],
                 ["2021-13", " 2021-00", "March", "20x2-01", "", " "])
_QUANTITY_CELLS = (["0", "5", "3.5", " 7 ", "\t2\t", "5\n", "-0", "1e3", "1_0", "\u00a08", "12"],
                   ["-5", " -2 ", "nan", " inf", "-inf", "1e400", "x", "x ", "", "  "])


def _cells_of(name):
    good, bad = (_PERIOD_CELLS if name == "period"
                 else _QUANTITY_CELLS if name in _LEDGER_NAMES[4:] else _ID_CELLS)
    return st.sampled_from(good * (9 * len(bad) // len(good) + 1) + bad)


@st.composite
def ledger_files(draw):
    """Ledger CSV bytes with the default column names, shuffled and perhaps
    with extra columns or a repeated name (its last column counts): rows of
    valid and invalid cells, short and long rows, blank lines, quoted cells
    holding commas, quotes and newlines, LF or CRLF per line, perhaps a
    byte-order mark."""
    header = draw(st.permutations(
        _LEDGER_NAMES + draw(st.lists(st.sampled_from(["note", "region", "period"]), max_size=2))
    ))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 7)) == 0:
            lines.append([])  # a blank line
            continue
        row = [draw(_cells_of(name)) for name in header]
        change = draw(st.sampled_from(["keep"] * 12 + ["cut", "extend"]))
        if change == "cut":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif change == "extend":
            row += draw(st.lists(st.sampled_from(["late", "", "a,b"]), min_size=1, max_size=2))
        lines.append(row)

    def quoted(cell):
        if any(c in cell for c in ',"\r\n') or draw(st.integers(0, 5)) == 0:
            return '"' + cell.replace('"', '""') + '"'
        return cell

    text = "".join(",".join(map(quoted, row)) + draw(st.sampled_from(["\n", "\r\n"]))
                   for row in lines)
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()


class TestMatchesReferenceParser:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ledger_files(), st.sampled_from([1, 2, 3, 5, ingest.CHUNK_ROWS]))
    def test_same_records_and_rejects(self, data, chunk_rows):
        ref_records, ref_rejects = reference_parse(data)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            records, rejects = parse_records(data)
        assert isinstance(records, Ledger)
        assert list(records) == [StockRecord(*values) for values in ref_records]
        assert [(r.line_number, r.reason, r.raw) for r in rejects] == ref_rejects

    def test_multi_line_rows_count_their_last_line(self):
        data = HEADER + 'f1,"a\nb",2021-01,north,10,5,3,0,12\n\nf1,amox,2021-01,north,x,5,3,0,12\n'
        ref_records, ref_rejects = reference_parse(data.encode())
        records, rejects = parse_records(data.encode())
        assert [r.line_number for r in rejects] == [line for line, _, _ in ref_rejects] == [5]
        assert records[0].product_id == "a\nb" and len(records) == len(ref_records) == 1


class TestCleanRecords:
    def test_balanced_record_kept(self):
        kept, excluded = clean_records([record(opening=10, received=5, dispensed=3, closing=12)])
        assert len(kept) == 1 and not excluded

    def test_all_zero_excluded(self):
        rec = record(opening=0, received=0, dispensed=0, adjustment=0, closing=0)
        kept, excluded = clean_records([rec])
        assert not kept
        assert excluded[0].reason == "all_zero"

    def test_unbalanced_excluded(self):
        rec = record(opening=10, received=5, dispensed=3, closing=99)
        kept, excluded = clean_records([rec])
        assert not kept and excluded[0].reason == "unbalanced"

    def test_outlier_against_series_median(self):
        # median positive demand is 20, multiplier 10 -> cutoff 200 < 900
        series = [
            record(period="2021-01", dispensed=10.0),
            record(period="2021-02", dispensed=20.0),
            record(period="2021-03", dispensed=30.0),
            record(period="2021-04", dispensed=900.0),
        ]
        assert float(np.median([10.0, 20.0, 30.0, 900.0][:3])) == 20.0
        kept, excluded = clean_records(series, outlier_multiplier=10.0)
        assert len(kept) == 3
        assert excluded[0].reason == "outlier"
        assert excluded[0].record.demand == 900.0

    def test_outlier_rule_iterates_to_fixed_point(self):
        # Removing 600 drops the median far enough to expose 25 as well.
        demands = [2.0, 2.0, 25.0, 600.0]
        series = [record(period=f"2021-0{i+1}", dispensed=d) for i, d in enumerate(demands)]
        kept, excluded = clean_records(series, outlier_multiplier=10.0)
        assert sorted(r.demand for r in kept) == [2.0, 2.0]
        assert {e.record.demand for e in excluded} == {25.0, 600.0}
        # idempotence: cleaning the kept rows excludes nothing further
        kept2, excluded2 = clean_records(kept, outlier_multiplier=10.0)
        assert list(kept2) == list(kept) and excluded2 == []

    def test_partition_is_permutation_of_input(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(30):
            dispensed = float(rng.integers(0, 50))
            rec = record(period=f"2021-{1 + i % 12:02d}", facility=f"f{i % 3}",
                         dispensed=dispensed)
            if i % 7 == 0:
                rec = record(period=rec.period, facility=rec.facility_id,
                             dispensed=dispensed, closing=-1.0)
            records.append(rec)
        kept, excluded = clean_records(records)
        assert len(kept) + len(excluded) == len(records)
        combined = sorted(list(kept) + [e.record for e in excluded], key=astuple)
        assert sorted(records, key=astuple) == combined

    def test_idempotent_on_random_data(self):
        rng = np.random.default_rng(1)
        records = [
            record(period=f"20{10 + i // 12}-{1 + i % 12:02d}",
                   dispensed=float(rng.integers(0, 400)))
            for i in range(60)
        ]
        kept, _ = clean_records(records)
        kept2, excluded2 = clean_records(kept)
        assert list(kept2) == list(kept) and excluded2 == []

    def test_multiplier_must_exceed_one(self):
        with pytest.raises(ValueError):
            clean_records([record()], outlier_multiplier=1.0)

    def test_empty_input(self):
        kept, excluded = clean_records([])
        assert (list(kept), excluded) == ([], [])


class TestBuildFeatures:
    def test_direct_lag_readout(self):
        series = [
            record(period="2021-01", dispensed=2.0),
            record(period="2021-02", dispensed=3.0),
            record(period="2021-03", dispensed=4.0),
        ]
        t = build_feature_table(series, lag_months=2, periods=["2021-03"])
        assert len(t) == 1
        row = t.X[0]
        names = t.feature_names
        assert row[names.index("lag_1")] == 3.0
        assert row[names.index("lag_2")] == 2.0
        assert row[names.index("lag_1_present")] == 1.0
        assert row[names.index("lag_2_present")] == 1.0
        assert t.y[0] == 4.0

    def test_missing_month_sentinel(self):
        series = [
            record(period="2021-01", dispensed=2.0),
            record(period="2021-03", dispensed=4.0),
        ]
        t = build_feature_table(series, lag_months=2, periods=["2021-03"])
        names = t.feature_names
        assert t.X[0][names.index("lag_1")] == -1.0  # 2021-02 absent
        assert t.X[0][names.index("lag_1_present")] == 0.0
        assert t.X[0][names.index("lag_2")] == 2.0

    def test_multitask_rows_share_dimension(self):
        series = [
            record(facility="f1", period="2021-02", dispensed=1.0),
            record(facility="f2", period="2021-02", dispensed=9.0),
        ]
        t = build_feature_table(series, lag_months=3, periods=["2021-02"])
        assert len(t) == 2
        assert t.feature_dim == 2 * 3 + 3

    def test_default_dimension_is_23_for_10_lags(self):
        t = build_feature_table([record(period="2021-01")], lag_months=10, periods=["2021-01"])
        assert t.feature_dim == 23

    def test_as_of_before_all_records(self):
        with pytest.raises(EmptyInputError):
            build_feature_table([record(period="2021-05")], lag_months=2, periods=["2020-01"])

    def test_unnormalized_period_spellings_are_lags_but_not_rows(self):
        records = [record(period="2021-3", dispensed=2.0), record(period=" 2021-04 "),
                   record(period="2021-05", dispensed=7.0)]
        with pytest.raises(EmptyInputError, match="no records at the requested periods"):
            build_feature_table(records[:2], lag_months=2)
        t = build_feature_table(records, lag_months=2)
        fac, prod, per, X, y, names = reference_feature_table(records, 2)
        assert t.periods == per == ["2021-05"]
        assert t.X.tobytes() == X.tobytes() and t.y.tobytes() == y.tobytes()
        assert t.X[0, :4].tolist() == [3.0, 2.0, 1.0, 1.0]

    def test_a_month_spelt_two_ways_is_requested_once(self):
        records = [record(period="2021-01"), record(period="2021-02"),
                   record(facility="f2", period="2021-2")]
        t = build_feature_table(records, lag_months=1)
        fac, prod, per, X, y, names = reference_feature_table(records, 1)
        assert t.periods == per == ["2021-01", "2021-02"]
        assert t.facility_ids == fac == ["f1", "f1"]
        assert t.X.tobytes() == X.tobytes()

    @pytest.mark.parametrize("periods", [["2021-02", "2021-2"], ["2021-2", " 2021-02", "2021-02"]])
    def test_a_month_asked_for_twice_gives_its_rows_once(self, periods):
        records = [record(period="2021-01", dispensed=3.0), record(period="2021-02")]
        t = build_feature_table(records, lag_months=1, periods=periods)
        fac, prod, per, X, y, names = reference_feature_table(records, 1, periods)
        assert len(t) == 1
        assert t.periods == per == ["2021-02"] and t.period_codes.values == ("2021-02",)
        assert t.X.tobytes() == X.tobytes() and t.X[0, :2].tolist() == [3.0, 1.0]

    def test_all_values_finite(self):
        rng = np.random.default_rng(2)
        records = [
            record(facility=f"f{i % 4}", period=f"2021-{1 + i % 12:02d}",
                   dispensed=float(rng.integers(0, 30)))
            for i in range(48)
        ]
        t = build_feature_table(records, lag_months=4)
        assert np.all(np.isfinite(t.X))
        assert len(set(map(len, [t.facility_ids, t.product_ids, t.periods]))) == 1


_FIRST_MONTH = 2019 * 12 + 10  # 2019-11: ledgers cross a year boundary


def _month(offset):
    index = _FIRST_MONTH + offset
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


@st.composite
def ledgers(draw):
    """Records over 4 facilities, 3 products, 3 regions and 18 months, with
    missing months, re-reported (facility, product, period) keys, a lag
    window of 1 to 12, and either the default periods or an explicit list
    that may hold months with no rows, or before every record."""
    demand = st.one_of(
        st.integers(0, 50).map(float),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    rec = st.builds(
        lambda f, p, r, m, d: record(facility=f"f{f}", product=f"p{p}", region=f"r{r}",
                                     period=_month(m), dispensed=d),
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 17), demand,
    )
    records = draw(st.lists(rec, min_size=1, max_size=40))
    for i in draw(st.lists(st.integers(0, len(records) - 1), max_size=5)):
        records.append(replace(records[i], quantity_dispensed=draw(demand)))
    explicit = st.lists(st.integers(-2, 20).map(_month), min_size=1, max_size=6)
    return records, draw(st.integers(1, 12)), draw(st.one_of(st.none(), explicit))


class TestMatchesReferenceFeaturizer:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ledgers())
    def test_bit_identical_to_per_period_loop(self, ledger):
        records, lag_months, periods = ledger
        fac, prod, per, X, y, names = reference_feature_table(records, lag_months, periods)
        precedes = periods is not None and min(periods) < min(r.period for r in records)
        if not fac or precedes:
            with pytest.raises(EmptyInputError):
                build_feature_table(records, lag_months=lag_months, periods=periods)
            return
        t = build_feature_table(records, lag_months=lag_months, periods=periods)
        assert (t.facility_ids, t.product_ids, t.periods) == (fac, prod, per)
        assert t.feature_names == tuple(names)
        assert t.X.shape == X.shape and t.X.tobytes() == X.tobytes()
        assert t.y.tobytes() == y.tobytes()


    def test_records_decades_apart(self):
        """A mistyped year stretches the span of months, not the work: 40
        series over two years plus one record in year 0221 (about 21,600
        months earlier) build in well under the ~28 MB that a dense
        (series x month) grid over that span would take."""
        records = [
            record(facility=f"f{f}", product=f"p{p}", region=f"r{f % 3}",
                   period=_month(m), dispensed=float((7 * f + 3 * p + m) % 11))
            for f in range(20) for p in range(2) for m in range(24)
        ]
        records.insert(100, record(facility="f3", product="p1", period="0221-03",
                                   dispensed=4.0))
        records.append(record(facility="f5", product="p0", period="0221-04", dispensed=9.0))
        fac, prod, per, X, y, names = reference_feature_table(records, 10)
        tracemalloc.start()
        try:
            t = build_feature_table(records, lag_months=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (t.facility_ids, t.product_ids, t.periods) == (fac, prod, per)
        assert t.X.tobytes() == X.tobytes() and t.y.tobytes() == y.tobytes()
        assert t.periods[:2] == ["0221-03", "0221-04"]
        assert peak < 4 * 2**20


@st.composite
def cleaner_inputs(draw):
    """Records of up to four interleaved series and an outlier multiplier.

    Demands mix ties, zeros, integers and floats; a series may get a
    geometric run, whose top values fall one round after another. Some
    rows are unbalanced or all zero.
    """
    multiplier = draw(st.one_of(
        st.sampled_from([float(np.nextafter(1.0, 2.0)), 1.5, 2.0, 10.0]),
        st.floats(1.0, 3.0, exclude_min=True),
        st.floats(1.0, 30.0, exclude_min=True),
    ))
    demand = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0, 20.0, 25.0, 600.0]),
        st.integers(0, 40).map(float),
        st.floats(0.0, 1e4, allow_nan=False),
    )
    rows = draw(st.lists(
        st.tuples(st.integers(0, 3), demand, st.sampled_from(["ok"] * 8 + ["unbalanced", "zero"])),
        max_size=30,
    ))
    if draw(st.booleans()):
        base, ratio = draw(st.floats(0.5, 50.0)), multiplier * draw(st.floats(1.0, 3.0))
        series = draw(st.integers(0, 3))
        rows += [(series, base * ratio ** k, "ok") for k in range(draw(st.integers(2, 6)))]
    rows = draw(st.permutations(rows))
    records = []
    for i, (s, d, kind) in enumerate(rows):
        if kind == "zero":
            rec = record(opening=0.0, received=0.0, dispensed=0.0, closing=0.0)
        else:
            closing = 7.0 if kind == "unbalanced" else None
            rec = record(opening=d, received=0.0, dispensed=d, closing=closing)
        records.append(replace(rec, facility_id=f"f{s % 2}", product_id=f"p{s // 2}",
                               period=_month(i % 18)))
    return records, multiplier


def _series(demands, multiplier):
    return [record(period=_month(i), opening=d, received=0.0, dispensed=d)
            for i, d in enumerate(demands)], multiplier


def _cascade():
    return _series([1.0, 1.0, 20.0, 400.0, 8000.0], 10.0)  # 8000 and 400 fall, then 20


class TestMatchesReferenceCleaner:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(cleaner_inputs())
    @example(_cascade())
    @example(_series([1.0, 10.0, 100.0], 1.5))  # 10's others are 1 and 100, not 1 and 10
    @example(_series([2.0, 2.0, 5.0, 9.0, 30.0], 1.2))
    def test_same_kept_and_exclusions_in_order(self, inputs):
        records, multiplier = inputs
        kept, excluded = clean_records(records, outlier_multiplier=multiplier)
        ref_kept, ref_excluded = reference_clean(records, outlier_multiplier=multiplier)
        assert list(kept) == ref_kept
        assert [(e.record, e.reason) for e in excluded] == ref_excluded

    def test_cascade_needs_rounds(self):
        records, multiplier = _cascade()
        kept, excluded = clean_records(records, outlier_multiplier=multiplier)
        assert [r.demand for r in kept] == [1.0, 1.0]
        assert [e.record.demand for e in excluded] == [20.0, 400.0, 8000.0]

    def test_dirty_ledger_end_to_end(self, tmp_path):
        ledger = write_ledger(tmp_path / "ledger.csv", months=12, facilities=5,
                              products=("ors", "amox"))
        with open(ledger, "a") as fh:
            fh.write("fac1,ors,2022-01,r1,1000,0,900,0,100\n")  # outlier
            fh.write("fac2,ors,2022-01,r0,10,5,3,0,99\n")  # unbalanced
            fh.write("fac3,amox,2022-01,r1,0,0,0,0,0\n")  # all zero
            fh.write("fac4,amox,2022-01,r0,x,5,3,0,12\n")  # rejected
            fh.write("fac0,amox,2021-05,r0,40,5,3.5,0,41.5\n")  # re-reported month
        records, rejects = parse_records(str(ledger))
        kept, excluded = clean_records(records)
        ref_kept, ref_excluded = reference_clean(records)
        assert len(rejects) == 1
        assert [reason for _, reason in ref_excluded] == ["outlier", "unbalanced", "all_zero"]
        assert list(kept) == ref_kept
        assert [(e.record, e.reason) for e in excluded] == ref_excluded
        table = build_feature_table(kept)
        fac, prod, per, X, y, names = reference_feature_table(ref_kept)
        assert (table.facility_ids, table.product_ids, table.periods) == (fac, prod, per)
        assert table.X.tobytes() == X.tobytes() and table.y.tobytes() == y.tobytes()


def _parses_or_categorized(data):
    """parse_records returns records and rejects, or raises a StockAllocError."""
    try:
        records, rejects = parse_records(data)
    except StockAllocError:
        return
    for rec in records:
        assert isinstance(rec, StockRecord)
        assert all(np.isfinite([rec.opening_balance, rec.quantity_received, rec.demand,
                                rec.adjustment, rec.closing_balance]))
    lines = [r.line_number for r in rejects]
    assert lines == sorted(lines)


_CSVISH = st.text(alphabet=',"\r\n \t0123456789-.+eEinfaINFxé\x00', max_size=60)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.binary(max_size=40), _CSVISH.map(str.encode)), max_size=8))
    def test_any_bytes_after_a_valid_header(self, chunks):
        _parses_or_categorized(HEADER.encode() + b"\n".join(chunks))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.binary(max_size=120), _CSVISH.map(str.encode)),
           st.lists(st.sampled_from(HEADER.strip().split(",")), max_size=10),
           st.binary(max_size=80))
    def test_any_header(self, junk, columns, body):
        _parses_or_categorized(junk)
        _parses_or_categorized(",".join(columns).encode() + b"\n" + body)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(
        st.from_regex(r"\s?\d{1,5}-\d{1,3}\s?", fullmatch=True),
        st.text(max_size=10),
        st.integers(),
        st.lists(st.text(max_size=3), max_size=2),
    ))
    def test_period_index_matches_reference(self, value):
        try:
            expected = reference_period_index(value)
        except ValueError as exc:
            for _ in range(2):  # a call leaves nothing behind for the next
                with pytest.raises(ValueError) as info:
                    period_index(value)
                assert str(info.value) == str(exc)
        else:
            assert period_index(value) == period_index(value) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(
        st.from_regex(r"\s?\d{1,5}-\d{1,3}\s?", fullmatch=True),
        st.text(max_size=10),
        st.integers(),
    ))
    def test_normalize_period_matches_reference(self, value):
        try:
            index = reference_period_index(value)
        except ValueError as exc:
            for _ in range(2):
                with pytest.raises(ValueError) as info:
                    normalize_period(value)
                assert str(info.value) == str(exc)
        else:
            expected = f"{index // 12:04d}-{index % 12 + 1:02d}"
            assert normalize_period(value) == normalize_period(value) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.sampled_from([" 2021-3 ", "2021-03", "2021-3", "2020-12", "2021-13", "21-03", ""]),
        st.from_regex(r"\s?\d{1,5}-\d{1,3}\s?", fullmatch=True),
        st.integers(),
        st.text(max_size=6),
    ), max_size=12))
    @example(["2021-03", "5", 5])
    @example([" 2021-3 ", 5, "5"])
    def test_period_indices_match_reference(self, periods):
        """A table's months parse each period as `period_index` would; a bad
        list raises the text of its first bad item, spelled as given, even
        when a later item shares that item's `str()` spelling."""
        n = len(periods)

        def months_of_table():
            return FeatureTable(["a"] * n, ["p"] * n, periods, np.zeros((n, 1)), np.zeros(n),
                                np.ones(n)).months

        expected = []
        for period in periods:
            try:
                expected.append(reference_period_index(period))
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    months_of_table()
                assert str(info.value) == str(exc)
                return
        months = months_of_table()
        assert months.dtype == np.int64 and months.tolist() == expected


class TestBadPeriodsKeepTheirError:
    """A bad period raises at the first bad row in row order, with the text
    `period_index` gives it; the record months are read before the
    requested ones. (A table built from lists: `TestFeatureTableCsv`.)"""

    @staticmethod
    def _records(*periods, unbalanced=()):
        return [record(facility=f"f{i}", period=p, closing=99.0 if i in unbalanced else None)
                for i, p in enumerate(periods)]

    @pytest.mark.parametrize("periods, message", [
        (("2021-01", "2021-13", "2021-02", "21-01"), "bad month in period '2021-13'"),
        (("2021-01", "21-01", "2021-02", "2021-13", "21-01"),
         "bad period '21-01', expected YYYY-MM"),
        (("2021-01", 5, "2021-13"), "bad period 5, expected YYYY-MM"),
    ])
    @pytest.mark.parametrize("requested", [None, ["2021-02"], ["2021-13"]])
    def test_records_of_a_ledger_of_stock_records(self, periods, message, requested):
        records = self._records(*periods)
        with pytest.raises(ValueError) as info:
            Ledger.of(records).months
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            build_feature_table(records, lag_months=2, periods=requested)
        assert str(info.value) == message

    def test_records_kept_by_cleaning(self):
        """A bad period among the excluded records is not one of the kept."""
        records = self._records("x", "2021-01", "21-01", "2021-13", unbalanced=(0,))
        kept, excluded = clean_records(records)
        assert [e.record.period for e in excluded] == ["x"]
        with pytest.raises(ValueError, match=re.escape("bad period '21-01', expected YYYY-MM")):
            build_feature_table(kept, lag_months=2, periods=["2021-01"])

    def test_requested_periods(self):
        records = self._records("2021-01", "2021-02")
        with pytest.raises(ValueError) as info:
            build_feature_table(records, lag_months=2, periods=["2021-02", "2021-13", "21-01"])
        assert str(info.value) == "bad month in period '2021-13'"


class TestSplit:
    def _table(self):
        records = [
            record(period="2021-01", dispensed=1.0),
            record(period="2021-02", dispensed=2.0),
            record(period="2021-03", dispensed=3.0),
        ]
        return build_feature_table(records, lag_months=2)

    def test_partition(self):
        t = self._table()
        train, evaluation, train_rows = split_train_eval(t, "2021-03")
        assert set(train.periods) == {"2021-01", "2021-02"}
        assert set(evaluation.periods) == {"2021-03"}
        assert len(train) + len(evaluation) == len(t)
        assert train_rows.tolist() == [i for i, p in enumerate(t.periods) if p < "2021-03"]
        assert train.X.tobytes() == t.X[train_rows].tobytes()

    def test_eval_at_earliest_period(self):
        t = self._table()
        train, evaluation, train_rows = split_train_eval(t, "2021-01")
        assert len(train) == len(train_rows) == 0 and len(evaluation) == 1

    def test_absent_period_raises(self):
        with pytest.raises(NotFoundError):
            split_train_eval(self._table(), "2022-01")

    @pytest.mark.parametrize("eval_period", ["2021-3", "2021-03"])
    def test_months_spelled_without_a_zero_match(self, eval_period):
        t = self._table()
        unpadded = FeatureTable(t.facility_ids, t.product_ids,
                                [p.replace("-0", "-") for p in t.periods],
                                t.X, t.y, t.weights, t.feature_names)
        train, evaluation, _ = split_train_eval(unpadded, eval_period)
        assert (set(train.periods), evaluation.periods) == ({"2021-1", "2021-2"}, ["2021-3"])
        with pytest.raises(NotFoundError, match="eval period 2022-01 not present"):
            split_train_eval(unpadded, "2022-1")

    @staticmethod
    def _csv_table(tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("facility_id,product_id,period,f_0,target,weight\n"
                        "f1,p,2021-9,0.0,1.0,1.0\n"
                        "f1,p,2021-10,0.0,2.0,1.0\n"
                        "f2,p,2021-09,0.0,3.0,1.0\n")
        return FeatureTable.from_csv(path)

    @pytest.mark.parametrize("built_by", ["build_feature_table", "generate", "from_arrays",
                                          "from_csv", "subset", "with_weights"])
    def test_months_are_the_periods_parsed(self, built_by, tmp_path):
        build = {
            "build_feature_table": self._table,
            "generate": lambda: generate(TwoClassScenario(n_low=2, n_high=2), periods=13)[0],
            "from_arrays": lambda: FeatureTable.from_arrays(np.ones((2, 1)), np.ones(2),
                                                            period=" 2021-3 "),
            "from_csv": lambda: self._csv_table(tmp_path),
            "subset": lambda: self._csv_table(tmp_path).subset([2, 1, 1]),
            "with_weights": lambda: self._csv_table(tmp_path).with_weights([2.0, 0.5, 1.0]),
        }
        table = build[built_by]()
        assert table.months.dtype == np.int64
        assert table.months.tolist() == [reference_period_index(p) for p in table.periods]

    def test_split_table_defaults_to_the_latest_month(self, tmp_path):
        """The latest month, "2021-10", not the string maximum "2021-9"."""
        train, evaluation, eval_period, train_rows = split_table(self._csv_table(tmp_path))
        assert eval_period == "2021-10" and evaluation.periods == ["2021-10"]
        assert train.periods == ["2021-9", "2021-09"] and train_rows.tolist() == [0, 2]


@st.composite
def key_columns(draw):
    """One to three equally long key columns in any row order: months, as a
    table's int64 array or as a list, and text ids such as product ids,
    from a few to many distinct ones."""
    n = draw(st.integers(0, 40))
    kind = st.sampled_from(["months", "month list", "ids"])
    kinds = draw(st.lists(kind, min_size=1, max_size=3))
    months = st.integers(24230, 24250)
    ids = st.text("abAB09_-é", max_size=3)
    columns = []
    for kind in kinds:
        values = draw(st.lists(ids if kind == "ids" else months, min_size=n, max_size=n))
        columns.append(np.array(values, dtype=np.int64) if kind == "months" else values)
    return columns


class TestGroupRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key_columns())
    @example([np.array([], dtype=np.int64), []])  # an empty table
    @example([[]])
    @example([np.array([24240]), ["p"]])  # one row
    @example([["p2", "p10", "b", "p2", "a", "b"]])  # sorted order is not first appearance
    @example([np.array([24241, 24239, 24241, 24240]), ["q", "p", "p", "q"]])  # months out of order
    @example([[f"prod_{(7 * i) % 97:02d}" for i in range(300)]])  # many products
    def test_matches_the_row_by_row_walk(self, columns):
        got = ingest.group_rows(*columns)
        lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        expected = reference_group_rows(lists[0] if len(lists) == 1 else zip(*lists))
        assert repr(list(got)) == repr(list(expected))  # the same keys, Python scalars, in order
        for key, rows in expected.items():
            assert got[key].dtype == np.int64
            assert got[key].tolist() == rows.tolist()

    def test_product_keys_as_evaluate_groups_them(self):
        t = build_feature_table([record(facility=f, product=p, period=m)
                                 for m in ("2021-01", "2021-02") for p in ("zinc", "amox")
                                 for f in ("f2", "f1")], lag_months=1)
        groups = ingest.group_rows(t.product_ids)
        assert list(groups) == ["amox", "zinc"]
        for product, rows in groups.items():
            assert rows.tolist() == [i for i, p in enumerate(t.product_ids) if p == product]


class _FirstLags:
    """A model whose demand samples are 1 plus the absolute first three features."""

    @staticmethod
    def predict_samples(X):
        return np.abs(X[:, :3]) + 1.0


def _assert_coded(coded, column):
    """`coded` decodes to `column` through sorted values, int32 codes."""
    assert coded.codes.dtype == np.int32
    assert coded.decoded() == list(column)
    assert list(coded.values) == sorted(set(coded.values)) and set(column) <= set(coded.values)


def _assert_same_groups(got, expected):
    assert list(got) == list(expected)  # the same keys, in order
    for key, rows in expected.items():
        assert got[key].tolist() == rows.tolist()


def _assert_string_path(table):
    """The codes of `table` and of its split, their groups and the rolling
    forecasts equal what the string columns give, and the weights of the
    training rows run the configured Jacobian on each of those groups."""
    _assert_coded(table.facility_codes, table.facility_ids)
    _assert_coded(table.product_codes, table.product_ids)
    _assert_same_groups(table.groups, reference_groups(table))
    if len(set(table.months.tolist())) < 2:
        return
    train, eval_table, eval_period, _ = split_table(table)
    for part in (train, eval_table):
        _assert_coded(part.facility_codes, part.facility_ids)
        _assert_coded(part.product_codes, part.product_ids)
        _assert_same_groups(part.groups, reference_groups(part))
    prepared = SimpleNamespace(train=train, eval_table=eval_table, eval_period=eval_period)
    for window in (1, 2, 5):
        got = rolling_forecasts(prepared, window)
        assert got.tobytes() == reference_rolling_forecasts(prepared, window).tobytes()
    report = compute_weights(train, _FirstLags(), budgets_from_fraction(train, 0.7),
                             WeightConfig(jacobian_mode="diagonal_fd"))
    assert list(report.group_jacobian_mode.items()) == [
        (key, "diagonal_fd") for key in reference_groups(train)]


def _assert_ledger_columns(ledger, rows, sorted_periods=None):
    """The Ledger's codes decode to the id columns of `rows` (tuples in
    `StockRecord` field order) through the vocabularies the string coders
    make: ids sorted, and the distinct period spellings, sorted, in order
    of first appearance (`sorted_periods` False) or in either order (None),
    each with its month."""
    columns = list(zip(*rows)) or [()] * 4
    for coded, column in zip((ledger.facility, ledger.product, ledger.period, ledger.region),
                             columns):
        assert coded.codes.dtype == np.int32
        assert coded.decoded() == list(column)
        if coded is ledger.period and sorted_periods is None:
            assert sorted(coded.values) == sorted(set(column))
            continue
        values, codes = reference_codes(column, sort=coded is not ledger.period or sorted_periods)
        assert (list(coded.values), coded.codes.tolist()) == (values, codes.tolist())
    assert [ledger.facility_ids, ledger.product_ids, ledger.periods, ledger.regions] == [
        list(column) for column in columns[:4]]
    assert [(r.facility_id, r.product_id, r.period, r.region) for r in ledger] == [
        row[:4] for row in rows]
    months = []
    for spelling in ledger.period.values:
        try:
            months.append(reference_period_index(spelling))
        except ValueError:
            months.append(-1)
    assert ledger.period_months.tolist() == months
    _, series = reference_series(columns[0], columns[1])
    assert np.array_equal(np.unique(ingest._series(ledger), return_inverse=True)[1], series)


_SPELLINGS = ("{:04d}-{:02d}", "{:04d}-{}", " {:04d}-{:02d} ", "{:04d}-{} ")


@st.composite
def respelled_ledgers(draw):
    """`ledgers()` records, each id perhaps with blanks around it and each
    period in one of several spellings of its month, so that ids sort in
    another order than they first appear and a month has several spellings."""
    records, lag_months, periods = draw(ledgers())
    out = []
    for rec in records:
        month = period_index(rec.period)
        spelling = draw(st.sampled_from(_SPELLINGS)).format(month // 12, month % 12 + 1)
        facility = draw(st.sampled_from(["{}", " {}", "{} "])).format(rec.facility_id)
        out.append(replace(rec, facility_id=facility, period=spelling))
    return draw(st.permutations(out)), lag_months, periods


class TestCodesMatchTheStringPath:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ledger_files())
    def test_parsed_ledger_and_its_tables(self, data):
        ref_records, _ = reference_parse(data)
        records, _ = parse_records(data)
        _assert_ledger_columns(records, ref_records, sorted_periods=True)
        kept, _ = clean_records(records)
        _assert_ledger_columns(kept, [astuple(r) for r in reference_clean(records)[0]],
                               sorted_periods=True)
        for lag_months in (1, 3):
            try:
                table = build_feature_table(kept, lag_months=lag_months)
            except EmptyInputError:
                return
            _assert_string_path(table)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(respelled_ledgers())
    def test_ledger_of_records_and_its_tables(self, ledger):
        records, lag_months, periods = ledger
        _assert_ledger_columns(Ledger.of(records), [astuple(r) for r in records],
                               sorted_periods=False)
        kept, _ = clean_records(records)
        _assert_ledger_columns(kept, [astuple(r) for r in reference_clean(records)[0]])
        expected = reference_feature_table(records, lag_months, periods)
        precedes = periods is not None and min(map(period_index, periods)) < min(
            period_index(r.period) for r in records)
        if not expected[0] or precedes:
            with pytest.raises(EmptyInputError):
                build_feature_table(records, lag_months=lag_months, periods=periods)
            return
        table = build_feature_table(records, lag_months=lag_months, periods=periods)
        fac, prod, per, X, y, _ = expected
        assert (table.facility_ids, table.product_ids, table.periods) == (fac, prod, per)
        assert table.X.tobytes() == X.tobytes() and table.y.tobytes() == y.tobytes()
        _assert_string_path(table)

    def test_dirty_benchmark_ledger(self, tmp_path):
        path = tmp_path / "ledger.csv"
        workloads().generate_ledger(path, 3, n_facilities=12, n_products=3, n_months=14)
        ref_records, ref_rejects = reference_parse(path.read_bytes())
        records, rejects = parse_records(path)
        assert len(rejects) == len(ref_rejects) > 0
        _assert_ledger_columns(records, ref_records, sorted_periods=True)
        kept, excluded = clean_records(records)
        assert excluded
        _assert_ledger_columns(kept, [astuple(r) for r in reference_clean(records)[0]],
                               sorted_periods=True)
        _assert_string_path(build_feature_table(kept, lag_months=3))

    @staticmethod
    def _csv_table(tmp_path):
        """Ids that sort in another order than they first appear."""
        path = tmp_path / "features.csv"
        rows = [("f2", "q", "2021-9"), ("f10", "p", "2021-09"), ("f1", "q", "2021-10"),
                ("f2", "p", "2021-10"), ("f10", "q", "2021-11"), ("f2", "q", " 2021-11 "),
                ("f1", "p", "2021-11")]
        path.write_text("facility_id,product_id,period,f_0,target,weight\n" + "".join(
            f"{f},{p},{m},{i}.0,{i + 1}.0,1.0\n" for i, (f, p, m) in enumerate(rows)))
        return FeatureTable.from_csv(path)

    @pytest.mark.parametrize("built_by", ["build_feature_table", "generate", "from_arrays",
                                          "from_csv", "subset", "with_weights"])
    def test_tables_built_from_lists_and_their_copies(self, built_by, tmp_path):
        records = [record(facility=f, product=p, period=m, dispensed=float(len(f + p) + k))
                   for k, m in enumerate(("2021-01", "2021-02", "2021-03"))
                   for f in ("f2", "f10", "f1") for p in ("q", "p")]
        build = {
            "build_feature_table": lambda: build_feature_table(records, lag_months=2),
            "generate": lambda: generate(TwoClassScenario(n_low=3, n_high=2), periods=4)[0],
            "from_arrays": lambda: FeatureTable.from_arrays(np.ones((3, 1)), np.ones(3),
                                                            period=" 2021-3 "),
            "from_csv": lambda: self._csv_table(tmp_path),
            "subset": lambda: self._csv_table(tmp_path).subset([6, 2, 0, 3, 3]),
            "with_weights": lambda: self._csv_table(tmp_path).with_weights(np.arange(7.0)),
        }
        _assert_string_path(build[built_by]())


class TestTableCopies:
    @staticmethod
    def _table():
        periods = ["2021-9", "2021-10", "2021-09", " 2022-1 ", "2021-10"]
        return FeatureTable(
            facility_ids=[f"f{i}" for i in range(5)], product_ids=["p", "q", "p", "q", "p"],
            periods=periods, X=np.arange(10.0).reshape(5, 2), y=np.arange(5.0),
            weights=np.full(5, 0.5),
        )

    @staticmethod
    def _check_parses_like_a_new_table(child):
        """`child` holds what a table built from its decoded columns holds."""
        built = FeatureTable(child.facility_ids, child.product_ids, child.periods,
                             child.X, child.y, child.weights, child.feature_names)
        assert child.months.dtype == np.int64
        assert child.months.tolist() == [reference_period_index(p) for p in child.periods]
        for name in ("X", "y", "weights", "months"):
            assert getattr(child, name).tobytes() == getattr(built, name).tobytes()
            assert getattr(child, name).shape == getattr(built, name).shape
        for name in ("facility_codes", "product_codes"):
            codes = getattr(child, name)
            assert codes.decoded() == getattr(built, name).decoded()
            assert codes.codes.dtype == np.int32 and codes.codes.shape == (len(child),)
        for name in ("facility_ids", "product_ids", "periods", "feature_names"):
            assert getattr(child, name) == getattr(built, name)

    @staticmethod
    def _arrays(table):
        return {"X": table.X, "y": table.y, "weights": table.weights, "months": table.months,
                **{name: getattr(table, name).codes
                   for name in ("facility_codes", "product_codes", "period_codes")}}

    @pytest.mark.parametrize("derive", ["positions", "mask", "empty"])
    def test_copy_parses_like_a_new_table_and_shares_nothing(self, derive):
        parent = self._table()
        child = {
            "positions": lambda: parent.subset([3, 1, 1, 4]),
            "mask": lambda: parent.subset(np.array([True, False, True, True, False])),
            "empty": lambda: parent.subset([]),
        }[derive]()
        self._check_parses_like_a_new_table(child)
        for name, array in self._arrays(child).items():
            assert not np.shares_memory(array, self._arrays(parent)[name])
        for name in ("facility_ids", "product_ids", "periods"):
            assert getattr(child, name) is not getattr(parent, name)
        assert child.feature_names is parent.feature_names  # a tuple, which cannot change

    @pytest.mark.parametrize("derive", ["run", "with_weights"])
    def test_view_parses_like_a_new_table_and_shares_read_only_columns(self, derive):
        """A run of consecutive rows and a reweighted table share their
        parent's columns, all but the new weights; no array of either can
        be written, so neither can change the other."""
        parent = self._table()
        child = {
            "run": lambda: parent.subset([1, 2, 3]),
            "with_weights": lambda: parent.with_weights([1.0, 0.0, 2.0, 0.5, 3.0]),
        }[derive]()
        self._check_parses_like_a_new_table(child)
        for name, array in self._arrays(child).items():
            own = derive == "with_weights" and name == "weights"
            assert np.shares_memory(array, self._arrays(parent)[name]) != own
        for array in [*self._arrays(parent).values(), *self._arrays(child).values()]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert child.feature_names is parent.feature_names

    def test_feature_names_cannot_be_written(self):
        table = self._table()
        assert table.feature_names == ("f_0", "f_1")
        with pytest.raises(TypeError):
            table.feature_names[0] = INVENTORY_COLUMN
        assert table.inventory_feature is None

    def test_group_rows_cannot_be_written(self):
        table = self._table()
        assert {key: rows.tolist() for key, rows in table.groups.items()} == {
            ("2021-09", "p"): [0, 2], ("2021-10", "p"): [4], ("2021-10", "q"): [1],
            ("2022-01", "q"): [3]}
        for rows in table.groups.values():
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[...] = 0

    def test_arrays_passed_in_keep_their_flags(self):
        X, y, weights = np.zeros((2, 1)), np.ones(2), np.ones(2)
        table = FeatureTable(["f1", "f2"], ["p", "p"], ["2021-01"] * 2, X, y, weights)
        reweighted = table.with_weights(weights)
        assert X.flags.writeable and y.flags.writeable and weights.flags.writeable
        assert not table.X.flags.writeable and not reweighted.weights.flags.writeable
        assert np.shares_memory(table.X, X) and np.shares_memory(reweighted.weights, weights)

    @pytest.mark.parametrize("copy", ["subset", "with_weights"])
    def test_copy_holds_only_arrays(self, tmp_path, copy):
        """A run of the seed-1 benchmark ledger's training table (here all of
        its rows) and a reweighted copy keep alive at most 1.01x the bytes
        of their weights: every other column is a view of the parent's, and
        a reweighted table holds the weights it is given. Copies of every
        column kept alive 1.001x their arrays' bytes, and 1.112x with the
        per-row lists of ids the tables held before."""
        path = tmp_path / "ledger.csv"
        workloads().generate_ledger(path, 1, n_products=3)
        train = prepare(RunConfig(csv_path=str(path), model="linear", seed=1)).train
        rows, weights = np.arange(len(train)), np.ones(len(train))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = train.subset(rows) if copy == "subset" else train.with_weights(weights)
            alive = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == len(train) > 6000
        assert alive <= 1.01 * table.weights.nbytes

    @pytest.mark.parametrize("bad, error", [
        ([1.0, np.nan, 1.0, 1.0, 1.0], ValueError),
        ([1.0, 1.0, np.inf, 1.0, 1.0], ValueError),
        ([1.0, 1.0, 1.0, -0.5, 1.0], ValueError),
        ([1.0, 1.0], ShapeError),
        (np.ones((5, 1)), ShapeError),
    ], ids=["nan", "inf", "negative", "short", "column"])
    def test_with_weights_checks_the_new_weights(self, bad, error):
        with pytest.raises(error, match="weight"):
            self._table().with_weights(bad)


class TestNetRequirement:
    @pytest.mark.parametrize("column", [0, 1])
    def test_nets_by_the_inventory_column_wherever_it_sits(self, column):
        names = ["other", "other"]
        names[column] = INVENTORY_COLUMN
        t = FeatureTable.from_arrays(np.array([[9.0, 0.0], [1.0, 4.0], [0.0, 2.0]]),
                                     np.array([5.0, 3.0, 1.0]))
        t = FeatureTable(t.facility_ids, t.product_ids, t.periods, t.X, t.y, t.weights, names)
        rows = np.array([2, 0, 1])
        stock = t.X[rows, column]
        assert t.inventory_feature == column
        assert np.array_equal(net_requirement(t, rows, t.y[rows]),
                              np.clip(t.y[rows] - stock, 0, None))
        samples = np.stack([t.y[rows], 3 * t.y[rows]], 1)
        assert np.array_equal(net_requirement(t, rows, samples),
                              np.clip(samples - stock[:, None], 0, None))

    def test_table_without_the_inventory_column_is_not_netted(self):
        t = FeatureTable.from_arrays(np.ones((2, 2)), np.array([5.0, 3.0]))
        assert t.inventory_feature is None
        assert np.array_equal(net_requirement(t, np.arange(2), t.y), t.y)


class TestFeatureTableCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        t = FeatureTable.from_arrays(rng.normal(size=(12, 4)), rng.uniform(0, 9, 12),
                                     weights=rng.uniform(0.1, 2.0, 12))
        path = tmp_path / "features.csv"
        t.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert np.array_equal(back.X, t.X)
        assert np.array_equal(back.y, t.y)
        assert np.array_equal(back.weights, t.weights)
        assert back.facility_ids == t.facility_ids
        assert back.feature_names == t.feature_names
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["facility_id", "product_id", "period"]
        assert header[3:7] == ["f_0", "f_1", "f_2", "f_3"]
        assert header[-2:] == ["target", "weight"]

    @pytest.mark.parametrize("line, message", [
        ("f0,p,2021-01,1.0,1.0\n", "5 cells, header has 6"),
        ("f0,p,2021-01,x,1.0,1.0\n", "could not convert"),
        ("f0,p,2021-01,1.0,inf,1.0\n", "values must be finite"),
        ("f0,p,2021-01,1.0,1.0,-1.0\n", "the weight nonnegative"),
    ], ids=["short_row", "non_numeric", "non_finite", "negative_weight"])
    def test_malformed_line_is_a_schema_error(self, tmp_path, line, message):
        path = tmp_path / "features.csv"
        path.write_text("facility_id,product_id,period,f_0,target,weight\n"
                        "f1,p,2021-01,0.0,1.0,1.0\n" + line)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}, line 3: .*{message}"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize("bad, message", [
        ("2021-13", "bad month in period '2021-13'"),
        ("21-01", "bad period '21-01', expected YYYY-MM"),
    ])
    def test_bad_period_is_reported_at_the_line_it_first_appears(self, tmp_path, bad, message):
        path = tmp_path / "features.csv"
        path.write_text("facility_id,product_id,period,f_0,target,weight\n"
                        "f1,p,2021-01,0.0,1.0,1.0\n"
                        "f2,p,2021-01,0.0,1.0,1.0\n"
                        "f1,p,2021-02,0.0,1.0,1.0\n"
                        f"f2,p,{bad},0.0,1.0,1.0\n"
                        f"f1,p,{bad},0.0,1.0,1.0\n")
        with pytest.raises(SchemaError,
                           match=f"^{re.escape(str(path))}, line 5: {re.escape(message)}$"):
            FeatureTable.from_csv(path)

    def test_foreign_header_is_a_schema_error(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("period,facility_id,product_id,gradient,raw_weight,final_weight\n")
        with pytest.raises(SchemaError, match="not a feature table CSV"):
            FeatureTable.from_csv(path)
        path.write_text("")
        with pytest.raises(EmptyInputError, match="is empty"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize("periods, message", [
        (["2022-03", "2022-13", "20x2-01"], "bad month in period '2022-13'"),
        (["2022-03", "20x2-01", "2022-05"], "bad period '20x2-01', expected YYYY-MM"),
        (["2022-03", "20x2-01", "2022-13"], "bad period '20x2-01', expected YYYY-MM"),
    ])
    def test_first_bad_or_late_row_names_the_fault(self, periods, message):
        with pytest.raises(ValueError) as info:
            FeatureTable(facility_ids=["a"] * 3, product_ids=["p"] * 3, periods=periods,
                         X=np.zeros((3, 2)), y=np.zeros(3), weights=np.ones(3))
        assert str(info.value) == message
