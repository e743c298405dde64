"""Loader fuzzing: a reader of outside input returns, or raises a StockAllocError.

Covers config files and every section loader, feature-table CSVs, forest
JSON and `allocate` JSON (`parse_records` has its own fuzz tests in
test_ingest.py). The weights CSV is written for audit only and never read.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stockalloc import (
    FeatureTable,
    Forest,
    ForestParams,
    RunConfig,
    StockAllocError,
    TwoClassScenario,
    WeightConfig,
    train_forest,
)
from stockalloc.cli import main
from stockalloc.config import load_config_file, load_section

SECTIONS = (ForestParams, WeightConfig, TwoClassScenario, RunConfig)
KEYS = sorted({f.name for cls in SECTIONS for f in dataclasses.fields(cls)} | {"x"})
TREE_KEYS = ["feature", "threshold", "left", "right", "value", "support"]
FEATURE_CSV = "facility_id,product_id,period,f_0,target,weight\n"

_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**310)
            | st.floats() | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_CELLS = st.text(alphabet=',"\r\n 0123456789-.eEinfaNx\xe9\x00', max_size=40)
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def _load(data, load):
    """`load(path)` of a file holding `data`; None if it raised a StockAllocError."""
    fd, path = tempfile.mkstemp()
    with os.fdopen(fd, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else data.encode())
    try:
        return load(path)
    except StockAllocError:
        return None
    finally:
        os.remove(path)


@_FUZZ
@given(st.dictionaries(st.sampled_from(KEYS), _JSON, max_size=6), st.booleans())
def test_config_sections(section, key_value):
    if key_value:
        text = "\n".join(f"{key} = {value}" for key, value in section.items())
    else:
        text = json.dumps(section)
    config = _load(text, load_config_file)
    for cls in SECTIONS if config is not None else ():
        given = {"csv_path": "ledger.csv", "budgets": None, "seed": 0} if cls is RunConfig else {}
        try:
            load_section(cls, config, "fuzz", **given)
        except StockAllocError:
            pass


@_FUZZ
@given(st.binary(max_size=60) | _CELLS)
def test_config_file_text(data):
    _load(data, load_config_file)


@_FUZZ
@given(st.lists(st.binary(max_size=30) | _CELLS.map(str.encode), max_size=6))
def test_feature_and_weight_csvs(lines):
    """The feature table, whose `weight` column carries the decision weights."""
    _load(FEATURE_CSV.encode() + b"\n".join(lines), FeatureTable.from_csv)


_ARRAYS = st.lists(st.integers(-2, 4) | st.floats() | st.integers(10**20, 10**30), max_size=4)


@_FUZZ
@given(st.fixed_dictionaries({
    "format": st.just("stockalloc-forest"),
    "version": st.just(1),
    "feature_dim": st.integers(-1, 3),
    "seed": st.integers(-1, 3),
    "params": st.just({}) | st.dictionaries(st.sampled_from(KEYS), _JSON, max_size=3),
    "trees": st.lists(st.fixed_dictionaries({key: _ARRAYS | _JSON for key in TREE_KEYS}),
                      min_size=1, max_size=2) | _JSON,
}) | _JSON)
def test_forest_json(payload):
    _load(json.dumps(payload), Forest.load)


_ENTRY = st.fixed_dictionaries({
    "facility_ids": st.lists(st.sampled_from(["a", "b"]) | _JSON, max_size=2),
    "allocation": st.lists(st.floats() | st.integers() | st.integers(10**300, 10**310),
                           max_size=2),
})


@_FUZZ
@example({"products": {"p": {"facility_ids": ["a"], "allocation": [float("nan")]}}})
@given(st.fixed_dictionaries({
    "eval_period": st.just("2021-02") | _SCALARS,
    "products": st.dictionaries(st.sampled_from(["p", "q"]), _ENTRY | _JSON) | _JSON,
}) | _JSON)
def test_allocation_json(payload):
    with tempfile.TemporaryDirectory() as tmp:
        features = os.path.join(tmp, "features.csv")
        with open(features, "w") as fh:
            fh.write(FEATURE_CSV + "a,p,2021-01,1,2,1\na,p,2021-02,1,3,1\nb,p,2021-02,2,1,1\n")
        allocation = os.path.join(tmp, "allocation.json")
        with open(allocation, "w") as fh:
            fh.write(json.dumps(payload))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["evaluate", "--allocation", allocation, "--features", features])
        assert code in (0, 2, 3)
        if code == 0:  # strict JSON: no NaN or Infinity
            json.loads(printed.getvalue(), parse_constant=lambda name: pytest.fail(name))


_BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A file saved as "UTF-8 with BOM" (a spreadsheet's "CSV UTF-8", some
    editors' UTF-8) reads as the same file without the mark."""

    @staticmethod
    def _both(data, load):
        return [_load(mark + data, load) for mark in (b"", _BOM)]

    def test_feature_csv(self):
        data = (FEATURE_CSV + "a,p,2021-01,1.5,2,1\n").encode()
        plain, marked = self._both(data, FeatureTable.from_csv)
        assert marked.feature_names == plain.feature_names == ["f_0"]
        assert marked.X.tolist() == plain.X.tolist() == [[1.5]]

    @pytest.mark.parametrize("text", ['{"n_trees": 3}', "n_trees = 3"], ids=["json", "key_value"])
    def test_config_file(self, text):
        plain, marked = self._both(text.encode(), load_config_file)
        assert marked == plain and list(plain) == ["n_trees"]

    def test_forest_json(self):
        table = FeatureTable.from_arrays([[0.0], [1.0], [2.0], [3.0]], [1.0, 2.0, 3.0, 4.0])
        forest = train_forest(table, ForestParams(n_trees=2, max_depth=2, min_leaf_weight=1.0))
        plain, marked = self._both(forest.to_json().encode(), Forest.load)
        assert marked.to_json() == plain.to_json() == forest.to_json()

    def test_allocation_json(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(FEATURE_CSV + "a,p,2021-01,1,2,1\na,p,2021-02,1,3,1\n")
        payload = json.dumps({"eval_period": "2021-02",
                              "products": {"p": {"facility_ids": ["a"], "allocation": [2.0]}}})
        printed = []
        for mark in (b"", _BOM):
            allocation = tmp_path / "allocation.json"
            allocation.write_bytes(mark + payload.encode())
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["evaluate", "--allocation", str(allocation),
                             "--features", str(features)]) == 0
            printed.append(out.getvalue())
        assert printed[0] == printed[1]
