import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import stockalloc
import stockalloc.cli
from stockalloc import (
    AllocationProblem,
    FeatureTable,
    Forest,
    RunConfig,
    TwoClassScenario,
    WeightConfig,
    budgets_from_fraction,
    compute_weights,
    solve_greedy,
    unmet_demand_pct,
)
from stockalloc.cli import build_parser, load_config_file, main
from stockalloc.forest import ForestParams, train_forest
from stockalloc.config import load_section
from stockalloc.ingest import write_exclusions_csv, write_rejects_csv
from stockalloc.pipeline import prepare, prepare_table, solve_products, split_table

LEDGER_HEADER = (
    "facility_id,product_id,period,region,opening_balance,quantity_received,"
    "quantity_dispensed,adjustment,closing_balance\n"
)


def run_cli(*argv):
    return main(list(argv))


def write_ledger(path, months=6, facilities=4, products=("ors",)):
    rng = np.random.default_rng(3)
    rows = [LEDGER_HEADER.strip()]
    for f in range(facilities):
        for product in products:
            stock = 40.0
            for m in range(1, months + 1):
                received = float(rng.integers(5, 15))
                dispensed = float(rng.integers(1, 10))
                closing = stock + received - dispensed
                rows.append(f"fac{f},{product},2021-{m:02d},r{f % 2},"
                            f"{stock},{received},{dispensed},0,{closing}")
                stock = closing
    path.write_text("\n".join(rows) + "\n")
    return path


class TestConfigFile:
    def test_json_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"model": "linear", "budget_fraction": 0.5}')
        assert load_config_file(p) == {"model": "linear", "budget_fraction": 0.5}

    def test_key_value_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# schema\nfacility_id = Facility\nperiod = Month\n")
        assert load_config_file(p) == {"facility_id": "Facility", "period": "Month"}

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("not a pair\n")
        from stockalloc import ConfigError

        with pytest.raises(ConfigError):
            load_config_file(p)


class TestIngestCommand:
    def test_writes_features_rejects_exclusions(self, tmp_path, capsys):
        ledger = write_ledger(tmp_path / "ledger.csv")
        with open(ledger, "a") as fh:
            fh.write("facX,ors,2021-03,r0,1,1,bad,0,2\n")  # reject
            fh.write("facY,ors,2021-03,r0,0,0,0,0,0\n")  # all-zero exclusion
        out = tmp_path / "out"
        assert run_cli("ingest", "--csv", str(ledger), "--out", str(out), "--lag-months", "3") == 0
        assert (out / "features.csv").exists()
        rejects = (out / "rejects.csv").read_text().strip().splitlines()
        assert len(rejects) == 2  # header + 1
        exclusions = (out / "exclusions.csv").read_text()
        assert "all_zero" in exclusions

    def test_missing_file_exit_code(self, capsys):
        assert run_cli("ingest", "--csv", "/nonexistent.csv", "--out", "/tmp/x") == 3

    def test_schema_remap_via_key_value_config(self, tmp_path):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text(
            "Facility,Product,Month,Region,Open,In,Out,Adj,Close\n"
            "f1,amox,2021-01,north,10,5,3,0,12\n"
            "f1,amox,2021-02,north,12,4,2,0,14\n"
        )
        schema = tmp_path / "schema.cfg"
        schema.write_text(
            "facility_id = Facility\nproduct_id = Product\nperiod = Month\n"
            "region = Region\nopening_balance = Open\nquantity_received = In\n"
            "quantity_dispensed = Out\nadjustment = Adj\nclosing_balance = Close\n"
        )
        out = tmp_path / "out"
        assert run_cli("ingest", "--csv", str(ledger), "--out", str(out),
                       "--config", str(schema), "--lag-months", "1") == 0
        assert (out / "features.csv").exists()

    def test_schema_error_exit_code(self, tmp_path, capsys):
        ledger = tmp_path / "bad.csv"
        ledger.write_text("facility_id,period\nf1,2021-01\n")
        assert run_cli("ingest", "--csv", str(ledger), "--out", str(tmp_path / "o")) == 2
        assert "schema error" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_features_and_truth(self, tmp_path):
        out = tmp_path / "synth"
        assert run_cli("synth", "--out", str(out), "--periods", "3", "--seed", "5") == 0
        features = (out / "features.csv").read_text().splitlines()
        truth = (out / "ground_truth.csv").read_text().splitlines()
        assert len(features) == len(truth) == 1 + 3 * 100


class TestModelCommands:
    def test_train_weights_retrain_allocate_evaluate(self, tmp_path):
        out = tmp_path
        assert run_cli("synth", "--out", str(out), "--periods", "5", "--seed", "2") == 0
        features = str(out / "features.csv")
        cfg = out / "forest.json.cfg"
        cfg.write_text('{"forest_params": {"n_trees": 5, "max_depth": 5}}')

        forest_path = str(out / "forest.json")
        assert run_cli("train", "--features", features, "--out", forest_path,
                       "--config", str(cfg), "--seed", "1") == 0

        aware = out / "aware"
        assert run_cli("weights", "--features", features, "--model", forest_path,
                       "--out", str(aware), "--budget-fraction", "0.6") == 0

        retrained = str(out / "forest2.json")
        assert run_cli("train", "--features", str(aware / "features.csv"),
                       "--out", retrained, "--config", str(cfg), "--seed", "1") == 0

        allocation = str(out / "allocation.json")
        assert run_cli("allocate", "--features", features, "--model", retrained,
                       "--out", allocation, "--budget-fraction", "0.6") == 0
        payload = json.loads((out / "allocation.json").read_text())
        assert "synthetic" in payload["products"]
        entry = payload["products"]["synthetic"]
        assert sum(entry["allocation"]) <= entry["budget"] + 1e-9
        assert entry["fill_trace"]

        assert run_cli("evaluate", "--allocation", allocation, "--features", features,
                       "--out", str(out / "eval.json")) == 0
        scored = json.loads((out / "eval.json").read_text())
        assert 0.0 <= scored["synthetic"]["unmet_demand_pct"] <= 100.0


class TestMultiProductAllocation:
    def test_allocate_and_evaluate_match_direct_solves(self, tmp_path):
        ledger = write_ledger(tmp_path / "ledger.csv", months=7, facilities=5,
                              products=("ors", "zinc"))
        work = tmp_path / "work"
        assert run_cli("ingest", "--csv", str(ledger), "--out", str(work),
                       "--lag-months", "3") == 0
        features, forest_path = work / "features.csv", work / "forest.json"
        cfg = tmp_path / "forest.cfg"
        cfg.write_text('{"forest_params": {"n_trees": 6, "max_depth": 4}}')
        assert run_cli("train", "--features", str(features), "--out", str(forest_path),
                       "--config", str(cfg), "--seed", "1") == 0
        table, model = FeatureTable.from_csv(features), Forest.load(forest_path)

        for flags, budget_of in ((["--budget-fraction", "0.6"], lambda y: 0.6 * float(y.sum())),
                                 (["--budget", "20"], lambda y: 20.0)):
            allocation, scored = tmp_path / "allocation.json", tmp_path / "eval.json"
            assert run_cli("allocate", "--features", str(features), "--model", str(forest_path),
                           "--out", str(allocation), *flags) == 0
            payload = json.loads(allocation.read_text())
            assert payload["eval_period"] == "2021-07"
            assert sorted(payload["products"]) == ["ors", "zinc"]
            expected = {}
            for product, entry in payload["products"].items():
                rows = [i for i, (p, t) in enumerate(zip(table.product_ids, table.periods))
                        if p == product and t == "2021-07"]
                y = table.y[rows]
                budget = budget_of(y)
                direct = solve_greedy(AllocationProblem(model.predict_samples(table.X[rows]).T,
                                                        budget))
                assert entry["facility_ids"] == [table.facility_ids[i] for i in rows]
                assert entry["budget"] == budget
                assert entry["allocation"] == direct.allocation.tolist()
                assert 0 < sum(entry["allocation"]) <= budget + 1e-9
                unmet = 100.0 * np.maximum(y - direct.allocation, 0.0).sum() / y.sum()
                expected[product] = {"unmet_demand_pct": float(unmet)}
            assert run_cli("evaluate", "--allocation", str(allocation),
                           "--features", str(features), "--out", str(scored)) == 0
            assert json.loads(scored.read_text()) == expected


class TestEvalPeriodSplit:
    def test_compare(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "linear", "linear_samples": 20, "periods": 4}')
        out = tmp_path / "run"
        assert run_cli("compare", "--synth", "--config", str(cfg), "--seed", "1",
                       "--eval-period", "2020-2", "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["eval_period"] == "2020-02"

    def test_allocate_evaluate_round_trip(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--periods", "3", "--seed", "4") == 0
        features, forest_path = str(tmp_path / "features.csv"), str(tmp_path / "forest.json")
        assert run_cli("train", "--features", features, "--out", forest_path,
                       "--config", str(self._small_forest(tmp_path))) == 0
        allocation = tmp_path / "allocation.json"
        assert run_cli("allocate", "--features", features, "--model", forest_path,
                       "--out", str(allocation), "--eval-period", "2020-2") == 0
        assert json.loads(allocation.read_text())["eval_period"] == "2020-02"
        scored = tmp_path / "eval.json"
        assert run_cli("evaluate", "--allocation", str(allocation), "--features", features,
                       "--out", str(scored)) == 0
        assert 0.0 <= json.loads(scored.read_text())["synthetic"]["unmet_demand_pct"] <= 100.0


    def test_table_spelling_months_without_a_zero(self, tmp_path, synth_forest):
        features, forest_path = synth_forest
        table = FeatureTable.from_csv(features)
        unpadded = tmp_path / "unpadded.csv"
        replace(table, periods=[p.replace("-0", "-") for p in table.periods]).to_csv(unpadded)
        assert "2020-3" in unpadded.read_text()
        runs = []
        for name, path in (("padded", features), ("unpadded", str(unpadded))):
            allocation, scored = tmp_path / f"{name}.json", tmp_path / f"{name}_eval.json"
            assert run_cli("allocate", "--features", path, "--model", forest_path,
                           "--out", str(allocation)) == 0
            assert run_cli("evaluate", "--allocation", str(allocation), "--features", path,
                           "--out", str(scored)) == 0
            runs.append((allocation.read_bytes(), scored.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["eval_period"] == "2020-03"

    def test_bad_period_is_a_config_error(self, tmp_path, capsys):
        assert run_cli("compare", "--synth", "--eval-period", "2020-13",
                       "--out", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err.startswith("config error: eval period: ")

    def test_table_without_rows_is_a_data_error(self, tmp_path, capsys):
        """`train` and `weights` stop on a table with no rows before its
        evaluation period, as `compare` does; `allocate` on a table with none."""
        assert run_cli("synth", "--out", str(tmp_path), "--periods", "2") == 0
        features = tmp_path / "features.csv"
        forest_path = str(tmp_path / "forest.json")
        assert run_cli("train", "--features", str(features), "--out", forest_path,
                       "--config", str(self._small_forest(tmp_path))) == 0
        single_period = tmp_path / "single_period.csv"
        split_table(FeatureTable.from_csv(features))[1].to_csv(single_period)
        for argv in (("train",), ("weights", "--model", forest_path)):
            out = tmp_path / "out"
            assert run_cli(*argv, "--features", str(single_period), "--out", str(out)) == 3
            assert capsys.readouterr().err == "data error: empty training table\n"
            assert not out.exists()
        features.write_text(features.read_text().splitlines()[0] + "\n")
        assert run_cli("allocate", "--features", str(features), "--model", forest_path,
                       "--out", str(tmp_path / "allocation.json")) == 3
        assert capsys.readouterr().err.startswith("data error: feature table has no rows")

    @staticmethod
    def _small_forest(tmp_path):
        cfg = tmp_path / "forest.cfg"
        cfg.write_text('{"forest_params": {"n_trees": 4, "max_depth": 3}}')
        return cfg


FEATURE_HEADER = "facility_id,product_id,period,f_0,target,weight\na,p,2021-01,1.0,2.0,1.0\n"


FOREST_WITH_UNKNOWN_PARAM = json.dumps({
    "format": "stockalloc-forest", "version": 1, "feature_dim": 1, "seed": 0,
    "params": {"n_trees": 1, "depth": 3}, "trees": [],
})
FOREST_WITH_HUGE_FEATURE = json.dumps({
    "format": "stockalloc-forest", "version": 1, "feature_dim": 1, "seed": 0,
    "params": {"n_trees": 1}, "trees": [{"feature": [1.0], "threshold": [0.0], "left": [0],
                                          "right": [0], "value": [0.0], "support": [1.0]}],
}).replace("[1.0]", "[1e400]", 1)


@pytest.mark.parametrize("command, text, where", [
    ("train", FEATURE_HEADER + "b,p,2021-01,1.0,nan,1.0\n", ", line 3: "),
    ("train", FEATURE_HEADER + "b,p,2021-01,x,2.0,1.0\n", ", line 3: "),
    ("train", FEATURE_HEADER + "b,p,2021-01,1.0\n", ", line 3: "),
    ("evaluate", '{"eval_period": "2021-01"}', ": "),
    ("allocate", FEATURE_HEADER, ", line 1: "),
    ("allocate", FOREST_WITH_UNKNOWN_PARAM, ": bad forest: TypeError"),
    ("train", FEATURE_HEADER.encode() + b"b,p,2021-01,\xff,2.0,1.0\n",
     ", line 3: 'utf-8' codec can't decode byte 0xff"),
    ("train", FEATURE_HEADER + 'b,p,2021-01,"' + "x" * 131_073 + '",2.0,1.0\n',
     ", line 3: field larger than field limit"),
    ("evaluate", b'{"eval_period": "2021-01\xff"}', ", line 1: 'utf-8' codec can't decode"),
    ("evaluate", '{"products": {"p": {"facility_ids": [["a"]], "allocation": [1.0]}}}',
     ": not an allocation file: ValueError(\"'facility_ids' must be a list of strings"),
    ("allocate", FOREST_WITH_HUGE_FEATURE, ": bad forest: OverflowError"),
    *(("evaluate", '{"products": {"p": {"facility_ids": ["a"], "allocation": [%s]}}}' % value,
       ": not an allocation file: ValueError(\"'allocation' must be finite and nonnegative")
      for value in ("NaN", "Infinity", "-1.0")),
], ids=["nan_target", "non_numeric_cell", "short_row", "allocation_without_products",
        "model_not_json", "model_unknown_param", "features_not_utf8",
        "features_field_over_csv_limit", "allocation_not_utf8",
        "allocation_facility_id_a_list", "model_node_overflows", "allocation_nan",
        "allocation_infinite", "allocation_negative"])
def test_malformed_input_is_a_schema_error(tmp_path, capsys, command, text, where):
    bad = tmp_path / "bad"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    features = tmp_path / "features.csv"
    features.write_text(FEATURE_HEADER)
    out = str(tmp_path / "out")
    argv = {
        "train": ("train", "--features", str(bad), "--out", out),
        "evaluate": ("evaluate", "--allocation", str(bad), "--features", str(features)),
        "allocate": ("allocate", "--features", str(features), "--model", str(bad), "--out", out),
    }[command]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {bad}{where}")


@pytest.mark.parametrize("command, cells, message", [
    ("ingest", b"f\xff,ors", "line 3: 'utf-8' codec can't decode byte 0xff in position"),
    ("compare", b'f1,"' + b"x" * 131_073 + b'"', "line 3: field larger than field limit (131072)"),
], ids=["not_utf8", "field_over_csv_limit"])
def test_unreadable_ledger_is_a_schema_error(tmp_path, capsys, command, cells, message):
    ledger = write_ledger(tmp_path / "ledger.csv", months=1, facilities=1)
    with open(ledger, "ab") as fh:
        fh.write(cells + b",2021-02,r0,1,1,1,0,1\n")
    out = tmp_path / "out"
    assert run_cli(command, "--csv", str(ledger), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {ledger}, {message}")
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("train", '{"forest_params": {"n_trees": 2},', "{cfg}, line 1: Expecting property name"),
    ("train", '{"forest_params": {"n_trees": 2}}\n{', "{cfg}, line 2: Extra data"),
    ("train", "[1, 2]", "{cfg}: config must be a JSON object"),
    ("compare", '{"weight_config": {"weight_floor": "abc"}}',
     "compare: weight_config: weight_floor: could not convert string to float: 'abc'"),
    ("compare", '{"weight_config": {"fd_step": [1]}}',
     "compare: weight_config: fd_step: float() argument"),
    ("compare", '{"inventory_feature": 2.5}',
     "compare: unknown key(s) ['inventory_feature'], expected some of "),
    ("compare", '{"weight_config": {"fd_step": "Infinity"}}', "compare: weight_config: fd_step must be finite"),
    ("compare", '{"weight_config": {"weight_floor": NaN}}', "compare: weight_config: weight_floor must be finite"),
    ("compare", "weight_config = abc", "compare: weight_config: expected an object"),
    ("compare", '{"weight_config": {"inventory_feature": 0}}',
     "compare: weight_config: unknown key(s) ['inventory_feature'], expected some of "),
    ("compare", '{"weight_config": {"expansion_point": "model"}}',
     "compare: weight_config: unknown key(s) ['expansion_point'], expected some of "),
    ("compare", '{"weight_config": {"normalization": "none"}}',
     "compare: weight_config: unknown key(s) ['normalization'], expected some of "),
    ("train", b"lag_months = \xff\n", "{cfg}, line 1: 'utf-8' codec can't decode byte 0xff"),
], ids=["not_json", "trailing_data", "json_array", "weight_floor_not_a_number",
        "fd_step_a_list", "inventory_feature_not_an_integer", "fd_step_infinite",
        "weight_floor_nan", "weight_config_key_value", "weight_config_inventory_feature",
        "weight_config_expansion_point", "weight_config_normalization", "not_utf8"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, text, message):
    features = tmp_path / "features.csv"
    features.write_text(FEATURE_HEADER)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = str(tmp_path / "out")
    argv = {
        "train": ("train", "--features", str(features), "--config", str(cfg), "--out", out),
        "compare": ("compare", "--synth", "--config", str(cfg), "--out", out),
    }[command]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("config error: " + message.format(cfg=cfg))
    assert not os.path.exists(out)


def test_config_that_is_a_directory_is_a_data_error(tmp_path, capsys):
    assert run_cli("compare", "--synth", "--config", str(tmp_path),
                   "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err.startswith("data error: [Errno 21] Is a directory: ")


@pytest.mark.parametrize("source, text, section, key", [
    ("csv", "lag_months = abc", "compare", "lag_months"),
    ("csv", '{"lag_months": 0}', "compare", "lag_months"),
    ("synth", '{"periods": "x"}', "compare", "periods"),
    ("synth", '{"budget_fraction": "half"}', "compare", "budget_fraction"),
    ("synth", '{"rolling_window": "x"}', "compare", "rolling_window"),
    ("csv", '{"outlier_multiplier": 0.5}', "compare", "outlier_multiplier"),
    ("csv", '{"outlier_multiplier": "nan"}', "compare", "outlier_multiplier"),
    ("synth", '{"scenario": {"n_low": "x"}}', "compare: scenario", "n_low"),
    ("synth", '{"inventory_feature": "x"}', "compare", "inventory_feature"),
    ("csv", '{"schema": 5}', "compare", "schema"),
    ("synth", '{"model": "linear", "linear_samples": 0}', "compare", "linear_samples"),
    ("synth", '{"model": "linear", "linear_samples": 2.5}', "compare", "linear_samples"),
    ("synth", '{"forest_param": {"n_trees": 5}}', "compare", "forest_param"),
    ("synth", '{"forest_params": {"n_tree": 5}}', "compare: forest_params", "n_tree"),
    ("synth", '{"forest_params": [1]}', "compare: forest_params", "[1]"),
    ("train", '{"forest_params": {"n_tree": 5}}', "train: forest_params", "n_tree"),
], ids=["lag_months_text", "lag_months_zero", "periods_text", "budget_fraction_text",
        "rolling_window_text", "outlier_multiplier_below_one", "outlier_multiplier_nan",
        "scenario_n_low_text", "inventory_feature_text",
        "schema_a_number", "linear_samples_zero", "linear_samples_fraction",
        "unknown_section", "unknown_forest_key", "forest_params_a_list",
        "train_reads_compare_shaped_file"])
def test_bad_config_value_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                source, text, section, key):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a bad config reached the data or training stage")

    for module, name in ((stockalloc.pipeline, "parse_records"),
                         (stockalloc.pipeline, "train_forest"), (stockalloc.cli, "train_forest"),
                         (stockalloc.pipeline, "train_linear")):
        monkeypatch.setattr(module, name, must_not_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    features = tmp_path / "features.csv"
    features.write_text(FEATURE_HEADER)
    argv = {
        "csv": ("compare", "--csv", str(write_ledger(tmp_path / "ledger.csv"))),
        "synth": ("compare", "--synth", "--seed", "1"),
        "train": ("train", "--features", str(features)),
    }[source]
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    features = tmp_path / "features.csv"
    features.write_text(FEATURE_HEADER)
    assert run_cli(command, "--features", str(features), "--seed", "-1",
                   "--out", str(tmp_path / "forest.json")) == 2
    assert capsys.readouterr().err.startswith("config error: train: seed must be an integer >= 0")


@pytest.mark.parametrize("argv, flag", [
    (("synth", "--out", "o"), ("--jacobian", "full_fd")),
    (("synth", "--out", "o"), ("--budget-fraction", "0.2")),
    (("train", "--features", "f", "--out", "o"), ("--budget-fraction", "0.5")),
    (("train", "--features", "f", "--out", "o"), ("--jacobian", "full_fd")),
    (("weights", "--features", "f", "--model", "m", "--out", "o"), ("--seed", "4")),
    (("allocate", "--features", "f", "--model", "m", "--out", "o"), ("--seed", "4")),
    (("allocate", "--features", "f", "--model", "m", "--out", "o"), ("--jacobian", "full_fd")),
], ids=lambda v: v[0])
def test_flag_a_command_does_not_read_is_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, *flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_feature_csv_keeps_the_feature_names(tmp_path):
    assert run_cli("synth", "--out", str(tmp_path / "s"), "--periods", "2") == 0
    ledger = write_ledger(tmp_path / "ledger.csv")
    assert run_cli("ingest", "--csv", str(ledger), "--out", str(tmp_path / "g"),
                   "--lag-months", "2") == 0
    synth = FeatureTable.from_csv(tmp_path / "s" / "features.csv")
    ledger_table = FeatureTable.from_csv(tmp_path / "g" / "features.csv")
    assert synth.feature_names == ["prior_inventory", "month", "noise"]
    assert ledger_table.feature_names == ["lag_1", "lag_2", "lag_1_present", "lag_2_present",
                                          "month", "year", "region_code"]
    assert (synth.inventory_feature, ledger_table.inventory_feature) == (0, None)


def test_weights_allocate_evaluate_net_by_the_tables_prior_inventory(tmp_path, synth_forest):
    features, forest_path = synth_forest
    table, model = FeatureTable.from_csv(features), Forest.load(forest_path)
    aware, allocation = tmp_path / "aware", tmp_path / "allocation.json"
    scored = tmp_path / "eval.json"
    assert run_cli("weights", "--features", features, "--model", forest_path,
                   "--out", str(aware)) == 0
    assert run_cli("allocate", "--features", features, "--model", forest_path,
                   "--out", str(allocation)) == 0
    assert run_cli("evaluate", "--allocation", str(allocation), "--features", features,
                   "--out", str(scored)) == 0

    train, _, _, train_rows = split_table(table)
    expected = compute_weights(train, model, budgets_from_fraction(train, 0.7))
    assert np.array_equal(FeatureTable.from_csv(aware / "features.csv").weights[train_rows],
                          expected.final_weights)
    prepared = prepare_table(table, budget_fraction=0.7)
    X = prepared.eval_table.X
    (product, rows, realized, problem, result), = solve_products(
        prepared.eval_table, prepared.budgets_eval, lambda rows: model.predict_samples(X[rows]))
    assert np.any(realized < prepared.eval_table.y[rows])  # netted
    entry = json.loads(allocation.read_text())["products"][product]
    assert (entry["budget"], entry["allocation"]) == (problem.budget, result.allocation.tolist())
    assert json.loads(scored.read_text()) == {
        product: {"unmet_demand_pct": unmet_demand_pct(result.allocation, realized)}}

    # The same table with its inventory column under another name is not netted.
    gross_features, gross = tmp_path / "gross.csv", tmp_path / "gross"
    replace(table, feature_names=["stock", "month", "noise"]).to_csv(gross_features)
    assert run_cli("weights", "--features", str(gross_features), "--model", forest_path,
                   "--out", str(gross)) == 0
    assert not np.array_equal(FeatureTable.from_csv(gross / "features.csv").weights[train_rows],
                              expected.final_weights)


@pytest.mark.parametrize("command", ["weights", "synth", "compare"])
@pytest.mark.parametrize("text, where, key", [
    ('{"inventory_feature": 0}', "", "inventory_feature"),
    ('{"scenario": {"budget_fraction": 0.5}}', "scenario: ", "budget_fraction"),
], ids=["inventory_feature", "scenario_budget_fraction"])
def test_inventory_feature_and_scenario_budget_fraction_are_unknown_keys(
        tmp_path, capsys, synth_forest, command, text, where, key):
    cfg, out = tmp_path / "run.json", tmp_path / "out"
    cfg.write_text(text)
    features, forest_path = synth_forest
    argv = {"weights": ("weights", "--features", features, "--model", forest_path),
            "synth": ("synth",), "compare": ("compare", "--synth")}[command]
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {command}: {where}unknown key(s) ['{key}'], expected some of ")
    assert not out.exists()


def test_weights_writes_the_table_that_train_retrains_on(tmp_path, synth_forest):
    """The training rows carry the weights of the training part; the evaluation
    rows keep theirs, and the retrain fits the reweighted training part."""
    features, forest_path = synth_forest
    table, model = FeatureTable.from_csv(features), Forest.load(forest_path)
    aware = tmp_path / "aware"
    assert run_cli("weights", "--features", features, "--model", forest_path,
                   "--jacobian", "diagonal_fd", "--out", str(aware)) == 0
    train, _, _, train_rows = split_table(table)
    assert set(train.periods) == {"2020-01", "2020-02"} and set(table.weights) == {1.0}
    report = compute_weights(train, model, budgets_from_fraction(train, 0.7),
                             WeightConfig(jacobian_mode="diagonal_fd"))
    weights = np.ones(len(table))
    weights[train_rows] = report.final_weights
    table.with_weights(weights).to_csv(tmp_path / "features.csv")
    report.to_csv(tmp_path / "weights.csv")
    for name in ("features.csv", "weights.csv"):
        assert (aware / name).read_bytes() == (tmp_path / name).read_bytes(), name

    cfg = TestEvalPeriodSplit._small_forest(tmp_path)
    assert run_cli("train", "--features", str(aware / "features.csv"), "--config", str(cfg),
                   "--seed", "1", "--out", str(tmp_path / "aware.json")) == 0
    direct = train_forest(train.with_weights(report.final_weights),
                          ForestParams(n_trees=4, max_depth=3), seed=1)
    assert (tmp_path / "aware.json").read_text() == direct.to_json()


@pytest.mark.parametrize("source, eval_period", [
    ("synth", None), ("ledger", None), ("ledger", "2021-08"),
], ids=["synth", "ledger", "ledger_earlier_eval_period"])
def test_staged_session_is_compare_cut_into_stages(tmp_path, source, eval_period):
    """Under one `compare` file, the staged session (`train`, `weights`, the
    retrain, `allocate`, `evaluate`) scores every product exactly as
    `compare`'s `decision_aware`, and without `weights` and the retrain as
    its `decision_blind`."""
    settings = {"periods": 5, "lag_months": 3, "budget_fraction": 0.8, "eval_period": eval_period,
                "forest_params": {"n_trees": 12, "max_depth": 5}}
    cfg, work = tmp_path / "run.json", tmp_path / "work"
    cfg.write_text(json.dumps(settings))
    if source == "synth":
        assert run_cli("synth", "--config", str(cfg), "--seed", "2", "--out", str(work)) == 0
        data = ("--synth",)
    else:
        ledger = write_ledger(tmp_path / "ledger.csv", months=9, facilities=8,
                              products=("ors", "zinc"))
        assert run_cli("ingest", "--csv", str(ledger), "--config", str(cfg),
                       "--out", str(work)) == 0
        data = ("--csv", str(ledger))
    assert run_cli("compare", *data, "--config", str(cfg), "--seed", "2",
                   "--out", str(tmp_path / "run")) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())

    features, blind, aware = (str(work / name) for name in ("features.csv", "blind.json",
                                                             "aware.json"))
    run = ("--config", str(cfg), "--seed", "2")
    assert run_cli("train", "--features", features, *run, "--out", blind) == 0
    assert run_cli("weights", "--features", features, "--model", blind, "--config", str(cfg),
                   "--out", str(work / "aware")) == 0
    assert run_cli("train", "--features", str(work / "aware" / "features.csv"), *run,
                   "--out", aware) == 0
    period = ("--eval-period", eval_period) if eval_period else ()
    scored = {}
    for policy, model in (("decision_blind", blind), ("decision_aware", aware)):
        allocation, evaluated = work / f"{policy}.json", work / f"{policy}_eval.json"
        assert run_cli("allocate", "--features", features, "--model", model, *period,
                       "--budget-fraction", "0.8", "--out", str(allocation)) == 0
        assert run_cli("evaluate", "--allocation", str(allocation), "--features", features,
                       "--out", str(evaluated)) == 0
        scored[policy] = json.loads(evaluated.read_text())
        assert scored[policy] == {
            product: {"unmet_demand_pct": entry["policies"][policy]["unmet_demand_pct"]}
            for product, entry in report["products"].items()}, policy
    assert len(report["products"]) == (1 if source == "synth" else 2)
    assert scored["decision_blind"] != scored["decision_aware"]


def test_allocate_config_gives_compares_decision_aware_allocation(tmp_path):
    """`allocate --config` with no other flag budgets at the file's
    `budget_fraction` and splits at its `eval_period`: after the staged
    retrain it allocates what `compare` allocates for `decision_aware`.
    Without the file it solves the latest period at the default fraction."""
    settings = {"lag_months": 3, "budget_fraction": 0.8, "eval_period": "2021-08",
                "forest_params": {"n_trees": 12, "max_depth": 5}}
    cfg, work = tmp_path / "run.json", tmp_path / "work"
    cfg.write_text(json.dumps(settings))
    ledger = write_ledger(tmp_path / "ledger.csv", months=9, facilities=8,
                          products=("ors", "zinc"))
    run = ("--config", str(cfg), "--seed", "2")
    assert run_cli("ingest", "--csv", str(ledger), "--config", str(cfg), "--out", str(work)) == 0
    assert run_cli("compare", "--csv", str(ledger), *run, "--out", str(tmp_path / "run")) == 0
    features, blind, aware = (str(work / name) for name in ("features.csv", "blind.json",
                                                             "aware.json"))
    assert run_cli("train", "--features", features, *run, "--out", blind) == 0
    assert run_cli("weights", "--features", features, "--model", blind, "--config", str(cfg),
                   "--out", str(work / "aware")) == 0
    assert run_cli("train", "--features", str(work / "aware" / "features.csv"), *run,
                   "--out", aware) == 0
    with open(tmp_path / "run" / "breakdown.csv", newline="") as fh:
        expected = {(row["product"], row["facility_id"]): float(row["decision_aware_allocation"])
                    for row in csv.DictReader(fh)}

    allocated = {}
    for name, config in (("file", ("--config", str(cfg))), ("default", ())):
        allocation = work / f"{name}.json"
        assert run_cli("allocate", "--features", features, "--model", aware, *config,
                       "--out", str(allocation)) == 0
        payload = json.loads(allocation.read_text())
        allocated[name] = {(product, facility): amount
                           for product, entry in payload["products"].items()
                           for facility, amount in zip(entry["facility_ids"], entry["allocation"])}
        assert payload["eval_period"] == {"file": "2021-08", "default": "2021-09"}[name]
    assert allocated["file"] == expected and len(expected) == 16
    assert allocated["default"] != expected


@pytest.mark.parametrize("spelling", ["same", "dot_dot"])
def test_weights_refuses_to_overwrite_its_features(tmp_path, capsys, synth_forest, spelling):
    features, _ = synth_forest
    before = (tmp_path / "features.csv").read_bytes()
    work = os.path.dirname(features)
    out = work if spelling == "same" else os.path.join(work, os.pardir, os.path.basename(work))
    assert run_cli("weights", "--features", features, "--model", str(tmp_path / "absent.json"),
                   "--out", out) == 2
    assert capsys.readouterr().err == (
        f"config error: weights --out {out} would overwrite --features {features}\n")
    assert (tmp_path / "features.csv").read_bytes() == before


def test_table_without_features_trains_allocates_and_evaluates(tmp_path, capsys):
    rng = np.random.default_rng(1)
    features = tmp_path / "features.csv"
    features.write_text("facility_id,product_id,period,target,weight\n" + "".join(
        f"f{i % 10},p,2021-0{i // 10 + 1},{float(rng.integers(1, 9))!r},1.0\n"
        for i in range(30)))
    forest_path, allocation = tmp_path / "forest.json", tmp_path / "allocation.json"
    assert run_cli("train", "--features", str(features), "--out", str(forest_path)) == 0
    forest = Forest.load(forest_path)
    assert forest.n_trees == 100 and {len(tree.feature) for tree in forest.trees} == {1}
    assert run_cli("allocate", "--features", str(features), "--model", str(forest_path),
                   "--out", str(allocation)) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--allocation", str(allocation), "--features", str(features)) == 0
    assert 0 <= json.loads(capsys.readouterr().out)["p"]["unmet_demand_pct"] <= 100


@pytest.fixture
def synth_forest(tmp_path):
    """(features CSV, forest JSON) of a small synthetic table and forest."""
    assert run_cli("synth", "--out", str(tmp_path), "--periods", "3", "--seed", "2") == 0
    features, forest_path = str(tmp_path / "features.csv"), str(tmp_path / "forest.json")
    assert run_cli("train", "--features", features, "--out", forest_path,
                   "--config", str(TestEvalPeriodSplit._small_forest(tmp_path))) == 0
    return features, forest_path


@pytest.mark.parametrize("command, flag, message", [
    ("allocate", "--budget=-5", "budget must be finite and nonnegative, got -5.0"),
    ("allocate", "--budget=nan", "budget must be finite and nonnegative, got nan"),
    ("allocate", "--budget=inf", "budget must be finite and nonnegative, got inf"),
    ("allocate", "--budget-fraction=nan", "allocate: budget_fraction must be in (0, 1], got nan"),
    ("allocate", "--budget-fraction=5", "allocate: budget_fraction must be in (0, 1], got 5.0"),
    ("weights", "--budget-fraction=nan", "weights: budget_fraction must be in (0, 1], got nan"),
    ("weights", "--budget-fraction=0", "weights: budget_fraction must be in (0, 1], got 0.0"),
    ("weights", "--budget-fraction=5", "weights: budget_fraction must be in (0, 1], got 5.0"),
])
def test_bad_budget_is_a_config_error(tmp_path, capsys, synth_forest, command, flag, message):
    features, forest_path = synth_forest
    out = tmp_path / "out"
    assert run_cli(command, "--features", features, "--model", forest_path,
                   "--out", str(out), flag) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text, key", [
    ("train", '{"n_trees": 5}', "n_trees"),
    ("weights", '{"n_trees": 5}', "n_trees"),
    ("weights", '{"weight_confg": {"weight_floor": 0.1}}', "weight_confg"),
    ("weights", "jacobian_mode = full_fd", "jacobian_mode"),
    ("synth", '{"n_low": 10}', "n_low"),
    ("synth", '{"seed": 3}', "seed"),
])
def test_config_key_compare_does_not_take_is_refused(tmp_path, capsys, synth_forest,
                                                     command, text, key):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(text)
    features, forest_path = synth_forest
    argv = {"train": ("--features", features),
            "weights": ("--features", features, "--model", forest_path)}.get(command, ())
    assert run_cli(command, *argv, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {command}: unknown key(s) ['{key}'], expected some of ")
    assert not out.exists()


def test_a_compare_file_serves_weights_and_synth(tmp_path, synth_forest):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "linear", "budget_fraction": 0.5, "rolling_window": 2,
        "scenario": {"n_low": 3, "n_high": 2},
        "weight_config": {"weight_floor": 0.25},
    }))
    assert run_cli("synth", "--config", str(cfg), "--periods", "2",
                   "--out", str(tmp_path / "s")) == 0
    assert len((tmp_path / "s" / "features.csv").read_text().splitlines()) == 1 + 2 * 5
    features, forest_path = synth_forest
    aware = tmp_path / "aware"
    assert run_cli("weights", "--features", features, "--model", forest_path,
                   "--config", str(cfg), "--out", str(aware)) == 0
    raw_weights = np.loadtxt(aware / "weights.csv", delimiter=",", skiprows=1, usecols=4)
    floored = np.maximum(np.abs(raw_weights), 0.25)
    assert floored.min() == 0.25
    _, _, _, train_rows = split_table(FeatureTable.from_csv(features))
    assert np.array_equal(FeatureTable.from_csv(aware / "features.csv").weights[train_rows],
                          floored / floored.mean())


@pytest.mark.parametrize("text", ['{"periods": 4}', "periods = 4"], ids=["json", "key_value"])
def test_synth_takes_its_periods_from_a_compare_file(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
    assert capsys.readouterr().out == "generated 400 rows over 4 periods\n"
    assert run_cli("synth", "--config", str(cfg), "--periods", "2", "--out", str(tmp_path / "b")) == 0
    assert capsys.readouterr().out == "generated 200 rows over 2 periods\n"


@pytest.mark.parametrize("text", [
    '{"schema": {"facility_id": "facility_id"}, "lag_months": 3, "outlier_multiplier": 2.0}',
    "lag_months = 3\noutlier_multiplier = 2",
], ids=["json_with_schema", "key_value"])
def test_ingest_reads_a_file_as_compare_csv_does(tmp_path, capsys, text):
    ledger = write_ledger(tmp_path / "ledger.csv", months=8, facilities=5)
    with open(ledger, "a") as fh:
        fh.write("facX,ors,2021-03,r0,1,1,bad,0,2\n")  # reject
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(text)
    assert run_cli("ingest", "--csv", str(ledger), "--config", str(cfg), "--out", str(out)) == 0

    prepared = prepare(load_section(RunConfig, load_config_file(cfg), "compare",
                                    csv_path=str(ledger)))
    assert prepared.table.feature_dim == 2 * 3 + 3
    assert "outlier" in {e.reason for e in prepared.exclusions}
    prepared.table.to_csv(tmp_path / "features.csv")
    write_exclusions_csv(tmp_path / "exclusions.csv", prepared.exclusions)
    write_rejects_csv(tmp_path / "rejects.csv", prepared.rejects)
    for name in ("features.csv", "exclusions.csv", "rejects.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert capsys.readouterr().out.startswith(f"ingested {5 * 8} records (1 rejects, ")


# (command, config key, its flag, a bad value, a good value)
SETTINGS = [
    ("synth", "periods", "--periods", 1, 4),
    ("weights", "budget_fraction", "--budget-fraction", 5, 0.5),
    ("ingest", "lag_months", "--lag-months", 0, 3),
]


def _setting_argv(tmp_path, command, synth_forest):
    features, forest_path = synth_forest
    return {"synth": ("synth",),
            "weights": ("weights", "--features", features, "--model", forest_path),
            "ingest": ("ingest", "--csv", str(write_ledger(tmp_path / "ledger.csv")))}[command]


@pytest.mark.parametrize("command, key, flag, bad, good", SETTINGS, ids=[s[0] for s in SETTINGS])
def test_a_given_flag_replaces_a_bad_file_value(tmp_path, synth_forest,
                                                command, key, flag, bad, good):
    argv = _setting_argv(tmp_path, command, synth_forest)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: bad}))
    with_file, flag_only = tmp_path / "with_file", tmp_path / "flag_only"
    assert run_cli(*argv, "--config", str(cfg), flag, str(good), "--out", str(with_file)) == 0
    assert run_cli(*argv, flag, str(good), "--out", str(flag_only)) == 0
    for name in ("features.csv", "weights.csv") if command == "weights" else ("features.csv",):
        assert (with_file / name).read_bytes() == (flag_only / name).read_bytes(), name


@pytest.mark.parametrize("command, key, flag, bad, good", SETTINGS, ids=[s[0] for s in SETTINGS])
def test_a_flag_and_a_file_key_give_the_same_error(tmp_path, capsys, synth_forest,
                                                   command, key, flag, bad, good):
    argv = _setting_argv(tmp_path, command, synth_forest)
    cfg, out = tmp_path / "run.json", tmp_path / "out"
    cfg.write_text(json.dumps({key: bad}))
    assert run_cli(*argv, flag, str(bad), "--out", str(out)) == 2
    from_flag = capsys.readouterr().err
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"config error: {command}: {key} must be ")
    assert not out.exists()


def test_flags_that_set_a_config_value_default_to_none():
    """A flag's default would hide the file's value and the dataclass default."""
    fields = {f.name for cls in (RunConfig, WeightConfig, TwoClassScenario)
              for f in dataclasses.fields(cls)}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {(command, action.dest): parser.get_default(action.dest)
                for command, parser in sub.choices.items() for action in parser._actions
                if {"jacobian": "jacobian_mode"}.get(action.dest, action.dest) in fields}
    assert ("allocate", "budget_fraction") in defaults and ("compare", "jacobian") in defaults
    assert {key: value for key, value in defaults.items() if value is not None} == {}


def test_evaluate_computes_no_budget(tmp_path, monkeypatch, synth_forest):
    features, forest_path = synth_forest
    allocation = tmp_path / "allocation.json"
    assert run_cli("allocate", "--features", features, "--model", forest_path,
                   "--out", str(allocation)) == 0

    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluate computed a budget")

    monkeypatch.setattr(stockalloc.pipeline, "budgets_from_fraction", must_not_run)
    assert run_cli("evaluate", "--allocation", str(allocation), "--features", features) == 0


@pytest.mark.parametrize("flags", [[], ["--budget", "20"]], ids=["fraction", "fixed"])
def test_allocate_budgets_only_the_evaluation_period(tmp_path, monkeypatch, synth_forest, flags):
    features, forest_path = synth_forest
    _, eval_table, *_ = split_table(FeatureTable.from_csv(features))
    budgeted = []

    def recording(table, fraction):
        budgeted.append(table)
        return budgets_from_fraction(table, fraction)

    monkeypatch.setattr(stockalloc.cli, "budgets_from_fraction", recording)
    assert run_cli("allocate", "--features", features, "--model", forest_path,
                   "--out", str(tmp_path / "allocation.json"), *flags) == 0
    assert [(len(t), set(t.periods)) for t in budgeted] == [
        (len(eval_table), set(eval_table.periods))]


@pytest.mark.parametrize("facilities, named", [
    (["x"], "['x']"),
    (["x", "y", "z", "w"], "['x', 'y', 'z']..."),
], ids=["one", "more_than_three"])
def test_allocation_naming_an_unknown_facility_is_a_data_error(tmp_path, capsys, synth_forest,
                                                               facilities, named):
    features, _ = synth_forest
    allocation = tmp_path / "allocation.json"
    allocation.write_text(json.dumps({"products": {"synthetic": {
        "facility_ids": facilities, "allocation": [1.0] * len(facilities)}}}))
    assert run_cli("evaluate", "--allocation", str(allocation), "--features", features) == 3
    assert capsys.readouterr().err == (
        f"data error: realized demand missing for facilities {named}\n")


def test_weights_takes_its_budget_fraction_from_a_compare_file(tmp_path, synth_forest):
    features, forest_path = synth_forest
    cfg = tmp_path / "run.json"
    cfg.write_text('{"budget_fraction": 0.3}')

    def weights_csvs(name, *argv):
        out = tmp_path / name
        assert run_cli("weights", "--features", features, "--model", forest_path,
                       "--out", str(out), *argv) == 0
        return (out / "features.csv").read_bytes(), (out / "weights.csv").read_bytes()

    default = weights_csvs("default")
    from_file = weights_csvs("file", "--config", str(cfg))
    assert from_file[0] != default[0] and from_file[1] != default[1]
    assert from_file == weights_csvs("flag", "--budget-fraction", "0.3")
    assert weights_csvs("both", "--config", str(cfg), "--budget-fraction", "0.7") == default


FOREST_VALUES = [("n_trees", 0), ("max_depth", "2.5"), ("criterion", "mae"),
                 ("features_per_split", 0), ("min_leaf_weight", "heavy"), ("max_depth", 2.5)]


@pytest.mark.parametrize("key, value", FOREST_VALUES, ids=[
    "n_trees = 0", "max_depth = 2.5", "criterion = mae", "features_per_split = 0",
    "min_leaf_weight = heavy", '{"max_depth": 2.5}'])
def test_bad_forest_config_is_a_config_error(tmp_path, capsys, key, value):
    features = tmp_path / "features.csv"
    features.write_text(FEATURE_HEADER)
    cfg, out = tmp_path / "run.json", tmp_path / "forest.json"
    cfg.write_text(json.dumps({"forest_params": {key: value}}))
    assert run_cli("train", "--features", str(features), "--config", str(cfg),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: train: forest_params: ") and key in err
    assert not out.exists()


class TestCompareCommand:
    def test_synth_compare_writes_report(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": {"seed": 3},
            "model": "linear",
            "linear_samples": 30,
            "weight_config": {"weight_floor": 0.005},
        }))
        assert run_cli("compare", "--synth", "--config", str(cfg),
                       "--seed", "3", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["policy_order"][0] == "decision_blind"
        assert (out / "breakdown.csv").exists()
        assert (out / "weights.csv").exists()

    def test_compare_requires_one_source(self, tmp_path):
        assert run_cli("compare", "--out", str(tmp_path / "x")) == 2

    def test_jacobian_flag_accepted(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "linear", "linear_samples": 25}')
        assert run_cli("compare", "--synth", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--jacobian", "diagonal_fd",
                       "--budget-fraction", "0.6") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["weight_config"]["jacobian_mode"] == "diagonal_fd"
        assert report["config"]["budget_fraction"] == 0.6

    def test_csv_compare(self, tmp_path):
        ledger = write_ledger(tmp_path / "ledger.csv", months=7)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lag_months": 3,
            "forest_params": {"n_trees": 5, "max_depth": 4},
        }))
        assert run_cli("compare", "--csv", str(ledger), "--config", str(cfg),
                       "--seed", "2", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert "ors" in report["products"]


class TestDeterminism:
    def test_compare_is_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "forest_params": {"n_trees": 8, "max_depth": 6},
        }))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("compare", "--synth", "--config", str(cfg), "--seed", "9",
                           "--out", str(out), "--budget-fraction", "0.7") == 0
            outs.append(out)
        for fname in ("report.json", "breakdown.csv", "weights.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child imports the same stockalloc as this test, installed or not.
        src = os.path.dirname(os.path.dirname(stockalloc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-m", "stockalloc", "synth", "--out",
             str(tmp_path / "o"), "--periods", "2"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert res.returncode == 0
        assert "generated" in res.stdout
