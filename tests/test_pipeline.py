import tracemalloc

import numpy as np
import pytest

from stockalloc import (
    ConfigError,
    ForestParams,
    RunConfig,
    TwoClassScenario,
    WeightConfig,
    evaluate,
    mdape,
    run_decision_aware,
    run_decision_blind,
    run_oracle,
    run_rolling_average,
    train_linear,
    unmet_demand_pct,
)
from stockalloc import ingest
from stockalloc.pipeline import compare, prepare, report_to_json, rolling_forecasts

from oracles import reference_rolling_forecasts
from test_ingest import workloads
from test_weights import jacobian_products

SMALL_FOREST = ForestParams(n_trees=12, max_depth=7, min_leaf_weight=2.0)


def linear_config(seed=0, **kw):
    kw.setdefault("weight_config", WeightConfig(weight_floor=0.005))
    return RunConfig(
        scenario=TwoClassScenario(seed=seed),
        model="linear",
        linear_samples=40,
        seed=seed,
        **kw,
    )


def forest_config(seed=0, **kw):
    return RunConfig(
        scenario=TwoClassScenario(seed=seed),
        model="forest",
        forest_params=SMALL_FOREST,
        seed=seed,
        **kw,
    )


class TestEvaluateOps:
    def test_exact_cover_is_zero_pct(self):
        xi = np.array([3.0, 4.0])
        assert unmet_demand_pct(xi, xi) == 0.0

    def test_zero_allocation_is_100_pct(self):
        assert unmet_demand_pct(np.zeros(2), np.array([3.0, 4.0])) == 100.0

    def test_zero_total_demand_is_not_applicable(self):
        assert unmet_demand_pct(np.zeros(2), np.zeros(2)) is None

    def test_mdape_hand_computed(self):
        # APEs are 50% and 0%, median 25%
        assert mdape(np.array([10.0, 30.0]), np.array([20.0, 30.0])) == 25.0

    def test_mdape_ignores_zero_demand_rows(self):
        assert mdape(np.array([1.0, 5.0]), np.array([0.0, 10.0])) == 50.0

    def test_mdape_none_when_no_positive_demand(self):
        assert mdape(np.array([1.0]), np.array([0.0])) is None

    def test_evaluate_shapes_per_product(self):
        allocations = {"a": np.array([1.0, 0.0]), "b": np.array([2.0])}
        realized = {"a": np.array([1.0, 1.0]), "b": np.array([4.0])}
        rep = evaluate(allocations, realized)
        assert rep["a"]["unmet_demand_pct"] == 50.0
        assert rep["b"]["unmet_demand_pct"] == 50.0


class TestRollingForecasts:
    def test_constant_history(self):
        cfg = forest_config(seed=1)
        prepared = prepare(cfg)
        history_mean = rolling_forecasts(prepared, window=3)
        assert history_mean.shape == (len(prepared.eval_table),)

    def test_window_mean_arithmetic(self):
        # Construct history [2, 4, 6] directly in a tiny table.
        from stockalloc import FeatureTable

        fac = ["f"] * 4
        periods = ["2021-01", "2021-02", "2021-03", "2021-04"]
        t = FeatureTable(
            facility_ids=fac,
            product_ids=["p"] * 4,
            periods=periods,
            X=np.zeros((4, 1)),
            y=np.array([2.0, 4.0, 6.0, 9.0]),
            weights=np.ones(4),
        )
        cfg = RunConfig(csv_path="unused.csv")
        prepared = prepare.__wrapped__ if hasattr(prepare, "__wrapped__") else None
        # bypass prepare: build PreparedRun by hand
        from stockalloc.pipeline import PreparedRun
        from stockalloc import split_train_eval

        train, ev, _ = split_train_eval(t, "2021-04")
        prepared = PreparedRun(
            table=t, train=train, eval_table=ev, eval_period="2021-04",
            budgets_train={}, budgets_eval={},
        )
        assert rolling_forecasts(prepared, window=3)[0] == 4.0
        assert rolling_forecasts(prepared, window=2)[0] == 5.0

    def test_no_history_forecasts_zero(self):
        from stockalloc import FeatureTable
        from stockalloc.pipeline import PreparedRun
        from stockalloc import split_train_eval

        t = FeatureTable(
            facility_ids=["a", "b"],
            product_ids=["p", "p"],
            periods=["2021-01", "2021-02"],
            X=np.zeros((2, 1)),
            y=np.array([5.0, 7.0]),
            weights=np.ones(2),
        )
        train, ev, _ = split_train_eval(t, "2021-02")
        prepared = PreparedRun(
            table=t, train=train, eval_table=ev, eval_period="2021-02",
            budgets_train={}, budgets_eval={},
        )
        assert rolling_forecasts(prepared, window=3)[0] == 0.0  # b has no history

    def test_bit_identical_to_reference_loop(self):
        # Random tables: several rows of one series in a month, months
        # without rows, evaluation rows without history, series with only
        # training rows, and history lengths up to 12.
        from stockalloc import FeatureTable, split_train_eval
        from stockalloc.pipeline import PreparedRun

        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            months = rng.integers(0, 30, size=n)
            months[0] = 29  # the evaluation month
            t = FeatureTable(
                facility_ids=[f"f{i}" for i in rng.integers(0, 5, n)],
                product_ids=[f"p{i}" for i in rng.integers(0, 2, n)],
                periods=[f"{2020 + m // 12}-{m % 12 + 1}" for m in months],
                X=np.zeros((n, 1)),
                y=rng.gamma(2.0, 3.0, n) * 10.0 ** rng.integers(-3, 4, n),
                weights=np.ones(n),
            )
            train, ev, _ = split_train_eval(t, "2022-06")
            prepared = PreparedRun(table=t, train=train, eval_table=ev, eval_period="2022-06",
                                   budgets_train={}, budgets_eval={})
            for window in range(1, 13):
                expected = reference_rolling_forecasts(prepared, window)
                assert rolling_forecasts(prepared, window).tobytes() == expected.tobytes()


class TestPolicies:
    def test_oracle_dominates_every_policy(self):
        cfg = linear_config(seed=2)
        prepared = prepare(cfg)
        oracle = run_oracle(cfg, prepared)
        blind = run_decision_blind(cfg, prepared)
        aware, _ = run_decision_aware(cfg, prepared)
        rolling = run_rolling_average(cfg, prepared)
        for product in oracle.per_product:
            o = oracle.per_product[product]["unmet_demand_pct"]
            for outcome in (blind, aware, rolling):
                assert o <= outcome.per_product[product]["unmet_demand_pct"] + 1e-9

    def test_budget_feasibility_all_policies(self):
        cfg = linear_config(seed=3)
        prepared = prepare(cfg)
        outcomes = [
            run_decision_blind(cfg, prepared),
            run_decision_aware(cfg, prepared)[0],
            run_rolling_average(cfg, prepared),
            run_oracle(cfg, prepared),
        ]
        for outcome in outcomes:
            for product, entry in outcome.per_product.items():
                assert entry["allocation"].sum() <= entry["budget"] + 1e-9
                assert np.all(entry["allocation"] >= 0)

    def test_full_budget_perfect_info_near_zero_unmet(self):
        scen = TwoClassScenario(seed=4, n_high=0, noise_sd=0.0)
        cfg = RunConfig(
            scenario=scen,
            budget_fraction=1.0,
            model="forest",
            forest_params=ForestParams(n_trees=20, max_depth=14, min_leaf_weight=1.0, features_per_split=3),
            seed=4,
        )
        prepared = prepare(cfg)
        oracle = run_oracle(cfg, prepared)
        assert oracle.mean_unmet_pct() == pytest.approx(0.0, abs=1e-9)
        blind = run_decision_blind(cfg, prepared)
        assert blind.mean_unmet_pct() < 15.0

    def test_correctly_specified_model_matches_oracle_without_noise(self):
        # Single class, zero noise: demand is exactly linear in the
        # features, so the linear learner predicts perfectly and its
        # allocation loss equals the perfect-foresight oracle.
        scen = TwoClassScenario(seed=14, n_high=0, noise_sd=0.0)
        cfg = RunConfig(scenario=scen, budget_fraction=1.0, model="linear", linear_samples=20,
                        seed=14)
        prepared = prepare(cfg)
        oracle = run_oracle(cfg, prepared)
        blind = run_decision_blind(cfg, prepared)
        assert oracle.mean_unmet_pct() == pytest.approx(0.0, abs=1e-9)
        assert blind.mean_unmet_pct() == pytest.approx(oracle.mean_unmet_pct(), abs=1e-6)

    def test_zero_budget_means_total_unmet(self):
        scen = TwoClassScenario(seed=15, n_high=0, noise_sd=0.0)
        cfg = RunConfig(scenario=scen, model="linear", linear_samples=10, seed=15)
        prepared = prepare(cfg)
        prepared.budgets_eval = dict.fromkeys(prepared.budgets_eval, 0.0)
        blind = run_decision_blind(cfg, prepared)
        assert blind.mean_unmet_pct() == 100.0

    def test_dimension_mismatch_surfaces_shape_error(self):
        from stockalloc import ShapeError, compute_weights, train_linear

        cfg = linear_config(seed=16)
        prepared = prepare(cfg)
        narrow = prepared.train.subset(range(len(prepared.train)))
        narrow.X = narrow.X[:, :2]
        narrow.feature_names = narrow.feature_names[:2]
        model = train_linear(prepared.train, n_samples=5)
        with pytest.raises(ShapeError):
            compute_weights(narrow, model, prepared.budgets_train, WeightConfig())

    def test_equal_weights_reduce_to_blind(self):
        # Zero budget in every training period makes every gradient -1
        # (single-class scenario: every net requirement is positive), so
        # all weights are equal and the aware forest must match the blind
        # forest exactly (same seed).
        scen = TwoClassScenario(seed=5, n_high=0, noise_sd=0.0)
        cfg = RunConfig(
            scenario=scen,
            model="forest",
            forest_params=SMALL_FOREST,
            seed=5,
        )
        prepared = prepare(cfg)
        prepared.budgets_train = dict.fromkeys(prepared.budgets_train, 0.0)
        # restore a real eval budget so allocations are comparable
        prepared.budgets_eval = {k: 500.0 for k in prepared.budgets_eval}
        blind = run_decision_blind(cfg, prepared)
        aware, report = run_decision_aware(cfg, prepared)
        assert len(np.unique(report.final_weights)) == 1
        for product in blind.per_product:
            assert np.array_equal(
                blind.per_product[product]["allocation"],
                aware.per_product[product]["allocation"],
            )

    def test_decision_aware_beats_blind_on_misspecified_linear(self):
        # Single-seed sanity check of the mechanism (the acceptance suite
        # aggregates over 10 seeds).
        cfg = linear_config(seed=0)
        prepared = prepare(cfg)
        blind = run_decision_blind(cfg, prepared)
        aware, _ = run_decision_aware(cfg, prepared)
        assert aware.mean_unmet_pct() < blind.mean_unmet_pct()

    def test_rho_zero_rejected(self):
        with pytest.raises(ConfigError):
            linear_config(seed=1, budget_fraction=0.0)

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig()
        with pytest.raises(ConfigError):
            RunConfig(csv_path="x.csv", scenario=TwoClassScenario())


class TestCompare:
    def test_report_structure_and_policy_ordering(self):
        report, outcomes, weight_report, prepared = compare(linear_config(seed=6))
        assert report["policy_order"] == ["decision_blind", "decision_aware", "rolling_average", "oracle"]
        for product, entry in report["products"].items():
            o = entry["policies"]["oracle"]["unmet_demand_pct"]
            for name in report["policy_order"]:
                pct = entry["policies"][name]["unmet_demand_pct"]
                assert pct is None or o <= pct + 1e-9

    def test_blind_and_aware_training_configs_differ_only_in_weights(self):
        report, *_ = compare(forest_config(seed=7))
        blind = dict(report["training_configs"]["decision_blind"])
        aware = dict(report["training_configs"]["decision_aware"])
        assert blind.pop("weights") == "uniform"
        assert aware.pop("weights").startswith("decision_aware")
        assert blind == aware

    def test_report_json_deterministic(self):
        r1, *_ = compare(forest_config(seed=8))
        r2, *_ = compare(forest_config(seed=8))
        assert report_to_json(r1) == report_to_json(r2)

    def test_mdape_present_for_predictors(self):
        report, *_ = compare(linear_config(seed=9))
        for entry in report["products"].values():
            assert entry["policies"]["decision_blind"]["mdape"] is not None
            assert entry["policies"]["rolling_average"]["mdape"] is not None
            assert entry["policies"]["oracle"]["mdape"] is None


class TestCsvPipeline:
    def _write_ledger(self, path, months=8, facilities=3):
        rng = np.random.default_rng(0)
        lines = [
            "facility_id,product_id,period,region,opening_balance,"
            "quantity_received,quantity_dispensed,adjustment,closing_balance"
        ]
        for f in range(facilities):
            stock = 50.0
            for m in range(1, months + 1):
                received = float(rng.integers(5, 20))
                dispensed = float(rng.integers(1, 12))
                closing = stock + received - dispensed
                lines.append(
                    f"fac{f},amox,2021-{m:02d},region{f % 2},{stock},{received},"
                    f"{dispensed},0,{closing}"
                )
                stock = closing
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_compare_groups_each_table_once(self, tmp_path, monkeypatch):
        """Budgets, decision weights and the four policies share each table's
        (period, product) groups: one `compare` groups the training table
        once and the evaluation table once."""
        grouped = []
        group_rows = ingest.group_rows

        def counting(*columns):
            grouped.append(len(columns[0]))
            return group_rows(*columns)

        monkeypatch.setattr(ingest, "group_rows", counting)
        ledger = self._write_ledger(tmp_path / "ledger.csv", facilities=4)
        *_, prepared = compare(RunConfig(csv_path=str(ledger), model="linear", lag_months=3))
        assert sorted(grouped) == sorted([len(prepared.train), len(prepared.eval_table)])

    def test_ledger_groups_run_the_configured_jacobian(self, tmp_path):
        """On a dirty ledger, where some training groups lack facilities of
        their product, every group's raw weights are its J^T g under the
        configured FD Jacobian."""
        path = tmp_path / "ledger.csv"
        workloads().generate_ledger(path, 3, n_facilities=12, n_products=3, n_months=14)
        config = RunConfig(csv_path=str(path), model="linear", lag_months=3, seed=1,
                           weight_config=WeightConfig(jacobian_mode="diagonal_fd"))
        *_, weight_report, prepared = compare(config)
        train = prepared.train
        facilities = {}
        for (_, product), rows in train.groups.items():
            facilities.setdefault(product, set()).update(train.facility_codes.codes[rows].tolist())
        assert any(len(set(train.facility_codes.codes[rows].tolist())) < len(facilities[product])
                   for (_, product), rows in train.groups.items())
        assert weight_report.group_jacobian_mode == dict.fromkeys(train.groups, "diagonal_fd")
        model = train_linear(train, n_samples=config.linear_samples)  # compare's initial model
        expected = jacobian_products(train, model, prepared.budgets_train, config.weight_config)
        assert weight_report.raw_weights.tobytes() == expected.tobytes()

    def test_ledger_compare_heap_peak(self, tmp_path):
        """One linear-model `compare` of the benchmark's seed-1 ledger (6,966
        records, 6,888 table rows) peaks while the decision-aware model
        trains, with the table, its training and evaluation copies and the
        reweighted copy alive. The peak was 6.63 MB before the tables
        carried facility and product codes, and 6.79 MB with them (two
        int32 columns of the four tables' ~20k rows): another column carried
        on the tables shows here. It was 6.37 MB once a table held its ids
        only as codes, without the three per-row lists of its strings. It is
        3.30 MB since the training and evaluation tables and the reweighted
        copy are views of the table's read-only rows, and the weight report
        decodes its ids only when read."""
        path = tmp_path / "ledger.csv"
        workloads().generate_ledger(path, 1, n_products=3)
        config = RunConfig(csv_path=str(path), model="linear", seed=1)
        compare(config)  # keeps first-call setup out of the peak
        tracemalloc.start()
        try:
            *_, prepared = compare(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prepared.table) == 6888
        assert peak < 3.37e6

    def test_csv_compare_runs(self, tmp_path):
        ledger = self._write_ledger(tmp_path / "ledger.csv")
        cfg = RunConfig(
            csv_path=str(ledger),
            model="forest",
            forest_params=ForestParams(n_trees=6, max_depth=5, min_leaf_weight=1.0),
            lag_months=3,
            seed=1,
        )
        report, outcomes, weight_report, prepared = compare(cfg)
        assert prepared.table.inventory_feature is None  # a ledger table is not netted
        assert report["config"]["inventory_feature"] is None
        assert "amox" in report["products"]
        entry = report["products"]["amox"]
        o = entry["policies"]["oracle"]["unmet_demand_pct"]
        for name in report["policy_order"]:
            pct = entry["policies"][name]["unmet_demand_pct"]
            assert pct is None or pct >= o - 1e-9
