import numpy as np
import pytest

from stockalloc import AllocationProblem, ConfigError, TwoClassScenario, generate, solve_greedy
from stockalloc.config import load_section


def perfect_foresight_loss(realized, budget):
    """Perfect-foresight unmet demand, as `pipeline.run_oracle` allocates:
    the realized vector is the problem's one scenario."""
    return solve_greedy(AllocationProblem(realized[None, :], budget)).objective


def test_noise_free_targets_equal_class_lines():
    scen = TwoClassScenario(noise_sd=0.0, seed=1)
    table, truth = generate(scen, periods=3)
    assert np.allclose(table.y, truth)
    inv = table.X[:, table.inventory_feature]
    for i in range(len(table)):
        if table.facility_ids[i].startswith("low"):
            expected = scen.intercept_low + scen.slope_low * inv[i]
        else:
            expected = scen.intercept_high + scen.slope_high * inv[i]
        assert table.y[i] == pytest.approx(expected, abs=1e-9)


def test_determinism_under_fixed_seed():
    scen = TwoClassScenario(seed=11)
    t1, g1 = generate(scen, periods=4)
    t2, g2 = generate(scen, periods=4)
    assert np.array_equal(t1.X, t2.X)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(g1, g2)
    t3, _ = generate(TwoClassScenario(seed=12), periods=4)
    assert not np.array_equal(t1.y, t3.y)


def test_single_class_dataset_is_learnable():
    from stockalloc import ForestParams, train_forest

    scen = TwoClassScenario(n_high=0, noise_sd=0.0, seed=3)
    table, _ = generate(scen, periods=6)
    forest = train_forest(
        table,
        ForestParams(n_trees=30, max_depth=14, min_leaf_weight=1.0, features_per_split=3),
        seed=0,
    )
    mse = float(np.mean((forest.predict_point(table.X) - table.y) ** 2))
    assert mse < 0.5 * np.var(table.y)
    assert mse < 2.0  # near-interpolation on a clean single-class draw


def test_high_class_inventory_exceeds_demand():
    scen = TwoClassScenario(seed=5)
    table, _ = generate(scen, periods=4)
    inv = table.X[:, table.inventory_feature]
    for i in range(len(table)):
        if table.facility_ids[i].startswith("high"):
            assert inv[i] > table.y[i]
        else:
            assert table.y[i] >= inv[i] - 1e-9 or table.y[i] > 0


def test_pooled_linear_fit_is_misspecified_for_low_class():
    # Least-squares on both classes together must fit the low class worse
    # than a fit on the low class alone (the interpolation effect).
    scen = TwoClassScenario(seed=7)
    table, _ = generate(scen, periods=8)
    X = np.column_stack([table.X[:, table.inventory_feature], np.ones(len(table))])
    y = table.y
    low = np.array([f.startswith("low") for f in table.facility_ids])

    beta_pooled, *_ = np.linalg.lstsq(X, y, rcond=None)
    beta_low, *_ = np.linalg.lstsq(X[low], y[low], rcond=None)
    mse_pooled = float(np.mean((X[low] @ beta_pooled - y[low]) ** 2))
    mse_low = float(np.mean((X[low] @ beta_low - y[low]) ** 2))
    assert mse_pooled > 2.0 * mse_low


def test_emits_ingest_compatible_csv(tmp_path):
    from stockalloc import FeatureTable

    table, _ = generate(TwoClassScenario(seed=9), periods=2)
    path = tmp_path / "synth.csv"
    table.to_csv(path)
    back = FeatureTable.from_csv(path)
    assert np.array_equal(back.X, table.X)
    assert back.periods == table.periods


class TestOracle:
    def test_budget_covers_everything(self):
        realized = np.array([3.0, 4.0])
        assert perfect_foresight_loss(realized, 10.0) == 0.0

    def test_zero_budget(self):
        realized = np.array([3.0, 4.0])
        assert perfect_foresight_loss(realized, 0.0) == 7.0

    def test_half_budget_symmetric_pair(self):
        d = 6.0
        assert perfect_foresight_loss(np.array([d, d]), d) == d

    def test_lower_bounds_any_allocation(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = rng.integers(1, 8)
            realized = rng.uniform(0, 10, n)
            budget = float(rng.uniform(0, realized.sum() * 1.2))
            oracle = perfect_foresight_loss(realized, budget)
            a = rng.uniform(0, 5, n)
            a *= min(1.0, budget / max(a.sum(), 1e-12))
            other = float(np.maximum(realized - a, 0.0).sum())
            assert oracle <= other + 1e-9


class TestScenarioValidation:
    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ConfigError):
            TwoClassScenario(low_inventory=(0.0, 50.0), high_inventory=(45.0, 70.0))

    def test_slope_order_enforced(self):
        with pytest.raises(ConfigError):
            TwoClassScenario(slope_low=0.2, slope_high=0.9)

    def test_positive_slopes(self):
        with pytest.raises(ConfigError):
            TwoClassScenario(slope_high=-0.1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            load_section(TwoClassScenario, {"slope": 1.0}, "scenario")

    def test_default_noise_tracks_mean_demand(self):
        scen = TwoClassScenario()
        assert scen.effective_noise_sd == pytest.approx(0.1 * scen.mean_demand)
