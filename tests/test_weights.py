import numpy as np
import pytest

from stockalloc import (
    AllocationProblem,
    ConfigError,
    DegenerateWeightsError,
    FeatureTable,
    ForestParams,
    MissingWeightError,
    ShapeError,
    WeightConfig,
    WeightReport,
    budgets_from_fraction,
    compute_weights,
    loss_gradient,
    policy_jacobian,
    retrain_weighted,
    train_forest,
)
from stockalloc import weights
from stockalloc.weights import apply_report

from oracles import reference_greedy


class TestLossGradient:
    def test_strict_inequality_at_kink(self):
        g = loss_gradient(np.array([2.0, 1.0]), np.array([4.0, 1.0]))
        assert np.array_equal(g, [-1.0, 0.0])

    def test_fully_met_demand(self):
        g = loss_gradient(np.array([5.0, 5.0]), np.array([4.0, 5.0]))
        assert np.array_equal(g, [0.0, 0.0])

    def test_zero_allocation(self):
        g = loss_gradient(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(g, [-1.0, -1.0, -1.0])

    def test_values_always_in_minus_one_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = rng.integers(1, 9)
            g = loss_gradient(rng.uniform(0, 5, n), rng.uniform(0, 5, n))
            assert set(np.unique(g)) <= {-1.0, 0.0}

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            loss_gradient(np.zeros(2), np.zeros(3))


class TestPolicyJacobian:
    def test_identity_mode(self):
        p = AllocationProblem(np.array([[1.0, 2.0]]), 1.0)
        J = policy_jacobian(p, WeightConfig(jacobian_mode="identity"))
        assert np.array_equal(J, np.eye(2))

    def test_budget_slack_derivative_one(self):
        # N=1, K=1, sample 5, budget 10: a*(xi) = xi, derivative 1.
        p = AllocationProblem(np.array([[5.0]]), 10.0)
        cfg = WeightConfig(jacobian_mode="diagonal_fd", fd_step=0.05)
        J = policy_jacobian(p, cfg)
        assert J[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_budget_binding_derivative_zero(self):
        p = AllocationProblem(np.array([[5.0]]), 3.0)
        cfg = WeightConfig(jacobian_mode="diagonal_fd", fd_step=0.05)
        J = policy_jacobian(p, cfg)
        assert J[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_full_fd_matches_analytic_within_bound(self):
        for budget, expected in ((10.0, 1.0), (3.0, 0.0)):
            p = AllocationProblem(np.array([[5.0]]), budget)
            cfg = WeightConfig(jacobian_mode="full_fd", fd_step=0.03)
            J = policy_jacobian(p, cfg)
            assert abs(J[0, 0] - expected) <= 10 * cfg.fd_step

    def test_full_fd_off_diagonal_budget_competition(self):
        # Two facilities, binding budget: raising one demand steals from
        # the other, so the off-diagonal entry is negative.
        p = AllocationProblem(np.array([[5.0, 5.0]]), 6.0)
        cfg = WeightConfig(jacobian_mode="full_fd", fd_step=0.05)
        J = policy_jacobian(p, cfg)
        assert J.shape == (2, 2)

    def test_diagonal_mode_zeroes_off_diagonal(self):
        p = AllocationProblem(np.array([[3.0, 4.0], [5.0, 2.0]]), 4.0)
        cfg = WeightConfig(jacobian_mode="diagonal_fd", fd_step=0.01)
        J = policy_jacobian(p, cfg)
        assert np.array_equal(J, np.diag(np.diag(J)))

    @pytest.mark.parametrize("mode", ["diagonal_fd", "full_fd"])
    def test_fd_jacobian_equals_reference_solver_jacobian(self, mode, monkeypatch):
        rng = np.random.default_rng(20)
        samples = rng.gamma(2.0, 5.0, size=(100, 20))
        p = AllocationProblem(samples, 0.6 * float(samples.mean(axis=0).sum()))
        cfg = WeightConfig(jacobian_mode=mode)
        J = policy_jacobian(p, cfg)
        assert np.count_nonzero(J)

        class Reference:
            def __init__(self, problem):
                self.allocation = reference_greedy(problem.samples, problem.budget)[0]

        monkeypatch.setattr(weights, "solve_greedy", Reference)
        assert np.array_equal(J, policy_jacobian(p, cfg))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            WeightConfig(jacobian_mode="nope")


def panel_table(n_periods=3, n_fac=4, seed=0, d=2):
    """Full facility panel over consecutive periods, single product."""
    rng = np.random.default_rng(seed)
    fac, per, X, y = [], [], [], []
    for t in range(n_periods):
        period = f"2021-{t + 1:02d}"
        for i in range(n_fac):
            fac.append(f"f{i}")
            per.append(period)
            X.append(rng.uniform(0, 1, d))
            # continuous demands keep the allocation optimum unique, which
            # permutation equivariance needs (ties resolve by row order)
            y.append(float(rng.uniform(1, 12)))
    n = len(fac)
    return FeatureTable(
        facility_ids=fac,
        product_ids=["p"] * n,
        periods=per,
        X=np.array(X),
        y=np.array(y),
        weights=np.ones(n),
    )


class _PointModel:
    """Stand-in predictor: fixed forecast per row.

    With `spread`, emits k samples fanned around the forecast; otherwise k
    duplicates (a point mass).
    """

    def __init__(self, values, k=3, spread=False):
        self.values = dict(values)
        self.k = k
        self.factors = np.linspace(0.8, 1.2, k) if spread else np.ones(k)

    def predict_samples(self, X):
        # match rows by feature identity
        out = []
        for row in np.atleast_2d(X):
            key = tuple(np.round(row, 12))
            out.append(self.values[key] * self.factors)
        return np.array(out)

    def predict_point(self, X):
        return self.predict_samples(X).mean(axis=1)


def exact_model(table, k=3, spread=False):
    """Model whose point forecast equals each row's realized demand."""
    values = {tuple(np.round(x, 12)): y for x, y in zip(table.X, table.y)}
    return _PointModel(values, k=k, spread=spread)


class TestComputeWeights:
    def test_full_coverage_all_weights_floor(self):
        t = panel_table()
        model = exact_model(t)
        budgets = {p: 1e6 for p in set(t.periods)}  # budget covers everything
        cfg = WeightConfig(weight_floor=0.05, normalization="none")
        report = compute_weights(t, model, budgets, cfg)
        assert np.all(report.gradients == 0.0)
        assert np.all(report.final_weights == 0.05)

    def test_identity_gradient_floor_pattern(self):
        t = panel_table(n_periods=1, n_fac=2)
        t.y[:] = [4.0, 1.0]
        model = _PointModel(
            {tuple(np.round(x, 12)): v for x, v in zip(t.X, [2.0, 1.0])}
        )
        report = compute_weights(
            t, model, {"2021-01": 3.0}, WeightConfig(weight_floor=0.05, normalization="none")
        )
        # a* = [2, 1]: facility 0 underserved -> 1.0, facility 1 covered -> floor
        assert np.allclose(report.final_weights, [1.0, 0.05])
        assert np.array_equal(report.gradients, [-1.0, 0.0])

    def test_mean_one_normalization(self):
        t = panel_table(seed=3)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.5)
        report = compute_weights(t, model, budgets, WeightConfig(normalization="mean_one"))
        assert report.final_weights.mean() == pytest.approx(1.0, abs=1e-9)

    def test_identity_raw_weights_are_zero_or_one_in_magnitude(self):
        t = panel_table(n_periods=3, n_fac=6, seed=12)
        model = exact_model(t, spread=True)
        budgets = budgets_from_fraction(t, 0.5)
        report = compute_weights(t, model, budgets, WeightConfig(jacobian_mode="identity"))
        assert set(np.unique(np.abs(report.raw_weights))) <= {0.0, 1.0}
        assert set(np.unique(report.gradients)) <= {-1.0, 0.0}

    def test_floor_applied_before_normalization_preserves_ratios(self):
        t = panel_table(seed=4)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.4)
        raw = compute_weights(t, model, budgets, WeightConfig(normalization="none"))
        norm = compute_weights(t, model, budgets, WeightConfig(normalization="mean_one"))
        ratio = raw.final_weights / norm.final_weights
        assert np.allclose(ratio, ratio[0])

    def test_missing_budget_raises(self):
        t = panel_table()
        model = exact_model(t)
        with pytest.raises(ConfigError):
            compute_weights(t, model, {"2021-01": 5.0}, WeightConfig())

    def test_permutation_equivariance(self):
        # Permutation invariance needs a unique optimum. Fan the samples
        # and set each period's budget to exactly exhaust the top two
        # marginal-value classes, so the water level sits on a class
        # boundary and no tie splitting is left to row order.
        t = panel_table(n_periods=2, n_fac=5, seed=8)
        rng = np.random.default_rng(2)
        forecasts = {
            tuple(np.round(x, 12)): y * f
            for x, y, f in zip(t.X, t.y, rng.uniform(0.7, 1.3, len(t)))
        }
        model = _PointModel(forecasts, k=3, spread=True)
        budgets = {}
        for i in range(len(t)):
            key = (t.periods[i], t.product_ids[i])
            budgets[key] = budgets.get(key, 0.0) + forecasts[tuple(np.round(t.X[i], 12))]
        report = compute_weights(t, model, budgets, WeightConfig())
        assert len(np.unique(report.final_weights)) > 1  # nontrivial pattern

        perm = np.random.default_rng(1).permutation(len(t))
        tp = t.subset(perm)
        reportp = compute_weights(tp, model, budgets, WeightConfig())
        assert np.allclose(report.final_weights[perm], reportp.final_weights)

    def test_covered_facilities_get_exactly_floor(self):
        # One facility's demand is always fully covered: weight floor exactly.
        t = panel_table(n_periods=3, n_fac=3, seed=5)
        y = t.y.copy()
        y[::3] = 0.5  # facility f0 tiny demand in every period
        t.y[:] = y
        model = exact_model(t)
        budgets = {p: 2.0 for p in set(t.periods)}  # covers f0's segment first
        cfg = WeightConfig(weight_floor=0.07, normalization="none")
        report = compute_weights(t, model, budgets, cfg)
        f0 = [i for i, f in enumerate(report.facility_ids) if f == "f0"]
        assert np.all(report.final_weights[f0] == 0.07)

    def test_incomplete_panel_falls_back_to_identity(self):
        t = panel_table(n_periods=2, n_fac=3, seed=6)
        t2 = t.subset([i for i in range(len(t)) if not (t.periods[i] == "2021-01" and t.facility_ids[i] == "f0")])
        model = exact_model(t2)
        budgets = budgets_from_fraction(t2, 0.5)
        cfg = WeightConfig(jacobian_mode="diagonal_fd", fd_step=0.05)
        report = compute_weights(t2, model, budgets, cfg)
        assert report.group_jacobian_mode[("2021-01", "p")] == "identity"
        assert report.group_jacobian_mode[("2021-02", "p")] == "diagonal_fd"

    def test_realized_expansion_point(self):
        t = panel_table(seed=9)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.6)
        rep = compute_weights(t, model, budgets, WeightConfig(expansion_point="realized"))
        assert len(rep) == len(t)

    def test_inventory_netting_zeroes_covered_class(self):
        t = panel_table(n_periods=1, n_fac=2, seed=10)
        t.X[:, 0] = [100.0, 0.0]  # facility 0 holds plenty of stock
        t.y[:] = [20.0, 5.0]
        model = exact_model(t)
        cfg = WeightConfig(inventory_feature=0, weight_floor=0.01, normalization="none")
        report = compute_weights(t, model, {"2021-01": 1.0}, cfg)
        assert report.gradients[0] == 0.0  # net requirement zero, covered
        assert report.final_weights[0] == 0.01


class TestRetrain:
    def _table(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        return FeatureTable.from_arrays(rng.uniform(0, 1, (n, 3)), rng.uniform(0, 9, n))

    def test_equal_weights_match_uniform_training(self):
        t = self._table()
        report = WeightReport(
            facility_ids=list(t.facility_ids),
            product_ids=list(t.product_ids),
            periods=list(t.periods),
            gradients=np.zeros(len(t)),
            raw_weights=np.zeros(len(t)),
            final_weights=np.full(len(t), 2.5),
        )
        params = ForestParams(n_trees=5, max_depth=4, min_leaf_weight=1.0)
        weighted = retrain_weighted(t, report, params, seed=3)
        uniform = train_forest(t, params, seed=3)
        probe = np.random.default_rng(4).uniform(0, 1, (10, 3))
        assert np.allclose(weighted.predict_point(probe), uniform.predict_point(probe), rtol=1e-9)

    def test_zero_weight_noise_block_ignored(self):
        rng = np.random.default_rng(5)
        clean_X = rng.uniform(0, 1, (50, 2))
        clean_y = 5.0 * clean_X[:, 0]
        noise_X = rng.uniform(0, 1, (30, 2))
        noise_y = rng.uniform(50, 99, 30)
        t = FeatureTable.from_arrays(
            np.vstack([clean_X, noise_X]), np.concatenate([clean_y, noise_y])
        )
        report = WeightReport(
            facility_ids=list(t.facility_ids),
            product_ids=list(t.product_ids),
            periods=list(t.periods),
            gradients=np.zeros(len(t)),
            raw_weights=np.zeros(len(t)),
            final_weights=np.concatenate([np.ones(50), np.zeros(30)]),
        )
        params = ForestParams(n_trees=6, max_depth=5, min_leaf_weight=1.0)
        weighted = retrain_weighted(t, report, params, seed=7)
        clean_only = train_forest(
            FeatureTable.from_arrays(clean_X, clean_y), params, seed=7
        )
        probe = rng.uniform(0, 1, (20, 2))
        assert np.array_equal(weighted.predict_point(probe), clean_only.predict_point(probe))

    def test_all_zero_weights_error(self):
        t = self._table(seed=8)
        report = WeightReport(
            facility_ids=list(t.facility_ids),
            product_ids=list(t.product_ids),
            periods=list(t.periods),
            gradients=np.zeros(len(t)),
            raw_weights=np.zeros(len(t)),
            final_weights=np.zeros(len(t)),
        )
        with pytest.raises(DegenerateWeightsError):
            retrain_weighted(t, report, ForestParams(n_trees=2), seed=0)

    def test_coverage_gap_raises(self):
        t = self._table(seed=9)
        report = WeightReport(
            facility_ids=list(t.facility_ids)[:-1],
            product_ids=list(t.product_ids)[:-1],
            periods=list(t.periods)[:-1],
            gradients=np.zeros(len(t) - 1),
            raw_weights=np.zeros(len(t) - 1),
            final_weights=np.ones(len(t) - 1),
        )
        with pytest.raises(MissingWeightError):
            apply_report(t, report)


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        t = panel_table(seed=11)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.5)
        report = compute_weights(t, model, budgets, WeightConfig())
        path = tmp_path / "weights.csv"
        report.to_csv(path)
        back = WeightReport.from_csv(path)
        assert np.array_equal(back.final_weights, report.final_weights)
        assert np.array_equal(back.gradients, report.gradients)
        assert back.row_keys() == report.row_keys()
