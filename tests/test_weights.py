import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockalloc import (
    AllocationProblem,
    ConfigError,
    DegenerateWeightsError,
    FeatureTable,
    ForestParams,
    ShapeError,
    WeightConfig,
    budgets_from_fraction,
    compute_weights,
    loss_gradient,
    policy_jacobian,
    solve_greedy,
    train_forest,
)
from stockalloc import weights
from stockalloc.ingest import INVENTORY_COLUMN
from stockalloc.weights import JACOBIAN_MODES, WEIGHTS_CSV_HEADER, group_problems

from oracles import reference_fd_columns


@st.composite
def fd_instances(draw):
    """Small problems for the FD Jacobian: integer ties, exact and -0.0
    zeros, steps larger than the samples (the down shift clips), and
    budgets of zero, exactly a level total, the total demand, 1e9 or
    anything below the total."""
    K = draw(st.integers(1, 6))
    N = draw(st.integers(1, 6))
    value = st.one_of(
        st.integers(0, 6).map(float),
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        st.just(-0.0),
    )
    samples = np.array(
        draw(st.lists(st.lists(value, min_size=N, max_size=N), min_size=K, max_size=K))
    )
    level_totals = np.sort(samples, axis=0).sum(axis=1)
    total = float(samples.max(axis=0).sum())
    budget = draw(st.one_of(
        st.just(0.0),
        st.sampled_from([float(b) for b in level_totals]),
        st.just(total),
        st.just(1e9),
        st.floats(0.0, total),
    ))
    h = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 7.0, 1000.0]), st.floats(1e-3, 50.0)))
    return samples, budget, h



@st.composite
def hard_fd_instances(draw):
    """Problems whose shifted cuts are hard to read off the unshifted walk:
    ties and zero segments, values scaled to ~1e-300, ~1e300 or to
    subnormals, steps that move the cut past the levels around the
    unshifted one, and budgets equal to a partial level-major sum of the
    segments of the problem or of one of its shifted problems, or one
    float either side of it (the budget then runs out at about zero)."""
    K = draw(st.integers(1, 12))
    N = draw(st.integers(1, 5))
    value = st.one_of(st.integers(0, 6).map(float), st.integers(0, 60).map(lambda v: v / 10),
                      st.floats(0.0, 10.0))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300, 2.0**-1070, 5e-324]))
    samples = scale * np.array(
        draw(st.lists(st.lists(value, min_size=N, max_size=N), min_size=K, max_size=K)))
    h = max(scale * draw(st.sampled_from([1e-3, 0.05, 0.1, 0.3, 1.0, 7.0, 50.0])), 5e-324)
    walked = samples.copy()
    n = draw(st.integers(0, N - 1))
    walked[:, n] = np.maximum(walked[:, n] + draw(st.sampled_from([0.0, h, -h])), 0.0)
    segments = np.diff(np.sort(walked, axis=0), axis=0, prepend=0.0).ravel()
    budget = float(np.cumsum(segments)[draw(st.integers(0, segments.size - 1))])
    budget = draw(st.sampled_from([budget, np.nextafter(budget, 0.0),
                                   np.nextafter(budget, np.inf)]))
    return samples, max(float(budget), 0.0), h

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
    def test_fd_jacobian_equals_reference_solver_jacobian(self, mode):
        rng = np.random.default_rng(20)
        samples = rng.gamma(2.0, 5.0, size=(100, 20))
        p = AllocationProblem(samples, 0.6 * float(samples.mean(axis=0).sum()))
        cfg = WeightConfig(jacobian_mode=mode)
        J = policy_jacobian(p, cfg)
        assert np.count_nonzero(J)
        h = weights.resolve_fd_step(cfg, samples.mean())
        reference = reference_fd_columns(samples, p.budget, h, diagonal=mode == "diagonal_fd")
        assert np.array_equal(J, reference)
        assert J.tobytes() == reference.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fd_instances())
    def test_fd_jacobian_bit_identical_to_reference_loop(self, instance):
        samples, budget, h = instance
        p = AllocationProblem(samples, budget)
        for mode in ("diagonal_fd", "full_fd"):
            J = policy_jacobian(p, WeightConfig(jacobian_mode=mode, fd_step=h))
            reference = reference_fd_columns(samples, budget, h, diagonal=mode == "diagonal_fd")
            assert np.array_equal(J, reference)
            assert J.tobytes() == reference.tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(hard_fd_instances())
    def test_diagonal_fd_bit_identical_to_reference_loop_on_hard_cases(self, instance):
        samples, budget, h = instance
        J = policy_jacobian(AllocationProblem(samples, budget),
                            WeightConfig(jacobian_mode="diagonal_fd", fd_step=h))
        reference = reference_fd_columns(samples, budget, h, diagonal=True)
        assert J.tobytes() == reference.tobytes()

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            WeightConfig(jacobian_mode="nope")

    @pytest.mark.parametrize("setting", [
        {"fd_step": float("inf")}, {"fd_step": float("nan")}, {"fd_step": 0.0},
        {"weight_floor": float("nan")}, {"weight_floor": float("inf")}, {"weight_floor": -1.0},
    ], ids=["fd_step_inf", "fd_step_nan", "fd_step_zero",
            "weight_floor_nan", "weight_floor_inf", "weight_floor_negative"])
    def test_non_finite_or_out_of_range_setting_rejected(self, setting):
        with pytest.raises(ConfigError):
            WeightConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"fd_step": True}, {"fd_step": "x"}, {"weight_floor": True}, {"weight_floor": "0.1"},
        {"jacobian_mode": ["identity"]},
    ], ids=["fd_step_bool", "fd_step_str", "weight_floor_bool", "weight_floor_str",
            "jacobian_mode_list"])
    def test_setting_of_the_wrong_type_rejected(self, setting):
        (name, value), = setting.items()
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be ") + ".*"
                           + re.escape(f", got {value!r}")):
            WeightConfig(**setting)


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


def rebuilt(t, **columns):
    """The table `t` built anew, with each column named in `columns` in place of its own."""
    fields = dict(facility_ids=t.facility_ids, product_ids=t.product_ids, periods=t.periods,
                  X=t.X, y=t.y, weights=t.weights, feature_names=t.feature_names)
    return FeatureTable(**dict(fields, **columns))


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


class _SampleModel:
    """Stand-in predictor: fixed samples per row, matched by the row's last
    feature."""

    def __init__(self, X, samples):
        self.samples = dict(zip(X[:, -1].tolist(), samples))

    def predict_samples(self, X):
        return np.array([self.samples[x] for x in np.atleast_2d(X)[:, -1].tolist()])


@st.composite
def tie_free_weight_instances(draw):
    """A table, a model, budgets and a weight config whose every allocation
    is unique whatever the row order: integer samples and stock keep the
    sums exact, and each (period, product) budget spends whole water-fill
    levels (none, some, all, or more than all), so the budget never runs
    out inside a level shared by several facilities, where facility order
    would pick the binding one. Feature 0 is the stock on hand, netted when
    it is named `INVENTORY_COLUMN`; feature 1 identifies the row."""
    n_products, n_periods, n_fac, K = (draw(st.integers(1, hi)) for hi in (2, 3, 6, 4))
    keys = [(f"2021-{t + 1:02d}", f"p{p}") for p in range(n_products) for t in range(n_periods)]
    n = len(keys) * n_fac
    ints = st.lists(st.integers(0, 20), min_size=n * K, max_size=n * K)
    samples = np.array(draw(ints), dtype=float).reshape(n, K)
    y = np.array(draw(ints)[:n], dtype=float)
    stock = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    config = WeightConfig(weight_floor=draw(st.sampled_from([0.0, 0.05, 0.5])))
    netted = draw(st.booleans(), label="netted")
    table = FeatureTable(
        facility_ids=[f"f{i}" for _ in keys for i in range(n_fac)],
        product_ids=[product for _, product in keys for _ in range(n_fac)],
        periods=[period for period, _ in keys for _ in range(n_fac)],
        X=np.column_stack([stock, np.arange(n) + 0.5]),
        y=y,
        weights=np.ones(n),
        feature_names=[INVENTORY_COLUMN if netted else "f_0", "f_1"],
    )
    net = np.maximum(samples - stock[:, None], 0.0) if netted else samples
    levels = np.sort(net, axis=1)
    budgets = {}
    for g, key in enumerate(keys):
        spent = draw(st.integers(0, K + 1), label="levels spent")  # K + 1: slack
        top = levels[g * n_fac:(g + 1) * n_fac, min(spent, K) - 1]
        budgets[key] = float(top.sum()) + 3.0 * (spent > K) if spent else 0.0
    return table, _SampleModel(table.X, samples), budgets, config


def floored_mean_one(report, floor):
    """The final weights `compute_weights` must give: max(|raw|, floor) / its mean."""
    floored = np.maximum(np.abs(report.raw_weights), floor)
    return floored / floored.mean()


def exact_model(table, k=3, spread=False):
    """Model whose point forecast equals each row's realized demand."""
    values = {tuple(np.round(x, 12)): y for x, y in zip(table.X, table.y)}
    return _PointModel(values, k=k, spread=spread)


class TestGroupProblems:
    def test_spellings_of_one_month_are_one_group(self):
        t = panel_table(n_periods=2, n_fac=4)
        periods = t.periods
        periods[1], periods[6] = "2021-1", " 2021-2"
        t = rebuilt(t, periods=periods)
        assert len(set(t.periods)) == 4  # the table holds both spellings of each month
        budgets = budgets_from_fraction(t, 0.5)
        assert budgets == {("2021-01", "p"): 0.5 * float(t.y[:4].sum()),
                           ("2021-02", "p"): 0.5 * float(t.y[4:].sum())}
        groups = list(group_problems(t, budgets, lambda rows: t.y[rows][:, None]))
        assert [key for key, *_ in groups] == list(budgets)
        for key, rows, realized, problem in groups:
            assert np.array_equal(realized, t.y[rows])
            assert np.array_equal(problem.samples, t.y[rows][None, :])
            assert problem.budget == budgets[key]
        assert [rows.tolist() for _, rows, _, _ in groups] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_nets_samples_and_realized_by_the_inventory_feature(self):
        t = panel_table(n_periods=1, n_fac=3)
        X = t.X.copy()
        X[:, 0] = [0.0, 5.0, 100.0]
        t = rebuilt(t, X=X, feature_names=[INVENTORY_COLUMN, "f_1"])
        (_, _, realized, problem), = group_problems(
            t, {("2021-01", "p"): 1.0}, lambda rows: np.stack([t.y[rows], 2 * t.y[rows]], 1))
        assert np.array_equal(realized, np.clip(t.y - t.X[:, 0], 0, None))
        assert np.array_equal(problem.samples[1], np.clip(2 * t.y - t.X[:, 0], 0, None))


class TestComputeWeights:
    def test_full_coverage_all_weights_floor(self):
        t = panel_table()
        model = exact_model(t)
        budgets = {(p, "p"): 1e6 for p in set(t.periods)}  # budget covers everything
        report = compute_weights(t, model, budgets, WeightConfig(weight_floor=0.05))
        assert np.all(report.gradients == 0.0)
        assert np.all(report.raw_weights == 0.0)
        assert np.array_equal(report.final_weights, floored_mean_one(report, 0.05))

    def test_identity_gradient_floor_pattern(self):
        t = rebuilt(panel_table(n_periods=1, n_fac=2), y=np.array([4.0, 1.0]))
        model = _PointModel(
            {tuple(np.round(x, 12)): v for x, v in zip(t.X, [2.0, 1.0])}
        )
        report = compute_weights(
            t, model, {("2021-01", "p"): 3.0}, WeightConfig(weight_floor=0.05)
        )
        # a* = [2, 1]: facility 0 underserved -> 1.0, facility 1 covered -> floor
        assert np.array_equal(report.final_weights, floored_mean_one(report, 0.05))
        assert np.allclose(report.final_weights, np.array([1.0, 0.05]) / 0.525)
        assert np.array_equal(report.gradients, [-1.0, 0.0])

    def test_mean_one_normalization(self):
        t = panel_table(seed=3)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.5)
        report = compute_weights(t, model, budgets, WeightConfig())
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
        report = compute_weights(t, model, budgets, WeightConfig(weight_floor=0.05))
        assert (np.abs(report.raw_weights) < 0.05).any()  # the floor decides some weights
        assert np.array_equal(report.final_weights, floored_mean_one(report, 0.05))

    def test_empty_table_raises(self):
        t = panel_table()
        with pytest.raises(DegenerateWeightsError, match="empty training table"):
            compute_weights(t.subset([]), exact_model(t), {}, WeightConfig())

    def test_missing_budget_raises(self):
        t = panel_table()
        model = exact_model(t)
        with pytest.raises(ConfigError, match="no budget for period '2021-02', product 'p'"):
            compute_weights(t, model, {("2021-01", "p"): 5.0}, WeightConfig())

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_free_weight_instances(), st.data())
    def test_permutation_equivariance_property(self, instance, data):
        # The identity Jacobian only: a finite-difference shift moves one
        # facility off the level boundary, and the perturbed budget then
        # runs out inside a level, where facility order decides.
        table, model, budgets, config = instance
        perm = np.array(data.draw(st.permutations(range(len(table))), label="perm"))
        report = compute_weights(table, model, budgets, config)
        permuted = compute_weights(table.subset(perm), model, budgets, config)
        assert np.array_equal(permuted.gradients, report.gradients[perm])
        assert np.array_equal(permuted.raw_weights, report.raw_weights[perm])
        # the final weights divide by a mean summed in row order
        np.testing.assert_allclose(permuted.final_weights, report.final_weights[perm],
                                   rtol=1e-12, atol=0)
        assert permuted.group_jacobian_mode == report.group_jacobian_mode

    def test_covered_facilities_get_exactly_floor(self):
        # One facility's demand is always fully covered: weight floor exactly.
        t = panel_table(n_periods=3, n_fac=3, seed=5)
        y = t.y.copy()
        y[::3] = 0.5  # facility f0 tiny demand in every period
        t = rebuilt(t, y=y)
        model = exact_model(t)
        budgets = {(p, "p"): 2.0 for p in set(t.periods)}  # covers f0's segment first
        report = compute_weights(t, model, budgets, WeightConfig(weight_floor=0.07))
        f0 = [i for i, f in enumerate(report.facility_ids) if f == "f0"]
        assert np.all(report.raw_weights[f0] == 0.0)
        assert np.array_equal(report.final_weights, floored_mean_one(report, 0.07))

    @pytest.mark.parametrize("mode", ["diagonal_fd", "full_fd"])
    @pytest.mark.parametrize("gap", ["missing", "duplicated"])
    def test_incomplete_panel_falls_back_to_identity(self, mode, gap):
        # In 2021-01 facility f0 is missing, or its row names f1 a second
        # time: either way two of the product's three facilities are there.
        t = panel_table(n_periods=2, n_fac=3, seed=6)
        f0 = [i for i in range(len(t)) if t.periods[i] == "2021-01" and t.facility_ids[i] == "f0"]
        if gap == "missing":
            t2 = t.subset([i for i in range(len(t)) if i not in f0])
        else:
            t2 = FeatureTable(["f1" if i in f0 else f for i, f in enumerate(t.facility_ids)],
                              t.product_ids, t.periods, t.X, t.y, t.weights, t.feature_names)
        model = exact_model(t2)
        budgets = budgets_from_fraction(t2, 0.5)
        cfg = WeightConfig(jacobian_mode=mode, fd_step=0.05)
        report = compute_weights(t2, model, budgets, cfg)
        assert report.group_jacobian_mode == {("2021-01", "p"): "identity", ("2021-02", "p"): mode}
        fallback = np.array([p == "2021-01" for p in t2.periods])
        assert report.raw_weights[fallback].tobytes() == report.gradients[fallback].tobytes()

    def test_full_panel_with_a_duplicated_facility_keeps_the_fd_mode(self):
        t = panel_table(n_periods=2, n_fac=3, seed=6)
        t2 = t.subset(list(range(len(t))) + [0])  # f0 twice in 2021-01
        model = exact_model(t2)
        cfg = WeightConfig(jacobian_mode="diagonal_fd", fd_step=0.05)
        report = compute_weights(t2, model, budgets_from_fraction(t2, 0.5), cfg)
        assert set(report.group_jacobian_mode.values()) == {"diagonal_fd"}

    @pytest.mark.parametrize("mode", JACOBIAN_MODES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tie_free_weight_instances())
    def test_raw_weights_are_the_jacobian_product(self, mode, instance):
        """Every group's raw weights are the bytes of J^T g, the sign of
        zero included; identity groups take g itself and build no J."""
        table, model, budgets, config = instance
        config = replace(config, jacobian_mode=mode, fd_step=0.5)
        report = compute_weights(table, model, budgets, config)
        expected = np.zeros(len(table))
        for key, rows, realized, problem in group_problems(
                table, budgets, lambda rows: model.predict_samples(table.X[rows])):
            g = loss_gradient(solve_greedy(problem).allocation, realized)
            expected[rows] = policy_jacobian(problem, config).T @ g
        assert report.raw_weights.tobytes() == expected.tobytes()
        assert report.group_jacobian_mode == {key: mode for key in budgets}  # full panels

    def test_inventory_netting_zeroes_covered_class(self):
        t = panel_table(n_periods=1, n_fac=2, seed=10)
        X = t.X.copy()
        X[:, 0] = [100.0, 0.0]  # facility 0 holds plenty of stock
        t = rebuilt(t, X=X, y=np.array([20.0, 5.0]), feature_names=[INVENTORY_COLUMN, "f_1"])
        model = exact_model(t)
        report = compute_weights(t, model, {("2021-01", "p"): 1.0},
                                 WeightConfig(weight_floor=0.01))
        assert report.gradients[0] == 0.0  # net requirement zero, covered
        assert report.raw_weights[0] == 0.0
        assert np.array_equal(report.final_weights, floored_mean_one(report, 0.01))


class TestRetrain:
    def _table(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        return FeatureTable.from_arrays(rng.uniform(0, 1, (n, 3)), rng.uniform(0, 9, n))

    def test_equal_weights_match_uniform_training(self):
        t = self._table()
        params = ForestParams(n_trees=5, max_depth=4, min_leaf_weight=1.0)
        weighted = train_forest(t.with_weights(np.full(len(t), 2.5)), params, seed=3)
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
        params = ForestParams(n_trees=6, max_depth=5, min_leaf_weight=1.0)
        weighted = train_forest(t.with_weights(np.concatenate([np.ones(50), np.zeros(30)])),
                                params, seed=7)
        clean_only = train_forest(
            FeatureTable.from_arrays(clean_X, clean_y), params, seed=7
        )
        probe = rng.uniform(0, 1, (20, 2))
        assert np.array_equal(weighted.predict_point(probe), clean_only.predict_point(probe))

    def test_all_zero_weights_error(self):
        t = self._table(seed=8)
        with pytest.raises(DegenerateWeightsError):
            train_forest(t.with_weights(np.zeros(len(t))), ForestParams(n_trees=2), seed=0)


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        """The audit table holds every row's key and its exact floats."""
        t = panel_table(seed=11)
        model = exact_model(t)
        budgets = budgets_from_fraction(t, 0.5)
        report = compute_weights(t, model, budgets, WeightConfig())
        path = tmp_path / "weights.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == WEIGHTS_CSV_HEADER
        assert [tuple(r[:3]) for r in rows] == list(
            zip(report.periods, report.facility_ids, report.product_ids))
        values = np.array([r[3:] for r in rows], dtype=float)
        assert np.array_equal(values[:, 0], report.gradients)
        assert np.array_equal(values[:, 1], report.raw_weights)
        assert np.array_equal(values[:, 2], report.final_weights)
