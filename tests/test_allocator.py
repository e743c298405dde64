import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockalloc import allocator
from stockalloc import (
    AllocationProblem,
    ShapeError,
    saa_objective,
    solve_greedy,
    solve_lp,
)
from stockalloc.allocator import shifted_allocations

from oracles import (
    integer_grid_optimum,
    integer_grid_optimum_literal,
    random_instance,
    reference_greedy,
    saa_loops,
    shortfall_loops,
)


def problem(samples, budget):
    return AllocationProblem(np.asarray(samples, dtype=float), float(budget))


def shortfall(a, xi):
    """Total unmet demand of `a` against `xi`: `saa_objective` at K = 1."""
    return saa_objective(problem([xi], 0.0), a)


class TestShortfall:
    def test_exact_cover(self):
        assert shortfall([3, 5], [3, 5]) == 0.0

    def test_zero_allocation(self):
        assert shortfall([0, 0], [4, 1]) == 5.0

    def test_partial(self):
        assert shortfall([2, 1], [4, 1]) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            shortfall([1, 2], [1, 2, 3])

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 10)
            a = rng.uniform(0, 5, n)
            xi = rng.uniform(0, 5, n)
            assert shortfall(a, xi) == pytest.approx(shortfall_loops(a, xi), abs=1e-12)


class TestSaaObjective:
    def test_single_sample_equals_shortfall(self):
        p = problem([[4.0, 1.0]], 0.0)
        a = np.array([2.0, 1.0])
        assert saa_objective(p, a) == shortfall_loops(a, [4.0, 1.0])

    def test_hand_evaluated_symmetric(self):
        p = problem([[4, 0], [0, 4]], 99)
        assert saa_objective(p, np.array([2.0, 2.0])) == 2.0
        assert saa_objective(p, np.array([4.0, 0.0])) == 2.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            samples, budget = random_instance(rng)
            a = rng.uniform(0, 10, samples.shape[1])
            p = problem(samples, budget)
            assert saa_objective(p, a) == pytest.approx(saa_loops(samples, a), abs=1e-12)


class TestSolveGreedy:
    def test_zero_budget(self):
        p = problem([[4, 0], [0, 4]], 0)
        res = solve_greedy(p)
        assert np.array_equal(res.allocation, [0.0, 0.0])
        assert res.objective == 4.0  # mean total sampled demand

    def test_worked_two_facility_example(self):
        # facility 0 samples {2, 4}, facility 1 samples {1, 1}, budget 3;
        # a grid scan over integer splits of the budget confirms [2, 1].
        p = problem([[2, 1], [4, 1]], 3)
        res = solve_greedy(p)
        assert np.allclose(res.allocation, [2.0, 1.0])
        assert res.objective == pytest.approx(1.0)
        grid_best = min(
            saa_loops(p.samples, np.array([a1, 3.0 - a1])) for a1 in range(4)
        )
        assert res.objective == pytest.approx(grid_best)

    def test_full_coverage_leaves_surplus_unallocated(self):
        samples = np.array([[2.0, 5.0], [4.0, 1.0]])
        p = problem(samples, 100.0)
        res = solve_greedy(p)
        assert np.allclose(res.allocation, samples.max(axis=0))
        assert res.objective == 0.0
        assert res.allocation.sum() < 100.0

    def test_fill_trace_consumes_budget_in_value_order(self):
        p = problem([[2, 1], [4, 1]], 3)
        res = solve_greedy(p)
        values = [s.marginal_value for s in res.fill_trace]
        assert values == sorted(values, reverse=True)
        assert sum(s.amount for s in res.fill_trace) == pytest.approx(3.0)

    def test_tie_break_prefers_lower_facility(self):
        # Both facilities offer a unit segment at marginal value 1.
        p = problem([[1.0, 1.0]], 1.0)
        res = solve_greedy(p)
        assert np.allclose(res.allocation, [1.0, 0.0])

    def test_zero_sample_facility_gets_nothing(self):
        p = problem([[0.0, 3.0], [0.0, 5.0]], 10.0)
        res = solve_greedy(p)
        assert res.allocation[0] == 0.0


@st.composite
def greedy_instances(draw):
    """Small instances rich in ties: integer or float samples, -0.0, all-zero
    columns, and budgets of zero, exactly a level total, the total demand
    and beyond it, or anything in between."""
    K = draw(st.integers(1, 8))
    N = draw(st.integers(1, 8))
    value = st.one_of(
        st.integers(0, 6).map(float),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        st.just(-0.0),
    )
    samples = np.array(
        draw(st.lists(st.lists(value, min_size=N, max_size=N), min_size=K, max_size=K))
    )
    samples[:, draw(st.lists(st.integers(0, N - 1), max_size=N))] = 0.0
    level_totals = np.sort(samples, axis=0).sum(axis=1)  # budget to fill levels 0..j
    total = float(samples.max(axis=0).sum())
    budget = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([float(b) for b in level_totals]),
            st.just(total),
            st.floats(total, total + 10.0),
            st.floats(0.0, total),
        )
    )
    return samples, budget


class TestMatchesReferenceGreedy:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(greedy_instances())
    def test_bit_identical_to_segment_loop(self, instance):
        samples, budget = instance
        ref_allocation, ref_objective, ref_trace = reference_greedy(samples, budget)
        res = solve_greedy(problem(samples, budget))
        assert np.array_equal(res.allocation, ref_allocation)
        assert res.allocation.tobytes() == ref_allocation.tobytes()  # -0.0 included
        assert res.objective == ref_objective
        assert len(res.fill_trace) == len(ref_trace)
        assert [s.to_dict() for s in list(res.fill_trace)] == ref_trace
        assert res.to_dict()["fill_trace"] == ref_trace

    def test_trace_length_builds_no_steps(self, monkeypatch):
        res = solve_greedy(problem([[2, 1], [4, 1]], 3))

        def no_steps(*args):
            raise AssertionError("len() built a FillStep")

        monkeypatch.setattr(allocator, "FillStep", no_steps)
        assert len(res.fill_trace) == 2  # level 0 of both facilities spends it all


class TestPermutation:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(greedy_instances(), st.data())
    def test_permuting_facilities_permutes_the_solution(self, instance, data):
        """The objective does not depend on facility order. The allocation
        follows the facilities when the budget is slack or ends exactly on a
        level boundary; a cut inside a level splits its equal-value segments
        by facility order, so only the objective is compared there."""
        samples, budget = instance
        perm = np.array(data.draw(st.permutations(range(samples.shape[1]))), dtype=np.int64)
        res = solve_greedy(problem(samples, budget))
        permuted = solve_greedy(problem(samples[:, perm], budget))
        tol = 1e-9 * max(1.0, float(samples.max()))  # facility order changes float sums
        assert permuted.objective == pytest.approx(res.objective, rel=1e-9, abs=tol)
        level_totals = np.sort(samples, axis=0).sum(axis=1)
        if budget >= samples.max(axis=0).sum() or budget == 0 or budget in level_totals:
            np.testing.assert_allclose(permuted.allocation, res.allocation[perm], rtol=0, atol=tol)


class TestShiftedAllocations:
    def test_each_shifted_allocation_is_feasible_and_lp_optimal(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            samples, budget = random_instance(rng, max_n=4, max_k=4, max_value=8)
            h = float(rng.choice([0.5, 1.0, 3.0, 20.0, rng.uniform(0.01, 5.0)]))
            up, down = shifted_allocations(problem(samples, budget), h)
            for n in range(samples.shape[1]):
                for columns, shift in ((up, h), (down, -h)):
                    shifted = samples.copy()
                    shifted[:, n] = np.maximum(shifted[:, n] + shift, 0.0)
                    p = problem(shifted, budget)
                    a = columns[:, n]
                    assert np.all(a >= 0.0)
                    assert a.sum() <= budget + 1e-9 * max(1.0, budget)
                    assert saa_objective(p, a) == pytest.approx(solve_lp(p).objective, abs=1e-9)

    @pytest.mark.parametrize("budget_share", [0.0, 0.05, 0.3, 0.97, 1.0, 2.0])
    def test_bit_identical_to_solving_each_shifted_problem(self, budget_share):
        # Shifts of 50 move the cut many levels away from the unshifted one,
        # past the window the shifted walks first cover.
        rng = np.random.default_rng(15)
        samples = np.round(rng.gamma(2.0, 3.0, size=(30, 6)), 1)
        samples[:, 2] = 0.0
        budget = budget_share * float(samples.max(axis=0).sum())
        for h in (0.1, 2.0, 50.0):
            up, down = shifted_allocations(problem(samples, budget), h)
            for n in range(samples.shape[1]):
                for columns, shift in ((up, h), (down, -h)):
                    shifted = samples.copy()
                    shifted[:, n] = np.maximum(shifted[:, n] + shift, 0.0)
                    expected = solve_greedy(problem(shifted, budget)).allocation
                    assert columns[:, n].tobytes() == expected.tobytes()

    def test_own_only_is_the_diagonal(self):
        rng = np.random.default_rng(14)
        samples = rng.gamma(2.0, 3.0, size=(7, 5))
        p = problem(samples, 0.5 * samples.max(axis=0).sum())
        up, down = shifted_allocations(p, 0.3)
        own_up, own_down = shifted_allocations(p, 0.3, own_only=True)
        assert np.array_equal(own_up, np.diag(up))
        assert np.array_equal(own_down, np.diag(down))

    def test_overflowing_shift_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            shifted_allocations(problem([[1e308, 1.0]], 1.0), 1e308)


class TestSolveLp:
    def test_agrees_on_worked_example(self):
        p = problem([[2, 1], [4, 1]], 3)
        assert solve_lp(p).objective == pytest.approx(solve_greedy(p).objective, abs=1e-8)

    def test_zero_budget(self):
        p = problem([[4, 0], [0, 4]], 0)
        assert solve_lp(p).objective == pytest.approx(4.0, abs=1e-9)

    def test_non_unique_optimum_objective(self):
        p = problem([[4, 0], [0, 4]], 4)
        res = solve_lp(p)
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert res.allocation.sum() <= 4.0 + 1e-9

    def test_allocation_capped_at_max_sample(self):
        p = problem([[2.0, 5.0], [4.0, 1.0]], 100.0)
        res = solve_lp(p)
        assert np.all(res.allocation <= p.samples.max(axis=0) + 1e-9)


class TestOracleEquivalence:
    def test_dp_matches_literal_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            samples, budget = random_instance(rng, max_n=4, max_k=4, max_value=6)
            assert integer_grid_optimum(samples, budget) == pytest.approx(
                integer_grid_optimum_literal(samples, budget), abs=1e-12
            )

    def test_greedy_lp_and_grid_agree_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            samples, budget = random_instance(rng)
            p = problem(samples, budget)
            greedy = solve_greedy(p).objective
            assert greedy == pytest.approx(solve_lp(p).objective, abs=1e-6)
            assert greedy == pytest.approx(integer_grid_optimum(samples, budget), abs=1e-6)


class TestProperties:
    def test_budget_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            samples, budget = random_instance(rng)
            lo = solve_greedy(problem(samples, budget)).objective
            hi = solve_greedy(problem(samples, budget + rng.integers(1, 5))).objective
            assert hi <= lo + 1e-12

    def test_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(80):
            samples, budget = random_instance(rng)
            res = solve_greedy(problem(samples, budget))
            assert res.allocation.sum() <= budget + 1e-9
            assert np.all(res.allocation >= 0)
            assert np.all(res.allocation <= samples.max(axis=0) + 1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            samples, budget = random_instance(rng)
            base = solve_greedy(problem(samples, budget))
            c = float(rng.uniform(0.2, 7.0))
            scaled = solve_greedy(problem(samples * c, budget * c))
            assert np.allclose(scaled.allocation, base.allocation * c, rtol=1e-12, atol=1e-9)
            assert scaled.objective == pytest.approx(base.objective * c, rel=1e-12, abs=1e-9)

    def test_validation_rejects_bad_problems(self):
        with pytest.raises(ValueError):
            problem([[1.0, -2.0]], 1.0)
        with pytest.raises(ValueError):
            problem([[1.0, 2.0]], -1.0)
        with pytest.raises(ShapeError):
            AllocationProblem(np.zeros((0, 2)), 1.0)
        with pytest.raises(ShapeError):
            saa_objective(problem([[1.0, 2.0]], 1.0), np.array([1.0]))
