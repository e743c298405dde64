"""Budget-constrained expected-shortfall allocation.

The allocation objective is the scenario-average unmet demand

    (1/K) * sum_k sum_n max(xi_k[n] - a[n], 0)

over K sampled demand vectors, subject to sum(a) <= budget and a >= 0.
The objective is separable convex piecewise-linear in `a`, so the exact
optimum is reached by water-filling: pour budget into the demand segments
with the highest marginal shortfall reduction first. An explicit linear
program over (a, c) with c_k >= xi_k - a, c >= 0 is kept as an independent
cross-check (`solve_lp`).
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _simplex
from .errors import ShapeError


def _as_vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class AllocationProblem:
    """K demand sample vectors over N facilities plus a total budget."""

    samples: np.ndarray  # (K, N), nonnegative
    budget: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ShapeError(f"samples must be (K, N), got shape {samples.shape}")
        if samples.shape[0] < 1 or samples.shape[1] < 1:
            raise ShapeError("need at least one sample and one facility")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(samples < 0):
            raise ValueError("samples must be nonnegative")
        if not np.isfinite(self.budget) or self.budget < 0:
            raise ValueError("budget must be finite and nonnegative")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_facilities(self):
        return self.samples.shape[1]

    @classmethod
    def from_row_samples(cls, row_samples, budget):
        """Build from an (n_facilities, K) prediction matrix."""
        return cls(np.asarray(row_samples, dtype=float).T, budget)

    def to_dict(self):
        return {"samples": self.samples.tolist(), "budget": self.budget}

    @classmethod
    def from_dict(cls, d):
        return cls(np.array(d["samples"], dtype=float), float(d["budget"]))


@dataclass(frozen=True)
class FillStep:
    """One consumed segment of the water-filling order (audit trail).

    Steps are not kept by the solver; `FillTrace` derives them on request.
    """

    facility: int
    start: float
    end: float
    amount: float
    marginal_value: float

    def to_dict(self):
        return {
            "facility": self.facility,
            "start": self.start,
            "end": self.end,
            "amount": self.amount,
            "marginal_value": self.marginal_value,
        }


class FillTrace(Sequence):
    """The `FillStep`s of one greedy solve, derived on request.

    Holds the solve's sorted samples and the amount it took from each
    segment in level-major order. Segments it took nothing from are not
    steps. `len()` counts the steps without building them.
    """

    def __init__(self, sorted_samples, takes):
        self._sorted = sorted_samples
        self._takes = takes

    def __len__(self):
        return int(np.count_nonzero(self._takes))

    @cached_property
    def _steps(self):
        K, N = self._sorted.shape
        idx = np.flatnonzero(self._takes)
        starts = np.vstack([np.zeros((1, N)), self._sorted[:-1]]).ravel()[idx]
        takes = self._takes[idx]
        values = ((K - np.arange(K, dtype=float)) / K)[idx // N]
        return [
            FillStep(int(f), float(s), float(s + t), float(t), float(v))
            for f, s, t, v in zip(idx % N, starts, takes, values)
        ]

    def __getitem__(self, i):
        return self._steps[i]


@dataclass
class AllocationResult:
    """Optimal allocation, its mean shortfall, and the fill order.

    `fill_trace` is a sequence of `FillStep`s; for `solve_greedy` it is a
    `FillTrace`, which builds the steps only when they are read.
    """

    allocation: np.ndarray
    objective: float
    fill_trace: Sequence = ()

    def to_dict(self):
        return {
            "allocation": self.allocation.tolist(),
            "objective": self.objective,
            "fill_trace": [s.to_dict() for s in self.fill_trace],
        }


def shortfall(a, xi):
    """Total unmet demand sum_n max(xi[n] - a[n], 0)."""
    a = _as_vector(a, "allocation")
    xi = _as_vector(xi, "demand")
    if a.shape != xi.shape:
        raise ShapeError(f"allocation {a.shape} vs demand {xi.shape}")
    return float(np.maximum(xi - a, 0.0).sum())


def saa_objective(problem, a):
    """Mean shortfall of allocation `a` across the problem's K samples."""
    a = _as_vector(a, "allocation")
    if a.shape[0] != problem.n_facilities:
        raise ShapeError(
            f"allocation has {a.shape[0]} entries, problem has "
            f"{problem.n_facilities} facilities"
        )
    return float(np.maximum(problem.samples - a[None, :], 0.0).sum() / problem.n_samples)


def solve_greedy(problem):
    """Exact optimum by level-wise water-filling, O(K N log K).

    Per facility the sorted samples 0 <= s_1 <= ... <= s_K cut the
    allocation axis into K segments; the segment ending at s_{j+1}
    reduces the mean shortfall by (K - j)/K per unit. All facilities share
    these K levels, so the greedy order is level-major: every facility's
    level-0 segment in facility order, then level 1, and so on. That is
    the order of decreasing marginal value with ties going to the lower
    facility index, which makes the returned optimum unique and
    deterministic. The budget runs out inside one binding segment: every
    facility gets its segments below the binding level, and those of the
    binding level up to the binding facility. Allocation never exceeds a
    facility's largest sample (beyond it the marginal value is zero). The
    sort dominates the cost; the rest is a few vector passes.
    """
    samples = problem.samples
    K, N = samples.shape
    sorted_samples = np.sort(samples, axis=0)
    takes = sorted_samples.copy()  # segment lengths, then cut to what is taken
    takes[1:] -= sorted_samples[:-1]
    flat = takes.ravel()  # level-major order

    # Budget left after each segment: the same float sequence as spending
    # it one segment at a time.
    remaining = np.subtract.accumulate(np.concatenate(([float(problem.budget)], flat)))
    spent = np.flatnonzero(remaining <= 0.0)
    if spent.size:  # the budget runs out inside segment spent[0] - 1
        last = spent[0] - 1
        flat[last + 1 :] = 0.0
        if last >= 0:
            flat[last] = remaining[last]
    # A -0.0 sample makes a -0.0 segment; adding 0.0 keeps it from showing
    # as a -0.0 allocation, which a fill that skips empty segments never gives.
    allocation = np.cumsum(takes, axis=0)[-1] + 0.0
    return AllocationResult(
        allocation=allocation,
        objective=saa_objective(problem, allocation),
        fill_trace=FillTrace(sorted_samples, flat),
    )


def solve_lp(problem, tolerance=1e-8, max_iter=20000):
    """Solve the explicit allocation LP with the built-in dense simplex.

    Variables are (a, c, s) with one surplus s per scenario constraint
    a_n + c_kn - s_kn = xi_kn plus a slack row sum(a) + t = budget. Meant
    as an audit path and correctness oracle for `solve_greedy`; cost grows
    quickly with N*K. The returned allocation is clipped to each
    facility's largest sample, which never changes the objective but
    keeps the result unique where the LP optimum is not.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    samples = problem.samples
    K, N = samples.shape
    n_scen = K * N
    n_var = N + 2 * n_scen + 1  # a, c, s, budget slack

    A = np.zeros((n_scen + 1, n_var))
    b = np.zeros(n_scen + 1)
    row = 0
    for k in range(K):
        for n in range(N):
            A[row, n] = 1.0  # a_n
            A[row, N + row] = 1.0  # c_kn
            A[row, N + n_scen + row] = -1.0  # surplus
            b[row] = samples[k, n]
            row += 1
    A[row, :N] = 1.0
    A[row, -1] = 1.0  # budget slack
    b[row] = problem.budget

    cost = np.zeros(n_var)
    cost[N : N + n_scen] = 1.0 / K

    x, _ = _simplex.solve_standard_lp(cost, A, b, max_iter=max_iter)
    allocation = np.clip(x[:N], 0.0, samples.max(axis=0))
    return AllocationResult(
        allocation=allocation,
        objective=saa_objective(problem, allocation),
    )
