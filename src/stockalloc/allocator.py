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
from .errors import ConfigError, ShapeError


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
            raise ConfigError(f"budget must be finite and nonnegative, got {self.budget!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_facilities(self):
        return self.samples.shape[1]


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

    Holds the solve's sorted samples, its segment lengths and its cut (see
    `_cut`). Segments it took nothing from are not steps.
    """

    def __init__(self, sorted_samples, lengths, segment, leftover):
        self._sorted = sorted_samples
        self._lengths = lengths
        self._cut = (segment, leftover)

    @cached_property
    def _takes(self):
        """The amount taken from each segment, level-major."""
        segment, leftover = self._cut
        flat = self._lengths.ravel().copy()
        if segment < flat.size:
            flat[segment] = leftover
            flat[segment + 1 :] = 0.0
        return flat

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


def saa_objective(problem, a):
    """Mean shortfall of allocation `a` across the problem's K samples."""
    a = _as_vector(a, "allocation")
    if a.shape[0] != problem.n_facilities:
        raise ShapeError(
            f"allocation has {a.shape[0]} entries, problem has "
            f"{problem.n_facilities} facilities"
        )
    return float(np.maximum(problem.samples - a[None, :], 0.0).sum() / problem.n_samples)


def _segments(sorted_samples):
    """Segment lengths: each sorted sample minus the one below it, the
    lowest minus zero."""
    takes = sorted_samples.copy()
    takes[1:] -= sorted_samples[:-1]
    return takes


def _level_sums(takes):
    """Row j holds each facility's first j segments, summed in level order
    (row 0 is zero)."""
    sums = np.zeros((takes.shape[0] + 1, takes.shape[1]))
    np.cumsum(takes, axis=0, out=sums[1:])
    return sums


def _cut(remaining, spent):
    """Where the budget runs out, as (segment, leftover).

    `remaining` is the budget left after each level-major segment, the
    budget itself first; it never increases, and `spent` is its first
    index <= 0 (its length if none). Segments before `segment` are taken
    whole, `segment` takes `leftover`, the rest nothing. A zero budget cuts
    at segment 0 with nothing left over, a budget that never runs out past
    the last segment.
    """
    if spent == 0:
        return 0, 0.0
    if spent == len(remaining):
        return spent - 1, 0.0
    return spent - 1, remaining[spent - 1]


def _allocation_at(sums, facilities, segment, leftover):
    """What `facilities` take at a cut, from their `_level_sums` columns.

    The binding facility, `segment` mod N, takes its levels below the
    cut level plus `leftover`; the facilities before it also take the cut
    level, those after it not. These are the floats of summing the taken
    segments in level order, except that -0.0 comes out as 0.0 (a -0.0
    sample makes a -0.0 segment, and a fill that skips empty segments
    never gives a -0.0 allocation). Broadcasts over arrays of cuts.
    """
    level, binding = np.divmod(segment, sums.shape[1])
    taken = sums[level + (facilities < binding), facilities]
    return taken + np.where(facilities == binding, leftover, 0.0)


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
    N = samples.shape[1]
    sorted_samples = np.sort(samples, axis=0)
    takes = _segments(sorted_samples)
    # Budget left after each segment: the same float sequence as spending
    # it one segment at a time.
    remaining = np.subtract.accumulate(np.concatenate(([float(problem.budget)], takes.ravel())))
    segment, leftover = _cut(remaining, np.count_nonzero(remaining > 0.0))
    allocation = _allocation_at(_level_sums(takes), np.arange(N), segment, leftover)
    return AllocationResult(
        allocation=allocation,
        objective=saa_objective(problem, allocation),
        fill_trace=FillTrace(sorted_samples, takes, segment, leftover),
    )


# Levels past the unshifted cut that a shifted walk covers before it checks
# whether the budget has run out; if not, the walk goes on to the end. A
# finite-difference step moves the cut by well under a level (no walk of
# the synth_linear_fd benchmark inputs went on), and each level walked
# costs N subtractions.
_SHIFT_WINDOW_LEVELS = 2


def _shifted_cuts(budget, takes, shifted_takes):
    """Cuts of the problems in which facility n's segments are those of
    `shifted_takes[s][:, n]`, as (segment, leftover) arrays of shape (S, N).

    One buffer holds the budget and the level-major segments and is walked
    again for each shifted problem. The entries of a walk before facility
    n's first segment are those of the unshifted walk, so it starts there.
    It stops a few levels past the unshifted cut and goes on to the end
    only if the budget has not run out by then; either way the floats are
    those of a walk over the whole shifted problem.
    """
    N = takes.shape[1]
    walk = np.concatenate(([float(budget)], takes.ravel()))
    remaining = np.subtract.accumulate(walk)
    unshifted_spent = int(np.count_nonzero(remaining > 0.0))
    unshifted_cut = _cut(remaining, unshifted_spent)
    head = remaining[:N].copy()
    stop = min(walk.size, unshifted_spent + _SHIFT_WINDOW_LEVELS * N)

    # Facilities from unshifted_spent on take nothing before the budget
    # runs out, so their shifts keep the unshifted cut.
    segment = np.full((len(shifted_takes), N), unshifted_cut[0])
    leftover = np.full((len(shifted_takes), N), unshifted_cut[1])
    for n in range(min(N, unshifted_spent)):
        walk[n] = head[n]
        for s, shifted in enumerate(shifted_takes):
            walk[n + 1 :: N] = shifted[:, n]
            np.subtract.accumulate(walk[n:stop], out=remaining[n:stop])
            end = stop
            if end < walk.size and remaining[end - 1] > 0.0:
                kept = walk[end - 1]
                walk[end - 1] = remaining[end - 1]
                np.subtract.accumulate(walk[end - 1 :], out=remaining[end - 1 :])
                walk[end - 1] = kept
                end = walk.size
            spent = n + int(np.count_nonzero(remaining[n:end] > 0.0))
            segment[s, n], leftover[s, n] = _cut(remaining, spent)
        walk[n + 1 :: N] = takes[:, n]
    return segment, leftover


def shifted_allocations(problem, step, own_only=False):
    """`solve_greedy` allocations with one facility's demand shifted by +-step.

    Returns (up, down). Column n of `up` is the allocation after adding
    `step` to every sample of facility n; column n of `down` after
    subtracting it, clipped at zero. With `own_only`, entry n is facility
    n's own allocation there. The result is bit for bit that of solving
    the 2N shifted problems, from one sort: both shifts are monotone, so
    the sorted shifted column is the shifted sorted column, and every
    other column keeps its segments and level sums. Only the
    remaining-budget walk is redone (`_shifted_cuts`).
    """
    sorted_samples = np.sort(problem.samples, axis=0)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(sorted_samples[-1] + step)):
            raise ValueError("shifted samples must be finite")
    takes = _segments(sorted_samples)
    shifted_takes = (
        _segments(sorted_samples + step),
        _segments(np.maximum(sorted_samples - step, 0.0)),
    )
    segment, leftover = _shifted_cuts(problem.budget, takes, shifted_takes)
    facilities = np.arange(takes.shape[1])
    own = [
        _allocation_at(_level_sums(t), facilities, segment[s], leftover[s])
        for s, t in enumerate(shifted_takes)
    ]
    if own_only:
        return own[0], own[1]
    sums = _level_sums(takes)
    columns = []
    for s in range(2):
        a = _allocation_at(sums, facilities[:, None], segment[s], leftover[s])
        a[facilities, facilities] = own[s]
        columns.append(a)
    return columns[0], columns[1]


def solve_lp(problem):
    """Solve the explicit allocation LP with the built-in dense simplex.

    Variables are (a, c, s) with one surplus s per scenario constraint
    a_n + c_kn - s_kn = xi_kn plus a slack row sum(a) + t = budget. Meant
    as an audit path and correctness oracle for `solve_greedy`; cost grows
    quickly with N*K. The returned allocation is clipped to each
    facility's largest sample, which never changes the objective but
    keeps the result unique where the LP optimum is not.
    """
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

    x, _ = _simplex.solve_standard_lp(cost, A, b, max_iter=20000)
    allocation = np.clip(x[:N], 0.0, samples.max(axis=0))
    return AllocationResult(
        allocation=allocation,
        objective=saa_objective(problem, allocation),
    )
