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

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
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
        low, high = float(samples.min()), float(samples.max())  # NaN if any is NaN
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("samples must be finite")
        if low < 0:
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
    """Optimal allocation of `problem`, its mean shortfall, and the fill order.

    `objective` is `saa_objective` of the allocation, derived on first read.
    `fill_trace` is a sequence of `FillStep`s; for `solve_greedy` it is a
    `FillTrace`, which builds the steps only when they are read.
    """

    allocation: np.ndarray
    problem: AllocationProblem = field(repr=False, compare=False)
    fill_trace: Sequence = ()

    @cached_property
    def objective(self):
        return saa_objective(self.problem, self.allocation)

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
    shortfall = np.subtract(problem.samples, a[None, :])
    return float(np.maximum(shortfall, 0.0, out=shortfall).sum() / problem.n_samples)


def _segments(sorted_samples):
    """Segment lengths: each sorted sample minus the one below it, the
    lowest minus zero."""
    takes = np.empty(sorted_samples.shape)
    takes[0] = sorted_samples[0]
    np.subtract(sorted_samples[1:], sorted_samples[:-1], out=takes[1:])
    return takes


def _level_sums(takes, top):
    """Row j holds each facility's first j segments, summed in level order
    (row 0 is zero), for every row that `_allocation_at` reads at cuts up
    to segment `top`: up to the level of `top` plus one. The rows are
    those of summing all K levels."""
    K, N = takes.shape
    levels = min(int(top) // N + 1, K)
    sums = np.zeros((levels + 1, N))
    np.cumsum(takes[:levels], axis=0, out=sums[1:])
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


def _budget_left(budget, takes):
    """The budget left after each level-major segment, the budget itself
    first: the same floats as spending it one segment at a time. The walk
    runs in place in one level-major array of K N + 1 floats over every
    segment, past the cut too: the finite-difference cuts
    (`_shifted_cuts`, `_certified_cuts`) read entries on both sides of it.
    `_greedy_cut` walks only up to the cut."""
    left = np.empty(takes.size + 1)
    left[0] = budget
    left[1:] = takes.ravel()
    return np.subtract.accumulate(left, out=left)


def _greedy_cut(budget, takes):
    """The cut (`_cut`) of the walk `_budget_left` makes, walked only until
    the budget runs out.

    The walk goes in blocks of whole levels: the first is one level, each
    later one as long as all before it together, and it stops after the
    first block whose last entry is <= 0 (the walk never increases). Each
    block goes on from the last entry of the one before, and
    `np.subtract.accumulate` subtracts one segment at a time, so every
    entry is the float of the full walk. A cut at level j walks fewer than
    2 (j + 1) levels.
    """
    flat = takes.ravel()
    left = np.empty(flat.size + 1)
    left[0] = budget
    start, stop = 0, takes.shape[1]
    while True:
        left[start + 1 : stop + 1] = flat[start:stop]
        np.subtract.accumulate(left[start : stop + 1], out=left[start : stop + 1])
        if left[stop] <= 0.0 or stop == flat.size:
            break
        start, stop = stop, min(2 * stop, flat.size)
    remaining = left[: stop + 1]
    return _cut(remaining, int(np.count_nonzero(remaining > 0.0)))


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
    budget is walked segment by segment in one level-major buffer, in
    blocks of levels, and only until it runs out (`_greedy_cut`): a cut at
    level j walks fewer than 2 (j + 1) of the K levels, with the floats of
    walking them all. The allocation then sums each facility's segments in
    level order only up to the cut level plus one (`_level_sums`), the
    same floats as summing all K levels. The sort dominates the cost; the
    rest is a few vector passes. The objective is computed only when read.
    """
    samples = problem.samples
    N = samples.shape[1]
    sorted_samples = np.sort(samples, axis=0)
    takes = _segments(sorted_samples)
    segment, leftover = _greedy_cut(problem.budget, takes)
    allocation = _allocation_at(_level_sums(takes, segment), np.arange(N), segment, leftover)
    return AllocationResult(
        allocation=allocation,
        problem=problem,
        fill_trace=FillTrace(sorted_samples, takes, segment, leftover),
    )


# Levels around the unshifted cut that a shifted problem's cut is looked
# for in: `_certified_cuts` searches them, and a walk of `_shifted_cuts`
# covers them before it checks whether the budget has run out (if not, it
# goes on to the end). A finite-difference step moves the cut by well under
# a level (no walk of the synth_linear_fd benchmark inputs went on), and
# each level walked costs N subtractions.
_SHIFT_WINDOW_LEVELS = 2


def _shifted_cuts(remaining, takes, shifted_takes, columns=None):
    """Cuts of the problems in which facility n's segments are those of
    `shifted_takes[s][:, n]`, as (segment, leftover) arrays of shape (S, N).

    `remaining` is the unshifted problem's budget walk (`_budget_left`),
    which this overwrites. Each (s, n) entry that the boolean (S, N) array
    `columns` marks, every entry by default, is an exact walk of the
    shifted budget; the others keep the unshifted cut. One buffer holds
    the budget and the level-major segments and is walked again for each
    shifted problem. The entries of a walk before facility n's first
    segment are those of the unshifted walk, so it starts there. It stops
    a few levels past the unshifted cut and goes on to the end only if the
    budget has not run out by then; either way the floats are those of a
    walk over the whole shifted problem.
    """
    S, N = len(shifted_takes), takes.shape[1]
    walk = np.concatenate((remaining[:1], takes.ravel()))
    unshifted_spent = int(np.count_nonzero(remaining > 0.0))
    unshifted_cut = _cut(remaining, unshifted_spent)
    head = remaining[:N].copy()
    stop = min(walk.size, unshifted_spent + _SHIFT_WINDOW_LEVELS * N)
    if columns is None:
        columns = np.ones((S, N), dtype=bool)
    marks = columns.T.tolist()

    # Facilities from unshifted_spent on take nothing before the budget
    # runs out, so their shifts keep the unshifted cut.
    segment = np.full((S, N), unshifted_cut[0])
    leftover = np.full((S, N), unshifted_cut[1])
    for n in np.flatnonzero(columns[:, :unshifted_spent].any(axis=0)).tolist():
        walk[n] = head[n]
        for s, marked in enumerate(marks[n]):
            if not marked:
                continue
            walk[n + 1 :: N] = shifted_takes[s][:, n]
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


def _certified_cuts(budget, sorted_samples, shifts, takes, shifted_takes):
    """The shifted cuts of `_shifted_cuts` as far as facility n's own
    allocation needs them: (segment, leftover) arrays of shape (S, N), the
    leftover exact wherever the own allocation reads it. `shifts[s]` maps
    sorted samples to those whose segments are `shifted_takes[s]`. The
    budget is walked once (`_budget_left`); each cut is read off that walk
    where rounding cannot change it, and only the other entries are walked
    again (`_shifted_cuts`).

    Shifting facility n changes only its own segments, so the shifted
    walk's budget left after walk entry p is about `remaining[p] - D_n`,
    D_n being the running sum of facility n's segment changes (shifted
    minus unshifted) over its c segments at or before p. A sorted column's
    segments telescope, so D_n is computed as the change of its c-th
    sorted sample. How far off: let u = 2**-53,
    gamma_k = k u / (1 - k u), M = K N, and S, S' the budget plus the sum
    of the unshifted and of the shifted segments (they are nonnegative, so
    these are the absolute sums). After m additions a recursive sum is
    within gamma_m times the sum of its absolute terms of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 4.2). So `remaining[p]` is within gamma_M S of the exact
    budget left, and the shifted walk's float within gamma_M S'. Each
    segment is the difference of two sorted samples rounded once, so a
    column's first c segments sum to its c-th sorted sample within gamma_1
    times their absolute sum; with the change of the sample rounded once
    more, D_n is within gamma_2 (S + S') of the exact change. The last
    subtraction rounds by at most u (|remaining[p]| + |D_n|)
    <= 2u (1 + gamma_M) (S + S') <= (gamma_(M+2) - gamma_M) (S + S'). As
    gamma_a + gamma_b <= gamma_(a+b), the approximation is within
    gamma_(M+4) (S + S') of the shifted walk's float. The margin
    gamma_(2M+2K+4) (S + S') is more than that by a factor of at least
    1.6, which covers the rounding of the margin itself: when S + S' is
    below 2**-1022 every sum here is exact, and otherwise the margin is at
    least four units in the last subnormal place, so that its product
    rounds by at most an eighth.

    An approximation above the margin is surely positive in the shifted
    walk, one below -margin surely not. The walk never increases, so a
    sure positive entry directly followed by a sure nonpositive one is the
    cut; so is a sure positive last entry (the budget never runs out).
    The candidate is the first entry in `_SHIFT_WINDOW_LEVELS` levels
    around the unshifted cut whose approximation is <= 0: D_n is constant
    between two of facility n's segments, and fl(r - d) <= 0 exactly when
    r <= d, so one `np.searchsorted` of the window finds it. The own
    allocation needs the leftover only when facility n binds the cut;
    those entries, and those not certified, are walked. Facilities from
    the unshifted cut's spent index on keep the unshifted cut exactly. A
    scale S + S' within a factor two of overflow certifies nothing.
    Temporaries are a few arrays of the window's levels by N.
    """
    K, N = takes.shape
    M = K * N
    remaining = _budget_left(budget, takes)
    spent = int(np.count_nonzero(remaining > 0.0))
    cut = _cut(remaining, spent)
    shape = (len(shifted_takes), N)
    segment, leftover = np.full(shape, cut[0]), np.full(shape, cut[1])
    uncertain = np.zeros(shape, dtype=bool)
    facilities = np.arange(min(N, spent))
    if not facilities.size:
        return segment, leftover

    # Run c of facility n: the walk entries from its c-th segment up to the
    # one before its (c+1)-th, over which D_n sums its first c changes.
    level = spent // N
    runs = np.arange(max(0, level - _SHIFT_WINDOW_LEVELS),
                     min(K, level + _SHIFT_WINDOW_LEVELS) + 1)[:, None]
    starts = np.maximum((runs - 1) * N + facilities + 1, 0)
    ends = np.minimum(runs * N + facilities, M)
    lo = int(starts.min())
    window = -remaining[lo : int(ends.max()) + 1]  # nondecreasing

    k = 2 * M + 2 * K + 4
    u = np.finfo(float).eps / 2
    gamma = k * u / (1.0 - k * u)
    with np.errstate(over="ignore"):
        unshifted_scale = float(remaining[0]) + float(takes.sum())
        scales = [unshifted_scale + float(remaining[0]) + float(t.sum()) for t in shifted_takes]
    for s, (shift, scale) in enumerate(zip(shifts, scales)):
        if not np.isfinite(2.0 * scale):
            uncertain[s, facilities] = True
            continue
        margin = gamma * scale

        def change(c):
            x = sorted_samples[np.maximum(c - 1, 0), facilities]
            return np.where(c > 0, shift(x) - x, 0.0)

        def approximation(p):
            return remaining[p] - change((p - 1 - facilities) // N + 1)

        first = lo + np.searchsorted(window, -change(runs))
        cut_at = np.where(first <= ends, np.maximum(first, starts), M + 1).min(axis=0)
        found = cut_at <= M
        sure = (approximation(cut_at - 1) > margin) & np.where(
            found, approximation(np.minimum(cut_at, M)) < -margin, True)
        segment[s, facilities] = cut_at - 1
        leftover[s, facilities] = 0.0
        uncertain[s, facilities] = ~sure | (found & ((cut_at - 1) % N == facilities))
    if uncertain.any():
        walked = _shifted_cuts(remaining, takes, shifted_takes, uncertain)
        segment = np.where(uncertain, walked[0], segment)
        leftover = np.where(uncertain, walked[1], leftover)
    return segment, leftover


def shifted_allocations(problem, step, own_only=False):
    """`solve_greedy` allocations with one facility's demand shifted by +-step.

    Returns (up, down). Column n of `up` is the allocation after adding
    `step` to every sample of facility n; column n of `down` after
    subtracting it, clipped at zero. With `own_only`, entry n is facility
    n's own allocation there. The result is bit for bit that of solving
    the 2N shifted problems, from one sort: both shifts are monotone, so
    the sorted shifted column is the shifted sorted column, and every
    other column keeps its segments and level sums. The unshifted budget
    is walked once. Full columns need every shifted cut's exact leftover,
    so each of the 2N problems is walked again (`_shifted_cuts`). An own
    allocation needs only the position of its cut unless the facility
    binds it; `_certified_cuts` reads those positions off the unshifted
    walk with a rounding margin, and only the entries it cannot settle
    are walked. The allocations sum segments in level order only up to
    the highest cut level they read plus one (`_level_sums`).
    """
    sorted_samples = np.sort(problem.samples, axis=0)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(sorted_samples[-1] + step)):
            raise ValueError("shifted samples must be finite")
    shifts = (lambda x: x + step, lambda x: np.maximum(x - step, 0.0))
    takes = _segments(sorted_samples)
    shifted_takes = tuple(_segments(shift(sorted_samples)) for shift in shifts)
    if own_only:
        segment, leftover = _certified_cuts(
            problem.budget, sorted_samples, shifts, takes, shifted_takes)
    else:
        segment, leftover = _shifted_cuts(
            _budget_left(problem.budget, takes), takes, shifted_takes)
    facilities = np.arange(takes.shape[1])
    own = [
        _allocation_at(_level_sums(t, segment[s].max()), facilities, segment[s], leftover[s])
        for s, t in enumerate(shifted_takes)
    ]
    if own_only:
        return own[0], own[1]
    sums = _level_sums(takes, segment.max())
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
    return AllocationResult(allocation=allocation, problem=problem)
