"""Independent reference computations used to check the production code.

Everything here is deliberately written in the most transparent way
possible (loops, enumeration, dynamic programming) and shares no code
with the solvers under test.
"""

import itertools

import numpy as np


def shortfall_loops(a, xi):
    total = 0.0
    for an, xn in zip(a, xi):
        if xn > an:
            total += xn - an
    return total


def saa_loops(samples, a):
    return sum(shortfall_loops(a, xi) for xi in samples) / len(samples)


def facility_cost_curve(samples, n, cap):
    """Mean shortfall of facility n at every integer allocation 0..cap."""
    grid = np.arange(cap + 1)
    col = np.asarray(samples, dtype=float)[:, n]
    return np.maximum(col[:, None] - grid[None, :], 0.0).mean(axis=0)


def integer_grid_optimum(samples, budget):
    """Exact minimum of the mean shortfall over all integer allocations.

    Dynamic program over (facility, remaining budget); equivalent to an
    exhaustive scan of every integer allocation with sum <= budget, just
    organized so the scan finishes. Requires integer-valued samples and
    budget.
    """
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    budget = int(round(budget))
    caps = samples.max(axis=0).astype(int)

    best = np.zeros(budget + 1)  # no facilities yet: zero shortfall
    for n in range(N):
        curve = facility_cost_curve(samples, n, caps[n])
        new = np.full(budget + 1, np.inf)
        for b in range(budget + 1):
            top = min(caps[n], b)
            for a_n in range(top + 1):
                val = curve[a_n] + best[b - a_n]
                if val < new[b]:
                    new[b] = val
        best = new
    return float(best[budget])


def integer_grid_optimum_literal(samples, budget):
    """Same optimum by literally enumerating the integer lattice."""
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    budget = int(round(budget))
    caps = samples.max(axis=0).astype(int)
    best = np.inf
    for alloc in itertools.product(*(range(int(c) + 1) for c in caps)):
        if sum(alloc) > budget:
            continue
        best = min(best, saa_loops(samples, np.array(alloc, dtype=float)))
    return float(best)


def random_instance(rng, max_n=8, max_k=5, max_value=20):
    """Random integer-valued allocation instance for the solver suites."""
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    samples = rng.integers(0, max_value + 1, size=(k, n)).astype(float)
    cap_total = int(samples.max(axis=0).sum())
    budget = float(rng.integers(0, cap_total + 3))
    return samples, budget


def reference_greedy(samples, budget):
    """Water-filling one segment at a time: the reference greedy solver.

    Per facility the sorted samples cut the allocation axis into segments;
    the segment ending at the (j+1)-th smallest sample is worth (K - j)/K
    per unit. Segments are consumed in order of decreasing value, ties to
    the lower facility, then the lower start, until the budget is spent.
    Returns (allocation, mean shortfall, fill steps as dicts).
    """
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    sorted_samples = np.sort(samples, axis=0)

    # Segment bookkeeping in flat arrays: one candidate segment per
    # (facility, sample index); zero-length segments are dropped.
    starts = np.vstack([np.zeros((1, N)), sorted_samples[:-1, :]])
    ends = sorted_samples
    lengths = ends - starts
    values = ((K - np.arange(K, dtype=float)) / K)[:, None] * np.ones((1, N))
    facilities = np.broadcast_to(np.arange(N), (K, N))

    keep = lengths.ravel() > 0.0
    seg_fac = facilities.ravel()[keep]
    seg_start = starts.ravel()[keep]
    seg_end = ends.ravel()[keep]
    seg_len = lengths.ravel()[keep]
    seg_val = values.ravel()[keep]

    order = np.lexsort((seg_start, seg_fac, -seg_val))

    allocation = np.zeros(N)
    trace = []
    remaining = float(budget)
    for idx in order:
        if remaining <= 0.0:
            break
        take = min(seg_len[idx], remaining)
        fac = int(seg_fac[idx])
        allocation[fac] += take
        remaining -= take
        trace.append(
            {
                "facility": fac,
                "start": float(seg_start[idx]),
                "end": float(seg_start[idx] + take),
                "amount": float(take),
                "marginal_value": float(seg_val[idx]),
            }
        )
    objective = float(np.maximum(samples - allocation[None, :], 0.0).sum() / K)
    return allocation, objective, trace
