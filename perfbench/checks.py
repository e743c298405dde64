"""Correctness checks on the outputs of one `compare` call.

Every function returns a list of failure messages; an empty list means
the call passed. The benchmark counts a call as failed when it raised or
when any message comes back.
"""

from collections import Counter

import numpy as np

from stockalloc.pipeline import POLICY_ORDER

REL_TOL = 1e-9
LP_REL_TOL = 1e-6


def check_allocations(outcomes):
    """Every policy's allocation is nonnegative and within its budget."""
    failures = []
    for name in POLICY_ORDER:
        for product, entry in outcomes[name].per_product.items():
            a = np.asarray(entry["allocation"], dtype=float)
            budget = entry["budget"]
            if np.any(a < 0):
                failures.append(f"{name}/{product}: negative allocation {a.min()!r}")
            if a.sum() > budget * (1 + REL_TOL) + REL_TOL:
                failures.append(f"{name}/{product}: allocated {a.sum()!r} over budget {budget!r}")
    return failures


def check_oracle(report, budget_fraction):
    """The oracle leaves exactly 100*(1 - fraction)% unmet, no policy does better."""
    failures = []
    expected = 100.0 * (1.0 - budget_fraction)
    for product, entry in report["products"].items():
        pct = {n: entry["policies"][n]["unmet_demand_pct"] for n in POLICY_ORDER}
        if pct["oracle"] is None:
            continue
        if abs(pct["oracle"] - expected) > REL_TOL * 100.0:
            failures.append(f"oracle/{product}: unmet {pct['oracle']!r}, expected {expected!r}")
        for name, value in pct.items():
            if value is not None and value < pct["oracle"] - REL_TOL * 100.0:
                failures.append(f"{name}/{product}: unmet {value!r} below the oracle")
    return failures


def check_ingest(prepared, expected):
    """Rejects, exclusions by reason and table rows equal the generator's counts."""
    got = Counter(e.reason for e in prepared.exclusions)
    pairs = [("rejected", len(prepared.rejects)), ("rows", len(prepared.table))]
    pairs += [(reason, got.get(reason, 0)) for reason in ("unbalanced", "all_zero", "outlier")]
    return [f"ingest {key}: got {value}, generator injected {expected[key]}"
            for key, value in pairs if value != expected[key]]


def check_call(instance, result):
    """All per-call checks on `compare`'s (report, outcomes, weights, prepared)."""
    report, outcomes, _, prepared = result
    failures = check_allocations(outcomes)
    failures += check_oracle(report, instance.config.resolved_budget_fraction())
    if instance.expected_ingest is not None:
        failures += check_ingest(prepared, instance.expected_ingest)
    return failures


def lp_objective(problem):
    """Optimal mean shortfall of an allocation problem, by scipy's HiGHS.

    Variables (a, c) with c_kn >= xi_kn - a_n, sum(a) <= budget, a, c >= 0;
    minimize sum(c) / K. scipy is imported here, so that only the traced
    run, which alone calls this, loads it.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, hstack, identity, vstack

    K, N = problem.samples.shape
    a_block = coo_matrix(np.tile(-np.eye(N), (K, 1)))
    scenario_rows = hstack([a_block, -identity(K * N)])
    budget_row = hstack([coo_matrix(np.ones((1, N))), coo_matrix((1, K * N))])
    A = vstack([scenario_rows, budget_row]).tocsr()
    b = np.concatenate([-problem.samples.ravel(), [problem.budget]])
    cost = np.concatenate([np.zeros(N), np.full(K * N, 1.0 / K)])
    res = linprog(cost, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_lp(sampled):
    """Sampled solver allocations are feasible and optimal against HiGHS.

    `sampled` holds (problem, allocation) pairs. Each allocation must be
    nonnegative, within the budget (1e-9 relative), and its mean
    shortfall over the problem's samples must equal the LP optimum
    (1e-6 relative, absolute below 1).
    """
    failures = []
    for problem, a in sampled:
        if np.any(a < 0):
            failures.append(f"sampled solve: negative allocation {a.min()!r}")
        if a.sum() > problem.budget * (1 + REL_TOL) + REL_TOL:
            failures.append(f"sampled solve: allocated {a.sum()!r} over budget {problem.budget!r}")
        shortfall = float(np.maximum(problem.samples - a[None, :], 0.0).sum() / len(problem.samples))
        lp = lp_objective(problem)
        if abs(shortfall - lp) > LP_REL_TOL * max(1.0, abs(lp)):
            failures.append(f"sampled solve: mean shortfall {shortfall!r} vs HiGHS optimum {lp!r}")
    return failures
