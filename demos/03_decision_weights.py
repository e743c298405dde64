# Decision weights: what the allocation problem thinks of each row
# ------------------------------------------------------------------
# A first-order expansion of the decision loss around the current forecast
# says: rows whose facilities the optimizer already covers contribute
# nothing to decision quality; rows with unmet demand carry weight. The
# weight of row n is |(J^T g)_n| with g the shortfall subgradient at the
# reference allocation and J the allocation's sensitivity to demand.

import numpy as np

from stockalloc import (
    AllocationProblem,
    WeightConfig,
    loss_gradient,
    policy_jacobian,
    solve_greedy,
)

# Reference problem: four facilities, five scenario samples each.
rng = np.random.default_rng(3)
point = np.array([20.0, 6.0, 14.0, 2.0])
samples = np.clip(point[None, :] + rng.normal(0, 2.0, size=(5, 4)), 0, None)
budget = 30.0
problem = AllocationProblem(samples, budget)

a_star = solve_greedy(problem).allocation
print("reference allocation:", a_star.round(2))

# Realized demand: facility 0 needs more than it got, facility 3 nothing.
realized = np.array([24.0, 5.0, 12.0, 0.0])
g = loss_gradient(a_star, realized)
print("shortfall subgradient:", g, " (-1 marks unmet demand)")

# Identity Jacobian: the weight is just |g|.
cfg = WeightConfig(jacobian_mode="identity", weight_floor=0.05)
J = policy_jacobian(problem, cfg)
w = np.maximum(np.abs(J.T @ g), cfg.weight_floor)
print("weights (identity J):", w)

# Finite-difference Jacobian: how the optimal allocation responds when a
# facility's whole demand distribution shifts. Facilities pinned at zero
# allocation or past their budget share show zero sensitivity.
fd = WeightConfig(jacobian_mode="full_fd", fd_step=0.1)
J_fd = policy_jacobian(problem, fd)
print("\nfull finite-difference Jacobian (rows: d a_i / d xi_j):")
print(np.round(J_fd, 2))
w_fd = np.maximum(np.abs(J_fd.T @ g), fd.weight_floor)
print("weights (fd J):      ", w_fd.round(3))

# Closed-form sanity: one facility, slack budget -> derivative 1;
# binding budget -> derivative 0.
slack = policy_jacobian(
    AllocationProblem(np.array([[5.0]]), 10.0), WeightConfig("diagonal_fd", fd_step=0.05)
)[0, 0]
binding = policy_jacobian(
    AllocationProblem(np.array([[5.0]]), 3.0), WeightConfig("diagonal_fd", fd_step=0.05)
)[0, 0]
print("\nclosed-form check: slack", round(slack, 6), "| binding", round(binding, 6))
