"""Wasserstein distances on empirical measures.

Exact solvers (assignment for uniform supports, an LP for general
weights), the Gaussian closed form, and block estimates for larger samples.
"""

import numpy as np

from ctlab import (
    EmpiricalMeasure,
    Euclidean,
    PthPowerDistance,
    block_cost_estimate,
    exact_cost,
    gaussian_w2,
    wasserstein,
)

rng = np.random.default_rng(2)
flat = Euclidean(2)

mu = EmpiricalMeasure.uniform(rng.normal(size=(50, 2)))
nu = EmpiricalMeasure.uniform(rng.normal(size=(50, 2)) + np.array([1.0, 0.0]))

exact, plan = exact_cost(flat, mu, nu, PthPowerDistance(2.0))
print(f"exact W2^2           = {exact:.6f}  (W2 = {exact ** 0.5:.6f})")

weighted = EmpiricalMeasure(points=mu.points, weights=np.random.default_rng(3).dirichlet(np.ones(mu.size)))
lp_value, lp_plan = exact_cost(flat, weighted, nu, PthPowerDistance(2.0))
print(f"weighted source (LP) = {lp_value:.6f}  "
      f"({np.count_nonzero(lp_plan.matrix > 1e-12)} plan entries above 1e-12)")

print(f"W1 <= W2 <= W3: "
      f"{wasserstein(flat, mu, nu, 1.0):.4f} <= "
      f"{wasserstein(flat, mu, nu, 2.0):.4f} <= "
      f"{wasserstein(flat, mu, nu, 3.0):.4f}")

# sample-based estimate against the Gaussian closed form
n = 4000
xs = rng.normal(scale=np.sqrt(2 * 0.25), size=(n, 2))
ys = rng.normal(scale=np.sqrt(2 * 1.0), size=(n, 2)) + np.array([1.0, 0.0])
est = block_cost_estimate(flat, xs, ys, PthPowerDistance(2.0), block_size=1000, seed=3)
oracle = gaussian_w2(2, [0.0, 0.0], [1.0, 0.0], 0.25, 1.0) ** 2
print(f"\nblock estimate of W2^2 between heat samples: "
      f"{est.value:.4f} +- {est.stderr:.4f}   (Gaussian closed form {oracle:.4f})")
