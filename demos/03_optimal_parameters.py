"""Rate-optimal parameters on a nearly periodic network.

A ring with weak self-loops has essential spectral radius close to 1, so
plain DeGroot averaging is slow. Both memory models can do better. The
optimal memory weight gamma* makes the slowest eigenvalue pair critically
damped. Where the smallest eigenvalue carries rho and the second is at
most a third of its magnitude, as on this ring, the resulting MLA rate
has the closed form sqrt(1 + rho) - 1, which beats the best
accelerated-averaging rate rho / (1 + sqrt(1 - rho^2)) for every rho in
(0, 1). Elsewhere the ordering can fail: on the pure 9-agent ring beta*
beats gamma*. `summary` reports both optima and whether the ordering
MLA < accelerated < DeGroot holds.
"""

import numpy as np

from consensuslab import (
    ModelParams,
    consensus_value,
    eigendecompose_symmetric,
    fit_rate,
    make_ring,
    simulate_trajectory,
    summary,
)

A = make_ring(4, 0.1)
spec = eigendecompose_symmetric(A)
s = summary(spec)
print("spectrum:", np.round(spec.eigenvalues, 12))
print(f"rho_ess(A) = {s.rho_ess:.12f}  (DeGroot rate)")
print(f"\ngamma* = {s.gamma_star:.12f}  ->  MLA rate {s.mla_rate:.12f}")
print(f"beta*  = {s.beta_star:.12f}  ->  accelerated rate {s.accelerated_rate:.12f}")
print(f"ordering MLA < accelerated < DeGroot holds: {s.rate_chain_ok}")
ring9 = summary(eigendecompose_symmetric(make_ring(9)))
print(
    f"on the pure 9-agent ring: MLA {ring9.mla_rate:.4f}, accelerated "
    f"{ring9.accelerated_rate:.4f}, ordering holds: {ring9.rate_chain_ok}"
)

# The theoretical rates show up in actual trajectories. Fit the decay of
# the distance to consensus over a window that skips the transient.
rng = np.random.Generator(np.random.Philox(key=12345))
x0 = rng.uniform(0.0, 1.0, 4)
fit_mla = fit_rate(A, ModelParams.mla(s.gamma_star), x0, 180)
fit_dg = fit_rate(A, ModelParams.degroot(), x0, 100)
print(f"\nfitted MLA rate:     {fit_mla.fitted_rate:.5f} (theory {s.mla_rate:.5f})")
print(f"fitted DeGroot rate: {fit_dg.fitted_rate:.5f} (theory {s.rho_ess:.5f})")

# And every convergent run lands on the mean of the initial states.
want = consensus_value(A, spec, x0)
traj = simulate_trajectory(A, ModelParams.mla(s.gamma_star), x0, 120)
print(f"\npredicted consensus {want:.12f}, simulated {traj[-1][0]:.12f}")
