"""Finding the next diagonal perturbation on a log-det barrier.

A relaxation solution leaves slacks eta_i = y_i - x_i**2.  The most
useful new perturbation d minimizes eta'd over all d that keep
B + diag(d) positive semidefinite, where B = Q + alpha A'A is the
penalty form the caller builds from the objective and the equality rows.
A log-det barrier keeps the iterates inside that set.  The smooth solver adds a quadratic
regularizer (grown on restarts), which guarantees the minimum is attained
even when the unregularized problem drifts to infinity; the nonsmooth
solver penalizes the positive part of d instead.  Both minimize by damped
Newton steps: the nonsmooth one sees each max(d_i, 0) through its barrier
epigraph, a smooth function that tends to the penalty as the barrier
weight falls.  The barrier weight sigma falls tenfold per centred level,
and a run stops once the central-path gap (sigma times the number of log
terms) is 1e-4 of the objective.
"""

import numpy as np

from quadrelax import SeparationConfig, solve_smooth
from quadrelax.separation import solve_nonsmooth

Q = np.array([[0.0, 2.0], [2.0, -1.0]])
A = np.array([[0.0, 1.0]])
B = Q + 1.0 * A.T @ A   # alpha = 1

# Here the admissible set is d1 >= 0, d2 >= 0, d1*d2 >= 4.  With equal
# slacks the symmetric boundary point (2, 2) is optimal.  Newton ends at
# d = (2.0001, 2.0001) after 27 steps.
eta = np.array([0.25, 0.25])
res = solve_smooth(B, eta, SeparationConfig(rho0=1e-4))
print(f"equal slacks:   d = ({res.d[0]:.4f}, {res.d[1]:.4f})"
      f"   eta.d = {res.d @ eta:.4f}")
print(f"  status {res.status}, {res.iterations} Newton steps, "
      f"{res.restarts} restarts")

# With eta = (0.24, 0) the second coordinate is free to grow without
# changing the objective, so the unregularized minimum is not attained.
# A tiny initial regularizer lets d2 blow up; the restart rule detects
# that and re-runs with a stronger one.
res = solve_smooth(B, np.array([0.24, 0.0]), SeparationConfig(rho0=1e-8))
print()
print(f"degenerate direction: d = ({res.d[0]:.4f}, {res.d[1]:.4f})")
print(f"  d1*d2 = {res.d[0] * res.d[1]:.6f} (boundary is 4)")
print(f"  restarts = {res.restarts}, final regularizer = {res.rho:.1e}")

# The nonsmooth variant penalizes only the positive part of d, which
# tends to pull the perturbation toward zero from above.  Here it ends at
# d = (2.0000, 2.0000) after 33 steps.
res = solve_nonsmooth(B, eta, SeparationConfig())
print()
print(f"positive-part penalty: d = ({res.d[0]:.4f}, {res.d[1]:.4f}), "
      f"status {res.status}, {res.iterations} Newton steps")
