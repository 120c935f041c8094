"""Solving the embedding parameter constraints.

Given the net separation rho and the moment order q of the column law, the
solver returns the sparsity fraction theta, the sparse-norm budget delta,
the sample count m and the subspace dimension d that make the event checks
and the net argument consistent.  theta collapses quickly as rho shrinks
(the log(5/rho) factor), which is why desk-scale runs operate in the regime
where floor(theta m) is 0 or 1.  theta comes in closed form from the Lambert W
function, so even the q = 3 roots, near 1e-13, print as the true roots.
"""

from dmlab import solve_parameters
from dmlab.params import SolverConstants, constraints_satisfied

print(f"{'rho':>6} {'q':>4} {'theta':>11} {'delta':>8} {'d':>6} {'m':>8} {'feasible':>9}")
for rho in (0.25, 0.1, 0.05):
    for q in (3.0, 6.0, 12.0):
        sol = solve_parameters(rho, q, d_star=1000.0, n=4096)
        print(f"{rho:>6} {q:>4} {sol.theta:>11.3e} {sol.delta:>8.4f} "
              f"{sol.d:>6} {sol.m:>8} {str(sol.feasible):>9}")

print("\nlarger structural constants buy a usable subspace dimension:")
consts = SolverConstants(c0=1.0, c1=1.0, c2=4.0, c3=500.0)
for rho in (0.25, 0.1):
    sol = solve_parameters(rho, 6.0, d_star=1000.0, n=4096, constants=consts)
    print(f"  rho={rho}: theta={sol.theta:.3e} delta={sol.delta:.4f} "
          f"d={sol.d} m={sol.m} feasible={sol.feasible} "
          f"roundtrip={constraints_satisfied(sol)}")
