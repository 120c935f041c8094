"""Process toolkit: suprema, chaining bounds, Lp surrogates, concentration.

For a finite set V the expected gaussian supremum is sandwiched between a
packing-based lower bound and a chaining upper bound built from an
admissible sequence; Bernoulli suprema track their gaussian counterparts up
to a log factor and concentrate with gaussian-shape tails.  All four
estimates are computed side by side on random index sets.
"""

import math

import numpy as np

from dmlab import (
    bernoulli_gaussian_ratio,
    bernoulli_lp,
    concentration_check,
    emp_sup,
    gamma2_upper,
    index_set,
    sudakov_lower,
)
from dmlab.calibration import C_CHAIN

print("=== sandwich on random 32-point sets in R^8 ===")
print(f"{'seed':>4} {'sudakov':>8} {'E sup (MC)':>12} {'gamma2 upper':>13} {'sandwich ok':>12}")
for s in range(6):
    T = index_set(np.random.default_rng(s).standard_normal((32, 8)))
    est = emp_sup("gaussian", T, trials=5000, seed=s)
    lo = sudakov_lower(T)
    hi, _ = gamma2_upper(T)
    ok = lo <= est.value + 4 * est.stderr and est.value <= C_CHAIN * hi
    print(f"{s:>4} {lo:>8.3f} {est.value:>9.3f} +- {est.stderr:.3f} "
          f"{hi:>10.3f} {str(ok):>12}")

print("\n=== Bernoulli Lp surrogate vs exact enumeration (ell = 12) ===")
rng = np.random.default_rng(3)
a = rng.standard_normal(12)
signs = 1.0 - 2.0 * ((np.arange(2**12)[:, None] >> np.arange(12)) & 1)
forms = np.abs(signs @ a)
print(f"{'p':>3} {'surrogate':>10} {'exact Lp':>9} {'ratio':>6}")
for p in (1, 2, 4, 6, 8):
    exact = (forms**p).mean() ** (1 / p)
    sur = bernoulli_lp(a, p)
    print(f"{p:>3} {sur:>10.4f} {exact:>9.4f} {sur / exact:>6.3f}")

print("\n=== Bernoulli vs gaussian supremum ===")
print("cross-polytope vertices: the ratio decays like 1/sqrt(log ell)")
for ell in (8, 32, 128, 512):
    T = index_set(np.vstack([np.eye(ell), -np.eye(ell)]))
    r = bernoulli_gaussian_ratio(T, trials=20000, seed=4)
    print(f"  ell={ell:>4}  ratio = {r:.3f}   1/sqrt(log ell) = {1 / math.sqrt(math.log(ell)):.3f}")
print("spread vectors (all coordinates equal in size): no decay")
for ell in (8, 32, 128):
    signs16 = np.random.default_rng(5).integers(0, 2, (16, ell)) * 2 - 1
    T = index_set(signs16 / math.sqrt(ell))
    print(f"  ell={ell:>4}  ratio = {bernoulli_gaussian_ratio(T, trials=20000, seed=6):.3f}")

print("\n=== concentration of the Bernoulli supremum ===")
T = index_set(np.random.default_rng(7).standard_normal((32, 16)))
table = concentration_check(T, trials=20000, seed=8)
print(f"sigma* = {table.sigma_star:.3f}, mean sup = {table.sup_mean:.3f}")
print(f"{'x/sigma*':>9} {'empirical tail':>15} {'2 exp(-c x^2/sigma*^2)':>23}")
for x, emp, bnd in zip(table.x, table.empirical, table.bound):
    print(f"{x / table.sigma_star:>9.1f} {emp:>15.4f} {bnd:>23.4f}")
