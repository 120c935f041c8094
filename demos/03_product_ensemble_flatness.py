"""The two-factor product construction repairs the cube counterexample.

Multiplying two independent sign-symmetric factors, an m x n one (rows
Z_i / sqrt(m)) and a d x m one (columns X_i), mixes every direction of the
sphere through the intermediate dimension m: the marginals of the assembled
map are near-gaussian in every direction at once, so the sup/inf ratio on
the cube stays flat as n grows, while the single-matrix ratio keeps the
sqrt(d) defect.  Heavier-tailed column factors work too.
"""

import math

import numpy as np

from dmlab import LpBall, measure_distortion, product_spec, sample_product
from dmlab.ensembles import EnsembleSpec, sample_matrix
from dmlab.seeding import child_seed

seeds = range(12)
print(f"{'n':>6} {'d':>3} {'m':>6} {'product ratio':>14} {'single ratio':>13}")
for n in (128, 512, 2048):
    d = int(2 * math.log(n))
    m = 2 * n
    body = LpBall(math.inf, n)
    prod_r, single_r = [], []
    for s in seeds:
        ps = product_spec("UniformPM1", "UniformPM1", n=n, d=d, m=m)
        gamma, _ = sample_product(ps, child_seed(1, s))
        rep = measure_distortion(body, gamma, "exactRowNorm", starts=48,
                                 seed=child_seed(2, s))
        prod_r.append(rep.ratio)
        M = sample_matrix(EnsembleSpec("UniformPM1", n, d), child_seed(3, s))
        rep = measure_distortion(body, M, "exactRowNorm", starts=48,
                                 seed=child_seed(4, s))
        single_r.append(rep.ratio)
    print(f"{n:>6} {d:>3} {m:>6} {np.median(prod_r):>14.3f} {np.median(single_r):>13.3f}")

print("\nother column laws in the product (n = 512):")
n, m = 512, 1024
d = int(2 * math.log(n))
body = LpBall(math.inf, n)
for col in ("UniformPM1", "LogConcaveSimplex", "HeavyTailedBounded"):
    rats = []
    for s in seeds:
        ps = product_spec("UniformIsotropic", col, n=n, d=d, m=m)
        gamma, _ = sample_product(ps, child_seed(5, s))
        rep = measure_distortion(body, gamma, "exactRowNorm", starts=48,
                                 seed=child_seed(6, s))
        rats.append(rep.ratio)
    print(f"  columns {col:<18} median sup/inf = {np.median(rats):.3f}")
