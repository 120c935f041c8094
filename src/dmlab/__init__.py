"""dmlab: measure how well random linear maps embed Euclidean balls into convex-body norms.

The library samples random matrix ensembles (single and two-factor products),
evaluates convex-body norms on random subspaces, and checks the spectral /
sparse-support events that govern when an ensemble embeds the Euclidean ball
with bounded distortion.
"""

from dmlab.bodies import (
    LpBall,
    critical_dimension,
    diagonal_image,
    dual_norm_sup,
    mean_width,
    mean_width_auto,
    norm_many,
    polar_polytope,
)
from dmlab.ensembles import marginal_diagnostics, product_spec, sample_matrix, sample_product
from dmlab.nets import build_sphere_net, sphere_cover
from dmlab.processes import (
    bernoulli_gaussian_ratio,
    bernoulli_lp,
    concentration_check,
    emp_sup,
    gamma2_upper,
    index_set,
    sudakov_lower,
)
from dmlab.events import check_event_A, singular_extremes, sparse_profile, sparse_supremum
from dmlab.distortion import adversarial_linf_witness, measure_distortion
from dmlab.params import solve_parameters
from dmlab.runner import emit_plot_data, run_experiment

__version__ = "0.1.0"
