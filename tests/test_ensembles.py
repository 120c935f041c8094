import math

import numpy as np
import pytest

from dmlab.calibration import PAOURIS_C1
from dmlab.ensembles import (
    KINDS,
    EnsembleSpec,
    marginal_diagnostics,
    product_spec,
    sample_matrix,
    sample_product,
)

ISOTROPIC_KINDS = ("GaussianIID", "UniformIsotropic", "RademacherIID",
                   "LogConcaveSimplex", "HeavyTailedBounded")


@pytest.mark.parametrize("kind", KINDS)
def test_determinism(kind):
    spec = EnsembleSpec(kind, 8, 6)
    assert np.array_equal(sample_matrix(spec, 123), sample_matrix(spec, 123))
    assert not np.array_equal(sample_matrix(spec, 123), sample_matrix(spec, 124))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("NoSuchKind", 2, 2)
    with pytest.raises(ValueError):
        EnsembleSpec("GaussianIID", 0, 2)
    with pytest.raises(ValueError):
        EnsembleSpec("GaussianIID", 2, -1)
    with pytest.raises(ValueError):
        EnsembleSpec("GaussianIID", 2**20, 2**20)


def test_entry_ranges():
    u = sample_matrix(EnsembleSpec("UniformPM1", 30, 20), 0)
    assert np.all((u >= -1.0) & (u <= 1.0))
    r = sample_matrix(EnsembleSpec("RademacherIID", 30, 20), 0)
    assert set(np.unique(r)) == {-1.0, 1.0}
    ui = sample_matrix(EnsembleSpec("UniformIsotropic", 30, 20), 0)
    assert np.all(np.abs(ui) <= math.sqrt(3.0))


def test_heavy_tailed_radius_cap():
    spec = EnsembleSpec("HeavyTailedBounded", 500, 16)
    M = sample_matrix(spec, 3)
    assert np.all(np.linalg.norm(M, axis=1) <= 100 * 4.0)


def test_spherical_rows_radius():
    M = sample_matrix(EnsembleSpec("SphericalRows", 50, 9), 1)
    assert np.allclose(np.linalg.norm(M, axis=1), 3.0)


def test_row_scale_applied_last():
    spec = EnsembleSpec("RademacherIID", 5, 5, row_scale=0.25)
    assert set(np.unique(sample_matrix(spec, 0))) == {-0.25, 0.25}


def test_vector_axis_transposes_vector_kinds():
    rows = sample_matrix(EnsembleSpec("LogConcaveSimplex", 40, 6, vector_axis="rows"), 7)
    cols = sample_matrix(EnsembleSpec("LogConcaveSimplex", 6, 40, vector_axis="cols"), 7)
    assert rows.shape == (40, 6) and cols.shape == (6, 40)
    assert np.array_equal(rows, cols.T)


@pytest.mark.parametrize("kind", KINDS)
def test_symmetric_marginals(kind):
    Y = sample_matrix(EnsembleSpec(kind, 100000, 4), 11)
    col = Y[:, 2]
    se = col.std(ddof=1) / math.sqrt(len(col))
    assert abs(col.mean()) <= 4 * se


@pytest.mark.parametrize("kind", ISOTROPIC_KINDS)
def test_isotropy_along_random_direction(kind):
    rng = np.random.default_rng(5)
    t = rng.standard_normal(6)
    Y = sample_matrix(EnsembleSpec(kind, 100000, 6), 21)
    proj2 = (Y @ t) ** 2
    se = proj2.std(ddof=1) / math.sqrt(len(proj2))
    assert abs(proj2.mean() - t @ t) <= 4 * se


def test_uniform_pm1_second_moment_is_one_third():
    rng = np.random.default_rng(6)
    t = rng.standard_normal(6)
    Y = sample_matrix(EnsembleSpec("UniformPM1", 100000, 6), 22)
    proj2 = (Y @ t) ** 2
    se = proj2.std(ddof=1) / math.sqrt(len(proj2))
    assert abs(proj2.mean() - (t @ t) / 3.0) <= 4 * se


def test_simplex_ball_scaling_gives_identity_covariance():
    Y = sample_matrix(EnsembleSpec("LogConcaveSimplex", 100000, 32), 9)
    cov = Y.T @ Y / Y.shape[0]
    err = np.abs(np.linalg.eigvalsh(cov - np.eye(32))).max()
    assert err <= 0.05


def test_product_shapes_and_identity():
    ps = product_spec("UniformPM1", "UniformPM1", n=32, d=8, m=64)
    G, G1, G2 = sample_product(ps, 11)
    assert G.shape == (32, 8) and G1.shape == (64, 32) and G2.shape == (8, 64)
    assert np.allclose(G, G1.T @ G2.T)
    # <Gamma v, t> = (1/sqrt m) sum_i <X_i, v> <Z_i, t>
    rng = np.random.default_rng(0)
    v, t = rng.standard_normal(8), rng.standard_normal(32)
    Z = G1 * math.sqrt(64)
    rhs = np.sum((G2.T @ v) * (Z @ t)) / math.sqrt(64)
    assert (G @ v) @ t == pytest.approx(rhs, rel=1e-10)


def test_product_second_moment():
    # E ||Gamma v||^2 = n ||v||^2 for isotropic factors
    ps = product_spec("RademacherIID", "UniformIsotropic", n=24, d=6, m=32)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    vals = []
    for s in range(800):
        G, _, _ = sample_product(ps, s)
        vals.append((G @ v) @ (G @ v))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 24.0) <= 4 * se


def test_product_spec_validation():
    with pytest.raises(ValueError):
        product_spec("UniformPM1", "UniformPM1", n=8, d=4, m=0)
    good = product_spec("UniformPM1", "UniformPM1", n=8, d=4, m=16)
    with pytest.raises(ValueError):
        type(good)(row_spec=EnsembleSpec("UniformPM1", 10, 8),
                   col_spec=good.col_spec, m=16)


def test_diagnostics_gaussian_small_ball():
    spec = EnsembleSpec("GaussianIID", 4, 8)
    d = marginal_diagnostics(spec, probe_directions=4, trials=200000, seed=1)
    # exact gaussian mass of [-k, k] is ~ 2 k phi(0); the table maxes over probes
    target = 2 * 0.001 / math.sqrt(2 * math.pi)
    assert d.small_ball[0.001] == pytest.approx(target, abs=4e-4)
    ks = sorted(d.small_ball)
    assert all(d.small_ball[a] <= d.small_ball[b] for a, b in zip(ks, ks[1:]))
    assert all(0.0 <= v <= 1.0 for v in d.small_ball.values())


def test_diagnostics_uniform_pm1():
    spec = EnsembleSpec("UniformPM1", 4, 16)
    d = marginal_diagnostics(spec, probe_directions=8, trials=50000, seed=2)
    # flags the missing sqrt(3): covariance is I/3
    assert d.isotropy_error == pytest.approx(2.0 / 3.0, abs=0.05)
    # coordinate probe gives P(|zeta| <= k) = k; random probes at most ~1.4k
    assert 0.1 - 0.01 <= d.small_ball[0.1] <= 0.15


def test_psi2_bounded_across_dimension():
    for kind in ("GaussianIID", "RademacherIID", "UniformIsotropic"):
        estimates = []
        for dim in (8, 64, 512):
            spec = EnsembleSpec(kind, 4, dim)
            d = marginal_diagnostics(spec, probe_directions=4, trials=4000, seed=3)
            estimates.append(d.psi2_estimate)
        assert max(estimates) <= 1.1
        assert max(estimates) / min(estimates) <= 1.35


def test_heavy_tailed_lq_ratio_stable_under_trial_doubling():
    spec = EnsembleSpec("HeavyTailedBounded", 4, 12)
    a = marginal_diagnostics(spec, probe_directions=8, trials=20000, seed=4, q=8.0)
    b = marginal_diagnostics(spec, probe_directions=8, trials=40000, seed=5, q=8.0)
    assert math.isfinite(a.lq_l2_ratio) and math.isfinite(b.lq_l2_ratio)
    assert abs(a.lq_l2_ratio - b.lq_l2_ratio) / b.lq_l2_ratio <= 0.25


def test_log_concave_norm_tail_paouris():
    spec = EnsembleSpec("LogConcaveSimplex", 4, 16)
    d = marginal_diagnostics(spec, probe_directions=4, trials=100000, seed=6)
    assert d.paouris_c1 == PAOURIS_C1
    for u in (1.0, 2.0):
        assert d.norm_tail[u] <= 2 * math.exp(-u * 4.0)


def test_diagnostics_preconditions():
    spec = EnsembleSpec("GaussianIID", 4, 8)
    with pytest.raises(ValueError):
        marginal_diagnostics(spec, probe_directions=4, trials=500, seed=0)
    with pytest.raises(ValueError):
        marginal_diagnostics(spec, probe_directions=0, trials=2000, seed=0)
