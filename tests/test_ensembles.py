import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dmlab import ensembles
from dmlab.calibration import PAOURIS_C1
from dmlab.ensembles import (
    KINDS,
    EnsembleSpec,
    marginal_diagnostics,
    product_spec,
    sample_matrix,
    sample_product,
)
from dmlab.seeding import child_seed

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
    with pytest.raises(ValueError, match="vector_axis must be 'rows' or 'cols'"):
        EnsembleSpec("GaussianIID", rows=2, cols=3, vector_axis="diagonal")


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


def _reference_vectors(kind, rng, count, dim):
    """The vector laws' draws, written out apart from the law table."""
    if kind == "SphericalRows":
        G = rng.standard_normal((count, dim))
        return math.sqrt(dim) * G / np.linalg.norm(G, axis=1, keepdims=True)
    if kind == "LogConcaveSimplex":
        E = rng.standard_exponential((count, dim + 1))
        simplex = E[:, :dim] / E.sum(axis=1, keepdims=True)
        signs = rng.integers(0, 2, size=(count, dim)) * 2 - 1
        return math.sqrt((dim + 1) * (dim + 2) / 2.0) * signs * simplex
    scale = 1.0 / math.sqrt(12 / 10.0)  # HeavyTailedBounded: unit-variance t_12, capped
    V = scale * rng.standard_t(12, size=(count, dim))
    while True:
        bad = np.flatnonzero(np.linalg.norm(V, axis=1) > 100.0 * math.sqrt(dim))
        if bad.size == 0:
            return V
        V[bad] = scale * rng.standard_t(12, size=(bad.size, dim))


def _reference_matrix(kind, rng, rows, cols, vector_axis):
    """One draw of each law, written out apart from the law table."""
    shape = (rows, cols)
    if kind == "GaussianIID":
        return rng.standard_normal(shape)
    if kind == "UniformPM1":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "UniformIsotropic":
        return math.sqrt(3.0) * rng.uniform(-1.0, 1.0, shape)
    if kind == "RademacherIID":
        return (rng.integers(0, 2, size=shape) * 2 - 1).astype(float)
    if vector_axis == "rows":
        return _reference_vectors(kind, rng, rows, cols)
    return _reference_vectors(kind, rng, cols, rows).T


@pytest.mark.parametrize("vector_axis", ["rows", "cols"])
@pytest.mark.parametrize("kind", KINDS)
def test_law_table_draws_the_reference_laws(kind, vector_axis):
    assert len(KINDS) == 7
    spec = EnsembleSpec(kind, 9, 5, vector_axis=vector_axis)
    want = _reference_matrix(kind, np.random.default_rng(17), 9, 5, vector_axis)
    assert np.array_equal(sample_matrix(spec, 17), want)
    rng = np.random.default_rng(17)
    rng.standard_normal(3)  # a Generator is drawn from as it stands
    got = sample_matrix(spec, rng)
    ref = np.random.default_rng(17)
    ref.standard_normal(3)
    assert np.array_equal(got, _reference_matrix(kind, ref, 9, 5, vector_axis))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("vector_axis", ["rows", "cols"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_draw_into_a_buffer_equals_the_fresh_draw(kind, vector_axis):
    # `out` is the leading rows of a larger C-contiguous buffer; the rows below
    # it must stay as they were
    spec = EnsembleSpec(kind, 9, 5, vector_axis=vector_axis)
    big = np.full((13, 5), np.nan)
    out = big[:9]
    rng = np.random.default_rng(23)
    got = sample_matrix(spec, rng, out=out)
    ref = np.random.default_rng(23)
    want = _reference_matrix(kind, ref, 9, 5, vector_axis)
    assert got is out and np.shares_memory(got, big)
    assert np.array_equal(big[:9], want)
    assert np.isnan(big[9:]).all()
    assert rng.bit_generator.state == ref.bit_generator.state
    # a buffer holding an earlier draw is overwritten, not added to
    assert np.array_equal(sample_matrix(spec, 23, out=out), want)


@pytest.mark.parametrize("kind", KINDS)
def test_a_buffer_of_another_shape_or_dtype_is_rejected(kind):
    spec = EnsembleSpec(kind, 4, 3)
    for shape in [(3, 4), (4, 2), (5, 3), (12,)]:
        with pytest.raises(ValueError, match="the spec float64 of"):
            sample_matrix(spec, 1, out=np.empty(shape))
    for dtype in (np.float32, np.int64, np.complex128):
        with pytest.raises(ValueError, match="the spec float64 of"):
            sample_matrix(spec, 1, out=np.zeros((4, 3), dtype))


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


def _row_factor(ps, seed):
    """The product's row factor Z (rows Z_i), redrawn in one piece."""
    return sample_matrix(ps.row_spec, child_seed(seed, 1))


def test_product_shapes_and_identity():
    ps = product_spec("UniformPM1", "UniformPM1", n=32, d=8, m=64)
    G, G2 = sample_product(ps, 11)
    assert G.shape == (32, 8) and G2.shape == (8, 64)
    Z = _row_factor(ps, 11)
    assert np.array_equal(G2, sample_matrix(ps.col_spec, child_seed(11, 2)))
    assert np.allclose(G, Z.T @ G2.T / math.sqrt(64))
    # <Gamma v, t> = (1/sqrt m) sum_i <X_i, v> <Z_i, t>
    rng = np.random.default_rng(0)
    v, t = rng.standard_normal(8), rng.standard_normal(32)
    rhs = np.sum((G2.T @ v) * (Z @ t)) / math.sqrt(64)
    assert (G @ v) @ t == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("block_bytes, n, m", [
    (None, 48, 40),        # one block at the module's block size
    (8 * 48 * 7, 48, 40),  # 7-row blocks; 40 is not a multiple of 7
    (8 * 30 * 3, 30, 64),  # 3-row blocks
])
@pytest.mark.parametrize("z_kind", ["UniformPM1", "RademacherIID", "SphericalRows"])
def test_streamed_product_matches_one_draw(monkeypatch, block_bytes, n, m, z_kind):
    if block_bytes is not None:
        monkeypatch.setattr("dmlab.ensembles._PRODUCT_BLOCK_BYTES", block_bytes)
    ps = product_spec(z_kind, "UniformIsotropic", n=n, d=5, m=m)
    G, G2 = sample_product(ps, 5)
    want = (_row_factor(ps, 5) / math.sqrt(m)).T @ G2.T
    np.testing.assert_allclose(G, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    if block_bytes is None:
        assert np.array_equal(G, want)


def _fresh_block_product(ps, seed):
    """sample_product with a fresh array per row block, as the draw was written
    before the block buffer was reused."""
    g2 = sample_matrix(ps.col_spec, child_seed(seed, 2))
    rng = np.random.default_rng(child_seed(seed, 1))
    block = max(1, ensembles._PRODUCT_BLOCK_BYTES // (8 * ps.n))
    gamma = None
    for start in range(0, ps.m, block):
        stop = min(start + block, ps.m)
        z = sample_matrix(replace(ps.row_spec, rows=stop - start), rng) / math.sqrt(ps.m)
        part = z.T @ g2[:, start:stop].T
        gamma = part if gamma is None else np.add(gamma, part, out=gamma)
    return gamma, g2


@pytest.mark.parametrize("block_rows, m", [
    (None, 40),  # one block at the module's block size
    (40, 40),    # exactly one block
    (39, 40),    # a last block of one row
    (7, 40),     # 40 is not a multiple of 7
    (1, 12),     # one row per block
])
@pytest.mark.parametrize("z_kind", KINDS)
def test_reused_block_equals_fresh_blocks(monkeypatch, block_rows, m, z_kind):
    n = 24
    if block_rows is not None:
        monkeypatch.setattr("dmlab.ensembles._PRODUCT_BLOCK_BYTES", 8 * n * block_rows)
    ps = product_spec(z_kind, "UniformIsotropic", n=n, d=5, m=m)
    G, G2 = sample_product(ps, 9)
    want, want2 = _fresh_block_product(ps, 9)
    assert (G == want).all() and (G2 == want2).all()


def test_product_draw_memory_is_one_block_plus_the_factors():
    # At (n, d, m) = (2048, 15, 4096) a row block is 2 MiB.  A fresh array per
    # block, and a second one for its scaled copy, peaked at 5.6 MiB; the one
    # reused block peaks near 3.2 MiB.
    n, d, m = 2048, 15, 4096
    ps = product_spec("UniformPM1", "UniformPM1", n=n, d=d, m=m)
    sample_product(ps, 3)  # one-time allocations of the first draw
    tracemalloc.start()
    try:
        sample_product(ps, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_bytes = 8 * (n * d + d * m)
    assert peak < ensembles._PRODUCT_BLOCK_BYTES + 3 * factor_bytes


def test_streamed_product_memory_stays_below_the_row_factor():
    # the whole row factor at n = 2048, m = 4096 is 64 MiB of float64
    ps = product_spec("UniformPM1", "UniformPM1", n=2048, d=15, m=4096)
    tracemalloc.start()
    try:
        sample_product(ps, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2048 * 4096 / 4


@pytest.mark.parametrize("kind", ["GaussianIID", "SphericalRows", "UniformPM1",
                                  "UniformIsotropic", "RademacherIID"])
@pytest.mark.parametrize("block", [1, 3, 7, 10])
def test_row_blocks_from_one_generator_equal_one_draw(kind, block):
    spec = EnsembleSpec(kind, 23, 9)
    rng = np.random.default_rng(41)
    parts = [sample_matrix(replace(spec, rows=min(block, 23 - start)), rng)
             for start in range(0, 23, block)]
    assert np.array_equal(np.concatenate(parts), sample_matrix(spec, 41))


def test_sample_matrix_takes_an_int_or_a_generator():
    spec = EnsembleSpec("GaussianIID", 3, 2)
    assert np.array_equal(sample_matrix(spec, np.random.default_rng(5)),
                          sample_matrix(spec, 5))
    assert np.array_equal(sample_matrix(spec, np.int64(5)), sample_matrix(spec, 5))
    for seed in (1.0, "7", None, True, np.random.SeedSequence(3)):
        with pytest.raises(TypeError):
            sample_matrix(spec, seed)


def test_product_second_moment():
    # E ||Gamma v||^2 = n ||v||^2 for isotropic factors
    ps = product_spec("RademacherIID", "UniformIsotropic", n=24, d=6, m=32)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    vals = []
    for s in range(800):
        G, _ = sample_product(ps, s)
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


@pytest.mark.parametrize("q", ["x", math.nan, -1, 0.5, True, math.inf])
def test_diagnostics_reject_a_bad_q(q):
    spec = EnsembleSpec("GaussianIID", 4, 8)
    with pytest.raises(ValueError, match="q must be a finite real number >= 1"):
        marginal_diagnostics(spec, probe_directions=4, trials=1000, seed=0, q=q)


@pytest.mark.parametrize("master, index", [(-1, 0), (0, -1), (2.7, 0), (0, 1.5), (3.0, 0),
                                           (True, 0), (0, False)])
def test_child_seed_rejects_negative_seeds(master, index):
    with pytest.raises(ValueError, match="must be nonnegative"):
        child_seed(master, index)


@pytest.mark.parametrize("change, match", [
    ({"probe_directions": 2.5}, "need at least one probe direction"),
    ({"probe_directions": True}, "need at least one probe direction"),
    ({"trials": 1000.5}, r"diagnostics need trials >= 1000"),
    ({"trials": 999}, r"diagnostics need trials >= 1000"),
], ids=["probes-float", "probes-bool", "trials-float", "trials-low"])
def test_diagnostics_take_integer_counts(change, match):
    args = {"probe_directions": 4, "trials": 1000, "seed": 0, **change}
    with pytest.raises(ValueError, match=match):
        marginal_diagnostics(EnsembleSpec("GaussianIID", 4, 8), **args)


@pytest.mark.parametrize("rows, cols", [(2.5, 4), (2, 4.5), (True, 4), (2, True), (0, 4), ("2", 4)])
def test_ensemble_spec_takes_integer_shapes(rows, cols):
    with pytest.raises(ValueError, match="rows and cols must be positive integers"):
        EnsembleSpec("UniformPM1", rows, cols)
