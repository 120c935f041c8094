import math

import numpy as np
import pytest

from dmlab.bodies import (
    BodyConstants,
    LpBall,
    critical_dimension,
    diagonal_image,
    dual_norm_sup,
    mean_width,
    norm_many,
    polar_polytope,
)


def test_norm_examples():
    assert norm_many(LpBall(math.inf, 4), np.array([[1.0, -2.0, 0.5, 0.0]])).tolist() == [2.0]
    assert norm_many(LpBall(2, 3), np.array([[3.0, 4.0, 0.0]])).tolist() == [5.0]
    pp = polar_polytope(np.eye(2))
    assert norm_many(pp, np.array([[1.0, 1.0]])).tolist() == [1.0]


def test_norm_errors():
    with pytest.raises(ValueError, match="dimension"):
        norm_many(LpBall(2, 3), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="NaN|finite|infinity"):
        norm_many(LpBall(2, 2), np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="NaN|finite|infinity"):
        norm_many(LpBall(2, 2), np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        LpBall(0.5, 3)


@pytest.mark.parametrize("body", [
    LpBall(1, 6), LpBall(2, 6), LpBall(3.5, 6), LpBall(math.inf, 6),
    polar_polytope(np.random.default_rng(0).standard_normal((7, 6))),
    diagonal_image(LpBall(2, 6), np.array([0.5, 1.0, 2.0, 3.0, 1.5, 0.25])),
])
def test_norm_axioms(body):
    rng = np.random.default_rng(1)
    X, Y = rng.standard_normal((50, 6)), rng.standard_normal((50, 6))
    lam = rng.standard_normal(50)
    nx, ny = norm_many(body, X), norm_many(body, Y)
    np.testing.assert_allclose(norm_many(body, -X), nx, rtol=1e-12)
    np.testing.assert_allclose(norm_many(body, lam[:, None] * X), np.abs(lam) * nx, rtol=1e-12)
    assert np.all(norm_many(body, X + Y) <= (nx + ny) * (1 + 1e-12))


def test_polytope_evaluator_matches_vertex_probes():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((9, 5))
    body = polar_polytope(V)
    X = rng.standard_normal((20, 5))
    vals = norm_many(body, X)
    for x, val in zip(X, vals):
        probes = max(float(x @ t) for t in body.dual_vertices)
        assert val == pytest.approx(probes, rel=1e-14)


def test_dual_norm_sup_closed_forms():
    assert dual_norm_sup(LpBall(math.inf, 17)) == 1.0
    assert dual_norm_sup(LpBall(2, 17)) == 1.0
    assert dual_norm_sup(LpBall(1, 9)) == pytest.approx(3.0, rel=1e-14)
    # general p: polar is the conjugate ball; compare against random probes
    for p in (1.5, 3.0, 5.0):
        body = LpBall(p, 8)
        q = p / (p - 1.0)
        rng = np.random.default_rng(3)
        probes = rng.standard_normal((20000, 8))
        probes /= np.linalg.norm(probes, ord=q, axis=1, keepdims=True)
        sampled = np.linalg.norm(probes, axis=1).max()
        exact = dual_norm_sup(body)
        assert sampled <= exact * (1 + 1e-9)
        assert sampled >= 0.8 * exact


def test_dual_norm_sup_diagonal_image():
    s = np.array([2.0, 4.0, 0.5])
    # diag(s) B_2: polar is diag(1/s) B_2, sup is max 1/s_i
    assert dual_norm_sup(diagonal_image(LpBall(2, 3), s)) == pytest.approx(2.0)
    # diag(s) B_inf: polar is the cross-polytope on (1/s_i) e_i, sup is max 1/s_i
    assert dual_norm_sup(diagonal_image(LpBall(math.inf, 3), s)) == pytest.approx(2.0)
    # diag(s) B_1: polar is the box [-1/s, 1/s], sup is ||1/s||_2
    assert dual_norm_sup(diagonal_image(LpBall(1, 3), s)) == pytest.approx(
        np.linalg.norm(1.0 / s))


def test_mean_width_closed_forms():
    val, err = mean_width(LpBall(2, 100), "closedForm")
    assert err == 0.0
    assert val == pytest.approx(9.9749, abs=2e-4)
    val, err = mean_width(LpBall(1, 100), "closedForm")
    assert val == pytest.approx(100 * math.sqrt(2 / math.pi), rel=1e-14)


def test_mean_width_method_errors():
    with pytest.raises(ValueError):
        mean_width(LpBall(3, 10), "closedForm")
    with pytest.raises(ValueError):
        mean_width(LpBall(2, 10), "quadrature")
    with pytest.raises(ValueError):
        mean_width(LpBall(2, 10), "monteCarlo", trials=0)
    with pytest.raises(ValueError):
        mean_width(LpBall(2, 10), "bogus")


def test_mean_width_quadrature_vs_mc():
    quad_val, _ = mean_width(LpBall(math.inf, 50), "quadrature")
    mc_val, mc_err = mean_width(LpBall(math.inf, 50), "monteCarlo", trials=20000, seed=0)
    assert abs(quad_val - mc_val) <= 4 * mc_err


def test_mc_matches_closed_forms_on_seeded_runs():
    for body in (LpBall(2, 100), LpBall(1, 100)):
        exact, _ = mean_width(body, "closedForm")
        misses = 0
        for seed in range(100):
            est, err = mean_width(body, "monteCarlo", trials=2000, seed=seed)
            if abs(est - exact) > 4 * err:
                misses += 1
        assert misses <= 1  # 4 sigma leaves ~6e-5 expected misses per run


def test_mc_determinism():
    a = mean_width(LpBall(3, 20), "monteCarlo", trials=5000, seed=9)
    b = mean_width(LpBall(3, 20), "monteCarlo", trials=5000, seed=9)
    assert a == b


def test_critical_dimension_euclidean_ball():
    for n in (10, 50, 200):
        c = critical_dimension(LpBall(2, n), "closedForm")
        assert n - 1 <= c.d_star <= n
        assert c.d_star == pytest.approx((c.ell_k / c.dual_sup) ** 2, rel=1e-12)


def test_critical_dimension_cube_grows_like_log_n():
    ns = [100, 1000, 10000]
    dstars = [critical_dimension(LpBall(math.inf, n), "quadrature").d_star for n in ns]
    assert dstars[0] < dstars[1] < dstars[2]
    # fit dStar against ln n; the slope of E max|g|^2 is close to 2
    slope = np.polyfit(np.log(ns), dstars, 1)[0]
    assert 1.2 <= slope <= 2.5


def test_critical_dimension_l1_ball():
    c = critical_dimension(LpBall(1, 64), "monteCarlo", trials=40000, seed=4)
    target = 2 * 64 / math.pi
    sigma = 4 * c.ell_k_stderr * 2 * c.ell_k / c.dual_sup**2  # delta method on square
    assert abs(c.d_star - target) <= sigma + 0.5


def test_identity_diagonal_image_preserves_dstar():
    base = LpBall(2, 12)
    img = diagonal_image(base, np.ones(12))
    a = critical_dimension(base, "monteCarlo", trials=4000, seed=5)
    b = critical_dimension(img, "monteCarlo", trials=4000, seed=5)
    assert a.d_star == pytest.approx(b.d_star, rel=1e-12)


def test_one_point_lower_bound():
    # a single polar vector already contributes E|g| * ||t||_2 to ell(K)
    for body in (LpBall(2, 30), LpBall(1, 30), LpBall(math.inf, 30),
                 polar_polytope(np.random.default_rng(6).standard_normal((5, 30)))):
        c = critical_dimension(body, "monteCarlo", trials=20000, seed=7)
        assert c.ell_k >= c.dual_sup * math.sqrt(2 / math.pi) - 6 * c.ell_k_stderr


def test_body_constants_shape():
    c = critical_dimension(LpBall(2, 5), "closedForm")
    assert isinstance(c, BodyConstants)
    assert c.ell_k_stderr == 0.0


def test_norm_many_matches_scalar():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 7))
    body = LpBall(2.5, 7)
    batch = norm_many(body, X)
    for i in range(40):
        assert batch[i] == pytest.approx(norm_many(body, X[i:i + 1])[0], rel=1e-13)
