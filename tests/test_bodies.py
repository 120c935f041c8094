import math

import numpy as np
import pytest

from dmlab.bodies import (
    BodyConstants,
    LpBall,
    PolarPolytope,
    _norms_and_leads,
    _pull_back,
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


def test_polar_polytope_rejects_bad_vertex_arrays():
    # A 3-D array would give n = 1 and a norm of the wrong shape.
    match = r"dual vertices must be nonempty and 2-D, not of shape \(1, 1, 4\)"
    with pytest.raises(ValueError, match=match):
        polar_polytope([[[1.0, 0.0, 0.0, 0.0]]])
    with pytest.raises(ValueError, match="nonempty"):
        polar_polytope([[]])
    with pytest.raises(ValueError, match="finite"):
        polar_polytope([[1.0, np.nan]])
    assert polar_polytope([1.0, 0.0]).n == 2  # one vertex, given flat


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
    for n, value in ((1, math.sqrt(2 / math.pi)), (2, math.sqrt(math.pi / 2))):
        assert mean_width(LpBall(2, n), "closedForm")[0] == pytest.approx(value, rel=1e-14)


# sqrt(2) Gamma((n+1)/2) / Gamma(n/2), from mpmath at 50 digits, rounded once.
# n = 300 | 302 sit on either side of the switch from the gamma quotient to the series.
@pytest.mark.parametrize("n, value", [
    (1, 0.7978845608028654), (2, 1.2533141373155003), (3, 1.5957691216057308),
    (17, 4.062949695165235), (100, 9.975031639551052), (299, 17.277164661998956),
    (300, 17.30608035806067), (301, 17.334947821403635), (302, 17.36376729258754),
    (399, 19.962472634299967), (512, 22.616371158493823), (4096, 63.99609386924567),
    (10**4, 99.9975000312539), (10**5, 316.2269754484111), (10**6, 999.9997500000312),
    (10**7, 3162.277581111439),
])
def test_l2_mean_width_closed_form_is_accurate(n, value):
    # exp(lgamma((n+1)/2) - lgamma(n/2)) was off by 1.6e-13 at n = 512, 1.9e-9 at 1e7.
    val, err = mean_width(LpBall(2, n), "closedForm")
    assert err == 0.0
    assert val == pytest.approx(value, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n, value", [
    (1, math.sqrt(2 / math.pi)),   # E|g|
    (2, 2 / math.sqrt(math.pi)),   # E max(|g1|, |g2|)
    (4096, 3.8022953119020606),    # 30-digit reference, rounded
])
def test_mean_width_quadrature_known_values(n, value):
    val, err = mean_width(LpBall(math.inf, n), "quadrature")
    assert err == 0.0
    assert val == pytest.approx(value, rel=1e-15, abs=0.0)


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


def test_critical_dimension_needs_a_method():
    # The old default, monteCarlo without trials, could only raise.
    with pytest.raises(TypeError):
        critical_dimension(LpBall(2, 5))


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


def _lp_reference(p, P, gamma):
    """The dedicated p = 1 and p = 2 rules that the one finite-p rule replaced."""
    if p == 1.0:
        return np.abs(P).sum(axis=-1), np.sign(P) @ gamma
    norms = np.linalg.norm(P, axis=-1)
    return norms, (P / np.where(norms > 0.0, norms, 1.0)[:, None]) @ gamma


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_finite_p_rule_is_bitwise_the_p1_and_p2_rules(p):
    rng = np.random.default_rng(int(p))
    for trial in range(200):
        k, n, d = rng.integers(1, 9), rng.integers(1, 40), rng.integers(1, 6)
        P = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        P[rng.random((k, n)) < 0.2] = -0.0
        P[rng.random(k) < 0.25] = 0.0          # whole zero rows
        P[rng.random(k) < 0.25] = -0.0
        gamma = rng.standard_normal((n, d))
        body = LpBall(p, n)
        ref_norms, ref_sub = _lp_reference(p, P, gamma)
        norms, lead = _norms_and_leads(body, P)
        assert np.array_equal(norms, ref_norms), trial
        assert np.array_equal(_pull_back(body, lead, gamma), ref_sub), trial


def _norm_reference(body, X):
    """The norm rule that `_norms_and_leads` replaced."""
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            return np.abs(X).max(axis=-1)
        return (np.abs(X) ** body.p).sum(axis=-1) ** (1.0 / body.p)
    if isinstance(body, PolarPolytope):
        return (X @ body.dual_vertices.T).max(axis=-1)
    return _norm_reference(body.base, X / body.scales)


def _pullback_reference(body, P, gamma, norms):
    """The subgradient rule that `_pull_back` replaced: it re-reads P for its lead."""
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            idx = np.argmax(np.abs(P), axis=1)
            sgn = np.sign(P[np.arange(P.shape[0]), idx])
            sgn[sgn == 0.0] = 1.0
            return sgn[:, None] * gamma[idx, :]
        safe = np.where(norms > 0.0, norms, 1.0)
        g_y = np.sign(P) * (np.abs(P) / safe[:, None]) ** (body.p - 1.0)
        return g_y @ gamma
    if isinstance(body, PolarPolytope):
        idx = np.argmax(P @ body.dual_vertices.T, axis=1)
        return body.dual_vertices[idx] @ gamma
    return _pullback_reference(body.base, P / body.scales, gamma / body.scales[:, None], norms)


def _rule_body(family, n, rng):
    if family == "polytope":
        return polar_polytope(rng.integers(-3, 4, (5, n)))
    if family == "diagonal":
        return diagonal_image(LpBall(math.inf, n), rng.uniform(0.5, 2.0, n))
    return LpBall(float(family), n)


def _tied_rows(rng, k, n):
    """Rows with exact ties: quarter-integers (so +a and -a, repeated maxima and
    exact polytope scores are common), then -0.0 entries and all-zero rows."""
    P = rng.integers(-4, 5, (k, n)) / 4.0
    if rng.random() < 0.5:
        P[: k // 2] = rng.standard_normal((k // 2, n))
    P[rng.random((k, n)) < 0.2] = -0.0
    P[rng.random(k) < 0.2] = 0.0
    P[rng.random(k) < 0.2] = -0.0
    return P


@pytest.mark.parametrize("family", ["inf", "1", "1.5", "2", "3", "polytope", "diagonal"])
def test_one_pass_rule_is_bitwise_the_norm_and_pullback_rules(family):
    # Every row, and the subset of rows that the optimizer pulls back (the
    # accepted candidates), against the norm and the subgradient rules that
    # each read P on their own.
    rng = np.random.default_rng(17)
    for trial in range(200):
        k, n, d = rng.integers(1, 12), rng.integers(1, 40), rng.integers(1, 6)
        P = _tied_rows(rng, k, n)
        gamma = rng.standard_normal((n, d))
        body = _rule_body(family, n, rng)
        ref_norms = _norm_reference(body, P)
        norms, lead = _norms_and_leads(body, P)
        assert np.array_equal(norms, ref_norms), trial
        assert all(len(a) == k for a in lead), trial
        assert np.array_equal(_pull_back(body, lead, gamma),
                              _pullback_reference(body, P, gamma, ref_norms)), trial
        keep = rng.random(k) < 0.5
        assert np.array_equal(_pull_back(body, tuple(a[keep] for a in lead), gamma),
                              _pullback_reference(body, P[keep], gamma, ref_norms[keep])), trial


def test_norm_many_takes_rows_only():
    with pytest.raises(ValueError, match="dimension mismatch"):
        norm_many(LpBall(2.0, 3), np.ones(3))


def test_lp_ball_rejects_a_nonpositive_dimension():
    for n in (0, -2):
        with pytest.raises(ValueError, match="ambient dimension must be positive"):
            LpBall(2.0, n)


@pytest.mark.parametrize("n", [2.0, 2.5, True, "3", None])
def test_lp_ball_takes_an_integer_dimension(n):
    with pytest.raises(ValueError, match="ambient dimension must be positive"):
        LpBall(2.0, n)


@pytest.mark.parametrize("scales, match", [
    ([1.0, 2.0], r"scales must have shape \(3,\)"),
    ([[1.0, 2.0, 3.0]], r"scales must have shape \(3,\)"),
    ([1.0, 0.0, 2.0], "scales must be positive and finite"),
    ([1.0, -1.0, 2.0], "scales must be positive and finite"),
    ([1.0, math.inf, 2.0], "scales must be positive and finite"),
    ([1.0, math.nan, 2.0], "scales must be positive and finite"),
], ids=["short", "two-dimensional", "zero", "negative", "inf", "nan"])
def test_diagonal_image_rejects_bad_scales(scales, match):
    with pytest.raises(ValueError, match=match):
        diagonal_image(LpBall(2.0, 3), scales)


@pytest.mark.parametrize("trials", [None, 0, True, 2.5, "8"])
def test_monte_carlo_mean_width_takes_an_integer_trial_count(trials):
    with pytest.raises(ValueError, match="monteCarlo requires trials >= 1"):
        mean_width(LpBall(2.0, 4), "monteCarlo", trials=trials)
