import math

import numpy as np
import pytest

from dmlab.bodies import LpBall, diagonal_image, mean_width, norm_many, polar_polytope
from dmlab.calibration import GAUSSIAN_BAND
from dmlab.distortion import (
    _multistart,
    _pullback_subgradients,
    adversarial_linf_witness,
    measure_distortion,
)
from dmlab.events import singular_extremes
from dmlab.nets import build_sphere_net


def test_exact_spectral_on_scaled_isometry():
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 8)))
    rep = measure_distortion(LpBall(2, 64), 2.5 * Q, "exactSpectral", seed=0)
    assert rep.sup_est == pytest.approx(2.5, rel=1e-9)
    assert rep.inf_est == pytest.approx(2.5, rel=1e-9)
    assert rep.ratio == pytest.approx(1.0, rel=1e-9)
    assert rep.sup_method == "exactSpectral"


def test_exact_spectral_matches_singular_extremes():
    G = np.random.default_rng(1).standard_normal((100, 12))
    rep = measure_distortion(LpBall(2, 100), G, "exactSpectral", seed=0)
    smin, smax = singular_extremes(G)
    assert rep.sup_est == pytest.approx(smax, rel=1e-9)
    assert rep.inf_est == pytest.approx(smin, rel=1e-9)


def test_gaussian_spectral_ratio_bai_yin():
    ratios = []
    for seed in range(20):
        G = np.random.default_rng(seed).standard_normal((256, 16))
        rep = measure_distortion(LpBall(2, 256), G, "exactSpectral", seed=seed)
        ratios.append(rep.ratio)
    edge = (16 + 4) / (16 - 4)
    assert np.median(ratios) <= edge + 0.1


def test_row_norm_agrees_with_optimizer_when_starts_cover_rows():
    M = np.random.default_rng(2).uniform(-1, 1, (128, 6))
    body = LpBall(math.inf, 128)
    r1 = measure_distortion(body, M, "exactRowNorm", starts=140, seed=3)
    r2 = measure_distortion(body, M, "multiStartOpt", starts=140, seed=3)
    assert abs(r1.sup_est - r2.sup_est) <= 1e-9 * r1.sup_est


def test_row_norm_dominates_optimizer():
    body = LpBall(math.inf, 64)
    for seed in range(20):
        M = np.random.default_rng(seed).standard_normal((64, 5))
        r1 = measure_distortion(body, M, "exactRowNorm", starts=8, seed=seed)
        r2 = measure_distortion(body, M, "multiStartOpt", starts=8, seed=seed)
        assert r1.sup_est >= r2.sup_est - 1e-12


def test_multistart_monotone_in_starts():
    M = np.random.default_rng(4).uniform(-1, 1, (96, 6))
    body = LpBall(math.inf, 96)
    few = measure_distortion(body, M, "multiStartOpt", starts=8, seed=5)
    many = measure_distortion(body, M, "multiStartOpt", starts=48, seed=5)
    assert few.sup_est <= many.sup_est + 1e-12
    assert few.inf_est >= many.inf_est - 1e-12


def _full_width_multistart(body, gamma, starts, seed, mode, iters=500):
    """Reference: the loop that re-projects and re-evaluates every start each pass."""
    d = gamma.shape[1]
    rng = np.random.default_rng(seed)
    axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    rand = rng.standard_normal((starts, d))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    X = np.concatenate([axes, rand], axis=0)
    step = np.full(X.shape[0], 0.5)
    vals = norm_many(body, X @ gamma.T)
    for _ in range(iters):
        P = X @ gamma.T
        G = _pullback_subgradients(body, P, gamma, norm_many(body, P))
        cand = X + mode * step[:, None] * G
        cn = np.linalg.norm(cand, axis=1, keepdims=True)
        cn[cn == 0.0] = 1.0
        cand /= cn
        cvals = norm_many(body, cand @ gamma.T)
        better = cvals > vals if mode > 0 else cvals < vals
        X[better] = cand[better]
        vals[better] = cvals[better]
        step[~better] *= 0.5
        if np.all(step < 1e-12):
            break
    return float(vals.max() if mode > 0 else vals.min())


def _family_body(family, n, rng):
    if family == "polytope":
        return polar_polytope(rng.standard_normal((12, n)))
    if family == "diagonal":
        return diagonal_image(LpBall(math.inf, n), rng.uniform(0.5, 2.0, n))
    return LpBall(float(family), n)


@pytest.mark.parametrize("family", ["inf", "1", "2", "3", "polytope", "diagonal"])
@pytest.mark.parametrize("mode", [1, -1])
def test_multistart_matches_full_width_loop(family, mode):
    n, d = 40, 5
    for seed in range(4):
        rng = np.random.default_rng(seed)
        body = _family_body(family, n, rng)
        G = rng.standard_normal((n, d))
        got = _multistart(body, G, 16, seed, mode)
        want = _full_width_multistart(body, G, 16, seed, mode)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_multistart_evaluates_norms_once_per_iteration(monkeypatch):
    # the subgradient reuses the norms the loop already holds; at 30 iterations
    # no step can fall below 1e-12 (0.5 * 2**-30 > 1e-12), so no start retires
    calls = []

    def counting_norm_many(body, X):
        calls.append(X.shape[0])
        return norm_many(body, X)

    monkeypatch.setattr("dmlab.distortion.norm_many", counting_norm_many)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((1024, 12))
    _multistart(LpBall(3.0, 1024), G, 64, 0, -1, iters=30)
    assert len(calls) == 1 + 30


def test_net_certified_brackets_truth():
    net = build_sphere_net(4, 0.5, 10**6, 7)
    body = LpBall(2, 32)
    for seed in range(5):
        G = np.random.default_rng(seed).standard_normal((32, 4))
        rep = measure_distortion(body, G, "netCertified", net=net, seed=seed)
        smin, smax = singular_extremes(G)
        assert rep.inf_est <= smin + 1e-9
        assert rep.sup_est >= smax - 1e-9
        assert rep.sup_est >= rep.net_max
        assert rep.inf_est <= rep.net_min
        assert rep.lipschitz_slack == pytest.approx(
            net.rho * rep.net_max / (1 - net.rho), rel=1e-12)


def test_net_certified_rejects_uncovered_net():
    net = build_sphere_net(5, 0.3, 50, 1)
    assert net.covering_radius_estimate > net.rho
    G = np.random.default_rng(0).standard_normal((16, 5))
    with pytest.raises(ValueError, match="covering"):
        measure_distortion(LpBall(2, 16), G, "netCertified", net=net, seed=0)


def test_method_body_compatibility():
    G = np.random.default_rng(0).standard_normal((16, 4))
    with pytest.raises(ValueError):
        measure_distortion(LpBall(math.inf, 16), G, "exactSpectral", seed=0)
    with pytest.raises(ValueError):
        measure_distortion(LpBall(2, 16), G, "exactRowNorm", seed=0)
    with pytest.raises(ValueError):
        measure_distortion(LpBall(2, 16), G, "netCertified", seed=0)
    with pytest.raises(ValueError):
        measure_distortion(LpBall(2, 8), G, "exactSpectral", seed=0)  # dim mismatch


def test_multistart_supports_polytope_bodies():
    rng = np.random.default_rng(6)
    body = polar_polytope(rng.standard_normal((10, 24)))
    G = rng.standard_normal((24, 4))
    rep = measure_distortion(body, G, "multiStartOpt", starts=16, seed=1)
    assert 0.0 < rep.inf_est <= rep.sup_est


def test_normalized_bands_in_subcritical_regime():
    # d well below the critical dimension: extremes over ell(K) sit near 1
    n, d = 400, 20
    ell = mean_width(LpBall(2, n), "closedForm")[0]
    sups, infs = [], []
    for seed in range(20):
        G = np.random.default_rng(seed).standard_normal((n, d))
        rep = measure_distortion(LpBall(2, n), G, "exactSpectral", seed=seed)
        sups.append(rep.sup_est / ell)
        infs.append(rep.inf_est / ell)
    lo, hi = GAUSSIAN_BAND
    assert lo <= np.median(infs) <= np.median(sups) <= hi


def test_witness_all_ones():
    w = adversarial_linf_witness(np.ones((5, 9)))
    assert w.phi_witness == pytest.approx(3.0, rel=1e-12)
    assert w.phi_e1 == 1.0
    assert w.ratio == pytest.approx(3.0, rel=1e-12)


def test_witness_single_column():
    w = adversarial_linf_witness(np.array([[2.0], [-1.0]]))
    assert w.phi_witness == w.phi_e1 == 2.0
    assert w.ratio == 1.0
    assert w.eta.tolist() in ([1.0], [-1.0])


def test_witness_zero_matrix():
    w = adversarial_linf_witness(np.zeros((3, 4)))
    assert w.ratio == 0.0


def test_witness_sign_convention_on_zeros():
    M = np.array([[0.0, -1.0, 5.0]])
    w = adversarial_linf_witness(M)
    assert w.eta.tolist() == [1.0, -1.0, 1.0]


def test_witness_scaling_uniform_pm1():
    hits = 0
    for seed in range(20):
        M = np.random.default_rng(seed).uniform(-1, 1, (1024, 64))
        w = adversarial_linf_witness(M)
        hits += w.ratio >= 0.4 * 8.0
    assert hits >= 19
