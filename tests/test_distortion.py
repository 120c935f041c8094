import math
from itertools import product

import numpy as np
import pytest

from dmlab import bodies
from dmlab.bodies import (LpBall, _norms_and_leads, _pull_back, diagonal_image, mean_width,
                          norm_many, polar_polytope)
from dmlab.calibration import GAUSSIAN_BAND
from dmlab.distortion import (_NET_BLOCK_BYTES, _multistart, adversarial_linf_witness,
                              measure_distortion)
from dmlab.events import singular_extremes
from dmlab.ensembles import product_spec, sample_product
from dmlab.nets import build_sphere_net, sphere_cover


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
        G = _pull_back(body, _norms_and_leads(body, P)[1], gamma)
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


@pytest.mark.parametrize("p", ["inf", "3"])
def test_multistart_evaluates_norms_once_per_iteration(monkeypatch, p):
    # One pass of the body rule per iteration gives the norms and the leads
    # together.  At 30 iterations no step can fall below 1e-12
    # (0.5 * 2**-30 > 1e-12), so no start retires and every pass covers all
    # starts.  The starts take two passes: the checked one, through norm_many,
    # and the one for their leads.
    calls, checked = [], []
    evaluate = bodies._norms_and_leads

    def counting_rule(body, P):
        calls.append(P.shape[0])
        return evaluate(body, P)

    def counting_norm_many(body, X):
        checked.append(X.shape[0])
        return norm_many(body, X)

    monkeypatch.setattr("dmlab.bodies._norms_and_leads", counting_rule)
    monkeypatch.setattr("dmlab.distortion._norms_and_leads", counting_rule)
    monkeypatch.setattr("dmlab.distortion.norm_many", counting_norm_many)
    monkeypatch.setattr("dmlab.distortion._OPT_ITERS", 30)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((1024, 12))
    _multistart(LpBall(float(p), 1024), G, 64, 0, -1)
    assert calls == [2 * 12 + 64] * (2 + 30)
    assert checked == [2 * 12 + 64]  # only the first evaluation checks its input


@pytest.mark.parametrize("p", ["inf", "3"])
def test_multistart_pulls_back_only_starts_and_accepted_candidates(monkeypatch, p):
    # At 30 iterations no start retires (see above), so every pass after the
    # starts' two covers all starts in order, and the accepted candidates can
    # be counted from the norms alone.
    pulled, evaluated = [], []
    pull_back, evaluate = bodies._pull_back, bodies._norms_and_leads

    def counting_pull_back(body, lead, gamma):
        pulled.append(len(lead[0]))
        return pull_back(body, lead, gamma)

    def recording_rule(body, P):
        norms, lead = evaluate(body, P)
        evaluated.append(norms)
        return norms.copy(), lead  # the loop updates its values in place

    monkeypatch.setattr("dmlab.distortion._pull_back", counting_pull_back)
    monkeypatch.setattr("dmlab.distortion._norms_and_leads", recording_rule)
    monkeypatch.setattr("dmlab.bodies._norms_and_leads", recording_rule)
    monkeypatch.setattr("dmlab.distortion._OPT_ITERS", 30)
    G = np.random.default_rng(0).standard_normal((1024, 12))
    _multistart(LpBall(float(p), 1024), G, 64, 0, -1)
    vals, accepted = evaluated[0], 0
    assert np.array_equal(evaluated[1], vals)
    for cvals in evaluated[2:]:
        accepted += int((cvals < vals).sum())
        vals = np.minimum(vals, cvals)
    assert len(evaluated) == 2 + 30 and 0 < accepted < 30 * (2 * 12 + 64)
    assert sum(pulled) == 2 * 12 + 64 + accepted


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


# Known answers.  On the unit sphere of R^d and for any orthogonal Q,
# ||Qx||_p runs over [1, d^(1/p - 1/2)] (reversed for p > 2), since Q maps
# the sphere onto itself: for p = inf, inf 1/sqrt(d) and sup 1; and when the
# rows of S are all 2^d sign patterns, ||Sx||_inf = ||x||_1, with inf 1 at the
# axes and sup sqrt(d).  An attained inf is at least the true inf and an
# attained sup at most the true sup, with 1e-12 relative slack for rounding.
def _orthogonal_map(name, d):
    if name == "identity":
        return np.eye(d)
    return np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]


def _sign_patterns(d):
    return np.array(list(product((-1.0, 1.0), repeat=d)))


@pytest.mark.parametrize("name", ["identity", "rotation"])
@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 8.0])
def test_multistart_meets_both_lp_extremes_on_orthogonal_maps(p, d, name):
    rep = measure_distortion(LpBall(p, d), _orthogonal_map(name, d), "multiStartOpt",
                             starts=64, seed=0)
    lo, hi = sorted((1.0, d ** (1 / p - 0.5)))
    assert abs(rep.inf_est - lo) <= 1e-9 * lo
    assert abs(rep.sup_est - hi) <= 1e-9 * hi
    assert lo * (1 - 1e-12) <= rep.inf_est and rep.sup_est <= hi * (1 + 1e-12)


@pytest.mark.parametrize("method", ["exactRowNorm", "multiStartOpt"])
@pytest.mark.parametrize("name", ["identity", "rotation"])
@pytest.mark.parametrize("d", [8, 16])
def test_linf_sup_on_orthogonal_maps_is_one(method, name, d):
    rep = measure_distortion(LpBall(math.inf, d), _orthogonal_map(name, d), method,
                             starts=64, seed=0)
    assert abs(rep.sup_est - 1.0) <= 1e-9
    assert rep.sup_est <= 1.0 + 1e-12
    # one-sided only: the descent stops 2-22% above 1/sqrt(d) on these maps
    assert rep.inf_est >= (1 - 1e-12) / math.sqrt(d)


@pytest.mark.parametrize("method", ["exactRowNorm", "multiStartOpt"])
@pytest.mark.parametrize("d", [4, 6])
def test_all_sign_patterns_map_the_sphere_onto_l1_norms(method, d):
    S = _sign_patterns(d)
    rep = measure_distortion(LpBall(math.inf, 2**d), S, method, starts=64, seed=0)
    if method == "exactRowNorm":
        assert abs(rep.sup_est - math.sqrt(d)) <= 1e-9 * math.sqrt(d)
    assert rep.sup_est <= math.sqrt(d) * (1 + 1e-12)
    assert rep.inf_est >= 1 - 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 8.0, math.inf])
def test_net_certified_brackets_the_known_answers_at_d_2(p):
    lo, hi = sorted((1.0, 2 ** (1 / p - 0.5)))
    for net in (build_sphere_net(2, 0.3, 10**4, 3), sphere_cover(2, 0.3)):
        for gamma in (_orthogonal_map("identity", 2), _orthogonal_map("rotation", 2)):
            rep = measure_distortion(LpBall(p, 2), gamma, "netCertified", net=net)
            assert rep.inf_est <= lo and rep.sup_est >= hi
        rep = measure_distortion(LpBall(math.inf, 4), _sign_patterns(2), "netCertified", net=net)
        assert rep.inf_est <= 1.0 and rep.sup_est >= math.sqrt(2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cover_bracket_holds_the_descent_inf_and_the_exact_sup(d):
    # productUniform at n = 64, m = 2n: the cover's bracket is a proven one, so
    # its lower end is at most any value the descent attains, and its upper end
    # at least the exact sup, the largest row norm.
    cover, body = sphere_cover(d, 0.3), LpBall(math.inf, 64)
    spec = product_spec("UniformPM1", "UniformPM1", n=64, d=d, m=128)
    for seed in range(20):
        gamma = sample_product(spec, seed)[0]
        rep = measure_distortion(body, gamma, "netCertified", net=cover)
        descent = measure_distortion(body, gamma, "exactRowNorm", seed=seed)
        assert rep.inf_est <= descent.inf_est
        assert rep.sup_est >= np.linalg.norm(gamma, axis=1).max() == descent.sup_est


@pytest.mark.parametrize("net", [sphere_cover(2, 0.3), sphere_cover(3, 0.3),
                                 sphere_cover(4, 0.3), build_sphere_net(3, 0.4, 20000, 7)],
                         ids=["cover-2", "cover-3", "cover-4", "greedy-3"])
def test_blocked_net_evaluation_matches_one_block(net, monkeypatch):
    body = LpBall(math.inf, 64)
    gamma = np.random.default_rng(net.size).standard_normal((64, net.dim))
    assert net.size <= _NET_BLOCK_BYTES // (8 * 64)  # one block at the default block size
    whole = measure_distortion(body, gamma, "netCertified", net=net)
    monkeypatch.setattr("dmlab.distortion._NET_BLOCK_BYTES", 3 * 8 * 64)  # three rows a block
    blocked = measure_distortion(body, gamma, "netCertified", net=net)
    assert (blocked.net_max, blocked.net_min) == (whole.net_max, whole.net_min)
    assert (blocked.sup_est, blocked.inf_est) == (whole.sup_est, whole.inf_est)


def test_net_certified_rejects_uncovered_net():
    net = build_sphere_net(5, 0.3, 50, 1)
    assert net.covering_radius_estimate > net.rho
    G = np.random.default_rng(0).standard_normal((16, 5))
    with pytest.raises(ValueError, match="covering"):
        measure_distortion(LpBall(2, 16), G, "netCertified", net=net, seed=0)


@pytest.mark.parametrize("rho", [1.0, 1.5])
def test_net_certified_rejects_rho_of_one_or_more(rho):
    # The slack rho M / (1 - rho) divides by zero at rho = 1 and is negative above.
    net = build_sphere_net(2, rho, 1000, 1)
    assert net.covering_radius_estimate <= net.rho  # refused for rho, not for coverage
    G = np.random.default_rng(0).standard_normal((16, 2))
    with pytest.raises(ValueError, match="rho < 1"):
        measure_distortion(LpBall(2, 16), G, "netCertified", net=net, seed=0)


def test_net_certified_keeps_nets_between_one_half_and_one():
    # Such a net's bracket may reach below zero, but its raw max and min are still read.
    G = np.random.default_rng(0).standard_normal((16, 2))
    for rho in (0.5, 0.75, 0.99):
        net = build_sphere_net(2, rho, 1000, 1)
        rep = measure_distortion(LpBall(2, 16), G, "netCertified", net=net, seed=0)
        assert rep.sup_est >= rep.net_max >= rep.net_min >= rep.inf_est
        assert rep.lipschitz_slack == pytest.approx(rho * rep.net_max / (1 - rho), rel=1e-15)


@pytest.mark.parametrize("starts", [-1, 0, 2.5, True, "8"])
@pytest.mark.parametrize("method, p", [("exactRowNorm", math.inf), ("multiStartOpt", 3.0)])
def test_starts_must_be_a_positive_integer(method, p, starts):
    G = np.random.default_rng(0).standard_normal((16, 3))
    with pytest.raises(ValueError, match="starts"):
        measure_distortion(LpBall(p, 16), G, method, starts=starts, seed=0)


def test_starts_accepts_numpy_integers():
    G = np.random.default_rng(0).standard_normal((16, 3))
    plain = measure_distortion(LpBall(3.0, 16), G, "multiStartOpt", starts=4, seed=0)
    wide = measure_distortion(LpBall(3.0, 16), G, "multiStartOpt", starts=np.int64(4), seed=0)
    assert (plain.sup_est, plain.inf_est) == (wide.sup_est, wide.inf_est)
    assert plain.sup_method == wide.sup_method == "multiStartOpt(4)"


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method, p", [("exactSpectral", 2.0), ("exactRowNorm", math.inf),
                                       ("multiStartOpt", 3.0), ("netCertified", 2.0)])
def test_non_finite_gamma_is_rejected(method, p, bad):
    G = np.random.default_rng(0).standard_normal((16, 2))
    G[5, 1] = bad
    net = build_sphere_net(2, 0.3, 1000, 1) if method == "netCertified" else None
    assert net is None or net.covering_radius_estimate <= net.rho
    with pytest.raises(ValueError, match="NaN or infinity"):
        measure_distortion(LpBall(p, 16), G, method, net=net, seed=0)


@pytest.mark.parametrize("gamma, method, p, shape", [
    (np.ones(16), "exactSpectral", 2.0, r"\(16,\)"),
    (np.ones((16, 0)), "exactRowNorm", math.inf, r"\(16, 0\)"),
], ids=["1-D", "n-by-0-rownorm"])
def test_gamma_must_be_a_nonempty_matrix(gamma, method, p, shape):
    with pytest.raises(ValueError, match=rf"Gamma must be nonempty and 2-D, not of shape {shape}"):
        measure_distortion(LpBall(p, 16), gamma, method, starts=4, seed=0)


@pytest.mark.parametrize("M, match", [
    (np.where(np.eye(4) == 1.0, np.nan, 1.0), "matrix must be finite, with no NaN or infinity"),
    (np.ones(5), r"matrix must be nonempty and 2-D, not of shape \(5,\)"),
    (np.ones((5, 0)), r"matrix must be nonempty and 2-D, not of shape \(5, 0\)"),
], ids=["nan", "1-D", "n-by-0"])
def test_witness_rejects_a_bad_matrix(M, match):
    with pytest.raises(ValueError, match=match):
        adversarial_linf_witness(M)


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


def test_measure_distortion_rejects_a_mismatched_net_and_an_unknown_method():
    gamma = np.random.default_rng(0).standard_normal((16, 3))
    body = LpBall(math.inf, 16)
    net = build_sphere_net(2, 0.3, 200, seed=0)
    with pytest.raises(ValueError, match="^net dimension 2 does not match Gamma columns 3$"):
        measure_distortion(body, gamma, "netCertified", net=net)
    with pytest.raises(ValueError, match="^unknown distortion method 'bogus'$"):
        measure_distortion(body, gamma, "bogus")


@pytest.mark.parametrize("starts", [0, True, 2.5])
def test_measure_distortion_takes_an_integer_start_count(starts):
    gamma = np.random.default_rng(0).standard_normal((16, 3))
    with pytest.raises(ValueError, match="multiStartOpt needs starts to be an integer >= 1"):
        measure_distortion(LpBall(3.0, 16), gamma, "multiStartOpt", starts=starts)
