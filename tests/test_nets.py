import math

import numpy as np
import pytest

from dmlab.nets import _NET_BLOCK, _sphere_points, build_sphere_net, pajor_subset, sphere_cover
from dmlab.seeding import child_seed


def _sequential_greedy(candidates, rho):
    """Reference: the one-candidate-at-a-time greedy pass."""
    dot_cap = 1.0 - rho * rho / 2.0
    accepted = np.empty_like(candidates)
    count = 0
    for c in candidates:
        if count == 0 or (accepted[:count] @ c).max() <= dot_cap:
            accepted[count] = c
            count += 1
    return accepted[:count].copy()


def _candidates(dim, budget, seed):
    """The candidate pool build_sphere_net draws: axis points, then sphere points."""
    rng = np.random.default_rng(child_seed(seed, 0))
    axes = np.zeros((2 * dim, dim))
    for i in range(dim):
        axes[2 * i, i] = 1.0
        axes[2 * i + 1, i] = -1.0
    rand = rng.standard_normal((budget, dim))
    norms = np.linalg.norm(rand, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rand /= norms
    return np.concatenate([axes, rand], axis=0)


def _covering(points, dim, seed, probe_budget=8192):
    probe_rng = np.random.default_rng(child_seed(seed, 1))
    probes = probe_rng.standard_normal((probe_budget, dim))
    pn = np.linalg.norm(probes, axis=1, keepdims=True)
    pn[pn == 0.0] = 1.0
    probes /= pn
    best_dot = (probes @ points.T).max(axis=1)
    return float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * best_dot)).max())


@pytest.mark.parametrize("dim,rho,budget,seed", [
    (1, 1.0, 100, 0),
    (2, 0.5, _NET_BLOCK // 2, 3),
    (3, 0.4, 3 * _NET_BLOCK + 517, 11),
    (2, 0.3, 4 * 10**5, 5),
    (3, 0.5, 10**6, 0),
    (5, 0.5, 4 * 10**5, 1234),
    (6, 0.2, 10, 3),
])
def test_blocked_net_matches_sequential_greedy(dim, rho, budget, seed):
    net = build_sphere_net(dim, rho, budget, seed)
    want = _sequential_greedy(_candidates(dim, budget, seed), rho)
    assert np.array_equal(net.points, want)
    assert net.covering_radius_estimate == _covering(want, dim, seed)


def test_zero_sphere():
    net = build_sphere_net(1, 1.0, 100, 0)
    assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]
    assert net.covering_radius_estimate == 0.0


def test_circle_packing_count_and_separation():
    net = build_sphere_net(2, 0.5, 50000, 1)
    P = net.points
    assert np.allclose(np.linalg.norm(P, axis=1), 1.0, atol=1e-12)
    D = np.linalg.norm(P[:, None] - P[None, :], axis=2)
    np.fill_diagonal(D, 10.0)
    assert D.min() >= 0.5
    # greedy maximal packings on the circle land between the maximality floor
    # (gap < 2 rho) and the volumetric cap
    assert 7 <= net.size <= 100
    assert net.size <= math.exp(2 * math.log(5 / 0.5))


@pytest.mark.parametrize("d,rho", [(2, 0.4), (3, 0.6), (4, 0.9)])
def test_separation_invariant(d, rho):
    net = build_sphere_net(d, rho, 20000, 7)
    D = np.linalg.norm(net.points[:, None] - net.points[None, :], axis=2)
    np.fill_diagonal(D, 10.0)
    assert D.min() >= rho - 1e-12
    assert math.log(net.size) <= d * math.log(5 / rho) + 1e-9


def test_covering_at_large_budget():
    # maximality w.r.t. a dense pool keeps the covering radius below rho
    misses = 0
    for seed in range(20):
        net = build_sphere_net(3, 0.5, 10**6, seed)
        if net.covering_radius_estimate > 0.5:
            misses += 1
    assert misses == 0


def test_small_budget_leaves_sphere_uncovered():
    net = build_sphere_net(6, 0.2, 10, 3)
    assert net.covering_radius_estimate > 0.2


def test_build_validation():
    with pytest.raises(ValueError):
        build_sphere_net(0, 0.5, 10, 0)
    with pytest.raises(ValueError):
        build_sphere_net(2, 0.0, 10, 0)
    with pytest.raises(ValueError):
        build_sphere_net(2, 2.5, 10, 0)
    with pytest.raises(ValueError):
        build_sphere_net(2, 0.5, 0, 0)


# (dim, rho, point count 2 dim k^(dim-1) with k = ceil(sqrt(dim-1)/rho))
_COVER_GRID = [(2, 0.3, 16), (3, 0.3, 150), (3, 0.45, 96), (4, 0.3, 1728), (5, 0.5, 2560)]


@pytest.mark.parametrize("dim,rho,size", _COVER_GRID)
def test_sphere_cover_size_norms_and_proven_radius(dim, rho, size):
    cover = sphere_cover(dim, rho)
    k = math.ceil(math.sqrt(dim - 1) / rho)
    assert cover.size == size == 2 * dim * k ** (dim - 1)
    assert (cover.dim, cover.rho, cover.points.shape) == (dim, rho, (size, dim))
    assert np.abs(np.linalg.norm(cover.points, axis=1) - 1.0).max() <= 1e-15
    assert cover.covering_radius_estimate == math.sqrt(dim - 1) / k <= rho


@pytest.mark.parametrize("dim,rho,size", _COVER_GRID)
def test_sphere_cover_is_within_its_radius_of_every_probe(dim, rho, size):
    cover = sphere_cover(dim, rho)
    probes = _sphere_points(np.random.default_rng(dim), 10**5, dim)
    best_dot = np.concatenate([(probes[i:i + 2048] @ cover.points.T).max(axis=1)
                               for i in range(0, len(probes), 2048)])
    farthest = float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * best_dot)).max())
    assert 0.5 * cover.covering_radius_estimate < farthest <= cover.covering_radius_estimate


def test_sphere_cover_radius_holds_where_the_quotient_rounds_onto_an_integer():
    # 1/rho rounds to 5.0, but 1/5 > rho: five cells a face would miss rho
    rho = math.nextafter(0.2, 0.0)
    cover = sphere_cover(2, rho)
    assert cover.size == 2 * 2 * 6 and cover.covering_radius_estimate <= rho


def test_sphere_cover_of_the_zero_sphere():
    cover = sphere_cover(1, 0.3)
    assert cover.points.tolist() == [[1.0], [-1.0]]
    assert cover.covering_radius_estimate == 0.0


@pytest.mark.parametrize("rho", [0.0, -0.5, math.nan])
def test_sphere_cover_rejects_a_nonpositive_rho(rho):
    with pytest.raises(ValueError, match=r"^rho must be > 0$"):
        sphere_cover(3, rho)


def test_sphere_cover_refuses_above_the_cap_before_allocating():
    # 2*30*539^29 points: no array of that size fits in any memory
    with pytest.raises(ValueError, match=r"^a cover of 2\*30\*539\^29 points exceeds the cap"):
        sphere_cover(30, 0.01)
    with pytest.raises(ValueError, match="exceeds the cap"):  # sqrt(2)/rho overflows to inf
        sphere_cover(3, 1e-310)
    # at dim 2 the cap 2^20 is k = 2^18 cells a face: one more cell per face refuses
    assert sphere_cover(2, 2.0**-18).size == 2**20
    with pytest.raises(ValueError, match=r"^a cover of 2\*2\*262145\^1 points"):
        sphere_cover(2, 1 / (2**18 + 1))


def test_pajor_removes_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    sub = pajor_subset(pts, 10)
    assert sub.shape == (3, 2)
    assert len({tuple(r) for r in sub}) == 3


def test_pajor_singleton():
    sub = pajor_subset(np.zeros((1, 4)), 5)
    assert sub.shape == (1, 4)
    assert np.all(sub == 0.0)


def test_pajor_monotone_in_max_size():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((200, 5))
    small = pajor_subset(pts, 20)
    big = pajor_subset(pts, 60)
    assert np.array_equal(big[:20], small)


def test_pajor_separated_core():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((300, 6))
    eps = 4.0
    sub = pajor_subset(pts, 300)
    # the prefix with insertion radius >= eps is eps-separated and maximal:
    # insertion radii are nonincreasing, so find the core length directly
    radii = [np.inf]
    dmin = np.linalg.norm(pts - sub[0], axis=1)
    for p in sub[1:]:
        i = int(np.argmin(np.linalg.norm(pts - p, axis=1)))
        radii.append(dmin[i])
        dmin = np.minimum(dmin, np.linalg.norm(pts - pts[i], axis=1))
    core = sum(1 for r in radii if r >= eps)
    coreD = np.linalg.norm(sub[:core, None] - sub[None, :core], axis=2)
    np.fill_diagonal(coreD, 10.0)
    assert coreD.min() >= eps


def test_pajor_validation():
    with pytest.raises(ValueError):
        pajor_subset(np.zeros((2, 2)), 0)


def test_pajor_subset_rejects_empty_points():
    with pytest.raises(ValueError, match="points must be nonempty"):
        pajor_subset(np.zeros((0, 3)), 2)
    # Every distance to a NaN point is NaN, so farthest-first would pick it again and again.
    with pytest.raises(ValueError, match="points must be finite"):
        pajor_subset([[math.nan, 0.0], [1.0, 0.0], [0.0, 1.0]], 3)


@pytest.mark.parametrize("call, match", [
    (lambda: pajor_subset(np.eye(3), True), "max_size must be >= 1"),
    (lambda: pajor_subset(np.eye(3), 2.5), "max_size must be >= 1"),
    (lambda: build_sphere_net(2.0, 0.5, 10, seed=0), "dim must be >= 1"),
    (lambda: build_sphere_net(True, 0.5, 10, seed=0), "dim must be >= 1"),
    (lambda: build_sphere_net(2, 0.5, 10.5, seed=0), "candidate_budget must be >= 1"),
    (lambda: build_sphere_net(2, 0.5, True, seed=0), "candidate_budget must be >= 1"),
    (lambda: sphere_cover(2.0, 0.5), "dim must be >= 1"),
    (lambda: sphere_cover(True, 0.5), "dim must be >= 1"),
    (lambda: sphere_cover(0, 0.5), "dim must be >= 1"),
], ids=["pajor-bool", "pajor-float", "net-dim-float", "net-dim-bool", "net-budget-float",
        "net-budget-bool", "cover-dim-float", "cover-dim-bool", "cover-dim-zero"])
def test_counts_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()
