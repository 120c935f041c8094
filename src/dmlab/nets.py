"""Sphere nets, a proven cover and a greedy packing, and farthest-first subsets.

`sphere_cover` maps a grid of cell centers on the cube's faces onto the sphere,
with a proven covering radius; the runner's `netCertified` sweeps use it.
`build_sphere_net` is a maximal rho-separated subset of axis points plus random
sphere points: separated by construction, but its covering radius is estimated
on a fresh probe sample, and `measure_distortion` refuses one above rho.

The greedy pass rejects candidates in blocks: one matmul against the points
accepted so far drops every candidate of a block that an earlier accept
already rules out, and a short filter loop runs on the survivors.  Block
rejection is exact because the accepted set only grows: a candidate too close
to an earlier accept is rejected by the one-at-a-time pass too, and the first
survivor of a block is always that pass's next accept.  The accepted set is
therefore the sequential greedy's, point for point and in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dmlab.seeding import _check_count, _check_matrix, child_seed

_NET_BLOCK = 8192  # candidates rejected per matmul in build_sphere_net
_PROBE_BUDGET = 8192  # fresh sphere points probing the covering radius
_COVER_CAP = 1 << 20  # most points sphere_cover builds


@dataclass(frozen=True, eq=False)
class SphereNet:
    dim: int
    rho: float
    points: np.ndarray              # (size, dim), unit rows
    covering_radius_estimate: float

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _sphere_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` uniform points of the unit sphere (a zero draw stays zero)."""
    X = rng.standard_normal((count, dim))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    X /= norms
    return X


def sphere_cover(dim: int, rho: float) -> SphereNet:
    """Cover of the unit sphere of R^dim with proven covering radius r <= rho.

    The 2 dim faces of [-1, 1]^dim are split into k^(dim-1) cells of side 2/k,
    k = ceil(sqrt(dim-1)/rho).  A face point is within r = sqrt(dim-1)/k of its
    cell's center, and x -> x/||x||, the metric projection onto the unit ball,
    is 1-Lipschitz for ||x|| >= 1: the images cover at r, the `covering_radius_estimate`.
    """
    _check_count(dim, "dim must be >= 1")
    if not rho > 0.0:
        raise ValueError("rho must be > 0")
    half_diag = math.sqrt(dim - 1)
    k = max(1, math.ceil(min(half_diag / rho, _COVER_CAP)))  # an inf quotient has no ceil
    k += half_diag / k > rho  # a quotient rounded down onto the integer k
    if math.log2(2 * dim) + (dim - 1) * math.log2(k) > math.log2(_COVER_CAP):  # no huge int
        raise ValueError(f"a cover of 2*{dim}*{k}^{dim - 1} points exceeds the cap {_COVER_CAP}")
    grid = (2.0 * np.indices((k,) * (dim - 1)).reshape(dim - 1, k ** (dim - 1)).T + 1.0) / k - 1.0
    points = np.concatenate([np.insert(grid, i, s, axis=1) for i in range(dim) for s in (1.0, -1.0)])
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return SphereNet(dim=dim, rho=rho, points=points, covering_radius_estimate=half_diag / k)


def build_sphere_net(
    dim: int,
    rho: float,
    candidate_budget: int,
    seed: int,
) -> SphereNet:
    """Greedy packing over axis seeds plus `candidate_budget` random points.

    A candidate is accepted iff it is at least rho from every earlier accept,
    tested via inner products (dist >= rho iff <x,y> <= 1 - rho^2/2).  The
    accepted set is deterministic in (dim, rho, candidate_budget, seed); the
    module docstring shows why rejecting in blocks of `_NET_BLOCK` keeps it
    the one-at-a-time greedy's.
    """
    _check_count(dim, "dim must be >= 1")
    if not 0.0 < rho <= 2.0:
        raise ValueError("rho must be in (0, 2]")
    _check_count(candidate_budget, "candidate_budget must be >= 1")

    rng = np.random.default_rng(child_seed(seed, 0))
    axes = np.repeat(np.eye(dim), 2, axis=0)   # e_1, -e_1, e_2, -e_2, ...
    axes[1::2] -= 2.0 * np.eye(dim)
    candidates = np.concatenate([axes, _sphere_points(rng, candidate_budget, dim)], axis=0)

    dot_cap = 1.0 - rho * rho / 2.0
    accepted = np.empty_like(candidates)
    count = 0
    for start in range(0, candidates.shape[0], _NET_BLOCK):
        block = candidates[start:start + _NET_BLOCK]
        if count:
            block = block[(block @ accepted[:count].T).max(axis=1) <= dot_cap]
        while block.shape[0]:
            accepted[count] = block[0]
            count += 1
            block = block[1:][block[1:] @ block[0] <= dot_cap]
    points = accepted[:count].copy()

    # Volumetric bound holds for any rho-separated subset of the sphere.
    assert math.log(count) <= dim * math.log(5.0 / rho) + 1e-9, \
        "packing exceeded the volumetric bound"

    probes = _sphere_points(np.random.default_rng(child_seed(seed, 1)), _PROBE_BUDGET, dim)
    best_dot = (probes @ points.T).max(axis=1)
    covering = float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * best_dot)).max())

    return SphereNet(dim=dim, rho=rho, points=points, covering_radius_estimate=covering)


def farthest_first(dist_from, start: int, limit: int) -> tuple[list, np.ndarray]:
    """Gonzalez's farthest-first traversal (greedy k-center) from `start`.

    `dist_from(i)` gives every point's distance to point i.  Stops at `limit`
    points or when only duplicates of selected points remain.  Returns the
    selection order and the nonincreasing insertion radii (inf for `start`).
    """
    order = [start]
    radii = [np.inf]
    dmin = dist_from(start)
    while len(order) < limit:
        i = int(np.argmax(dmin))
        if dmin[i] <= 0.0:
            break
        order.append(i)
        radii.append(dmin[i])
        dmin = np.minimum(dmin, dist_from(i))
    return order, np.array(radii)


def pajor_subset(points, max_size: int) -> np.ndarray:
    """Farthest-first subset that preserves most of the gaussian supremum.

    Every new point is the farthest from the current selection, until
    `max_size` points or all distinct points are selected, so for any
    epsilon the prefix whose insertion distances are >= epsilon is a maximal
    epsilon-separated core.  Exact duplicates are never selected (points must
    be finite: a NaN point, at distance NaN from all, would be picked again and
    again).  Returned in selection order; prefixes nest across max_size values.
    """
    _check_count(max_size, "max_size must be >= 1")
    P = _check_matrix(np.atleast_2d(points), "points")
    order, _ = farthest_first(lambda i: np.linalg.norm(P - P[i], axis=1), 0, max_size)
    return P[np.array(order)]
