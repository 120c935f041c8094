"""Separated point sets: greedy sphere nets and farthest-first subsets.

A rho-net here is a maximal rho-separated subset of the candidate pool (axis
points plus uniform random sphere points), so separation is certified by
construction while maximality with respect to the whole sphere is only
approximate; the covering radius is estimated on a fresh probe sample, and
`measure_distortion` refuses to certify with a net whose estimate exceeds rho.

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

from dmlab.seeding import child_seed

_NET_BLOCK = 8192  # candidates rejected per matmul in build_sphere_net
_PROBE_BUDGET = 8192  # fresh sphere points probing the covering radius


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


def build_sphere_net(
    dim: int,
    rho: float,
    candidate_budget: int,
    seed: int,
) -> SphereNet:
    """Greedy packing over axis seeds plus `candidate_budget` random points.

    A candidate is accepted iff it is at least rho from every earlier accept,
    tested via inner products (dist >= rho iff <x,y> <= 1 - rho^2/2).  The
    accepted set is deterministic in (dim, rho, candidate_budget, seed).

    Candidates are walked in blocks of `_NET_BLOCK`.  One matmul drops every
    block candidate within rho of an earlier accept; then the first survivor
    is accepted and every later survivor within rho of it is dropped, until
    the block is empty.  Accepts are never revoked, so this rejects exactly
    what the one-candidate-at-a-time greedy rejects, and the accepted points
    are the sequential greedy's, in its order.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 < rho <= 2.0:
        raise ValueError("rho must be in (0, 2]")
    if candidate_budget < 1:
        raise ValueError("candidate_budget must be >= 1")

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


def pajor_subset(points, epsilon: float, max_size: int) -> np.ndarray:
    """Farthest-first subset that preserves most of the gaussian supremum.

    The traversal first exhausts the maximal epsilon-separated core (every
    new point is the farthest from the current selection, accepted while its
    distance is >= epsilon), then keeps extending in the same farthest-first
    order until `max_size` points or all distinct points are selected.  Exact
    duplicates are never selected.  Returned in selection order; prefixes are
    nested across max_size values.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.size == 0:
        raise ValueError("points must be nonempty")
    order, _ = farthest_first(lambda i: np.linalg.norm(P - P[i], axis=1), 0, max_size)
    return P[np.array(order)]
