"""Distortion of x -> ||Gamma x||_K over the unit sphere of R^d.

Four estimators, each labeled in the report so downstream comparisons never
mix certified and heuristic numbers.  The table `METHODS` gives each one's
row: the LpBall p it needs (the two exact ones need one) and the config
fields it reads.  The config parser reads the same table.

  exactSpectral  LpBall(2, n) bodies; the extremes are the singular values.
  exactRowNorm   LpBall(inf, n) bodies; the supremum equals the largest row
                 norm of Gamma (sup_x max_i <row_i, x> = max_i ||row_i||_2).
                 The infimum comes from the optimizer.
  netCertified   evaluates the norm on a sphere net of covering radius rho < 1
                 and applies the convexity correction: with M = net max and
                 slack s = rho * M / (1 - rho), [net min - s, net max + s]
                 brackets the true [inf, sup].  Runs use `sphere_cover`, of proven
                 radius; a caller's greedy net is refused if its probed radius exceeds rho.
  multiStartOpt  projected subgradient ascent/descent from random plus axis
                 starts, with one evaluation of the body per step; a start
                 halves its step on every rejected move and retires once the
                 step is below 1e-12.  Heuristic on both sides.

The cube witness reproduces the failure mode of a single sign-symmetric
matrix on the sup side: aligning signs with the heaviest row inflates
||M x||_inf to order sqrt(d) while the first coordinate direction stays O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dmlab.bodies import ConvexBody, LpBall, _norms_and_leads, _pull_back, norm_many
from dmlab.events import singular_extremes
from dmlab.nets import SphereNet, _sphere_points
from dmlab.seeding import _check_count, _check_matrix, child_seed

_PHI_FLOOR = 1e-300
_OPT_ITERS = 500  # iteration cap of each multi-start descent in measure_distortion
_NET_BLOCK_BYTES = 1 << 21  # per block of net points mapped by Gamma in netCertified

# method -> (the LpBall p it needs, or None for any body; the distortionMethod
# fields it takes besides `method`; netCertified's candidateBudget is accepted, unread).
METHODS = {
    "exactSpectral": (2.0, ()),
    "exactRowNorm": (math.inf, ("starts",)),
    "netCertified": (None, ("rho", "candidateBudget")),
    "multiStartOpt": (None, ("starts",)),
}


@dataclass(frozen=True, eq=False)
class DistortionReport:
    sup_est: float
    inf_est: float
    sup_method: str
    inf_method: str
    ratio: float
    net_max: float | None = None
    net_min: float | None = None
    lipschitz_slack: float | None = None


def _multistart(body: ConvexBody, gamma: np.ndarray, starts: int, seed: int,
                mode: int) -> float:
    """Best value found by projected subgradient ascent (+1) or descent (-1).

    Each start keeps its point x, value ||Gamma x||_K and pulled-back
    subgradient G, all in R^d.  Each step evaluates the body once on the active
    starts' candidates, for their norms and leads; only the accepted ones are
    pulled back, from their leads.  A start retires once its step is below
    1e-12.  Only the starts' evaluation checks its input (the candidates are
    unit vectors mapped by the same Gamma); their leads take a second pass.
    """
    d = gamma.shape[1]
    axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    X = np.concatenate([axes, _sphere_points(np.random.default_rng(seed), starts, d)], axis=0)
    P = X @ gamma.T
    vals = norm_many(body, P)
    G = _pull_back(body, _norms_and_leads(body, P)[1], gamma)
    del P  # the loop holds only its own product, one per step
    step = np.full(X.shape[0], 0.5)
    active = np.arange(X.shape[0])
    for _ in range(_OPT_ITERS):
        cand = X[active] + mode * step[active, None] * G[active]
        cn = np.linalg.norm(cand, axis=1, keepdims=True)
        cn[cn == 0.0] = 1.0
        cand /= cn
        cvals, lead = _norms_and_leads(body, cand @ gamma.T)
        better = cvals > vals[active] if mode > 0 else cvals < vals[active]
        moved = active[better]
        X[moved] = cand[better]
        vals[moved] = cvals[better]
        G[moved] = _pull_back(body, tuple(a[better] for a in lead), gamma)
        step[active[~better]] *= 0.5
        active = active[step[active] >= 1e-12]
        if active.size == 0:
            break
    return float(vals.max() if mode > 0 else vals.min())


def measure_distortion(
    body: ConvexBody,
    gamma,
    method: str,
    net: SphereNet | None = None,
    starts: int = 32,
    seed: int = 0,
) -> DistortionReport:
    """Sup/inf of ||Gamma x||_K over the unit sphere of R^d, with method tags."""
    gamma = _check_matrix(gamma, "Gamma")
    n, d = gamma.shape
    if body.n != n:
        raise ValueError(f"body dimension {body.n} does not match Gamma rows {n}")
    if method not in METHODS:
        raise ValueError(f"unknown distortion method {method!r}")
    need_p = METHODS[method][0]
    if need_p is not None and not (isinstance(body, LpBall) and body.p == need_p):
        raise ValueError(f"{method} requires an LpBall({need_p:g}, n) body")

    extras: dict = {}
    if method == "exactSpectral":
        inf_est, sup_est = singular_extremes(gamma)
        sup_method = inf_method = "exactSpectral"

    elif method in ("exactRowNorm", "multiStartOpt"):
        _check_count(starts, f"{method} needs starts to be an integer >= 1, got {starts!r}")
        sup_method = inf_method = f"multiStartOpt({starts})"
        if method == "exactRowNorm":
            sup_est, sup_method = float(np.linalg.norm(gamma, axis=1).max()), "exactRowNorm"
        else:
            sup_est = _multistart(body, gamma, starts, child_seed(seed, 0), +1)
        inf_est = _multistart(body, gamma, starts, child_seed(seed, 1), -1)

    else:  # netCertified
        if net is None:
            raise ValueError("netCertified requires a sphere net")
        if net.dim != d:
            raise ValueError(f"net dimension {net.dim} does not match Gamma columns {d}")
        if not net.rho < 1.0:
            raise ValueError(f"netCertified needs a net with rho < 1, got {net.rho:g}")
        if net.covering_radius_estimate > net.rho:
            raise ValueError("net covering radius exceeds rho; certification unavailable")
        net_max, net_min, rows = -math.inf, math.inf, max(1, _NET_BLOCK_BYTES // (8 * n))
        for start in range(0, net.size, rows):  # running extremes, one block at a time
            vals = norm_many(body, net.points[start:start + rows] @ gamma.T)
            net_max, net_min = max(net_max, float(vals.max())), min(net_min, float(vals.min()))
        slack = net.rho * net_max / (1.0 - net.rho)
        sup_est = net_max + slack
        inf_est = net_min - slack
        sup_method = inf_method = f"netCertified(rho={net.rho:g},size={net.size})"
        extras.update(net_max=net_max, net_min=net_min, lipschitz_slack=slack)

    ratio = sup_est / inf_est if inf_est > 0.0 else math.inf
    return DistortionReport(sup_est=sup_est, inf_est=inf_est, sup_method=sup_method,
                            inf_method=inf_method, ratio=ratio, **extras)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    eta: np.ndarray
    phi_witness: float
    phi_e1: float
    ratio: float


def adversarial_linf_witness(M) -> WitnessReport:
    """Sign-aligned direction that inflates ||M x||_inf versus the e_1 probe.

    i_star is the row of largest l1 mass; eta carries its signs (zeros map to
    +1); the witness value is ||M (eta/sqrt(d))||_inf against ||M e_1||_inf.
    """
    M = _check_matrix(M, "matrix")
    n, d = M.shape
    i_star = int(np.argmax(np.abs(M).sum(axis=1)))
    eta = np.where(M[i_star] >= 0.0, 1.0, -1.0)
    phi_w = float(np.abs(M @ (eta / math.sqrt(d))).max())
    phi_e1 = float(np.abs(M[:, 0]).max())
    if phi_e1 < _PHI_FLOOR:
        ratio = math.inf if phi_w > 0.0 else 0.0
    else:
        ratio = phi_w / phi_e1
    return WitnessReport(eta=eta, phi_witness=phi_w, phi_e1=phi_e1, ratio=ratio)
