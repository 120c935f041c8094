"""Distortion of x -> ||Gamma x||_K over the unit sphere of R^d.

Four estimators, each labeled in the report so downstream comparisons never
mix certified and heuristic numbers.  The two exact ones need the LpBall p
that `EXACT_METHOD_P` names, the one table the config parser checks too:

  exactSpectral  LpBall(2, n) bodies; the extremes are the singular values.
  exactRowNorm   LpBall(inf, n) bodies; the supremum equals the largest row
                 norm of Gamma (sup_x max_i <row_i, x> = max_i ||row_i||_2).
                 The infimum comes from the optimizer.
  netCertified   evaluates the norm on a separated sphere net and applies the
                 convexity correction: with M = net max and slack
                 s = rho * M / (1 - rho), [net min - s, net max + s] brackets
                 the true [inf, sup].  True bounds, practical only for small d;
                 refused when the net's probed covering radius exceeds rho.
  multiStartOpt  projected subgradient ascent/descent from random plus axis
                 starts with per-start step halving; a start retires once
                 its step is below 1e-12.  Heuristic on both sides.

The cube witness reproduces the failure mode of a single sign-symmetric
matrix on the sup side: aligning signs with the heaviest row inflates
||M x||_inf to order sqrt(d) while the first coordinate direction stays O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dmlab.bodies import ConvexBody, DiagonalImage, LpBall, PolarPolytope, norm_many
from dmlab.events import singular_extremes
from dmlab.nets import SphereNet
from dmlab.seeding import child_seed

_PHI_FLOOR = 1e-300
_OPT_ITERS = 500  # iteration cap of each multi-start descent in measure_distortion

# The LpBall p that each exact method needs.
EXACT_METHOD_P = {"exactSpectral": 2.0, "exactRowNorm": math.inf}


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


def _pullback_subgradients(body: ConvexBody, P: np.ndarray, gamma: np.ndarray,
                           norms: np.ndarray) -> np.ndarray:
    """Rows of d/dx ||Gamma x||_K at points x with P = X @ Gamma^T.

    `norms` holds norm_many(body, P), which the caller already has.
    """
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            idx = np.argmax(np.abs(P), axis=1)
            sgn = np.sign(P[np.arange(P.shape[0]), idx])
            sgn[sgn == 0.0] = 1.0
            return sgn[:, None] * gamma[idx, :]
        if body.p == 1.0:
            return np.sign(P) @ gamma
        safe = np.where(norms > 0.0, norms, 1.0)
        if body.p == 2.0:
            g_y = P / safe[:, None]
        else:
            g_y = np.sign(P) * (np.abs(P) / safe[:, None]) ** (body.p - 1.0)
        return g_y @ gamma
    if isinstance(body, PolarPolytope):
        idx = np.argmax(P @ body.dual_vertices.T, axis=1)
        return body.dual_vertices[idx] @ gamma
    if isinstance(body, DiagonalImage):
        return _pullback_subgradients(body.base, P / body.scales, gamma / body.scales[:, None],
                                      norms)
    raise TypeError(f"unsupported body {type(body).__name__}")


def _multistart(body: ConvexBody, gamma: np.ndarray, starts: int, seed: int,
                mode: int, iters: int = _OPT_ITERS) -> float:
    """Best value found by projected subgradient ascent (+1) or descent (-1).

    P = X @ Gamma^T is kept for every start and updated from the candidate
    projections of accepted steps; a start retires once its step falls below
    1e-12, and only active starts are stepped and evaluated.
    """
    d = gamma.shape[1]
    rng = np.random.default_rng(seed)
    axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    rand = rng.standard_normal((starts, d))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    X = np.concatenate([axes, rand], axis=0)
    P = X @ gamma.T
    vals = norm_many(body, P)
    step = np.full(X.shape[0], 0.5)
    active = np.arange(X.shape[0])
    for _ in range(iters):
        G = _pullback_subgradients(body, P[active], gamma, vals[active])
        cand = X[active] + mode * step[active, None] * G
        cn = np.linalg.norm(cand, axis=1, keepdims=True)
        cn[cn == 0.0] = 1.0
        cand /= cn
        cand_p = cand @ gamma.T
        cvals = norm_many(body, cand_p)
        better = cvals > vals[active] if mode > 0 else cvals < vals[active]
        moved = active[better]
        X[moved] = cand[better]
        P[moved] = cand_p[better]
        vals[moved] = cvals[better]
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
    gamma = np.asarray(gamma, dtype=float)
    n, d = gamma.shape
    if body.n != n:
        raise ValueError(f"body dimension {body.n} does not match Gamma rows {n}")
    need_p = EXACT_METHOD_P.get(method)
    if need_p is not None and not (isinstance(body, LpBall) and body.p == need_p):
        raise ValueError(f"{method} requires an LpBall({need_p:g}, n) body")

    extras: dict = {}
    if method == "exactSpectral":
        inf_est, sup_est = singular_extremes(gamma)
        sup_method = inf_method = "exactSpectral"

    elif method in ("exactRowNorm", "multiStartOpt"):
        sup_method = inf_method = f"multiStartOpt({starts})"
        if method == "exactRowNorm":
            sup_est, sup_method = float(np.linalg.norm(gamma, axis=1).max()), "exactRowNorm"
        else:
            sup_est = _multistart(body, gamma, starts, child_seed(seed, 0), +1)
        inf_est = _multistart(body, gamma, starts, child_seed(seed, 1), -1)

    elif method == "netCertified":
        if net is None:
            raise ValueError("netCertified requires a sphere net")
        if net.dim != d:
            raise ValueError(f"net dimension {net.dim} does not match Gamma columns {d}")
        if net.covering_radius_estimate > net.rho:
            raise ValueError("net covering radius exceeds rho; certification unavailable")
        vals = norm_many(body, net.points @ gamma.T)
        net_max, net_min = float(vals.max()), float(vals.min())
        slack = net.rho * net_max / (1.0 - net.rho)
        sup_est = net_max + slack
        inf_est = net_min - slack
        assert sup_est >= net_max and inf_est <= net_min, "slack must widen the bracket"
        sup_method = inf_method = f"netCertified(rho={net.rho:g},size={net.size})"
        extras.update(net_max=net_max, net_min=net_min, lipschitz_slack=slack)

    else:
        raise ValueError(f"unknown distortion method {method!r}")

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
    M = np.asarray(M, dtype=float)
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
