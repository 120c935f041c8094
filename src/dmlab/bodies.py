"""Convex bodies: norm evaluation, polar data, mean width, critical dimension.

A body K here is always centrally symmetric, so it is the unit ball of a norm
||.||_K, evaluated through the polar body: ||x||_K = sup over t in the polar
of <x, t>, and a maximizing t is a subgradient at x.  Every rule that depends
on the family lives in this module, and one pass over P = X Gamma^T gives both
the norms and the leads of the subgradients.  Three families are supported:

  * LpBall(p, n)        -- unit ball of l_p; polar data is the Hoelder
                           conjugate ball, kept implicit (never materialized).
                           The subgradient is sign(x) (|x| / ||x||_p)^(p-1),
                           or sign(x_i) e_i at the first largest |x_i| if p = inf.
                           One rule serves every finite p: numpy evaluates the
                           powers 1, 2 and 1/2 exactly as abs-sum, square and
                           sqrt, so p = 1 and p = 2 need no branch of their own.
  * PolarPolytope(V)    -- body whose polar is conv(V u -V); the norm is the
                           max inner product against the stored vertices.
  * DiagonalImage(K, s) -- diag(s) K for positive scales s; the norm and the
                           subgradient rescale coordinates and defer to the base.

The two derived constants are the gaussian mean width ell(K) = E ||G||_K and
the critical dimension dStar = (ell(K) / sup_{t in polar} ||t||_2)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from dmlab.seeding import _check_count, _check_matrix, mc_mean

_AUTO_MC_TRIALS = 20000  # Monte-Carlo samples of mean_width_auto
_QUAD_PANELS = 64        # equal panels of the Gauss-Legendre rule of mean_width
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)  # on [-1, 1], built at import
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True, eq=False)
class LpBall:
    p: float
    n: int

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        _check_count(self.n, "ambient dimension must be positive")


@dataclass(frozen=True, eq=False)
class PolarPolytope:
    """Stores the symmetrized dual vertex list; use `polar_polytope` to build."""

    dual_vertices: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class DiagonalImage:
    base: "ConvexBody"
    scales: np.ndarray

    @property
    def n(self) -> int:
        return self.base.n


ConvexBody = Union[LpBall, PolarPolytope, DiagonalImage]


def polar_polytope(dual_vertices) -> PolarPolytope:
    """Body whose polar is the symmetric hull of `dual_vertices` (k x n)."""
    V = _check_matrix(np.atleast_2d(dual_vertices), "dual vertices")
    sym = np.unique(np.concatenate([V, -V], axis=0), axis=0)
    return PolarPolytope(dual_vertices=sym, n=V.shape[1])


def diagonal_image(base: ConvexBody, scales) -> DiagonalImage:
    s = np.asarray(scales, dtype=float)
    if s.shape != (base.n,):
        raise ValueError(f"scales must have shape ({base.n},)")
    if not np.all(s > 0) or not np.all(np.isfinite(s)):
        raise ValueError("scales must be positive and finite")
    return DiagonalImage(base=base, scales=s)


def _check_input(body: ConvexBody, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != body.n:
        raise ValueError(f"dimension mismatch: body.n={body.n}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains NaN or infinity")


def norm_many(body: ConvexBody, X: np.ndarray) -> np.ndarray:
    """||x||_K for each row x of X (shape (k, n)), K being the body's unit ball."""
    X = np.asarray(X, dtype=float)
    _check_input(body, X)
    return _norms_and_leads(body, X)[0]


def _norms_and_leads(body: ConvexBody, P: np.ndarray) -> tuple:
    """(||p||_K for each row p of P, the lead `_pull_back` needs), from one pass over P.

    Leads are tuples of arrays indexed by row: the first index of the largest |p_i| and
    the sign there (p = inf), the first maximising dual vertex (PolarPolytope), or P and
    its norms (finite p).  P is a (k, n) float array known to be finite (norm_many checks).
    """
    rows = np.arange(P.shape[0])
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            # the first max or the first min, whichever is larger in size (earlier on a tie)
            hi, lo = P.argmax(axis=1), P.argmin(axis=1)
            top, bottom = P[rows, hi], -P[rows, lo]
            idx = np.where((top > bottom) | ((top == bottom) & (hi < lo)), hi, lo)
            lead = P[rows, idx]
            return np.abs(lead), (idx, np.sign(lead))
        norms = (np.abs(P) ** body.p).sum(axis=-1) ** (1.0 / body.p)
        return norms, (P, norms)
    if isinstance(body, PolarPolytope):
        scores = P @ body.dual_vertices.T
        idx = scores.argmax(axis=1)
        return scores[rows, idx], (idx,)
    if isinstance(body, DiagonalImage):
        return _norms_and_leads(body.base, P / body.scales)
    raise TypeError(f"unsupported body {type(body).__name__}")


def _pull_back(body: ConvexBody, lead: tuple, gamma: np.ndarray) -> np.ndarray:
    """Rows of d/dx ||Gamma x||_K at rows x of X, from the leads of P = X @ Gamma^T."""
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            idx, sgn = lead
            return np.where(sgn == 0.0, 1.0, sgn)[:, None] * gamma[idx, :]
        P, norms = lead
        safe = np.where(norms > 0.0, norms, 1.0)
        return (np.sign(P) * (np.abs(P) / safe[:, None]) ** (body.p - 1.0)) @ gamma
    if isinstance(body, PolarPolytope):
        return body.dual_vertices[lead[0]] @ gamma
    if isinstance(body, DiagonalImage):
        return _pull_back(body.base, lead, gamma / body.scales[:, None])
    raise TypeError(f"unsupported body {type(body).__name__}")


def _scaled_dual_sup(body: ConvexBody, w: np.ndarray) -> float:
    """sup over t in the polar of ||diag(w) t||_2; w > 0 coordinatewise."""
    if isinstance(body, LpBall):
        # Polar of B_p is B_q with 1/p + 1/q = 1; the sup is the q->2 operator
        # norm of diag(w): max(w) for q <= 2, else the l_{2q/(q-2)} norm of w.
        p = body.p
        q = 1.0 if math.isinf(p) else (math.inf if p == 1.0 else p / (p - 1.0))
        if q <= 2.0:
            return float(np.max(w))
        if math.isinf(q):
            return float(np.linalg.norm(w))
        r = 2.0 * q / (q - 2.0)
        return float((w**r).sum() ** (1.0 / r))
    if isinstance(body, PolarPolytope):
        return float(np.linalg.norm(body.dual_vertices * w, axis=1).max())
    if isinstance(body, DiagonalImage):
        # Polar of diag(s) K is diag(1/s) K_polar.
        return _scaled_dual_sup(body.base, w / body.scales)
    raise TypeError(f"unsupported body {type(body).__name__}")


def dual_norm_sup(body: ConvexBody) -> float:
    """sup of the Euclidean norm over the polar body (exact per family)."""
    return _scaled_dual_sup(body, np.ones(body.n))


def mean_width(
    body: ConvexBody,
    method: str,
    trials: int | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Estimate ell(K) = E ||G||_K for a standard gaussian G.

    method:
      "monteCarlo"  any body; returns (sample mean, standard error)
      "quadrature"  LpBall(inf, n) only: E max|g_i| = int_0^inf 1-erf(u/sqrt 2)^n du,
                    truncated at sqrt(2 log n) + 10 where the integrand is below
                    n*exp(-u^2/2), by 20-point Gauss-Legendre on 64 equal panels
                    (relative error <= 2e-16 for n <= 1e4); stderr reported as 0
      "closedForm"  LpBall(2, n) and LpBall(1, n); stderr 0
    """
    if method == "monteCarlo":
        _check_count(trials, "monteCarlo requires trials >= 1")
        rng = np.random.default_rng(0 if seed is None else seed)
        return mc_mean(trials, lambda count: norm_many(body, rng.standard_normal((count, body.n))))

    if method == "quadrature":
        if not (isinstance(body, LpBall) and math.isinf(body.p)):
            raise ValueError("quadrature is only supported for LpBall(inf, n)")
        n = body.n
        upper = math.sqrt(2.0 * math.log(max(n, 2))) + 10.0
        h = upper / _QUAD_PANELS
        u = (np.arange(_QUAD_PANELS)[:, None] + 0.5 * (_GL_NODES + 1.0)) * h
        # 1 - erf^n without the n-fold growth of erf's rounding error
        integrand = -np.expm1(n * np.log1p(-_ERFC(u / math.sqrt(2.0)).astype(float)))
        # Beyond the cutoff the integrand is <= n exp(-u^2/2); the folded tail
        # is far below double precision for any n >= 1.
        return 0.5 * h * float((integrand @ _GL_WEIGHTS).sum()), 0.0

    if method == "closedForm":
        if isinstance(body, LpBall) and body.p == 2.0:
            # sqrt(2) Gamma((n+1)/2) / Gamma(n/2) to within 7e-16: the gamma quotient while
            # both are in range, else the series of Gamma(x+1/2) / Gamma(x) in t = 1/x at
            # x = n/2, truncated below 2e-17.  A difference of lgammas would cancel.
            n, t = body.n, 2.0 / body.n
            if n <= 300:
                return math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2), 0.0
            series = 1 - t * (1/8 - t * (1/128 + t * (5/1024 - t * (21/32768 + t * 399/262144))))
            return math.sqrt(n) * series, 0.0
        if isinstance(body, LpBall) and body.p == 1.0:
            return body.n * math.sqrt(2.0 / math.pi), 0.0
        raise ValueError("closedForm is only supported for LpBall(2, n) and LpBall(1, n)")

    raise ValueError(f"unknown mean-width method {method!r}")


def mean_width_auto(body: ConvexBody, seed: int = 0) -> tuple[float, float]:
    """Best available ell(K) estimate: closed form / quadrature when exact, else MC."""
    if isinstance(body, LpBall):
        if body.p in (1.0, 2.0):
            return mean_width(body, "closedForm")
        if math.isinf(body.p):
            return mean_width(body, "quadrature")
    return mean_width(body, "monteCarlo", trials=_AUTO_MC_TRIALS, seed=seed)


@dataclass(frozen=True)
class BodyConstants:
    ell_k: float
    ell_k_stderr: float
    dual_sup: float
    d_star: float


def critical_dimension(
    body: ConvexBody,
    method: str,
    trials: int | None = None,
    seed: int | None = None,
) -> BodyConstants:
    """Full constants record: ell(K), its stderr, the polar sup, and dStar."""
    ell, stderr = mean_width(body, method, trials=trials, seed=seed)
    sup = dual_norm_sup(body)
    return BodyConstants(ell_k=ell, ell_k_stderr=stderr, dual_sup=sup,
                         d_star=(ell / sup) ** 2)
