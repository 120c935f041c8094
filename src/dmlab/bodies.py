"""Convex bodies: norm evaluation, polar data, mean width, critical dimension.

A body K here is always centrally symmetric, so it is the unit ball of a norm
||.||_K, evaluated through the polar body: ||x||_K = sup over t in the polar
of <x, t>.  Three families are supported:

  * LpBall(p, n)        -- unit ball of l_p; polar data is the Hoelder
                           conjugate ball, kept implicit (never materialized).
  * PolarPolytope(V)    -- body whose polar is conv(V u -V); the norm is the
                           max inner product against the stored vertices.
  * DiagonalImage(K, s) -- diag(s) K for positive scales s; the norm rescales
                           coordinates and defers to the base body.

The two derived constants are the gaussian mean width ell(K) = E ||G||_K and
the critical dimension dStar = (ell(K) / sup_{t in polar} ||t||_2)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, gammaln

from dmlab.seeding import mc_mean

_AUTO_MC_TRIALS = 20000  # Monte-Carlo samples of mean_width_auto


@dataclass(frozen=True, eq=False)
class LpBall:
    p: float
    n: int

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if self.n < 1:
            raise ValueError("ambient dimension must be positive")


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
    V = np.atleast_2d(np.asarray(dual_vertices, dtype=float))
    if V.size == 0:
        raise ValueError("dual vertex list must be nonempty")
    if not np.all(np.isfinite(V)):
        raise ValueError("dual vertices must be finite")
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
    if X.shape[-1] != body.n:
        raise ValueError(f"dimension mismatch: body.n={body.n}, got {X.shape[-1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains NaN or infinity")


def norm_many(body: ConvexBody, X: np.ndarray) -> np.ndarray:
    """||x||_K for each row x of X (shape (k, n)), K being the body's unit ball."""
    X = np.asarray(X, dtype=float)
    _check_input(body, X)
    if isinstance(body, LpBall):
        if math.isinf(body.p):
            return np.abs(X).max(axis=-1)
        if body.p == 1.0:
            return np.abs(X).sum(axis=-1)
        if body.p == 2.0:
            return np.linalg.norm(X, axis=-1)
        return (np.abs(X) ** body.p).sum(axis=-1) ** (1.0 / body.p)
    if isinstance(body, PolarPolytope):
        return (X @ body.dual_vertices.T).max(axis=-1)
    if isinstance(body, DiagonalImage):
        return norm_many(body.base, X / body.scales)
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
      "quadrature"  LpBall(inf, n) only: E max|g_i| = int_0^inf 1-(2Phi(u)-1)^n du,
                    truncated at sqrt(2 log n) + 10 where the integrand is below
                    n*exp(-u^2/2); stderr reported as 0
      "closedForm"  LpBall(2, n) and LpBall(1, n); stderr 0
    """
    if method == "monteCarlo":
        if trials is None or trials < 1:
            raise ValueError("monteCarlo requires trials >= 1")
        rng = np.random.default_rng(0 if seed is None else seed)
        return mc_mean(trials, lambda count: norm_many(body, rng.standard_normal((count, body.n))))

    if method == "quadrature":
        if not (isinstance(body, LpBall) and math.isinf(body.p)):
            raise ValueError("quadrature is only supported for LpBall(inf, n)")
        n = body.n
        upper = math.sqrt(2.0 * math.log(max(n, 2))) + 10.0
        val, _ = quad(lambda u: 1.0 - erf(u / math.sqrt(2.0)) ** n, 0.0, upper,
                      limit=200, epsabs=1e-10, epsrel=1e-10)
        # Beyond the cutoff the integrand is <= n exp(-u^2/2); the folded tail
        # is far below the 1e-6 absolute target for any n >= 1.
        return float(val), 0.0

    if method == "closedForm":
        if isinstance(body, LpBall) and body.p == 2.0:
            n = body.n
            return math.sqrt(2.0) * math.exp(gammaln((n + 1) / 2) - gammaln(n / 2)), 0.0
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
    method: str = "monteCarlo",
    trials: int | None = None,
    seed: int | None = None,
) -> BodyConstants:
    """Full constants record: ell(K), its stderr, the polar sup, and dStar."""
    ell, stderr = mean_width(body, method, trials=trials, seed=seed)
    sup = dual_norm_sup(body)
    return BodyConstants(ell_k=ell, ell_k_stderr=stderr, dual_sup=sup,
                         d_star=(ell / sup) ** 2)
