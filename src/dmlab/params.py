"""Consistent (theta, delta, m, d) from the separation scale rho and moment order q.

Given the net separation rho, the marginal moment order q, the critical
dimension and the ambient dimension, the constraints are

    delta <= c1 / log(5/rho)
    theta^((q-2)/(2(q+2))) * sqrt(log(e/theta)) <= c2 / log(5/rho)
    d      = round(c3 * theta^(4/(2+q)) / log^5(5/rho) * dStar)
    m     >= c0 * max(dStar / rho, n)

with all four constants configurable (they are only determined up to factors
depending on the marginal laws; the defaults are 1).  theta is the largest
value in (0, 0.2499] satisfying its constraint: below the cap, the root of
f(theta) = theta^a sqrt(log(e/theta)) = b on the increasing branch of f.  With
u = log(e/theta) this reads u exp(-2au) = b^2 exp(-2a), so in closed form
theta = exp(1 + W(z)/(2a)) with z = -2a b^2 exp(-2a) and W the lower real
branch W_{-1} of the Lambert W function.  W is computed from log(-z), which is
formed analytically, so z itself is never evaluated and no separate branch is
needed where z would underflow.  Where 2(ez + 1) <= 1e-6, next to the branch
point -1/e, W is its series in p = -sqrt(2(ez + 1)) (Corless et al. 1996);
everywhere else it is found by Newton's method on w + log(-w) = log(-z).

The exponent a = (q-2)/(2(q+2)) is the identity 1/2 - 1/r with r = 1 + q/2
used by the sparse-coordinate estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from dmlab.seeding import _check_count

_THETA_CAP = 0.2499  # keeps the open-interval constraint theta < 1/4 strict in float


@dataclass(frozen=True)
class SolverConstants:
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0


@dataclass(frozen=True)
class ParameterSolution:
    rho: float
    q: float
    theta: float
    delta: float
    m: int
    d: int
    constants: SolverConstants
    feasible: bool
    reason: str | None = None


def _theta_exponent(q: float) -> float:
    return (q - 2.0) / (2.0 * (q + 2.0))


def _f(theta: float, a: float) -> float:
    return theta**a * math.sqrt(math.log(math.e / theta))


def _lambert_wm1(log_mz: float) -> float:
    """W_{-1}(z) for z in [-1/e, 0), from L = log(-z) <= -1.

    The series in p = -sqrt(2(ez + 1)) where p >= -1e-3 (truncation error below
    1e-13), else Newton's method on w + log(-w) = L from w = L - log(-L).
    """
    p = -math.sqrt(max(-2.0 * math.expm1(1.0 + log_mz), 0.0))  # 0 at or past -1/e
    if p >= -1e-3:
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    w = log_mz - math.log(-log_mz)
    for _ in range(50):
        step = (w + math.log(-w) - log_mz) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 4.0 * sys.float_info.epsilon * abs(w):
            break
    return w


def solve_parameters(
    rho: float,
    q: float,
    d_star: float,
    n: int,
    constants: SolverConstants | None = None,
) -> ParameterSolution:
    """Solve the constraint system; clamps keep theta and delta strictly below 1/4."""
    if not 0.0 < rho <= 0.25:
        raise ValueError("rho must be in (0, 1/4]")
    if not 2.0 < q <= sys.float_info.max:  # also rejects NaN and infinity
        raise ValueError("q must exceed 2")
    if not 0.0 < d_star <= sys.float_info.max:
        raise ValueError("d_star must be positive")
    _check_count(n, "n must be >= 1")
    c = constants or SolverConstants()
    if not all(0.0 < x <= sys.float_info.max for x in (c.c0, c.c1, c.c2, c.c3)):  # NaN too
        raise ValueError("solver constants c0-c3 must be positive and finite")

    log_term = math.log(5.0 / rho)
    delta = min(c.c1 / log_term, _THETA_CAP)

    a = _theta_exponent(q)
    bound = c.c2 / log_term
    feasible, reason = True, None
    if _f(_THETA_CAP, a) <= bound:
        theta = _THETA_CAP
    else:
        w = _lambert_wm1(math.log(2.0 * a) + 2.0 * math.log(bound) - 2.0 * a)
        theta = math.exp(1.0 + w / (2.0 * a))
        if not theta >= 1e-280:  # underflowed to 0, a subnormal without precision, or nan
            feasible, reason, theta = False, "theta-constraint unsatisfiable", 1e-280

    d = int(round(c.c3 * theta ** (4.0 / (2.0 + q)) / log_term**5 * d_star))
    if d < 1:
        feasible, reason, d = False, reason or "d<1", 1
    m = int(math.ceil(c.c0 * max(d_star / rho, float(n))))
    return ParameterSolution(rho=rho, q=q, theta=theta, delta=delta, m=m, d=d,
                             constants=c, feasible=feasible, reason=reason)


def constraints_satisfied(sol: ParameterSolution) -> bool:
    """Round-trip check: the returned (theta, delta) satisfy the constraint predicates."""
    log_term = math.log(5.0 / sol.rho)
    a = _theta_exponent(sol.q)
    ok_delta = sol.delta <= sol.constants.c1 / log_term + 1e-9 and 0 < sol.delta < 0.25
    ok_theta = _f(sol.theta, a) <= sol.constants.c2 / log_term + 1e-9 and 0 < sol.theta < 0.25
    return ok_delta and ok_theta
