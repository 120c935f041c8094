import math

import numpy as np
import pytest

from dmlab.params import (
    ParameterSolution,
    SolverConstants,
    _lambert_wm1,
    constraints_satisfied,
    solve_parameters,
)


def _f(theta, q):
    a = (q - 2) / (2 * (q + 2))
    return theta**a * math.sqrt(math.log(math.e / theta))


def test_reference_solve():
    sol = solve_parameters(0.25, 6.0, 100.0, 512)
    log_term = math.log(20.0)
    # c1/log(5/rho) ~ 0.334 exceeds the cap, so delta clamps
    assert sol.delta == 0.2499
    # theta solves f(theta) = 1/log(20) on the increasing branch
    assert _f(sol.theta, 6.0) == pytest.approx(1.0 / log_term, rel=1e-6)
    assert 0 < sol.theta < 0.25
    assert sol.m == 512  # max(dStar/rho, n) = max(400, 512)
    assert constraints_satisfied(sol)


def test_clamp_when_constraint_vacuous():
    sol = solve_parameters(0.25, 6.0, 100.0, 512, SolverConstants(c2=1e9))
    assert sol.theta == 0.2499
    assert sol.feasible in (True, False)  # d may still round to zero
    assert constraints_satisfied(sol)


def test_infeasible_when_d_rounds_to_zero():
    sol = solve_parameters(0.25, 6.0, 1e-9, 4)
    assert not sol.feasible
    assert sol.reason == "d<1"
    assert sol.d == 1  # floored
    assert constraints_satisfied(sol)  # theta and delta themselves remain valid


def test_m_rule():
    sol = solve_parameters(0.1, 4.0, 1000.0, 64)
    assert sol.m == math.ceil(max(1000.0 / 0.1, 64))
    sol2 = solve_parameters(0.1, 4.0, 1.0, 640, SolverConstants(c0=2.0))
    assert sol2.m == math.ceil(2.0 * 640)


def test_validation():
    with pytest.raises(ValueError):
        solve_parameters(0.3, 6.0, 10.0, 4)
    with pytest.raises(ValueError):
        solve_parameters(0.0, 6.0, 10.0, 4)
    with pytest.raises(ValueError):
        solve_parameters(0.2, 2.0, 10.0, 4)
    with pytest.raises(ValueError):
        solve_parameters(0.2, 6.0, 0.0, 4)
    with pytest.raises(ValueError):
        solve_parameters(0.2, 6.0, 10.0, 0)
    for q in (math.nan, math.inf):  # non-finite q and d_star fail the same checks
        with pytest.raises(ValueError, match="q must exceed 2"):
            solve_parameters(0.2, q, 10.0, 4)
    for d_star in (math.nan, math.inf):
        with pytest.raises(ValueError, match="d_star must be positive"):
            solve_parameters(0.2, 6.0, d_star, 4)
    for n in (math.nan, math.inf, 2.5, True):
        with pytest.raises(ValueError, match="n must be >= 1"):
            solve_parameters(0.2, 6.0, 10.0, n)
    for field, value in (("c0", math.inf), ("c1", math.nan), ("c2", -math.inf),
                         ("c3", math.nan), ("c1", 0.0)):
        with pytest.raises(ValueError, match="solver constants c0-c3 must be positive and finite"):
            solve_parameters(0.2, 6.0, 1e6, 4, SolverConstants(**{field: value}))


def test_theta_monotone_in_c2():
    prev = 0.0
    for c2 in (0.2, 0.5, 1.0, 2.0, 10.0):
        sol = solve_parameters(0.25, 6.0, 50.0, 128, SolverConstants(c2=c2))
        assert sol.theta >= prev - 1e-12
        prev = sol.theta


def test_delta_monotone_in_rho():
    prev = None
    for rho in (0.25, 0.2, 0.1, 0.05, 0.01):
        sol = solve_parameters(rho, 6.0, 50.0, 128, SolverConstants(c1=0.5))
        if prev is not None:
            assert sol.delta <= prev + 1e-12
        prev = sol.delta


def test_roundtrip_on_grid():
    for rho in (0.25, 0.1, 0.02):
        for q in (3.0, 6.0, 12.0):
            sol = solve_parameters(rho, q, 200.0, 256)
            assert constraints_satisfied(sol)
            assert isinstance(sol, ParameterSolution)
            assert 0 < sol.theta < 0.25 and 0 < sol.delta < 0.25


def test_theta_is_the_increasing_branch_root_on_a_grid():
    interior = 0
    for rho in (0.25, 0.2, 0.1, 0.05, 0.01, 1e-3):
        for q in (2.1, 3.0, 4.0, 6.0, 12.0, 50.0):
            for c2 in (1e-4, 1e-3, 0.01, 0.1, 1.0, 4.0):
                sol = solve_parameters(rho, q, 100.0, 64, SolverConstants(c2=c2))
                if not 1e-280 < sol.theta < 0.2499:
                    continue
                interior += 1
                a = (q - 2) / (2 * (q + 2))
                assert abs(_f(sol.theta, q) / (c2 / math.log(5.0 / rho)) - 1.0) <= 1e-12, \
                    (rho, q, c2)
                assert sol.theta < math.exp(1.0 - 1.0 / (2.0 * a)), (rho, q, c2)
    assert interior >= 50


@pytest.mark.parametrize("rho, root", [(0.25, 8.718e-13), (0.1, 3.570e-14), (0.05, 5.217e-15)])
def test_tiny_roots_are_not_floored(rho, root):
    # A bisection with an absolute tolerance returned its 1e-280 floor here.
    sol = solve_parameters(rho, 3.0, 1000.0, 4096)
    assert sol.theta == pytest.approx(root, rel=1e-3, abs=0.0)
    assert constraints_satisfied(sol)


@pytest.mark.parametrize("c2", [1e-4, 0.01, 5.3e-161, 1e-300])
def test_theta_below_the_float_range_is_unsatisfiable(c2):
    # Roots near 1e-492 and 2e-321 (q = 2.1, a = 1/82); at c2 = 5.3e-161 the Lambert
    # argument is the subnormal -1e-323, which W never sees: it works from log(-z).
    sol = solve_parameters(0.25, 2.1, 100.0, 64, SolverConstants(c2=c2))
    assert sol.theta == 1e-280
    assert not sol.feasible
    assert sol.reason == "theta-constraint unsatisfiable"


def test_lambert_wm1_solves_w_exp_w_on_a_log_grid():
    # z from just above -1/e down to -1e-300.  The check is in log form,
    # w + log(-w) = log(-z): w e^w itself carries |w| ulps of rounding in w
    # (7.7e-14 at w = -694), which no float w can avoid.
    for z in -np.logspace(math.log10(1 / math.e) - 1e-12, -300, 4000):
        log_mz = math.log(-z)
        w = _lambert_wm1(log_mz)
        assert w <= -1.0
        assert w + math.log(-w) == pytest.approx(log_mz, rel=1e-14, abs=0.0), z
        if w > -30.0:
            assert w * math.exp(w) == pytest.approx(z, rel=1e-14, abs=0.0), z


def test_lambert_wm1_is_continuous_across_the_series_seam():
    # log(-z) where p = -sqrt(2(ez + 1)) = -1e-3; the series serves p >= -1e-3.
    seam = math.log1p(-5e-7) - 1.0
    grid = [seam]
    for _ in range(8):
        grid = [float(np.nextafter(grid[0], -np.inf)), *grid,
                float(np.nextafter(grid[-1], np.inf))]
    w = [_lambert_wm1(x) for x in grid]
    steps = np.diff(w)
    assert (steps > 0).all()  # W_{-1} rises toward -1 as z rises toward -1/e
    assert steps.max() <= 1e-12


def test_root_near_the_peak_stays_real_and_capped():
    # q where f peaks at the cap: the Lambert argument sits at the branch point -1/e.
    a = 1.0 / (2.0 * (1.0 - math.log(0.2499)))
    q = (2.0 + 4.0 * a) / (1.0 - 2.0 * a)
    peak = 0.2499**a * math.sqrt(math.log(math.e / 0.2499))
    for eps in (0.0, 1e-16, 1e-15, 1e-12, 1e-9):
        c2 = peak * math.log(20.0) * (1.0 - eps)
        sol = solve_parameters(0.25, q, 100.0, 64, SolverConstants(c2=c2))
        assert math.isfinite(sol.theta) and 0.249 < sol.theta <= 0.2499
        assert constraints_satisfied(sol)


@pytest.mark.parametrize("field", ["c0", "c1", "c2", "c3"])
def test_solver_constants_must_be_positive(field):
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            solve_parameters(0.25, 6.0, 100.0, 64, SolverConstants(**{field: value}))


@pytest.mark.parametrize("log_mz", [-750.0, -1e4, -1e6])
def test_lambert_wm1_works_below_the_float_range_of_z(log_mz):
    # z = -exp(L) underflows to 0 at all three; W_{-1} is computed from
    # L = log(-z) alone, so it needs no branch of its own for them.
    w = _lambert_wm1(log_mz)
    assert w + math.log(-w) == pytest.approx(log_mz, rel=1e-14, abs=0.0)
