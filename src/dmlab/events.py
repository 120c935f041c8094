"""Spectral and sparse-support verification of sampled column ensembles.

The central check: a d x m column matrix passes the embedding event when its
operator norm stays below kappa1 * sqrt(m) and the supremum of ||sum a_i X_i||
over unit vectors a with at most floor(theta * m) nonzero entries stays below
delta * sqrt(m).  The sparse supremum equals the largest spectral norm over
k-column submatrices, an NP-hard quantity in general: it is computed exactly
by enumeration when the support count permits and otherwise estimated by
steepest single-swap local search with restarts.  Greedy numbers are lower
bounds, so a violation found by greedy is conclusive while a confirmation is
heuristic; every report records which method produced each number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from dmlab.seeding import child_seed


def singular_extremes(M):
    """(sigma_min, sigma_max) of a matrix, from LAPACK's singular values."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError("matrix must be nonempty")
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1]), float(s[0])


def _submatrix_smax(sub: np.ndarray) -> float:
    """Spectral norm of a d x k submatrix via the smaller gram."""
    g = sub @ sub.T if sub.shape[0] <= sub.shape[1] else sub.T @ sub
    return math.sqrt(max(float(np.linalg.eigvalsh(g)[-1]), 0.0))


def _swap_values(X: np.ndarray, support: list, i: int, cand: np.ndarray) -> np.ndarray:
    """Spectral norms of the submatrices (support - {i}) + {j} for each j in cand.

    Batched over j: the gram of the shared k-1 columns is assembled once and
    each candidate contributes one bordered row/column (k <= d) or a rank-one
    update of the d x d gram (k > d), then one batched eigvalsh call.
    """
    d = X.shape[0]
    rest = [s for s in support if s != i]
    k = len(rest) + 1
    B = X[:, cand]                              # d x c
    c = B.shape[1]
    if k <= d:
        sub = X[:, rest]                        # d x (k-1)
        g0 = sub.T @ sub
        cross = sub.T @ B                       # (k-1) x c
        grams = np.empty((c, k, k))
        grams[:, :k - 1, :k - 1] = g0
        grams[:, :k - 1, k - 1] = cross.T
        grams[:, k - 1, :k - 1] = cross.T
        grams[:, k - 1, k - 1] = (B * B).sum(axis=0)
    else:
        sub = X[:, rest]
        g0 = sub @ sub.T                        # d x d
        grams = g0[None, :, :] + B.T[:, :, None] * B.T[:, None, :]
    top = np.linalg.eigvalsh(grams)[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def _witness_vector(sub: np.ndarray, support, m: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(sub, full_matrices=False)
    v = vt[0]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    a = np.zeros(m)
    a[list(support)] = v
    return a


@dataclass(frozen=True, eq=False)
class SparseSupremum:
    value: float
    witness: np.ndarray
    support: tuple
    method: str                    # "exact" or "greedy"


def sparse_supremum(
    columns,
    k: int,
    method: str = "greedy",
    restarts: int = 20,
    seed: int = 0,
) -> SparseSupremum:
    """sup over k-sparse unit a of ||sum a_i X_i||_2 for the given d x m columns.

    exact enumerates every size-k support (allowed while C(m, k) <= 1e6) and
    breaks value ties toward the lexicographically smallest support; greedy
    runs `restarts` rounds of random support followed by steepest single-swap
    ascent and reports the best local optimum found (a lower bound).
    """
    X = np.asarray(columns, dtype=float)
    d, m = X.shape
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must be in [1, {m}]")

    if k == m:
        value = singular_extremes(X)[1]
        return SparseSupremum(value, _witness_vector(X, range(m), m),
                              tuple(range(m)), "exact")

    if method == "exact":
        if math.comb(m, k) > 10**6:
            raise ValueError(
                f"C({m},{k}) supports exceed the exact enumeration budget; use greedy")
        best_val, best_sup = -1.0, None
        for sup in combinations(range(m), k):
            val = _submatrix_smax(X[:, sup])
            if val > best_val:
                best_val, best_sup = val, sup
        return SparseSupremum(best_val, _witness_vector(X[:, best_sup], best_sup, m),
                              best_sup, "exact")

    if method != "greedy":
        raise ValueError(f"unknown method {method!r}")

    best_val, best_sup = -1.0, None
    for r in range(restarts):
        rng = np.random.default_rng(child_seed(seed, r))
        support = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
        val = _submatrix_smax(X[:, support])
        for _ in range(100):
            in_support = np.zeros(m, dtype=bool)
            in_support[support] = True
            cand = np.flatnonzero(~in_support)
            swap, swap_val = None, val
            if cand.size:
                for i in support:
                    vals = _swap_values(X, support, i, cand)
                    jbest = int(np.argmax(vals))
                    if vals[jbest] > swap_val + 1e-12:
                        swap_val, swap = float(vals[jbest]), (i, int(cand[jbest]))
            if swap is None:
                break
            support = sorted([s for s in support if s != swap[0]] + [swap[1]])
            val = swap_val
        sup_t = tuple(support)
        if val > best_val or (val == best_val and sup_t < best_sup):
            best_val, best_sup = val, sup_t
    return SparseSupremum(best_val, _witness_vector(X[:, list(best_sup)], best_sup, m),
                          best_sup, "greedy")


def _nested_greedy_profile(columns: np.ndarray, ks) -> dict:
    """Monotone lower-bound profile k -> sparse supremum via nested column growth.

    Columns are added one at a time, each chosen to maximize alignment with
    the running top left-singular direction; nested supports make the profile
    nondecreasing by construction.
    """
    X = np.asarray(columns, dtype=float)
    d, m = X.shape
    ks = sorted(set(int(k) for k in ks))
    gram = np.zeros((d, d))
    taken = np.zeros(m, dtype=bool)
    u = None
    out = {}
    col_norms = np.linalg.norm(X, axis=0)
    count = 0
    for k_target in ks:
        while count < k_target:
            if count == 0:
                j = int(np.argmax(col_norms))
            else:
                scores = np.abs(u @ X)
                scores[taken] = -1.0
                j = int(np.argmax(scores))
            taken[j] = True
            gram += np.outer(X[:, j], X[:, j])
            count += 1
            w, v = np.linalg.eigh(gram)
            u = v[:, -1]
        out[k_target] = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return out


@dataclass(frozen=True, eq=False)
class EventReport:
    kappa1_measured: float         # lambda_max(Gamma2) / sqrt(m)
    lambda_min: float              # sigma_min(Gamma2) / sqrt(m)
    lambda_max: float
    sparse_sup: dict               # k -> estimate (monotone in k)
    sparse_methods: dict           # k -> "exact" | "greedy"
    k_event: int                   # floor(theta * m); 0 means the constraint is vacuous
    event_a_holds: bool


def check_event_A(
    gamma2,
    kappa1: float,
    delta: float,
    theta: float,
    restarts: int = 20,
    seed: int = 0,
) -> EventReport:
    """Verify the operator-norm and sparse-support conditions on one draw.

    The sparse condition constrains unit vectors with at most floor(theta*m)
    nonzero entries; when floor(theta*m) = 0 only the zero vector qualifies
    and the condition holds vacuously (the map still reports k=1 for
    information).  The report's sparse profile covers a log-spaced k grid
    with running-max monotonicity and an exact endpoint at k=m.
    """
    if not 0.0 < theta < 0.25:
        raise ValueError("theta must be in (0, 1/4)")
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must be in (0, 1/4)")
    if kappa1 < 1.0:
        raise ValueError("kappa1 must be >= 1")
    X = np.asarray(gamma2, dtype=float)
    _, m = X.shape
    sqrt_m = math.sqrt(m)

    smin, smax = singular_extremes(X)
    k_event = int(theta * m)
    k_main = max(1, k_event)

    main = sparse_supremum(X, k_main, restarts=restarts, seed=child_seed(seed, 1))

    grid = sorted({1, k_main, m} | {2**j for j in range(1, int(math.log2(m)) + 1)})
    profile = _nested_greedy_profile(X, [k for k in grid if k < m])
    values, methods = {}, {}
    running = 0.0
    for k in grid:
        val, tag = (smax, "exact") if k == m else (profile[k], "greedy")
        if k == k_main and main.value >= val:
            val, tag = main.value, main.method
        running = max(running, val)
        values[k] = running
        methods[k] = tag
    assert all(values[a] <= values[b] + 1e-9
               for a, b in zip(grid, grid[1:])), "sparse profile must be monotone"

    sparse_ok = True if k_event < 1 else values[k_main] <= delta * sqrt_m
    holds = (smax / sqrt_m <= kappa1) and sparse_ok
    return EventReport(
        kappa1_measured=smax / sqrt_m,
        lambda_min=smin / sqrt_m,
        lambda_max=smax / sqrt_m,
        sparse_sup=values,
        sparse_methods=methods,
        k_event=k_event,
        event_a_holds=holds,
    )
