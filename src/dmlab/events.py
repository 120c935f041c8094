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

The swap search prunes its candidates before any eigenvalue is computed.
Replacing column i of the support by column j gives the gram of S = X[:, rest]
bordered by x_j.  With l1 = lambda_max(S^T S), b_j = S^T x_j and c_j = |x_j|^2,
the unit vector (u, t) gives u^T S^T S u + 2t b_j^T u + c_j t^2, at most the
form of [[l1, |b_j|], [|b_j|, c_j]] at (|u|, |t|), so for k <= d

    lambda_max <= (l1 + c_j)/2 + sqrt((l1 - c_j)^2/4 + |b_j|^2),

and for k > d, by Weyl, lambda_max(S S^T + x_j x_j^T) <= l1 + c_j.  A
candidate whose bound, times 1 + 1e-9 for rounding, is below floor^2, with
floor the running best swap plus the 1e-12 acceptance margin, cannot be
accepted, so only the others reach eigvalsh.  Their grams are built from the
same products as without pruning, ties still go to the first candidate, and
the search returns the same support, value and witness bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from dmlab.seeding import child_seed

_BOUND_SLACK = 1e-9            # relative slack on the swap bound; absorbs its rounding
_EXACT_CHUNK_BYTES = 1 << 23   # submatrices and grams of one exact-enumeration batch


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


def _swap_values(X: np.ndarray, support: list, i: int, B: np.ndarray,
                 diag: np.ndarray, floor: float) -> tuple:
    """Spectral norms of the submatrices (support - {i}) + {j} that may reach floor.

    B (d x c) holds the candidate columns j and diag their squared norms.
    Returns (keep, values): the positions in B whose closed-form bound on
    the squared norm reaches floor**2, and the norms of those submatrices.
    The gram of the shared k-1 columns is assembled once; each candidate
    borders it with one row/column (k <= d) or adds a rank-one term to the
    d x d gram (k > d), and the kept grams go to one batched eigvalsh call.
    """
    d = X.shape[0]
    rest = [s for s in support if s != i]
    k = len(rest) + 1
    sub = X[:, rest]                            # d x (k-1)
    if k <= d:
        g0 = sub.T @ sub
        cross = sub.T @ B                       # (k-1) x c
        lam = float(np.linalg.eigvalsh(g0)[-1]) if k > 1 else 0.0
        bound = 0.5 * (lam + diag) + np.sqrt(0.25 * (lam - diag) ** 2
                                             + (cross * cross).sum(axis=0))
    else:
        g0 = sub @ sub.T                        # d x d
        bound = float(np.linalg.eigvalsh(g0)[-1]) + diag
    keep = np.flatnonzero(bound * (1.0 + _BOUND_SLACK) >= floor * floor)
    if k <= d:
        grams = np.empty((keep.size, k, k))
        grams[:, :k - 1, :k - 1] = g0
        kept = cross.T[keep]
        grams[:, :k - 1, k - 1] = kept
        grams[:, k - 1, :k - 1] = kept
        grams[:, k - 1, k - 1] = diag[keep]
    else:
        Bk = B.T[keep]
        grams = g0[None, :, :] + Bk[:, :, None] * Bk[:, None, :]
    top = np.linalg.eigvalsh(grams)[:, -1]
    return keep, np.sqrt(np.maximum(top, 0.0))


def _exact_search(X: np.ndarray, k: int) -> tuple:
    """(value, support) of the largest k-column spectral norm, by enumeration.

    Supports are taken in lexicographic order, in chunks of at most
    _EXACT_CHUNK_BYTES of submatrices and grams, each with one batched gram
    product and one batched eigvalsh call.  Ties go to the first support: the
    first argmax within a chunk, and a strict improvement across chunks.
    """
    d, m = X.shape
    g = min(d, k)
    per_chunk = max(1, _EXACT_CHUNK_BYTES // (8 * (d * k + g * g)))
    supports = combinations(range(m), k)
    best_val, best_sup = -1.0, None
    while True:
        chunk = np.array(list(islice(supports, per_chunk)), dtype=np.intp)
        if not chunk.size:
            return best_val, best_sup
        subs = np.ascontiguousarray(X[:, chunk].transpose(1, 0, 2))    # c x d x k
        subs_t = subs.transpose(0, 2, 1)
        grams = subs @ subs_t if d <= k else subs_t @ subs
        vals = np.sqrt(np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0))
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_sup = float(vals[j]), tuple(int(s) for s in chunk[j])


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


def _check_restarts(restarts: int) -> None:
    if not (isinstance(restarts, (int, np.integer)) and restarts >= 1):
        raise ValueError("restarts must be an integer >= 1")


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
    _check_restarts(restarts)
    if not np.isfinite(X).all():
        raise ValueError("columns must be finite")

    if k == m:
        value = singular_extremes(X)[1]
        return SparseSupremum(value, _witness_vector(X, range(m), m),
                              tuple(range(m)), "exact")

    if method == "exact":
        if math.comb(m, k) > 10**6:
            raise ValueError(
                f"C({m},{k}) supports exceed the exact enumeration budget; use greedy")
        best_val, best_sup = _exact_search(X, k)
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
            B = X[:, cand]  # nonempty: greedy runs only for k < m
            diag = (B * B).sum(axis=0)
            for i in support:
                keep, vals = _swap_values(X, support, i, B, diag, swap_val + 1e-12)
                if vals.size:
                    jbest = int(np.argmax(vals))
                    if vals[jbest] > swap_val + 1e-12:
                        swap_val, swap = float(vals[jbest]), (i, int(cand[keep[jbest]]))
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
    lambda_min: float              # sigma_min(Gamma2) / sqrt(m)
    lambda_max: float              # sigma_max(Gamma2) / sqrt(m), the measured kappa1
    sparse_sup: dict               # k -> estimate (monotone in k)
    sparse_methods: dict           # k -> "exact" | "greedy"
    k_event: int                   # floor(theta * m); 0 means the constraint is vacuous
    event_a_holds: bool


def check_event_constants(kappa1: float, delta: float, theta: float, restarts: int) -> None:
    """Raise ValueError unless check_event_A accepts these constants."""
    _check_restarts(restarts)
    if not 0.0 < theta < 0.25:
        raise ValueError("theta must be in (0, 1/4)")
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must be in (0, 1/4)")
    if kappa1 < 1.0:
        raise ValueError("kappa1 must be >= 1")


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
    check_event_constants(kappa1, delta, theta, restarts)
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

    sparse_ok = True if k_event < 1 else values[k_main] <= delta * sqrt_m
    holds = (smax / sqrt_m <= kappa1) and sparse_ok
    return EventReport(
        lambda_min=smin / sqrt_m,
        lambda_max=smax / sqrt_m,
        sparse_sup=values,
        sparse_methods=methods,
        k_event=k_event,
        event_a_holds=holds,
    )
