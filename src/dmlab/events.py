"""Spectral and sparse-support verification of sampled column ensembles.

The central check: a d x m column matrix passes the embedding event when its
operator norm stays below kappa1 * sqrt(m) and the supremum of ||sum a_i X_i||
over unit vectors a with at most floor(theta * m) nonzero entries stays below
delta * sqrt(m).  The sparse supremum equals the largest spectral norm over
k-column submatrices, an NP-hard quantity in general: it is enumerated at
k = 1, at k = m and while the support count permits, and otherwise estimated
by steepest single-swap local search with restarts.  Greedy numbers are lower
bounds, so a violation found by greedy is conclusive while a confirmation is
heuristic; every report records which method produced each number.
check_event_A reports the sparse supremum at k = 1, the powers of two up to
k_main = max(1, floor(theta * m)), k_main itself and k = m, no more than its
running maximum at k_main needs; sparse_profile gives the nested-greedy
profile at any k.

The swap search prunes its candidates by one closed-form bound at every k.
Replacing column i of the support by column j gives the gram of S = X[:, rest]
bordered by x_j.  With l1 = lambda_max(S^T S), b_j = S^T x_j and c_j = |x_j|^2,
the unit vector (u, t) gives u^T S^T S u + 2t b_j^T u + c_j t^2, at most the
form of [[l1, |b_j|], [|b_j|, c_j]] at (|u|, |t|), so

    lambda_max <= (l1 + c_j)/2 + sqrt((l1 - c_j)^2/4 + |b_j|^2).

For k > d the search keeps the d x d grams S S^T and S S^T + x_j x_j^T, which
have the same nonzero eigenvalues.  A round makes three batched eigvalsh
calls: the k rest grams' l1; the scouts, each position's candidate of
largest bound, whose best value G0 is at most the round's best swap value G;
and the swaps whose bound, times 1 + 1e-9 for rounding, reaches floor^2 with
floor = max(val + 1e-12, G0 - (k + 1) 1e-12), in chunks of _CHUNK_BYTES.
Grams are built from the products of the unpruned search, and eigvalsh
treats each matrix of a batch on its own.  The round keeps the unpruned
first-improvement rule, since it decides which of near-tied supports the
search returns: positions in support order, the first maximum within one,
taken if it beats the running swap by more than 1e-12.  A pruned swap lies
below val + 1e-12 and is never taken, or below G - (k + 1) 1e-12, where it
moves the running value only within a window that rises by at most 1e-12 per
position, while the round ends on a swap worth at least G - 1e-12; so the
search returns the same support, value and witness bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, pairwise

import numpy as np

from dmlab.seeding import _check_count, _check_matrix, child_seed

_BOUND_SLACK = 1e-9            # relative slack on the swap bound; absorbs its rounding
_CHUNK_BYTES = 1 << 23         # submatrices and grams of one batched eigvalsh call


def singular_extremes(M):
    """(sigma_min, sigma_max) of a matrix, from LAPACK's singular values."""
    s = np.linalg.svd(_check_matrix(M, "matrix"), compute_uv=False)
    return float(s[-1]), float(s[0])


def _submatrix_smax(sub: np.ndarray) -> float:
    """Spectral norm of a d x k submatrix via the smaller gram."""
    g = sub @ sub.T if sub.shape[0] <= sub.shape[1] else sub.T @ sub
    return math.sqrt(max(float(np.linalg.eigvalsh(g)[-1]), 0.0))


def _swap_round(X: np.ndarray, support: list, cand: np.ndarray, val: float) -> tuple:
    """(floor, pos, col, values): the swaps of one round whose bound reaches floor.

    values[n] is the spectral norm with cand[col[n]] in place of support[pos[n]].
    """
    B, d, k = X[:, cand], X.shape[0], len(support)
    diag = (B * B).sum(axis=0)
    subs = [X[:, [s for s in support if s != i]] for i in support]    # k of d x (k-1)
    if k <= d:
        g0, cross = map(np.array, zip(*((sub.T @ sub, sub.T @ B) for sub in subs)))
        b2 = (cross * cross).sum(axis=1)
    else:
        g0 = np.array([sub @ sub.T for sub in subs])                    # k x d x d
        b2 = np.array([np.square(sub.T @ B).sum(axis=0) for sub in subs])
    lam = np.linalg.eigvalsh(g0)[:, -1:]
    bound = 0.5 * (lam + diag) + np.sqrt(0.25 * (lam - diag) ** 2 + b2)

    def grams(pos, col):
        if k > d:
            return g0[pos] + B.T[col][:, :, None] * B.T[col][:, None, :]
        g = np.empty((pos.size, k, k))
        g[:, :k - 1, :k - 1] = g0[pos]
        g[:, :k - 1, k - 1] = g[:, k - 1, :k - 1] = cross[pos, :, col]
        g[:, k - 1, k - 1] = diag[col]
        return g

    def values(pos, col):  # one eigvalsh call per _CHUNK_BYTES of grams, and one if none
        step = max(1, _CHUNK_BYTES // (8 * min(d, k) ** 2))
        top = [np.linalg.eigvalsh(grams(pos[s:s + step], col[s:s + step]))[:, -1]
               for s in range(0, pos.size or 1, step)]
        return np.sqrt(np.maximum(np.concatenate(top), 0.0))

    scouts = values(np.arange(k), np.argmax(bound, axis=1)).max()
    floor = max(val + 1e-12, scouts - (k + 1) * 1e-12)
    pos, col = np.nonzero(bound * (1.0 + _BOUND_SLACK) >= floor * floor)
    return floor, pos, col, values(pos, col)


def _exact_search(X: np.ndarray, k: int) -> tuple:
    """(value, support) of the largest k-column spectral norm, by enumeration.

    Supports are taken in lexicographic order, in chunks of at most
    _CHUNK_BYTES of submatrices and grams, each with one batched gram
    product and one batched eigvalsh call.  Ties go to the first support: the
    first argmax within a chunk, and a strict improvement across chunks.
    """
    d, m = X.shape
    g = min(d, k)
    per_chunk = max(1, _CHUNK_BYTES // (8 * (d * k + g * g)))
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
    method: str                    # "exact" (enumerated, always at k = 1 and m) or "greedy"


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
    ascent and reports the best local optimum found (a lower bound).  At k = 1
    (m supports) and k = m (one support) every call enumerates, and the
    result is exact whatever `method` says.
    """
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    X = _check_matrix(columns, "columns")
    m = X.shape[1]
    _check_count(k, f"sparsity k must be in [1, {m}]", high=m)
    _check_count(restarts, "restarts must be an integer >= 1")

    if method == "exact" or k in (1, m):
        if 1 < k < m and math.comb(m, k) > 10**6:
            raise ValueError(f"C({m},{k}) supports exceed the enumeration budget; use greedy")
        best_val, best_sup = _exact_search(X, k)
        method = "exact"
    else:
        best_val, best_sup = -1.0, None
        for r in range(restarts):
            rng = np.random.default_rng(child_seed(seed, r))
            support = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
            val = _submatrix_smax(X[:, support])
            for _ in range(100):
                cand = np.delete(np.arange(m), support)  # nonempty, since k < m
                _, pos, col, vals = _swap_round(X, support, cand, val)
                swap = None
                for p, (a, b) in enumerate(pairwise(np.searchsorted(pos, np.arange(k + 1)))):
                    if a < b:  # first improvement over positions, first maximum within one
                        best = a + int(np.argmax(vals[a:b]))
                        if vals[best] > val + 1e-12:
                            val, swap = float(vals[best]), (support[p], int(cand[col[best]]))
                if swap is None:
                    break
                support = sorted([s for s in support if s != swap[0]] + [swap[1]])
            sup_t = tuple(support)
            if val > best_val or (val == best_val and sup_t < best_sup):
                best_val, best_sup = val, sup_t
    return SparseSupremum(best_val, _witness_vector(X[:, list(best_sup)], best_sup, m),
                          best_sup, method)


def sparse_profile(columns, ks) -> dict:
    """Monotone lower-bound profile k -> sparse supremum via nested column growth.

    Columns are added one at a time, each chosen to maximize alignment with
    the running top left-singular direction; nested supports make the profile
    nondecreasing by construction.  Reaching k takes k eigh calls.
    """
    X = _check_matrix(columns, "columns")
    d, m = X.shape
    ks = sorted({_check_count(k, f"sparsity k must be in [1, {m}]", high=m) for k in ks})
    gram, taken, u, out = np.zeros((d, d)), np.zeros(m, dtype=bool), None, {}
    count = 0
    for k_target in ks:
        while count < k_target:  # the first column is the one of largest norm
            scores = np.abs(u @ X) if count else np.linalg.norm(X, axis=0)
            scores[taken] = -1.0
            j = int(np.argmax(scores))
            taken[j] = True
            gram += np.outer(X[:, j], X[:, j])
            count += 1
            u = np.linalg.eigh(gram)[1][:, -1]
        out[k_target] = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return out


@dataclass(frozen=True, eq=False)
class EventReport:
    lambda_min: float              # sigma_min(Gamma2) / sqrt(m)
    lambda_max: float              # sigma_max(Gamma2) / sqrt(m), the measured kappa1
    sparse_sup: dict               # k -> running maximum at 1, 2, 4, ... <= k_main, k_main, m
    sparse_methods: dict           # same keys -> "exact" (k = 1, k = m, enumerated k_main) | "greedy"
    k_event: int                   # floor(theta * m); 0 means the constraint is vacuous
    event_a_holds: bool


def check_event_constants(kappa1: float, delta: float, theta: float, restarts: int) -> None:
    """Raise ValueError unless check_event_A accepts these constants."""
    _check_count(restarts, "restarts must be an integer >= 1")
    if not 0.0 < theta < 0.25:
        raise ValueError("theta must be in (0, 1/4)")
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must be in (0, 1/4)")
    if not kappa1 >= 1.0:  # NaN too
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
    information).  sparse_sup holds running maxima at k = 1, the powers of two
    up to k_main = max(1, k_event), k_main and m: the nested-greedy profile,
    the swap search at k_main and sigma_max; entries at k=1, k=m and an
    enumerated k_main are exact.  sparse_profile gives the profile at any k.
    """
    check_event_constants(kappa1, delta, theta, restarts)
    X = _check_matrix(gamma2, "columns")
    _, m = X.shape
    sqrt_m = math.sqrt(m)

    smin, smax = singular_extremes(X)
    k_event = int(theta * m)
    k_main = max(1, k_event)

    main = sparse_supremum(X, k_main, restarts=restarts, seed=child_seed(seed, 1))

    grid = sorted({1, k_main, m} | {2**j for j in range(1, k_main.bit_length())})  # 2**j <= k_main
    profile = sparse_profile(X, [k for k in grid if k < m])
    values, methods, running = {}, {}, 0.0
    for k in grid:
        val, tag = (smax, "exact") if k == m else (profile[k], "exact" if k == 1 else "greedy")
        if k == k_main and main.value >= val:
            val, tag = main.value, main.method
        values[k] = running = max(running, val)
        methods[k] = tag

    sparse_ok = True if k_event < 1 else values[k_main] <= delta * sqrt_m
    holds = (smax / sqrt_m <= kappa1) and sparse_ok
    return EventReport(lambda_min=smin / sqrt_m, lambda_max=smax / sqrt_m, sparse_sup=values,
                       sparse_methods=methods, k_event=k_event, event_a_holds=holds)
