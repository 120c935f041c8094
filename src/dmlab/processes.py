"""Gaussian and Bernoulli processes on finite index sets.

For a finite V in R^ell the objects of interest are the expected suprema
E sup_{v in V} <g, v> and E sup_{v in V} <eps, v>, the chaining upper bound
built from an admissible sequence (the gamma_2 functional), the packing-based
Sudakov lower bound, the rearrangement formula for Lp norms of Bernoulli
linear forms, and the concentration of the Bernoulli supremum around its
mean.  Everything is estimator-grade: Monte-Carlo with explicit standard
errors, or exact enumeration where the index dimension permits.

All three supremum paths take max_v <c, v> through `_row_max` over unchanged
draws and chunks, so only the BLAS's rounding by row block can move a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dmlab.calibration import C_SUD, CONCENTRATION_C
from dmlab.ensembles import EnsembleSpec, sample_matrix
from dmlab.nets import farthest_first
from dmlab.seeding import _check_count, _check_matrix, child_seed, mc_chunks, mc_mean

_EXACT_DIM_CAP = 20
_TAIL_MULTIPLES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)  # tail points x / sigma*
TAIL_MIN_TRIALS = 10**4  # fewest draws concentration_check accepts
_SUP_BLOCK_BYTES = 1 << 19  # per block of `_row_max`: 256 rows at set size 256, in a 2 MiB L2


@dataclass(frozen=True, eq=False)
class FiniteIndexSet:
    vectors: np.ndarray            # (size, ell)

    def __post_init__(self):
        object.__setattr__(self, "vectors", _check_matrix(self.vectors, "index set"))

    @property
    def ell(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def index_set(vectors) -> FiniteIndexSet:
    return FiniteIndexSet(np.atleast_2d(vectors))


@dataclass(frozen=True)
class ProcessEstimate:
    value: float
    stderr: float
    method: str                    # "monteCarlo" or "exactEnumeration"
    trials: int


def _coefficients(kind: str, rng: np.random.Generator, ell: int):
    """Sampler of `count` gaussian or sign coefficient vectors of length ell."""
    law = "GaussianIID" if kind == "gaussian" else "RademacherIID"
    return lambda count: sample_matrix(EnsembleSpec(law, count, ell), rng)


def _check_trials(trials, low: int, message: str) -> None:
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < low:
        raise ValueError(message)


def _row_max(C: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row maxima of C @ V, one reused row block of `_SUP_BLOCK_BYTES` at a time.  A BLAS
    may round an entry by the row partition: OpenBLAS 0.3.31 on SkylakeX does at set size 255."""
    rows = max(1, _SUP_BLOCK_BYTES // (8 * V.shape[1]))
    out, buf = np.empty(len(C)), np.empty((min(rows, len(C)), V.shape[1]))
    for start in range(0, len(C), rows):
        block = buf[:min(rows, len(C) - start)]
        np.matmul(C[start:start + len(block)], V, out=block)
        block.max(axis=1, out=out[start:start + len(block)])
    return out


def emp_sup(
    kind: str,
    T: FiniteIndexSet,
    method: str = "monteCarlo",
    trials: int = 10000,
    seed: int = 0,
) -> ProcessEstimate:
    """E sup over T of the linear form under gaussian or sign coefficients.

    exactEnumeration averages the supremum over all 2^ell sign patterns and
    is limited to Bernoulli with ell <= 20; Monte-Carlo reduces trial sums in
    index order, so a fixed seed gives bit-identical output.
    """
    if kind not in ("gaussian", "bernoulli"):
        raise ValueError(f"unknown process kind {kind!r}")
    _check_trials(trials, 1, "trials must be >= 1")
    V = T.vectors.T  # ell x size

    if method == "exactEnumeration":
        if kind != "bernoulli":
            raise ValueError("exact enumeration is only defined for the Bernoulli process")
        if T.ell > _EXACT_DIM_CAP:
            raise ValueError(f"exact enumeration needs ell <= {_EXACT_DIM_CAP}")
        total, n_patterns = 0.0, 1 << T.ell
        for done in range(0, n_patterns, 1 << 14):  # pattern codes, bit j the sign of eps_j
            codes = np.arange(done, min(done + (1 << 14), n_patterns), dtype=np.uint64)[:, None]
            bits = (codes >> np.arange(T.ell, dtype=np.uint64)[None, :]) & np.uint64(1)
            total += _row_max(1.0 - 2.0 * bits.astype(float), V).sum()
        return ProcessEstimate(total / n_patterns, 0.0, "exactEnumeration", n_patterns)

    if method != "monteCarlo":
        raise ValueError(f"unknown method {method!r}")
    draw = _coefficients(kind, np.random.default_rng(seed), T.ell)
    mean, stderr = mc_mean(trials, lambda count: _row_max(draw(count), V))
    return ProcessEstimate(mean, stderr, "monteCarlo", trials)


def bernoulli_lp(a, p: int) -> float:
    """Rearrangement surrogate for || sum eps_i a_i ||_Lp.

    Head-plus-tail form: the p largest |a_i| contribute their sum, the rest
    contribute sqrt(p) times their Euclidean norm.  Equivalent to the true Lp
    norm up to absolute constants.
    """
    _check_count(p, "p must be >= 1")
    srt = np.sort(np.abs(np.asarray(a, dtype=float)))[::-1]
    head = float(srt[:p].sum())
    tail = float(np.linalg.norm(srt[p:]))
    return head + math.sqrt(p) * tail


@dataclass(frozen=True, eq=False)
class AdmissibleSequence:
    """Nested approximating subsets with |V_s| <= 2^(2^s) and nearest-point maps."""

    level_indices: list            # per level: indices into T (selection order)
    assignments: np.ndarray        # (levels, size): index of pi_s(v) in T


def _pairwise(V: np.ndarray) -> np.ndarray:
    sq = (V**2).sum(axis=1)
    D2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
    return np.sqrt(np.maximum(D2, 0.0))


def gamma2_upper(T: FiniteIndexSet) -> tuple[float, AdmissibleSequence]:
    """Chaining upper bound sup_v sum_s 2^(s/2) ||pi_{s+1}v - pi_s v|| + ||pi_0 v||.

    The admissible sets are drawn from T itself: level 0 is the metric
    1-center of T, deeper levels grow farthest-first up to the cap 2^(2^s).
    Any admissible sequence upper-bounds the gamma_2 infimum, and by the
    majorizing-measures equivalence the gaussian supremum as well (up to an
    absolute factor).  Levels stop once every point is its own approximator.
    """
    V = T.vectors
    k = T.size
    D = _pairwise(V)
    center = int(np.argmin(D.max(axis=1)))
    order, _ = farthest_first(lambda i: D[i], center, k)
    # Points at distance 0 from the selection never enter the order; they are
    # represented exactly by their duplicate, which keeps chains finite.
    s_max = math.ceil(math.log2(math.log2(max(k, 4)))) + 2
    caps = [1] + [min(2 ** (2**s), k) for s in range(1, s_max + 1)]

    levels = []
    assignments = np.empty((len(caps), k), dtype=int)
    norms0 = np.linalg.norm(V[center])
    for li, cap in enumerate(caps):
        take = order[: min(cap, len(order))]
        levels.append(np.array(take, dtype=int))
        sub = D[np.ix_(range(k), take)]
        assignments[li] = np.array(take)[np.argmin(sub, axis=1)]

    totals = np.full(k, float(norms0))
    for s in range(len(caps) - 1):
        step = np.linalg.norm(V[assignments[s + 1]] - V[assignments[s]], axis=1)
        totals += 2.0 ** (s / 2.0) * step
    value = float(totals.max())
    return value, AdmissibleSequence(levels, assignments)


def sudakov_lower(T: FiniteIndexSet) -> float:
    """Packing-number lower bound max_eps C_SUD * eps * sqrt(log N(eps)).

    eps ranges over distinct quantiles of the positive pairwise distances;
    N(eps) is the greedy maximal eps-separated subset size read off one
    farthest-first pass (insertion radii are nonincreasing).
    """
    if T.size < 2:
        return 0.0
    D = _pairwise(T.vectors)
    iu = np.triu_indices(T.size, 1)
    dists = D[iu]
    dists = dists[dists > 0]
    if dists.size == 0:
        return 0.0
    _, radii = farthest_first(lambda i: D[i], 0, T.size)

    best = 0.0
    for eps in np.unique(np.quantile(dists, np.linspace(0.05, 0.95, 19))):
        N = int((radii >= eps).sum())
        if N >= 2:
            best = max(best, C_SUD * eps * math.sqrt(math.log(N)))
    return best


@dataclass(frozen=True, eq=False)
class TailTable:
    x: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    sigma_star: float
    sup_mean: float


def concentration_check(
    T: FiniteIndexSet,
    trials: int = 10000,
    seed: int = 0,
) -> TailTable:
    """Empirical two-sided tails of the Bernoulli supremum vs the gaussian-shape bound.

    Rows pair x (multiples of sigma* = max_v ||v||_2) with the observed
    P(|sup - mean| > x) and the reference 2 exp(-CONCENTRATION_C x^2 / sigma*^2).
    """
    _check_trials(trials, TAIL_MIN_TRIALS, "concentration_check needs trials >= 1e4")
    V = T.vectors.T
    draw = _coefficients("bernoulli", np.random.default_rng(seed), T.ell)
    sups = np.concatenate(list(mc_chunks(trials, lambda count: _row_max(draw(count), V))))
    sigma = float(np.linalg.norm(T.vectors, axis=1).max())
    mean = float(sups.mean())
    dev = np.abs(sups - mean)
    xs = np.array([m * sigma for m in _TAIL_MULTIPLES])
    emp = np.array([float((dev > x).mean()) for x in xs])
    bound = (2.0 * np.exp(-CONCENTRATION_C * xs**2 / sigma**2) if sigma > 0
             else np.full_like(xs, 2.0))
    return TailTable(x=xs, empirical=emp, bound=bound, sigma_star=sigma, sup_mean=mean)


def bernoulli_gaussian_ratio(T: FiniteIndexSet, trials: int = 10000, seed: int = 0) -> float:
    """emp_sup(bernoulli) / emp_sup(gaussian), with the 0/0 -> 1 convention."""
    eb = emp_sup("bernoulli", T, trials=trials, seed=child_seed(seed, 0))
    eg = emp_sup("gaussian", T, trials=trials, seed=child_seed(seed, 1))
    if eg.value == 0.0:
        return 1.0 if eb.value == 0.0 else math.inf
    return eb.value / eg.value
