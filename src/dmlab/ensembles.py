"""Random matrix ensembles and distributional diagnostics.

Seven marginal laws are supported.  All are symmetric; all except UniformPM1
are isotropic (identity covariance per vector copy):

  GaussianIID        iid standard normal entries
  SphericalRows      vector copies uniform on the sphere of radius sqrt(dim)
  UniformPM1         iid uniform on [-1, 1]; variance 1/3, deliberately kept
                     unscaled so single-matrix experiments use the raw law
  UniformIsotropic   sqrt(3) * uniform[-1, 1]; unit variance
  RademacherIID      iid signs, each the top bit of one 32-bit draw
  LogConcaveSimplex  vector copies uniform on r * B_1^dim with
                     r = sqrt((dim+1)(dim+2)/2), the isotropic scaling
  HeavyTailedBounded iid unit-variance Student-t (12 dof) coordinates, the
                     whole vector resampled while ||X||_2 > 100 sqrt(dim)

Each law is one row of the table `_LAWS`: whether it draws vector copies, and
its draw.  Entry-level kinds fill a given matrix in place, with the same bits
as numpy's fresh draw.  Vector-level kinds (spherical, simplex, heavy-tailed)
draw iid vector copies along `vector_axis`.

`sample_product` draws the m x n row factor into one reused row block and
adds each block's share to Gamma, so its memory is O(block + n d + d m), not
O(m n).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from dmlab.calibration import PAOURIS_C1
from dmlab.seeding import _check_count, child_seed

_T_DOF = 12
_T_SCALE = 1.0 / math.sqrt(_T_DOF / (_T_DOF - 2.0))  # unit variance
_REJECTION_RADIUS = 100.0

_SIZE_CAP = 2**33  # entries; guards accidental huge allocations
# Row-factor bytes per block of sample_product.  The partition fixes the
# order in which Gamma sums its GEMM parts, so changing it moves Gamma's last
# bits.  Chosen when each block was a fresh array: at n = 4096, m = 8192 on
# a 2-vCPU Xeon with one BLAS thread, a draw took 0.275 s (median of 15) with
# 2 MiB blocks, against 0.287 s with 1 MiB and 0.307 s with 8 MiB.
_PRODUCT_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    rows: int
    cols: int
    vector_axis: str = "rows"  # axis that indexes iid vector copies

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        _check_count(self.rows, "rows and cols must be positive integers")
        _check_count(self.cols, "rows and cols must be positive integers")
        if self.rows * self.cols > _SIZE_CAP:
            raise ValueError(f"matrix size {self.rows}x{self.cols} exceeds the cap")
        if self.vector_axis not in ("rows", "cols"):
            raise ValueError("vector_axis must be 'rows' or 'cols'")

    @property
    def vector_dim(self) -> int:
        return self.cols if self.vector_axis == "rows" else self.rows


def _simplex_ball_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # Exponential spacings give a uniform point of the simplex {x>=0, sum<=1};
    # random signs spread it over B_1^dim, then the isotropic radius is applied.
    E = rng.standard_exponential((count, dim + 1))
    simplex = E[:, :dim] / E.sum(axis=1, keepdims=True)
    signs = _signs(rng, np.empty((count, dim)))
    radius = math.sqrt((dim + 1) * (dim + 2) / 2.0)
    return radius * signs * simplex


def _heavy_tailed_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    V = _T_SCALE * rng.standard_t(_T_DOF, size=(count, dim))
    cap = _REJECTION_RADIUS * math.sqrt(dim)
    while True:
        bad = np.flatnonzero(np.linalg.norm(V, axis=1) > cap)
        if bad.size == 0:
            return V
        V[bad] = _T_SCALE * rng.standard_t(_T_DOF, size=(bad.size, dim))


def _spherical_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    G = rng.standard_normal((count, dim))
    return math.sqrt(dim) * G / np.linalg.norm(G, axis=1, keepdims=True)


def _signs(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    bits = rng.integers(0, 2**32, out.shape, dtype=np.uint32)
    bits >>= 31  # the bit that integers(0, 2) returns, without rejection
    np.multiply(bits, 2.0, out=out)
    out -= 1.0
    return out


def _uniform(rng: np.random.Generator, out: np.ndarray, scale: float = 1.0) -> None:
    # numpy's uniform(-1, 1) is -1 + 2u; (u - 1/2) * 2 scale is scale (2u - 1)
    # rounded once, since u - 1/2 is exact: the same bits, in place.
    rng.random(out=out)
    out -= 0.5
    out *= 2.0 * scale


# law -> (whether it draws vector copies, its draw).  A vector law maps
# (Generator, rows, cols) to `rows` new copies of dimension `cols`; an entry
# law fills a given C-contiguous float64 matrix row by row, (Generator, out).
_LAWS = {
    "GaussianIID": (False, lambda g, out: g.standard_normal(out=out)),
    "SphericalRows": (True, _spherical_vectors),
    "UniformPM1": (False, _uniform),
    "UniformIsotropic": (False, lambda g, out: _uniform(g, out, math.sqrt(3.0))),
    "RademacherIID": (False, _signs),
    "LogConcaveSimplex": (True, _simplex_ball_vectors),
    "HeavyTailedBounded": (True, _heavy_tailed_vectors),
}
KINDS = tuple(_LAWS)


def sample_matrix(
    spec: EnsembleSpec, seed: int | np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Materialize one draw; deterministic given (spec, seed).

    `seed` is an int or a Generator.  A Generator is drawn from as it stands,
    so consecutive row blocks of a GaussianIID, SphericalRows, UniformPM1,
    UniformIsotropic or RademacherIID spec drawn from one Generator equal one
    draw of all the rows, bit for bit.  LogConcaveSimplex draws all of its
    exponentials before its signs and HeavyTailedBounded redraws rejected
    vectors after the whole batch, so a blocked draw of those laws is a
    different valid draw.

    `out`, a C-contiguous float64 array of the spec's shape, receives the draw
    and is returned; the bits and the Generator's state afterwards are those
    of a draw without it.  Entry-level laws fill it in place; vector-level
    laws copy their draw into it.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise TypeError(f"seed must be an int or a numpy Generator, got {type(seed).__name__}")
    shape = (spec.rows, spec.cols)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"out is {out.dtype} of shape {out.shape}, the spec float64 of {shape}")
    rng = np.random.default_rng(seed)
    vectors, draw = _LAWS[spec.kind]
    if not vectors:
        out = np.empty(shape) if out is None else out
        draw(rng, out)
        return out
    x = draw(rng, *shape) if spec.vector_axis == "rows" else draw(rng, spec.cols, spec.rows).T
    if out is None:
        return x
    out[...] = x
    return out


@dataclass(frozen=True)
class ProductEnsembleSpec:
    """Two-factor product: an (m x n) row factor and a (d x m) column factor.

    The assembled map sends R^d to R^n via (1/sqrt(m)) sum_i Z_i X_i^T, where
    the Z_i are the row factor's rows and the X_i the column factor's columns.
    """

    row_spec: EnsembleSpec
    col_spec: EnsembleSpec
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("intermediate dimension m must be >= 1")
        if self.row_spec.rows != self.m or self.col_spec.cols != self.m:
            raise ValueError("factor shapes must share the intermediate dimension m")
        if self.row_spec.vector_axis != "rows" or self.col_spec.vector_axis != "cols":
            raise ValueError("row factor must hold vectors in rows, column factor in columns")

    @property
    def n(self) -> int:
        return self.row_spec.cols


def product_spec(z_kind: str, x_kind: str, n: int, d: int, m: int) -> ProductEnsembleSpec:
    """Convenience builder from the two marginal laws and the three dimensions."""
    return ProductEnsembleSpec(
        row_spec=EnsembleSpec(z_kind, rows=m, cols=n, vector_axis="rows"),
        col_spec=EnsembleSpec(x_kind, rows=d, cols=m, vector_axis="cols"),
        m=m,
    )


def sample_product(spec: ProductEnsembleSpec, seed: int):
    """Draw (Gamma, Gamma2).

    Gamma2 is d x m with columns X_i; Gamma = m^(-1/2) sum_i Z_i X_i^T is the
    assembled n x d map, Z_i being the rows of the m x n row factor.  The row
    factor is drawn in blocks of `_PRODUCT_BLOCK_BYTES` through `sample_matrix`
    from one Generator seeded with child_seed(seed, 1) into one row buffer
    allocated per call, each block scaled by 1/sqrt(m) in place and folded
    into Gamma, so memory is O(block + n d + d m).  A factor that fits in one
    block gives the Gamma of one whole draw, bit for bit.  With more blocks,
    the entry-level and SphericalRows row laws give the same rows and Gamma
    differs only by the GEMM's summation order; the other vector-level row
    laws give a different valid draw (see `sample_matrix`).
    """
    g2 = sample_matrix(spec.col_spec, child_seed(seed, 2))
    rng = np.random.default_rng(child_seed(seed, 1))
    block = max(1, _PRODUCT_BLOCK_BYTES // (8 * spec.n))
    buf = np.empty((min(block, spec.m), spec.n))
    gamma = None
    for start in range(0, spec.m, block):
        stop = min(start + block, spec.m)
        z = sample_matrix(replace(spec.row_spec, rows=stop - start), rng, out=buf[: stop - start])
        z /= math.sqrt(spec.m)
        part = z.T @ g2[:, start:stop].T
        gamma = part if gamma is None else np.add(gamma, part, out=gamma)
    return gamma, g2


@dataclass(frozen=True)
class MarginalDiagnostics:
    """Empirical distributional profile of one vector law."""

    dim: int
    trials: int
    isotropy_error: float          # ||empirical covariance - I||_op
    psi2_estimate: float           # max_p max_t Lp(<Y,t>) / sqrt(p)
    q: float
    lq_l2_ratio: float             # max_t Lq/L2 of the marginal
    small_ball: dict               # kappa0 -> max_t P(|<Y,t>| <= kappa0)
    norm_tail: dict                # u -> P(||Y|| >= C1 u sqrt(dim))
    paouris_c1: float


_P_GRID = (2, 4, 8, 16)                    # moment orders of the psi_2 estimate
_KAPPA_GRID = (1e-3, 1e-2, 5e-2, 1e-1)     # small-ball radii
_U_GRID = (1.0, 2.0, 3.0)                  # norm-tail levels


def marginal_diagnostics(
    spec: EnsembleSpec,
    probe_directions: int,
    trials: int,
    seed: int,
    q: float = 4.0,
) -> MarginalDiagnostics:
    """Probe isotropy, moment growth, small-ball mass and norm tails.

    Directions: `probe_directions` uniform random unit vectors plus the two
    canonical worst cases e_1 (coordinate marginals are the adversarial
    directions for product laws) and the normalized all-ones vector.
    """
    _check_count(trials, "diagnostics need trials >= 1000", low=1000)
    _check_count(probe_directions, "need at least one probe direction")
    if isinstance(q, bool) or not isinstance(q, numbers.Real) or not 1 <= q <= sys.float_info.max:
        raise ValueError(f"q must be a finite real number >= 1, got {q!r}")
    dim = spec.vector_dim
    Y = sample_matrix(EnsembleSpec(spec.kind, rows=trials, cols=dim), seed)

    rng = np.random.default_rng(child_seed(seed, 1))
    P = rng.standard_normal((dim, probe_directions))
    P /= np.linalg.norm(P, axis=0)
    e1 = np.zeros((dim, 1)); e1[0, 0] = 1.0
    ones = np.full((dim, 1), 1.0 / math.sqrt(dim))
    P = np.concatenate([e1, ones, P], axis=1)

    proj = Y @ P  # trials x nprobes
    cov = (Y.T @ Y) / trials
    iso_err = float(np.max(np.abs(np.linalg.eigvalsh(cov - np.eye(dim)))))

    abs_proj = np.abs(proj)
    psi2 = 0.0
    for p in _P_GRID:
        lp = (abs_proj**p).mean(axis=0) ** (1.0 / p)
        psi2 = max(psi2, float(lp.max()) / math.sqrt(p))
    l2 = np.sqrt((abs_proj**2).mean(axis=0))
    lq = (abs_proj**q).mean(axis=0) ** (1.0 / q)
    lq_ratio = float((lq / l2).max())

    small_ball = {float(k): float((abs_proj <= k).mean(axis=0).max()) for k in _KAPPA_GRID}
    norms = np.linalg.norm(Y, axis=1)
    tail = {float(u): float((norms >= PAOURIS_C1 * u * math.sqrt(dim)).mean()) for u in _U_GRID}

    return MarginalDiagnostics(
        dim=dim, trials=trials, isotropy_error=iso_err, psi2_estimate=psi2,
        q=q, lq_l2_ratio=lq_ratio, small_ball=small_ball, norm_tail=tail,
        paouris_c1=PAOURIS_C1,
    )
