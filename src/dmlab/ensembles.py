"""Random matrix ensembles and distributional diagnostics.

Seven marginal laws are supported.  All are symmetric; all except UniformPM1
are isotropic (identity covariance per vector copy):

  GaussianIID        iid standard normal entries
  SphericalRows      vector copies uniform on the sphere of radius sqrt(dim)
  UniformPM1         iid uniform on [-1, 1]; variance 1/3, deliberately kept
                     unscaled so single-matrix experiments use the raw law
  UniformIsotropic   sqrt(3) * uniform[-1, 1]; unit variance
  RademacherIID      iid signs
  LogConcaveSimplex  vector copies uniform on r * B_1^dim with
                     r = sqrt((dim+1)(dim+2)/2), the isotropic scaling
  HeavyTailedBounded iid unit-variance Student-t (12 dof) coordinates, the
                     whole vector resampled while ||X||_2 > 100 sqrt(dim)

Entry-level kinds fill the matrix directly.  Vector-level kinds (spherical,
simplex, heavy-tailed) draw iid vector copies along `vector_axis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from dmlab.calibration import PAOURIS_C1
from dmlab.seeding import child_seed

KINDS = (
    "GaussianIID",
    "SphericalRows",
    "UniformPM1",
    "UniformIsotropic",
    "RademacherIID",
    "LogConcaveSimplex",
    "HeavyTailedBounded",
)

_T_DOF = 12
_T_SCALE = 1.0 / math.sqrt(_T_DOF / (_T_DOF - 2.0))  # unit variance
_REJECTION_RADIUS = 100.0

_SIZE_CAP = 2**33  # entries; guards accidental huge allocations


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    rows: int
    cols: int
    row_scale: float | None = None
    vector_axis: str = "rows"  # axis that indexes iid vector copies

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.rows * self.cols > _SIZE_CAP:
            raise ValueError(f"matrix size {self.rows}x{self.cols} exceeds the cap")
        if self.vector_axis not in ("rows", "cols"):
            raise ValueError("vector_axis must be 'rows' or 'cols'")

    @property
    def vector_dim(self) -> int:
        return self.cols if self.vector_axis == "rows" else self.rows

    @property
    def n_vectors(self) -> int:
        return self.rows if self.vector_axis == "rows" else self.cols


def _simplex_ball_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # Exponential spacings give a uniform point of the simplex {x>=0, sum<=1};
    # random signs spread it over B_1^dim, then the isotropic radius is applied.
    E = rng.standard_exponential((count, dim + 1))
    simplex = E[:, :dim] / E.sum(axis=1, keepdims=True)
    signs = rng.integers(0, 2, size=(count, dim)) * 2 - 1
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


def _sample_vectors(kind: str, rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    if kind == "SphericalRows":
        G = rng.standard_normal((count, dim))
        return math.sqrt(dim) * G / np.linalg.norm(G, axis=1, keepdims=True)
    if kind == "LogConcaveSimplex":
        return _simplex_ball_vectors(rng, count, dim)
    if kind == "HeavyTailedBounded":
        return _heavy_tailed_vectors(rng, count, dim)
    raise ValueError(kind)


def sample_matrix(spec: EnsembleSpec, seed: int) -> np.ndarray:
    """Materialize one draw; deterministic given (spec, seed)."""
    rng = np.random.default_rng(seed)
    shape = (spec.rows, spec.cols)
    if spec.kind == "GaussianIID":
        M = rng.standard_normal(shape)
    elif spec.kind == "UniformPM1":
        M = rng.uniform(-1.0, 1.0, shape)
    elif spec.kind == "UniformIsotropic":
        M = math.sqrt(3.0) * rng.uniform(-1.0, 1.0, shape)
    elif spec.kind == "RademacherIID":
        M = (rng.integers(0, 2, size=shape) * 2 - 1).astype(float)
    else:
        V = _sample_vectors(spec.kind, rng, spec.n_vectors, spec.vector_dim)
        M = V if spec.vector_axis == "rows" else V.T
    if spec.row_scale is not None:
        M = M * spec.row_scale
    return M


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
        if self.row_spec.row_scale is not None:
            raise ValueError("row factor scaling is applied by sample_product; leave row_scale unset")

    @property
    def n(self) -> int:
        return self.row_spec.cols

    @property
    def d(self) -> int:
        return self.col_spec.rows


def product_spec(z_kind: str, x_kind: str, n: int, d: int, m: int) -> ProductEnsembleSpec:
    """Convenience builder from the two marginal laws and the three dimensions."""
    return ProductEnsembleSpec(
        row_spec=EnsembleSpec(z_kind, rows=m, cols=n, vector_axis="rows"),
        col_spec=EnsembleSpec(x_kind, rows=d, cols=m, vector_axis="cols"),
        m=m,
    )


def sample_product(spec: ProductEnsembleSpec, seed: int):
    """Draw (Gamma, Gamma1, Gamma2).

    Gamma1 is m x n with rows Z_i / sqrt(m); Gamma2 is d x m with columns X_i;
    Gamma = Gamma1^T Gamma2^T is the assembled n x d map.  All three are
    returned so spectral/sparse event checks can run on the raw factors.
    """
    g1 = sample_matrix(spec.row_spec, child_seed(seed, 1)) / math.sqrt(spec.m)
    g2 = sample_matrix(spec.col_spec, child_seed(seed, 2))
    return g1.T @ g2.T, g1, g2


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
    if trials < 1000:
        raise ValueError("diagnostics need trials >= 1000")
    if probe_directions < 1:
        raise ValueError("need at least one probe direction")
    dim = spec.vector_dim
    draw = EnsembleSpec(spec.kind, rows=trials, cols=dim,
                        row_scale=spec.row_scale, vector_axis="rows")
    Y = sample_matrix(draw, seed)

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
