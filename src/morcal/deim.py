"""Discrete empirical interpolation for the reactor heat source.

The source nonlinearity is sampled at a handful of grid points chosen by
the classic greedy recursion, and the reduced evaluation maps those samples
back into reduced coordinates with two small matrices.  Which rows hold
the source, its gain and the Arrhenius constants come from the FomConfig
(``solid_rows``); the source snapshots, their basis and the greedy
selection live on those rows alone.  Because snapshots are standardised
before projection, the operators also keep the basis's affine unscale map
at the sample rows so the exponential always sees physical temperatures.
"""

import logging
from dataclasses import dataclass

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError
from morcal.fom import FomConfig, arrhenius_source
from morcal.pod import PodBasis
from morcal.snapshots import SnapshotSet

__all__ = [
    "DeimOperators",
    "nonlinearity_snapshots",
    "nonlinearity_basis",
    "deim_points",
    "build_deim_operators",
    "reduced_arrhenius",
]

logger = logging.getLogger(__name__)

MIN_TEMPERATURE = 1.0  # [K] sampled temperatures at or below this abort the run


@dataclass
class DeimOperators:
    """Sampling-based reduced evaluation of the heat source.

    ``p1`` maps sampled source values into reduced coordinates, ``p2`` maps
    reduced coordinates to the sampled rows of the basis, and the affine
    pair (unscale_scale, unscale_shift) converts p2 @ s into physical
    temperatures at the sample points.
    """

    indices: np.ndarray  # (s,) sample rows, pairwise distinct
    p1: np.ndarray  # (r, s)
    p2: np.ndarray  # (s, r)
    arrhenius_prefactor: float
    arrhenius_exponent: float
    unscale_scale: np.ndarray  # (s,)
    unscale_shift: np.ndarray  # (s,)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.p1 = np.asarray(self.p1, dtype=float)
        self.p2 = np.asarray(self.p2, dtype=float)
        self.unscale_scale = np.asarray(self.unscale_scale, dtype=float)
        self.unscale_shift = np.asarray(self.unscale_shift, dtype=float)
        s = self.s
        # An empty index vector is allowed for imported compact operators
        # whose sample rows are unknown.
        if self.indices.size not in (0, s):
            raise DataError("index vector must have one entry per sample point")
        if self.indices.size != np.unique(self.indices).size:
            raise DataError("sample indices must be pairwise distinct")
        if self.p1.shape != (self.r, s) or self.p2.shape != (s, self.r):
            raise DataError("p1 and p2 shapes are inconsistent")
        if self.unscale_scale.shape != (s,) or self.unscale_shift.shape != (s,):
            raise DataError("unscale coefficients must have one entry per sample point")

    @property
    def s(self) -> int:
        return self.p2.shape[0]

    @property
    def r(self) -> int:
        return self.p1.shape[0]

    def sample_temperatures(self, s_red: np.ndarray) -> np.ndarray:
        """Physical temperatures at the sample points for reduced state(s)."""
        proj = self.p2 @ np.asarray(s_red, dtype=float)
        if proj.ndim == 1:
            proj *= self.unscale_scale
            proj += self.unscale_shift
        else:
            proj *= self.unscale_scale[:, None]
            proj += self.unscale_shift[:, None]
        return proj


def nonlinearity_snapshots(snapshots: SnapshotSet, cfg: FomConfig) -> np.ndarray:
    """Pointwise heat-source values on ``cfg.solid_rows`` for every snapshot column.

    Returns the ``(len(cfg.solid_rows), m)`` block, evaluated on the physical
    temperatures of those rows; the source is zero on every other row.
    """
    if snapshots.n != cfg.n:
        raise DataError("snapshot set does not match the model state size")
    ts = snapshots.data[cfg.solid_rows, :]
    if np.any(ts <= 0.0):
        raise NumericError("non-positive solid temperature in the snapshot data")
    return arrhenius_source(ts, snapshots.controls[None, :], cfg)


def nonlinearity_basis(source_snapshots: np.ndarray, s: int):
    """Rank-s left singular basis of the source block, and its singular values.

    ``s`` may not exceed the block's numerical rank (NumPy's ``matrix_rank``
    tolerance): the columns beyond it are rounding noise.
    """
    mat = np.asarray(source_snapshots, dtype=float)
    if s < 1:
        raise ConfigError(f"deim rank must be positive, got {s}")
    u, sigma, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(sigma > sigma[0] * max(mat.shape) * np.finfo(float).eps))
    if s > rank:
        raise ConfigError(f"deim rank s={s} exceeds the numerical rank {rank} of the "
                          "source snapshots")
    return u[:, :s], sigma


def deim_points(u_n: np.ndarray) -> np.ndarray:
    """Greedy interpolation points for the columns of u_n.

    The first index maximises the magnitude of the first column.  At step j
    the coefficients interpolating column j on the selected rows are
    computed, and the row with the largest residual magnitude is added.
    Ties resolve to the lowest index.
    """
    u_n = np.asarray(u_n, dtype=float)
    if u_n.ndim != 2 or u_n.shape[1] < 1:
        raise DataError("u_n must be an n x s matrix with s >= 1")
    n, s = u_n.shape
    if s > n:
        raise DataError("cannot select more sample points than rows")
    indices = [int(np.argmax(np.abs(u_n[:, 0])))]
    for j in range(1, s):
        block = u_n[indices, :j]
        try:
            coeff = np.linalg.solve(block, u_n[indices, j])
        except np.linalg.LinAlgError:
            raise NumericError(f"singular interpolation block at selection step {j}") from None
        residual = u_n[:, j] - u_n[:, :j] @ coeff
        pick = int(np.argmax(np.abs(residual)))
        if pick in indices:
            raise NumericError(f"degenerate residual at selection step {j}")
        indices.append(pick)
    return np.array(indices, dtype=int)


def build_deim_operators(basis: PodBasis, u_n: np.ndarray, points: np.ndarray,
                         cfg: FomConfig) -> DeimOperators:
    """Assemble the reduced source operators from basis and sample points.

    ``u_n`` is the source basis on ``cfg.solid_rows`` and ``points`` are
    positions in it; the operators' ``indices`` are the full-state rows
    ``cfg.solid_rows[points]``.  ``p1`` folds in the gain
    1 / (rho_cp_solid * scale) that turns a raw source value into a
    scaled-state derivative, and the unscale pair comes from the basis's own
    scaling.  The Arrhenius constants are ``cfg``'s.
    """
    scaling = basis.scaling
    if basis.n != cfg.n:
        raise DataError(f"basis has {basis.n} rows, the model state {cfg.n}")
    rows = cfg.solid_rows
    u_n = np.asarray(u_n, dtype=float)
    points = np.asarray(points, dtype=int)
    if u_n.shape != (rows.size, points.size):
        raise DataError("u_n shape must be (solid rows, s) with one column per sample point")
    block = u_n[points, :]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond):
        raise NumericError("interpolation block is singular")
    logger.info("deim interpolation block condition number: %.3e", cond)

    gain = 1.0 / (cfg.rho_cp_solid * scaling.row_scale[rows])
    # p1 = U^T * diag(gain) * U_N * block^{-1} over the solid rows, via a solve on the right.
    try:
        p1 = np.linalg.solve(block.T, (basis.basis[rows].T @ (gain[:, None] * u_n)).T).T
    except np.linalg.LinAlgError:
        raise NumericError("interpolation block is singular") from None

    indices = rows[points]
    return DeimOperators(
        indices=indices,
        p1=p1,
        p2=basis.basis[indices, :],
        arrhenius_prefactor=cfg.arrhenius_prefactor,
        arrhenius_exponent=cfg.arrhenius_exponent,
        unscale_scale=scaling.row_scale[indices],
        unscale_shift=scaling.row_shift[indices],
    )


def reduced_arrhenius(ops: DeimOperators, s_red: np.ndarray, heat_load) -> np.ndarray:
    """Reduced heat-source term R * prefactor * p1 @ exp(exponent / T).

    ``s_red`` may be a single reduced state (r,) or a stack (r, m) with a
    matching scalar or (m,) heat load.  Sampled temperatures at or below
    1 K abort with a NumericError, since the exponential would silently
    produce garbage there.
    """
    t = ops.sample_temperatures(s_red)
    if not t.min() > MIN_TEMPERATURE:
        raise NumericError(
            f"sampled temperature dropped to {float(np.min(t)):.3g} K (limit "
            f"{MIN_TEMPERATURE:g} K); the reduced trajectory left the trusted range"
        )
    values = np.exp(ops.arrhenius_exponent / t)
    return heat_load * ops.arrhenius_prefactor * (ops.p1 @ values)

