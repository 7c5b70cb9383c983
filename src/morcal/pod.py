"""Proper orthogonal decomposition of snapshot matrices.

The basis comes from a thin SVD of the standardised snapshot matrix and
carries the ScalingSpec that standardised it.  A QR factorisation of the
transposed (m, n) matrix comes first and the SVD is taken of its triangular
factor, which has the same left singular vectors and values but at most n
columns (Chan's R-SVD), so a wide snapshot matrix costs one QR pass over
its columns.  Column signs are fixed so the entry of largest magnitude in
each mode is positive, which keeps the output deterministic across
repeated runs.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError
from morcal.snapshots import ScalingSpec
from morcal.textio import fmt_row, write_rows

__all__ = [
    "PodBasis",
    "compute_pod",
    "project",
    "save_basis",
]


@dataclass
class PodBasis:
    """Orthonormal reduced basis with the full singular spectrum and its scaling."""

    basis: np.ndarray  # (n, r), orthonormal columns
    singular_values: np.ndarray  # all min(n, m) values, descending
    scaling: ScalingSpec = field(repr=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.singular_values = np.asarray(self.singular_values, dtype=float)
        if self.basis.ndim != 2 or self.basis.shape[1] < 1:
            raise DataError("basis must be an n x r matrix with r >= 1")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(self.r))) > 1e-10:
            raise NumericError("basis columns are not orthonormal")
        if np.any(np.diff(self.singular_values) > 1e-12):
            raise DataError("singular values must be sorted in descending order")
        if self.scaling.n != self.n:
            raise DataError(f"scaling covers {self.scaling.n} rows, the basis has {self.n}")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def r(self) -> int:
        return self.basis.shape[1]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return u * signs


def compute_pod(snapshot_matrix: np.ndarray, r: int, scaling: ScalingSpec) -> PodBasis:
    """Thin SVD basis of rank r.

    Parameters
    ----------
    snapshot_matrix : (n, m) array, already standardised by ``scaling``.
    r : number of modes to keep, 1 <= r <= min(n, m).
    scaling : the ScalingSpec recorded on the basis for later lifting.
    """
    s = np.asarray(snapshot_matrix, dtype=float)
    if s.ndim != 2:
        raise DataError("snapshot matrix must be 2-dimensional")
    max_r = min(s.shape)
    if not 1 <= r <= max_r:
        raise ConfigError(f"pod_rank={r} must satisfy 1 <= pod_rank <= {max_r}")
    # s = R^T Q^T, so s and R^T share their left singular vectors and values.
    u, sigma, _ = np.linalg.svd(np.linalg.qr(s.T, mode="r").T, full_matrices=False)
    return PodBasis(basis=_fix_signs(u[:, :r]), singular_values=sigma, scaling=scaling)


def project(basis: PodBasis, x: np.ndarray) -> np.ndarray:
    """Reduced coordinates U^T x for a vector or column-stacked matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != basis.n:
        raise DataError(f"cannot project: expected leading dimension {basis.n}, got {x.shape[0]}")
    return basis.basis.T @ x


def save_basis(basis: PodBasis, path) -> None:
    """Write the basis to a text file: header, one mode per line, spectrum.

    Nothing reads the file back: the model file's [basis] and
    [singular_values] sections hold the same numbers.
    """
    with open(path, "w") as fh:
        fh.write(f"n={basis.n} r={basis.r}\n")
        write_rows(fh, basis.basis.T)
        fh.write(fmt_row(basis.singular_values) + "\n")

