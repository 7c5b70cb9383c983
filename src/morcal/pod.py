"""Proper orthogonal decomposition of snapshot matrices.

The basis comes from a thin SVD of the (scaled) snapshot matrix.  Column
signs are fixed so the entry of largest magnitude in each mode is positive,
which keeps the output deterministic across repeated runs.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError
from morcal.snapshots import ScalingSpec
from morcal.textio import TextReader, fmt_row, parse_int

__all__ = [
    "PodBasis",
    "compute_pod",
    "project",
    "lift",
    "reconstruction_error_curve",
    "save_basis",
    "load_basis",
]


@dataclass
class PodBasis:
    """Orthonormal reduced basis with the full singular spectrum."""

    basis: np.ndarray  # (n, r), orthonormal columns
    singular_values: np.ndarray  # all min(n, m) values, descending
    scaling: ScalingSpec | None = field(default=None, repr=False)

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


def compute_pod(snapshot_matrix: np.ndarray, r: int, scaling: ScalingSpec | None = None) -> PodBasis:
    """Thin SVD basis of rank r.

    Parameters
    ----------
    snapshot_matrix : (n, m) array, already scaled if scaling is used.
    r : number of modes to keep, 1 <= r <= min(n, m).
    scaling : optional ScalingSpec recorded on the basis for later lifting.
    """
    s = np.asarray(snapshot_matrix, dtype=float)
    if s.ndim != 2:
        raise DataError("snapshot matrix must be 2-dimensional")
    max_r = min(s.shape)
    if not 1 <= r <= max_r:
        raise ConfigError(f"rank r must satisfy 1 <= r <= {max_r}, got {r}")
    u, sigma, _ = np.linalg.svd(s, full_matrices=False)
    return PodBasis(basis=_fix_signs(u[:, :r]), singular_values=sigma, scaling=scaling)


def project(basis: PodBasis, x: np.ndarray) -> np.ndarray:
    """Reduced coordinates U^T x for a vector or column-stacked matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != basis.n:
        raise DataError(f"cannot project: expected leading dimension {basis.n}, got {x.shape[0]}")
    return basis.basis.T @ x

def lift(basis: PodBasis, y: np.ndarray) -> np.ndarray:
    """Full-order reconstruction U y of reduced coordinates."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != basis.r:
        raise DataError(f"cannot lift: expected leading dimension {basis.r}, got {y.shape[0]}")
    return basis.basis @ y


def reconstruction_error_curve(training: np.ndarray, validation: np.ndarray | None, r_max: int):
    """Worst-column mean-squared reconstruction error for each rank.

    For r = 1..r_max the error of a column x is |x - U_r U_r^T x|^2 / n with
    U_r fitted on the training matrix.  Returns a pair of arrays (training,
    validation); the second is None when no validation matrix is given.
    """
    training = np.asarray(training, dtype=float)
    if not 1 <= r_max <= min(training.shape):
        raise ConfigError(f"r_max must satisfy 1 <= r_max <= {min(training.shape)}")
    u, _, _ = np.linalg.svd(training, full_matrices=False)
    u = u[:, :r_max]

    def curve(mat):
        n = mat.shape[0]
        total = np.sum(mat ** 2, axis=0)
        coeffs = u.T @ mat
        captured = np.cumsum(coeffs ** 2, axis=0)
        residual = np.maximum(total[None, :] - captured, 0.0)
        return np.max(residual, axis=1) / n

    train_curve = curve(training)
    if validation is None:
        return train_curve, None
    validation = np.asarray(validation, dtype=float)
    if validation.shape[0] != training.shape[0]:
        raise DataError("validation columns must match the training state dimension")
    return train_curve, curve(validation)


def save_basis(basis: PodBasis, path) -> None:
    """Write the basis to a text file: header, one mode per line, spectrum."""
    with open(path, "w") as fh:
        fh.write(f"n={basis.n} r={basis.r}\n")
        for j in range(basis.r):
            fh.write(fmt_row(basis.basis[:, j]) + "\n")
        fh.write(fmt_row(basis.singular_values) + "\n")


def load_basis(path) -> PodBasis:
    with TextReader(path) as rd:
        header = rd.next_line("header").split()
        if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("r="):
            raise rd.error("expected header 'n=<int> r=<int>'")
        n = parse_int(header[0][2:], rd, "n")
        r = parse_int(header[1][2:], rd, "r")
        # One mode per line; keep the (n, r) basis C-contiguous.
        basis = np.ascontiguousarray(rd.read_rows(r, n, "mode").T)
        count = len((rd.peek() or "").split())
        sigma = rd.read_floats(count, "singular values") if count else np.zeros(0)
        return PodBasis(basis=basis, singular_values=sigma)
