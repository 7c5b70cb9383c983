"""Operator inference: ridge-regularised least squares for the reduced operator.

Fits the linear operator against reduced time-derivative data, with the
sampled source contribution of the heat load subtracted beforehand.
"""

from dataclasses import dataclass

import numpy as np

from morcal.deim import DeimOperators, reduced_arrhenius
from morcal.errors import ConfigError, DataError, NumericError

__all__ = [
    "RomOperators",
    "assemble_regression",
    "solve_opinf",
]


@dataclass
class RomOperators:
    """Reduced linear operator a; the source term lives in DeimOperators."""

    a: np.ndarray  # (r, r)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        r = self.r
        if self.a.shape != (r, r):
            raise DataError("linear operator must be square")
        if not np.all(np.isfinite(self.a)):
            raise DataError("linear operator has non-finite entries")

    @property
    def r(self) -> int:
        return self.a.shape[0]


def assemble_regression(
    reduced_states: np.ndarray,
    reduced_derivatives: np.ndarray,
    controls: np.ndarray,
    deim_ops: DeimOperators,
):
    """Build the least-squares system (design, target) for operator fitting.

    Parameters
    ----------
    reduced_states : (r, m) reduced coordinates per column.
    reduced_derivatives : (r, m) reduced time derivatives per column.
    controls : (m,) heat load R per column.
    deim_ops : sampled source operators whose contribution is subtracted
        from the derivatives.

    Returns
    -------
    design : (m, r), the states.
    target : (m, r).
    """
    s = np.asarray(reduced_states, dtype=float)
    d = np.asarray(reduced_derivatives, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if s.ndim != 2 or d.shape != s.shape:
        raise DataError("states and derivatives must be (r, m) with equal shapes")
    m = s.shape[1]
    if controls.shape != (m,):
        raise DataError("controls must hold one heat load per column")

    return s.T, d.T - reduced_arrhenius(deim_ops, s, controls).T


def solve_opinf(design: np.ndarray, target: np.ndarray, tikhonov_lambda: float) -> RomOperators:
    """Minimise |design a^T - target|_F^2 + lambda |a|_F^2 for the linear operator a.

    The design must have r columns, one per reduced coordinate.  A
    rank-deficient system with lambda = 0 is refused.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2 or target.ndim != 2 or design.shape[0] != target.shape[0]:
        raise DataError("design and target must share the row count")
    if tikhonov_lambda < 0.0:
        raise ConfigError("tikhonov_lambda must be nonnegative")
    r = target.shape[1]
    if design.shape[1] != r:
        raise DataError(f"design has {design.shape[1]} columns; the linear operator needs r={r}")

    if tikhonov_lambda == 0.0 and np.linalg.matrix_rank(design) < r:
        raise NumericError(
            "design matrix is rank deficient and tikhonov_lambda is zero; "
            "set tikhonov_lambda > 0 to regularise the fit"
        )

    augmented = np.vstack([design, np.sqrt(tikhonov_lambda) * np.eye(r)])
    padded = np.vstack([target, np.zeros((r, r))])
    solution, _, _, _ = np.linalg.lstsq(augmented, padded, rcond=None)
    return RomOperators(a=solution.T)
