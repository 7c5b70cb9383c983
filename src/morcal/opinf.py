"""Operator inference: ridge-regularised least squares for reduced operators.

Fits a linear operator and an optional quadratic operator acting on the
symmetric Kronecker compression of the state against reduced
time-derivative data, with the sampled source contribution of the heat
load subtracted beforehand.
"""

from dataclasses import dataclass

import numpy as np

from morcal.deim import DeimOperators, reduced_arrhenius
from morcal.errors import ConfigError, DataError, NumericError

__all__ = [
    "RomOperators",
    "sym_kron",
    "quadratic_size",
    "assemble_regression",
    "solve_opinf",
]


def quadratic_size(r: int) -> int:
    """Length of the symmetric Kronecker compression, r (r + 1) / 2."""
    return r * (r + 1) // 2


def sym_kron(s: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker compression of a state or state stack.

    For r = 2 and s = (x, y) the result is (x^2, x*y, y^2): products s_i s_j
    with i <= j in lexicographic order, each cross term appearing exactly
    once and unweighted.  Accepts (r,) vectors or (r, m) column stacks.
    """
    s = np.asarray(s, dtype=float)
    rows, cols = np.triu_indices(s.shape[0])
    return s[rows] * s[cols]


@dataclass
class RomOperators:
    """Reduced operators: linear a and quadratic h (on sym_kron)."""

    a: np.ndarray  # (r, r)
    h: np.ndarray | None = None  # (r, q) with q = r(r+1)/2

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        r = self.r
        if self.a.shape != (r, r):
            raise DataError("linear operator must be square")
        if not np.all(np.isfinite(self.a)):
            raise DataError("linear operator has non-finite entries")
        if self.h is not None:
            self.h = np.asarray(self.h, dtype=float)
            if self.h.shape != (r, quadratic_size(r)):
                raise DataError(f"quadratic operator must have shape ({r}, {quadratic_size(r)})")
            if not np.all(np.isfinite(self.h)):
                raise DataError("quadratic operator has non-finite entries")

    @property
    def r(self) -> int:
        return self.a.shape[0]

    @property
    def q(self) -> int:
        return 0 if self.h is None else self.h.shape[1]

    def copy(self) -> "RomOperators":
        return RomOperators(a=self.a.copy(), h=None if self.h is None else self.h.copy())


def assemble_regression(
    reduced_states: np.ndarray,
    reduced_derivatives: np.ndarray,
    controls: np.ndarray,
    deim_ops: DeimOperators | None,
    include_quadratic: bool,
):
    """Build the least-squares system (design, target) for operator fitting.

    Parameters
    ----------
    reduced_states : (r, m) reduced coordinates per column.
    reduced_derivatives : (r, m) reduced time derivatives per column.
    controls : (m,) heat load R per column.
    deim_ops : sampled source operators whose contribution is subtracted
        from the derivatives, or None when no source term is present.
    include_quadratic : whether the design carries the sym_kron(state) block.

    Returns
    -------
    design : (m, d) with feature blocks [state] or [state, sym_kron(state)].
    target : (m, r).
    """
    s = np.asarray(reduced_states, dtype=float)
    if reduced_derivatives is None:
        raise DataError(
            "reduced derivatives are missing; regenerate the snapshots so that "
            "they carry exact derivative data"
        )
    d = np.asarray(reduced_derivatives, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if s.ndim != 2 or d.shape != s.shape:
        raise DataError("states and derivatives must be (r, m) with equal shapes")
    m = s.shape[1]
    if controls.shape != (m,):
        raise DataError("controls must hold one heat load per column")

    blocks = [s.T]
    if include_quadratic:
        blocks.append(sym_kron(s).T)
    design = np.hstack(blocks)

    target = d.T.copy()
    if deim_ops is not None:
        target -= reduced_arrhenius(deim_ops, s, controls).T
    return design, target


def solve_opinf(design: np.ndarray, target: np.ndarray, tikhonov_lambda: float) -> RomOperators:
    """Minimise |design O^T - target|_F^2 + lambda |O|_F^2 for O = [a h].

    The block layout is read from the column count: r columns hold the
    linear block alone, r + r(r+1)/2 add the quadratic block.  A
    rank-deficient system with lambda = 0 is refused.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2 or target.ndim != 2 or design.shape[0] != target.shape[0]:
        raise DataError("design and target must share the row count")
    if tikhonov_lambda < 0.0:
        raise ConfigError("tikhonov_lambda must be nonnegative")
    m, d = design.shape
    r = target.shape[1]
    if d not in (r, r + quadratic_size(r)):
        raise DataError(f"design column count {d} fits no block layout for r={r}")

    if tikhonov_lambda == 0.0 and np.linalg.matrix_rank(design) < d:
        raise NumericError(
            "design matrix is rank deficient and tikhonov_lambda is zero; "
            "set tikhonov_lambda > 0 to regularise the fit"
        )

    augmented = np.vstack([design, np.sqrt(tikhonov_lambda) * np.eye(d)])
    padded = np.vstack([target, np.zeros((d, r))])
    solution, _, _, _ = np.linalg.lstsq(augmented, padded, rcond=None)
    operators = solution.T  # (r, d)
    return RomOperators(a=operators[:, :r], h=operators[:, r:] if d > r else None)
