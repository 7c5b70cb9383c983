"""Direct, unbatched formulas that the tests compare the package against.

The reduced right-hand side and its state Jacobian, written term by term
for a single state, so that the batched rollout and adjoint kernels in
``morcal.calibrate`` can be checked against a plain reference.
"""

import numpy as np

from morcal.deim import MIN_TEMPERATURE, reduced_arrhenius
from morcal.errors import NumericError


def theta(ops, deim_ops, s, heat_load):
    """Model right-hand side a s + source(s, R)."""
    s = np.asarray(s, dtype=float)
    rhs = ops.a @ s
    if deim_ops is not None:
        rhs = rhs + reduced_arrhenius(deim_ops, s, heat_load)
    return rhs


def arrhenius_jacobian(ops, s_red, heat_load):
    """Jacobian of reduced_arrhenius with respect to the reduced state.

    Chain rule through the sampling map: d/dT exp(b/T) = exp(b/T) * (-b/T^2),
    then T = unscale_scale * (p2 @ s) + unscale_shift.
    """
    t = ops.sample_temperatures(s_red)
    if not t.min() > MIN_TEMPERATURE:
        raise NumericError("sampled temperature out of range in jacobian evaluation")
    w = (
        heat_load
        * ops.arrhenius_prefactor
        * np.exp(ops.arrhenius_exponent / t)
        * (-ops.arrhenius_exponent / t ** 2)
        * ops.unscale_scale
    )
    return ops.p1 @ (w[:, None] * ops.p2)
