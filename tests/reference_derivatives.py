"""Plain reference path of ``compute_derivatives``, kept as its oracle.

The package gathers each stencil entry once, through a 1-D ``take`` on
flat indices i * n_t + k, and squares the gathered entries for the C^2
stencils.  This path indexes the 2-D grid for every entry of every
stencil and squares the whole grid first.  Both compute every output
with the same operations in the same order, so they agree bit for bit.
"""

import numpy as np

from transportid.errors import ValidationError
from transportid.preprocess import DerivativeField


def plain_compute_derivatives(field):
    v = field.values
    m = field.mask
    n_x, n_t = v.shape
    if n_x < 5 or n_t < 3:
        raise ValidationError("field too small for the derivative stencils")

    valid = np.zeros((n_x, n_t), dtype=bool)
    valid[2:-2, 1:-1] = (
        m[2:-2, 1:-1]
        & m[:-4, 1:-1] & m[1:-3, 1:-1] & m[3:-1, 1:-1] & m[4:, 1:-1]
        & m[2:-2, :-2] & m[2:-2, 2:]
    )
    if not valid.any():
        raise ValidationError("no grid point keeps a full derivative stencil")
    kk, ii = np.nonzero(valid.T)
    i, k = ii, kk

    dx, dt = field.dx, field.dt
    s = v * v
    c_t = (v[i, k + 1] - v[i, k - 1]) / (2.0 * dt)
    c_x = (v[i + 1, k] - v[i - 1, k]) / (2.0 * dx)
    c_xx = (v[i + 1, k] - 2.0 * v[i, k] + v[i - 1, k]) / dx ** 2
    c_xxx = (0.5 * v[i + 2, k] - v[i + 1, k] + v[i - 1, k] - 0.5 * v[i - 2, k]) / dx ** 3
    c2_x = (s[i + 1, k] - s[i - 1, k]) / (2.0 * dx)
    c2_xx = (s[i + 1, k] - 2.0 * s[i, k] + s[i - 1, k]) / dx ** 2
    c2_xxx = (0.5 * s[i + 2, k] - s[i + 1, k] + s[i - 1, k] - 0.5 * s[i - 2, k]) / dx ** 3

    return DerivativeField(
        x_index=i, t_index=k,
        c=v[i, k], c_t=c_t, c_x=c_x, c_xx=c_xx, c_xxx=c_xxx,
        c2_x=c2_x, c2_xx=c2_xx, c2_xxx=c2_xxx,
    )
