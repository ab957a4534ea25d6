"""Measurement preprocessing: noise injection, smoothing, derivatives.

Smoothing follows a two-stage local scheme: around every sample a window of
Chebyshev nodes is laid out, the value at each node is estimated by a local
polynomial least-squares fit over the samples near that node, and the node
values are interpolated back to the sample position (barycentric form).
Because the grid is uniform, the composition collapses to a fixed finite
impulse response, which is applied twice per row / per column; samples
whose full support window reaches past the field edge are dropped rather
than fitted with a shrunken window.

Derivatives use the second-order central stencils

    du/dt   = (u[k+1] - u[k-1]) / (2 dt)
    du/dx   = (u[i+1] - u[i-1]) / (2 dx)
    d2u/dx2 = (u[i+1] - 2 u[i] + u[i-1]) / dx^2
    d3u/dx3 = (0.5 u[i+2] - u[i+1] + u[i-1] - 0.5 u[i-2]) / dx^3

applied to the concentration field and, for the quadratic candidate terms,
to the squared field directly.  Points whose stencil touches a boundary or
a masked entry are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from functools import cached_property

import numpy as np

from .chebyshev import barycentric_weights, chebyshev_nodes
from .errors import ValidationError, check_numbers
from .transport import Field


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative uniform noise: C -> C * (1 + delta * e), e ~ U[-1, 1]."""

    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_numbers(self)
        if not 0.0 <= self.delta < 1.0:
            raise ValidationError(f"noise delta must be in [0, 1), got {self.delta}")
        if self.seed < 0:
            raise ValidationError(f"noise seed must be >= 0, got {self.seed}")


def add_noise(field: Field, spec: NoiseSpec) -> Field:
    """Perturb every unmasked entry with an independent uniform draw.

    The draw grid matches the field shape, so the realisation for a given
    seed does not depend on the mask pattern.  The result is a new field;
    at delta = 0 its values equal the input's bit for bit.
    """
    e = np.random.default_rng(spec.seed).uniform(-1.0, 1.0, size=field.values.shape)
    return Field(np.where(field.mask, field.values * (1.0 + spec.delta * e), field.values),
                 field.x0, field.dx, field.t0, field.dt, field.mask.copy())


@dataclass(frozen=True)
class SmoothingConfig:
    """Half-windows of the two-stage smoother, in grid steps along t and
    along x.  Each sets both the Chebyshev node spread and the local
    least-squares window on its axis."""

    half_window_t: int = 120
    half_window_x: int = 6

    def __post_init__(self) -> None:
        check_numbers(self)
        # A local cubic fit around a node between two samples needs a
        # half-window of two steps to span four of them.
        if min(self.half_window_t, self.half_window_x) < 2:
            raise ValidationError("smoothing half-windows must be >= 2 steps, got "
                                  f"{self.half_window_t} and {self.half_window_x}")


def _node_fit_weights(node: float, half_window: int) -> tuple[np.ndarray, int]:
    """FIR weights of a local polynomial fit of order ``_ORDER_LS`` around
    ``node`` evaluated at the node itself, over the integer offsets within
    ``half_window`` of it."""
    j_lo = int(np.ceil(node - half_window - 1e-9))
    j_hi = int(np.floor(node + half_window + 1e-9))
    offsets = np.arange(j_lo, j_hi + 1)
    local = (offsets - node) / half_window
    design = np.vander(local, _ORDER_LS + 1, increasing=True)
    # Row of the pseudo-inverse that yields the fitted value at local coord 0.
    weights = np.linalg.pinv(design)[0]
    return weights, j_lo


# Interpolation degree (degree + 1 Chebyshev nodes) and local polynomial
# order of every smoothing window.
_DEGREE_CHEB = 5
_ORDER_LS = 3


def composite_filter(half_window: int) -> np.ndarray:
    """Collapse Chebyshev-node local fits plus barycentric interpolation back
    to the window centre into a single odd-length FIR filter.

    ``half_window`` sets both the node spread and the local fit window.  The
    returned filter w satisfies sum w = 1 and annihilates moments up to
    ``_ORDER_LS``, so polynomials up to that order pass through unchanged.
    """
    nodes = half_window * chebyshev_nodes(_DEGREE_CHEB + 1)
    bary = barycentric_weights(nodes)
    interp = (bary / (0.0 - nodes))
    interp = interp / interp.sum()  # interpolation weights at the centre

    support = int(np.floor(np.max(np.abs(nodes)) + half_window + 1e-9))
    w = np.zeros(2 * support + 1)
    for node, c_i in zip(nodes, interp):
        fit_w, j_lo = _node_fit_weights(node, half_window)
        start = j_lo + support
        w[start:start + fit_w.size] += c_i * fit_w
    return w


def _filter_axis(values: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    return np.apply_along_axis(np.correlate, axis, values, w, "same")


def smooth_field(field: Field, cfg: SmoothingConfig, conc_floor: float) -> Field:
    """Smooth twice, each pass along t (per location) then along x (per
    time).

    Each pass drops half a filter window at both ends of every series, so
    the output keeps the interior rectangle that lies ``w.size - 1``
    samples inside each edge, minus every value at or below
    ``conc_floor``, as in ``sample_measurements``.  The input must have no
    masked entry: a noisy field is perturbed before any floor is applied.
    """
    if not field.mask.all():
        raise ValidationError("smoothing needs a field without masked entries")
    w_t = composite_filter(cfg.half_window_t)
    w_x = composite_filter(cfg.half_window_x)
    if field.n_t < 2 * w_t.size - 1:
        raise ValidationError("field has too few time steps for two smoothing passes")
    if field.n_x < 2 * w_x.size - 1:
        raise ValidationError("field has too few locations for two smoothing passes")
    vals = field.values
    for _ in range(2):
        vals = _filter_axis(_filter_axis(vals, w_t, axis=1), w_x, axis=0)
    lost_t, lost_x = w_t.size - 1, w_x.size - 1
    interior = np.zeros(vals.shape, dtype=bool)
    interior[lost_x:-lost_x, lost_t:-lost_t] = True
    return Field(vals, field.x0, field.dx, field.t0, field.dt,
                 interior & (vals > conc_floor))


@dataclass
class DerivativeField:
    """Concentration and stencil derivatives at scattered valid grid points.

    All members are flat arrays over points, ordered by time index then
    space index.  ``x_index`` and ``t_index`` locate each point on the grid
    of the field it came from; its coordinates are ``x0 + dx * x_index``
    and ``t0 + dt * t_index`` there.  The squared-field spatial derivatives
    (c2_*) come from applying the same stencils to C^2.
    """

    x_index: np.ndarray
    t_index: np.ndarray
    c: np.ndarray
    c_t: np.ndarray
    c_x: np.ndarray
    c_xx: np.ndarray
    c_xxx: np.ndarray
    c2_x: np.ndarray
    c2_xx: np.ndarray
    c2_xxx: np.ndarray

    @property
    def n_points(self) -> int:
        return self.c.size

    @cached_property
    def ln_c(self) -> np.ndarray:
        """ln C at every point, taken once for the Freundlich column;
        -inf where C = 0 and NaN where C < 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.c)

    def select(self, which: np.ndarray) -> "DerivativeField":
        return DerivativeField(**{
            f.name: getattr(self, f.name)[which] for f in dc_fields(self)
        })

    def rows(self, start: int, stop: int) -> "DerivativeField":
        """Points start..stop-1, as views of these points' arrays; their
        ``ln_c`` is a view of this field's, taken here if not yet."""
        part = self.select(slice(start, stop))
        part.ln_c = self.ln_c[start:stop]
        return part


def compute_derivatives(field: Field) -> DerivativeField:
    """Evaluate the central stencils at every fully supported grid point.

    A point is kept when its five-point spatial stencil and its two
    temporal neighbours are all inside the grid and unmasked; a field that
    keeps no point is rejected.
    """
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
    # Gather each stencil entry by its flat index i * n_t + k, and keep
    # few point arrays alive at once.
    p = ii * n_t + kk
    flat = v.ravel()
    dx, dt = field.dx, field.dt

    def at(offset: int) -> np.ndarray:
        return flat.take(p + offset)

    def at_sq(offset: int) -> np.ndarray:
        u = at(offset)
        u *= u
        return u

    def spatial(u: np.ndarray, gather) -> tuple:
        """The x stencils of the field whose entries ``gather`` returns
        and whose values at the points are ``u``."""
        east, west = gather(n_t), gather(-n_t)
        d1 = (east - west) / (2.0 * dx)
        d2 = (east - 2.0 * u + west) / dx ** 2
        d3 = gather(2 * n_t)
        d3 *= 0.5
        d3 -= east
        d3 += west
        del east, west  # freed before the last gather
        far = gather(-2 * n_t)
        far *= 0.5
        d3 -= far
        d3 /= dx ** 3
        return d1, d2, d3

    c = at(0)
    c2_x, c2_xx, c2_xxx = spatial(c * c, at_sq)
    c_x, c_xx, c_xxx = spatial(c, at)
    c_t = (at(1) - at(-1)) / (2.0 * dt)
    return DerivativeField(
        x_index=ii, t_index=kk,
        c=c, c_t=c_t, c_x=c_x, c_xx=c_xx, c_xxx=c_xxx,
        c2_x=c2_x, c2_xx=c2_xx, c2_xxx=c2_xxx,
    )


@dataclass(eq=False)
class DataSplit:
    """Chronological train/test partition of a derivative point set.

    Splits compare and hash by identity, so the regression can cache work
    per split."""

    train: DerivativeField
    test: DerivativeField


def split_train_test(points: DerivativeField, ratio: float = 0.6) -> DataSplit:
    """Split by time sequence: the first floor(ratio * n_steps) time steps
    train the regression, the remainder scores it.

    The points must be ordered by time index, as ``compute_derivatives``
    orders them, so the training window is a prefix; both windows are
    views of ``points``, not copies.
    """
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"split ratio must be in (0, 1), got {ratio}")
    t = points.t_index
    step = np.diff(t)
    if np.any(step < 0):
        raise ValidationError("points must be ordered by time index")
    # The distinct time steps: the first point's, and each point's that
    # differs from its predecessor's.
    steps = np.concatenate((t[:1], t[1:][step != 0]))
    n_train = int(np.floor(ratio * steps.size))
    if n_train == 0 or n_train == steps.size:
        raise ValidationError(
            f"split ratio {ratio} leaves an empty partition for {steps.size} time steps"
        )
    cut = int(np.searchsorted(t, steps[n_train]))
    return DataSplit(train=points.select(slice(0, cut)),
                     test=points.select(slice(cut, None)))
