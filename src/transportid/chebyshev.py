"""Chebyshev tools shared by the smoother and the assimilation proxy.

``chebyshev_nodes`` and ``barycentric_weights`` lay out the smoother's
local interpolation windows.  ``adaptive_interpolant`` resolves a smooth
function of one variable on an interval to rounding level: it samples at
n + 1 second-kind Chebyshev points for n = 16, 32, ..., 256, which nest,
so each doubling reuses every earlier sample.  It stops once the
interpolant through the even-indexed samples, the previous n's points,
predicts every odd-indexed sample within ``_SAMPLE_TOL`` times the
largest |sample|.  For a function analytic on the interval the
interpolation error falls geometrically with n (Trefethen, Approximation
Theory and Approximation Practice, Thm 8.2), so doubling n roughly
squares the relative error: a miss of 1e-7 at n / 2 leaves about 1e-14
at n, the rounding floor of one sample.  The result is evaluated by the
barycentric formula (Berrut & Trefethen, SIAM Rev. 46:501, 2004).
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError, ValidationError

__all__ = [
    "chebyshev_nodes",
    "barycentric_weights",
    "chebyshev_points",
    "ChebyshevInterpolant",
    "adaptive_interpolant",
]

_FIRST_N = 16  # 17 points
_MAX_N = 256  # 257 points
_SAMPLE_TOL = 1e-7  # largest accepted miss of the coarse half, relative


def chebyshev_nodes(count: int) -> np.ndarray:
    """Roots of the degree-``count`` Chebyshev polynomial of the first kind,
    on [-1, 1], in descending order."""
    i = np.arange(1, count + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * count))


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def chebyshev_points(n: int) -> np.ndarray:
    """The n + 1 extrema cos(j pi / n), j = 0..n, of T_n on [-1, 1]
    (second-kind points), in descending order."""
    return np.cos(np.arange(n + 1) * np.pi / n)


class ChebyshevInterpolant:
    """The polynomial through samples at the second-kind Chebyshev points
    of [lo, hi].

    ``adaptive_interpolant`` returns one only when the polynomial through
    every other sample predicted the rest within ``_SAMPLE_TOL``; with all
    the samples its relative error is then about the square of that
    relative miss.  Calling
    it outside [lo, hi] raises ``ValidationError``; it never extrapolates.
    """

    def __init__(self, lo: float, hi: float, values: np.ndarray) -> None:
        self.lo = float(lo)
        self.hi = float(hi)
        self.values = np.asarray(values, dtype=float)
        n = self.values.size - 1
        self.points = chebyshev_points(n)
        weights = (-1.0) ** np.arange(n + 1)
        weights[0] /= 2.0
        weights[n] /= 2.0
        self._weights = weights

    def __call__(self, x: float) -> float:
        if not self.lo <= x <= self.hi:
            raise ValidationError(
                f"{x!r} lies outside the interpolation interval "
                f"[{self.lo!r}, {self.hi!r}]")
        t = (2.0 * x - (self.hi + self.lo)) / (self.hi - self.lo)
        diff = t - self.points
        exact = np.flatnonzero(diff == 0.0)
        if exact.size:
            return float(self.values[exact[0]])
        q = self._weights / diff
        return float(np.dot(q, self.values) / np.sum(q))


def adaptive_interpolant(func, lo: float, hi: float) -> ChebyshevInterpolant | None:
    """Sample ``func`` at 17, 33, ..., 257 nested Chebyshev points of
    [lo, hi] until the interpolant through the even-indexed samples
    predicts each odd-indexed one within ``_SAMPLE_TOL`` times the
    largest |sample|, and return the interpolant through all of them.

    Returns None when 257 points do not pass.  An exception from ``func``
    propagates; a non-finite sample raises ``SolverError``.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def sample(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.size)
        for i, ti in enumerate(t):
            x = mid + half * float(ti)
            out[i] = func(x)
            if not np.isfinite(out[i]):
                raise SolverError(f"non-finite sample {out[i]!r} at {x!r}")
        return out

    n = _FIRST_N
    values = sample(chebyshev_points(n))
    while True:
        coarse = ChebyshevInterpolant(lo, hi, values[0::2])
        new = mid + half * chebyshev_points(n)[1::2]
        miss = max(abs(coarse(x) - v) for x, v in zip(new, values[1::2]))
        if miss <= _SAMPLE_TOL * np.max(np.abs(values)):
            return ChebyshevInterpolant(lo, hi, values)
        if n >= _MAX_N:
            return None
        n *= 2
        refined = np.empty(n + 1)
        refined[0::2] = values
        refined[1::2] = sample(chebyshev_points(n)[1::2])
        values = refined
