"""Chebyshev tools shared by the smoother and the assimilation proxy.

``chebyshev_nodes`` and ``barycentric_weights`` lay out the smoother's
local interpolation windows.  ``adaptive_interpolant`` resolves a smooth
function of one variable on an interval to rounding level, as Chebfun
does (Aurentz & Trefethen, ACM TOMS 43:33, 2017): it samples at n + 1
second-kind Chebyshev points for n = 16, 32, ..., 256, which nest, so
each doubling reuses every earlier sample, and stops once the
``standard_chop`` rule finds the Chebyshev coefficients levelled off at
a plateau.  The result is evaluated by the barycentric formula
(Berrut & Trefethen, SIAM Rev. 46:501, 2004).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError, ValidationError

__all__ = [
    "chebyshev_nodes",
    "barycentric_weights",
    "chebyshev_points",
    "chebyshev_coefficients",
    "standard_chop",
    "ChebyshevInterpolant",
    "adaptive_interpolant",
]

_FIRST_N = 16  # 17 points
_MAX_N = 256  # 257 points
_TOL = np.finfo(float).eps  # standard_chop's relative tolerance


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


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_n of the polynomial sum c_k T_k that takes
    ``values`` at ``chebyshev_points(n)``."""
    n = values.size - 1
    even = np.concatenate([values, values[-2:0:-1]])
    coeffs = np.fft.rfft(even).real / n
    coeffs[0] /= 2.0
    coeffs[n] /= 2.0
    return coeffs


def standard_chop(coeffs: np.ndarray) -> int:
    """How many leading Chebyshev coefficients resolve the function.

    The ``standardChop`` rule of Aurentz & Trefethen: find a plateau of
    the normalized coefficient envelope at or above machine epsilon and
    cut where envelope plus a linear bias toward fewer terms is least.
    Returns ``len(coeffs)`` when no plateau shows (the function is not
    resolved), and always so below 17 coefficients.
    """
    n = coeffs.size
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    # 1-based indices j, j2 as in the published rule.
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1 = envelope[j - 1]
        e2 = envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(_TOL)):
            plateau = j - 1
            break
    if envelope[plateau - 1] == 0.0:
        return plateau
    floor = _TOL ** (7.0 / 6.0)
    j3 = int(np.sum(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    biased = (np.log10(envelope[:j2])
              + np.linspace(0.0, -np.log10(_TOL) / 3.0, j2))
    return max(int(np.argmin(biased)), 1)


class ChebyshevInterpolant:
    """The polynomial through samples at the second-kind Chebyshev points
    of [lo, hi].

    ``cutoff`` is the number of coefficients ``standard_chop`` kept; it
    accepted the rest as noise.  Calling it outside [lo, hi] raises
    ``ValidationError``; it never extrapolates.
    """

    def __init__(self, lo: float, hi: float, values: np.ndarray) -> None:
        self.lo = float(lo)
        self.hi = float(hi)
        self.values = np.asarray(values, dtype=float)
        n = self.values.size - 1
        self.points = chebyshev_points(n)
        self.coefficients = chebyshev_coefficients(self.values)
        self.cutoff = standard_chop(self.coefficients)
        weights = (-1.0) ** np.arange(n + 1)
        weights[0] /= 2.0
        weights[n] /= 2.0
        self._weights = weights

    @property
    def resolved(self) -> bool:
        return self.cutoff < self.values.size

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
    [lo, hi] until ``standard_chop`` finds a plateau.

    Returns None when 257 points do not resolve it.  An exception from
    ``func`` propagates; a non-finite sample raises ``SolverError``.
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
        interp = ChebyshevInterpolant(lo, hi, values)
        if interp.resolved:
            return interp
        if n >= _MAX_N:
            return None
        n *= 2
        refined = np.empty(n + 1)
        refined[0::2] = values
        refined[1::2] = sample(chebyshev_points(n)[1::2])
        values = refined
