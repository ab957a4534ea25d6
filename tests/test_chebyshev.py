"""Chebyshev toolkit: coefficients, the chop rule and the adaptive
interpolant that stands in for eps(m) during assimilation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chop_tail
from transportid.chebyshev import (ChebyshevInterpolant, adaptive_interpolant,
                                   chebyshev_coefficients, chebyshev_points,
                                   standard_chop)
from transportid.errors import SolverError, ValidationError


class Counted:
    """A callable that records every point it is sampled at."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.fn(x)


def test_points_nest_when_n_doubles():
    coarse, fine = chebyshev_points(16), chebyshev_points(32)
    assert coarse.size == 17 and fine.size == 33
    assert coarse[0] == 1.0 and coarse[-1] == -1.0
    np.testing.assert_allclose(fine[0::2], coarse, atol=1e-15)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_coefficients_interpolate_the_values(n):
    t = chebyshev_points(n)
    values = np.exp(t) * np.sin(3.0 * t) + 1.0 / (2.0 + t)
    coeffs = chebyshev_coefficients(values)
    assert coeffs.size == n + 1
    np.testing.assert_allclose(np.polynomial.chebyshev.chebval(t, coeffs),
                               values, rtol=0, atol=1e-13)


def test_chop_keeps_a_polynomial_and_refuses_a_kink():
    # A cubic sampled at 33 points: four coefficients, then exact zeros.
    t = chebyshev_points(32)
    cubic = chebyshev_coefficients(2.0 - t + 0.5 * t ** 3)
    assert standard_chop(cubic) <= 5
    # |t| has coefficients falling like k^-2: no plateau at 257 points.
    kink = chebyshev_coefficients(np.abs(chebyshev_points(256)))
    assert standard_chop(kink) == kink.size
    # Below 17 coefficients nothing is judged resolved.
    assert standard_chop(cubic[:16]) == 16


def test_adaptive_interpolant_reuses_every_sample():
    runge = Counted(lambda x: 1.0 / (1.0 + 25.0 * x * x))
    interp = adaptive_interpolant(runge, -1.0, 1.0)
    assert interp is not None and interp.resolved
    # Runge's function needs more than 65 points; each is sampled once.
    assert interp.values.size in (129, 257)
    assert len(runge.points) == interp.values.size
    assert len(set(runge.points)) == len(runge.points)
    xs = np.linspace(-1.0, 1.0, 301)
    err = max(abs(interp(x) - runge.fn(x)) for x in xs)
    assert err <= 2.0 * chop_tail(interp)


def test_adaptive_interpolant_stops_at_the_first_plateau():
    # A quadratic's coefficients are exact zeros from the fourth on.
    quadratic = Counted(lambda x: 1.0 + x - 2.0 * x * x)
    assert adaptive_interpolant(quadratic, 0.0, 1.0).values.size == 17
    # exp needs about 14 coefficients; the plateau after them shows only
    # once 33 are computed.
    smooth = Counted(np.exp)
    interp = adaptive_interpolant(smooth, 0.0, 1.0)
    assert interp.values.size == 33
    assert 12 <= interp.cutoff <= 17
    assert interp(0.3) == pytest.approx(np.exp(0.3), rel=1e-14)


def test_non_smooth_function_is_not_resolved():
    kink = Counted(lambda x: abs(x - 0.3))
    assert adaptive_interpolant(kink, 0.0, 1.0) is None
    assert len(kink.points) == 257


def test_non_finite_sample_raises():
    with pytest.raises(SolverError, match="non-finite sample"):
        adaptive_interpolant(lambda x: 1.0 / x if x > 0.5 else np.inf,
                             0.0, 1.0)


def test_evaluation_outside_the_interval_raises():
    interp = adaptive_interpolant(np.exp, 0.25, 0.75)
    assert interp(0.25) == interp.values[-1]
    assert interp(0.75) == interp.values[0]
    for x in (np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0), 2.0):
        with pytest.raises(ValidationError, match="outside"):
            interp(x)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=-3.0, max_value=5.0))
def test_interpolant_matches_an_entire_function(x):
    """On a function analytic everywhere the interpolant is within the
    chop's accepted tail (twice: the dropped series at x, and the
    function's own departure from the kept series) of the function."""
    def fn(v):
        return np.cos(v) * np.exp(0.3 * v)

    interp = _entire_interpolant()
    assert abs(interp(x) - fn(x)) <= 2.0 * chop_tail(interp)


@functools.lru_cache(maxsize=None)
def _entire_interpolant() -> ChebyshevInterpolant:
    return adaptive_interpolant(lambda v: np.cos(v) * np.exp(0.3 * v),
                                -3.0, 5.0)
