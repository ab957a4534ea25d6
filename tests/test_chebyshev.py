"""Chebyshev toolkit: nested points, the sample test and the adaptive
interpolant that stands in for eps(m) during assimilation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportid.chebyshev import (ChebyshevInterpolant, adaptive_interpolant,
                                   chebyshev_points)
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


def test_adaptive_interpolant_reuses_every_sample():
    runge = Counted(lambda x: 1.0 / (1.0 + 25.0 * x * x))
    interp = adaptive_interpolant(runge, -1.0, 1.0)
    # Runge's function needs all 257 points; each is sampled once.
    assert interp is not None and interp.values.size == 257
    assert len(runge.points) == interp.values.size
    assert len(set(runge.points)) == len(runge.points)
    xs = np.linspace(-1.0, 1.0, 301)
    err = max(abs(interp(x) - runge.fn(x)) for x in xs)
    assert err <= 2e-15


def test_adaptive_interpolant_stops_at_the_first_plateau():
    # The 9 points of n = 8 already predict a quadratic and exp on [0, 1]
    # at the 8 new points of n = 16, so 17 samples are accepted.
    quadratic = Counted(lambda x: 1.0 + x - 2.0 * x * x)
    assert adaptive_interpolant(quadratic, 0.0, 1.0).values.size == 17
    smooth = Counted(np.exp)
    interp = adaptive_interpolant(smooth, 0.0, 1.0)
    assert interp.values.size == len(smooth.points) == 17
    assert interp(0.3) == pytest.approx(np.exp(0.3), rel=1e-14)


def test_a_coarse_miss_above_the_tolerance_is_refined():
    """The 9-point interpolant of x**10 misses the odd samples of n = 16 by
    3.6e-3; through 17 points x**10 is exact, so 33 samples pass.  Added to
    1, a multiple of it is refined when its miss is above 1e-7 of the
    samples and accepted at 17 samples when below."""
    assert adaptive_interpolant(lambda x: x ** 10, -1.0, 1.0).values.size == 33
    above = adaptive_interpolant(lambda x: 1.0 + 1e-4 * x ** 10, -1.0, 1.0)
    below = adaptive_interpolant(lambda x: 1.0 + 1e-5 * x ** 10, -1.0, 1.0)
    assert (above.values.size, below.values.size) == (33, 17)


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
    """On a function analytic everywhere the accepted interpolant is
    within 1e-14 of the function, anywhere on the interval (the largest
    error at 2,001 points is 2.7e-15)."""
    def fn(v):
        return np.cos(v) * np.exp(0.3 * v)

    interp = _entire_interpolant()
    assert abs(interp(x) - fn(x)) <= 1e-14


@functools.lru_cache(maxsize=None)
def _entire_interpolant() -> ChebyshevInterpolant:
    return adaptive_interpolant(lambda v: np.cos(v) * np.exp(0.3 * v),
                                -3.0, 5.0)
