"""Noise model, composite smoothing filter, derivative stencils and the
chronological train/test split."""

import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import correlate1d

from conftest import make_tiny, package_env, point_coordinates
from reference_derivatives import plain_compute_derivatives
import transportid.preprocess as preprocess
from transportid.errors import ValidationError
from transportid.identification import prepare_dataset
from transportid.preprocess import (DerivativeField, NoiseSpec, SmoothingConfig,
                                    add_noise, barycentric_weights,
                                    chebyshev_nodes,
                                    composite_filter, compute_derivatives,
                                    smooth_field, split_train_test)
from transportid.scenarios import get_scenario
from transportid.transport import Field, SorptionModel, sample_measurements


def grid_field(values, x0=0.0, dx=1.0, t0=0.0, dt=1.0, mask=None):
    return Field(np.asarray(values, dtype=float), x0, dx, t0, dt, mask)


# ---------------------------------------------------------------- noise

def test_zero_delta_is_identity():
    f = grid_field(np.linspace(0.0, 1.0, 40).reshape(8, 5))
    out = add_noise(f, NoiseSpec(0.0, seed=3))
    assert np.array_equal(out.values, f.values)
    assert out.values is not f.values


def test_noise_amplitude_bounded():
    rng = np.random.default_rng(11)
    f = grid_field(rng.uniform(0.01, 1.0, size=(20, 30)))
    for seed in range(5):
        out = add_noise(f, NoiseSpec(0.1, seed=seed))
        assert np.all(np.abs(out.values - f.values) <= 0.1 * f.values + 1e-15)
        assert not np.array_equal(out.values, f.values)


def test_noise_reproducible_and_seed_sensitive():
    f = grid_field(np.full((10, 10), 0.5))
    a = add_noise(f, NoiseSpec(0.05, seed=7))
    b = add_noise(f, NoiseSpec(0.05, seed=7))
    c = add_noise(f, NoiseSpec(0.05, seed=8))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_noise_realisation_independent_of_mask():
    vals = np.full((6, 6), 0.3)
    holes = np.ones((6, 6), dtype=bool)
    holes[2, 3] = False
    full = add_noise(grid_field(vals), NoiseSpec(0.1, seed=1))
    part = add_noise(grid_field(vals, mask=holes), NoiseSpec(0.1, seed=1))
    assert part.values[2, 3] == 0.3
    assert np.array_equal(full.values[holes], part.values[holes])


def test_noise_is_mean_preserving(pipeline):
    """Multiplicative U[-1, 1] noise leaves the expected value unchanged."""
    clean, _ = pipeline.simulation("s1")
    i, j = 30, 800
    target = clean.values[i, j]
    draws = [add_noise(clean, NoiseSpec(0.1, seed=s)).values[i, j]
             for s in range(1000)]
    assert abs(np.mean(draws) - target) / target < 0.01


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(-0.01)
    with pytest.raises(ValidationError):
        NoiseSpec(1.0)
    with pytest.raises(ValidationError, match="seed=1.5"):
        NoiseSpec(0.05, seed=1.5)


def test_smoothing_config_rejects_bad_numbers():
    for bad in ({"half_window_x": float("nan")},
                {"half_window_t": 120.5}, {"half_window_x": float("inf")}):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            SmoothingConfig(**bad)


# ------------------------------------------------------------- filter

def test_chebyshev_nodes_third_degree():
    nodes = chebyshev_nodes(3)
    expected = np.array([np.sqrt(3.0) / 2.0, 0.0, -np.sqrt(3.0) / 2.0])
    np.testing.assert_allclose(nodes, expected, atol=1e-14)


def test_barycentric_interpolation_reproduces_polynomial():
    nodes = chebyshev_nodes(6)
    w = barycentric_weights(nodes)
    assert w.shape == nodes.shape

    def p(x):
        return 2.0 - x + 0.5 * x ** 3

    # Second (true) barycentric form, as composite_filter applies it.
    vals = p(nodes)
    for x in (-0.83, 0.0, 0.37, 0.99):
        c = w / (x - nodes)
        assert np.sum(c * vals) / np.sum(c) == pytest.approx(p(x), abs=1e-12)


def filter_half_width():
    return (composite_filter(6).size - 1) // 2


def test_composite_filter_moment_conditions():
    w = composite_filter(6)
    assert w.size % 2 == 1
    half = (w.size - 1) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    for power in (1, 2, 3):
        assert abs(np.sum(w * offsets ** power)) < 1e-9


def test_smooth_series_exact_on_cubic():
    x = np.linspace(0.0, 4.0, 120)
    series = 1.0 + 0.3 * x - 0.2 * x ** 2 + 0.05 * x ** 3
    smoothed = preprocess._filter_axis(series, composite_filter(6), 0)
    supported = slice(filter_half_width(), -filter_half_width())
    np.testing.assert_allclose(smoothed[supported], series[supported],
                               rtol=1e-9)


def test_smooth_series_constant_and_support_layout():
    """Two passes keep a constant field and drop two half-windows, one
    full filter length less one, at both ends of each axis."""
    cfg = SmoothingConfig(half_window_t=3, half_window_x=6)
    out = smooth_field(grid_field(np.full((60, 50), 3.7)), cfg, 0.0)
    expected = np.zeros((60, 50), dtype=bool)
    expected[22:-22, 10:-10] = True  # filters of 23 and 11 taps
    np.testing.assert_array_equal(out.mask, expected)
    np.testing.assert_allclose(out.values[out.mask], 3.7, rtol=1e-12)


def test_smooth_series_attenuates_white_noise_like_its_l2_gain():
    """Residual noise after filtering white noise is ||w||_2 times the
    input level, up to sampling scatter."""
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 2.0 * np.pi, 400)
    clean = np.sin(x)
    sigma = 0.1
    noisy = clean + rng.normal(0.0, sigma, size=x.size)
    smoothed = preprocess._filter_axis(noisy, composite_filter(6), 0)
    supported = slice(filter_half_width(), -filter_half_width())
    resid_before = np.std(noisy[supported] - clean[supported])
    resid_after = np.std(smoothed[supported] - clean[supported])
    gain = np.sqrt(np.sum(composite_filter(6) ** 2))
    assert gain < 0.6
    assert resid_after < 0.7 * resid_before
    assert resid_after == pytest.approx(gain * sigma, rel=0.25)


def scipy_filter_axis(values, w, axis):
    """The scipy.ndimage filter that ``_filter_axis`` replaced, kept as its
    reference."""
    return correlate1d(values, w, axis=axis, mode="constant", cval=0.0)


def _floats(bound):
    """Floats within +-bound, none below 1e-100 in magnitude but 0: their
    products stay clear of underflow, where the relative rounding bound
    below would not hold."""
    return st.floats(-bound, bound).map(lambda v: 0.0 if abs(v) < 1e-100 else v)


@st.composite
def filter_cases(draw):
    """Odd-length filters of 1 to 25 taps, free or with one half mirrored
    onto the other, exactly or within DBL_EPSILON, as symmetric or as
    antisymmetric, so that correlate1d takes each of its three paths."""
    half = draw(st.integers(0, 12))
    w = draw(arrays(float, 2 * half + 1, elements=_floats(2.0)))
    sign = draw(st.sampled_from((0.0, 1.0, -1.0)))
    if sign:
        nudge = draw(arrays(float, half, elements=st.sampled_from(
            (0.0, 2.0 ** -53, -(2.0 ** -53)))))
        w[half + 1:] = sign * w[:half][::-1] + nudge
    axis = draw(st.integers(0, 1))
    shape = [draw(st.integers(1, 3))] * 2
    shape[axis] = draw(st.integers(w.size, w.size + 20))
    values = draw(arrays(float, shape, elements=_floats(1e3)))
    return values, w, axis


def _unit_impulse_case():
    """A 7-tap filter within rounding of the identity whose mirrored taps
    sum to within DBL_EPSILON, so correlate1d applies it as antisymmetric:
    a composite filter of an earlier, configurable smoother (node spread 3,
    fit window 1, degree 2, order 2)."""
    values = np.zeros((13, 1))
    values[6, 0] = 1.0
    w = np.array([2.1549586101245763e-17, 1.1939515355595244e-17,
                  -6.578076558601415e-16, 1.0000000000000002,
                  6.382285555416273e-16, -1.1939515355595248e-17,
                  -2.154958610124575e-17])
    return values, w, 0


@settings(max_examples=200, deadline=None)
@given(case=filter_cases())
@example(case=_unit_impulse_case())
def test_filter_axis_matches_scipy_within_the_dot_product_bound(case):
    """Each filter sums L = w.size products in its own order, so each is
    within gamma_L (|x| correlated with its taps' magnitudes) of its exact
    sum, gamma_L = L u / (1 - L u).  correlate1d also counts a filter as
    symmetric when mirrored taps agree within DBL_EPSILON and then applies
    one half's taps to both sides; failing that, as antisymmetric when
    mirrored taps sum to within DBL_EPSILON, and then applies one half's
    negated taps on the other side.  Its taps then differ from w by at most
    d = |w - w[::-1]| or d = |w + w[::-1]| (centre tap exact), in the order
    correlate1d checks them.  Together:

        |numpy - scipy| <= 2 gamma_L (|x| * |w|) + (1 + gamma_L) (|x| * d)

    with * the correlation."""
    values, w, axis = case
    smoothed = preprocess._filter_axis(values, w, axis)
    ref = scipy_filter_axis(values, w, axis)

    def correlate_abs(taps):
        return correlate1d(np.abs(values), taps, axis=axis, mode="constant",
                           cval=0.0)

    gamma = w.size * 2.0 ** -53 / (1.0 - w.size * 2.0 ** -53)
    eps = np.finfo(float).eps
    d = np.abs(w - w[::-1])
    if d.max() > eps:
        d = np.abs(w + w[::-1])
        d[w.size // 2] = 0.0
        if d.max() > eps:
            d[:] = 0.0
    bound = (2.0 * gamma * correlate_abs(np.abs(w))
             + (1.0 + gamma) * correlate_abs(d))
    assert np.all(np.abs(smoothed - ref) <= bound)


def test_smoothing_does_not_import_scipy_ndimage():
    """Smoothing runs on numpy alone: a fresh interpreter that smooths a
    noisy field never loads scipy.ndimage."""
    script = """
import sys
import numpy as np
import transportid
from transportid.preprocess import (NoiseSpec, SmoothingConfig, add_noise,
                                    smooth_field)
from transportid.transport import Field
x = np.linspace(0.0, 1.0, 40)[:, None]
t = np.linspace(0.0, 1.0, 60)[None, :]
clean = Field(1.5 + np.sin(3.0 * x - 2.0 * t), 0.0, 1.0, 0.0, 1.0)
cfg = SmoothingConfig(half_window_t=3, half_window_x=3)
out = smooth_field(add_noise(clean, NoiseSpec(0.05)), cfg, 0.0)
assert out.mask.any()
assert "scipy.ndimage" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def two_pass_interior(field, cfg):
    """The grid entries that two smoothing passes with ``cfg`` keep."""
    lost_t = composite_filter(cfg.half_window_t).size - 1
    lost_x = composite_filter(cfg.half_window_x).size - 1
    interior = np.zeros(field.values.shape, dtype=bool)
    interior[lost_x:-lost_x, lost_t:-lost_t] = True
    return interior


def test_smooth_field_nearly_preserves_clean_data(pipeline):
    """Two passes over noise-free data must not distort the field; they
    keep exactly the two-pass interior above the zero floor."""
    clean, _ = pipeline.simulation("s1")
    out = smooth_field(clean, SmoothingConfig(), 0.0)
    np.testing.assert_array_equal(
        out.mask, two_pass_interior(clean, SmoothingConfig()) & (out.values > 0.0))
    assert out.mask.any()
    diff = np.abs(out.values - clean.values)
    assert np.sqrt(np.mean(diff[out.mask] ** 2)) / clean.values.max() < 1e-4
    interior = out.mask & (clean.values >= 0.1 * clean.values.max())
    rel = diff[interior] / clean.values[interior]
    assert rel.max() < 2e-3


def test_smooth_field_restores_second_derivative(pipeline):
    """Smoothing must cut the curvature error of 5% noisy data by well
    over an order of magnitude."""
    cfg = get_scenario("s1")
    clean, _ = pipeline.simulation("s1")
    noisy = add_noise(clean, NoiseSpec(0.05, seed=0))
    smoothed = smooth_field(noisy, SmoothingConfig(), conc_floor=cfg.conc_floor)
    ref = compute_derivatives(clean)
    lookup = {}
    for n in range(ref.n_points):
        lookup[(ref.x_index[n], ref.t_index[n])] = ref.c_xx[n]

    def rmse(deriv):
        errs = [(deriv.c_xx[n] - lookup[(deriv.x_index[n], deriv.t_index[n])]) ** 2
                for n in range(deriv.n_points)
                if (deriv.x_index[n], deriv.t_index[n]) in lookup]
        return np.sqrt(np.mean(errs))

    raw = compute_derivatives(noisy)
    assert raw.n_points > 0
    assert rmse(raw) > 10.0 * rmse(compute_derivatives(smoothed))


def test_smooth_field_zero_stays_zero():
    """A zero field smooths to zero in two passes, and zero is at the
    floor, so nothing is kept."""
    zero = grid_field(np.zeros((50, 60)))
    out = smooth_field(zero, SmoothingConfig(half_window_t=6, half_window_x=6), 0.0)
    assert np.all(out.values == 0.0)
    assert not out.mask.any()


def test_smooth_field_window_guard():
    small = grid_field(np.zeros((10, 10)))
    with pytest.raises(ValidationError):
        smooth_field(small, SmoothingConfig(), 0.0)


def test_smooth_field_rejects_an_axis_too_short_for_two_passes():
    """An axis of 2 w.size - 1 samples keeps one after two passes; one
    sample fewer keeps none and is rejected, though one pass would fit."""
    cfg = SmoothingConfig(half_window_t=2, half_window_x=3)
    n_t = 2 * composite_filter(2).size - 1
    n_x = 2 * composite_filter(3).size - 1
    out = smooth_field(grid_field(np.ones((n_x, n_t))), cfg, 0.0)
    assert out.mask.sum() == 1 and out.mask[n_x // 2, n_t // 2]
    with pytest.raises(ValidationError, match="too few time steps for two"):
        smooth_field(grid_field(np.ones((n_x, n_t - 1))), cfg, 0.0)
    with pytest.raises(ValidationError, match="too few locations for two"):
        smooth_field(grid_field(np.ones((n_x - 1, n_t))), cfg, 0.0)


def test_smooth_field_rejects_a_masked_field():
    """The smoother takes noisy data perturbed before any floor applies,
    so it rejects a masked entry instead of filtering a mask."""
    mask = np.ones((30, 30), dtype=bool)
    mask[15, 15] = False
    with pytest.raises(ValidationError, match="without masked entries"):
        smooth_field(grid_field(np.ones((30, 30)), mask=mask),
                     SmoothingConfig(half_window_t=2, half_window_x=2), 0.0)


@st.composite
def floored_fields(draw):
    """A field on a tiny scenario's measurement grid, large enough for two
    smoothing passes at half-window 2, with values that include exact
    zeros, negatives and the floor itself, a floor that may be 0, and a few
    holes for sampling to keep."""
    floor = draw(st.sampled_from((0.0, 5e-5)) | st.floats(0.0, 1.0))
    n_x, n_t = draw(st.integers(13, 18)), draw(st.integers(13, 22))
    values = draw(arrays(float, (n_x, n_t), elements=st.sampled_from(
        (0.0, -0.0, floor)) | st.floats(-1.0, 1.0)))
    mask = np.ones((n_x, n_t), dtype=bool)
    for i, k in draw(st.lists(st.tuples(st.integers(0, n_x - 1),
                                        st.integers(0, n_t - 1)), max_size=3)):
        mask[i, k] = False
    cfg = make_tiny(meas_x_count=n_x, meas_t_end=300.0 + 2.0 * (n_t - 1),
                    conc_floor=floor)
    return values, mask, cfg


@settings(max_examples=100, deadline=None)
@given(case=floored_fields())
def test_sampling_and_smoothing_mask_exactly_what_is_at_or_below_the_floor(case):
    """Clean and smoothed data follow one floor rule, whatever the floor:
    a value is masked if it is at or below it, and kept otherwise where
    the input mask (sampling) or the two-pass interior (smoothing) holds."""
    values, holes, cfg = case
    floor = cfg.conc_floor

    def on_grid(mask=None):
        return Field(values, 0.0, cfg.meas_dx, cfg.meas_t_start, cfg.meas_dt, mask)

    meas = sample_measurements(on_grid(holes), cfg)
    assert np.array_equal(meas.mask, holes & ~(values <= floor))

    smoothing = SmoothingConfig(half_window_t=2, half_window_x=2)
    out = smooth_field(on_grid(), smoothing, floor)
    # A floor of -inf masks no value, so its mask is the two-pass interior.
    open_ = smooth_field(on_grid(), smoothing, -np.inf)
    assert np.array_equal(open_.mask, two_pass_interior(out, smoothing))
    assert np.array_equal(out.values, open_.values)
    assert np.array_equal(out.mask, open_.mask & ~(out.values <= floor))


def test_noisy_s2_keeps_the_two_pass_interior_above_the_floor(pipeline):
    """Light and heavier noise alike keep the two-pass interior minus the
    values at or below the floor, and the prepared points are the
    derivative stencils of that field."""
    cfg = get_scenario("s2")
    clean, _ = pipeline.simulation("s2")
    interior = two_pass_interior(clean, SmoothingConfig())
    for delta in (0.01, 0.05):
        out = smooth_field(add_noise(clean, NoiseSpec(delta, seed=0)),
                           SmoothingConfig(), cfg.conc_floor)
        np.testing.assert_array_equal(out.mask, interior & (out.values > cfg.conc_floor))
        assert (pipeline.dataset("s2", delta).n_points
                == compute_derivatives(out).n_points)


def test_smoothing_filters_each_axis_twice_and_compares_nothing(pipeline,
                                                                monkeypatch):
    """s2 at delta = 0.05: two passes of one filter per axis, and no
    derivative of the data is taken to decide anything."""
    cfg = get_scenario("s2")
    clean, _ = pipeline.simulation("s2")
    noisy = add_noise(clean, NoiseSpec(0.05, seed=0))
    axes = []
    filter_axis = preprocess._filter_axis

    def counting_filter(values, w, axis):
        axes.append(axis)
        return filter_axis(values, w, axis)

    def no_derivatives(field):
        raise AssertionError("smoothing took a derivative")

    monkeypatch.setattr(preprocess, "_filter_axis", counting_filter)
    monkeypatch.setattr(preprocess, "compute_derivatives", no_derivatives)
    smooth_field(noisy, SmoothingConfig(), conc_floor=cfg.conc_floor)
    assert axes == [1, 0, 1, 0]


def test_prepared_noisy_points_respect_floor(pipeline):
    cfg = get_scenario("s2")
    data = pipeline.dataset("s2", 0.05)
    assert np.all(data.split.train.c > cfg.conc_floor)
    assert np.all(data.split.test.c > cfg.conc_floor)


# -------------------------------------------------------- derivatives

def test_spatial_stencils_exact_on_cubic():
    n_x, n_t = 30, 6
    h = 0.25
    x = h * np.arange(n_x)
    vals = np.tile((x ** 3)[:, None], (1, n_t))
    field = grid_field(vals, dx=h, dt=0.5)
    d = compute_derivatives(field)
    x, _ = point_coordinates(d, field)
    # Central differences on x**3: first derivative picks up exactly h**2,
    # the higher stencils are exact.
    np.testing.assert_allclose(d.c_x, 3.0 * x ** 2 + h ** 2, rtol=1e-12)
    np.testing.assert_allclose(d.c_xx, 6.0 * x, rtol=1e-12)
    np.testing.assert_allclose(d.c_xxx, 6.0, rtol=1e-10)
    np.testing.assert_allclose(d.c_t, 0.0, atol=1e-14)


def test_squared_field_stencils_exact_on_linear():
    n_x, n_t = 12, 5
    x = 0.5 * np.arange(n_x)
    vals = np.tile(x[:, None], (1, n_t))
    field = grid_field(vals, dx=0.5, dt=1.0)
    d = compute_derivatives(field)
    x, _ = point_coordinates(d, field)
    np.testing.assert_allclose(d.c_x, 1.0, rtol=1e-13)
    np.testing.assert_allclose(d.c_xx, 0.0, atol=1e-12)
    # C**2 = x**2, whose central differences are exact as well.
    np.testing.assert_allclose(d.c2_x, 2.0 * x, rtol=1e-12)
    np.testing.assert_allclose(d.c2_xx, 2.0, rtol=1e-12)
    np.testing.assert_allclose(d.c2_xxx, 0.0, atol=1e-10)


def test_time_stencil_second_order_bound():
    n_x, n_t = 7, 60
    dt = 0.1
    t = dt * np.arange(n_t)
    vals = np.tile(np.sin(t)[None, :], (n_x, 1))
    field = grid_field(vals, dx=1.0, dt=dt)
    d = compute_derivatives(field)
    _, t = point_coordinates(d, field)
    err = np.abs(d.c_t - np.cos(t))
    assert err.max() <= dt ** 2 / 6.0 * 1.05


def test_derivative_support_trims_boundaries():
    d = compute_derivatives(grid_field(np.random.default_rng(0).uniform(
        0.1, 1.0, size=(9, 7))))
    assert d.x_index.min() == 2 and d.x_index.max() == 9 - 3
    assert d.t_index.min() == 1 and d.t_index.max() == 7 - 2
    assert d.n_points == (9 - 4) * (7 - 2)
    # Time-major ordering: the time index never decreases.
    assert np.all(np.diff(d.t_index) >= 0)


def test_derivative_points_avoid_masked_neighbours():
    vals = np.ones((11, 5))
    mask = np.ones((11, 5), dtype=bool)
    mask[5, 2] = False
    d = compute_derivatives(grid_field(vals, mask=mask))
    points = set(zip(d.x_index.tolist(), d.t_index.tolist()))
    # The hole removes its spatial stencil row and its temporal neighbours.
    removed = {(i, 2) for i in range(3, 8)} | {(5, 1), (5, 3)}
    assert not (points & removed)
    full = compute_derivatives(grid_field(vals))
    expected = set(zip(full.x_index.tolist(), full.t_index.tolist())) - removed
    assert points == expected


def test_derivative_field_select():
    d = compute_derivatives(grid_field(np.random.default_rng(1).uniform(
        0.1, 1.0, size=(8, 6))))
    keep = d.c > np.median(d.c)
    sub = d.select(keep)
    assert sub.n_points == int(keep.sum())
    np.testing.assert_array_equal(sub.c, d.c[keep])
    np.testing.assert_array_equal(sub.t_index, d.t_index[keep])


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(5, 14), n_t=st.integers(3, 14),
       keep=st.floats(0.6, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       column_major=st.booleans())
def test_derivatives_match_the_plain_gathers(n_x, n_t, keep, seed,
                                             column_major):
    """On random values and masks, flat gathers give the plain 2-D
    gathers' fields bit for bit, or the same error."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=(n_x, n_t))
    if column_major:
        vals = np.asfortranarray(vals)
    field = grid_field(vals, dx=rng.uniform(0.1, 2.0),
                       dt=rng.uniform(0.1, 2.0),
                       mask=rng.random((n_x, n_t)) < keep)
    try:
        want = plain_compute_derivatives(field)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            compute_derivatives(field)
        return
    got = compute_derivatives(field)
    for f in fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), \
            f.name


def test_too_small_grid_rejected():
    with pytest.raises(ValidationError):
        compute_derivatives(grid_field(np.ones((4, 8))))
    with pytest.raises(ValidationError):
        compute_derivatives(grid_field(np.ones((8, 2))))
    # Large enough, but a masked row cuts every five-point stencil.
    mask = np.ones((9, 7), dtype=bool)
    mask[4, :] = False
    with pytest.raises(ValidationError, match="no grid point keeps a full derivative stencil"):
        compute_derivatives(grid_field(np.ones((9, 7)), mask=mask))


def test_noisy_tiny_column_too_narrow_for_a_stencil_is_rejected_by_name():
    """Two passes at half-window 3 keep 5 of the tiny Freundlich column's
    25 locations, and the floor masks one of them, so no point keeps the
    five-point spatial stencil."""
    cfg = make_tiny(sorption=SorptionModel.freundlich(0.05, 0.7))
    with pytest.raises(ValidationError, match="no grid point keeps a full derivative stencil"):
        prepare_dataset(cfg, noise=NoiseSpec(0.01, seed=3),
                        smoothing=SmoothingConfig(half_window_t=20, half_window_x=3))


# -------------------------------------------------------------- split

def synthetic_points(n_steps=10, n_x=3):
    """Points ordered by time index, then space index, as
    compute_derivatives orders them."""
    k, i = np.meshgrid(np.arange(n_steps), np.arange(n_x), indexing="ij")
    flat = i.ravel().astype(float)
    return DerivativeField(x_index=i.ravel(), t_index=k.ravel(),
                           c=flat + 1.0, c_t=flat, c_x=flat, c_xx=flat,
                           c_xxx=flat, c2_x=flat, c2_xx=flat, c2_xxx=flat)


def n_steps(points):
    return np.unique(points.t_index).size


def test_split_is_chronological_partition():
    pts = synthetic_points(n_steps=10, n_x=3)
    split = split_train_test(pts, 0.5)
    assert n_steps(split.train) == 5 and n_steps(split.test) == 5
    assert split.train.t_index.max() < split.test.t_index.min()
    assert split.train.n_points + split.test.n_points == pts.n_points


def test_split_uses_floor_of_ratio():
    pts = synthetic_points(n_steps=7, n_x=3)
    split = split_train_test(pts, 0.6)
    assert n_steps(split.train) == 4  # floor(0.6 * 7)
    assert n_steps(split.test) == 3


def test_split_ratio_guards():
    pts = synthetic_points(n_steps=10, n_x=3)
    with pytest.raises(ValidationError):
        split_train_test(pts, 0.0)
    with pytest.raises(ValidationError):
        split_train_test(pts, 1.0)
    with pytest.raises(ValidationError):
        split_train_test(synthetic_points(n_steps=3, n_x=3), 0.05)


def test_split_windows_are_views_of_the_points():
    pts = synthetic_points(n_steps=10, n_x=3)
    split = split_train_test(pts, 0.5)
    assert np.shares_memory(split.train.c, pts.c)
    assert np.shares_memory(split.test.c, pts.c)
    np.testing.assert_array_equal(
        np.concatenate([split.train.t_index, split.test.t_index]), pts.t_index)


def test_split_rejects_points_out_of_time_order():
    pts = synthetic_points(n_steps=10, n_x=3)
    x_major = pts.select(np.lexsort((pts.t_index, pts.x_index)))
    assert np.any(np.diff(x_major.t_index) < 0)
    with pytest.raises(ValidationError, match="ordered by time index"):
        split_train_test(x_major, 0.5)
