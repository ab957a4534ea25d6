"""Damped iterative parameter estimation: bounded transform, gradients,
the update formula and full recovery on analytic data."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import transportid.assimilation as assim
from conftest import (M_STAR, RECOVERY_STARTS, TIGHT_ASSIM,
                      assimilation_settings, manufactured_field,
                      sorption_params)
from transportid.assimilation import (_chain_factor, fd_gradient,
                                      from_unbounded, lm_step, probe_box,
                                      run_assimilation, to_unbounded)
from transportid.errors import SolverError, ValidationError
from transportid.identification import IdentifyConfig, run_ensemble
from transportid.library import LibrarySpec
from transportid.params import ModelParams, ParamBounds
from transportid.preprocess import split_train_test
from transportid.regression import PredictionErrorEvaluator

BOUNDS = ParamBounds.default()


class StubObjective:
    """Duck-typed stand-in for the prediction-error evaluator."""

    def __init__(self, fn):
        self._fn = fn

    def evaluate(self, m: ModelParams) -> SimpleNamespace:
        return SimpleNamespace(m=m, eps=float(self._fn(m.as_array())))


def adf_evaluator():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    lib = LibrarySpec.from_name("basic").subset(("adv", "dis", "fsorp"))
    return PredictionErrorEvaluator(split_train_test(pts, 0.6), lib)


def adl_evaluator():
    pts = manufactured_field({"adv": -0.01, "dis": 0.01, "lsorp": -1.2})
    lib = LibrarySpec.from_name("basic").subset(("adv", "dis", "lsorp"))
    return PredictionErrorEvaluator(split_train_test(pts, 0.6), lib)


# ----------------------------------------------------- parameter vector

def test_model_params_contracts():
    m = ModelParams(names=("a", "K_l"), values=(0.7, 100.0))
    assert m.names == ("a", "K_l")
    assert m["K_l"] == 100.0
    with pytest.raises(KeyError):
        m["rho"]
    np.testing.assert_array_equal(m.as_array(), [0.7, 100.0])
    with pytest.raises(ValidationError):
        ModelParams(names=("a",), values=(1.0, 2.0))
    with pytest.raises(ValidationError):
        ModelParams(names=("a", "a"), values=(1.0, 2.0))
    with pytest.raises(ValidationError):
        ModelParams(names=("a", "K_l"), values=(np.nan, 100.0))


def test_param_bounds_contracts():
    b = ParamBounds.default()
    assert b.lower == (0.25, 30.0) and b.upper == (0.75, 150.0)
    np.testing.assert_array_equal(b.span(), [0.5, 120.0])
    with pytest.raises(ValidationError):
        ParamBounds(names=("a",), lower=(1.0,), upper=(0.5,))


def test_param_bounds_restrict_keeps_box_order():
    b = ParamBounds.default()
    assert b.restrict(("K_l", "a")) == b
    assert b.restrict(("K_l",)) == ParamBounds(("K_l",), (30.0,), (150.0,))
    assert b.restrict(()).names == ()
    with pytest.raises(ValidationError,
                       match=r"no bounds for parameters \['rho'\]"):
        b.restrict(("a", "rho"))


# --------------------------------------------------- bounded transform

def test_transform_midpoint_maps_to_origin():
    lower, upper = BOUNDS.lower_array(), BOUNDS.upper_array()
    np.testing.assert_allclose(to_unbounded(0.5 * (lower + upper), lower, upper),
                               0.0, atol=1e-14)


def test_transform_round_trip():
    lower, upper = BOUNDS.lower_array(), BOUNDS.upper_array()
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = lower + rng.uniform(0.01, 0.99, 2) * (upper - lower)
        back = from_unbounded(to_unbounded(m, lower, upper), lower, upper)
        np.testing.assert_allclose(back, m, rtol=1e-12)


def test_transform_image_stays_inside_bounds():
    lower, upper = BOUNDS.lower_array(), BOUNDS.upper_array()
    for s in (-700.0, -50.0, 0.0, 50.0, 700.0):
        m = from_unbounded(np.full(2, s), lower, upper)
        assert np.all(m >= lower) and np.all(m <= upper)
        assert np.all(np.isfinite(m))
    # Monotone in each coordinate.
    grid = np.linspace(-20.0, 20.0, 41)
    a_vals = [from_unbounded(np.array([s, 0.0]), lower, upper)[0]
              for s in grid]
    assert np.all(np.diff(a_vals) > 0.0)


# ------------------------------------------------------------ gradient

def test_fd_gradient_exact_on_quadratic():
    coef = np.array([3.0, -0.5])

    def f(v):
        return float(coef @ (v * v))

    m = np.array([0.4, 70.0])
    g = fd_gradient(f, m, BOUNDS)
    np.testing.assert_allclose(g, 2.0 * coef * m, rtol=1e-9)


def test_fd_gradient_span_fallback_at_zero():
    def f(v):
        return float(2.0 * v[0] + v[1] ** 2)

    g = fd_gradient(f, np.array([0.0, 0.0]), BOUNDS)
    np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-10)


def test_fd_gradient_second_order_error_bound():
    def f(v):
        return float(np.exp(v[0]))

    a = 0.5
    h = 0.01 * a
    g = fd_gradient(f, np.array([a, 90.0]), BOUNDS)
    err = abs(g[0] - np.exp(a))
    assert 0.0 < err <= np.exp(a) * h ** 2 / 6.0 * 1.01
    assert g[1] == 0.0


def test_gradient_is_zero_along_unused_parameter():
    ev = adf_evaluator()

    def f(v):
        return ev.evaluate(ModelParams(BOUNDS.names, tuple(map(float, v)))).eps

    g = fd_gradient(f, np.array([0.5, 90.0]), BOUNDS)
    assert g[0] != 0.0
    assert g[1] == 0.0


EXTENDED = LibrarySpec.from_name("extended")
ADF_SPLIT = split_train_test(
    manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15}), 0.6)


@settings(max_examples=30, deadline=None)
@given(static=st.sets(st.sampled_from(
           [t.id for t in EXTENDED.terms if not t.is_sorption])),
       sorption=st.sampled_from(
           [None] + [t.id for t in EXTENDED.terms if t.is_sorption]))
def test_assimilation_evaluates_only_parameters_the_library_reads(static,
                                                                  sorption):
    """Every evaluation of an ensemble sees exactly the parameters its
    library reads, in bounds order; a parameter-free library is one run
    of one evaluation, whose fit is the run's result."""
    ids = tuple(t.id for t in EXTENDED.terms
                if t.id in static or t.id == sorption)
    assume(ids)
    lib = EXTENDED.subset(ids)
    cfg = IdentifyConfig(n_restarts=3)
    expected = tuple(n for n in cfg.bounds.names if n in lib.parameter_deps)
    seen = []
    evaluate = PredictionErrorEvaluator.evaluate

    def spy(self, m):
        seen.append(m.names)
        return evaluate(self, m)

    with mock.patch.object(PredictionErrorEvaluator, "evaluate", spy), \
            assimilation_settings((("_MAX_ACCEPTED", 3),)):
        results, failures = run_ensemble(ADF_SPLIT, lib, cfg)
    assert not failures
    assert set(seen) == {expected}
    assert all(r.m0.names == r.trace.m_final.names == expected
               for r in results)
    if expected:
        assert len(results) == cfg.n_restarts
    else:
        assert len(results) == 1 and len(seen) == 1
        assert results[0].trace.status == "zero_gradient"


# ---------------------------------------------------------- the update

def test_lm_step_without_gradient_relaxes_to_prior():
    c_m = np.array([0.2, 3.0])
    m, m_pr = np.array([0.6, 80.0]), np.array([0.5, 90.0])
    lam = 4.0
    out = lm_step(m, m_pr, np.zeros(2), c_m, 1.0, 5.0, lam)
    np.testing.assert_allclose(out, m - (m - m_pr) / (1.0 + lam), rtol=1e-12)
    at_prior = lm_step(m_pr, m_pr, np.zeros(2), c_m, 1.0, 5.0, lam)
    np.testing.assert_allclose(at_prior, m_pr, rtol=1e-14)


def test_lm_step_freezes_under_heavy_damping():
    rng = np.random.default_rng(2)
    m = rng.normal(size=2)
    m_pr = rng.normal(size=2)
    g = rng.normal(size=2)
    c_m = rng.uniform(0.5, 2.0, 2)
    out = lm_step(m, m_pr, g, c_m, 1.0, 2.0, 1e9)
    assert np.linalg.norm(out - m) < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lm_step_matches_information_form(n):
    """The covariance-form update with C_M = diag(c) must equal the
    regularized normal equations [(1+lam) C_M^-1 + G' C_eps^-1 G] dm =
    -[C_M^-1 (m-m_pr) + G' C_eps^-1 eps]."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = rng.normal(size=n)
        m_pr = rng.normal(size=n)
        g = rng.normal(size=n)
        c_m = np.diag(rng.uniform(0.1, 10.0, n))
        c_eps = float(rng.uniform(0.01, 10.0))
        eps = float(rng.normal())
        lam = float(rng.uniform(0.0, 100.0))
        got = lm_step(m, m_pr, g, np.diag(c_m), c_eps, eps, lam)
        h = (1.0 + lam) * np.linalg.inv(c_m) + np.outer(g, g) / c_eps
        rhs = np.linalg.solve(c_m, m - m_pr) + g * eps / c_eps
        expected = m - np.linalg.solve(h, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_lm_step_one_dimension_is_prior_pull_plus_data_pull():
    """With one parameter the update moves s by the prior pull
    C_eps (s - s_pr) / S plus the data pull c g eps / S."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s, s_pr, g = rng.normal(size=(3, 1))
        c = rng.uniform(0.1, 10.0, 1)
        c_eps = float(rng.uniform(0.01, 10.0))
        eps = float(rng.normal())
        lam = float(rng.uniform(0.0, 100.0))
        scale = (1.0 + lam) * c_eps + c * g * g
        expected = s - (c_eps * (s - s_pr) + c * g * eps) / scale
        np.testing.assert_allclose(lm_step(s, s_pr, g, c, c_eps, eps, lam),
                                   expected, rtol=1e-12, atol=1e-12)


def test_lm_step_singular_scale_guard():
    with pytest.raises(SolverError):
        lm_step(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2), 0.0, 1.0, 1.0)


def test_prior_variance_is_the_uniform_box_variance_at_the_start():
    """run_assimilation hands lm_step span^2 / 12 per parameter, carried
    to logit coordinates through dm/ds at m0."""
    seen = []

    def spy(s, s_pr, g, c_m, *rest):
        seen.append(c_m.copy())
        return s.copy()

    m0 = sorption_params(0.6, 70.0)
    with mock.patch.object(assim, "lm_step", spy):
        run_assimilation(StubObjective(lambda v: 1.0 + np.sum((v - 0.5) ** 2)),
                         m0, BOUNDS)
    chain = _chain_factor(m0.as_array(), BOUNDS.lower_array(),
                          BOUNDS.upper_array())
    np.testing.assert_allclose(seen[0], BOUNDS.span() ** 2 / 12.0 / chain ** 2,
                               rtol=1e-14)


# ------------------------------------------------------------ statuses

def test_flat_objective_reports_zero_gradient():
    stub = StubObjective(lambda v: 1.0 + (v[0] - 0.5) ** 2)
    tr = run_assimilation(stub, sorption_params(0.5, 90.0), BOUNDS)
    assert tr.status == "zero_gradient"
    assert len(tr.records) == 1
    assert tr.m_final == sorption_params(0.5, 90.0)


def test_kinked_objective_converges_at_start():
    """When every proposal increases the error the damping grows until a
    trial raises it by less than _TOL_REL, which ends the run converged at
    the untouched start point."""

    def vee(v):
        d = v[0] - 0.5
        return 1.0 + (3.0 * d if d >= 0.0 else -d)

    tr = run_assimilation(StubObjective(vee),
                          sorption_params(0.5, 90.0), BOUNDS)
    assert tr.status == "converged"
    assert tr.n_accepted == 1
    assert tr.m_final == sorption_params(0.5, 90.0)
    assert all(not r.accepted for r in tr.records[1:])


# After A accepted and R rejected trials the damping is _LAMBDA0 * 10^(R - A)
# (_GAMMA = 10).  A run ends at A = _MAX_ACCEPTED, or once R - A exceeds
# log10(_LAMBDA_STALL / _LAMBDA0) = 14, so it proposes at most
# 25 + 24 + 14 trials.
_MAX_TRIALS = (2 * assim._MAX_ACCEPTED - 1
               + round(np.log10(assim._LAMBDA_STALL / assim._LAMBDA0)))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       freq=st.floats(1.0, 500.0), jag=st.floats(0.0, 0.5),
       floor=st.floats(1e-8, 3.0),
       start=st.tuples(st.floats(0.26, 0.74), st.floats(31.0, 149.0)))
def test_every_run_ends_within_its_trial_bound(coeffs, freq, jag, floor,
                                               start):
    """On rough objectives, |bowl + ripples + sawtooth| above a floor,
    every run ends in one of the four statuses after at most 63 trials.
    A low floor makes relative steps large, so some runs end
    ``max_iterations`` or ``stalled``."""
    c = np.array(coeffs)

    def rough(v):
        x = (v - BOUNDS.lower_array()) / BOUNDS.span()
        bowl = float(np.sum((x - 0.5 - 0.4 * c[4:]) ** 2))
        ripple = 0.5 * (c[:2] @ np.sin(freq * x + c[2:4]))
        saw = jag * float(np.sum((freq * x) % 1.0))
        return floor + abs(bowl + ripple + saw)

    tr = run_assimilation(StubObjective(rough), sorption_params(*start), BOUNDS)
    assert tr.status in ("converged", "stalled", "zero_gradient",
                         "max_iterations")
    assert len(tr.records) - 1 <= _MAX_TRIALS == 63


def test_quartic_valley_converges():
    stub = StubObjective(lambda v: 1.0 + (v[0] - 0.6) ** 4)
    tr = run_assimilation(stub, sorption_params(0.5, 90.0), BOUNDS)
    assert tr.status == "converged"
    eps_seq = [r.eps for r in tr.records if r.accepted]
    assert all(b < a for a, b in zip(eps_seq, eps_seq[1:]))


def test_iteration_cap_reports_max_iterations():
    with assimilation_settings(TIGHT_ASSIM + (("_MAX_ACCEPTED", 2),)):
        tr = run_assimilation(adf_evaluator(),
                              sorption_params(0.26, 31.0), BOUNDS)
    assert tr.status == "max_iterations"
    assert tr.n_accepted == 1 + 2


def test_transform_keeps_iterates_inside_bounds():
    stub = StubObjective(lambda v: 1.0 + (v[0] - 2.0) ** 2)
    tr = run_assimilation(stub, sorption_params(0.5, 90.0), BOUNDS)
    lower, upper = BOUNDS.lower_array(), BOUNDS.upper_array()
    for record in tr.records:
        m = record.m.as_array()
        assert np.all(lower <= m) and np.all(m <= upper)
    # The constrained optimum sits at the upper bound of a.
    assert tr.m_final["a"] > 0.7


# ------------------------------------------------------------ recovery

def test_freundlich_exponent_recovered_from_any_start():
    """Full loop on analytic Freundlich data: a* back to 1e-3 from every
    corner and interior start."""
    ev = adf_evaluator()
    for start in RECOVERY_STARTS:
        with assimilation_settings(TIGHT_ASSIM):
            tr = run_assimilation(ev, sorption_params(*start), BOUNDS)
        assert abs(tr.m_final["a"] - M_STAR[0]) <= 1e-3, start
        assert tr.status in ("converged", "stalled", "max_iterations")
        assert BOUNDS.lower[0] <= tr.m_final["a"] <= BOUNDS.upper[0]


def test_langmuir_constant_recovered_from_any_start():
    ev = adl_evaluator()
    for start in RECOVERY_STARTS:
        with assimilation_settings(TIGHT_ASSIM):
            tr = run_assimilation(ev, sorption_params(*start), BOUNDS)
        rel = abs(tr.m_final["K_l"] - M_STAR[1]) / M_STAR[1]
        assert rel <= 1e-3, start
        assert BOUNDS.lower[1] <= tr.m_final["K_l"] <= BOUNDS.upper[1]


def test_trace_bookkeeping_on_recovery_run():
    ev = adl_evaluator()
    with assimilation_settings(TIGHT_ASSIM):
        tr = run_assimilation(ev, sorption_params(0.3, 130.0), BOUNDS)
    eps_seq = [r.eps for r in tr.records if r.accepted]
    assert len(eps_seq) == tr.n_accepted >= 2
    assert all(b < a for a, b in zip(eps_seq, eps_seq[1:]))
    accepted_ms = [r.m for r in tr.records if r.accepted]
    assert tr.m_final == accepted_ms[-1]
    assert tr.fit.eps == eps_seq[-1]
    # Rejected proposals raise the damping, accepted ones relax it.
    for prev, cur in zip(tr.records, tr.records[1:]):
        if not cur.accepted:
            assert cur.lam > prev.lam


def test_failed_update_step_is_a_rejection():
    """An infinite probe makes the gradient infinite and the update step
    raise; each failed step is recorded as a rejection at the current m."""
    def cliff(v):
        return 1.0 + (v[0] - 0.3) ** 2 if v[0] <= 0.5 else np.inf

    m0 = sorption_params(0.5, 90.0)
    tr = run_assimilation(StubObjective(cliff), m0, BOUNDS)
    assert tr.status == "stalled"
    assert tr.m_final == m0
    assert all(r.m == m0 and r.eps == np.inf for r in tr.records[1:])


@pytest.mark.parametrize("a", [0.25, 0.75, 0.2, 0.8])
def test_start_on_or_outside_bounds_is_rejected(a):
    stub = StubObjective(lambda v: 1.0 + (v[0] - 0.6) ** 2)
    with pytest.raises(ValidationError, match="strictly inside the bounds"):
        run_assimilation(stub, sorption_params(a, 90.0), BOUNDS)


def test_start_point_failure_is_a_solver_error():
    def broken(v):
        raise FloatingPointError("boom")

    with pytest.raises(SolverError):
        run_assimilation(StubObjective(broken),
                         sorption_params(0.5, 90.0), BOUNDS)


# ------------------------------------------- gradient against its oracle

ZERO_BOX = ParamBounds(names=("a", "K_l"), lower=(-0.5, 30.0),
                       upper=(0.75, 150.0))
NEAR_ZERO_BOX = ParamBounds(names=("a", "K_l"), lower=(-1e-3, 30.0),
                            upper=(0.75, 150.0))


def wavy(v):
    return (1.0 + 3.0 * (v[0] - 0.6) ** 2 + 1e-4 * (v[1] - 90.0) ** 2
            + 0.1 * np.sin(7.0 * v[0]) * np.cos(v[1] / 17.0))


def inline_gradient(func, m, bounds, rel_step):
    """The central-difference loop run_assimilation used to carry inline,
    copied verbatim as the oracle of fd_gradient."""
    span = bounds.span()
    g = np.zeros(m.size)
    for i in range(m.size):
        h = rel_step * abs(m[i])
        if h == 0.0:
            h = rel_step * span[i]
        lo = m.copy()
        hi = m.copy()
        lo[i] -= h
        hi[i] += h
        g[i] = (func(hi) - func(lo)) / (2.0 * h)
    return g


def first_gradient(fn, m0, bounds):
    """The gradient run_assimilation hands to its first update step, or
    None when it stopped on a zero gradient before proposing one."""
    seen = []

    def spy(s, s_pr, g, *rest):
        # Proposing the current point is a flat trial, which ends the run.
        seen.append(g.copy())
        return s.copy()

    with mock.patch.object(assim, "lm_step", spy):
        tr = run_assimilation(StubObjective(fn), m0, bounds)
    if not seen:
        assert tr.status == "zero_gradient"
        return None
    assert tr.status == "converged"
    return seen[0]


def interior(lo, hi):
    return st.floats(min_value=lo, max_value=hi, exclude_min=True,
                     exclude_max=True, allow_nan=False)


def starts(lo, hi):
    """Interior values, including ones within 1e-9 of either bound."""
    gap = st.floats(min_value=1e-12, max_value=1e-9)
    return st.one_of(interior(lo, hi), gap.map(lambda d: lo + d),
                     gap.map(lambda d: hi - d))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bounds=st.sampled_from([BOUNDS, ZERO_BOX]))
def test_gradient_matches_inline_oracle(data, bounds):
    """The gradient in logit coordinates is the natural-coordinate
    fd_gradient at m times dm/ds, bit for bit."""
    a_values = starts(bounds.lower[0], bounds.upper[0])
    if bounds.lower[0] < 0.0 < bounds.upper[0]:
        a_values = st.one_of(st.just(0.0), a_values)
    a = data.draw(a_values)
    k_l = data.draw(starts(bounds.lower[1], bounds.upper[1]))
    lower, upper = bounds.lower_array(), bounds.upper_array()
    m = from_unbounded(to_unbounded(np.array([a, k_l]), lower, upper),
                       lower, upper)
    natural = inline_gradient(wavy, m, bounds, 0.01)
    np.testing.assert_array_equal(fd_gradient(wavy, m, bounds),
                                  natural)
    expected = natural * _chain_factor(m, lower, upper)
    got = first_gradient(wavy, sorption_params(a, k_l), bounds)
    if got is None:
        assert not np.any(np.abs(expected) > 0.0)
    else:
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       bounds=st.sampled_from([BOUNDS, ZERO_BOX, NEAR_ZERO_BOX]))
def test_every_evaluated_point_lies_in_the_probe_box(data, bounds):
    """Start points, trials and gradient probes of a whole run, from
    starts next to either bound and from 0, stay inside probe_box: the
    interval an eps proxy must cover."""
    a_values = starts(bounds.lower[0], bounds.upper[0])
    if bounds.lower[0] < 0.0 < bounds.upper[0]:
        a_values = st.one_of(st.just(0.0), a_values)
    m0 = sorption_params(
        data.draw(a_values), data.draw(starts(bounds.lower[1],
                                              bounds.upper[1])))
    seen = []

    def recorded(v):
        seen.append(v.copy())
        return wavy(v)

    run_assimilation(StubObjective(recorded), m0, bounds)
    lo, hi = probe_box(bounds)
    points = np.array(seen)
    assert np.all((lo <= points) & (points <= hi))


def test_probe_box_reaches_the_farthest_probe():
    lo, hi = probe_box(BOUNDS)
    np.testing.assert_allclose(lo, [0.25 * 0.99, 30.0 * 0.99], rtol=1e-15)
    np.testing.assert_allclose(hi, [0.75 * 1.01, 150.0 * 1.01], rtol=1e-15)
    # From m = 0 the step is 1 % of the span, farther than from -1e-3.
    lo, hi = probe_box(NEAR_ZERO_BOX)
    np.testing.assert_allclose(lo, [-0.01 * 0.751, 30.0 * 0.99], rtol=1e-15)
    np.testing.assert_allclose(hi, [0.75 * 1.01, 150.0 * 1.01], rtol=1e-15)


def test_gradient_sign_near_upper_bound():
    """Within 1e-6 of the upper bound the gradient in logit coordinates
    has the sign of the natural derivative: the probes stay near m
    instead of spanning the box."""
    def bowl(v):
        return 1.0 + (v[0] - 0.6) ** 2 + 1e-4 * (v[1] - 90.0) ** 2

    m0 = sorption_params(0.75 - 1e-6, 150.0 - 1e-6)
    g = first_gradient(bowl, m0, BOUNDS)
    natural = np.array([2.0 * (m0["a"] - 0.6), 2e-4 * (m0["K_l"] - 90.0)])
    np.testing.assert_array_equal(np.sign(g), np.sign(natural))
