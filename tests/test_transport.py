"""Solver-level checks: isotherms, configuration guards, mass accounting,
grid convergence and measurement sampling."""

import ctypes
import re
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_tiny
import reference_solver
from reference_solver import isotherm_slope, plain_simulate, reference_simulate
from transportid import transport
from transportid.errors import SolverError, ValidationError
from transportid.scenarios import (get_scenario, scenario_names,
                                   true_coefficients, true_parameters)
from transportid.transport import (Field, SorptionModel, isotherm_value,
                                   sample_measurements, simulate)


def test_isotherm_values_match_hand_calculation():
    fre = SorptionModel.freundlich(k_f=0.05, a=0.7)
    lan = SorptionModel.langmuir(k_l=100.0, s_bar=0.003)
    non = SorptionModel.none()
    assert isotherm_value(0.0, fre) == 0.0
    assert isotherm_value(1.0, fre) == pytest.approx(0.05, rel=1e-12)
    # K_l*S_bar*C/(1+K_l*C) at C=0.01: 100*0.003*0.01/2 = 0.0015
    assert isotherm_value(0.01, lan) == pytest.approx(0.0015, rel=1e-12)
    assert isotherm_value(0.7, non) == 0.0
    # The exact slope that reference_simulate, the accuracy oracle, uses.
    assert isotherm_slope(1.0, fre) == pytest.approx(0.7 * 0.05, rel=1e-12)
    assert isotherm_slope(0.0, lan) == pytest.approx(0.3, rel=1e-12)
    assert isotherm_slope(0.5, non) == 0.0


def test_isotherm_array_input_round_trip():
    fre = SorptionModel.freundlich(k_f=0.2, a=0.5)
    c = np.array([0.0, 0.04, 1.0, 4.0])
    np.testing.assert_allclose(isotherm_value(c, fre), 0.2 * np.sqrt(c),
                               rtol=1e-13)


def test_isotherm_domain_guards():
    fre = SorptionModel.freundlich(k_f=0.05, a=0.7)
    with pytest.raises(ValueError):
        isotherm_value(-0.1, fre)


def test_sorption_model_validation():
    with pytest.raises(ValidationError):
        SorptionModel(kind="henry")
    with pytest.raises(ValidationError):
        SorptionModel.freundlich(k_f=0.05, a=1.5)
    with pytest.raises(ValidationError):
        SorptionModel.freundlich(k_f=-0.1, a=0.7)
    with pytest.raises(ValidationError):
        SorptionModel.langmuir(k_l=-1.0, s_bar=0.003)


def test_scenario_config_guards():
    with pytest.raises(ValidationError):
        make_tiny(sim_dx=1.28)  # coarser than the measurement grid
    with pytest.raises(ValidationError):
        make_tiny(sim_length=8.0)  # shorter than twice the measured extent
    with pytest.raises(ValidationError):
        make_tiny(meas_dt=3.0)  # window not an integer number of steps
    with pytest.raises(ValidationError):
        make_tiny(theta=1.2)
    with pytest.raises(ValidationError):
        make_tiny(c0=-0.01)
    with pytest.raises(ValidationError, match="c0"):
        make_tiny(c0=float("nan"))
    with pytest.raises(ValidationError, match="c0"):
        make_tiny(c0=float("inf"))
    with pytest.raises(ValidationError, match="c0 must be at most 1e\\+06 mg/l"):
        make_tiny(c0=1.000001e6)  # above 1 kg/l
    assert make_tiny(c0=1e6).c0 == 1e6
    with pytest.raises(ValidationError, match="conc_floor"):
        make_tiny(conc_floor=float("nan"))  # would silently disable the floor
    with pytest.raises(ValidationError):
        make_tiny(meas_t_start=-2.0)  # window starts before the simulation
    with pytest.raises(ValidationError, match="sim_store_dt"):
        make_tiny(sim_store_dt=0.0)
    with pytest.raises(ValidationError, match="sim_store_dt"):
        make_tiny(sim_store_dt=-2.0)
    with pytest.raises(ValidationError, match="meas_dt/store_dt"):
        make_tiny(meas_dt=1e-12)  # a ratio that rounds to zero steps
    with pytest.raises(ValidationError, match="meas_dx/sim_dx"):
        make_tiny(sim_dx=0.4)  # measurement nodes between solver nodes


@pytest.mark.parametrize("order", [0, 3, -1, True, False, 2.0, "2", None])
def test_sim_order_is_one_or_two(order):
    """The time step is backward Euler (1) or BDF2 (2); a bool is neither,
    though Python counts True as 1."""
    with pytest.raises(ValidationError, match="sim_order"):
        make_tiny(sim_order=order)


def test_sim_order_defaults_to_backward_euler():
    assert make_tiny().sim_order == 1 and make_tiny(sim_order=2).sim_order == 2
    # The presets measured every 0.5 s step there with BDF2, the fast ones
    # at their 0.1 s measurement interval with backward Euler.
    for name in scenario_names():
        cfg = get_scenario(name)
        expected = (1, 0.1) if name.endswith("-fast") else (2, 0.5)
        assert (cfg.sim_order, cfg.sim_dt) == expected == (cfg.sim_order, cfg.meas_dt), name


def test_derived_scenario_quantities():
    s = get_scenario("s1")
    assert s.d_l == pytest.approx(s.alpha_l * s.v_x, rel=1e-15)
    assert s.q == pytest.approx(s.v_x * s.theta, rel=1e-15)
    assert s.rho_b / s.theta == pytest.approx(1.587 / 0.37, rel=1e-12)


def test_preset_catalogue_and_true_values():
    names = scenario_names()
    for expected in ("s1", "s2", "s3", "s2-kf01", "s3-kl60",
                     "s2-fast", "s3-fast"):
        assert expected in names
    ratio = 1.587 / 0.37
    tc = true_coefficients("s2")
    assert tc["adv"] == pytest.approx(-0.01, rel=1e-12)
    assert tc["dis"] == pytest.approx(0.01, rel=1e-12)
    assert tc["fsorp"] == pytest.approx(-ratio * 0.7 * 0.05, rel=1e-12)
    tc3 = true_coefficients("s3")
    assert tc3["lsorp"] == pytest.approx(-ratio * 100.0 * 0.003, rel=1e-12)
    assert true_parameters("s2")["a"] == pytest.approx(0.7)
    assert true_parameters("s3")["K_l"] == pytest.approx(100.0)
    assert true_coefficients("s2-fast")["adv"] == pytest.approx(-0.05)
    with pytest.raises(ValidationError,
                       match=re.escape(f"unknown scenario 's99'; known: "
                                       f"{sorted(names)}")):
        get_scenario("s99")
    # The presets are built once and shared; they are frozen.
    assert get_scenario("s2") is get_scenario("s2")


@pytest.mark.parametrize("floor", [0.0, 5e-5])
def test_zero_source_stays_zero(floor):
    """Zero is at or below any floor, so a zero field is masked whole."""
    cfg = make_tiny(c0=0.0, conc_floor=floor)
    meas = sample_measurements(simulate(cfg)[0], cfg)
    assert np.all(meas.values == 0.0)
    assert not meas.mask.any()


def test_concentration_bounded_by_feed():
    """Checked on the recorded window only: the solver keeps no other node."""
    cfg = get_scenario("s1")
    field, _ = simulate(cfg)
    assert field.values.max() <= cfg.c0 * (1.0 + 1e-9)
    assert field.values.min() >= -1e-12


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_mass_balance_closes(pipeline, name):
    """Stored aqueous + sorbed mass must track injected minus outflowed."""
    _, diag = pipeline.simulation(name)
    assert diag.max_picard_sweeps < 50
    err = diag.balance_error()
    assert np.max(np.abs(err)) < 1e-3


def test_sorbed_mass_only_with_sorption(pipeline):
    _, d1 = pipeline.simulation("s1")
    _, d2 = pipeline.simulation("s2")
    assert np.all(d1.sorbed_mass == 0.0)
    assert d2.sorbed_mass.max() > 0.0


def test_measurement_grid_shape(pipeline):
    cfg = get_scenario("s1")
    field, _ = pipeline.simulation("s1")
    meas = sample_measurements(field, cfg)
    assert meas.values.shape == (101, 1601)
    assert meas.x0 == 0.0
    assert meas.dx == pytest.approx(0.16)
    assert meas.t0 == pytest.approx(300.0)
    assert meas.dt == pytest.approx(0.5)
    np.testing.assert_allclose(meas.t[-1], 1100.0, rtol=1e-12)


def test_fast_variant_measurement_window():
    cfg = get_scenario("s2-fast")
    meas = sample_measurements(simulate(cfg)[0], cfg)
    assert meas.values.shape == (101, 1201)
    assert meas.t0 == pytest.approx(180.0)
    np.testing.assert_allclose(meas.t[-1], 300.0, rtol=1e-12)


def test_floor_masks_low_concentrations(pipeline):
    cfg = get_scenario("s1")
    field, _ = pipeline.simulation("s1")
    meas = sample_measurements(field, cfg)
    assert not meas.mask.all()
    assert np.all(meas.values[meas.mask] > cfg.conc_floor)
    assert field.mask.all()
    open_cfg = replace(cfg, conc_floor=0.0)
    assert sample_measurements(field, open_cfg).mask.all()


def test_finer_measurement_grid_contains_the_coarse_one():
    """Every other node and time of a twice-finer monitoring grid is the
    coarse grid's record, bit for bit."""
    coarse = make_tiny()
    fine = make_tiny(meas_dx=0.32, meas_x_count=49, meas_dt=1.0,
                     sim_store_dt=1.0)
    mc = sample_measurements(simulate(coarse)[0], coarse)
    mf = sample_measurements(simulate(fine)[0], fine)
    assert np.array_equal(mf.values[::2, ::2], mc.values)
    assert np.array_equal(mf.mask[::2, ::2], mc.mask)


def test_window_from_time_zero_starts_with_initial_condition():
    cfg = make_tiny(meas_t_start=0.0)
    field, _ = simulate(cfg)
    assert field.values.shape == (25, 351)
    assert field.t0 == 0.0 and field.dt == 2.0
    assert np.all(field.values[:, 0] == 0.0)
    assert field.values[0, 1] > 0.0


def test_sampling_rejects_a_field_off_the_measurement_grid():
    cfg = make_tiny()
    field, _ = simulate(cfg)
    with pytest.raises(ValidationError, match="measurement grid"):
        sample_measurements(field, make_tiny(meas_dt=4.0))
    shifted = Field(field.values, x0=0.0, dx=field.dx, t0=field.t0 + 2.0,
                    dt=field.dt)
    with pytest.raises(ValidationError, match="measurement grid"):
        sample_measurements(shifted, cfg)


def test_field_rejects_non_finite_grid_values():
    """A NaN spacing slips past a ``<= 0`` test and an infinite origin
    makes every coordinate infinite; both are refused, as is a bool."""
    grid = {"x0": 0.0, "dx": 1.0, "t0": 0.0, "dt": 1.0}
    for key in grid:
        for bad in (np.nan, np.inf, -np.inf, True):
            with pytest.raises(ValidationError, match=f"{key}="):
                Field(np.ones((6, 4)), **(grid | {key: bad}))


def test_no_sorption_equals_zero_freundlich():
    base = make_tiny()
    off = make_tiny(sorption=SorptionModel.freundlich(k_f=0.0, a=0.7))
    a = sample_measurements(simulate(base)[0], base)
    b = sample_measurements(simulate(off)[0], off)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_solution_converges_under_grid_refinement():
    coarse = make_tiny(sim_dx=0.16, sim_dt=0.5)
    fine = make_tiny(sim_dx=0.08, sim_dt=0.25)
    mc = sample_measurements(simulate(coarse)[0], coarse)
    mf = sample_measurements(simulate(fine)[0], fine)
    rel = np.max(np.abs(mf.values - mc.values)) / mc.values.max()
    assert rel < 5e-3


@pytest.mark.parametrize("sorption", [
    pytest.param(SorptionModel.none(), id="linear"),
    pytest.param(SorptionModel.freundlich(k_f=0.05, a=0.7), id="freundlich"),
])
def test_bdf2_converges_at_second_order(sorption):
    """At sim_order 2 each halving of the step, from 2 s to 0.5 s, cuts the
    largest error of the measured field against a run at 0.25 s by at least
    3.5x.  The error is second order, so the ratios read about 4.2 and 5.0
    (the reference's own error lowers the first and raises the second from
    4); backward Euler's read about 2.3 and 3.0."""
    def measured(dt, order):
        cfg = make_tiny(sorption=sorption, sim_length=64.0, sim_dt=dt, sim_order=order)
        return simulate(cfg)[0].values

    for order, low, high in ((2, 3.5, None), (1, None, 3.5)):
        ref = measured(0.25, order)
        errors = [np.abs(measured(dt, order) - ref).max() for dt in (2.0, 1.0, 0.5)]
        for coarse, fine in zip(errors, errors[1:]):
            assert low is None or coarse >= low * fine, (order, errors)
            assert high is None or coarse < high * fine, (order, errors)


def test_cell_peclet_guard():
    cfg = make_tiny(alpha_l=0.1)  # D_L drops tenfold, Pe = 3.2
    with pytest.raises(ValidationError):
        simulate(cfg)


# ------------------------------------------- fast path vs reference solvers

TINY_FREUNDLICH = SorptionModel.freundlich(k_f=0.05, a=0.7)

_AUDIT_ARRAYS = ("times", "aqueous_mass", "sorbed_mass", "injected_mass",
                 "outflowed_mass")


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def _assert_values_match_reference(cfg):
    """The fast path's measured values and audit arrays against a plain
    reference; returns both diagnostics.

    Without sorption the reference is the solver's earlier loop, whose
    scheme the linear model keeps, and every bit, signed zeros included,
    must match.  With sorption it is ``plain_simulate``, the same scheme on
    the whole column.  The active window holds the nodes past it at 0 where
    the reference keeps values at or below the window's tail, so each
    measured value may differ by up to the tail, the aqueous and the sorbed
    mass each by what a column of such nodes holds, and the outflow by the
    tail at the outlet in every step.
    """
    field, diag = simulate(cfg)
    linear = cfg.sorption.kind == "none"
    ref_field, ref_diag = (reference_simulate if linear else plain_simulate)(cfg)
    assert (field.x0, field.dx, field.t0, field.dt) == (
        ref_field.x0, ref_field.dx, ref_field.t0, ref_field.dt)
    if linear:
        assert np.array_equal(_bits(field.values), _bits(ref_field.values))
        for name in _AUDIT_ARRAYS:
            assert np.array_equal(_bits(getattr(diag, name)),
                                  _bits(getattr(ref_diag, name))), name
        return diag, ref_diag
    tail = transport._tail_concentration(cfg)
    assert np.all(np.abs(field.values - ref_field.values) <= tail)
    for name in ("times", "injected_mass"):
        assert np.array_equal(_bits(getattr(diag, name)),
                              _bits(getattr(ref_diag, name))), name
    held = cfg.sim_length * transport._TAIL * cfg.theta * cfg.c0
    for name in ("aqueous_mass", "sorbed_mass"):
        assert np.all(np.abs(getattr(diag, name) - getattr(ref_diag, name)) <= held), name
    outflow_bound = cfg.q * cfg.meas_t_end * tail
    assert np.all(np.abs(diag.outflowed_mass - ref_diag.outflowed_mass)
                  <= outflow_bound)
    return diag, ref_diag


@contextmanager
def recorded_solve_sizes():
    """Record the size of every system ``transport.solve_banded`` solves."""
    sizes = []
    banded = transport.solve_banded

    def recording(bound):
        sizes.append(bound.rhs.size)
        return banded(bound)

    transport.solve_banded = recording
    try:
        yield sizes
    finally:
        transport.solve_banded = banded


def assert_matches_reference(cfg, sizes=None):
    """Values as in _assert_values_match_reference, and the solve and sweep
    counts equal the reference's; returns both diagnostics.

    ``sizes`` are the recorded solve sizes of a run that may have solved a
    windowed step again on the full grid.  Where a windowed solve is followed
    by a full-grid one, the solve count may exceed the reference's by the
    abandoned windowed sweeps; elsewhere it must equal it.
    """
    diag, ref_diag = _assert_values_match_reference(cfg)
    n_steps = int(round(cfg.meas_t_end / cfg.sim_dt))
    if cfg.sorption.kind == "none":
        # One solve per step: the reference's confirming sweep is not run.
        expected = n_steps
        assert diag.max_picard_sweeps == 1
        assert n_steps <= ref_diag.solves <= 2 * n_steps
    else:
        expected = ref_diag.solves
        assert diag.max_picard_sweeps == ref_diag.max_picard_sweeps
    n_nodes = int(round(cfg.sim_length / cfg.sim_dx)) + 1
    if sizes is not None and any(a < n_nodes == b for a, b in zip(sizes, sizes[1:])):
        assert diag.solves >= expected
    else:
        assert diag.solves == expected
    return diag, ref_diag


_SORPTION = st.one_of(
    st.just(SorptionModel.none()),
    st.builds(SorptionModel.freundlich,
              k_f=st.floats(0.0, 0.2), a=st.floats(0.3, 1.0)),
    st.builds(SorptionModel.langmuir,
              k_l=st.floats(0.0, 300.0), s_bar=st.floats(0.0, 0.01)),
)


@settings(max_examples=25, deadline=None)
@given(sorption=_SORPTION,
       v_x=st.floats(0.002, 0.05),
       alpha_l=st.floats(0.16, 3.0),  # grid Peclet 0.32/alpha_l <= 2
       theta=st.floats(0.2, 0.6),
       rho_b=st.floats(0.5, 2.5),
       t_pulse=st.sampled_from([50.0, 200.0, 350.0, 1000.0]),
       c0=st.floats(0.0, 0.2),
       sim_order=st.sampled_from([1, 2]))
# A window tail that does not scale with c0 loses every node of this plume.
@example(sorption=SorptionModel.none(), v_x=0.01, alpha_l=1.0, theta=0.37,
         rho_b=1.587, t_pulse=200.0, c0=1.4e-169, sim_order=1)
def test_fast_path_matches_plain_solver(sorption, v_x, alpha_l, theta,
                                        rho_b, t_pulse, c0, sim_order):
    cfg = make_tiny(sorption=sorption, v_x=v_x, alpha_l=alpha_l, theta=theta,
                    rho_b=rho_b, t_pulse=t_pulse, c0=c0, meas_t_start=100.0,
                    meas_t_end=400.0, sim_order=sim_order)
    with recorded_solve_sizes() as sizes:
        assert_matches_reference(cfg, sizes)


@pytest.mark.parametrize("cfg", [
    pytest.param(get_scenario("s2-fast"), id="s2-fast"),
    pytest.param(get_scenario("s3-fast"), id="s3-fast"),
    # The linear model solves the whole 1,001-node column every step.
    pytest.param(replace(get_scenario("s1"), meas_t_end=400.0), id="s1-until-400s"),
])
def test_fast_presets_match_reference(cfg):
    with recorded_solve_sizes() as sizes:
        assert_matches_reference(cfg, sizes)
    if cfg.sorption.kind == "none":
        assert set(sizes) == {1001}


# Measured at the solver's previous loop (each step started from the last
# step's concentration, two isotherm powers a Freundlich sweep, a window
# tail of 1e-100 * c0): the largest distance of each nonlinear preset's
# measured field from reference_simulate at a Picard tolerance of 1e-12,
# and the largest mass-balance error.
_EARLIER_DISTANCE = {"s2": 8.764e-10, "s3": 2.494e-16, "s2-kf01": 1.139e-09,
                     "s3-kl60": 1.041e-16, "s2-fast": 9.507e-11, "s3-fast": 1.318e-16}
_EARLIER_BALANCE = {"s2": 6.312e-08, "s3": 1.378e-13, "s2-kf01": 1.115e-07,
                    "s3-kl60": 2.217e-13, "s2-fast": 7.487e-09, "s3-fast": 2.494e-14}
# Below this a mass-balance error is rounding, which any reordering of the
# arithmetic moves.
_BALANCE_FLOOR = 1e-12


@pytest.mark.parametrize("name", sorted(_EARLIER_DISTANCE))
def test_presets_stay_near_a_tight_reference(pipeline, name):
    """Each nonlinear preset's field is no farther from the exact-isotherm
    loop run to a 1e-12 Picard tolerance than the earlier loop's was, plus
    one Picard tolerance, and its mass-balance error does not grow above
    the rounding floor.  The reference steps as the preset does: BDF2 at
    0.5 s on the presets measured every 0.5 s, where the bounds measured
    at 0.1 s backward-Euler steps still hold."""
    field, diag = pipeline.simulation(name)
    ref_field, _ = reference_simulate(get_scenario(name), tol=1e-12)
    distance = np.abs(field.values - ref_field.values).max()
    assert distance <= _EARLIER_DISTANCE[name] + transport._PICARD_TOL
    assert diag.balance_error().max() <= max(_EARLIER_BALANCE[name], _BALANCE_FLOOR)


def reference_step_sweeps(monkeypatch) -> list:
    """The Picard sweeps of each step the reference solvers take, recorded
    from here on; the fast path's steps take as many."""
    sweeps = []
    end_step = reference_solver._Column.end_step

    def recording(self, step, c, sorbed_mass, n, flux_in):
        sweeps.append(n)
        end_step(self, step, c, sorbed_mass, n, flux_in)

    monkeypatch.setattr(reference_solver._Column, "end_step", recording)
    return sweeps


def _steep(c0):
    return make_tiny(sorption=SorptionModel.freundlich(k_f=0.125, a=0.3125),
                     v_x=0.03125, theta=0.5, rho_b=1.0, t_pulse=50.0, c0=c0,
                     meas_t_start=100.0, meas_t_end=400.0)


@pytest.mark.parametrize("cfg", [
    pytest.param(make_tiny(sorption=TINY_FREUNDLICH, sim_length=64.0), id="freundlich"),
    pytest.param(make_tiny(sorption=SorptionModel.langmuir(k_l=100.0, s_bar=0.003),
                           sim_length=64.0), id="langmuir"),
    # A steep isotherm: at c0 = 1e-5 every step stops after one sweep.
    pytest.param(_steep(1e-5), id="steep-1e-05"),
    pytest.param(_steep(1e-3), id="steep-0.001"),
])
def test_window_opens_after_the_first_step(cfg, monkeypatch):
    """No plume here nears the outlet, so only the first step's solves
    cover the whole column: the window opens after it and never falls
    back."""
    steps = reference_step_sweeps(monkeypatch)
    with recorded_solve_sizes() as sizes:
        assert_matches_reference(cfg)
    n_nodes = int(round(cfg.sim_length / cfg.sim_dx)) + 1
    first = steps[0]
    assert set(sizes[:first]) == {n_nodes} and max(sizes[first:]) < n_nodes


def test_window_grown_to_the_outlet_binds_nothing(monkeypatch):
    """A window that grows to the outlet hands the next step to the full
    grid's bindings, made once before the first step: the run builds no
    other full-size gtsv binding."""
    cfg = make_tiny(sorption=TINY_FREUNDLICH, v_x=0.05, meas_t_start=100.0,
                    meas_t_end=400.0)
    bound = []
    init = transport._GtsvBinding.__init__

    def recording(self, lower, diag, upper, rhs):
        bound.append(rhs.size)
        init(self, lower, diag, upper, rhs)

    monkeypatch.setattr(transport._GtsvBinding, "__init__", recording)
    with recorded_solve_sizes() as sizes:
        assert_matches_reference(cfg)
    n_nodes = int(round(cfg.sim_length / cfg.sim_dx)) + 1
    assert any(a < n_nodes == b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == n_nodes
    assert bound.count(n_nodes) == 2


def test_window_falls_back_to_the_full_grid(monkeypatch):
    """A windowed step whose plume reached the far half of the guard band is
    solved again on the full grid, and the window opens again right after
    it.

    With the tail set by mass no column has been seen to move its plume by
    _GUARD // 2 nodes in one step after its window opened, so here the plume
    is made to: from the 300th windowed solve on, each windowed solve
    returns its solution with 1,000 times the tail at the window's last
    node, until a full-grid solve follows.  The values still match the
    plain solver's, and the abandoned windowed sweeps are the only solves
    it lacks."""
    cfg = make_tiny(sorption=TINY_FREUNDLICH, sim_length=64.0)
    ahead = 1e3 * transport._tail_concentration(cfg)
    banded = transport.solve_banded
    windowed, resolved = [], []

    def outrunning(bound):
        x = banded(bound)
        if x.size < 201:
            windowed.append(x.size)
            if len(windowed) >= 300 and not resolved:
                x[-1] = ahead
        elif len(windowed) >= 300 and not resolved:
            resolved.append(len(windowed))
        return x

    monkeypatch.setattr(transport, "solve_banded", outrunning)
    steps = reference_step_sweeps(monkeypatch)
    with recorded_solve_sizes() as sizes:
        diag, ref_diag = assert_matches_reference(cfg, sizes)
    assert diag.solves == len(sizes) > ref_diag.solves
    # One step was solved again: its full-grid solves follow the abandoned
    # windowed sweeps and are as many as the reference's step takes, and
    # every later step is windowed.
    assert resolved
    redo = sizes.index(201, steps[0])
    abandoned = diag.solves - ref_diag.solves
    redone = steps[list(np.cumsum(steps)).index(redo - abandoned) + 1]
    assert set(sizes[redo:redo + redone]) == {201} and sizes[redo + redone] < 201
    assert max(sizes[redo + redone:]) < 201


def test_solve_counts(pipeline):
    """Every solve, the linear model's gttrs ones too, goes through
    ``transport.solve_banded``; every nonlinear preset's counts, with
    Picard's extrapolated start, and its most sweeps in a step.  The
    accuracy test above has already run the presets."""
    with recorded_solve_sizes() as sizes:
        _, diag = simulate(make_tiny())
    assert diag.solves == len(sizes) == 700 and diag.max_picard_sweeps == 1
    diag, ref_diag = assert_matches_reference(make_tiny(sorption=TINY_FREUNDLICH))
    assert diag.solves == ref_diag.solves > 2 * 700
    for name, solves, sweeps in (("s2", 3541, 9), ("s3", 3556, 4),
                                 ("s2-kf01", 3441, 9), ("s3-kl60", 3505, 4),
                                 ("s2-fast", 5370, 9), ("s3-fast", 6025, 4)):
        _, diag = pipeline.simulation(name)
        assert (diag.solves, diag.max_picard_sweeps) == (solves, sweeps)


def test_nonlinear_presets_take_few_sweeps_per_step(pipeline):
    """The quadratic start leaves a nonlinear preset's 0.5 s BDF2 steps
    about 1.6 sweeps each: at most 3.5 solves per simulated second."""
    for name in ("s2", "s3", "s2-kf01", "s3-kl60"):
        _, diag = pipeline.simulation(name)
        assert diag.solves <= 3.5 * get_scenario(name).meas_t_end, name


def test_start_extrapolation_follows_the_inlet_flux(monkeypatch):
    """A step's first sweep starts from c^n right after the inlet flux
    switched (the first step and the pulse's end), from the linear
    2c^n - c^(n-1) one step later, and from then on from the quadratic
    3c^n - 3c^(n-1) + c^(n-2), except at nodes where c^n <= 0, which keep
    the linear start."""
    cfg = make_tiny(sorption=TINY_FREUNDLICH, sim_length=64.0)
    events = []  # each isotherm factor's argument, and None for each solve
    factor, banded = transport._freundlich_factor, transport.solve_banded

    def recording_factor(c, model, m, q):
        events.append(c.copy())
        factor(c, model, m, q)

    def recording_solve(bound):
        events.append(None)
        return banded(bound)

    monkeypatch.setattr(transport, "_freundlich_factor", recording_factor)
    monkeypatch.setattr(transport, "solve_banded", recording_solve)
    simulate(cfg)
    # A step factors its start, then each sweep solves and factors its
    # result, so a start is a factor call not right after a solve, and the
    # call before it factored the last step's c.  The history is 0 past the
    # window of the step it starts.
    n_nodes = int(round(cfg.sim_length / cfg.sim_dx)) + 1
    states, starts = [np.zeros(n_nodes)], []
    for k, event in enumerate(events):
        if event is not None and (k == 0 or events[k - 1] is not None):
            if k:
                size = min(events[k - 1].size, event.size)
                states.append(np.zeros(n_nodes))
                states[-1][:size] = events[k - 1][:size]
            starts.append(event)
    switch = int(round(cfg.t_pulse / cfg.sim_dt))  # the first step without inflow
    assert len(starts) == round(cfg.meas_t_end / cfg.sim_dt) > switch + 2
    guarded = 0
    for step, start in enumerate(starts):
        c, c_prev, c_prev2 = (states[max(step - back, 0)][:start.size] for back in range(3))
        linear = (c - c_prev) + c
        quadratic = linear + ((c - c_prev) - (c_prev - c_prev2))
        under_flux = step if step < switch else step - switch
        if under_flux == 0:
            expected = c
        elif under_flux == 1:
            expected = linear
        else:
            expected = np.where(c > 0, quadratic, linear)
            guarded += np.count_nonzero((c <= 0) & (quadratic != linear))
        assert np.array_equal(_bits(start), _bits(expected)), step
    assert guarded


def gtsv(lower, diag, upper, rhs):
    """``solve_banded`` on a binding of ``lower``, ``upper`` and copies of
    ``diag`` and ``rhs``."""
    return transport.solve_banded(
        transport._GtsvBinding(lower, diag.copy(), upper, rhs.copy()))


def gttrs(lower, diag, upper, rhs):
    """``solve_banded`` on a gttrs binding of the matrix and a copy of
    ``rhs``."""
    return transport.solve_banded(
        transport._GttrsBinding(lower, diag, upper, rhs.copy()))


def test_solve_banded_rejects_singular_system():
    x = gtsv(np.array([1.0]), np.array([2.0, 4.0]), np.array([1.0]),
             np.array([3.0, 6.0]))
    np.testing.assert_allclose(x, [6.0 / 7.0, 9.0 / 7.0], rtol=1e-15)
    with pytest.raises(SolverError, match="gtsv"):
        gtsv(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(SolverError, match="gtsv"):
        # Rows 1 and 2 are equal: singular although no pivot starts at 0.
        gtsv(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]),
             np.array([1.0, 0.0]), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 400),
       peclet=st.floats(0.0, 2.0), dispersion=st.floats(1e-4, 10.0),
       storage=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
@example(n=3, peclet=2.0, dispersion=10.0, storage=1e-3, seed=0)
def test_factored_solve_like_gtsv(n, peclet, dispersion, storage, seed):
    """At grid Peclet numbers <= 2 a solve with the factors of the linear
    matrix, assembled as simulate does, equals gtsv bit for bit."""
    a_face = dispersion
    b_face = 0.5 * peclet * dispersion  # b / a is half the grid Peclet number
    vol_over_dt = np.full(n, storage)
    vol_over_dt[0] = vol_over_dt[-1] = 0.5 * storage
    lower = np.full(n - 1, -(a_face + b_face))
    upper = np.full(n - 1, -(a_face - b_face))
    diag = np.full(n, 2.0 * a_face)
    diag[0] = diag[-1] = a_face + b_face
    diag += vol_over_dt
    rhs = np.random.default_rng(seed).normal(size=n)
    x = gttrs(lower, diag, upper, rhs)
    ref = gtsv(lower, diag, upper, rhs)
    assert np.array_equal(x.view(np.uint64), ref.view(np.uint64))


def test_gttrs_binding_rejects_singular_matrices():
    with pytest.raises(SolverError, match="gttrf info"):
        transport._GttrsBinding(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


# ------------------------------------------------ LAPACK binding vs scipy

def _random_system(n, kind, seed):
    """lower, diag, upper and rhs of a random tridiagonal system: standard
    normal; of integers in [-2, 2], with ties between pivots and, mostly,
    exactly singular; diagonally dominant; or singular, a dominant system
    with one row of zeros."""
    rng = np.random.default_rng(seed)
    sizes = (n - 1, n, n - 1)
    if kind == "integer":
        lower, diag, upper = (rng.integers(-2, 3, k).astype(float) for k in sizes)
    else:
        lower, diag, upper = (rng.normal(size=k) for k in sizes)
    if kind in ("dominant", "singular"):
        diag = (np.abs(diag) + 1.0 + np.abs(np.append(lower, 0.0))
                + np.abs(np.append(0.0, upper)))
    if kind == "singular":
        row = rng.integers(n)
        diag[row] = 0.0
        lower[row - 1:row] = 0.0
        upper[row:row + 1] = 0.0
    return lower, diag, upper, rng.normal(size=n)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 400),
       kind=st.sampled_from(["normal", "integer", "dominant", "singular"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, kind="singular", seed=0)
@example(n=2, kind="singular", seed=0)
@example(n=2, kind="normal", seed=0)
def test_lapack_binding_equals_scipy(n, kind, seed):
    """A gttrs binding's factors, and solve_banded on a gtsv and on a gttrs
    binding, equal scipy's dgttrf, dgtsv and dgttrs bit for bit, and
    building or solving raises SolverError on exactly the systems where
    scipy reports info > 0.  Neither changes the off-diagonals, nor the
    gttrs binding the diagonal."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    lower, diag, upper, rhs = _random_system(n, kind, seed)
    inputs = [a.copy() for a in (lower, diag, upper)]

    # scipy's wrappers reject empty off-diagonals and du2: at n = 1 its dgtsv
    # is given unread ones of length 1, and below n = 3 its dgttrf cannot be
    # called, so there the factored solve is held to gtsv's result, which
    # takes the same steps.
    off = (lambda a: a) if n > 1 else (lambda a: np.zeros(1))
    *_, x_ref, info = lapack.dgtsv(off(lower), diag, off(upper), rhs)
    if info > 0:
        with pytest.raises(SolverError, match="gtsv info"):
            gtsv(lower, diag, upper, rhs)
    else:
        assert info == 0
        x = gtsv(lower, diag, upper, rhs)
        assert np.array_equal(_bits(x), _bits(x_ref))
    if n < 3:
        if info > 0:
            with pytest.raises(SolverError, match="gttrf info"):
                gttrs(lower, diag, upper, rhs)
        else:
            x = gttrs(lower, diag, upper, rhs)
            assert np.array_equal(_bits(x), _bits(x_ref))
    else:
        *factors_ref, info = lapack.dgttrf(lower, diag, upper)
        if info > 0:
            with pytest.raises(SolverError, match="gttrf info"):
                gttrs(lower, diag, upper, rhs)
        else:
            assert info == 0
            bound = transport._GttrsBinding(lower, diag, upper, rhs.copy())
            dl, d, du, du2, ipiv = factors_ref
            for ours, ref in ((bound.dl, dl), (bound.d, d), (bound.du, du),
                              (bound.du2, du2)):
                assert np.array_equal(_bits(ours), _bits(ref))
            assert np.array_equal(bound.ipiv, ipiv)
            x_ref, info = lapack.dgttrs(dl, d, du, du2, ipiv, rhs)
            assert info == 0
            x = transport.solve_banded(bound)
            assert np.array_equal(_bits(x), _bits(x_ref))
    for before, after in zip(inputs, (lower, diag, upper)):
        assert np.array_equal(_bits(before), _bits(after))


def _system(n=4):
    return np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0), np.ones(n)


def _read_only(array):
    array.flags.writeable = False
    return array


_LOW, _DIAG, _UP, _RHS = _system()

_MALFORMED_CALLS = {
    "gtsv-lower-short": lambda: transport._GtsvBinding(
        np.ones(2), _DIAG.copy(), _UP, _RHS.copy()),
    "gtsv-upper-long": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), np.ones(4), _RHS.copy()),
    "gtsv-rhs-short": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), _UP, np.ones(3)),
    "gtsv-rhs-matrix": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), _UP, np.ones((4, 1))),
    "gtsv-diag-strided": lambda: transport._GtsvBinding(
        _LOW, np.full(8, 4.0)[::2], _UP, _RHS.copy()),
    "gtsv-rhs-float32": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), _UP, np.ones(4, dtype=np.float32)),
    "gtsv-lower-int": lambda: transport._GtsvBinding(
        np.ones(3, dtype=np.int64), _DIAG.copy(), _UP, _RHS.copy()),
    "gtsv-upper-list": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), [-1.0, -1.0, -1.0], _RHS.copy()),
    "gtsv-diag-read-only": lambda: transport._GtsvBinding(
        _LOW, _read_only(_DIAG.copy()), _UP, _RHS.copy()),
    "gtsv-rhs-read-only": lambda: transport._GtsvBinding(
        _LOW, _DIAG.copy(), _UP, _read_only(_RHS.copy())),
    "gtsv-empty": lambda: transport._GtsvBinding(
        np.ones(0), np.ones(0), np.ones(0), np.ones(0)),
    "gtsv-raw-array": lambda: transport.solve_banded(_RHS.copy()),
    "gtsv-raw-arrays": lambda: transport.solve_banded(
        (_LOW, _DIAG.copy(), _UP, _RHS.copy())),
    "gttrf-lower-short": lambda: transport._GttrsBinding(
        np.ones(2), _DIAG, _UP, _RHS.copy()),
    "gttrf-diag-float32": lambda: transport._GttrsBinding(
        _LOW, _DIAG.astype(np.float32), _UP, _RHS.copy()),
    "gttrf-upper-strided": lambda: transport._GttrsBinding(
        _LOW, _DIAG, np.ones(6)[::2], _RHS.copy()),
    "gttrf-empty": lambda: transport._GttrsBinding(
        np.ones(0), np.ones(0), np.ones(0), np.ones(0)),
    "gttrs-rhs-long": lambda: transport._GttrsBinding(_LOW, _DIAG, _UP, np.ones(5)),
    "gttrs-rhs-strided": lambda: transport._GttrsBinding(
        _LOW, _DIAG, _UP, np.ones(8)[::2]),
    "gttrs-rhs-read-only": lambda: transport._GttrsBinding(
        _LOW, _DIAG, _UP, _read_only(_RHS.copy())),
}


def _printed(capfd) -> str:
    """What reached stdout and stderr; OpenBLAS prints its complaints to
    stdout through C stdio, so that is flushed first."""
    ctypes.CDLL(None).fflush(None)
    out, err = capfd.readouterr()
    return out + err


@pytest.mark.parametrize("call", _MALFORMED_CALLS.values(), ids=_MALFORMED_CALLS.keys())
def test_malformed_arrays_never_reach_lapack(capfd, call):
    """A raw LAPACK call checks no array, so a binding's constructor, and a
    solve given anything but a binding, raise ValidationError first;
    LAPACK's own "** On entry to" complaint about an argument is never
    printed."""
    with pytest.raises(ValidationError):
        call()
    assert "** On entry to" not in _printed(capfd)


def test_lapack_argument_complaints_are_captured(capfd):
    """The control for the test above: an illegal argument that does reach
    LAPACK (n = -1) prints its complaint where capfd captures it."""
    minus_one, one, info = ctypes.c_int64(-1), ctypes.c_int64(1), ctypes.c_int64(0)
    buffer = np.zeros(1)
    address = ctypes.c_void_p(buffer.ctypes.data)
    transport._gtsv(ctypes.byref(minus_one), ctypes.byref(one), address, address,
                    address, address, ctypes.byref(one), ctypes.byref(info))
    assert info.value == -1
    assert "** On entry to DGTSV" in _printed(capfd)


def test_missing_lapack_symbols_raise_one_import_error():
    """A numpy whose LAPACK lacks the scipy-openblas64 symbols makes the
    import fail with one line that names that LAPACK."""
    with pytest.raises(ImportError) as raised:
        transport._bind_lapack(object())
    message = str(raised.value)
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    assert "\n" not in message
    assert "scipy_dgtsv_64_" in message and lapack["name"] in message


@pytest.mark.parametrize("sorption", [SorptionModel.none(), TINY_FREUNDLICH])
def test_non_finite_solution_raises_at_once(monkeypatch, sorption):
    """The linear model solves with its factors, the others with gtsv; both
    through ``solve_banded``."""
    calls = []

    def nan_solve(bound):
        calls.append(1)
        return np.full_like(bound.rhs, np.nan)

    monkeypatch.setattr(transport, "solve_banded", nan_solve)
    with pytest.raises(SolverError, match="non-finite concentration at t = 1.000 s"):
        simulate(make_tiny(sorption=sorption))
    assert len(calls) == 1

