"""Plain reference implementation of ``transport.simulate``, kept as the
oracle for the solver's fast path.

This is the straightforward time loop: every Picard sweep evaluates the
isotherm value and slope afresh, assembles a 3-row band matrix and solves it
with ``scipy.linalg.solve_banded`` (which checks its inputs for finiteness),
and the linear model runs a confirming second sweep per step.  The isotherm
formulas are repeated here rather than imported, so the oracle shares no
arithmetic with the code it checks.  Its only addition is the solve counter.
"""

import numpy as np
from scipy.linalg import solve_banded

from transportid.errors import SolverError, ValidationError
from transportid.transport import (_PICARD_MAX_SWEEPS, _PICARD_TOL,
                                   _SLOPE_EVAL_FLOOR, Field, ScenarioConfig,
                                   SimDiagnostics, SorptionModel,
                                   _measurement_shape)


def isotherm_value(c, model: SorptionModel):
    arr = np.asarray(c, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("isotherm_value requires C >= 0")
    if model.kind == "none":
        out = np.zeros_like(arr)
    elif model.kind == "freundlich":
        out = model.k_f * np.power(arr, model.a)
    else:
        out = model.k_l * model.s_bar * arr / (1.0 + model.k_l * arr)
    return float(out) if np.isscalar(c) else out


def isotherm_slope(c, model: SorptionModel):
    arr = np.asarray(c, dtype=float)
    if model.kind == "none":
        out = np.zeros_like(arr)
    elif model.kind == "freundlich":
        if np.any(arr <= 0.0):
            raise ValueError("Freundlich slope requires C > 0 (singular at C = 0)")
        out = model.a * model.k_f * np.power(arr, model.a - 1.0)
    else:
        if np.any(arr < 0.0):
            raise ValueError("isotherm_slope requires C >= 0")
        out = model.k_l * model.s_bar / (1.0 + model.k_l * arr) ** 2
    return float(out) if np.isscalar(c) else out


def _slope_for_solver(c: np.ndarray, model: SorptionModel) -> np.ndarray:
    if model.kind == "none":
        return np.zeros_like(c)
    if model.kind == "freundlich":
        return isotherm_slope(np.maximum(c, _SLOPE_EVAL_FLOOR), model)
    return isotherm_slope(np.maximum(c, 0.0), model)


def reference_simulate(config: ScenarioConfig):
    """(field, diagnostics) as ``simulate(config)`` computes them, the slow way."""
    if config.d_l <= 0.0:
        raise ValidationError("central differencing requires D_L > 0")
    peclet = config.v_x * config.sim_dx / config.d_l
    if peclet > 2.0:
        raise ValidationError(
            f"grid Peclet number {peclet:.3f} exceeds 2; refine sim_dx or raise dispersivity"
        )

    n_nodes = int(round(config.sim_length / config.sim_dx)) + 1
    n_steps = int(round(config.meas_t_end / config.sim_dt))
    audit_every = int(round(config.store_dt / config.sim_dt))
    n_audit = n_steps // audit_every + 1
    x_every = int(round(config.meas_dx / config.sim_dx))
    x_stop = (config.meas_x_count - 1) * x_every + 1
    t_first = int(round(config.meas_t_start / config.sim_dt))
    t_every = int(round(config.meas_dt / config.sim_dt))

    dx = config.sim_dx
    dt = config.sim_dt
    theta = config.theta
    rho_b = config.rho_b
    model = config.sorption
    a_face = theta * config.d_l / dx  # dispersive conductance per face
    b_face = 0.5 * config.q          # advective (central) face weight
    f0 = config.q * config.c0

    # Control volumes: half cells at both boundaries.
    vol = np.full(n_nodes, dx)
    vol[0] = vol[-1] = 0.5 * dx
    vol_over_dt = vol / dt

    c = np.zeros(n_nodes)
    measured = np.zeros(_measurement_shape(config))

    injected = 0.0
    outflowed = 0.0
    max_sweeps = 0
    solves = 0

    audit_times = np.zeros(n_audit)
    aqueous = np.zeros(n_audit)
    sorbed = np.zeros(n_audit)
    injected_track = np.zeros(n_audit)
    outflowed_track = np.zeros(n_audit)

    def record(steps_done: int) -> None:
        if steps_done % audit_every == 0:
            slot = steps_done // audit_every
            audit_times[slot] = steps_done * dt
            aqueous[slot] = theta * float(vol @ c)
            sorbed[slot] = rho_b * float(vol @ isotherm_value(np.maximum(c, 0.0), model))
            injected_track[slot] = injected
            outflowed_track[slot] = outflowed
        if steps_done >= t_first and (steps_done - t_first) % t_every == 0:
            col = (steps_done - t_first) // t_every
            np.maximum(c[:x_stop:x_every], 0.0, out=measured[:, col])

    record(0)

    # Off-diagonals are constant; the diagonal changes with the sorption slope.
    lower = np.full(n_nodes, -(a_face + b_face))
    upper = np.full(n_nodes, -(a_face - b_face))
    diag_flux = np.full(n_nodes, 2.0 * a_face)
    diag_flux[0] = a_face + b_face
    diag_flux[-1] = a_face + b_face
    ab = np.zeros((3, n_nodes))
    ab[0, 1:] = upper[:-1]
    ab[2, :-1] = lower[1:]

    for step in range(n_steps):
        t_next = (step + 1) * dt
        flux_in = f0 if t_next <= config.t_pulse + 1e-9 * dt else 0.0

        c_old = c
        cs_old = isotherm_value(np.maximum(c_old, 0.0), model)
        c_k = c_old.copy()
        converged = False
        for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
            s = _slope_for_solver(c_k, model)
            cs_k = isotherm_value(np.maximum(c_k, 0.0), model)
            storage = vol_over_dt * (theta + rho_b * s)
            rhs = vol_over_dt * (theta * c_old + rho_b * (cs_old - cs_k + s * c_k))
            rhs[0] += flux_in
            ab[1, :] = storage + diag_flux
            c_new = solve_banded((1, 1), ab, rhs)
            solves += 1
            delta = float(np.max(np.abs(c_new - c_k)))
            c_k = c_new
            if delta <= _PICARD_TOL:
                converged = True
                break
        if not converged:
            raise SolverError(
                f"Picard iteration failed at t = {t_next:.3f} s "
                f"(last sweep change {delta:.3e} after {_PICARD_MAX_SWEEPS} sweeps)"
            )
        max_sweeps = max(max_sweeps, sweep)
        c = c_k
        injected += flux_in * dt
        outflowed += config.q * c[-1] * dt
        record(step + 1)

    field = Field(measured, x0=0.0, dx=config.meas_dx, t0=config.meas_t_start,
                  dt=config.meas_dt)
    diag = SimDiagnostics(
        times=audit_times,
        aqueous_mass=aqueous,
        sorbed_mass=sorbed,
        injected_mass=injected_track,
        outflowed_mass=outflowed_track,
        max_picard_sweeps=max_sweeps,
        solves=solves,
    )
    return field, diag
