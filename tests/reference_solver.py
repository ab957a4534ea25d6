"""Plain reference implementations of ``transport.simulate``, kept as the
oracles for the solver's fast path.

``plain_simulate`` is the fast path's own scheme, written out plainly: every
step solves the whole column, so no active window and no work buffers, with
each sweep's diagonal assembled afresh and the system solved by scipy's
``dgtsv``, as ``scipy.linalg.solve_banded`` solves it.  It takes the same
extrapolated starts, the same isotherm form and the same order of
operations, so the fast path matches it up to what the window's tail leaves
out.

``reference_simulate`` is the solver's earlier loop: each step starts from
the last step's concentration, every sweep evaluates the exact isotherm
value and slope afresh, and the linear model runs a confirming second sweep
per step.  Its isotherm formulas are repeated here rather than imported.
Run with a tight Picard tolerance it is the accuracy oracle; the linear
model, whose scheme is unchanged, still matches it bit for bit.

Both loops step as ``config.sim_order`` says.  With the mass
M = theta C + rho_b C*(C), a backward-Euler step solves
vdt (M^(n+1) - M^n) = fluxes, and a BDF2 step
vdt (3 M^(n+1) - 4 M^n + M^(n-1)) / 2 = fluxes, with vdt = vol / dt.  The
first step, and the first one after the inlet flux switches, is backward
Euler; at ``sim_order`` 2 every other step is BDF2.

Backward Euler conserves M: its steps telescope to the sum of the fluxes.
BDF2's steps telescope instead to (3 M^(n+1) - M^n) / 2, the quantity
BDF2 conserves.  The mass audit still sums M, and on the presets it still
closes to rounding: each flux switch restarts with a backward-Euler step,
and while no mass reaches the outlet, the fluxes of every step since the
restart sum to the injected flux times dt.  If M^n - M^(n-1) equals that
sum for one step, then 3 M^(n+1) = 4 M^n - M^(n-1) + 2 flux dt makes
M^(n+1) - M^n equal it for the next, so stored mass rises by exactly the
injected flux dt a step.  Outflow breaks that, and the audit of M then
closes only to the truncation error.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv

from transportid.errors import SolverError, ValidationError
from transportid.transport import (_PICARD_MAX_SWEEPS, _PICARD_TOL,
                                   _SLOPE_EVAL_FLOOR, Field, ScenarioConfig,
                                   SimDiagnostics, SorptionModel,
                                   _measurement_shape)


def _value(arr, model: SorptionModel):
    if model.kind == "none":
        return np.zeros_like(arr)
    if model.kind == "freundlich":
        return model.k_f * np.power(arr, model.a)
    return model.k_l * model.s_bar * arr / (1.0 + model.k_l * arr)


def _slope(arr, model: SorptionModel):
    if model.kind == "none":
        return np.zeros_like(arr)
    if model.kind == "freundlich":
        return model.a * model.k_f * np.power(arr, model.a - 1.0)
    return model.k_l * model.s_bar / (1.0 + model.k_l * arr) ** 2


def isotherm_value(c, model: SorptionModel):
    arr = np.asarray(c, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("isotherm_value requires C >= 0")
    out = _value(arr, model)
    return float(out) if np.isscalar(c) else out


def isotherm_slope(c, model: SorptionModel):
    arr = np.asarray(c, dtype=float)
    if model.kind == "freundlich" and np.any(arr <= 0.0):
        raise ValueError("Freundlich slope requires C > 0 (singular at C = 0)")
    if model.kind == "langmuir" and np.any(arr < 0.0):
        raise ValueError("isotherm_slope requires C >= 0")
    out = _slope(arr, model)
    return float(out) if np.isscalar(c) else out


class _Column:
    """The grid, the constant band entries, the measurement grid and the
    mass audit of one simulation, shared by both loops."""

    def __init__(self, config: ScenarioConfig):
        if config.d_l <= 0.0:
            raise ValidationError("central differencing requires D_L > 0")
        peclet = config.v_x * config.sim_dx / config.d_l
        if peclet > 2.0:
            raise ValidationError(
                f"grid Peclet number {peclet:.3f} exceeds 2; refine sim_dx or raise dispersivity"
            )
        self.config = config
        self.n_nodes = int(round(config.sim_length / config.sim_dx)) + 1
        self.n_steps = int(round(config.meas_t_end / config.sim_dt))
        self.audit_every = int(round(config.store_dt / config.sim_dt))
        n_audit = self.n_steps // self.audit_every + 1
        self.x_every = int(round(config.meas_dx / config.sim_dx))
        self.x_stop = (config.meas_x_count - 1) * self.x_every + 1
        self.t_first = int(round(config.meas_t_start / config.sim_dt))
        self.t_every = int(round(config.meas_dt / config.sim_dt))

        dx = config.sim_dx
        a_face = config.theta * config.d_l / dx  # dispersive conductance per face
        b_face = 0.5 * config.q                  # advective (central) face weight
        self.f0 = config.q * config.c0

        # Control volumes: half cells at both boundaries.
        self.vol = np.full(self.n_nodes, dx)
        self.vol[0] = self.vol[-1] = 0.5 * dx
        self.vol_over_dt = self.vol / config.sim_dt

        # Off-diagonals are constant; the diagonal changes with the sorption slope.
        self.lower = np.full(self.n_nodes - 1, -(a_face + b_face))
        self.upper = np.full(self.n_nodes - 1, -(a_face - b_face))
        self.diag_flux = np.full(self.n_nodes, 2.0 * a_face)
        self.diag_flux[0] = a_face + b_face
        self.diag_flux[-1] = a_face + b_face

        self.measured = np.zeros(_measurement_shape(config))
        self.injected = 0.0
        self.outflowed = 0.0
        self.max_sweeps = 0
        self.solves = 0
        self.audit = {name: np.zeros(n_audit) for name in
                      ("times", "aqueous", "sorbed", "injected", "outflowed")}

    def flux_in(self, step: int) -> float:
        t_next = (step + 1) * self.config.sim_dt
        return self.f0 if t_next <= self.config.t_pulse + 1e-9 * self.config.sim_dt else 0.0

    def bdf2(self, step: int) -> bool:
        """Whether the step is BDF2: at sim_order 2, unless it is the first
        step or the first one after the inlet flux switched."""
        return (self.config.sim_order == 2 and step > 0
                and self.flux_in(step) == self.flux_in(step - 1))

    def solve(self, diag, rhs):
        self.solves += 1
        *_, x, info = dgtsv(self.lower, diag, self.upper, rhs)
        if info != 0:
            raise SolverError(f"singular tridiagonal system (dgtsv info = {info})")
        return x

    def end_step(self, step: int, c, sorbed_mass, sweeps: int, flux_in: float) -> None:
        """Account for the step that ended with c; ``sorbed_mass()`` gives
        the sorbed mass, read only when the audit is due."""
        dt = self.config.sim_dt
        self.max_sweeps = max(self.max_sweeps, sweeps)
        self.injected += flux_in * dt
        self.outflowed += self.config.q * c[-1] * dt
        self.record(step + 1, c, sorbed_mass)

    def record(self, steps_done: int, c, sorbed_mass) -> None:
        if steps_done % self.audit_every == 0:
            slot = steps_done // self.audit_every
            self.audit["times"][slot] = steps_done * self.config.sim_dt
            self.audit["aqueous"][slot] = self.config.theta * float(self.vol @ c)
            self.audit["sorbed"][slot] = sorbed_mass()
            self.audit["injected"][slot] = self.injected
            self.audit["outflowed"][slot] = self.outflowed
        if steps_done >= self.t_first and (steps_done - self.t_first) % self.t_every == 0:
            col = (steps_done - self.t_first) // self.t_every
            np.maximum(c[:self.x_stop:self.x_every], 0.0, out=self.measured[:, col])

    def outputs(self):
        config = self.config
        field = Field(self.measured, x0=0.0, dx=config.meas_dx, t0=config.meas_t_start,
                      dt=config.meas_dt)
        diag = SimDiagnostics(
            times=self.audit["times"],
            aqueous_mass=self.audit["aqueous"],
            sorbed_mass=self.audit["sorbed"],
            injected_mass=self.audit["injected"],
            outflowed_mass=self.audit["outflowed"],
            max_picard_sweeps=self.max_sweeps,
            solves=self.solves,
        )
        return field, diag


def _picard_failure(step: int, config: ScenarioConfig, delta: float) -> SolverError:
    return SolverError(
        f"Picard iteration failed at t = {(step + 1) * config.sim_dt:.3f} s "
        f"(last sweep change {delta:.3e} after {_PICARD_MAX_SWEEPS} sweeps)"
    )


def plain_simulate(config: ScenarioConfig):
    """(field, diagnostics) as ``simulate(config)`` computes them, on the
    whole column and the slow way.

    With K = K_f, or K_l * S_bar, the solver's isotherm is C* = K * m * q at
    m = max(C, 0), with q = max(C, floor)**(a - 1) (Freundlich) or
    1 / (1 + K_l * m) (Langmuir), and its slope is K * q * lam, with lam = a
    or q.  A step's first sweep linearizes at c^n right after the inlet
    flux switched, at 2 c^n - c^(n-1) after one step under the step's
    flux, and after two or more at 3 c^n - 3 c^(n-1) + c^(n-2) where
    c^n > 0 and at 2 c^n - c^(n-1) elsewhere.
    """
    col = _Column(config)
    model = config.sorption
    theta, rho_b = config.theta, config.rho_b
    langmuir = model.kind == "langmuir"
    rho_k = rho_b * (model.k_l * model.s_bar if langmuir else model.k_f)
    vdt = col.vol_over_dt

    def factor(c):
        m = np.maximum(c, 0.0)
        if langmuir:
            return m, 1.0 / (m * model.k_l + 1.0)
        return m, np.power(np.maximum(c, _SLOPE_EVAL_FLOOR), model.a - 1.0)

    c = np.zeros(col.n_nodes)
    c_prev = c_prev2 = c
    sorbed_c = sorbed_prev = np.zeros(col.n_nodes)  # rho_b * C*(c) and C*(c_prev)
    col.record(0, c, lambda: 0.0)
    fluxes = [None, None]  # the inlet fluxes of the last two steps
    for step in range(col.n_steps):
        flux_in = col.flux_in(step)
        # The storage weight of the step's new mass, and its old masses.
        if col.bdf2(step):
            weight = 1.5 * vdt
            base = (2.0 * (c * theta + sorbed_c) - 0.5 * (c_prev * theta + sorbed_prev)) * vdt
        else:
            weight = vdt
            base = (c * theta + sorbed_c) * vdt
        w = weight * rho_k
        diag_const = weight * theta + col.diag_flux
        if fluxes[-1] != flux_in:
            c_k = c
        else:
            linear = (c - c_prev) + c
            c_k = linear
            if fluxes[-2] == flux_in:
                quadratic = linear + ((c - c_prev) - (c_prev - c_prev2))
                c_k = np.where(c > 0, quadratic, linear)
        fluxes = [fluxes[-1], flux_in]
        m, q = factor(c_k)
        for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
            u = w * q
            lam = q if langmuir else model.a
            rhs = base + (c_k * lam - m) * u
            rhs[0] += flux_in
            c_new = col.solve(u * lam + diag_const, rhs)
            delta = float(np.max(np.abs(c_new - c_k)))
            c_k = c_new
            m, q = factor(c_k)
            if delta <= _PICARD_TOL:
                break
        else:
            raise _picard_failure(step, config, delta)
        c_prev2, c_prev, c = c_prev, c, c_k
        sorbed_prev, sorbed_c = sorbed_c, q * m * rho_k
        col.end_step(step, c, lambda: float(col.vol @ sorbed_c), sweep, flux_in)
    return col.outputs()


def reference_simulate(config: ScenarioConfig, tol: float = _PICARD_TOL):
    """(field, diagnostics) of the solver's earlier loop, with the exact
    isotherm, Picard stopping once a sweep moves C by at most ``tol``."""
    col = _Column(config)
    model = config.sorption
    theta, rho_b = config.theta, config.rho_b
    vol_over_dt = col.vol_over_dt
    # The Freundlich slope, singular at C = 0, is taken at a floor.
    floor = _SLOPE_EVAL_FLOOR if model.kind == "freundlich" else 0.0

    c = c_older = np.zeros(col.n_nodes)
    col.record(0, c, lambda: 0.0)
    for step in range(col.n_steps):
        flux_in = col.flux_in(step)
        c_old = c
        cs_old = _value(np.maximum(c_old, 0.0), model)
        bdf2 = col.bdf2(step)
        if bdf2:
            weight = 1.5 * vol_over_dt
            cs_older = _value(np.maximum(c_older, 0.0), model)
            mass = (2.0 * (theta * c_old + rho_b * cs_old)
                    - 0.5 * (theta * c_older + rho_b * cs_older))
        else:
            weight = vol_over_dt
        c_k = c_old.copy()
        for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
            s = _slope(np.maximum(c_k, floor), model)
            cs_k = _value(np.maximum(c_k, 0.0), model)
            storage = weight * (theta + rho_b * s)
            if bdf2:
                rhs = vol_over_dt * (mass + 1.5 * rho_b * (s * c_k - cs_k))
            else:
                rhs = vol_over_dt * (theta * c_old + rho_b * (cs_old - cs_k + s * c_k))
            rhs[0] += flux_in
            c_new = col.solve(storage + col.diag_flux, rhs)
            delta = float(np.max(np.abs(c_new - c_k)))
            c_k = c_new
            if delta <= tol:
                break
        else:
            raise _picard_failure(step, config, delta)
        c_older, c = c, c_k
        col.end_step(step, c, lambda: rho_b * float(
            col.vol @ _value(np.maximum(c, 0.0), model)), sweep, flux_in)
    return col.outputs()
