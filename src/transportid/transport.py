"""1-D advection-dispersion transport with equilibrium sorption.

Solves, on a uniform grid, the retarded transport equation

    R(C) dC/dt = -v_x dC/dx + D_L d2C/dx2,
    R(C) = 1 + (rho_b / theta) dC*/dC,

where C* is the sorbed concentration given by a Freundlich or Langmuir
isotherm and D_L = alpha_l * v_x.  The inlet carries a prescribed advective
mass flux that switches off after a finite pulse; the outlet is a
zero-gradient boundary placed far from the plume.

The discretization is a vertex-centred finite-volume scheme with central
second-order face fluxes for both advection and dispersion, marched with
backward Euler.  The sorption slope is handled by Picard iteration; every
sweep solves one tridiagonal system with LAPACK ``gtsv`` on work buffers.
Without sorption the system does not depend on C: its ``gttrs`` binding
factors it once with ``gttrf``, and each step is a single ``gttrs`` solve on
the whole column.
The three routines are called through ``ctypes`` from the ILP64 OpenBLAS
(scipy-openblas64) that numpy's wheels bundle and ``numpy.linalg`` loads;
a numpy whose LAPACK lacks them makes ``import transportid`` raise
ImportError.  Every solve, gtsv or gttrs, goes through ``solve_banded``,
whose one argument is a binding that checked its arrays and built their
ctypes arguments; ``simulate`` binds its work buffers once per window of
the grid, not once per solve.
The scheme conserves mass discretely, which the simulator can track through
a running flux audit.

With sorption each step solves only the active window [0, hi), which ends
_GUARD nodes past the last node with |C| > _TAIL * c0.  The nodes from hi
on are held at exactly 0, so the window's last row is an interior row
against a fixed zero.  Steps run on the whole column, scanning it after
each step, until the plume has settled: its last node above the tail moved
by at most _GUARD // 4 nodes, in a step that took more than one Picard
sweep.  After that only the guard band is read: the window
grows to keep _GUARD negligible nodes past the plume, and a step whose
plume reached the far half of the band is solved again on the full grid,
which starts the settling scan anew.  Past hi a full-grid solve holds only
values below the tail bound (ahead of a Freundlich front with a < 1 nearly
all are exactly 0 or negative, which the record clamps to 0), so on every
preset and in the randomized tests against a full-grid reference the
recorded values equal a full-grid solve's bit for bit; the outflow misses
outlet values of at most _TAIL * c0 a step.

The solver records the concentration only on the coarser monitoring grid;
the measurement sampler masks entries at or below the detection floor.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SolverError, ValidationError, check_numbers, is_real

# Concentration floor used only when evaluating the Freundlich slope, whose
# C**(a-1) factor is singular at zero.  Far below any detection floor.
_SLOPE_EVAL_FLOOR = 1e-12

_PICARD_TOL = 1e-10
_PICARD_MAX_SWEEPS = 50

# Active window: each step solves only the nodes [0, hi), which end _GUARD
# nodes past the last node with |C| > _TAIL * c0; the rest stay exactly 0.
_TAIL = 1e-100
_GUARD = 32

# Largest inlet concentration accepted, in mg/l: 1 kg/l, above any solute
# concentration and far below where the library's squared terms overflow.
_C0_MAX = 1e6


@dataclass(frozen=True)
class SorptionModel:
    """Equilibrium sorption isotherm: none, Freundlich or Langmuir.

    Freundlich: C* = K_f * C**a with 0 < a <= 1.
    Langmuir:   C* = K_l * S_bar * C / (1 + K_l * C).
    """

    kind: str
    k_f: float = 0.0
    a: float = 1.0
    k_l: float = 0.0
    s_bar: float = 0.0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.kind not in ("none", "freundlich", "langmuir"):
            raise ValidationError(f"unknown sorption kind {self.kind!r}")
        if self.kind == "freundlich":
            if not 0.0 < self.a <= 1.0:
                raise ValidationError(f"Freundlich exponent must be in (0, 1], got {self.a}")
            if self.k_f < 0.0:
                raise ValidationError(f"Freundlich K_f must be >= 0, got {self.k_f}")
        if self.kind == "langmuir":
            if self.k_l < 0.0 or self.s_bar < 0.0:
                raise ValidationError("Langmuir constants must be >= 0")

    @classmethod
    def none(cls) -> "SorptionModel":
        return cls(kind="none")

    @classmethod
    def freundlich(cls, k_f: float, a: float) -> "SorptionModel":
        return cls(kind="freundlich", k_f=float(k_f), a=float(a))

    @classmethod
    def langmuir(cls, k_l: float, s_bar: float) -> "SorptionModel":
        return cls(kind="langmuir", k_l=float(k_l), s_bar=float(s_bar))


# Unchecked isotherm kernels, C -> C* and C -> dC*/dC, one pair per kind.
# Callers guarantee the domain: C >= 0, and C > 0 for the Freundlich slope.
# Given ``out`` (which may be c) a kernel works in place.  A Langmuir value
# given ``den`` leaves 1 + K_l * C there, and the Langmuir slope reads it.

def _zero(c, model: SorptionModel, out=None, den=None):
    return np.zeros_like(c)


def _freundlich_value(c, model: SorptionModel, out=None, den=None):
    return np.multiply(np.power(c, model.a, out=out), model.k_f, out=out)


def _freundlich_slope(c, model: SorptionModel, out=None, den=None):
    return np.multiply(np.power(c, model.a - 1.0, out=out), model.a * model.k_f, out=out)


def _langmuir_value(c, model: SorptionModel, out=None, den=None):
    den = np.add(np.multiply(c, model.k_l, out=den), 1.0, out=den)
    return np.divide(np.multiply(c, model.k_l * model.s_bar, out=out), den, out=out)


def _langmuir_slope(c, model: SorptionModel, out=None, den=None):
    return np.divide(model.k_l * model.s_bar, np.multiply(den, den, out=out), out=out)


_KERNELS = {
    "none": (_zero, _zero),
    "freundlich": (_freundlich_value, _freundlich_slope),
    "langmuir": (_langmuir_value, _langmuir_slope),
}


def isotherm_value(c, model: SorptionModel):
    """Sorbed concentration C*(C).  Raises on negative concentrations."""
    arr = np.asarray(c, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("isotherm_value requires C >= 0")
    out = _KERNELS[model.kind][0](arr, model)
    return float(out) if np.isscalar(c) else out


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and numerical setup of one transport experiment.

    Lengths are cm, times are s, concentrations are mg/l.  ``t_pulse`` is the
    duration of the inlet source pulse and ``c0`` its feed concentration, at
    most 1e6 mg/l; the inlet mass flux during the pulse is q * c0 with
    q = v_x * theta.

    The monitoring grid is every ``meas_dx / sim_dx``-th solver node at
    every ``meas_dt / sim_dt``-th step from ``meas_t_start``; both ratios
    must be integers.  ``sim_store_dt`` sets the mass-audit cadence.
    """

    v_x: float
    alpha_l: float
    theta: float
    rho_b: float
    t_pulse: float
    c0: float
    sorption: SorptionModel
    sim_length: float = 40.0
    sim_dx: float = 0.04
    sim_dt: float = 0.1
    meas_x_count: int = 101
    meas_dx: float = 0.16
    meas_t_start: float = 300.0
    meas_t_end: float = 1100.0
    meas_dt: float = 0.5
    conc_floor: float = 5e-5
    sim_store_dt: float | None = None

    def __post_init__(self) -> None:
        positive = {
            "v_x": self.v_x,
            "alpha_l": self.alpha_l,
            "theta": self.theta,
            "rho_b": self.rho_b,
            "t_pulse": self.t_pulse,
            "sim_length": self.sim_length,
            "sim_dx": self.sim_dx,
            "sim_dt": self.sim_dt,
            "meas_dx": self.meas_dx,
            "meas_dt": self.meas_dt,
            "sim_store_dt": self.store_dt,
        }
        for name, value in positive.items():
            if not (is_real(value) and np.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.theta > 1.0:
            raise ValidationError(f"porosity theta must be <= 1, got {self.theta}")
        for name, value in (("c0", self.c0), ("conc_floor", self.conc_floor)):
            if not (is_real(value) and np.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        if self.c0 > _C0_MAX:
            raise ValidationError(f"c0 must be at most {_C0_MAX:g} mg/l, got {self.c0}")
        if self.meas_x_count < 2:
            raise ValidationError("meas_x_count must be >= 2")
        if self.sim_dx > self.meas_dx + 1e-12:
            raise ValidationError("sim_dx must not exceed meas_dx")
        meas_extent = (self.meas_x_count - 1) * self.meas_dx
        if self.sim_length < 2.0 * meas_extent - 1e-9:
            raise ValidationError(
                "sim_length must be at least twice the measured extent "
                f"({self.sim_length} < 2 * {meas_extent})"
            )
        if not 0.0 <= self.meas_t_start < self.meas_t_end:
            raise ValidationError("need 0 <= meas_t_start < meas_t_end")
        for label, span, step in (
            ("sim_length/sim_dx", self.sim_length, self.sim_dx),
            ("meas_dx/sim_dx", self.meas_dx, self.sim_dx),
            ("meas_t_end/sim_dt", self.meas_t_end, self.sim_dt),
            ("meas window/meas_dt", self.meas_t_end - self.meas_t_start, self.meas_dt),
            ("store_dt/sim_dt", self.store_dt, self.sim_dt),
            ("meas_dt/store_dt", self.meas_dt, self.store_dt),
            ("meas_t_start/store_dt", self.meas_t_start, self.store_dt),
        ):
            ratio = span / step
            if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or (
                    span > 0.0 and round(ratio) == 0):
                raise ValidationError(f"{label} must be an integer ratio")
        # Last, so that the checks above name their own field; this one
        # catches a fractional meas_x_count and a bool in the fields left.
        check_numbers(self)

    @property
    def d_l(self) -> float:
        """Longitudinal dispersion coefficient D_L = alpha_l * v_x."""
        return self.alpha_l * self.v_x

    @property
    def q(self) -> float:
        """Darcy flux q = v_x * theta."""
        return self.v_x * self.theta

    @property
    def store_dt(self) -> float:
        """Mass-audit cadence of ``simulate``: ``sim_store_dt``, else meas_dt."""
        return self.meas_dt if self.sim_store_dt is None else self.sim_store_dt


@dataclass
class Field:
    """Concentration samples on a uniform space-time grid.

    ``values`` has shape (n_x, n_t); ``mask`` marks valid entries (True).
    """

    values: np.ndarray
    x0: float
    dx: float
    t0: float
    dt: float
    mask: np.ndarray = dc_field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("field values must be a 2-D array (n_x, n_t)")
        if self.mask is None:
            self.mask = np.ones(self.values.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise ValidationError("field mask shape must match values")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValidationError("masked-in field values must be finite")
        if self.dx <= 0.0 or self.dt <= 0.0:
            raise ValidationError("grid spacings must be positive")

    @property
    def n_x(self) -> int:
        return self.values.shape[0]

    @property
    def n_t(self) -> int:
        return self.values.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_x)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_t)


@dataclass
class SimDiagnostics:
    """Mass-audit trail of one simulation, taken every ``store_dt`` from t = 0,
    with the solver's total tridiagonal solves and most Picard sweeps in a step."""

    times: np.ndarray
    aqueous_mass: np.ndarray
    sorbed_mass: np.ndarray
    injected_mass: np.ndarray
    outflowed_mass: np.ndarray
    max_picard_sweeps: int
    solves: int

    def balance_error(self) -> np.ndarray:
        """Relative closure error of stored + sorbed + outflow vs injected."""
        closure = self.aqueous_mass + self.sorbed_mass + self.outflowed_mass
        scale = np.maximum(self.injected_mass, 1e-30)
        return np.abs(closure - self.injected_mass) / scale


# numpy's PyPI wheels bundle the ILP64 OpenBLAS scipy-openblas64, whose
# LAPACK symbols carry a scipy_ prefix and a 64_ suffix and take 64-bit
# integers.  numpy.linalg's extension links it, so a handle on that
# extension resolves them through its dependencies.
_LAPACK_SYMBOLS = ("scipy_dgtsv_64_", "scipy_dgttrf_64_", "scipy_dgttrs_64_")


def _bind_lapack(lib) -> tuple:
    """``lib``'s gtsv, gttrf and gttrs, which return nothing to ctypes.

    Raises ImportError, naming numpy's LAPACK, if ``lib`` lacks one of them.
    """
    try:
        routines = tuple(getattr(lib, name) for name in _LAPACK_SYMBOLS)
    except AttributeError:
        lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
        raise ImportError(
            f"transportid needs LAPACK's {', '.join(_LAPACK_SYMBOLS)} from the "
            "scipy-openblas64 library that numpy >= 2 wheels from PyPI bundle; "
            f"this numpy's LAPACK ({lapack.get('name')} {lapack.get('version')}) "
            "lacks them") from None
    # argtypes stay unset: ctypes would call one converter per argument on
    # every solve, about 1 us a call, or 3 % of s2's simulate.  Every call
    # passes only references made by ``_address`` and ``ctypes.byref``, and
    # gttrs's trailing CHARACTER length (gfortran ABI) as a c_size_t.
    for routine in routines:
        routine.restype = None
    return routines


_gtsv, _gttrf, _gttrs = _bind_lapack(ctypes.CDLL(_umath_linalg.__file__))


def _check_vector(name: str, array, size: int | None = None,
                  written: bool = False) -> None:
    """Raise ValidationError unless ``array`` is a C-contiguous 1-D float64
    array of ``size`` entries, writable if LAPACK writes it.  A raw LAPACK
    call checks none of this, and reads or writes past a short buffer."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.ndim == 1 and array.flags.c_contiguous):
        raise ValidationError(f"{name} must be a C-contiguous 1-D float64 array")
    if size is not None and array.size != size:
        raise ValidationError(f"{name} must hold {size} entries, got {array.size}")
    if written and not array.flags.writeable:
        raise ValidationError(f"{name} must be writable: LAPACK overwrites it")


def _check_matrix(lower, diag, upper, written: bool) -> int:
    """Check a tridiagonal matrix's arrays as ``_check_vector`` does and
    return its order n >= 1."""
    _check_vector("diag", diag, written=written)
    n = diag.size
    if n < 1:
        raise ValidationError("a tridiagonal system needs at least one equation")
    _check_vector("lower", lower, n - 1)
    _check_vector("upper", upper, n - 1)
    return n


def _address(array: np.ndarray):
    """A ctypes reference to a writable array's data, which keeps the array
    alive; an empty array, of which LAPACK reads nothing, gets None (NULL)."""
    return ctypes.byref(ctypes.c_char.from_buffer(array)) if array.size else None


class _GtsvBinding:
    """``gtsv`` bound to a tridiagonal system for ``solve_banded``: its n - 1
    sub- and super-diagonal entries, n diagonal ones and right-hand side are
    checked, and the call with its ctypes arguments is built, once.  gtsv
    overwrites all four arrays, so it works on copies dl and du of ``lower``
    and ``upper``, which ``prepare`` refreshes before each call."""

    __slots__ = ("lower", "upper", "rhs", "dl", "du", "info", "call")
    routine = "gtsv"

    def __init__(self, lower, diag, upper, rhs) -> None:
        n = _check_matrix(lower, diag, upper, written=True)
        _check_vector("rhs", rhs, n, written=True)
        self.lower, self.upper, self.rhs = lower, upper, rhs
        self.dl, self.du = np.empty(n - 1), np.empty(n - 1)
        self.info = ctypes.c_int64(0)
        size = ctypes.byref(ctypes.c_int64(n))
        self.call = functools.partial(
            _gtsv, size, ctypes.byref(ctypes.c_int64(1)),
            *(_address(a) for a in (self.dl, diag, self.du, rhs)), size,
            ctypes.byref(self.info))

    def prepare(self) -> None:
        self.dl[:] = self.lower
        self.du[:] = self.upper


class _GttrsBinding:
    """``gttrs`` bound to a tridiagonal system for ``solve_banded``.  The
    arrays are checked as ``_GtsvBinding`` checks them, but the matrix is
    only read: LAPACK ``gttrf`` factors a copy of it, once, into dl, d, du
    (n - 1, n and n - 1 entries), du2 (n - 2) and the pivots ipiv (n), and a
    singular matrix raises SolverError.  Then the call with its ctypes
    arguments is built.  Each solve overwrites ``rhs``."""

    __slots__ = ("dl", "d", "du", "du2", "ipiv", "rhs", "info", "call")
    routine = "gttrs"

    def __init__(self, lower, diag, upper, rhs) -> None:
        n = _check_matrix(lower, diag, upper, written=False)
        _check_vector("rhs", rhs, n, written=True)
        self.dl, self.d, self.du = lower.copy(), diag.copy(), upper.copy()
        self.du2 = np.empty(max(n - 2, 0))
        self.ipiv = np.empty(n, dtype=np.int64)
        factors = tuple(_address(a) for a in (self.dl, self.d, self.du, self.du2, self.ipiv))
        self.rhs = rhs
        self.info = ctypes.c_int64(0)
        size = ctypes.byref(ctypes.c_int64(n))
        _gttrf(size, *factors, ctypes.byref(self.info))
        if self.info.value != 0:
            raise SolverError(
                f"tridiagonal factorization failed (LAPACK gttrf info = {self.info.value})")
        self.call = functools.partial(
            _gttrs, ctypes.byref(ctypes.c_char(b"N")), size,
            ctypes.byref(ctypes.c_int64(1)), *factors, _address(rhs), size,
            ctypes.byref(self.info), ctypes.c_size_t(1))

    def prepare(self) -> None:
        """Nothing: gttrs changes only ``rhs``."""


def solve_banded(bound: _GtsvBinding | _GttrsBinding) -> np.ndarray:
    """Solve a ``_GtsvBinding``'s system with LAPACK ``gtsv``, or a
    ``_GttrsBinding``'s with its factors by ``gttrs``; returns the binding's
    ``rhs``, overwritten with the solution (gtsv overwrites ``diag`` too).
    Any other argument raises ValidationError before LAPACK is called.  No
    finiteness check is made; a singular system, or any failure that LAPACK
    reports, raises SolverError."""
    if not isinstance(bound, (_GtsvBinding, _GttrsBinding)):
        raise ValidationError(
            f"solve_banded needs a _GtsvBinding or a _GttrsBinding, "
            f"not {type(bound).__name__}")
    bound.prepare()
    bound.call()
    if bound.info.value != 0:
        raise SolverError(
            f"tridiagonal solve failed (LAPACK {bound.routine} info = {bound.info.value})")
    return bound.rhs


def _measurement_shape(config: ScenarioConfig) -> tuple:
    n_t = int(round((config.meas_t_end - config.meas_t_start) / config.meas_dt)) + 1
    return config.meas_x_count, n_t


def simulate(config: ScenarioConfig) -> tuple[Field, SimDiagnostics]:
    """Run the transport solver: (field on the measurement grid, diagnostics).

    The concentration at every ``meas_dx / sim_dx``-th solver node (x = 0 ..
    (meas_x_count - 1) * meas_dx) is recorded at t = meas_t_start ..
    meas_t_end in steps of meas_dt, clamped at 0; nothing is masked.  The
    SimDiagnostics record holds the mass audit, taken every
    ``config.store_dt``, and the solve counts.  A singular system or a
    non-finite concentration raises SolverError.
    """
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

    value, slope = _KERNELS[model.kind]
    nonlinear = model.kind != "none"
    langmuir = model.kind == "langmuir"

    # c and cs hold the whole column; only the window [0, hi) is solved, and
    # the nodes from hi on stay exactly 0 (the isotherms all vanish at 0).
    c = np.zeros(n_nodes)
    cs = np.zeros(n_nodes)  # isotherm value of max(c, 0), carried along with c
    measured = np.zeros(_measurement_shape(config))
    tail = _TAIL * config.c0

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
            sorbed[slot] = rho_b * float(vol @ cs)
            injected_track[slot] = injected
            outflowed_track[slot] = outflowed
        if steps_done >= t_first and (steps_done - t_first) % t_every == 0:
            col = (steps_done - t_first) // t_every
            np.maximum(c[:x_stop:x_every], 0.0, out=measured[:, col])

    record(0)

    # Off-diagonals are constant.  The diagonal and the sorbed-mass change of
    # the right-hand side follow the sorption slope; without sorption they
    # are the constants below.  A window's last row keeps its interior
    # diag_flux: node hi is a fixed zero, not the outlet.
    lower = np.full(n_nodes - 1, -(a_face + b_face))
    upper = np.full(n_nodes - 1, -(a_face - b_face))
    diag_flux = np.full(n_nodes, 2.0 * a_face)
    diag_flux[0] = a_face + b_face
    diag_flux[-1] = a_face + b_face
    # Work buffers; a window uses their leading entries.  A solve returns the
    # iterate in its right-hand side, so two alternate: no sweep overwrites
    # the iterate it reads.
    work = np.empty((8, n_nodes))

    def system(hi: int) -> tuple:
        """The constant arrays and the work buffers of the window [0, hi),
        and their LAPACK bindings: one gtsv solve into each right-hand side
        buffer, or the linear model's gttrs solve into ``diff``.  That
        binding factors the constant matrix, once: the linear model solves
        only on the whole column."""
        buffers = tuple(work[:, :hi])
        _, _, diag, _, _, diff, *rhs_pair = buffers
        bound = (tuple(_GtsvBinding(lower[:hi - 1], diag, upper[:hi - 1], rhs)
                       for rhs in rhs_pair) if nonlinear else
                 _GttrsBinding(lower, vol_over_dt * theta + diag_flux, upper, diff))
        return vol_over_dt[:hi], diag_flux[:hi], buffers, bound

    full_grid = system(n_nodes)

    def picard(c_old, cs_old, window: tuple, flux_in: float, t_next: float):
        """Backward-Euler step on ``window``'s nodes: (c, cs, sweeps), valid
        until the next call."""
        nonlocal solves
        vdt, flux, buffers, bound = window
        theta_c, s, diag, cs_k, den, diff, *rhs_pair = buffers
        np.multiply(c_old, theta, out=theta_c)  # theta * c^n, once per step
        if not nonlinear:  # rhs = vdt * (theta * c^n + 0.0), which turns -0 into +0
            rhs = np.multiply(np.add(theta_c, 0.0, out=diff), vdt, out=diff)
            rhs[0] += flux_in
            c_new = solve_banded(bound)
            solves += 1
            if not np.isfinite(c_new).all():
                raise SolverError(f"non-finite concentration at t = {t_next:.3f} s")
            return c_new, cs_old, 1
        if langmuir:  # den of c_old for the first sweep's slope
            value(np.maximum(c_old, 0.0, out=diff), model, diff, den)
        c_k = c_old
        for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
            # diag = vdt * (theta + rho_b * s) + flux and rhs = vdt * (theta *
            # c_old + rho_b * (cs_old - cs_k + s * c_k)), cs_k = cs_old at first;
            # the Freundlich slope, singular at C = 0, is taken at a floor.
            slope(c_k if langmuir else np.maximum(c_k, _SLOPE_EVAL_FLOOR, out=s), model, s, den)
            np.multiply(s, rho_b, out=diag)
            diag += theta
            diag *= vdt
            diag += flux
            s *= c_k
            slot = sweep % 2
            rhs = np.subtract(cs_old, cs_k if sweep > 1 else cs_old, out=rhs_pair[slot])
            rhs += s
            rhs *= rho_b
            rhs += theta_c
            rhs *= vdt
            rhs[0] += flux_in
            c_new = solve_banded(bound[slot])
            solves += 1
            delta = float(np.abs(np.subtract(c_new, c_k, out=diff), out=diff).max())
            if not math.isfinite(delta):
                raise SolverError(f"non-finite concentration at t = {t_next:.3f} s")
            c_k = c_new
            value(np.maximum(c_k, 0.0, out=cs_k), model, cs_k, den)
            if delta <= _PICARD_TOL:
                return c_k, cs_k, sweep
        raise SolverError(
            f"Picard iteration failed at t = {t_next:.3f} s "
            f"(last sweep change {delta:.3e} after {_PICARD_MAX_SWEEPS} sweeps)"
        )

    def last_above_tail() -> int:
        above = np.flatnonzero(np.abs(c) > tail)
        return int(above[-1]) if above.size else -1

    # A nonlinear model's window opens after a full-grid step in which the
    # plume settled: its last node above the tail moved by at most
    # _GUARD // 4, and the step took more than one Picard sweep (one sweep
    # means the iterate is still at the Freundlich slope floor, from which
    # the front can jump).  Until then, and after a step solved again, each
    # step scans the grid.  The linear model never scans.
    hi = n_nodes
    scanning = nonlinear
    last = -1
    for step in range(n_steps):
        t_next = (step + 1) * dt
        flux_in = f0 if t_next <= config.t_pulse + 1e-9 * dt else 0.0

        if hi == n_nodes:
            c_k, cs_k, sweeps = picard(c, cs, full_grid, flux_in, t_next)
            c[:], cs[:] = c_k, cs_k
            if scanning:
                previous, last = last, last_above_tail()
                if last + 1 + _GUARD >= n_nodes:
                    scanning = False  # the window would reach the outlet
                elif last - previous <= _GUARD // 4 and sweeps > 1:
                    hi = last + 1 + _GUARD
                    c[hi:] = 0.0
                    cs[hi:] = 0.0
                    window = system(hi)
        else:
            c_k, cs_k, sweeps = picard(c[:hi], cs[:hi], window, flux_in, t_next)
            # Only the guard band is read: the last node above the tail is
            # there if it moved at all, and the window grows to end _GUARD
            # nodes past it again.
            band = np.flatnonzero(np.abs(c_k[hi - _GUARD:]) > tail)
            grow = int(band[-1]) + 1 if band.size else 0
            if grow > _GUARD // 2:
                # The plume outran the edge band: redo the step unwindowed.
                c_k, cs_k, sweeps = picard(c, cs, full_grid, flux_in, t_next)
                c[:], cs[:] = c_k, cs_k
                last = last_above_tail()
                hi = n_nodes
            else:
                c[:hi], cs[:hi] = c_k, cs_k
                if grow:
                    hi = min(n_nodes, hi + grow)
                    window = system(hi)
                    scanning = hi < n_nodes
        max_sweeps = max(max_sweeps, sweeps)
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


def sample_measurements(sim_field: Field, config: ScenarioConfig) -> Field:
    """Apply the detection floor to a field on the measurement grid.

    ``sim_field`` must lie on the config's monitoring grid, as ``simulate``
    returns it: x = 0 .. (meas_x_count - 1) * meas_dx and t = meas_t_start
    .. meas_t_end.  Entries at or below ``conc_floor`` are masked out,
    whatever the floor, as ``smooth_field`` masks smoothed data.  The values
    are shared, not copied.
    """
    grid = (sim_field.x0, sim_field.dx, sim_field.t0, sim_field.dt)
    expected = (0.0, config.meas_dx, config.meas_t_start, config.meas_dt)
    if (sim_field.values.shape != _measurement_shape(config)
            or not np.allclose(grid, expected, rtol=1e-9, atol=1e-12)):
        raise ValidationError(
            f"field of shape {sim_field.values.shape} at (x0, dx, t0, dt) = {grid} "
            f"is not on the measurement grid {_measurement_shape(config)} at {expected}"
        )
    return Field(sim_field.values, x0=0.0, dx=config.meas_dx, t0=config.meas_t_start,
                 dt=config.meas_dt,
                 mask=sim_field.mask & (sim_field.values > config.conc_floor))
