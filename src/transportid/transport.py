"""1-D advection-dispersion transport with equilibrium sorption.

Solves, on a uniform grid, the retarded transport equation

    R(C) dC/dt = -v_x dC/dx + D_L d2C/dx2,
    R(C) = 1 + (rho_b / theta) dC*/dC,

where C* is the sorbed concentration given by a Freundlich or Langmuir
isotherm and D_L = alpha_l * v_x.  The inlet carries a prescribed advective
mass flux that switches off after a finite pulse; the outlet is a
zero-gradient boundary placed far from the plume.

The discretization is a vertex-centred finite-volume scheme with central
second-order face fluxes for both advection and dispersion.  It is marched
on the mass M = theta C + rho_b C*(C) with backward Euler,
vdt (M^(n+1) - M^n) = face fluxes with vdt = vol / dt, or, at
``sim_order`` 2, with BDF2, vdt (3 M^(n+1) - 4 M^n + M^(n-1)) / 2 = face
fluxes (fixed-order BDF on this mass form: Tocci, Kelley & Miller, Adv.
Water Resour. 20:1, 1997).  BDF2 restarts with a backward-Euler step at
t = 0 and right after the inlet flux switches, where its history would
straddle the switch.  So a step's storage weight is 1 or 3/2 times vdt, and
its old mass vdt M^n or vdt (2 M^n - M^(n-1) / 2).  The sorption slope is
handled by the modified Picard scheme of Celia, Bouloutas & Zarba (1990),
Newton's method on the storage term; every sweep solves one tridiagonal
system with LAPACK ``gtsv`` on work buffers.  A step's first sweep linearizes at an extrapolated start:
3 C^n - 3 C^(n-1) + C^(n-2) once the last two steps ran under the step's
inlet flux, except at nodes where C^n <= 0, which start, like a step after
a single such step, from 2 C^n - C^(n-1); right after the inlet flux
switched a step starts from C^n.  Each sweep evaluates one
isotherm factor, which gives both the sorbed value and its slope; below
_SLOPE_EVAL_FLOOR the solver's Freundlich isotherm is linear.
Without sorption the system does not depend on C: a ``gttrs`` binding for
each storage weight that the run uses, backward Euler's and at ``sim_order``
2 BDF2's, factors its matrix once with ``gttrf``, and each step is a single
``gttrs`` solve on the whole column.
The three routines are called through ``ctypes`` from the ILP64 OpenBLAS
(scipy-openblas64) that numpy's wheels bundle and ``numpy.linalg`` loads;
a numpy whose LAPACK lacks them makes ``import transportid`` raise
ImportError.  Every solve, gtsv or gttrs, goes through ``solve_banded``,
whose one argument is a binding that checked its arrays and built their
ctypes arguments; ``simulate`` binds its work buffers once per window of
the grid, not once per solve.
The scheme conserves mass discretely, which the simulator can track through
a running flux audit of M.  Backward Euler conserves M itself; BDF2
conserves (3 M^(n+1) - M^n) / 2.  The audit of M still closes to rounding
while no mass reaches the outlet: from each backward-Euler restart on,
stored mass rises by exactly the injected flux times dt a step.

With sorption each step solves only the active window [0, hi), which ends
_GUARD nodes past the last node above the tail: a node at or below it holds
at most _TAIL * theta * c0 of aqueous and of sorbed concentration.  The
nodes from hi on are held at exactly 0, so the window's last row is an
interior row against a fixed zero.  Each step on the full grid, the first
one and any solved again, scans the column once and opens the window there,
unless it would reach the outlet.  A windowed step reads only the guard
band: the window grows to keep _GUARD negligible nodes past the plume, a
window grown to the outlet hands the next step to the full grid, and a
step whose plume reached the far half of the band is solved again on the
full grid.  A full-grid solve holds only values below the tail past hi, so
the recorded values stay within the tail of a full-grid solve's; the
outflow misses outlet values of at most the tail a step.

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

# Concentration floor of the Freundlich factor C**(a-1), which is singular
# at zero; below it the solver's isotherm is linear.  Far below any
# detection floor.
_SLOPE_EVAL_FLOOR = 1e-12

_PICARD_TOL = 1e-10
_PICARD_MAX_SWEEPS = 50

# The weight of a step's new mass M^(n+1), per vol / dt: backward Euler's
# M^(n+1) - M^n and BDF2's (3 M^(n+1) - 4 M^n + M^(n-1)) / 2.
_STORAGE = np.array([1.0, 1.5])

# Active window: each step solves only the nodes [0, hi), which end _GUARD
# nodes past the last node above the tail (``_tail_concentration``) as a
# full-grid step scanned it, and grow when the plume enters those _GUARD
# nodes; the rest stay exactly 0.
_TAIL = 1e-12
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


def isotherm_value(c, model: SorptionModel):
    """Sorbed concentration C*(C).  Raises on negative concentrations."""
    arr = np.asarray(c, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("isotherm_value requires C >= 0")
    if model.kind == "freundlich":
        out = model.k_f * np.power(arr, model.a)
    elif model.kind == "langmuir":
        out = model.k_l * model.s_bar * arr / (1.0 + model.k_l * arr)
    else:
        out = np.zeros_like(arr)
    return float(out) if np.isscalar(c) else out


def _freundlich_factor(c, model: SorptionModel, m, q) -> None:
    """q = max(C, floor)**(a - 1), so that C* = K_f * m * q, with
    m = max(C, 0), and its slope is a * K_f * q; below the floor C* is
    linear."""
    np.power(np.maximum(c, _SLOPE_EVAL_FLOOR, out=q), model.a - 1.0, out=q)


def _langmuir_factor(c, model: SorptionModel, m, q) -> None:
    """q = 1 / (1 + K_l * m), so that C* = K_l * S_bar * m * q, with
    m = max(C, 0), and its slope is K_l * S_bar * q * q."""
    np.divide(1.0, np.add(np.multiply(m, model.k_l, out=q), 1.0, out=q), out=q)


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

    ``sim_order`` is the order of the time step: 1, backward Euler, or 2,
    BDF2 on the mass form, which takes a backward-Euler step at t = 0 and
    right after the inlet flux switches.  The presets measured every 0.5 s
    step at 0.5 s with order 2; every other config defaults to order 1.
    The field stays only while point-wise identification on the fast
    presets, and on a coarse custom column, depends on the smearing of
    backward Euler's data.
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
    sim_order: int = 1

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
        if isinstance(self.sim_order, bool) or self.sim_order not in (1, 2):
            raise ValidationError(f"sim_order must be 1 or 2, got {self.sim_order!r}")
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
        check_numbers(self)
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
    overwrites all four arrays, so it works on a copy of ``lower`` and
    ``upper``, taken here, which ``prepare`` restores before each call."""

    __slots__ = ("bands", "work", "rhs", "info", "call")
    routine = "gtsv"

    def __init__(self, lower, diag, upper, rhs) -> None:
        n = _check_matrix(lower, diag, upper, written=True)
        _check_vector("rhs", rhs, n, written=True)
        self.bands = np.stack((lower, upper))
        self.work = np.empty_like(self.bands)
        self.rhs = rhs
        self.info = ctypes.c_int64(0)
        size = ctypes.byref(ctypes.c_int64(n))
        dl, du = self.work
        self.call = functools.partial(
            _gtsv, size, ctypes.byref(ctypes.c_int64(1)),
            *(_address(a) for a in (dl, diag, du, rhs)), size,
            ctypes.byref(self.info))

    def prepare(self) -> None:
        self.work[...] = self.bands


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


def _tail_concentration(config: ScenarioConfig) -> float:
    """The active window's tail: a node with |C| at most this holds an
    aqueous and a sorbed concentration, theta * C and rho_b * C*(C), of at
    most _TAIL * theta * c0 each.  Inverted from the exact isotherm, which
    bounds the solver's (linear below _SLOPE_EVAL_FLOOR) from above."""
    model = config.sorption
    held = _TAIL * config.theta * config.c0
    if model.kind == "langmuir":  # theta * C + rho_b * C* <= (theta + rho_b * K_l * S_bar) * C
        return held / (config.theta + config.rho_b * model.k_l * model.s_bar)
    tail = _TAIL * config.c0
    sorbing = config.rho_b * model.k_f
    if model.kind == "freundlich" and sorbing > 0.0 and held < sorbing:
        # rho_b * K_f * C**a <= held; at held >= sorbing the root is >= 1 > tail.
        tail = min(tail, (held / sorbing) ** (1.0 / model.a))
    return tail


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
    # The new mass's weight, per vol / dt, in a backward-Euler step (row 0)
    # and in a BDF2 step (row 1); a step's scheme indexes these rows.
    storage = np.multiply.outer(_STORAGE[:config.sim_order], vol_over_dt)

    nonlinear = model.kind != "none"
    langmuir = model.kind == "langmuir"
    factor = _langmuir_factor if langmuir else _freundlich_factor

    # c and sorbed_c hold the whole column; only the window [0, hi) is solved, and
    # the nodes from hi on stay exactly 0 (the isotherms all vanish at 0).
    # c_prev and c_prev2, the two steps before c, give the extrapolated
    # start, and c_prev with sorbed_prev the mass before c's for BDF2; the
    # arrays rotate roles after each step.
    c = np.zeros(n_nodes)
    c_prev = np.zeros(n_nodes)
    c_prev2 = np.zeros(n_nodes)
    positive = np.empty(n_nodes, dtype=bool)  # c > 0, for the quadratic start
    sorbed_c = np.zeros(n_nodes)  # rho_b * C*(c), carried along with c
    sorbed_prev = np.zeros(n_nodes)  # rho_b * C*(c_prev)
    measured = np.zeros(_measurement_shape(config))
    tail = _tail_concentration(config)

    injected = 0.0
    outflowed = 0.0
    max_sweeps = 0
    solves = 0

    audit_times = np.zeros(n_audit)
    aqueous = np.zeros(n_audit)
    sorbed = np.zeros(n_audit)
    injected_track = np.zeros(n_audit)
    outflowed_track = np.zeros(n_audit)

    next_audit, next_measured = 0, t_first

    def record(steps_done: int) -> None:
        nonlocal next_audit, next_measured
        if steps_done == next_audit:
            slot = steps_done // audit_every
            audit_times[slot] = steps_done * dt
            aqueous[slot] = theta * float(vol @ c)
            sorbed[slot] = float(vol @ sorbed_c)
            injected_track[slot] = injected
            outflowed_track[slot] = outflowed
            next_audit += audit_every
        if steps_done == next_measured:
            col = (steps_done - t_first) // t_every
            np.maximum(c[:x_stop:x_every], 0.0, out=measured[:, col])
            next_measured += t_every

    record(0)

    # Off-diagonals are constant, and so is the diagonal without sorption.
    # A window's last row keeps its interior diag_flux: node hi is a fixed
    # zero, not the outlet.
    lower = np.full(n_nodes - 1, -(a_face + b_face))
    upper = np.full(n_nodes - 1, -(a_face - b_face))
    diag_flux = np.full(n_nodes, 2.0 * a_face)
    diag_flux[0] = a_face + b_face
    diag_flux[-1] = a_face + b_face
    diag_const = storage * theta + diag_flux

    # With K = K_f, or K_l * S_bar, u = w * rho_b * K * q and m = max(C, 0)
    # at the iterate, where w is the step's storage weight, w * rho_b * C*
    # is u * m and its slope u * lam, with lam = a (Freundlich) or q
    # (Langmuir).
    rho_k = rho_b * (model.k_l * model.s_bar if langmuir else model.k_f)
    w_sorb = storage * rho_k
    # Work buffers; a window uses their leading entries.  A solve returns the
    # iterate in its right-hand side, so two alternate: no sweep overwrites
    # the iterate it reads.
    work = np.empty((10, n_nodes))

    def system(hi: int) -> tuple:
        """The window [0, hi): its constant arrays, work buffers and the gtsv
        binding of each right-hand side buffer."""
        buffers = tuple(work[:, :hi])
        diag, *rhs_pair = buffers[7:]
        bound = tuple(_GtsvBinding(lower[:hi - 1], diag, upper[:hi - 1], rhs)
                      for rhs in rhs_pair)
        return hi, diag_const[:, :hi], vol_over_dt[:hi], w_sorb[:, :hi], buffers, bound

    def picard(window: tuple, flux_in: float, order: int, bdf2: int, t_next: float):
        """Backward-Euler step, or a BDF2 step if ``bdf2`` is 1, on ``window``'s
        nodes from c, the first sweep linearized at the start of
        extrapolation ``order``: c (0), the linear 2c - c_prev (1), or the
        quadratic 3c - 3c_prev + c_prev2 (2) where c > 0 and the linear one
        elsewhere.  Returns the new c, the m and q of its isotherm factor
        and the sweeps taken, in buffers valid until the next call."""
        nonlocal solves
        hi, diag_consts, vdt, w_sorbs, buffers, bound = window
        diag_c, w = diag_consts[bdf2], w_sorbs[bdf2]
        start, m, q, u, g, diff, base, diag, *rhs_pair = buffers
        lam = q if langmuir else model.a
        c_old = c[:hi]
        # With the mass M = theta * c + rho_b * C*(c), base = vdt * M^n
        # (backward Euler) or vdt * (2 M^n - M^(n-1) / 2) (BDF2), once per
        # step; each sweep adds u * (lam * c_k - m) = w * rho_b * (s_k * c_k - C*_k).
        np.add(np.multiply(c_old, theta, out=base), sorbed_c[:hi], out=base)
        if bdf2:
            np.add(np.multiply(c_prev[:hi], theta, out=g), sorbed_prev[:hi], out=g)
            np.subtract(np.multiply(base, 2.0, out=base), np.multiply(g, 0.5, out=g), out=base)
        np.multiply(base, vdt, out=base)
        c_k = c_old
        if order:
            step_c = np.subtract(c_old, c_prev[:hi], out=diff)
            c_k = np.add(step_c, c_old, out=start)
            if order == 2:
                # Where c > 0, add the second difference (c - c_prev) - (c_prev - c_prev2).
                np.subtract(step_c, np.subtract(c_prev[:hi], c_prev2[:hi], out=g), out=g)
                np.add(c_k, g, out=c_k, where=np.greater(c_old, 0.0, out=positive[:hi]))
        factor(c_k, model, np.maximum(c_k, 0.0, out=m), q)
        for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
            np.multiply(w, q, out=u)
            np.add(np.multiply(u, lam, out=diag), diag_c, out=diag)
            slot = sweep % 2
            rhs = rhs_pair[slot]
            np.multiply(np.subtract(np.multiply(c_k, lam, out=g), m, out=g), u, out=g)
            np.add(base, g, out=rhs)
            rhs[0] += flux_in
            c_new = solve_banded(bound[slot])
            solves += 1
            delta = float(np.maximum.reduce(
                np.abs(np.subtract(c_new, c_k, out=diff), out=diff)))
            if not math.isfinite(delta):
                raise SolverError(f"non-finite concentration at t = {t_next:.3f} s")
            c_k = c_new
            factor(c_k, model, np.maximum(c_k, 0.0, out=m), q)
            if delta <= _PICARD_TOL:
                return c_k, m, q, sweep
        raise SolverError(
            f"Picard iteration failed at t = {t_next:.3f} s "
            f"(last sweep change {delta:.3e} after {_PICARD_MAX_SWEEPS} sweeps)"
        )

    def commit(hi: int, c_k, m, q) -> None:
        """Make picard's result on [0, hi) the state, with rho_b * C* =
        rho_k * q * m, and shift c to c_prev and c_prev to c_prev2, and
        sorbed_c to sorbed_prev."""
        nonlocal c, c_prev, c_prev2, sorbed_c, sorbed_prev
        c_prev2[:hi] = c_k
        np.multiply(np.multiply(q, m, out=sorbed_prev[:hi]), rho_k, out=sorbed_prev[:hi])
        c, c_prev, c_prev2 = c_prev2, c, c_prev
        sorbed_c, sorbed_prev = sorbed_prev, sorbed_c

    def full_grid_step(flux_in: float, order: int, bdf2: int, t_next: float) -> int:
        """A step on the whole column, after which the window opens _GUARD
        nodes past its last node above the tail, unless that reaches the
        outlet; returns the sweeps taken."""
        nonlocal hi, window
        c_k, m, q, sweeps = picard(full_grid, flux_in, order, bdf2, t_next)
        commit(n_nodes, c_k, m, q)
        above = np.flatnonzero(np.abs(c) > tail)
        hi = min(n_nodes, (int(above[-1]) + 1 if above.size else 0) + _GUARD)
        if hi < n_nodes:
            for history in (c, c_prev, c_prev2, sorbed_c, sorbed_prev):
                history[hi:] = 0.0
            window = system(hi)
        return sweeps

    if nonlinear:
        full_grid = system(n_nodes)
    else:
        # Each step is one gttrs solve with the factors of its scheme's
        # constant matrix, on the whole column.
        theta_c, rhs = np.empty(n_nodes), np.empty(n_nodes)
        factored = tuple(_GttrsBinding(lower, diag, upper, rhs) for diag in diag_const)

    def linear_step(flux_in: float, bdf2: int, t_next: float):
        nonlocal solves
        # rhs = vdt * (theta * c^n + 0.0), which turns -0 into +0, or for
        # BDF2 vdt * (2 (theta * c^n + 0.0) - (theta * c^(n-1) + 0.0) / 2)
        np.add(np.multiply(c, theta, out=theta_c), 0.0, out=rhs)
        if bdf2:
            np.add(np.multiply(c_prev, theta, out=theta_c), 0.0, out=theta_c)
            np.subtract(np.multiply(rhs, 2.0, out=rhs), np.multiply(theta_c, 0.5, out=theta_c),
                        out=rhs)
        np.multiply(rhs, vol_over_dt, out=rhs)
        rhs[0] += flux_in
        c_new = solve_banded(factored[bdf2])
        solves += 1
        if not np.isfinite(c_new).all():
            raise SolverError(f"non-finite concentration at t = {t_next:.3f} s")
        return c_new

    hi = n_nodes
    flux_prev = None
    order = 0  # the start's extrapolation order: earlier steps in a row under flux_in, at most 2
    for step in range(n_steps):
        t_next = (step + 1) * dt
        flux_in = f0 if t_next <= config.t_pulse + 1e-9 * dt else 0.0
        order = min(order + 1, 2) if flux_in == flux_prev else 0
        flux_prev = flux_in
        # A step right after the flux switched, the first one included, is
        # backward Euler; at sim_order 2 every other step is BDF2.
        bdf2 = int(order > 0 and config.sim_order == 2)

        if not nonlinear:
            c_new = linear_step(flux_in, bdf2, t_next)
            c, c_prev = c_prev, c
            c[:] = c_new
            sweeps = 1
        elif hi == n_nodes:
            sweeps = full_grid_step(flux_in, order, bdf2, t_next)
        else:
            c_k, m, q, sweeps = picard(window, flux_in, order, bdf2, t_next)
            # Only the guard band is read: the last node above the tail is
            # there if it moved at all, and the window grows to end _GUARD
            # nodes past it again.
            band = np.abs(c_k[hi - _GUARD:])
            grow = 0
            if np.maximum.reduce(band) > tail:
                grow = int(np.flatnonzero(band > tail)[-1]) + 1
            if grow > _GUARD // 2:
                # The plume outran the edge band: redo the step unwindowed.
                sweeps = full_grid_step(flux_in, order, bdf2, t_next)
            else:
                commit(hi, c_k, m, q)
                if grow:
                    hi = min(n_nodes, hi + grow)
                    if hi < n_nodes:
                        window = system(hi)
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
