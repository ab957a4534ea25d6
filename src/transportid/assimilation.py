"""Iterative estimation of the embedded parameters m = (a, K_l).

The prediction error eps(m) of the learned equation on the test window is
driven toward zero with a Levenberg-Marquardt-form update built from a
prior covariance C_M, a scalar observation covariance C_eps, and a
finite-difference sensitivity G = d eps / d m (the coefficients alpha are
refit at every probed m, so G is a total derivative).

The update runs in the logit coordinates s = ln((m - l)/(u - m)) of the
prior box [l, u], so every iterate maps inside the box.  G is taken in m
and carried to s by the chain rule, and C_M is mapped through dm/ds at
the start point.  C_M is diagonal, with diagonal c, and eps is a single
observation, so the innovation S is a scalar and C_M^-1 cancels.  Update
for one iteration at damping lambda, with * elementwise:

    S = (1 + lambda) * C_eps + sum_i c_i g_i^2,    K = c * g / S
    s_next = s - [(s - s_pr) - K (g . (s - s_pr))] / (1 + lambda) - K eps

In one dimension the two pulls are C_eps (s - s_pr) / S toward the prior
mean and c g eps / S along the data.

Accepted steps (eps strictly decreases) relax the damping by a factor
gamma; rejected steps tighten it and retry.  The loop stops when an
accepted step or a rejected finite trial changes eps by less than a
relative tolerance, on an accepted-iteration budget, on a zero gradient
(a flat surface, or m saturated on a bound), or when the damping exceeds
a stall guard.  Its settings are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .params import ModelParams, ParamBounds
from .regression import FitResult, PredictionErrorEvaluator

__all__ = [
    "IterationRecord",
    "AssimilationTrace",
    "fd_gradient",
    "probe_box",
    "lm_step",
    "run_assimilation",
    "to_unbounded",
    "from_unbounded",
]

_LAMBDA0 = 10.0  # starting damping
_GAMMA = 10.0  # damping factor per accepted or rejected trial
_TOL_REL = 1e-3  # relative change of eps that ends a run ``converged``
_MAX_ACCEPTED = 25  # accepted steps that end a run ``max_iterations``
_C_EPS_SCALE = 0.01  # C_eps = (_C_EPS_SCALE * eps0)^2
_LAMBDA_STALL = 1e15  # damping that ends a run ``stalled``
_C_EPS_FLOOR = 1e-12  # floor of the starting error in C_eps
_FD_REL_STEP = 0.01  # relative finite-difference step


@dataclass
class IterationRecord:
    """One evaluated point; its iteration number is its list position."""

    m: ModelParams
    eps: float
    lam: float
    accepted: bool


@dataclass
class AssimilationTrace:
    records: list = field(default_factory=list)
    m_final: ModelParams | None = None
    status: str = "running"
    # What the evaluator returned at m_final: a FitResult from the exact
    # evaluator, the proxy's own value from a proxy.
    fit: FitResult | None = None
    # Every run is in logit coordinates; perfbench's tracer still reads this.
    transformed = True

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)


def to_unbounded(m: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> np.ndarray:
    """Map bounded values to the whole real line, s = ln((m-l)/(u-m))."""
    return np.log((m - lower) / (upper - m))


def from_unbounded(s: np.ndarray, lower: np.ndarray,
                   upper: np.ndarray) -> np.ndarray:
    # tanh form avoids overflow for large |s|.
    return lower + (upper - lower) * 0.5 * (1.0 + np.tanh(0.5 * s))


def _chain_factor(m: np.ndarray, lower: np.ndarray,
                  upper: np.ndarray) -> np.ndarray:
    """dm/ds at m for the logit-style transform."""
    return (upper - m) * (m - lower) / (upper - lower)


def _fd_steps(x: np.ndarray, bounds: ParamBounds) -> np.ndarray:
    steps = _FD_REL_STEP * np.abs(x)
    return np.where(steps == 0.0, _FD_REL_STEP * bounds.span(), steps)


def probe_box(bounds: ParamBounds) -> tuple:
    """(lower, upper) arrays of the box that ``run_assimilation``'s
    gradient probes reach from any m in ``bounds``.

    Each bound moves out by its own probe step.  m - step(m) grows with m
    except at m = 0, whose step is a share of the span, so the box also
    covers the probes from 0 when 0 lies in ``bounds``.
    """
    lower = bounds.lower_array()
    upper = bounds.upper_array()
    lo = lower - _fd_steps(lower, bounds)
    hi = upper + _fd_steps(upper, bounds)
    at_zero = (lower <= 0.0) & (0.0 <= upper)
    reach = _FD_REL_STEP * bounds.span()
    lo = np.where(at_zero, np.minimum(lo, -reach), lo)
    hi = np.where(at_zero, np.maximum(hi, reach), hi)
    return lo, hi


def fd_gradient(func, x: np.ndarray, bounds: ParamBounds) -> np.ndarray:
    """Central-difference gradient of a scalar function of m.

    Each probe moves m by 1% of |m|, or of the bound span at m = 0.
    ``func`` refits alpha internally, so the result is the total
    sensitivity of the prediction error.
    """
    g = np.zeros(x.size)
    for i, h in enumerate(_fd_steps(x, bounds)):
        lo = x.copy()
        hi = x.copy()
        lo[i] -= h
        hi[i] += h
        g[i] = (func(hi) - func(lo)) / (2.0 * h)
    return g


def lm_step(m: np.ndarray, m_pr: np.ndarray, g: np.ndarray,
            c_m: np.ndarray, c_eps: float, eps: float,
            lam: float) -> np.ndarray:
    """One damped update with C_M's diagonal ``c_m``; see the module
    docstring for the formula."""
    # An infinite or overflowing gradient is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        s = float((1.0 + lam) * c_eps + (c_m * g) @ g)
    if s <= 0.0 or not np.isfinite(s):
        raise SolverError("singular innovation scale in update")
    k = c_m * g / s
    d = m - m_pr
    return m - (d - k * (g @ d)) / (1.0 + lam) - k * eps


def run_assimilation(evaluator: PredictionErrorEvaluator, m0: ModelParams,
                     bounds: ParamBounds) -> AssimilationTrace:
    """Drive m from m0 toward the prediction-error minimum.

    ``evaluator.evaluate(m)`` returns a result with an ``eps``; the one at
    the last accepted point is kept as ``trace.fit``.  m0 must lie strictly
    inside ``bounds``.  The loop runs in the logit coordinates of m, so
    every iterate stays inside the box.  It ends ``converged`` when an
    accepted step, or a rejected finite trial, changes eps by less than
    0.1 % of eps; ``max_iterations`` after 25 accepted steps;
    ``zero_gradient`` when the gradient vanishes, which also happens once
    m saturates on a bound; ``stalled`` when the damping passes 1e15.
    The damping starts at 10 and moves tenfold on every trial, so after A
    accepted and R rejected trials it is 10^(1 + R - A), and no run
    proposes more than 25 + 24 + 14 = 63 trials.  ``converged`` says eps
    stopped moving, not that m reached the minimum: the prior pull toward
    m0 can stop it short.
    """
    names = m0.names
    if names != bounds.names:
        raise ValidationError("parameter naming mismatch with bounds")
    lower = bounds.lower_array()
    upper = bounds.upper_array()
    m0_vec = m0.as_array()
    if not np.all((lower < m0_vec) & (m0_vec < upper)):
        raise ValidationError(
            f"start point {dict(zip(names, m0.values))} is not strictly "
            f"inside the bounds")
    s0 = to_unbounded(m0_vec, lower, upper)
    # Diagonal of the uniform prior's covariance over the box, mapped
    # through the transform at the prior mean.
    c_m = bounds.span() ** 2 / 12.0 / np.maximum(
        _chain_factor(m0_vec, lower, upper) ** 2, 1e-300)

    def pack(vec: np.ndarray) -> ModelParams:
        return ModelParams(names=names, values=tuple(float(v) for v in vec))

    def to_nat(s: np.ndarray) -> np.ndarray:
        return from_unbounded(s, lower, upper)

    def eps_of_m(m: np.ndarray) -> float:
        return evaluator.evaluate(pack(m)).eps

    def grad_at(s: np.ndarray) -> np.ndarray:
        # Chain rule: d eps/ds = d eps/dm * dm/ds.
        m = to_nat(s)
        return fd_gradient(eps_of_m, m, bounds) * _chain_factor(m, lower, upper)

    trace = AssimilationTrace()
    try:
        fit = evaluator.evaluate(pack(to_nat(s0)))
    except Exception as exc:  # noqa: BLE001 - starting point must evaluate
        raise SolverError(f"objective failed at the start point: {exc}")
    c_eps = (_C_EPS_SCALE * max(fit.eps, _C_EPS_FLOOR)) ** 2

    s = s0.copy()
    lam = _LAMBDA0
    trace.records.append(IterationRecord(pack(to_nat(s)), fit.eps, lam, True))

    def finish(status: str) -> AssimilationTrace:
        trace.status = status
        trace.m_final = pack(to_nat(s))
        trace.fit = fit
        return trace

    g = grad_at(s)
    if not np.any(np.abs(g) > 0.0):
        # Parameter-free library: the error surface is flat in m.
        return finish("zero_gradient")

    accepted = 0
    while True:
        s_trial = s
        try:
            s_trial = lm_step(s, s0, g, c_m, c_eps, fit.eps, lam)
            trial = evaluator.evaluate(pack(to_nat(s_trial)))
            eps_trial = trial.eps
            ok = np.isfinite(eps_trial)
        except Exception:  # noqa: BLE001 - failed trial is a rejection
            ok = False
            eps_trial = float("inf")

        if ok and eps_trial < fit.eps:
            prev_eps = fit.eps
            s, fit = s_trial, trial
            lam = lam / _GAMMA
            accepted += 1
            trace.records.append(
                IterationRecord(pack(to_nat(s)), fit.eps, lam, True))
            if abs(prev_eps - fit.eps) < _TOL_REL * prev_eps:
                return finish("converged")
            if accepted >= _MAX_ACCEPTED:
                return finish("max_iterations")
            g = grad_at(s)
            if not np.any(np.abs(g) > 0.0):
                return finish("zero_gradient")
        else:
            lam = lam * _GAMMA
            trace.records.append(
                IterationRecord(pack(to_nat(s_trial)),
                                eps_trial if ok else float("inf"), lam, False))
            if ok and eps_trial - fit.eps < _TOL_REL * fit.eps:
                # Flat to within _TOL_REL, as for an accepted step.
                return finish("converged")
            if lam > _LAMBDA_STALL:
                return finish("stalled")
