"""Iterative estimation of the embedded parameters m = (a, K_l).

The prediction error eps(m) of the learned equation on the test window is
driven toward zero with a Levenberg-Marquardt-form update built from a
prior covariance C_M, a scalar observation covariance C_eps, and a
finite-difference sensitivity G = d eps / d m (the coefficients alpha are
refit at every probed m, so G is a total derivative).

Update for one iteration at damping lambda:

    S = (1 + lambda) * C_eps + G C_M G^T
    m_next = m - (1/(1+lambda)) * (C_M - C_M G^T S^-1 G C_M) C_M^-1 (m - m_pr)
             - C_M G^T S^-1 * eps

Accepted steps (eps strictly decreases) relax the damping by a factor
gamma; rejected steps tighten it and retry.  The loop stops on relative
eps stagnation between accepted steps, on an accepted-iteration budget,
or when the damping exceeds a stall guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .params import ModelParams, ParamBounds
from .regression import PredictionErrorEvaluator

__all__ = [
    "AssimilationConfig",
    "IterationRecord",
    "AssimilationTrace",
    "fd_gradient",
    "lm_step",
    "run_assimilation",
    "to_unbounded",
    "from_unbounded",
]

_PROPOSAL_BUDGET = 400


@dataclass(frozen=True)
class AssimilationConfig:
    """Knobs for the update loop.

    ``c_eps_scale`` sets the observation covariance relative to the
    starting error: C_eps = (c_eps_scale * max(eps0, c_eps_floor))^2.
    ``tol_rel`` is judged between consecutive accepted steps.
    """

    lambda0: float = 10.0
    gamma: float = 10.0
    tol_rel: float = 1e-3
    max_accepted: int = 25
    lambda_stall: float = 1e15
    c_eps_scale: float = 0.01
    c_eps_floor: float = 1e-12
    fd_rel_step: float = 0.01

    def __post_init__(self) -> None:
        if self.lambda0 <= 0 or self.gamma <= 1:
            raise ValidationError("need lambda0 > 0 and gamma > 1")
        if not (0 < self.tol_rel < 1):
            raise ValidationError("tol_rel must be in (0, 1)")
        if self.max_accepted < 1:
            raise ValidationError("max_accepted must be positive")
        if self.c_eps_scale <= 0 or self.fd_rel_step <= 0:
            raise ValidationError("scales must be positive")


@dataclass
class IterationRecord:
    index: int
    m: ModelParams
    eps: float
    lam: float
    accepted: bool


@dataclass
class AssimilationTrace:
    records: list = field(default_factory=list)
    m_final: ModelParams | None = None
    eps_final: float = float("nan")
    status: str = "running"
    transformed: bool = False

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    def accepted_eps(self) -> list:
        return [r.eps for r in self.records if r.accepted]


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


def fd_gradient(func, x: np.ndarray, bounds: ParamBounds,
                rel_step: float, transformed: bool = False) -> np.ndarray:
    """Central-difference gradient of a scalar function of m.

    Each probe moves m by ``rel_step`` times |m|, or times the bound span
    at m = 0.  With ``transformed`` set, ``x`` holds the logit coordinates
    of m and the same natural steps are divided by dm/ds.  ``func`` refits
    alpha internally, so the result is the total sensitivity of the
    prediction error.
    """
    lower = bounds.lower_array()
    upper = bounds.upper_array()
    m = from_unbounded(x, lower, upper) if transformed else x
    steps = rel_step * np.abs(m)
    steps = np.where(steps == 0.0, rel_step * bounds.span(), steps)
    if transformed:
        steps = steps / np.maximum(_chain_factor(m, lower, upper), 1e-300)
    g = np.zeros(x.size)
    for i, h in enumerate(steps):
        lo = x.copy()
        hi = x.copy()
        lo[i] -= h
        hi[i] += h
        g[i] = (func(hi) - func(lo)) / (2.0 * h)
    return g


def lm_step(m: np.ndarray, m_pr: np.ndarray, g: np.ndarray,
            c_m: np.ndarray, c_eps: float, eps: float,
            lam: float) -> np.ndarray:
    """One damped update; see the module docstring for the formula."""
    gr = g.reshape(1, -1)
    # An infinite or overflowing gradient is caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        s = float((1.0 + lam) * c_eps + g @ c_m @ g)
    if s <= 0.0 or not np.isfinite(s):
        raise SolverError("singular innovation scale in update")
    k = (c_m @ gr.T) / s
    reduced = c_m - k @ (gr @ c_m)
    prior_pull = reduced @ np.linalg.solve(c_m, m - m_pr) / (1.0 + lam)
    data_pull = (k * eps).ravel()
    return m - prior_pull.ravel() - data_pull


def run_assimilation(evaluator: PredictionErrorEvaluator, m0: ModelParams,
                     bounds: ParamBounds,
                     cfg: AssimilationConfig | None = None,
                     _transformed: bool = False) -> AssimilationTrace:
    """Drive m from m0 toward the prediction-error minimum.

    ``evaluator`` needs only ``eps(m)``.  Runs in natural coordinates
    first; if an accepted iterate ever leaves the prior bounds, the whole
    loop restarts once in logit-transformed coordinates where every real
    vector maps inside the bounds.
    """
    cfg = cfg or AssimilationConfig()
    names = m0.names
    if names != bounds.names:
        raise ValidationError("parameter naming mismatch with bounds")
    lower = bounds.lower_array()
    upper = bounds.upper_array()
    c_m = bounds.prior_covariance()
    m0_vec = m0.as_array()

    def pack(vec: np.ndarray) -> ModelParams:
        return ModelParams(names=names, values=tuple(float(v) for v in vec))

    if _transformed:
        def to_nat(z):
            return from_unbounded(z, lower, upper)

        x0 = to_unbounded(m0_vec, lower, upper)
        # Prior covariance mapped through the transform at the prior mean.
        j0 = _chain_factor(m0_vec, lower, upper)
        c_m = c_m / np.maximum(j0 ** 2, 1e-300)
    else:
        def to_nat(z):
            return z

        x0 = m0_vec

    def eps_of(z):
        return evaluator.eps(pack(to_nat(z)))

    trace = AssimilationTrace(transformed=_transformed)
    x_pr = x0.copy()
    try:
        eps0 = eps_of(x0)
    except Exception as exc:  # noqa: BLE001 - starting point must evaluate
        raise SolverError(f"objective failed at the start point: {exc}")
    c_eps = (cfg.c_eps_scale * max(eps0, cfg.c_eps_floor)) ** 2

    x = x0.copy()
    eps = eps0
    lam = cfg.lambda0
    idx = 0
    trace.records.append(IterationRecord(idx, pack(to_nat(x)), eps, lam, True))

    def finish(status: str) -> AssimilationTrace:
        trace.status = status
        trace.m_final = pack(to_nat(x))
        trace.eps_final = eps
        return trace

    def grad_at(z: np.ndarray) -> np.ndarray:
        return fd_gradient(eps_of, z, bounds, cfg.fd_rel_step, _transformed)

    g = grad_at(x)
    if not np.any(np.abs(g) > 0.0):
        # Parameter-free library: the error surface is flat in m.
        return finish("zero_gradient")

    proposals = 0
    accepted = 0
    while True:
        if proposals >= _PROPOSAL_BUDGET:
            return finish("budget_exhausted")
        proposals += 1
        x_trial = x
        try:
            x_trial = lm_step(x, x_pr, g, c_m, c_eps, eps, lam)
            eps_trial = eps_of(x_trial)
            ok = np.isfinite(eps_trial)
        except Exception:  # noqa: BLE001 - failed trial is a rejection
            ok = False
            eps_trial = float("inf")
        idx += 1

        if ok and eps_trial < eps:
            prev_eps = eps
            x = x_trial
            eps = eps_trial
            lam = lam / cfg.gamma
            accepted += 1
            trace.records.append(
                IterationRecord(idx, pack(to_nat(x)), eps, lam, True))
            if not _transformed and not bounds.contains(x):
                # Restart once in transformed coordinates from m0.
                return run_assimilation(evaluator, m0, bounds, cfg,
                                        _transformed=True)
            if abs(prev_eps - eps) < cfg.tol_rel * prev_eps:
                return finish("converged")
            if accepted >= cfg.max_accepted:
                return finish("max_iterations")
            g = grad_at(x)
            if not np.any(np.abs(g) > 0.0):
                return finish("zero_gradient")
        else:
            lam = lam * cfg.gamma
            trace.records.append(
                IterationRecord(idx, pack(to_nat(x_trial)),
                                eps_trial if ok else float("inf"),
                                lam, False))
            if lam > cfg.lambda_stall:
                return finish("stalled")

