"""End-to-end equation identification.

One experiment is: simulate a scenario, sample measurements (optionally
noisy, then smoothed), build derivative points, split in time, and run a
multi-restart ensemble in which each restart assimilates the embedded
parameters from a random prior draw and refits the term coefficients.
Restarts with anomalously large prediction error are screened out, terms
with negligible or unphysical coefficients are pruned, and the whole
ensemble is rerun with the reduced library until the term set is stable.
The final round's aggregate is the learned equation.

The two sorption candidates are never regressed jointly.  Both multiply
the time derivative, so together with their free parameters they can
combine into a nearly constant weight on the regression target and soak
up measurement noise; the parameter estimates then run into the prior
bounds and the coefficient split between the two terms is arbitrary.
Selection therefore compares nested candidate models, each containing
at most one sorption term, by ensemble-mean prediction error, and the
winner's sorption term still has to justify itself against magnitude
and sign guards:

* a relative-magnitude threshold on the ensemble-mean normalized
  coefficient of each term;
* a sign check for the sorption term: its coefficient carries a
  negative retardation prefactor, so a positive ensemble-mean value
  marks the term as spurious regardless of magnitude.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .assimilation import AssimilationTrace, probe_box, run_assimilation
from .chebyshev import ChebyshevInterpolant, adaptive_interpolant
from .errors import (SolverError, TransportIdError, ValidationError,
                     check_numbers)
from .library import LibrarySpec, term_by_id
from .params import ModelParams, ParamBounds
from .preprocess import (DataSplit, NoiseSpec, SmoothingConfig, add_noise,
                         compute_derivatives, smooth_field, split_train_test)
from .regression import FitResult, PredictionErrorEvaluator
from .scenarios import get_scenario
from .transport import ScenarioConfig, sample_measurements, simulate

logger = logging.getLogger(__name__)

_SCREEN_FACTOR = 1.5  # runs above this multiple of the median eps are screened
_PRUNE_THRESHOLD = 0.05  # relative mean magnitude below which a term is pruned
_MAX_ROUNDS = 4  # pruning rounds, the candidates' own included

__all__ = [
    "IdentifyConfig",
    "PreparedData",
    "RunResult",
    "EpsProxy",
    "build_proxy",
    "EnsembleSummary",
    "ModelCandidate",
    "FailedCandidate",
    "IdentificationRound",
    "IdentificationReport",
    "prepare_dataset",
    "sample_prior",
    "run_single",
    "run_ensemble",
    "screen_by_prediction_error",
    "prune_terms",
    "aggregate_summary",
    "identify",
    "learned_equation",
]


@dataclass(frozen=True)
class IdentifyConfig:
    """Experiment-level settings shared by every restart.  The update
    loop's own settings are constants of ``assimilation``."""

    n_restarts: int = 20
    master_seed: int = 0
    split_ratio: float = 0.6
    bounds: ParamBounds = field(default_factory=ParamBounds.default)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.n_restarts < 1:
            raise ValidationError("need at least one restart")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not (0.0 < self.split_ratio < 1.0):
            raise ValidationError("split_ratio must be in (0, 1)")


@dataclass
class PreparedData:
    """Derivative points ready for regression, plus provenance."""

    scenario_name: str
    split: DataSplit
    noise: NoiseSpec | None

    @property
    def n_points(self) -> int:
        return self.split.train.n_points + self.split.test.n_points


@dataclass
class RunResult:
    run_id: int
    m0: ModelParams
    trace: AssimilationTrace
    fit: FitResult


@dataclass
class FailedRun:
    run_id: int
    error: str


@dataclass
class EnsembleSummary:
    """Aggregate statistics over the retained restarts of one round."""

    term_ids: tuple
    retained_run_ids: tuple
    screened_run_ids: tuple
    failed_run_ids: tuple
    alpha_norm_mean: np.ndarray
    alpha_norm_std: np.ndarray
    alpha_abs_norm_mean: np.ndarray
    alpha_phys_mean: np.ndarray
    alpha_phys_std: np.ndarray
    param_names: tuple
    param_mean: np.ndarray
    param_std: np.ndarray
    eps_values: np.ndarray

    @property
    def n_runs(self) -> int:
        return (len(self.retained_run_ids) + len(self.screened_run_ids)
                + len(self.failed_run_ids))


@dataclass
class ModelCandidate:
    """One nested model compared during selection."""

    name: str
    library: LibrarySpec
    summary: EnsembleSummary
    results: list

    @property
    def mean_eps(self) -> float:
        return float(self.summary.eps_values.mean())


@dataclass
class FailedCandidate:
    """A candidate model left out of selection because its ensemble failed."""

    name: str
    term_ids: tuple
    error: str


@dataclass
class IdentificationRound:
    library: LibrarySpec
    summary: EnsembleSummary
    selected_term_ids: tuple
    results: list


@dataclass
class IdentificationReport:
    """One experiment's result, with the prepared data it ran on."""

    data: PreparedData
    library_name: str
    candidates: list
    winner_name: str
    rounds: list
    stable: bool
    failed_candidates: list

    @property
    def final_summary(self) -> EnsembleSummary:
        return self.rounds[-1].summary

    @property
    def selected_term_ids(self) -> tuple:
        return self.rounds[-1].selected_term_ids

    @property
    def final_results(self) -> list:
        return self.rounds[-1].results

    @property
    def equation(self) -> str:
        return learned_equation(self.final_summary)


def prepare_dataset(config: ScenarioConfig, scenario_name: str = "custom",
                    noise: NoiseSpec | None = None,
                    smoothing: SmoothingConfig | None = None,
                    split_ratio: float = 0.6) -> PreparedData:
    """Simulate, sample, optionally perturb and smooth, differentiate, split.

    Clean data skip smoothing entirely and are floored at sampling time.
    Noisy data perturb the unfloored simulated field, so every series can
    support the smoothing windows, and the floor is enforced on the
    smoothed output before derivatives are taken.  Either way every value
    at or below ``conc_floor`` is masked.
    """
    sim, _ = simulate(config)
    if noise is None or noise.delta == 0.0:
        meas = sample_measurements(sim, config)
    else:
        meas = smooth_field(add_noise(sim, noise), smoothing or SmoothingConfig(),
                            config.conc_floor)
    deriv = compute_derivatives(meas)
    split = split_train_test(deriv, split_ratio)
    return PreparedData(scenario_name=scenario_name, split=split, noise=noise)


def sample_prior(n: int, bounds: ParamBounds, seed: int) -> list:
    """Independent uniform draws of the embedded parameters."""
    if n < 1:
        raise ValidationError("need n >= 1 prior draws")
    rng = np.random.default_rng(seed)
    lower = bounds.lower_array()
    upper = bounds.upper_array()
    draws = rng.uniform(lower, upper, size=(n, lower.size))
    return [ModelParams(names=bounds.names, values=tuple(map(float, row)))
            for row in draws]


@dataclass
class ProxyValue:
    """What the assimilation loop reads of one proxy evaluation."""

    eps: float


class EpsProxy:
    """eps(m) of a one-parameter evaluator, read off a Chebyshev
    interpolant of it.

    ``evaluate(m)`` returns a ``ProxyValue``; ``exact`` is the evaluator
    the interpolant was sampled from.
    """

    def __init__(self, exact: PredictionErrorEvaluator,
                 interpolant: ChebyshevInterpolant) -> None:
        self.exact = exact
        self.interpolant = interpolant

    @property
    def library(self) -> LibrarySpec:
        return self.exact.library

    def evaluate(self, m: ModelParams) -> ProxyValue:
        (value,) = m.values
        return ProxyValue(eps=self.interpolant(value))


def build_proxy(evaluator: PredictionErrorEvaluator,
                bounds: ParamBounds) -> EpsProxy | None:
    """The proxy of ``evaluator``'s eps over ``bounds`` (one parameter),
    widened so that every gradient probe lands inside.

    Each level of samples is fitted in one ``evaluate_many`` call.
    Returns None when 257 samples do not resolve eps.  A sample that
    fails or is not finite raises ``SolverError`` naming its cause, and
    the first such sample in level order.
    """
    (name,) = bounds.names
    lo, hi = (float(v[0]) for v in probe_box(bounds))

    def eps_at(xs: np.ndarray) -> np.ndarray:
        xs = [float(x) for x in xs]
        try:
            fits = evaluator.evaluate_many(
                [ModelParams((name,), (x,)) for x in xs])
        except Exception as exc:  # noqa: BLE001 - every sample must evaluate
            raise SolverError(f"objective failed for {name} in "
                              f"[{xs[-1]!r}, {xs[0]!r}]: {exc}") from exc
        for x, fit in zip(xs, fits):
            if isinstance(fit, TransportIdError):
                raise SolverError(
                    f"objective failed at {name} = {x!r}: {fit}") from fit
        return np.array([fit.eps for fit in fits])

    interpolant = adaptive_interpolant(eps_at, lo, hi)
    if interpolant is None:
        return None
    return EpsProxy(evaluator, interpolant)


def run_single(evaluator, m0: ModelParams, bounds: ParamBounds,
               run_id: int = 0) -> RunResult:
    """One restart: assimilate m from m0.

    On a ``PredictionErrorEvaluator`` its fit is the evaluation the loop
    accepted last.  On an ``EpsProxy`` the loop runs on proxy values, so
    ``trace.fit`` is the last accepted proxy value and the result's fit is
    the exact fit at ``m_final``.  ``bounds`` must name exactly the
    parameters the evaluator's library reads (``ParamBounds.restrict``
    selects them).
    """
    reads = evaluator.library.parameter_deps
    if set(bounds.names) != set(reads):
        raise ValidationError(
            f"bounds name parameters {list(bounds.names)}, but library "
            f"{evaluator.library.name!r} reads {list(reads)}")
    trace = run_assimilation(evaluator, m0, bounds)
    fit = (evaluator.exact.evaluate(trace.m_final)
           if isinstance(evaluator, EpsProxy) else trace.fit)
    return RunResult(run_id=run_id, m0=m0, trace=trace, fit=fit)


def run_ensemble(split: DataSplit, library: LibrarySpec, cfg: IdentifyConfig):
    """All restarts for one library, in order, on one shared evaluator.

    Each restart carries only the parameters the library reads; its start
    point is the prior draw over ``cfg.bounds`` with the other columns
    dropped.  A library that reads none has nothing to assimilate and is
    fitted once.  A library that reads one parameter runs every restart on
    one ``EpsProxy``, unless 257 samples do not resolve eps, and then on
    the evaluator; a proxy sample that fails fails every restart.  On the
    proxy, every restart runs first, and then the distinct ``m_final``s
    are fitted as one batch: restarts that end on the same m, most often
    on a bound, share one ``FitResult``, and an end that fails to fit
    fails only the restarts that end on it.  A restart that fails is
    recorded, not fatal.
    """
    bounds = cfg.bounds.restrict(library.parameter_deps)
    evaluator = PredictionErrorEvaluator(split, library)
    n = cfg.n_restarts if bounds.names else 1
    m0s = [ModelParams(bounds.names, tuple(m[p] for p in bounds.names))
           for m in sample_prior(n, cfg.bounds, cfg.master_seed)]
    objective = evaluator
    if len(bounds.names) == 1:
        try:
            objective = build_proxy(evaluator, bounds) or evaluator
        except SolverError as exc:
            return [], [FailedRun(run_id=i, error=str(exc))
                        for i in range(n)]
        if objective is evaluator:
            logger.debug("eps of %r not resolved by 257 Chebyshev samples; "
                         "restarts run on the exact evaluator", library.name)
    results: list = []
    failures: list = []
    runs = []  # (run id, m0, trace) of each restart on the proxy
    for i, m0 in enumerate(m0s):
        try:
            if objective is evaluator:
                results.append(run_single(evaluator, m0, bounds, i))
            else:
                runs.append((i, m0, run_assimilation(objective, m0, bounds)))
        except TransportIdError as exc:
            failures.append(FailedRun(run_id=i, error=str(exc)))
    ends = list(dict.fromkeys(trace.m_final for _, _, trace in runs))
    fits = dict(zip(ends, evaluator.evaluate_many(ends)))
    for i, m0, trace in runs:
        fit = fits[trace.m_final]
        if isinstance(fit, TransportIdError):
            failures.append(FailedRun(run_id=i, error=str(fit)))
        else:
            results.append(RunResult(run_id=i, m0=m0, trace=trace, fit=fit))
    failures.sort(key=lambda f: f.run_id)
    return results, failures


def screen_by_prediction_error(results: list):
    """Split runs into (retained, screened) by final prediction error.

    Runs above 1.5 times the median error are set aside; with fewer than
    three runs everything is retained.
    """
    if len(results) < 3:
        return list(results), []
    eps = np.array([r.fit.eps for r in results])
    cutoff = _SCREEN_FACTOR * float(np.median(eps))
    retained = [r for r, e in zip(results, eps) if e <= cutoff]
    screened = [r for r, e in zip(results, eps) if e > cutoff]
    return retained, screened


def aggregate_summary(library: LibrarySpec, retained: list, screened: list,
                      failures: list) -> EnsembleSummary:
    if not retained:
        raise ValidationError("no retained runs to aggregate")
    a_norm = np.array([r.fit.alpha_norm.values for r in retained])
    a_phys = np.array([r.fit.alpha_phys.values for r in retained])
    m_mat = np.array([r.trace.m_final.as_array() for r in retained])
    names = retained[0].trace.m_final.names
    return EnsembleSummary(
        term_ids=library.term_ids,
        retained_run_ids=tuple(r.run_id for r in retained),
        screened_run_ids=tuple(r.run_id for r in screened),
        failed_run_ids=tuple(f.run_id for f in failures),
        alpha_norm_mean=a_norm.mean(axis=0),
        alpha_norm_std=a_norm.std(axis=0),
        alpha_abs_norm_mean=np.abs(a_norm).mean(axis=0),
        alpha_phys_mean=a_phys.mean(axis=0),
        alpha_phys_std=a_phys.std(axis=0),
        param_names=names,
        param_mean=m_mat.mean(axis=0),
        param_std=m_mat.std(axis=0),
        eps_values=np.array([r.fit.eps for r in retained]),
    )


def prune_terms(library: LibrarySpec, summary: EnsembleSummary) -> tuple:
    """Select the terms worth keeping, in library order.

    Sorption terms with a positive ensemble-mean coefficient are dropped
    first (wrong retardation sign); a term is then kept when its mean
    magnitude is at least 0.05 of the largest surviving one, so a spurious
    dominant term cannot define the scale; at most one sorption model
    survives.
    """
    ids = list(library.term_ids)
    signed = {tid: float(summary.alpha_norm_mean[j])
              for j, tid in enumerate(ids)}
    magnitude = {tid: float(summary.alpha_abs_norm_mean[j])
                 for j, tid in enumerate(ids)}
    sorption = {t.id for t in library.terms if t.is_sorption}

    survivors = [tid for tid in ids
                 if not (tid in sorption and signed[tid] > 0.0)]
    if survivors:
        scale = max(magnitude[tid] for tid in survivors)
        survivors = [tid for tid in survivors
                     if magnitude[tid] >= _PRUNE_THRESHOLD * scale]
    kept_sorption = [tid for tid in survivors if tid in sorption]
    if len(kept_sorption) > 1:
        best = max(kept_sorption, key=lambda tid: magnitude[tid])
        survivors = [tid for tid in survivors
                     if tid not in sorption or tid == best]
    if not survivors:
        raise ValidationError("pruning removed every candidate term")
    return tuple(survivors)


def _candidate_splits(library: LibrarySpec) -> list:
    """Nested models: the sorption-free core plus one per sorption term."""
    base_ids = tuple(t.id for t in library.terms if not t.is_sorption)
    out = []
    if base_ids:
        out.append(("none", base_ids))
    for term in library.terms:
        if term.is_sorption:
            ids = tuple(t.id for t in library.terms
                        if not t.is_sorption or t.id == term.id)
            out.append((term.id, ids))
    return out


def _ensemble_round(split: DataSplit, lib: LibrarySpec, cfg: IdentifyConfig):
    results, failures = run_ensemble(split, lib, cfg)
    if not results:
        raise SolverError(f"every restart failed for library {lib.name!r}; "
                          f"first cause: {failures[0].error}")
    retained, screened = screen_by_prediction_error(results)
    return aggregate_summary(lib, retained, screened, failures), results


def identify(scenario, library="basic", noise: NoiseSpec | None = None,
             cfg: IdentifyConfig | None = None,
             data: PreparedData | None = None) -> IdentificationReport:
    """Full pipeline: prepare data, compare candidate models, prune, refit.

    ``scenario`` is a preset name or a ScenarioConfig; ``data`` can carry
    a previously prepared dataset to share across experiments; the report
    holds the data it ran on, whose noise need not be ``noise``.  Every
    ensemble reuses the same master seed, so rerunning with an unchanged
    term set reproduces identical coefficients.  A candidate model whose
    every restart fails is recorded in ``failed_candidates`` with its cause
    and left out of selection; if every candidate fails, SolverError.  A
    pruning round that selects a candidate's terms reuses its ensemble.
    """
    cfg = cfg or IdentifyConfig()
    if isinstance(library, str):
        library = LibrarySpec.from_name(library)
    if isinstance(scenario, ScenarioConfig):
        scen_cfg, scen_name = scenario, "custom"
    else:
        scen_name = scenario
        scen_cfg = get_scenario(scen_name)
    if data is None:
        data = prepare_dataset(scen_cfg, scen_name, noise=noise,
                               smoothing=cfg.smoothing,
                               split_ratio=cfg.split_ratio)

    candidates: list = []
    failed: list = []
    for name, ids in _candidate_splits(library):
        lib_c = (library if ids == library.term_ids
                 else library.subset(ids, name=f"{library.name}-{name}"))
        try:
            summary, results = _ensemble_round(data.split, lib_c, cfg)
        except SolverError as exc:
            failed.append(FailedCandidate(name=name, term_ids=ids, error=str(exc)))
            continue
        candidates.append(ModelCandidate(name=name, library=lib_c,
                                         summary=summary, results=results))
    if not candidates:
        raise SolverError(f"every candidate model failed; first cause: {failed[0].error}")
    winner = min(candidates, key=lambda c: c.mean_eps)

    rounds: list = []
    current = winner.library
    summary = winner.summary
    results = winner.results
    while True:
        selected = prune_terms(current, summary)
        rounds.append(IdentificationRound(library=current, summary=summary,
                                          selected_term_ids=selected,
                                          results=results))
        stable = selected == current.term_ids
        if stable or len(rounds) == _MAX_ROUNDS:
            break
        current = current.subset(selected)
        # The same terms, split and settings give the same ensemble.
        same = [c for c in candidates if c.library.term_ids == selected]
        if same:
            summary, results = same[0].summary, same[0].results
        else:
            summary, results = _ensemble_round(data.split, current, cfg)
    return IdentificationReport(data=data, library_name=library.name,
                                candidates=candidates,
                                winner_name=winner.name,
                                rounds=rounds, stable=stable,
                                failed_candidates=failed)


def _format_coef(value: float) -> str:
    return f"{value:+.5g}"


def learned_equation(summary: EnsembleSummary) -> str:
    """Render the aggregate as a readable transport equation."""
    params = dict(zip(summary.param_names, summary.param_mean))
    pieces = []
    for tid, coef in zip(summary.term_ids, summary.alpha_phys_mean):
        term = term_by_id(tid)
        body = term.label.format(**{
            p: f"{params.get(p, math.nan):.3f}" for p in term.parameter_deps})
        pieces.append(f"{_format_coef(float(coef))} {body}")
    return "dC/dt = " + " ".join(pieces)
