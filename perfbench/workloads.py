"""Benchmark workloads: how each experiment is configured, run and checked.

Every workload uses the default ``IdentifyConfig`` (20 restarts, basic
library, ``jobs=1``) with ``master_seed`` taken from the benchmark seed.
It is a closed loop: one experiment at a time in one process.

* ``s2-clean`` - Freundlich scenario, clean data.  The solver runs its
  nonlinear Picard loop and the prediction-error evaluator dominates.
* ``s2-noisy`` - the same scenario at noise delta = 0.05 (noise seed =
  benchmark seed).  Smoothing runs and far fewer points survive, so the
  solver and preprocessing dominate and the evaluator matters little.
* ``s1-cli`` - the linear scenario through ``transportid.cli.main``.  The
  largest point set, a second pruning round on a parameter-free library,
  and the only workload that writes output files.
* ``tiny`` - a coarse custom scenario through the CLI with 4 restarts, for
  the harness self-test only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

# Acceptance-gate bands: relative for coefficients, absolute for `a`.
COEF_BANDS = {"adv": 0.03, "dis": 0.03, "fsorp": 0.08}
PARAM_BANDS = {"a": 0.02}

NOISE_DELTA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # preset name, or "custom" for tiny
    noisy: bool
    via_cli: bool
    band_checks: bool
    n_restarts: int = 20


WORKLOADS = {
    w.name: w for w in (
        Workload("s2-clean", "s2", noisy=False, via_cli=False,
                 band_checks=True),
        Workload("s2-noisy", "s2", noisy=True, via_cli=False,
                 band_checks=False),
        Workload("s1-cli", "s1", noisy=False, via_cli=True, band_checks=True),
        Workload("tiny", "custom", noisy=False, via_cli=True,
                 band_checks=True, n_restarts=4),
    )
}
BENCH_WORKLOADS = ("s2-clean", "s2-noisy", "s1-cli")


def make_tiny():
    """Coarse, fast scenario (a copy of the test suite's ``make_tiny``)."""
    from transportid.transport import ScenarioConfig, SorptionModel
    return ScenarioConfig(v_x=0.01, alpha_l=1.0, theta=0.37, rho_b=1.587,
                          t_pulse=200.0, c0=0.05,
                          sorption=SorptionModel.none(),
                          sim_length=32.0, sim_dx=0.32, sim_dt=1.0,
                          meas_x_count=25, meas_dx=0.64,
                          meas_t_start=300.0, meas_t_end=700.0, meas_dt=2.0,
                          conc_floor=5e-5, sim_store_dt=2.0)


@dataclass
class Setup:
    """Everything a workload needs before its first pipeline call."""

    workload: Workload
    scenario: object       # ScenarioConfig
    cfg: object            # IdentifyConfig
    noise: object          # NoiseSpec or None
    truth_coefs: dict
    truth_params: dict
    argv: tuple = ()       # CLI arguments, output dir appended at run time
    config_json: str = ""  # CLI config file body (tiny only)


def build(workload: Workload, seed: int) -> Setup:
    """Build the workload's configs; the timed part of ``setup_s``."""
    from transportid.identification import IdentifyConfig
    from transportid.preprocess import NoiseSpec
    from transportid.scenarios import (get_scenario, true_coefficients,
                                       true_parameters)
    cfg = IdentifyConfig(n_restarts=workload.n_restarts, master_seed=seed)
    noise = NoiseSpec(delta=NOISE_DELTA, seed=seed) if workload.noisy else None
    if workload.scenario == "custom":
        scen = make_tiny()
        truth_coefs = {"adv": -scen.v_x, "dis": scen.d_l}
        truth_params = {}
        config_json = json.dumps(_tiny_config(scen))
        argv = ("identify", "--restarts", str(workload.n_restarts))
    else:
        scen = get_scenario(workload.scenario)
        truth_coefs = true_coefficients(workload.scenario)
        truth_params = true_parameters(workload.scenario)
        config_json = ""
        argv = ("identify", "--scenario", workload.scenario)
    argv += ("--seed", str(seed))
    return Setup(workload=workload, scenario=scen, cfg=cfg,
                 noise=noise, truth_coefs=truth_coefs,
                 truth_params=truth_params, argv=argv,
                 config_json=config_json)


def _tiny_config(scen) -> dict:
    fields = ("v_x", "alpha_l", "theta", "rho_b", "t_pulse", "c0",
              "sim_length", "sim_dx", "sim_dt", "meas_x_count", "meas_dx",
              "meas_t_start", "meas_t_end", "meas_dt", "conc_floor",
              "sim_store_dt")
    custom = {name: getattr(scen, name) for name in fields}
    s = scen.sorption
    custom["sorption"] = {"kind": s.kind, "k_f": s.k_f, "a": s.a,
                          "k_l": s.k_l, "s_bar": s.s_bar}
    return {"scenario": "custom", "custom_scenario": custom}


@dataclass
class Outcome:
    """What one experiment produced, before checking."""

    wall_s: float
    report: object = None          # IdentificationReport
    exit_code: int = 0
    summary_bytes: bytes = b""


def run(setup: Setup, workdir: Path) -> Outcome:
    """One experiment: scenario name to learned equation (and files)."""
    if setup.workload.via_cli:
        return _run_cli(setup, workdir)
    from transportid import identification
    w = setup.workload
    start = time.perf_counter()
    data = identification.prepare_dataset(
        setup.scenario, w.scenario, noise=setup.noise,
        smoothing=setup.cfg.smoothing, split_ratio=setup.cfg.split_ratio)
    report = identification.identify(w.scenario, noise=setup.noise,
                                     cfg=setup.cfg, data=data)
    return Outcome(wall_s=time.perf_counter() - start, report=report)


def _run_cli(setup: Setup, workdir: Path) -> Outcome:
    from transportid import cli
    argv = list(setup.argv) + ["--out", str(workdir / "out")]
    if setup.config_json:
        config = workdir / "config.json"
        config.write_text(setup.config_json)
        argv += ["--config", str(config)]
    captured = []
    identify = cli.identify

    def capture(*args, **kwargs):
        report = identify(*args, **kwargs)
        captured.append(report)
        return report

    cli.identify = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        cli.identify = identify
    summary = workdir / "out" / "summary.json"
    return Outcome(wall_s=wall, report=captured[0] if captured else None,
                   exit_code=code,
                   summary_bytes=summary.read_bytes()
                   if summary.is_file() else b"")


def ensemble_summaries(report) -> list:
    """Every ensemble's aggregate: the candidates, then later rounds."""
    return ([c.summary for c in report.candidates]
            + [r.summary for r in report.rounds[1:]])


def restart_counts(report) -> tuple:
    """(attempted, failed) restarts over every ensemble of a report."""
    summaries = ensemble_summaries(report)
    return (sum(s.n_runs for s in summaries),
            sum(len(s.failed_run_ids) for s in summaries))


def result_errors(report, setup: Setup) -> dict:
    """Learned terms, coefficients, parameters and their errors."""
    s = report.final_summary
    coefs = {tid: float(s.alpha_phys_mean[j])
             for j, tid in enumerate(s.term_ids)}
    params = {name: float(s.param_mean[k])
              for k, name in enumerate(s.param_names)}
    coef_err = max(abs(coefs.get(tid, 0.0) - true) / abs(true)
                   for tid, true in setup.truth_coefs.items())
    param_err = max((abs(params[name] - true) / abs(true)
                     for name, true in setup.truth_params.items()),
                    default=0.0)
    return {"selected": list(report.selected_term_ids), "coefs": coefs,
            "params": params, "coef_rel_err": coef_err,
            "param_rel_err": param_err}


def check(result: dict, setup: Setup, expected_terms=None) -> list:
    """Output checks; returns a list of failure messages (empty = pass).

    ``expected_terms`` overrides the generating term set (the self-test
    passes a wrong one to see the check fire).
    """
    expected = set(setup.truth_coefs if expected_terms is None
                   else expected_terms)
    failures = []
    if set(result["selected"]) != expected:
        failures.append(f"selected terms {sorted(result['selected'])} != "
                        f"generating terms {sorted(expected)}")
    if not setup.workload.band_checks:
        return failures
    for tid, true in setup.truth_coefs.items():
        band = COEF_BANDS.get(tid)
        got = result["coefs"].get(tid)
        if band is not None and got is not None \
                and abs(got - true) > band * abs(true):
            failures.append(f"{tid} = {got:.6g} outside {band:.0%} of "
                            f"{true:.6g}")
    for name, true in setup.truth_params.items():
        band = PARAM_BANDS.get(name)
        got = result["params"].get(name)
        if band is not None and abs(got - true) > band:
            failures.append(f"{name} = {got:.6g} outside +-{band} of {true}")
    return failures


def summary_digest(outcome: Outcome) -> str:
    if not outcome.summary_bytes:
        return ""
    return hashlib.sha256(outcome.summary_bytes).hexdigest()
