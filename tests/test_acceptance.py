"""Scenario-level acceptance gate.

Nine numbered checks cover the reference scenarios, noise robustness,
library invariance, alternative parameterizations, the closed-form
oracles, and solver-setting sensitivity.  Each test prints one
``CRITERION n: PASS|FAIL`` line straight to the terminal (capture is
suspended for that line) and then asserts the same conditions with
labelled details, so a full run shows the verdicts inline.
"""

import numpy as np
import pytest

from conftest import (M_STAR, TIGHT_ASSIM, assimilation_settings, candidate,
                      coef, manufactured_field, point_coordinates,
                      sorption_params, term_stat)
from transportid.assimilation import (_chain_factor, fd_gradient,
                                      from_unbounded, lm_step,
                                      run_assimilation, to_unbounded)
from transportid.library import LibrarySpec
from transportid.params import ParamBounds
from transportid.preprocess import (_filter_axis, composite_filter,
                                    compute_derivatives, split_train_test)
from transportid.regression import PredictionErrorEvaluator
from transportid.scenarios import true_coefficients
from transportid.transport import Field

SELECTED = {
    "s1": {"adv", "dis"},
    "s2": {"adv", "dis", "fsorp"},
    "s3": {"adv", "dis", "lsorp"},
}
TERM_TOL = {
    "s1": {"adv": 0.03, "dis": 0.03},
    "s2": {"adv": 0.03, "dis": 0.03, "fsorp": 0.08},
    "s3": {"adv": 0.03, "dis": 0.03, "lsorp": 0.05},
}
PARAM_BAND = {
    "s2": ("a", 0.700, 0.02),
    "s3": ("K_l", 100.0, 3.0),
}


@pytest.fixture
def announce(capfd):
    def _announce(n: int, ok: bool) -> None:
        with capfd.disabled():
            print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    return _announce


def check(announce, n, conditions):
    ok = all(flag for _, flag in conditions)
    announce(n, ok)
    failed = [label for label, flag in conditions if not flag]
    assert ok, f"criterion {n}: " + "; ".join(failed)


def param_mean(report, name):
    s = report.final_summary
    return float(s.param_mean[s.param_names.index(name)])


def scenario_conditions(name, report, prefix=""):
    """Selection plus coefficient and parameter bands for one scenario."""
    s = report.final_summary
    truth = true_coefficients(name)
    conds = [(f"{prefix}{name} selected {sorted(SELECTED[name])}",
              set(report.selected_term_ids) == SELECTED[name])]
    for tid, tol in TERM_TOL[name].items():
        if tid not in s.term_ids:
            conds.append((f"{prefix}{name}:{tid} missing", False))
            continue
        err = abs(term_stat(s, tid) - truth[tid]) / abs(truth[tid])
        conds.append((f"{prefix}{name}:{tid} err {err:.2%} <= {tol:.0%}",
                      err <= tol))
    if name in PARAM_BAND:
        pname, center, half = PARAM_BAND[name]
        val = param_mean(report, pname)
        conds.append((f"{prefix}{name}:{pname} {val:.4f} in {center}+-{half}",
                      abs(val - center) <= half))
    return conds


def test_criterion_1_sorption_free_scenario(pipeline, announce):
    wall = pipeline.wall_time("s1")
    report = pipeline.report("s1")
    conds = scenario_conditions("s1", report)
    # the rejected sorption candidates must carry negligible weight
    for cand in ("fsorp", "lsorp"):
        cs = candidate(report, cand).summary
        frac = (term_stat(cs, cand, "alpha_abs_norm_mean")
                / float(np.max(cs.alpha_abs_norm_mean)))
        conds.append((f"{cand} weight {frac:.2%} < 5%", frac < 0.05))
    conds.append((f"wall time {wall:.1f}s < 120s", wall < 120.0))
    check(announce, 1, conds)


def test_criterion_2_freundlich_scenario(pipeline, announce):
    check(announce, 2, scenario_conditions("s2", pipeline.report("s2")))


def test_criterion_3_langmuir_scenario(pipeline, announce):
    check(announce, 3, scenario_conditions("s3", pipeline.report("s3")))


def test_criterion_4_extended_library_collapses_to_basic(pipeline, announce):
    conds = []
    for name in ("s1", "s2", "s3"):
        basic = pipeline.report(name).final_summary
        ext = pipeline.report(name, library="extended").final_summary
        same_terms = ext.term_ids == basic.term_ids
        conds.append((f"{name} pruned terms {ext.term_ids}", same_terms))
        if same_terms:
            identical = (np.array_equal(ext.alpha_phys_mean, basic.alpha_phys_mean)
                         and np.array_equal(ext.alpha_norm_mean, basic.alpha_norm_mean)
                         and np.array_equal(ext.param_mean, basic.param_mean))
            conds.append((f"{name} refit coefficients identical", identical))
    check(announce, 4, conds)


def test_criterion_5_noise_robustness_without_sorption(pipeline, announce):
    truth = true_coefficients("s1")
    conds = []
    for delta in (0.01, 0.05, 0.10):
        report = pipeline.report("s1", delta=delta)
        s = report.final_summary
        conds.append((f"d={delta} selected {sorted(report.selected_term_ids)}",
                      set(report.selected_term_ids) == SELECTED["s1"]))
        for tid in ("adv", "dis"):
            if tid not in s.term_ids:
                conds.append((f"d={delta}:{tid} missing", False))
                continue
            err = abs(term_stat(s, tid) - truth[tid]) / abs(truth[tid])
            conds.append((f"d={delta}:{tid} err {err:.2%} <= 5%", err <= 0.05))
    high = pipeline.report("s1", delta=0.10).final_summary
    frac = len(high.screened_run_ids) / high.n_runs
    conds.append((f"screened {frac:.0%} <= 10% at d=0.10", frac <= 0.10))
    check(announce, 5, conds)


def test_criterion_6_noise_trend_with_freundlich_sorption(pipeline, announce):
    truth = true_coefficients("s2")["fsorp"]
    report01 = pipeline.report("s2", delta=0.01)
    f_stat = term_stat(candidate(report01, "fsorp").summary, "fsorp",
                       "alpha_abs_norm_mean")
    l_stat = term_stat(candidate(report01, "lsorp").summary, "lsorp",
                       "alpha_abs_norm_mean")
    conds = [(f"|alpha_norm| fsorp {f_stat:.3f} > lsorp {l_stat:.3f} at d=0.01",
              f_stat > l_stat)]
    errors = []
    for delta in (0.01, 0.05, 0.10):
        report = pipeline.report("s2", delta=delta)
        s = report.final_summary
        if "fsorp" not in s.term_ids:
            conds.append((f"d={delta} fsorp missing", False))
            continue
        errors.append(abs(term_stat(s, "fsorp") - truth))
    if len(errors) == 3:
        conds.append((
            "fsorp degradation {:.3f} <= {:.3f} <= {:.3f}".format(*errors),
            errors[0] <= errors[1] <= errors[2]))
    check(announce, 6, conds)


def test_criterion_7_alternative_parameterizations(pipeline, announce):
    cases = (("s2-kf01", "fsorp", 0.10), ("s3-kl60", "lsorp", 0.05),
             ("s2-fast", "adv", 0.03), ("s3-fast", "adv", 0.03))
    conds = []
    for name, tid, tol in cases:
        s = pipeline.report(name).final_summary
        truth = true_coefficients(name)[tid]
        if tid not in s.term_ids:
            conds.append((f"{name}:{tid} missing", False))
            continue
        err = abs(term_stat(s, tid) - truth) / abs(truth)
        conds.append((f"{name}:{tid} err {err:.2%} <= {tol:.0%}", err <= tol))
    check(announce, 7, conds)


def test_criterion_8_closed_form_oracles_and_invariants(pipeline, announce):
    conds = []

    # regression recovery on a field with analytically exact derivatives
    basic = LibrarySpec.from_name("basic")
    alpha_true = {"adv": -0.01, "dis": 0.01, "fsorp": -0.15, "lsorp": -1.2}
    fit = PredictionErrorEvaluator(
        split_train_test(manufactured_field(alpha_true), 0.6),
        basic).evaluate(sorption_params(*M_STAR))
    rel = max(abs(coef(fit.alpha_phys, t) - v) / abs(v)
              for t, v in alpha_true.items())
    conds.append((f"regression recovery {rel:.1e} <= 1e-8", rel <= 1e-8))

    # parameter recovery from opposite bound corners
    bounds = ParamBounds.default()
    points = manufactured_field({"adv": -0.01, "dis": 0.01, "fsorp": -0.15})
    ev = PredictionErrorEvaluator(split_train_test(points, 0.6),
                                  basic.subset(("adv", "dis", "fsorp")))
    with assimilation_settings(TIGHT_ASSIM):
        worst_a = max(abs(run_assimilation(ev, sorption_params(*start),
                                           bounds).m_final["a"] - M_STAR[0])
                      for start in ((0.26, 31.0), (0.74, 149.0)))
    conds.append((f"exponent recovery {worst_a:.1e} <= 1e-3", worst_a <= 1e-3))

    # damped update equals the regularized normal equations
    rng = np.random.default_rng(42)
    worst_eq = 0.0
    for _ in range(1000):
        m = rng.normal(size=2)
        m_pr = rng.normal(size=2)
        g = rng.normal(size=2)
        c_m = np.diag(rng.uniform(0.1, 10.0, 2))
        c_eps = float(rng.uniform(0.01, 10.0))
        eps = float(rng.normal())
        lam = float(rng.uniform(0.0, 100.0))
        got = lm_step(m, m_pr, g, np.diag(c_m), c_eps, eps, lam)
        h = (1.0 + lam) * np.linalg.inv(c_m) + np.outer(g, g) / c_eps
        rhs = np.linalg.solve(c_m, m - m_pr) + g * eps / c_eps
        expected = m - np.linalg.solve(h, rhs)
        denom = np.maximum(np.abs(expected), 1e-8)
        worst_eq = max(worst_eq, float(np.max(np.abs(got - expected) / denom)))
    conds.append((f"update-form equivalence {worst_eq:.1e} <= 1e-10",
                  worst_eq <= 1e-10))

    # finite-difference gradient accuracy at a 1% relative step
    def smooth_objective(v):
        return float(np.exp(0.8 * v[0]) + (v[1] / 50.0) ** 3)

    m0 = np.array([0.55, 90.0])
    g_fd = fd_gradient(smooth_objective, m0, bounds)
    g_true = np.array([0.8 * np.exp(0.8 * m0[0]), 3.0 * m0[1] ** 2 / 50.0 ** 3])
    g_err = float(np.max(np.abs(g_fd - g_true) / np.abs(g_true)))
    conds.append((f"fd gradient error {g_err:.1e} < 1e-4", g_err < 1e-4))

    # bounded transform: round trip and chain factor
    lower, upper = bounds.lower_array(), bounds.upper_array()
    draws = rng.uniform(lower + 0.01, upper - 0.01, size=(100, 2))
    rt = max(float(np.max(np.abs(from_unbounded(to_unbounded(m, lower, upper),
                                                lower, upper) - m) / np.abs(m)))
             for m in draws)
    conds.append((f"transform round trip {rt:.1e} <= 1e-12", rt <= 1e-12))
    m_probe = np.array([0.62, 75.0])
    s_probe = to_unbounded(m_probe, lower, upper)
    h = 1e-6
    fd = np.empty(2)
    for i in range(2):
        hi, lo = s_probe.copy(), s_probe.copy()
        hi[i] += h
        lo[i] -= h
        fd[i] = (from_unbounded(hi, lower, upper)[i]
                 - from_unbounded(lo, lower, upper)[i]) / (2.0 * h)
    chain = _chain_factor(m_probe, lower, upper)
    ch_err = float(np.max(np.abs(fd - chain) / np.abs(chain)))
    conds.append((f"chain factor error {ch_err:.1e} <= 1e-6", ch_err <= 1e-6))

    # ensemble invariants on real runs: accepted errors strictly fall,
    # screening out runs never widens any per-term spread
    mono = True
    spread_ok = True
    for report in (pipeline.report("s1"), pipeline.report("s2", delta=0.01)):
        pools = [(c.summary, c.results) for c in report.candidates]
        pools.append((report.final_summary, report.final_results))
        for summary, results in pools:
            for res in results:
                eps = [r.eps for r in res.trace.records if r.accepted]
                mono = mono and all(b < a for a, b in zip(eps, eps[1:]))
            live = [r for r in results
                    if r.run_id not in summary.failed_run_ids]
            alpha = np.array([r.fit.alpha_norm.values for r in live])
            kept = np.array([r.fit.alpha_norm.values for r in live
                             if r.run_id in summary.retained_run_ids])
            spread_ok = spread_ok and bool(
                np.all(kept.std(axis=0) <= alpha.std(axis=0) + 1e-15))
    conds.append(("accepted-step error monotone on every trace", mono))
    conds.append(("screening never increases per-term std", spread_ok))

    # smoothing reproduces cubics; stencils exact at matching degree
    xs = np.linspace(0.0, 4.0, 120)
    cubic = 1.0 + 0.3 * xs - 0.2 * xs ** 2 + 0.05 * xs ** 3
    w = composite_filter(6)
    smoothed = _filter_axis(cubic, w, 0)
    supported = slice(w.size // 2, -(w.size // 2))
    sm_err = float(np.max(np.abs(smoothed[supported] - cubic[supported])
                          / np.abs(cubic[supported])))
    conds.append((f"cubic smoothing error {sm_err:.1e} <= 1e-9", sm_err <= 1e-9))
    h = 0.25
    grid_x = h * np.arange(30)
    field = Field(np.tile((grid_x ** 3)[:, None], (1, 6)), 0.0, h, 0.0, 0.5, None)
    d = compute_derivatives(field)
    x, _ = point_coordinates(d, field)
    stencil_ok = (np.allclose(d.c_xx, 6.0 * x, rtol=1e-12)
                  and np.allclose(d.c_xxx, 6.0, rtol=1e-10)
                  and np.allclose(d.c_x, 3.0 * x ** 2 + h ** 2, rtol=1e-12))
    conds.append(("derivative stencils exact on matching polynomials",
                  stencil_ok))

    check(announce, 8, conds)


def test_criterion_9_solver_setting_sensitivity(pipeline, announce):
    variants = (("base", ()),
                ("c_eps*10", (("_C_EPS_SCALE", 0.1),)),
                ("c_eps/10", (("_C_EPS_SCALE", 0.001),)),
                ("lambda0=1", (("_LAMBDA0", 1.0),)),
                ("lambda0=100", (("_LAMBDA0", 100.0),)))
    conds = []
    for label, assim in variants:
        for name in ("s1", "s2", "s3"):
            report = pipeline.report(name, assimilation=assim)
            sub = scenario_conditions(name, report, prefix=f"{label}/")
            bad = [lbl for lbl, flag in sub if not flag]
            conds.append((f"{label}/{name}" + (f" [{'; '.join(bad)}]" if bad else ""),
                          not bad))
    check(announce, 9, conds)
